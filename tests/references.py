"""Test-side references: closed forms and curve-built cross-checks.

Maxwell's coaxial-loop mutual inductance and the untuned two-mesh
transfer ratio are the analytic oracles the numerics are held to, and
Ring is the exact circle they describe, posed like a coil. Rectangle is
a curve of four straight pieces with kinks at unequal steps of its
parameter, whose field has a closed form too. The polyline that the
older kernels ran on, the flux route to mutual inductance and the dense
closest-approach sampler are cross-checks of the package's curve
kernels; each reads a coil's pieces from its breaks. None of them is
part of the package.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from mqslink.constants import MU0
from mqslink.field_coupling import (ConvergenceError, SeparationError,
                                    SingularEvaluationError,
                                    _check_separation, _coupling_floor,
                                    _curve_distance, _curve_field,
                                    _curve_nodes, _gauss_legendre,
                                    _neumann_sum)
from mqslink.geometry import (CoilSpec, FilamentCoil, Pose, apply_pose,
                              build_filament_coil)


@dataclass(frozen=True, eq=False)
class Ring:
    """An exact circle of `radius` (m) about its local z axis, traced
    counter-clockwise from +x: one closed piece, whatever rule a spiral
    winding follows. It has the curve attributes the field_coupling
    kernels read from a FilamentCoil, and apply_pose poses it."""

    radius: float
    wire_diameter: float = 1e-4
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    origin: np.ndarray = field(default_factory=lambda: np.zeros(3))

    # placed in the world as a coil's winding is
    axis = FilamentCoil.axis
    curve = FilamentCoil.curve

    @property
    def breaks(self):
        return np.array([0.0, 2.0 * math.pi])

    @property
    def top_speed(self):
        return self.radius

    @property
    def radii(self):
        return np.array([self.radius])

    def local(self, phi):
        phi = np.asarray(phi, dtype=float)
        cos, sin = np.cos(phi), np.sin(phi)
        zero = np.zeros_like(phi)
        return (np.column_stack([self.radius * cos, self.radius * sin, zero]),
                np.column_stack([-self.radius * sin, self.radius * cos, zero]))


@dataclass(frozen=True, eq=False)
class Rectangle:
    """An exact rectangle of half-sides a along local x and b along local
    y (m), traced counter-clockwise by arc length from the corner
    (a, -b): four straight pieces, with the corners as breaks at 0, 2b,
    2b + 2a, 4b + 2a and 4b + 4a, which are not equal steps when a != b.
    Its one radius, which the kernels' floors read as a turn's, is that
    of the circle of its area. apply_pose poses it."""

    a: float
    b: float
    wire_diameter: float = 1e-4
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    origin: np.ndarray = field(default_factory=lambda: np.zeros(3))

    axis = FilamentCoil.axis
    curve = FilamentCoil.curve
    top_speed = 1.0

    @property
    def corners(self):
        a, b = self.a, self.b
        return np.array([[a, -b, 0.0], [a, b, 0.0], [-a, b, 0.0], [-a, -b, 0.0], [a, -b, 0.0]])

    @property
    def breaks(self):
        return np.cumsum([0.0, 2.0 * self.b, 2.0 * self.a, 2.0 * self.b, 2.0 * self.a])

    @property
    def radii(self):
        return np.array([math.sqrt(4.0 * self.a * self.b / math.pi)])

    def local(self, phi):
        phi = np.asarray(phi, dtype=float)
        side = np.clip(np.searchsorted(self.breaks, phi, side="right") - 1, 0, 3)
        step = np.diff(self.corners, axis=0)
        tangent = step / np.linalg.norm(step, axis=1)[:, None]
        return (self.corners[side] + (phi - self.breaks[side])[:, None] * tangent[side],
                tangent[side])


def piece_angles(coil, per_piece):
    """(pieces * per_piece + 1,) parameter values: per_piece equal steps
    on every piece of coil.breaks, and the curve's end."""
    b = coil.breaks
    steps = b[:-1, None] + np.diff(b)[:, None] * (np.arange(per_piece) / per_piece)
    return np.r_[steps.ravel(), b[-1]]


def longest_piece(coil):
    """The longest piece of coil's parameter."""
    return float(np.diff(coil.breaks).max())


# quadrature ladder for flux disks: (radial Gauss-Legendre nodes,
# uniform angular nodes), each level doubling the previous
FLUX_LEVELS = ((8, 16), (16, 32), (32, 64), (64, 128))


def polyline(coil, per_piece):
    """(pieces * per_piece + 1, 3) vertices: the posed curve at equal
    steps on every piece (piece_angles). Segment i runs from vertex i to
    vertex i + 1."""
    return coil.curve(piece_angles(coil, per_piece))[0]


def disk_frames(coil, per_piece=360):
    """Per-piece (center, radius, e1, e2) of flat spanning disks, one for
    each turn of a spiral.

    The radius is the winding's at the piece's mid-angle: it grows
    linearly with angle, so that is its mean over the turn. The center
    sits on the coil axis at the mean height of the piece's
    per_piece + 1 vertices; normals share the coil axis.
    """
    n = coil.axis
    helper = np.array([0.0, 0.0, 1.0]) if abs(n[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(n, helper)
    e1 = e1 / np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    b = coil.breaks
    mid, _ = coil.local((b[:-1] + b[1:]) / 2.0)
    radii = np.hypot(mid[:, 0], mid[:, 1])
    height = coil.local(piece_angles(coil, per_piece))[0][:, 2]
    return [(coil.origin + n * float(np.mean(height[i * per_piece:(i + 1) * per_piece + 1])),
             float(radii[i]), e1, e2) for i in range(len(b) - 1)]


def closest_approach(tx, rx):
    """Closest approach (m) of two posed coils by dense sampling: each
    curve sampled at arc steps no longer than the combined wire
    exclusion, against the other's exact curve, both ways."""
    step = (tx.wire_diameter + rx.wire_diameter) / 2.0
    worst = math.inf
    for a, b in ((tx, rx), (rx, tx)):
        per_piece = math.ceil(longest_piece(a) * a.top_speed / step)
        samples, _ = a.curve(piece_angles(a, per_piece))
        worst = min(worst, float(_curve_distance(b, samples).min()))
    return worst


def flux_mutual_inductance(tx, rx, tolerance=1e-3):
    """(M, relative change of the last refinement) by the flux route.

    The tx field's flux per ampere through a flat disk spanning each rx
    turn, B.n integrated by radial Gauss-Legendre x uniform-angle
    quadrature and refined until successive estimates agree. B comes
    from the tx winding curve. A spiral's turns are not flat disks, so
    it agrees with the Neumann integral only to about 1%.
    """
    _check_separation(tx, rx)
    frames = disk_frames(rx)
    normal = rx.axis
    floor = _coupling_floor(tx, rx)

    prev = None
    estimate = math.inf
    for n_r, n_t in FLUX_LEVELS:
        nodes, weights = _gauss_legendre(n_r)
        x = (nodes + 1.0) / 2.0            # radial fraction on (0, 1)
        w = weights / 2.0
        theta = 2.0 * math.pi * np.arange(n_t) / n_t
        cos_t, sin_t = np.cos(theta), np.sin(theta)

        pts = []
        areas = []
        for center, radius, e1, e2 in frames:
            ring = (np.outer(cos_t, e1) + np.outer(sin_t, e2))    # (n_t, 3)
            p = center + radius * x[:, None, None] * ring[None, :, :]
            pts.append(p.reshape(-1, 3))
            # r dr dtheta weights for this disk
            areas.append(np.repeat(radius**2 * w * x, n_t) * (2.0 * math.pi / n_t))
        pts = np.vstack(pts)
        areas = np.concatenate(areas)

        b, valid, _ = _curve_field(tx, pts)
        if not valid.all():
            d = float(_curve_distance(tx, pts[~valid]).min())
            raise SeparationError(
                "receiver spanning surface enters the transmitter wire's "
                f"exclusion zone (closest approach {d:.3e} m)"
            )
        phi = float(np.sum((b @ normal) * areas))

        if prev is not None:
            estimate = abs(phi - prev) / max(abs(phi), floor)
            if estimate <= tolerance:
                return phi, estimate
        prev = phi
    raise ConvergenceError(
        f"flux quadrature did not reach tolerance {tolerance:g} "
        f"(last relative change {estimate:.3e})",
        value=prev, estimate=estimate,
    )


def random_spiral_pairs(count=50, seed=2026):
    """Criterion 04's posed (tx, rx) pairs of random 2- to 4-turn flat
    spirals: a 20-35 mm tx tilted up to 30 degrees, and a 4-10 mm rx
    50-80 mm above it, up to 30 mm off its axis, tilted up to 90 degrees."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        tx_spec = CoilSpec(turns=int(rng.integers(2, 5)),
                           inner_radius=rng.uniform(0.020, 0.035),
                           wire_diameter=0.2e-3, wire_spacing=0.4e-3)
        rx_spec = CoilSpec(turns=int(rng.integers(2, 5)),
                           inner_radius=rng.uniform(0.004, 0.010),
                           wire_diameter=0.2e-3, wire_spacing=0.4e-3)
        tx = apply_pose(build_filament_coil(tx_spec, 120),
                        Pose(tilt_angle_deg=rng.uniform(0, 30)))
        rx = apply_pose(build_filament_coil(rx_spec, 120),
                        Pose(center=(rng.uniform(0, 0.030), 0.0, rng.uniform(0.050, 0.080)),
                             tilt_angle_deg=rng.uniform(0, 90)))
        pairs.append((tx, rx))
    return pairs


def closing_path(coil):
    """(3, 3) vertices of the straight return from a coil's outer end
    through its centre to its inner end. On a flat spiral of whole turns
    the two legs lie on one line, and the path is the radial chord from
    the outer end back to the inner end."""
    (inner, outer), _ = coil.curve(coil.breaks[[0, -1]])
    return np.array([outer, coil.origin, inner])


def path_neumann(tx, path, nodes_per_leg=16):
    """Neumann M (H) between tx's winding and the straight polyline path,
    Gauss-Legendre on each leg against 64 nodes per tx piece."""
    nodes, weights = _gauss_legendre(nodes_per_leg)
    legs = list(zip(path[:-1], path[1:]))
    points = np.vstack([a + np.outer((nodes + 1.0) / 2.0, b - a) for a, b in legs])
    elements = np.vstack([np.outer(weights / 2.0, b - a) for a, b in legs])
    return _neumann_sum(*_curve_nodes(tx, 64), points, elements)


# cone quadrature: Gauss-Legendre nodes along each generator, and
# composite Gauss-Legendre panels (with nodes per panel) per piece
CONE_NODES, CONE_PANELS, CONE_PANEL_NODES = 24, 16, 16


def cone_flux_mutual_inductance(tx, rx):
    """M (H) as the flux of tx's field through the cone over rx's winding.

    The cone S(s, phi) = c + s (r(phi) - c), s in [0, 1], joins rx's
    centre c to each point r(phi) of its winding; its area element is
    s (r - c) x r'(phi) ds dphi. Its boundary is the winding plus
    closing_path(rx), so by Stokes' theorem the flux per ampere equals
    the Neumann M of that closed curve, whatever the spiral rule, and it
    spans a helical coil as well as a flat one. B comes from tx's winding
    curve; a cone that enters tx's wire exclusion zone raises
    SeparationError, as the disk route does.
    """
    s, ws = _gauss_legendre(CONE_NODES)
    s, ws = (s + 1.0) / 2.0, ws / 2.0
    x, wx = _gauss_legendre(CONE_PANEL_NODES)
    width = np.repeat(np.diff(rx.breaks) / CONE_PANELS, CONE_PANELS)[:, None]
    starts = piece_angles(rx, CONE_PANELS)[:-1, None]
    phi = (starts + width * (x + 1.0) / 2.0).ravel()
    w_phi = (wx * width / 2.0).ravel()
    r, dr = rx.curve(phi)
    spoke = r - rx.origin
    points = rx.origin + s[:, None, None] * spoke[None, :, :]
    areas = (s * ws)[:, None, None] * (np.cross(spoke, dr) * w_phi[:, None])[None, :, :]
    b, valid, _ = _curve_field(tx, points.reshape(-1, 3))
    if not valid.all():
        d = float(_curve_distance(tx, points.reshape(-1, 3)[~valid]).min())
        raise SeparationError("receiver cone enters the transmitter wire's "
                              f"exclusion zone (closest approach {d:.3e} m)")
    return float(np.sum(b * areas.reshape(-1, 3)))


def _ellipke(k):
    # complete elliptic integrals K(k), E(k) by AGM; k is the modulus
    a, b = 1.0, math.sqrt(1.0 - k * k)
    c = k
    csum = 0.5 * c * c
    n = 0
    while abs(c) > 1e-16 and n < 60:
        a, b, c = (a + b) / 2.0, math.sqrt(a * b), (a - b) / 2.0
        n += 1
        csum += 2.0 ** (n - 1) * c * c
    big_k = math.pi / (2.0 * a)
    return big_k, big_k * (1.0 - csum)


def coaxial_mutual_oracle(r1, r2, z):
    """Closed-form M (H) of two coaxial circular loops separated by z.

    Maxwell's formula: with k^2 = 4 r1 r2/((r1+r2)^2 + z^2),
    M = mu0 sqrt(r1 r2) ((2/k - k) K(k) - (2/k) E(k)). The elliptic
    integrals come from the AGM iteration, accurate to ~1e-15, so this
    serves as the analytic reference for the numerical integrators.
    """
    if r1 <= 0 or r2 <= 0:
        raise ValueError("loop radii must be > 0")
    k_sq = 4.0 * r1 * r2 / ((r1 + r2) ** 2 + z * z)
    if k_sq >= 1.0 - 1e-15:
        raise SingularEvaluationError(
            "coincident coaxial loops (r1 = r2, z = 0): M diverges in the filament limit"
        )
    k = math.sqrt(k_sq)
    big_k, big_e = _ellipke(k)
    return MU0 * math.sqrt(r1 * r2) * ((2.0 / k - k) * big_k - (2.0 / k) * big_e)


def transfer_ratio_untuned(link, f):
    """V_rx/V_source of the capacitor-free link by the direct two-mesh form.

    H = jwM*R_load / ((jwL_tx + R_s)(jwL_rx + R_l) + w^2 M^2) with the
    coil losses folded into the source and load positions (R_s =
    r_source + coil ESR, R_l = r_load + coil ESR) and the numerator
    keeping the bare r_load, since V_rx is measured across it alone.
    Kept as an independent expression: the general solver must reduce
    to this exactly, and tests hold the pair together.
    """
    if link.c_tx is not None or link.c_rx is not None:
        raise ValueError("untuned transfer ratio requires both tuning capacitors absent")
    if link.parasitic_tx is not None or link.parasitic_rx is not None:
        raise ValueError("untuned transfer ratio requires parasitic capacitances absent")
    farr = np.asarray(f, dtype=float)
    if np.any(farr <= 0):
        raise ValueError("frequency must be > 0")
    w = 2.0 * math.pi * farr
    r_s = link.r_source + link.coil_resistance_tx(farr)
    r_l = link.r_load + link.coil_resistance_rx(farr)
    wm = w * link.m
    h = (1j * wm * link.r_load
         / ((1j * w * link.l_tx + r_s) * (1j * w * link.l_rx + r_l) + wm * wm))
    return complex(h) if np.ndim(f) == 0 else h
