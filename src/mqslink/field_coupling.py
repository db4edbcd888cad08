"""Magnetic coupling between posed filament coils.

Fields come from the exact finite straight-segment kernel, evaluated in
one pass per block of points over the point-to-vertex offsets; blocks
are sized so their planes stay in a core's L2 cache, which leaves B's
last bits to the BLAS summation order of each block's rows. The exact
point-to-segment distance runs only for points near a vertex, to mask
those inside a wire, and is elementwise, so masks do not depend on the
blocking. Flux comes from per-turn disk quadrature, and mutual
inductance from one of two routes: the Neumann double line integral by
Gauss-Legendre quadrature on the exact winding curve (spectral, the
default), or the flux route, an independent cross-check of it. A
closed-form coaxial-loop formula built on AGM elliptic integrals is the
analytic reference for the kernel.

Self-inductance is deliberately not computed here (the filament limit
is singular); the lumped module owns it. The wire radius enters only as
an exclusion zone around each filament.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .constants import MU0
from .geometry import FilamentCoil

SPECTRAL = "spectral"
FLUX = "flux"
_METHODS = (SPECTRAL, FLUX)

# pair budget per block of the field kernel (point-vertex pairs) and of
# the segment distance pass (point-segment pairs): 256 KiB per float64
# plane, so a block's half-dozen planes stay in a core's L2 cache
# instead of streaming through it once per elementwise pass
_BLOCK_PAIRS = 32_768

# pair budget per chunk of the Neumann sum: 16 MB per (rows, nodes)
# float64 plane, and a summation order fixed regardless of problem size
_CHUNK_PAIRS = 2_000_000

# quadrature ladder for flux disks: (radial Gauss-Legendre nodes,
# uniform angular nodes), each level doubling the previous
_FLUX_LEVELS = ((8, 16), (16, 32), (32, 64), (64, 128))

# spectral refinement ladder: Gauss-Legendre nodes per turn
_SPECTRAL_LEVELS = (8, 16, 32, 64)


class SingularEvaluationError(Exception):
    """Field requested inside a wire's exclusion zone."""


class SeparationError(Exception):
    """Coils too close together for the filament model to hold."""


class ConvergenceError(Exception):
    """Refinement cap reached without meeting tolerance.

    Carries the last estimate so callers can decide whether to accept
    it anyway.
    """

    def __init__(self, message: str, value: float, estimate: float):
        super().__init__(message)
        self.value = value
        self.estimate = estimate


@dataclass(frozen=True)
class FieldSample:
    """One field evaluation: position (m) and B (tesla), or a masked slot.

    b is None when the sample fell inside a wire's exclusion zone and
    was masked rather than evaluated.
    """

    position: Tuple[float, float, float]
    b: Optional[Tuple[float, float, float]]

    @property
    def masked(self) -> bool:
        return self.b is None


@dataclass(frozen=True)
class CouplingResult:
    """Mutual inductance (signed, H) with its convergence evidence.

    k is filled by coupling_coefficient when lumped inductances are
    known; it stays None straight out of mutual_inductance.
    """

    m: float
    method: str
    convergence_estimate: float
    k: Optional[float] = None

    def __post_init__(self):
        if not math.isfinite(self.m):
            raise ValueError(f"m must be finite, got {self.m!r}")
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        if not (0.0 <= self.convergence_estimate < math.inf):
            raise ValueError(
                f"convergence_estimate must be finite and >= 0, got {self.convergence_estimate!r}"
            )
        if self.k is not None and not (0.0 <= self.k < 1.0):
            raise ValueError(f"k must lie in [0, 1), got {self.k!r}")


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned planar sampling grid.

    plane names the two in-plane coordinates ("xy", "xz", or "yz");
    offset fixes the remaining coordinate. axis1 is the first letter's
    range, axis2 the second's; samples run row-major with axis1 as the
    slow index.
    """

    plane: str
    offset: float
    axis1_start: float
    axis1_stop: float
    axis1_points: int
    axis2_start: float
    axis2_stop: float
    axis2_points: int

    def __post_init__(self):
        if self.plane not in ("xy", "xz", "yz"):
            raise ValueError(f"plane must be one of 'xy', 'xz', 'yz', got {self.plane!r}")
        for name in ("axis1", "axis2"):
            start = getattr(self, name + "_start")
            stop = getattr(self, name + "_stop")
            n = getattr(self, name + "_points")
            if not isinstance(n, int) or n < 2:
                raise ValueError(f"{name}_points must be an int >= 2, got {n!r}")
            if not start < stop:
                raise ValueError(f"{name} range must satisfy start < stop, got [{start!r}, {stop!r}]")

    def points(self) -> np.ndarray:
        """All sample positions, shape (axis1_points*axis2_points, 3)."""
        a1 = np.linspace(self.axis1_start, self.axis1_stop, self.axis1_points)
        a2 = np.linspace(self.axis2_start, self.axis2_stop, self.axis2_points)
        g1, g2 = np.meshgrid(a1, a2, indexing="ij")
        cols = {self.plane[0]: g1.ravel(), self.plane[1]: g2.ravel()}
        normal = ({"x", "y", "z"} - set(self.plane)).pop()
        cols[normal] = np.full(g1.size, float(self.offset))
        return np.column_stack([cols["x"], cols["y"], cols["z"]])


def _distance_to_segments(points: np.ndarray, starts: np.ndarray,
                          ends: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest polyline segment."""
    seg = ends - starts
    seg_len_sq = np.maximum(np.sum(seg * seg, axis=1), 1e-300)
    out = np.empty(len(points))
    rows = max(1, _BLOCK_PAIRS // max(1, len(starts)))
    for i0 in range(0, len(points), rows):
        p = points[i0:i0 + rows]
        w = p[:, None, :] - starts[None, :, :]
        t = np.clip(np.sum(w * seg[None, :, :], axis=2) / seg_len_sq[None, :], 0.0, 1.0)
        closest = starts[None, :, :] + t[..., None] * seg[None, :, :]
        d = np.sqrt(np.sum((p[:, None, :] - closest) ** 2, axis=2))
        out[i0:i0 + rows] = d.min(axis=1)
    return out


def _coil_field(coil: FilamentCoil, points: np.ndarray,
                current: float) -> Tuple[np.ndarray, np.ndarray]:
    """B (tesla) of the coil at each of the (n, 3) points, and a mask.

    valid[i] is False where points[i] lies within half a wire diameter
    of a segment; b is zero there. Each block of points takes one pass
    over point-to-vertex offsets: the exclusion mask, then the exact
    finite-segment field (Hanson & Hirshman, Phys. Plasmas 9, 4410,
    2002) summed over segments by matrix products.
    """
    starts, ends = coil.segment_starts, coil.segment_ends
    seg = ends - starts
    seg_len_sq = np.sum(seg * seg, axis=1)
    exclusion = coil.wire_diameter / 2.0
    # a point within `exclusion` of a segment lies within
    # exclusion + len/2 of that segment's nearer end
    reach = exclusion + math.sqrt(float(seg_len_sq.max())) / 2.0
    b = np.zeros_like(points)
    valid = np.ones(len(points), dtype=bool)
    rows = max(1, _BLOCK_PAIRS // len(coil.points))
    for i0 in range(0, len(points), rows):
        p = points[i0:i0 + rows]
        # point - vertex as x, y, z planes; segment s runs from vertex s
        # to vertex s + 1, so its end distances are adjacent columns
        rel = [p[:, k, None] - coil.points[:, k] for k in range(3)]
        dist = rel[0] * rel[0]
        dist += rel[1] * rel[1]
        dist += rel[2] * rel[2]
        np.sqrt(dist, out=dist)
        # only points near a vertex (with a margin far above rounding)
        # need the exact segment distance
        nearest = dist.min(axis=1)
        near = np.flatnonzero(nearest - reach <= 1e-9 * (nearest + reach))
        if len(near):
            d = _distance_to_segments(p[near], starts, ends)
            valid[i0 + near[d <= exclusion]] = False
        keep = valid[i0:i0 + rows]
        if not keep.all():
            rel, dist = [r[keep] for r in rel], dist[keep]
        # half the weight (l1 + l2) / (l1 l2 ((l1 + l2)^2 - L^2)) of each
        # pair, built in place; the 2 joins the constant below
        l1, l2 = dist[:, :-1], dist[:, 1:]
        w = l1 + l2
        den = w * w
        den -= seg_len_sq
        den *= l1
        den *= l2
        w /= den
        # m[k][:, j] = sum_s w_s (p - a_s)_k seg_sj: the field
        # sum_s w_s seg_s x (p - a_s) taken from the offsets themselves,
        # which keeps it accurate beside the wire, where re-centring on a
        # distant origin would cancel several digits
        m = [np.multiply(w, r[:, :-1], out=den) @ seg for r in rel]
        b[i0:i0 + rows][keep] = np.column_stack([m[2][:, 1] - m[1][:, 2],
                                                 m[0][:, 2] - m[2][:, 0],
                                                 m[1][:, 0] - m[0][:, 1]])
        # free this block's planes before the next block builds its own
        del rel, dist, w, den
    return MU0 * current / (2.0 * math.pi) * b, valid


def b_field(coil: FilamentCoil, current: float, point) -> np.ndarray:
    """Magnetic flux density of the coil carrying `current`, in tesla.

    point may be a single 3-vector or an (n, 3) array; the result
    matches its shape. Evaluation within half a wire diameter of any
    segment raises SingularEvaluationError.
    """
    pts = np.atleast_2d(np.asarray(point, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"point must be a 3-vector or (n, 3) array, got shape {np.shape(point)}")
    b, valid = _coil_field(coil, pts, float(current))
    if not valid.all():
        worst = float(_distance_to_segments(pts[~valid], coil.segment_starts,
                                            coil.segment_ends).min())
        raise SingularEvaluationError(
            f"evaluation point within {worst:.3e} m of the filament "
            f"(exclusion zone {coil.wire_diameter / 2.0:.3e} m)"
        )
    return b[0] if np.ndim(point) == 1 else b


def field_map(coil: FilamentCoil, current: float, grid: GridSpec) -> Tuple[FieldSample, ...]:
    """Sample B on a planar grid, row-major, masking singular points.

    Points inside the wire's exclusion zone become masked samples (b is
    None) rather than aborting the map.
    """
    pts = grid.points()
    b, valid = _coil_field(coil, pts, float(current))
    return tuple(FieldSample(tuple(pos), tuple(bv) if ok else None)
                 for pos, bv, ok in zip(pts.tolist(), b.tolist(), valid.tolist()))


def _coupling_floor(tx: FilamentCoil, rx: FilamentCoil) -> float:
    # dipole-scale coupling magnitude; the convergence denominator so
    # symmetry nulls (M -> 0) are not chased to relative precision
    d = float(np.linalg.norm(rx.turn_centers.mean(axis=0) - tx.turn_centers.mean(axis=0)))
    reach = max(float(tx.turn_radii.max()), float(rx.turn_radii.max()))
    d_eff = max(d, reach)
    s_tx = float(np.sum(tx.turn_radii**2))
    s_rx = float(np.sum(rx.turn_radii**2))
    return MU0 * math.pi * s_tx * s_rx / (2.0 * d_eff**3)


def _closest_approach(tx: FilamentCoil, rx: FilamentCoil) -> float:
    # polylines sampled at vertices + midpoints against the other
    # coil's segments
    return min(
        float(_distance_to_segments(
            np.vstack([a.points, (a.segment_starts + a.segment_ends) / 2.0]),
            b.segment_starts, b.segment_ends).min())
        for a, b in ((tx, rx), (rx, tx)))


def _check_separation(tx: FilamentCoil, rx: FilamentCoil) -> None:
    # the filament model needs clearance beyond the mean wire diameter
    threshold = (tx.wire_diameter + rx.wire_diameter) / 2.0
    # each polyline lies in the ball about its mean vertex that reaches
    # its farthest vertex; balls further apart than the threshold (with
    # a margin far above rounding) settle the check without the
    # pairwise pass
    centers = [c.points.mean(axis=0) for c in (tx, rx)]
    reach = sum(float(np.sqrt(np.max(np.sum((c.points - m) ** 2, axis=1))))
                for c, m in zip((tx, rx), centers))
    span = float(np.linalg.norm(centers[0] - centers[1]))
    if span - reach > threshold + 1e-9 * (span + reach):
        return
    d = _closest_approach(tx, rx)
    if d <= threshold:
        raise SeparationError(
            f"coil separation {d:.3e} m is within the combined "
            f"wire exclusion {threshold:.3e} m; filament model invalid"
        )


def _turn_groups(coil: FilamentCoil):
    # vertex index ranges of each turn; the builder keeps a fixed
    # vertex count per turn
    n_turns = len(coil.turn_radii)
    per_turn = coil.n_segments // n_turns
    for i in range(n_turns):
        yield coil.points[i * per_turn:(i + 1) * per_turn + 1]


def _disk_frames(coil: FilamentCoil):
    """Per-turn (center, radius, e1, e2) for flat spanning disks.

    The disk radius is the mean perpendicular distance of that turn's
    vertices from the coil axis, which tracks the winding's actual
    in-plane growth; normals share the coil axis.
    """
    n = coil.axis
    helper = np.array([0.0, 0.0, 1.0]) if abs(n[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(n, helper)
    e1 = e1 / np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    frames = []
    for center, verts in zip(coil.turn_centers, _turn_groups(coil)):
        rel = verts - center
        radial = rel - np.outer(rel @ n, n)
        radius = float(np.sqrt(np.sum(radial * radial, axis=1)).mean())
        frames.append((center, radius, e1, e2))
    return frames


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> Tuple[np.ndarray, np.ndarray]:
    # imported on first use, so parsing a config never loads it
    from numpy.polynomial.legendre import leggauss
    nodes, weights = leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def flux_through(tx: FilamentCoil, rx: FilamentCoil, current: float,
                 tolerance: float = 1e-3) -> float:
    """Total flux (Wb) of the tx coil's field linked by every rx turn.

    Each rx turn spans a flat disk at its center, normal along the rx
    axis; B.n is integrated by radial Gauss-Legendre x uniform-angle
    quadrature, refined until successive estimates agree within
    tolerance (judged against a dipole-scale floor near nulls).
    """
    return _flux(tx, rx, current, tolerance)[0]


def _flux(tx: FilamentCoil, rx: FilamentCoil, current: float,
          tolerance: float) -> Tuple[float, float]:
    # (flux, relative change of the last refinement)
    if tolerance <= 0:
        raise ValueError(f"tolerance must be > 0, got {tolerance!r}")
    _check_separation(tx, rx)
    frames = _disk_frames(rx)
    normal = rx.axis
    floor = _coupling_floor(tx, rx) * abs(float(current))

    prev = None
    estimate = math.inf
    for n_r, n_t in _FLUX_LEVELS:
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

        b, valid = _coil_field(tx, pts, float(current))
        if not valid.all():
            d = float(_distance_to_segments(pts[~valid], tx.segment_starts,
                                            tx.segment_ends).min())
            raise SeparationError(
                "receiver spanning surface enters the transmitter wire's "
                f"exclusion zone (closest approach {d:.3e} m)"
            )
        phi = float(np.sum((b @ normal) * areas))

        if prev is not None:
            estimate = abs(phi - prev) / max(abs(phi), floor) if max(abs(phi), floor) > 0 else 0.0
            if estimate <= tolerance:
                return phi, estimate
        prev = phi
    raise ConvergenceError(
        f"flux quadrature did not reach tolerance {tolerance:g} "
        f"(last relative change {estimate:.3e})",
        value=prev, estimate=estimate,
    )


def _curve_nodes(coil: FilamentCoil, n: int):
    # n Gauss-Legendre nodes on each turn's 2 pi of winding angle:
    # world points and tangent * weight, the line element per node
    nodes, weights = _gauss_legendre(n)
    turns = coil.spec.turns
    phi = math.pi * (2.0 * np.arange(turns)[:, None] + 1.0 + nodes[None, :])
    points, tangents = coil.curve(phi.ravel())
    return points, tangents * np.tile(math.pi * weights, turns)[:, None]


def _neumann_sum(m1: np.ndarray, d1: np.ndarray, m2: np.ndarray, d2: np.ndarray) -> float:
    total = 0.0
    rows = max(1, _CHUNK_PAIRS // len(m2))
    for i0 in range(0, len(m1), rows):
        p = m1[i0:i0 + rows]
        dv = d1[i0:i0 + rows]
        diff = p[:, None, :] - m2[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=2))
        dots = np.sum(dv[:, None, :] * d2[None, :, :], axis=2)
        total += float(np.sum(dots / dist))
    return MU0 / (4.0 * math.pi) * total


def mutual_inductance(tx: FilamentCoil, rx: FilamentCoil, method: str = SPECTRAL,
                      tolerance: float = 1e-3) -> CouplingResult:
    """Mutual inductance between two posed coils, signed by orientation.

    spectral: the Neumann double line integral on the exact winding
    curves of both coils, with Gauss-Legendre nodes per turn doubling
    from 8 to 64; it converges exponentially and needs coils that carry
    their CoilSpec (build_filament_coil sets it). The polylines serve
    only the separation check.
    flux: linked flux per unit current via flux_through. It agrees with
    the spectral route within about 1% on non-pathological geometries.

    convergence_estimate is the relative change of the last refinement,
    judged against a dipole-scale floor near symmetry nulls.
    """
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    if tolerance <= 0:
        raise ValueError(f"tolerance must be > 0, got {tolerance!r}")

    if method == FLUX:
        phi, estimate = _flux(tx, rx, current=1.0, tolerance=tolerance)
        return CouplingResult(m=phi, method=FLUX, convergence_estimate=estimate)

    if tx.spec is None or rx.spec is None:
        raise ValueError("the spectral route needs coils that carry their "
                         "CoilSpec (build them with build_filament_coil)")
    _check_separation(tx, rx)
    floor = _coupling_floor(tx, rx)
    prev = None
    estimate = math.inf
    for n in _SPECTRAL_LEVELS:
        m = _neumann_sum(*_curve_nodes(tx, n), *_curve_nodes(rx, n))
        if prev is not None:
            estimate = abs(m - prev) / max(abs(m), floor)
            if estimate <= tolerance:
                return CouplingResult(m=m, method=SPECTRAL, convergence_estimate=estimate)
        prev = m
    raise ConvergenceError(
        f"Spectral refinement did not reach tolerance {tolerance:g} "
        f"(last relative change {estimate:.3e})",
        value=prev, estimate=estimate,
    )


def coupling_coefficient(m: float, l_tx: float, l_rx: float) -> float:
    """k = |M|/sqrt(L_tx*L_rx); |k| >= 1 signals inconsistent inputs."""
    if l_tx <= 0 or l_rx <= 0:
        raise ValueError("inductances must be > 0")
    k = abs(m) / math.sqrt(l_tx * l_rx)
    if k >= 1.0:
        raise ValueError(
            f"|k| = {k:.6g} >= 1: mutual inductance inconsistent with the coil inductances"
        )
    return k


def _ellipke(k: float) -> Tuple[float, float]:
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


def coaxial_mutual_oracle(r1: float, r2: float, z: float) -> float:
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
