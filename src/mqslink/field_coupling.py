"""Magnetic coupling between posed filament coils.

Fields come from Biot-Savart on the exact winding curve, by composite
Gauss-Legendre panels of winding angle whose every panel halves from
one level to the next; a point stops once its last halving moved B by
at most 1e-10 relative, and that change (plus a rounding term) is its
error estimate. Points clear of the wire share uniform panels, summed
per block of points by matrix products over the point-to-node offsets.
Every pair kernel (those sums, the exact point-to-segment distance and
the Neumann sum) builds its offsets as one contiguous (points, nodes)
plane per coordinate, from contiguous coordinate rows, in a buffer
allocated once per call and reused by every block. The field blocks
are sized so their planes stay in a core's L2 cache, which leaves B's
last bits to the BLAS summation order of each block's rows.
A point near the wire starts from the uniform panels bisected only
where they are long against their distance to it, so only the panels
near it refine, and sums its own nodes in a fixed order. The polyline
serves only the masks: the nearest-node distance, less the node gap and
the chord sag, bounds the distance to the polyline from below, and the
exact point-to-segment distance runs only for points that bound cannot
clear; it is elementwise, so masks do not depend on the blocking. Flux
comes from per-turn disk quadrature of that field, and mutual
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
import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .constants import MU0
from .geometry import CoilSpec, FilamentCoil, winding_curve

SPECTRAL = "spectral"
FLUX = "flux"
_METHODS = (SPECTRAL, FLUX)

# pair budget per block of the field kernel (point-node pairs) and of
# the segment distance pass (point-segment pairs): 256 KiB per float64
# plane, so a block's five planes, allocated once per call and reused
# by every block, stay in a core's L2 cache instead of streaming
# through it once per elementwise pass
_BLOCK_PAIRS = 32_768

# the field kernel's panels: Gauss-Legendre nodes per panel, panels per
# turn at level 0 (each level halves them), and the narrowest panel a
# point's own panels are bisected to (rad). Only a point on the curve
# itself needs that floor, and the polyline mask lets one through only
# when the chord sag exceeds the exclusion radius
_PANEL_NODES = 16
_BASE_PANELS = 2
_MIN_WIDTH = 1e-9

# a point's own level-0 panels are at most _PANEL_REACH times as long as
# their distance from it; a point at least 1/_PANEL_REACH of a uniform
# panel's length from the curve shares the uniform panels instead
_PANEL_REACH = 32.0

# field refinement: the level cap, the relative change of the last
# halving a point stops at, and the floor of that change's scale, as a
# fraction of the coil's centre-field scale mu0 N I / (2 r_mean)
_FIELD_LEVELS = 6
_FIELD_TOLERANCE = 1e-10
_FIELD_FLOOR = 1e-3

# points near the wire whose own panels are built at once, which bounds
# the panel arrays whatever the map's size
_OWN_POINTS = 1024

# rounding of a node's position, relative to the winding's span: two
# units of double precision, which tops the level-to-level jitter seen
# beside the wire by 3x or more
_ROUNDING = 2.0 * 2.0**-52

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
class CouplingResult:
    """Mutual inductance (signed, H) with its convergence evidence."""

    m: float
    method: str
    convergence_estimate: float

    def __post_init__(self):
        if not math.isfinite(self.m):
            raise ValueError(f"m must be finite, got {self.m!r}")
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        if not (0.0 <= self.convergence_estimate < math.inf):
            raise ValueError(
                f"convergence_estimate must be finite and >= 0, got {self.convergence_estimate!r}"
            )


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
    pt, st, sg = (np.ascontiguousarray(a.T) for a in (points, starts, seg))
    out = np.empty(len(points))
    rows = max(1, _BLOCK_PAIRS // max(1, len(starts)))
    # planes: point - start as x, y, z (then point - closest), the
    # segment parameter t, and one scratch plane
    buf = np.empty((5, min(rows, len(points)), len(starts)))
    for i0 in range(0, len(points), rows):
        p = pt[:, i0:i0 + rows]
        *w, t, tmp = buf[:, :p.shape[1]]
        for k in range(3):
            np.subtract.outer(p[k], st[k], out=w[k])
        # t = clip((w . seg) / |seg|^2), summed (x + y) + z
        np.multiply(w[0], sg[0], out=t)
        for k in (1, 2):
            t += np.multiply(w[k], sg[k], out=tmp)
        t /= seg_len_sq
        np.clip(t, 0.0, 1.0, out=t)
        # |point - (start + t seg)|^2, summed (x + y) + z; sqrt is
        # monotone, so it is taken after the minimum
        for k in range(3):
            np.multiply(t, sg[k], out=w[k])
            w[k] += st[k]
            np.subtract(p[k, :, None], w[k], out=w[k])
            w[k] *= w[k]
        w[0] += w[1]
        w[0] += w[2]
        out[i0:i0 + rows] = np.sqrt(w[0].min(axis=1))
    return out


def _panel_nodes(spec: CoilSpec, start: np.ndarray, width: np.ndarray):
    # _PANEL_NODES Gauss-Legendre nodes on each panel of winding angle
    # [start, start + width]: local points and tangent * weight, the
    # line element per node
    nodes, weights = _gauss_legendre(_PANEL_NODES)
    phi = start[:, None] + width[:, None] * ((nodes + 1.0) / 2.0)
    points, tangents = winding_curve(spec, phi.ravel())
    return points, tangents * (width[:, None] / 2.0 * weights).reshape(-1, 1)


def _uniform_panels(turns: int, level: int) -> Tuple[np.ndarray, np.ndarray]:
    # level 0 splits each turn into _BASE_PANELS equal panels, and each
    # level halves them
    count = turns * _BASE_PANELS << level
    width = 2.0 * math.pi * turns / count
    return np.arange(count) * width, np.full(count, width)


def _node_sum(points: np.ndarray, nodes: np.ndarray, dl: np.ndarray,
              skip_within: Optional[float] = None):
    """sum dl x (p - r)/|p - r|^3 over the nodes, at each point.

    With skip_within, also each point's nearest-node distance; rows
    within skip_within of a node are left zero, which keeps points on
    the wire out of the reciprocal.
    """
    b = np.zeros((len(points), 3))
    nearest = np.full(len(points), math.inf)
    pt, nt = np.ascontiguousarray(points.T), np.ascontiguousarray(nodes.T)
    rows = max(1, _BLOCK_PAIRS // len(nodes))
    # planes: point - node as x, y, z, then r^2 (turned into |r|^-3 in
    # place), and one for sqrt(r^2) and then each w * r in turn
    buf = np.empty((5, min(rows, len(points)), len(nodes)))
    for i0 in range(0, len(points), rows):
        p = pt[:, i0:i0 + rows]
        *rel, w, s = buf[:, :p.shape[1]]
        for k in range(3):
            np.subtract.outer(p[k], nt[k], out=rel[k])
        np.multiply(rel[0], rel[0], out=w)
        for k in (1, 2):
            w += np.multiply(rel[k], rel[k], out=s)
        keep = slice(None)
        if skip_within is not None:
            near = np.sqrt(w.min(axis=1))
            nearest[i0:i0 + rows] = near
            keep = near > skip_within
            if not keep.all():
                # move the kept rows to the top of each plane
                kept = np.count_nonzero(keep)
                for plane in buf[:4, :p.shape[1]]:
                    plane[:kept] = plane[keep]
                *rel, w, s = buf[:, :kept]
        # |p - r|^-3, built in place
        np.sqrt(w, out=s)
        w *= s
        np.reciprocal(w, out=w)
        # m[k][:, j] = sum_n w_n (p - r_n)_k dl_nj: the cross product
        # taken from the offsets themselves, which keeps it accurate
        # beside the wire, where re-centring on a distant origin would
        # cancel several digits
        m = [np.multiply(w, r, out=s) @ dl for r in rel]
        b[i0:i0 + rows][keep] = np.column_stack([m[2][:, 1] - m[1][:, 2],
                                                 m[0][:, 2] - m[2][:, 0],
                                                 m[1][:, 0] - m[0][:, 1]])
    return b, nearest


def _panel_distance(spec, points, owner, start, width, speed):
    # a lower bound on the distance from points[owner] to each panel:
    # every point of the panel lies within half its arc length
    # (width * speed) of its middle
    mid, _ = winding_curve(spec, start + width / 2.0)
    gap = points[owner] - mid
    return np.sqrt(np.sum(gap * gap, axis=1)) - width * (speed / 2.0)


def _graded_panels(spec, points, speed):
    # each point's level-0 panels: the uniform ones, bisected while wider
    # than _PANEL_REACH times their distance to the point (in winding
    # angle); sorted by point, then angle
    start, width = _uniform_panels(spec.turns, 0)
    owner = np.repeat(np.arange(len(points)), len(start))
    start, width = np.tile(start, len(points)), np.tile(width, len(points))
    reach = _PANEL_REACH / speed
    done = []
    while True:
        dist = _panel_distance(spec, points, owner, start, width, speed)
        split = (width > reach * dist) & (width > _MIN_WIDTH)
        if not split.any():
            break
        done.append((owner[~split], start[~split], width[~split]))
        owner, start, width = owner[split], start[split], width[split] / 2.0
        owner = np.concatenate([owner, owner])
        start = np.concatenate([start, start + width])
        width = np.concatenate([width, width])
    owner, start, width = (np.concatenate(a) for a in zip(*done, (owner, start, width)))
    order = np.lexsort((start, owner))
    return owner[order], start[order], width[order]


def _panel_sum(spec, points, owner, start, width):
    # each point's sum over its own panels and its nearest-node distance,
    # in blocks of whole points within the pair budget; a point's nodes
    # are summed in angle order whatever the blocking
    heads = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
    ends = np.r_[heads[1:], len(owner)]
    b = np.empty((len(heads), 3))
    nearest = np.empty(len(heads))
    limit = max(1, _BLOCK_PAIRS // _PANEL_NODES)
    g0 = 0
    while g0 < len(heads):
        g1 = max(g0 + 1, int(np.searchsorted(ends, heads[g0] + limit, side="right")))
        sl = slice(heads[g0], ends[g1 - 1])
        nodes, dl = _panel_nodes(spec, start[sl], width[sl])
        x, y, z = (np.repeat(points[owner[sl]], _PANEL_NODES, axis=0) - nodes).T
        w = x * x + y * y + z * z
        groups = (heads[g0:g1] - heads[g0]) * _PANEL_NODES
        nearest[g0:g1] = np.sqrt(np.minimum.reduceat(w, groups))
        w *= np.sqrt(w)
        np.reciprocal(w, out=w)
        dx, dy, dz = dl.T
        for k, term in enumerate((dy * z - dz * y, dz * x - dx * z, dx * y - dy * x)):
            term *= w
            b[g0:g1, k] = np.add.reduceat(term, groups)
        g0 = g1
    return b, nearest


class _Ladder:
    """One kernel call's state: the points in the coil's local frame,
    what they have reached so far, and the refinement settings."""

    def __init__(self, coil: FilamentCoil, points: np.ndarray, tolerance):
        spec = self.spec = coil.spec
        self.local = (points - coil.origin) @ coil.rotation
        self.b = np.zeros_like(self.local)
        self.estimate = np.zeros(len(points))
        self.tolerance = np.broadcast_to(
            _FIELD_TOLERANCE if tolerance is None else tolerance, len(points))
        # the winding's speed |dr/dphi| grows outward with its radius and
        # sag, so its outer end bounds it
        turns = spec.turns
        self.speed = float(np.linalg.norm(winding_curve(spec, [2.0 * math.pi * turns])[1]))
        self.floor = _FIELD_FLOOR * 2.0 * math.pi * turns / float(np.mean(coil.turn_radii))
        # coordinate and winding-angle span, in metres, for the rounding
        self.span = np.sqrt(np.sum(self.local * self.local, axis=1)) + \
            float(np.max(coil.turn_radii)) * (1.0 + 2.0 * math.pi * turns)

    def record(self, todo, cur, prev, ratio):
        # keep the level just summed for the points in todo and return
        # which go on. A point's estimate is the relative change of its
        # last halving plus its rounding: node positions carry an error
        # of about eps times the winding's span, which moves B by that
        # over the nearest node's distance (ratio is span over distance)
        change = np.sqrt(np.sum((cur - prev) ** 2, axis=1))
        scale = np.maximum(np.sqrt(np.sum(cur * cur, axis=1)), self.floor)
        self.b[todo] = cur
        self.estimate[todo] = change / scale + _ROUNDING * ratio
        return self.estimate[todo] > self.tolerance[todo]

    def shared(self, todo, b0, dist):
        # points that share the uniform panels, from their level-0 sums;
        # dist bounds each one's distance to the curve from below
        self.b[todo], prev = b0, b0
        ratio = self.span[todo] / dist
        for level in range(1, _FIELD_LEVELS):
            if not len(todo):
                break
            nodes, dl = _panel_nodes(self.spec, *_uniform_panels(self.spec.turns, level))
            cur, _ = _node_sum(self.local[todo], nodes, dl)
            go = self.record(todo, cur, prev, ratio)
            todo, prev, ratio = todo[go], cur[go], ratio[go]

    def own(self, todo):
        # points that halve their own panels; owners index todo
        points = self.local[todo]
        owner, start, width = _graded_panels(self.spec, points, self.speed)
        for level in range(_FIELD_LEVELS):
            if not len(todo):
                break
            if level:
                owner, width = owner.repeat(2), width.repeat(2) / 2.0
                start = start.repeat(2) + np.tile([0.0, 1.0], len(width) // 2) * width
            cur, near = _panel_sum(self.spec, points, owner, start, width)
            if level:
                go = self.record(todo, cur, prev, self.span[todo] / near)
            else:
                self.b[todo], go = cur, np.ones(len(todo), dtype=bool)
            # renumber the panels of the points that go on
            todo, prev, points = todo[go], cur[go], points[go]
            keep = go[owner]
            owner = (np.cumsum(go) - 1)[owner[keep]]
            start, width = start[keep], width[keep]


def _curve_field(coil: FilamentCoil, points: np.ndarray, tolerance=None):
    """B per ampere (T/A) of the exact winding at the (n, 3) points.

    Returns (b, valid, estimate). valid[i] is False where points[i] lies
    within half a wire diameter of the polyline; b is zero there. Each
    level sums Biot-Savart, mu0/4pi sum dl x (p - r)/|p - r|^3, over
    Gauss-Legendre panels of winding angle, and halves every panel for
    the next. Points clear of the wire share uniform panels; each point
    near it starts from the uniform panels bisected where they reach
    beyond _PANEL_REACH times their distance to it, so only the panels
    near it refine. A point stops once its estimate, the change of its
    last halving relative to max(|B|, a floor at the coil's field
    scale) plus its rounding, is at most `tolerance` (a scalar or one
    per point; _FIELD_TOLERANCE by default). Points still above it at
    the level cap keep their last estimate.
    """
    if coil.spec is None:
        raise ValueError("the field kernel needs a coil that carries its "
                         "CoilSpec (build it with build_filament_coil)")
    ladder = _Ladder(coil, points, tolerance)
    turns, speed = coil.spec.turns, ladder.speed

    # level 0 on the uniform panels, with the nearest-node distance. A
    # point of the curve lies within `slack` of a node (half the widest
    # node gap, or the gap at a panel's end), and the polyline within
    # `sag` of the curve: each chord's arc, no longer than its angle
    # times the speed, stays inside the ellipse with the chord's ends as
    # foci
    start, width = _uniform_panels(turns, 0)
    frac = (_gauss_legendre(_PANEL_NODES)[0] + 1.0) / 2.0
    slack = width[0] * speed * max(np.diff(frac).max() / 2.0, frac[0])
    chord = np.sqrt(np.sum((coil.segment_ends - coil.segment_starts) ** 2, axis=1))
    arc = 2.0 * math.pi * turns / coil.n_segments * speed
    sag = float(np.sqrt(np.maximum(arc * arc - chord * chord, 0.0)).max()) / 2.0
    exclusion = coil.wire_diameter / 2.0
    reach = exclusion + slack + sag
    # points further than `clear` from every node lie at least
    # 1/_PANEL_REACH of a uniform panel's length from the curve, and
    # share the uniform panels; level 0 sums only those
    clear = max(reach, width[0] * speed / _PANEL_REACH + slack)
    b0, nearest = _node_sum(ladder.local, *_panel_nodes(coil.spec, start, width),
                            skip_within=clear)
    # only points the bound cannot clear (with a margin far above
    # rounding) need the exact segment distance
    valid = np.ones(len(points), dtype=bool)
    unsure = np.flatnonzero(nearest - reach <= 1e-9 * (nearest + reach))
    if len(unsure):
        d = _distance_to_segments(points[unsure], coil.segment_starts, coil.segment_ends)
        valid[unsure[d <= exclusion]] = False
    shared = nearest > clear
    shared[unsure] = False

    todo = np.flatnonzero(shared)
    ladder.shared(todo, b0[todo], nearest[todo] - slack)
    # every other valid point, a bounded number at a time
    todo = np.flatnonzero(valid & ~shared)
    for i0 in range(0, len(todo), _OWN_POINTS):
        ladder.own(todo[i0:i0 + _OWN_POINTS])
    b = ladder.b @ coil.rotation.T
    b[~valid] = 0.0
    return MU0 / (4.0 * math.pi) * b, valid, ladder.estimate


def _warn_unconverged(estimate: np.ndarray, valid: np.ndarray) -> None:
    over = valid & (estimate > _FIELD_TOLERANCE)
    if over.any():
        warnings.warn(f"{int(over.sum())} of {len(estimate)} points stopped at the "
                      f"refinement cap above tolerance {_FIELD_TOLERANCE:g} "
                      f"(worst estimate {float(estimate[over].max()):.3e})")


def b_field(coil: FilamentCoil, current: float, point) -> np.ndarray:
    """Magnetic flux density of the coil carrying `current`, in tesla.

    point may be a single 3-vector or an (n, 3) array; the result
    matches its shape. Evaluation within half a wire diameter of any
    polyline segment raises SingularEvaluationError. B comes from the
    exact winding curve, so the coil must carry its CoilSpec; points
    that stop at the refinement cap above tolerance raise a warning.
    """
    pts = np.atleast_2d(np.asarray(point, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"point must be a 3-vector or (n, 3) array, got shape {np.shape(point)}")
    b, valid, estimate = _curve_field(coil, pts)
    if not valid.all():
        worst = float(_distance_to_segments(pts[~valid], coil.segment_starts,
                                            coil.segment_ends).min())
        raise SingularEvaluationError(
            f"evaluation point within {worst:.3e} m of the filament "
            f"(exclusion zone {coil.wire_diameter / 2.0:.3e} m)"
        )
    _warn_unconverged(estimate, valid)
    b *= float(current)
    return b[0] if np.ndim(point) == 1 else b


def field_map(coil: FilamentCoil, current: float, grid: GridSpec) -> np.ndarray:
    """B (tesla) at grid.points(), shape (n, 3), masking singular points.

    Rows for points inside the wire's exclusion zone are NaN rather than
    aborting the map. Points that stop at the refinement cap above
    tolerance raise one warning with their count and worst estimate.
    """
    b, valid, estimate = _curve_field(coil, grid.points())
    _warn_unconverged(estimate, valid)
    b *= float(current)
    b[~valid] = np.nan
    return b


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


def _flux(tx: FilamentCoil, rx: FilamentCoil, tolerance: float) -> Tuple[float, float]:
    # (flux per ampere, relative change of the last refinement)
    _check_separation(tx, rx)
    frames = _disk_frames(rx)
    normal = rx.axis
    floor = _coupling_floor(tx, rx)

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

        b, valid, _ = _curve_field(tx, pts)
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
    a, da, b, db = (np.ascontiguousarray(v.T) for v in (m1, d1, m2, d2))
    rows = max(1, _CHUNK_PAIRS // len(m2))
    # planes |r - r'| and t . t', each summed (x + y) + z, and a scratch
    # plane
    buf = np.empty((3, min(rows, len(m1)), len(m2)))
    for i0 in range(0, len(m1), rows):
        p, dp = a[:, i0:i0 + rows], da[:, i0:i0 + rows]
        dist, dots, tmp = buf[:, :p.shape[1]]
        np.subtract.outer(p[0], b[0], out=tmp)
        np.multiply(tmp, tmp, out=dist)
        for k in (1, 2):
            np.subtract.outer(p[k], b[k], out=tmp)
            dist += np.multiply(tmp, tmp, out=tmp)
        np.sqrt(dist, out=dist)
        np.multiply.outer(dp[0], db[0], out=dots)
        for k in (1, 2):
            dots += np.multiply.outer(dp[k], db[k], out=tmp)
        dots /= dist
        total += float(np.sum(dots))
    return MU0 / (4.0 * math.pi) * total


def mutual_inductance(tx: FilamentCoil, rx: FilamentCoil, method: str = SPECTRAL,
                      tolerance: float = 1e-3) -> CouplingResult:
    """Mutual inductance between two posed coils, signed by orientation.

    spectral: the Neumann double line integral on the exact winding
    curves of both coils, with Gauss-Legendre nodes per turn doubling
    from 8 to 64; it converges exponentially and needs coils that carry
    their CoilSpec (build_filament_coil sets it). The polylines serve
    only the separation check.
    flux: the tx field's flux per ampere through a flat disk spanning
    each rx polyline turn, B.n integrated by radial Gauss-Legendre x
    uniform-angle quadrature and refined until successive estimates
    agree. B comes from the tx winding curve, so the tx must carry its
    CoilSpec. It agrees with the spectral route within about 1% on
    non-pathological geometries.

    convergence_estimate is the relative change of the last refinement,
    judged against a dipole-scale floor near symmetry nulls.
    """
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    if tolerance <= 0:
        raise ValueError(f"tolerance must be > 0, got {tolerance!r}")

    if method == FLUX:
        phi, estimate = _flux(tx, rx, tolerance)
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
