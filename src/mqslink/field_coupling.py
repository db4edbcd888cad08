"""Magnetic coupling between posed filament coils.

A coil is its exact winding curve, and every result here comes from it;
every grid is laid per smooth piece between its breaks (a spiral's turns).
Fields come from Biot-Savart on that curve, by composite Gauss-Legendre
panels of winding angle whose every panel halves from one level to the
next; a point stops once its last halving moved B by at most 1e-10
relative, and that change (plus a rounding term) is its error estimate.
Points clear of the wire share uniform panels, summed per block of
points by matrix products. Most take the far form: one product gives
|p - r|^2 in the Gram form |p|^2 + |r|^2 - 2 p.r, and one more against
the node columns [dl, r x dl] gives B = (sum w dl) x p + sum w (r x dl).
The Gram form rounds |p - r|^2 by eps (|p| + |r|)^2, up to its growth
g = ((|p| + rho) / nearest)^2 times the offsets' rounding, rho being
the largest |r| of the level-0 nodes in the coil's frame and nearest
the point's nearest-node distance. A point takes the far form while g
is at most 25 (every point at least rho from every node has g <= 9).
There |p| and |r| are at most 5 |p - r| (within the nodes' slack at
finer levels), so neither product cancels more than a few tens of
units of rounding; the far form moves B's last digits only, and its
rounding estimate is scaled by g. Every other shared point sums over
the point-to-node offsets themselves. Every offset kernel
(that sum, the nearest-node search of the curve distance and the
Neumann sum) builds its offsets as one contiguous (points, nodes)
plane per coordinate, from contiguous coordinate rows, in a buffer
allocated once per call and reused by every block. The field blocks
are sized so their planes stay in a core's L2 cache, which leaves B's
last bits to the BLAS summation order of each block's rows.
A point near the wire starts from the uniform panels bisected only
where they are long against their distance to it, so only the panels
near it refine, and sums its own nodes in a fixed order. One level-0
pass of the far form on the uniform panels routes every point, by its
nearest-node distance: a point beyond one radius around the nodes
shares the uniform panels and is clear of the wire, and keeps that
pass's sum while g is at most 25, or is summed over its offsets from
level 0 if not; every other point goes straight to its exact distance
to the curve (a nearest node polished by Gauss-Newton steps on the
winding angle), which masks it, and, if valid, halves its own panels.
That distance is elementwise, so masks do not depend on the blocking.
The separation check samples each coil at arc steps of one wire
diameter against the other's exact curve, cutting runs of samples until
the distances at their ends, less the node slack and half their arc,
clear them, or every sample is measured.
Mutual inductance is the Neumann double line integral by Gauss-Legendre
quadrature on the exact winding curves. Every Gauss-Legendre rule is
built here, by Newton steps on the Legendre recurrence, so no run loads
numpy.polynomial.

Self-inductance is deliberately not computed here (the filament limit
is singular); the lumped module owns it. The wire radius enters only as
an exclusion zone around each filament.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .constants import MU0
from .geometry import FilamentCoil, check_fields

# pair budget per block of every pair kernel: the field kernel and the
# curve distance's nearest-node search (point-node pairs) and the
# Neumann sum (node-node pairs). 256 KiB per float64 plane, so a
# block's planes, allocated once per call and reused by every block,
# stay in a core's L2 cache instead of streaming through it once per
# elementwise pass
_BLOCK_PAIRS = 32_768

# the field kernel's panels: Gauss-Legendre nodes per panel, panels per
# piece at level 0 (each level halves them), and the narrowest panel a
# point's own panels are bisected to (rad). Only a point on the curve
# itself would need that floor, and the exclusion mask, decided on the
# curve, keeps every such point out; the floor is a guard
_PANEL_NODES = 16
_BASE_PANELS = 2
_MIN_WIDTH = 1e-9

# a point's own level-0 panels are at most _PANEL_REACH times as long as
# their distance from it; a point at least 1/_PANEL_REACH of a uniform
# panel's length from the curve shares the uniform panels instead
_PANEL_REACH = 32.0

# the far form's reach: a point clear of the wire takes it while its
# Gram form's rounding growth ((|p| + rho) / nearest)^2 is at most this
# (see _curve_field). Every point at least rho from every level-0 node
# grows it by at most 9. At 25, B's blocking jitter on the tests'
# grazing grids stays within its 1e-14 bound; at 64 it crosses it
_GRAM_GROWTH = 25.0

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

# the curve distance: node gaps per piece of its nearest-node search, and
# the clipped Gauss-Newton steps that polish each candidate node. Each
# step shrinks a candidate's angle error by about the distance over the
# curve's radius of curvature, under 0.05 for every mask decision and
# every separation decision near the threshold (at most 0.14 mm against
# at least 4 mm); farther off they may stall, within the node slack
# that the separation check allows for
_DISTANCE_NODES = 64
_DISTANCE_STEPS = 6

# candidates the curve distance polishes at once (each carries about ten
# doubles through its steps), so short blocks share the per-call cost
_CANDIDATES = 4096

# spectral refinement ladder: Gauss-Legendre nodes per piece
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
    convergence_estimate: float

    def __post_init__(self):
        check_fields(self, nonnegative=("convergence_estimate",))


def _on_pieces(coil: FilamentCoil, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    # the points x of [-1, 1] laid on each piece [b_i, b_i+1] of coil.breaks,
    # (pieces, len(x)), and the half lengths h_i: b_i + h_i (1 + x), summed as
    # h_i (2i + 1 + x) + (b_i - 2i h_i), exact for dyadic x on equal pieces from 0
    b, half = coil.breaks, np.diff(coil.breaks) / 2.0
    twice = 2.0 * np.arange(len(half))
    return (twice[:, None] + 1.0 + x) * half[:, None] + (b[:-1] - twice * half)[:, None], half


def _panel_nodes(coil: FilamentCoil, start: np.ndarray, width: np.ndarray):
    # _PANEL_NODES Gauss-Legendre nodes on each panel of winding angle
    # [start, start + width]: local points and tangent * weight, the
    # line element per node
    nodes, weights = _gauss_legendre(_PANEL_NODES)
    phi = start[:, None] + width[:, None] * ((nodes + 1.0) / 2.0)
    points, tangents = coil.local(phi.ravel())
    return points, tangents * (width[:, None] / 2.0 * weights).reshape(-1, 1)


def _uniform_panels(coil: FilamentCoil, level: int) -> Tuple[np.ndarray, np.ndarray]:
    # level 0 splits each piece into _BASE_PANELS equal panels; each level halves them
    count = _BASE_PANELS << level
    start, half = _on_pieces(coil, np.arange(-count, count, 2) / count)
    return start.ravel(), np.repeat(half * (2.0 / count), count)


def _node_sum(points: np.ndarray, nodes: np.ndarray, dl: np.ndarray) -> np.ndarray:
    """sum dl x (p - r)/|p - r|^3 over the nodes, at each point."""
    b = np.empty((len(points), 3))
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
        # |p - r|^-3, built in place
        np.sqrt(w, out=s)
        w *= s
        np.reciprocal(w, out=w)
        # m[k][:, j] = sum_n w_n (p - r_n)_k dl_nj: the cross product
        # taken from the offsets themselves, which keeps it accurate
        # beside the wire, where re-centring on a distant origin would
        # cancel several digits
        m = [np.multiply(w, r, out=s) @ dl for r in rel]
        b[i0:i0 + rows] = np.column_stack([m[2][:, 1] - m[1][:, 2],
                                           m[0][:, 2] - m[2][:, 0],
                                           m[1][:, 0] - m[0][:, 1]])
    return b


def _far_sum(points: np.ndarray, nodes: np.ndarray, dl: np.ndarray, nearest: bool = False):
    """_node_sum's B, for points whose Gram form grows rounding by at
    most _GRAM_GROWTH (see _curve_field), by two matrix products per
    block: |p - r|^2 in the Gram form |p|^2 + |r|^2 - 2 p.r, and
    sum w dl x (p - r) as (sum w dl) x p + sum w (r x dl). With
    nearest, each point's nearest-node distance too."""
    b = np.empty((len(points), 3))
    near = np.empty(len(points))
    # point rows [p, |p|^2, 1] against node columns [-2 r, 1, |r|^2],
    # then the weights w = |p - r|^-3 against node rows [dl, r x dl]
    gram = np.vstack([-2.0 * nodes.T, np.ones(len(nodes)), np.sum(nodes * nodes, axis=1)])
    cols = np.hstack([dl, np.cross(nodes, dl)])
    rows = max(1, _BLOCK_PAIRS // len(nodes))
    # planes: |p - r|^2, turned into w in place, and its root
    buf = np.empty((2, min(rows, len(points)), len(nodes)))
    head = np.ones((min(rows, len(points)), 5))
    sums = np.empty((min(rows, len(points)), 6))
    for i0 in range(0, len(points), rows):
        p = points[i0:i0 + rows]
        w, s = buf[:, :len(p)]
        a, m = head[:len(p)], sums[:len(p)]
        a[:, :3] = p
        np.einsum("ij,ij->i", p, p, out=a[:, 3])
        np.matmul(a, gram, out=w)
        if nearest:
            near[i0:i0 + rows] = np.sqrt(w.min(axis=1))
        np.sqrt(w, out=s)
        w *= s
        np.reciprocal(w, out=w)
        np.matmul(w, cols, out=m)
        (x, y, z), (u, v, t) = p.T, m[:, :3].T
        out = b[i0:i0 + rows]
        out[:, 0] = v * z - t * y
        out[:, 1] = t * x - u * z
        out[:, 2] = u * y - v * x
        out += m[:, 3:]
    return (b, near) if nearest else b


def _panel_distance(coil, points, owner, start, width):
    # a lower bound on the distance from points[owner] to each panel:
    # every point of the panel lies within half its arc length
    # (width * top speed) of its middle
    mid, _ = coil.local(start + width / 2.0)
    gap = points[owner] - mid
    return np.sqrt(np.sum(gap * gap, axis=1)) - width * (coil.top_speed / 2.0)


def _graded_panels(coil, points):
    # each point's level-0 panels: the uniform ones, bisected while wider
    # than _PANEL_REACH times their distance to the point (in winding
    # angle); sorted by point, then angle
    start, width = _uniform_panels(coil, 0)
    owner = np.repeat(np.arange(len(points)), len(start))
    start, width = np.tile(start, len(points)), np.tile(width, len(points))
    reach = _PANEL_REACH / coil.top_speed
    done = []
    while True:
        dist = _panel_distance(coil, points, owner, start, width)
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


def _panel_sum(coil, points, owner, start, width):
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
        nodes, dl = _panel_nodes(coil, start[sl], width[sl])
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


def _curve_distance(coil: FilamentCoil, points: np.ndarray) -> np.ndarray:
    """Distance from each of the (n, 3) points to the exact winding curve.

    Every point of the curve lies within half a node gap of winding
    angle, and so within `slack` (that half gap times the top speed), of
    one of _DISTANCE_NODES + 1 nodes per piece, one at each end. The
    nearest node's distance bounds the answer from above, so only nodes
    within it plus `slack` can hold the nearest point. Each such
    candidate is polished by clipped Gauss-Newton steps on the angle,
    phi -= (c - p).c'/|c'|^2, bracketed by its half gap within its piece
    and an ulp short of its end, where `local` reads the next piece; they
    converge while the distance is below the curve's radius of
    curvature. Candidates are polished _CANDIDATES at a time, gathered
    over blocks; every step is elementwise, so the result depends
    neither on the blocking nor on the batching.
    """
    phi = _on_pieces(coil, np.linspace(-1.0, 1.0, _DISTANCE_NODES + 1))[0].ravel()
    nodes = np.ascontiguousarray(coil.local(phi)[0].T)
    half = np.diff(coil.breaks) / (2 * _DISTANCE_NODES)    # each piece's half node gap
    slack = float(half.max()) * coil.top_speed
    local = (points - coil.origin) @ coil.rotation
    pt = np.ascontiguousarray(local.T)
    out = np.empty(len(points))
    rows = max(1, _BLOCK_PAIRS // len(phi))
    # planes: the squared distance, summed (x + y) + z, and a scratch
    # plane
    buf = np.empty((2, min(rows, len(points)), len(phi)))
    owner, cols, pending = [], [], 0
    for i0 in range(0, len(points), rows):
        p = pt[:, i0:i0 + rows]
        dist, tmp = buf[:, :p.shape[1]]
        np.subtract.outer(p[0], nodes[0], out=tmp)
        np.multiply(tmp, tmp, out=dist)
        for k in (1, 2):
            np.subtract.outer(p[k], nodes[k], out=tmp)
            dist += np.multiply(tmp, tmp, out=tmp)
        near = out[i0:i0 + rows] = np.sqrt(dist.min(axis=1))
        # every row keeps at least its nearest node
        row, col = np.nonzero(dist <= ((near + slack) ** 2)[:, None])
        owner.append(row + i0)
        cols.append(col)
        pending += len(row)
        if pending < _CANDIDATES and i0 + rows < len(points):
            continue
        # polish the candidates gathered, _CANDIDATES at a time; out keeps each owner's nearest
        who_all, node_all = np.concatenate(owner), np.concatenate(cols)
        owner, cols, pending = [], [], 0
        for j in range(0, len(who_all), _CANDIDATES):
            who, node = who_all[j:j + _CANDIDATES], node_all[j:j + _CANDIDATES]
            angle, piece, target = phi[node], node // (_DISTANCE_NODES + 1), local[who]
            lo = np.maximum(angle - half[piece], coil.breaks[piece])
            hi = np.minimum(angle + half[piece], np.nextafter(coil.breaks[piece + 1], -np.inf))
            for _ in range(_DISTANCE_STEPS):
                c, t = coil.local(angle)
                c -= target
                angle = np.clip(angle - np.sum(c * t, axis=1) / np.sum(t * t, axis=1), lo, hi)
            c = coil.local(angle)[0] - target
            np.minimum.at(out, who, np.sqrt(np.sum(c * c, axis=1)))
    return out


class _Ladder:
    """One kernel call's state: the points in the coil's local frame,
    what they have reached so far, and the refinement settings."""

    def __init__(self, coil: FilamentCoil, points: np.ndarray, tolerance):
        self.coil = coil
        self.local = (points - coil.origin) @ coil.rotation
        self.b = np.zeros_like(self.local)
        self.estimate = np.zeros(len(points))
        self.tolerance = np.broadcast_to(
            _FIELD_TOLERANCE if tolerance is None else tolerance, len(points))
        self.floor = _FIELD_FLOOR * 2.0 * math.pi * len(coil.radii) / float(np.mean(coil.radii))
        # coordinate and winding-angle span, in metres, for the rounding
        self.span = np.sqrt(np.sum(self.local * self.local, axis=1)) + \
            float(np.max(coil.radii)) * (1.0 + coil.breaks[-1])

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

    def shared(self, todo, ratio, kernel, b0=None):
        # points that share the uniform panels, summed by kernel (_far_sum
        # or _node_sum) from their level-0 sums b0, or from level 0 if
        # none are given; ratio is each one's rounding scale (see record)
        if b0 is None:
            b0 = kernel(self.local[todo], *_panel_nodes(self.coil, *_uniform_panels(self.coil, 0)))
        self.b[todo], prev = b0, b0
        for level in range(1, _FIELD_LEVELS):
            if not len(todo):
                break
            nodes, dl = _panel_nodes(self.coil, *_uniform_panels(self.coil, level))
            cur = kernel(self.local[todo], nodes, dl)
            go = self.record(todo, cur, prev, ratio)
            todo, prev, ratio = todo[go], cur[go], ratio[go]

    def own(self, todo):
        # points that halve their own panels; owners index todo
        points = self.local[todo]
        owner, start, width = _graded_panels(self.coil, points)
        for level in range(_FIELD_LEVELS):
            if not len(todo):
                break
            if level:
                owner, width = owner.repeat(2), width.repeat(2) / 2.0
                start = start.repeat(2) + np.tile([0.0, 1.0], len(width) // 2) * width
            cur, near = _panel_sum(self.coil, points, owner, start, width)
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
    within half a wire diameter of the winding curve; b is zero there.
    Each level sums Biot-Savart, mu0/4pi sum dl x (p - r)/|p - r|^3, over
    Gauss-Legendre panels of winding angle, and halves every panel for
    the next. One level-0 pass of the far form (_far_sum) on the uniform
    panels routes every point by its nearest-node distance `nearest`: a
    point beyond `clear` of every node shares those panels, and keeps
    that pass's sum and the far form if the Gram form's rounding growth
    ((|p| + reach) / nearest)^2 is at most _GRAM_GROWTH, `reach` being
    the largest |r| of the level-0 nodes, or is summed by _node_sum from
    level 0 if not. Every other point goes straight to its exact curve
    distance, which masks it, and, if valid, starts from the uniform
    panels bisected where they reach beyond _PANEL_REACH times their
    distance to it, so only the panels near it refine. A point stops
    once its estimate, the change of its last halving relative to
    max(|B|, a floor at the coil's field scale) plus its rounding, is at
    most `tolerance` (a scalar or one per point; _FIELD_TOLERANCE by
    default). Points still above it at the level cap keep their last
    estimate.
    """
    ladder = _Ladder(coil, points, tolerance)
    speed = coil.top_speed

    # level 0 on the uniform panels, with the nearest-node distance. A
    # point of the curve lies within `slack` of a node (half the widest
    # node gap, or the gap at a panel's end, of the widest panel), so a
    # point further than `clear` from every node lies outside the
    # exclusion zone and at least 1/_PANEL_REACH of a panel from the curve
    start, width = _uniform_panels(coil, 0)
    frac = (_gauss_legendre(_PANEL_NODES)[0] + 1.0) / 2.0
    slack = width.max() * speed * max(np.diff(frac).max() / 2.0, frac[0])
    exclusion = coil.wire_diameter / 2.0
    clear = max(exclusion, width.max() * speed / _PANEL_REACH) + slack
    nodes, dl = _panel_nodes(coil, start, width)
    # the coil's reach: the largest |r| of the level-0 nodes, read from
    # the curve, so a helical coil's sag counts
    reach = float(np.sqrt(np.max(np.sum(nodes * nodes, axis=1))))
    # the route is decided here, by one level-0 pass of the far form and
    # its nearest-node distance. The Gram form's squared distances carry
    # rounding of eps (|p| + |r|)^2, up to its growth
    # g = ((|p| + reach) / nearest)^2 times that of _node_sum's offsets,
    # so the nearest distance rounds by at most about eps g of itself. At
    # the `clear` radius g is at most about 144 on the nominal coils
    # (|p| + reach is under 3 reach there, and `clear` about reach / 4),
    # and the margin of `shared` tops that rounding more than 1e4 times.
    # A point on a node sums to inf or nan, and is masked below
    with np.errstate(divide="ignore", invalid="ignore"):
        b0, nearest = _far_sum(ladder.local, nodes, dl, nearest=True)
        gram = ((np.sqrt(np.sum(ladder.local * ladder.local, axis=1)) + reach) / nearest) ** 2
        # nearest - slack bounds a point's distance to the curve from below
        ratio = ladder.span / (nearest - slack)
    shared = nearest - clear > 1e-9 * (nearest + clear)
    far = shared & (gram <= _GRAM_GROWTH)
    # a far point keeps its far-form sum, and its rounding scale grows
    # with the Gram form's; every other shared point is summed over its
    # offsets from level 0
    todo = np.flatnonzero(far)
    ladder.shared(todo, ratio[todo] * gram[todo], _far_sum, b0[todo])
    todo = np.flatnonzero(shared & ~far)
    ladder.shared(todo, ratio[todo], _node_sum)
    near = np.flatnonzero(~shared)
    valid = np.ones(len(points), dtype=bool)
    if len(near):
        valid[near] = _curve_distance(coil, points[near]) > exclusion
    # the valid near points, a bounded number at a time
    todo = near[valid[near]]
    for i0 in range(0, len(todo), _OWN_POINTS):
        ladder.own(todo[i0:i0 + _OWN_POINTS])
    return MU0 / (4.0 * math.pi) * (ladder.b @ coil.rotation.T), valid, ladder.estimate


def _evaluate(coil: FilamentCoil, current: float, point, mask: bool) -> np.ndarray:
    """B (tesla) of the coil carrying `current` at a 3-vector or an
    (n, 3) array of points, shape (n, 3). The points' shape and
    finiteness and the current are checked before any integral. A point
    within half a wire diameter of the winding curve raises
    SingularEvaluationError, or with mask gets a NaN row. Points that
    stop at the refinement cap above tolerance raise one warning with
    their count and worst estimate.
    """
    pts = np.atleast_2d(np.asarray(point, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"point must be a 3-vector or (n, 3) array, got shape {np.shape(point)}")
    if not np.isfinite(pts).all():
        raise ValueError("point must be finite")
    if not math.isfinite(current):
        raise ValueError(f"current must be finite, got {current!r}")
    b, valid, estimate = _curve_field(coil, pts)
    if not (mask or valid.all()):
        worst = float(_curve_distance(coil, pts[~valid]).min())
        raise SingularEvaluationError(
            f"evaluation point within {worst:.3e} m of the filament "
            f"(exclusion zone {coil.wire_diameter / 2.0:.3e} m)"
        )
    over = valid & (estimate > _FIELD_TOLERANCE)
    if over.any():
        warnings.warn(f"{int(over.sum())} of {len(estimate)} points stopped at the "
                      f"refinement cap above tolerance {_FIELD_TOLERANCE:g} "
                      f"(worst estimate {float(estimate[over].max()):.3e})")
    b *= float(current)
    b[~valid] = np.nan
    return b


def b_field(coil: FilamentCoil, current: float, point) -> np.ndarray:
    """Magnetic flux density of the coil carrying `current`, in tesla.

    point may be a single 3-vector or an (n, 3) array; the result
    matches its shape. Evaluation within half a wire diameter of the
    winding curve raises SingularEvaluationError. Points that stop at
    the refinement cap above tolerance raise a warning.
    """
    b = _evaluate(coil, current, point, mask=False)
    return b[0] if np.ndim(point) == 1 else b


def field_map(coil: FilamentCoil, current: float, points) -> np.ndarray:
    """B (tesla) at the (n, 3) points, shape (n, 3), masking singular points.

    Rows for points inside the wire's exclusion zone are NaN rather than
    aborting the map. Points that stop at the refinement cap above
    tolerance raise one warning with their count and worst estimate.
    """
    return _evaluate(coil, current, points, mask=True)


def _coupling_floor(tx: FilamentCoil, rx: FilamentCoil) -> float:
    # dipole-scale coupling magnitude; the convergence denominator so
    # symmetry nulls (M -> 0) are not chased to relative precision. It
    # and _Ladder's field floor (mu0 N I / (2 r_mean), N their count) read
    # the turn radii alone, not the curve (pi sum r^2 is the turns' area;
    # the curve's, 1/2 int r^2 dphi, is ROADMAP "One coil, one geometry"'s
    # choice), and a changed floor can change the level a refinement stops at
    d = float(np.linalg.norm(rx.origin - tx.origin))
    r_tx, r_rx = tx.radii, rx.radii
    d_eff = max(d, float(r_tx.max()), float(r_rx.max()))
    s_tx = float(np.sum(r_tx**2))
    s_rx = float(np.sum(r_rx**2))
    return MU0 * math.pi * s_tx * s_rx / (2.0 * d_eff**3)


def _clear_samples(a: FilamentCoil, b: FilamentCoil) -> bool:
    # a sampled at equal angle steps of at most one threshold of arc per
    # piece against b's exact curve, lazily: no sample of a run (at first
    # the level-0 panels) is within the threshold if its end samples are
    # farther than the threshold, b's node slack and half the run's arc
    # (half its angle times the speed at its outer end, on a spiral the
    # largest on it), and other runs are cut until every sample is cleared
    # or measured. True if a gap between neighbouring samples stays uncleared
    threshold = (a.wire_diameter + b.wire_diameter) / 2.0
    per = math.ceil(float(np.diff(a.breaks).max()) * a.top_speed / threshold)
    phi, h = _on_pieces(a, np.arange(-per, per, 2) / per)
    phi = np.r_[phi.ravel(), a.breaks[-1]]
    slack = float(np.diff(b.breaks).max()) / (2 * _DISTANCE_NODES) * b.top_speed
    lo = np.arange(_BASE_PANELS * len(h) + 1) * per // _BASE_PANELS
    lo, hi, gap = lo[:-1], lo[1:], False
    while len(lo):
        ends, at = np.unique(np.r_[lo, hi], return_inverse=True)
        points, tangents = a.curve(phi[ends])
        d = _curve_distance(b, points)
        if np.any(d <= threshold):
            raise SeparationError(f"coil separation {float(d.min()):.3e} m is within the combined "
                                  f"wire exclusion {threshold:.3e} m; filament model invalid")
        d = d[at]
        half = (hi - lo) * (h[lo // per] / per) * np.linalg.norm(tangents[at[len(lo):]], axis=1)
        room = np.minimum(d[:len(lo)], d[len(lo):]) - slack - threshold
        gap = gap or bool(np.any((room <= half) & (hi - lo == 1)))
        split = (room <= half) & (hi - lo > 1)
        lo, hi, half, room = lo[split], hi[split], half[split], room[split]
        # parts whose half arcs the run's room would clear, at least
        # two, and single gaps where it has none
        parts = np.maximum(2, np.ceil(half / np.maximum(room, half / (hi - lo)))).astype(int)
        run = np.repeat(np.arange(len(lo)), parts)
        j = np.arange(len(run)) - np.repeat(np.cumsum(parts) - parts, parts)
        span, parts = (hi - lo)[run], parts[run]
        lo, hi = lo[run] + span * j // parts, lo[run] + span * (j + 1) // parts
    return gap


def _check_separation(tx: FilamentCoil, rx: FilamentCoil) -> None:
    # the filament model needs clearance beyond the mean wire diameter,
    # with each coil sampled at arc steps of at most that clearance
    # against the other's exact curve, both ways. The faster coil goes
    # first, against the slower one's smaller node slack. Where it
    # clears every run, no point of it is that close to the other coil,
    # so the other way is needed only where a gap stays uncleared
    b, a = sorted((tx, rx), key=lambda c: c.top_speed)
    if _clear_samples(a, b):
        _clear_samples(b, a)


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> Tuple[np.ndarray, np.ndarray]:
    # the n-point rule on [-1, 1], nodes ascending. Its roots in [0, 1)
    # start from Tricomi's guess (error O(n^-4)) and take three Newton
    # steps on the recurrence (j + 1) P_j+1 = (2j + 1) x P_j - j P_j-1,
    # as P_j+1 = x P_j + j / (j + 1) (x P_j - P_j-1), in np.longdouble
    # (64 bits of mantissa on x86-64; in float64 the smallest node ends
    # up over an ulp off), which leaves the nodes and weights within
    # half a double's ulp or so of the exact rule. The weight
    # 2 / ((1 - x^2) P_n'(x)^2) is taken at the last step's start and
    # moved to its end to first order: there d ln w / dx = -2x / (1 - x^2)
    x = np.sin(math.pi * (n - 1 - 2 * np.arange((n + 1) // 2)) / (2 * n + 1))
    x = ((1.0 - (1.0 - 1.0 / n) / (8.0 * n * n)) * x).astype(np.longdouble)
    ratio = np.arange(1, n, dtype=np.longdouble) / np.arange(2, n + 1)
    for _ in range(3):
        p0, p1 = np.ones_like(x), x
        for c in ratio:
            t = x * p1
            p0, p1 = p1, t + (t - p0) * c
        s = (1.0 - x) * (1.0 + x)
        d = n * (p0 - x * p1) / s          # P_n'(x)
        step = p1 / d
        w = 2.0 / (s * d * d) * (1.0 + 2.0 * x * step / s)
        x = x - step
    x, w = x.astype(float), w.astype(float)
    # the rule is symmetric; an odd n's middle root is 0 throughout
    nodes = np.concatenate([-x, x[::-1][n % 2:]])
    weights = np.concatenate([w, w[::-1][n % 2:]])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _curve_nodes(coil: FilamentCoil, n: int):
    # n Gauss-Legendre nodes per piece: world points and line elements (tangent * weight)
    nodes, weights = _gauss_legendre(n)
    phi, half = _on_pieces(coil, nodes)
    points, tangents = coil.curve(phi.ravel())
    return points, tangents * (half[:, None] * weights).reshape(-1, 1)


def _neumann_sum(m1: np.ndarray, d1: np.ndarray, m2: np.ndarray, d2: np.ndarray) -> float:
    total = 0.0
    a, da, b, db = (np.ascontiguousarray(v.T) for v in (m1, d1, m2, d2))
    rows = max(1, _BLOCK_PAIRS // len(m2))
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


def mutual_inductance(tx: FilamentCoil, rx: FilamentCoil,
                      tolerance: float = 1e-3) -> CouplingResult:
    """Mutual inductance between two posed coils, signed by orientation.

    The Neumann double line integral on the exact winding curves of both
    coils, with Gauss-Legendre nodes per piece doubling from 8 to 64; it
    converges exponentially. The coils must clear each other by more
    than their mean wire diameter, or SeparationError is raised.

    convergence_estimate is the relative change of the last refinement,
    judged against a dipole-scale floor near symmetry nulls. It bounds
    the discretisation error only loosely (3.4e-5 reported against
    9.7e-11 measured on the nominal pose), and it excludes the
    open-curve gauge term: the coils are open spirals, and closing the
    rx with its radial chord moves the nominal M by -0.50% (ROADMAP,
    "Close each coil").
    """
    if not tolerance > 0:
        raise ValueError(f"tolerance must be > 0, got {tolerance!r}")

    _check_separation(tx, rx)
    floor = _coupling_floor(tx, rx)
    prev = None
    estimate = math.inf
    for n in _SPECTRAL_LEVELS:
        m = _neumann_sum(*_curve_nodes(tx, n), *_curve_nodes(rx, n))
        if prev is not None:
            estimate = abs(m - prev) / max(abs(m), floor)
            if estimate <= tolerance:
                return CouplingResult(m=m, convergence_estimate=estimate)
        prev = m
    raise ConvergenceError(
        f"Spectral refinement did not reach tolerance {tolerance:g} "
        f"(last relative change {estimate:.3e})",
        value=prev, estimate=estimate,
    )


def coupling_coefficient(m: float, l_tx: float, l_rx: float) -> float:
    """k = |M|/sqrt(L_tx*L_rx); |k| >= 1 signals inconsistent inputs."""
    if not (math.isfinite(m) and 0 < l_tx < math.inf and 0 < l_rx < math.inf):
        raise ValueError(f"m must be finite and the inductances finite and > 0, "
                         f"got m={m!r}, l_tx={l_tx!r}, l_rx={l_rx!r}")
    k = abs(m) / math.sqrt(l_tx * l_rx)
    if k >= 1.0:
        raise ValueError(
            f"|k| = {k:.6g} >= 1: mutual inductance inconsistent with the coil inductances"
        )
    return k
