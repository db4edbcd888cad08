"""Field evaluation and mutual inductance: kernel, routes, oracle."""

import math
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mqslink import field_coupling
from mqslink.cli import FieldMapRequest
from mqslink.constants import MU0
from mqslink.field_coupling import (ConvergenceError, CouplingResult,
                                    SeparationError, SingularEvaluationError,
                                    _check_separation, _coupling_floor,
                                    _curve_distance, _neumann_sum, b_field,
                                    coupling_coefficient, field_map,
                                    mutual_inductance)
from mqslink.geometry import (HELICAL, CoilSpec, FilamentCoil, Pose, Scenario,
                              apply_pose, build_filament_coil, scenario_poses,
                              turn_radii)
from nominal import L_RX, L_TX, M_NOMINAL, NOMINAL, RX, TX
from references import (Rectangle, Ring, _ellipke, closest_approach, closing_path,
                        coaxial_mutual_oracle, cone_flux_mutual_inductance, disk_frames,
                        flux_mutual_inductance, longest_piece, path_neumann,
                        piece_angles, polyline, random_spiral_pairs)

# pytest.approx adds an absolute tolerance of 1e-12 unless given one,
# which would swamp any relative tolerance on inductances of ~1e-10 H;
# every approx in this file passes abs=0

M_FLUX_NOMINAL = 3.884941691187825e-10  # flux_mutual_inductance, tx curve field
# _polyline_neumann at 360 and 720 segments/turn, Richardson-extrapolated:
# (4 M(720) - M(360)) / 3, since the polyline error falls as segments^-2
M_NOMINAL_EXTRAPOLATED = 3.9078144520416973e-10


# a coil still takes segments_per_turn, but no result depends on it
_SPT = 16


def _grid(plane, offset, axis1, axis2):
    # the points of a [field_map] grid; axis1 and axis2 are (start, stop, points)
    return FieldMapRequest("tx", plane, offset, *axis1, *axis2, 1.0).points()


def _nominal_pair(rx_spec=RX, scenario=NOMINAL):
    tx_pose, rx_pose = scenario_poses(scenario)
    tx = apply_pose(build_filament_coil(TX, _SPT), tx_pose)
    rx = apply_pose(build_filament_coil(rx_spec, _SPT), rx_pose)
    return tx, rx


# --------------------------------------------------------------- elliptic

def test_elliptic_integrals_match_scipy():
    rng = np.random.default_rng(42)
    worst = 0.0
    for k in rng.uniform(0.0, 0.999999, 200):
        big_k, big_e = _ellipke(float(k))
        worst = max(worst,
                    abs(big_k - scipy.special.ellipk(k * k)) / scipy.special.ellipk(k * k),
                    abs(big_e - scipy.special.ellipe(k * k)) / scipy.special.ellipe(k * k))
    assert worst < 1e-12


def test_elliptic_limits():
    big_k, big_e = _ellipke(0.0)
    assert big_k == pytest.approx(math.pi / 2, rel=1e-15, abs=0)
    assert big_e == pytest.approx(math.pi / 2, rel=1e-15, abs=0)


def test_oracle_is_symmetric_in_the_radii():
    assert coaxial_mutual_oracle(0.06, 0.004, 0.05) == \
        coaxial_mutual_oracle(0.004, 0.06, 0.05)


def test_oracle_octave_decay_in_the_far_field():
    # dipole regime: doubling the axial distance costs a factor ~8
    z = 20 * 0.01
    ratio = coaxial_mutual_oracle(0.01, 0.01, z) / \
        coaxial_mutual_oracle(0.01, 0.01, 2 * z)
    assert ratio == pytest.approx(8.0, rel=0.01, abs=0)


def test_oracle_far_field_matches_the_dipole_formula():
    # M -> mu0*pi*r1^2*r2^2 / (2 z^3) for z >> r
    r1, r2, z = 0.01, 0.003, 0.5
    dipole = MU0 * math.pi * r1**2 * r2**2 / (2.0 * z**3)
    assert coaxial_mutual_oracle(r1, r2, z) == pytest.approx(dipole, rel=2e-3, abs=0)


def test_oracle_rejects_touching_loops():
    with pytest.raises(SingularEvaluationError):
        coaxial_mutual_oracle(0.01, 0.01, 0.0)


def test_oracle_rejects_nonpositive_radii():
    with pytest.raises(ValueError):
        coaxial_mutual_oracle(0.0, 0.01, 0.05)


# --------------------------------------------------------------- b_field

def test_loop_center_field_matches_the_analytic_value():
    coil = Ring(0.01)
    b = b_field(coil, 1.0, np.zeros(3))
    assert b.shape == (3,)
    assert b[2] == pytest.approx(MU0 * 1.0 / (2 * 0.01), rel=1e-12, abs=0)
    assert abs(b[0]) < 1e-12 * abs(b[2])
    assert abs(b[1]) < 1e-12 * abs(b[2])


def test_on_axis_field_matches_the_analytic_profile():
    r = 0.02
    coil = Ring(r)
    for z in (0.01, 0.05, 0.2):
        b = b_field(coil, 2.0, np.array([0.0, 0.0, z]))
        expected = MU0 * 2.0 * r**2 / (2.0 * (r**2 + z**2) ** 1.5)
        assert b[2] == pytest.approx(expected, rel=1e-12, abs=0)


def test_field_scales_linearly_with_current():
    coil = Ring(0.01)
    p = np.array([0.005, 0.002, 0.004])
    np.testing.assert_allclose(b_field(coil, 3.0, p), 3.0 * b_field(coil, 1.0, p),
                               rtol=1e-13)


def test_field_accepts_point_batches():
    coil = Ring(0.01)
    pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.01], [0.0, 0.0, 0.02]])
    b = b_field(coil, 1.0, pts)
    assert b.shape == (3, 3)
    np.testing.assert_allclose(b[0], b_field(coil, 1.0, pts[0]), rtol=1e-14)


def test_field_inside_the_wire_is_refused():
    coil = Ring(0.01, wire_diameter=1e-3)
    with pytest.raises(SingularEvaluationError):
        b_field(coil, 1.0, np.array([0.01, 0.0, 0.0]))


def _loop_field(radius, current, p):
    # closed-form B of a circular loop about +z at the origin, from
    # K(k) and E(k) with k^2 = 4 a rho / beta^2
    x, y, z = p
    rho = math.hypot(x, y)
    s = radius**2 + rho**2 + z**2
    alpha_sq = s - 2.0 * radius * rho
    beta = math.sqrt(s + 2.0 * radius * rho)
    big_k, big_e = _ellipke(math.sqrt(1.0 - alpha_sq / beta**2))
    scale = MU0 * current / (2.0 * math.pi * alpha_sq * beta)
    b_z = scale * ((radius**2 - rho**2 - z**2) * big_e + alpha_sq * big_k)
    b_rho = scale * z / rho * (s * big_e - alpha_sq * big_k)
    return np.array([b_rho * x / rho, b_rho * y / rho, b_z])


def test_off_axis_field_converges_to_the_closed_formRing():
    radius, wire = 0.01, 1e-4
    exclusion = wire / 2.0
    pts = np.array([
        ((radius + dr) * math.cos(angle), (radius + dr) * math.sin(angle), z)
        for angle in (0.3, 1.1, 2.5)
        for dr, z in ((3 * exclusion, 0.0), (0.0, 4 * exclusion),
                      (-3 * exclusion, 2 * exclusion), (0.004, 0.003),
                      (-0.006, 0.002), (0.02, -0.01))])
    want = np.array([_loop_field(radius, 1.5, p) for p in pts])
    # B comes from the exact circle, so only quadrature error is left,
    # even three exclusion radii from the wire
    loop = Ring(radius, wire_diameter=wire)
    got = b_field(loop, 1.5, pts)
    err = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
    assert err.max() <= 1e-10
    # the polyline reference's inscribed polygon is off by segments^-2
    errs = []
    for segments in (720, 1440):
        poly, _ = _per_pair_field(loop, pts, 1.5, segments)
        errs.append(np.linalg.norm(poly - want, axis=1) / np.linalg.norm(want, axis=1))
    assert np.all(errs[1] < 2e-4)
    np.testing.assert_allclose(errs[0] / errs[1], 4.0, rtol=0.01)


# --------------------------------------------------------------- kernel

def _polyline_field(coil, points, current, per_turn):
    """B (tesla) of the coil's polyline at the (n, 3) points, and a mask.

    The reference kernel: the exact finite-segment field of every
    segment of polyline(coil, per_turn) (Hanson & Hirshman, Phys.
    Plasmas 9, 4410, 2002), one pass per block of points over
    point-to-vertex offsets, summed over segments by matrix products.
    valid[i] is False where points[i] lies within half a wire diameter
    of the curve; b is zero there.
    """
    verts = polyline(coil, per_turn)
    seg = np.diff(verts, axis=0)
    seg_len_sq = np.sum(seg * seg, axis=1)
    valid = _curve_distance(coil, points) > coil.wire_diameter / 2.0
    b = np.zeros_like(points)
    rows = max(1, field_coupling._BLOCK_PAIRS // len(verts))
    for i0 in range(0, len(points), rows):
        keep = valid[i0:i0 + rows]
        p = points[i0:i0 + rows][keep]
        # segment s runs from vertex s to vertex s + 1, so its end
        # distances are adjacent columns
        rel = [p[:, k, None] - verts[:, k] for k in range(3)]
        dist = np.sqrt(rel[0] * rel[0] + rel[1] * rel[1] + rel[2] * rel[2])
        l1, l2 = dist[:, :-1], dist[:, 1:]
        # half the weight (l1 + l2) / (l1 l2 ((l1 + l2)^2 - L^2)) of each
        # pair; the 2 joins the constant below
        w = (l1 + l2) / (l1 * l2 * ((l1 + l2) ** 2 - seg_len_sq))
        m = [(w * r[:, :-1]) @ seg for r in rel]
        b[i0:i0 + rows][keep] = np.column_stack([m[2][:, 1] - m[1][:, 2],
                                                 m[0][:, 2] - m[2][:, 0],
                                                 m[1][:, 0] - m[0][:, 1]])
    return MU0 * current / (2.0 * math.pi) * b, valid


def _per_pair_field(coil, points, current, per_turn, magnitudes=False):
    # the direct form of the finite-segment kernel: every point-segment
    # pair with its own cross(r1, r2); masked points stay zero. With
    # magnitudes (and a positive current), the sum of each segment's
    # |contribution| instead of B
    verts = polyline(coil, per_turn)
    starts, ends = verts[:-1], verts[1:]
    valid = _curve_distance(coil, points) > coil.wire_diameter / 2.0
    p = points[valid]
    r1 = p[:, None, :] - starts[None, :, :]
    r2 = p[:, None, :] - ends[None, :, :]
    l1 = np.sqrt(np.sum(r1 * r1, axis=2))
    l2 = np.sqrt(np.sum(r2 * r2, axis=2))
    lsum = l1 + l2
    seg_len_sq = np.sum((ends - starts) ** 2, axis=1)
    scale = 2.0 * lsum / (l1 * l2 * (lsum * lsum - seg_len_sq[None, :]))
    terms = np.cross(r1, r2) * scale[..., None]
    if magnitudes:
        terms = np.linalg.norm(terms, axis=2)
    b = np.zeros((len(points),) + terms.shape[2:])
    b[valid] = np.sum(terms, axis=1)
    return MU0 * current / (4.0 * math.pi) * b, valid


_FLAT = CoilSpec(turns=3, inner_radius=5e-3, wire_diameter=0.4e-3,
                 wire_spacing=0.3e-3)
_DOME = CoilSpec(turns=3, inner_radius=4e-3, wire_diameter=0.3e-3,
                 wire_spacing=0.2e-3, shape=HELICAL, sphere_radius=8e-3)


def _grazing_points(coil):
    # a grid over the winding in the coil plane and across it, plus
    # points at and around the exclusion radius from every third vertex
    local = [_grid(plane, 0.0, (-7e-3, 7e-3, 61), (-7e-3, 7e-3, 61)) for plane in ("xy", "xz")]
    grids = np.vstack(local) @ coil.rotation.T + coil.origin
    rng = np.random.default_rng(5)
    verts = polyline(coil, 64)[::3]
    dirs = rng.standard_normal(verts.shape)
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    rings = [verts + f * coil.wire_diameter / 2.0 * dirs
             for f in (0.999, 1.0, 1.001, 1.01, 1.5, 3.0)]
    return np.vstack([grids] + rings)


@pytest.mark.parametrize("spec", [_FLAT, _DOME], ids=["flat", "helical"])
@pytest.mark.parametrize("tilt", [0.0, 37.0])
def test_kernel_matches_the_per_pair_form(spec, tilt):
    # the polyline reference kernel against its direct form
    coil = apply_pose(build_filament_coil(spec, 64),
                      Pose(center=(0.01, -0.002, 0.03), tilt_angle_deg=tilt))
    pts = _grazing_points(coil)
    b, valid = _polyline_field(coil, pts, 2.0, 64)
    want, want_valid = _per_pair_field(coil, pts, 2.0, 64)
    np.testing.assert_array_equal(valid, want_valid)
    assert 0 < np.count_nonzero(~valid) < len(pts)
    assert np.all(b[~valid] == 0.0)
    err = np.linalg.norm(b - want, axis=1)[valid] / \
        np.linalg.norm(want, axis=1)[valid]
    assert err.max() <= 1e-11


def _level0_nodes(coil):
    return (len(coil.breaks) - 1) * field_coupling._BASE_PANELS * field_coupling._PANEL_NODES


@pytest.mark.parametrize("spec", [_FLAT, _DOME], ids=["flat", "helical"])
def test_kernel_blocks_leave_masks_and_fields_unchanged(spec, monkeypatch):
    # one row per block, the default budget, and the whole grid's first
    # level in one block: masks, curve distances and the sums over a
    # point's own panels are elementwise, so they must not move; B may
    # move in its last bits, as BLAS sums each block's rows over the
    # shared panels in its own order. That rounding is relative to the
    # sum of the segments' |contributions|, which near a field null is
    # up to ~2e3 times |B| on these grids, so it is measured against
    # that sum
    coil = apply_pose(build_filament_coil(spec, 64),
                      Pose(center=(0.01, -0.002, 0.03), tilt_angle_deg=37.0))
    pts = _grazing_points(coil)
    rows = field_coupling._BLOCK_PAIRS // _level0_nodes(coil)
    assert 1 < rows < len(pts) and len(pts) % rows
    runs = []
    for budget in (1, field_coupling._BLOCK_PAIRS, len(pts) * _level0_nodes(coil)):
        monkeypatch.setattr(field_coupling, "_BLOCK_PAIRS", budget)
        runs.append((*field_coupling._curve_field(coil, pts)[:2],
                     field_coupling._curve_distance(coil, pts)))
    (b, valid, dist), others = runs[0], runs[1:]
    assert 0 < np.count_nonzero(~valid) < len(pts)
    scale = _per_pair_field(coil, pts, 1.0, 64, magnitudes=True)[0][valid]
    for b_other, valid_other, dist_other in others:
        np.testing.assert_array_equal(valid_other, valid)
        np.testing.assert_array_equal(dist_other, dist)
        assert np.all(b_other[~valid] == 0.0)
        err = np.linalg.norm(b_other - b, axis=1)[valid] / scale
        assert err.max() <= 1e-14


# The pair kernels in their broadcast form: per block, offsets from
# strided node columns or (rows, N, 3) temporaries, and fresh planes.
# Each reads the module's block budget when called, so it blocks as the
# kernel does; the kernels must reproduce them bit for bit.
# _broadcast_node_sum also returns each point's nearest-node distance,
# which the tests read as the router's reference.

def _broadcast_node_sum(points, nodes, dl):
    b = np.empty((len(points), 3))
    nearest = np.empty(len(points))
    rows = max(1, field_coupling._BLOCK_PAIRS // len(nodes))
    for i0 in range(0, len(points), rows):
        p = points[i0:i0 + rows]
        rel = [p[:, k, None] - nodes[:, k] for k in range(3)]
        w = rel[0] * rel[0]
        w += rel[1] * rel[1]
        w += rel[2] * rel[2]
        nearest[i0:i0 + rows] = np.sqrt(w.min(axis=1))
        s = np.sqrt(w)
        w *= s
        np.reciprocal(w, out=w)
        m = [np.multiply(w, r, out=s) @ dl for r in rel]
        b[i0:i0 + rows] = np.column_stack([m[2][:, 1] - m[1][:, 2],
                                           m[0][:, 2] - m[2][:, 0],
                                           m[1][:, 0] - m[0][:, 1]])
    return b, nearest


def _broadcast_neumann_sum(m1, d1, m2, d2):
    total = 0.0
    rows = max(1, field_coupling._BLOCK_PAIRS // len(m2))
    for i0 in range(0, len(m1), rows):
        diff = m1[i0:i0 + rows, None, :] - m2[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=2))
        dots = np.sum(d1[i0:i0 + rows, None, :] * d2[None, :, :], axis=2)
        total += float(np.sum(dots / dist))
    return MU0 / (4.0 * math.pi) * total


def _shared_panels(coil, level):
    return field_coupling._panel_nodes(coil, *field_coupling._uniform_panels(coil, level))


@pytest.mark.parametrize("block_pairs", [None, 1000], ids=["default", "small"])
def test_pair_kernels_match_their_broadcast_form(block_pairs, monkeypatch):
    # a ragged last block and (with a small budget) many blocks
    if block_pairs is not None:
        monkeypatch.setattr(field_coupling, "_BLOCK_PAIRS", block_pairs)
    coil = build_filament_coil(_DOME, 64)
    pts = _grazing_points(coil)
    rows = field_coupling._BLOCK_PAIRS // len(_shared_panels(coil, 0)[0])
    assert 1 < rows < len(pts) and len(pts) % rows
    for level in (0, 2):
        nodes, dl = _shared_panels(coil, level)
        assert np.array_equal(field_coupling._node_sum(pts, nodes, dl),
                              _broadcast_node_sum(pts, nodes, dl)[0])


def test_pair_kernels_match_their_broadcast_form_at_one_point():
    coil = build_filament_coil(_DOME, 64)
    pt = np.array([[0.003, -0.001, 0.002]])
    nodes, dl = _shared_panels(coil, 1)
    assert np.array_equal(field_coupling._node_sum(pt, nodes, dl),
                          _broadcast_node_sum(pt, nodes, dl)[0])


@pytest.mark.parametrize("tilted", [False, True], ids=["nominal", "tilted"])
def test_neumann_sum_matches_its_broadcast_form(tilted, monkeypatch):
    tx, rx = _nominal_pair()
    if tilted:
        rx = apply_pose(build_filament_coil(RX, _SPT),
                        Pose(center=(0.03, -0.02, 0.12), tilt_angle_deg=63.0))
    for block in (None, 1000):
        if block is not None:
            # 3 rows a block at 64 nodes per turn, the last one ragged
            monkeypatch.setattr(field_coupling, "_BLOCK_PAIRS", block)
        for n in (8, 16, 32, 64):
            args = (*field_coupling._curve_nodes(tx, n), *field_coupling._curve_nodes(rx, n))
            assert _neumann_sum(*args) == _broadcast_neumann_sum(*args)


def _reach(coil):
    # the field kernel's far radius: the largest |r| of the level-0 nodes
    nodes, _ = _shared_panels(coil, 0)
    return float(np.sqrt(np.max(np.sum(nodes * nodes, axis=1))))


def _magnitude_sum(points, nodes, dl):
    # sum |dl x (p - r)| / |p - r|^3 over the nodes, at each point
    rel = points[:, None, :] - nodes[None, :, :]
    dist = np.linalg.norm(rel, axis=2)
    return np.sum(np.linalg.norm(np.cross(dl[None], rel), axis=2) / dist**3, axis=1)


def _gram_growth(coil, pts):
    # the far form's rounding growth ((|p| + reach) / nearest)^2, from the
    # broadcast form's nearest level-0 node
    nearest = _broadcast_node_sum(pts, *_shared_panels(coil, 0))[1]
    return ((np.linalg.norm(pts, axis=1) + _reach(coil)) / nearest) ** 2


@pytest.mark.parametrize("budget", ["row", "default", "whole"])
def test_far_form_matches_the_node_sum_on_far_points(budget, monkeypatch):
    # points the far form takes, those whose Gram form grows rounding by
    # at most _GRAM_GROWTH, around a helical coil whose sag puts nodes
    # outside its turn radii: those at least the reach from every
    # level-0 node (growth at most 9) and hundreds closer in. The Gram
    # form cancels at most a few tens of units of rounding there, so B
    # agrees with _node_sum's within the blocking bound above, measured
    # against the sum of the nodes' |contributions|, and the nearest-node
    # distance to a few units
    coil = build_filament_coil(_DOME, 64)
    reach = _reach(coil)
    assert reach > float(turn_radii(_DOME)[-1])
    rng = np.random.default_rng(11)
    pts = np.vstack([rng.uniform(-4 * reach, 4 * reach, (3000, 3)),
                     rng.uniform(-reach, reach, (1500, 3))])
    growth = _gram_growth(coil, pts)
    keep = growth <= field_coupling._GRAM_GROWTH
    pts, growth = pts[keep], growth[keep]
    assert len(pts) > 1000 and np.count_nonzero(growth > 9.0) > 300
    for level in (0, 2):
        nodes, dl = _shared_panels(coil, level)
        want, want_near = _broadcast_node_sum(pts, nodes, dl)
        block = {"row": len(nodes), "default": field_coupling._BLOCK_PAIRS,
                 "whole": len(pts) * len(nodes)}[budget]
        monkeypatch.setattr(field_coupling, "_BLOCK_PAIRS", block)
        b, near = field_coupling._far_sum(pts, nodes, dl, nearest=True)
        assert np.array_equal(field_coupling._far_sum(pts, nodes, dl), b)
        monkeypatch.undo()
        err = np.linalg.norm(b - want, axis=1) / _magnitude_sum(pts, nodes, dl)
        assert err.max() <= 1e-14
        np.testing.assert_allclose(near, want_near, rtol=1e-14, atol=0)


def test_only_points_within_the_gram_growth_take_the_far_form(monkeypatch):
    # two points in the plane of a flat coil, inside its inner turn, whose
    # growth is 1 - 1e-6 and 1 + 1e-6 times _GRAM_GROWTH. With the far
    # form's B poisoned, the one over it keeps its B from _node_sum
    # alone, and the one under it takes the far form's
    coil = build_filament_coil(_FLAT, 64)
    edge = field_coupling._GRAM_GROWTH
    assert _gram_growth(coil, np.zeros((1, 3)))[0] < edge

    def growth(x):
        return _gram_growth(coil, np.array([[x, 0.0, 0.0]]))[0]

    lo, hi = 0.0, _FLAT.inner_radius
    while hi - lo > 1e-12 * hi:
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if growth(mid) < edge else (lo, mid)
    slope = (growth(hi * (1.0 + 1e-6)) - growth(hi)) / (hi * 1e-6)
    pts = np.array([[hi + f * 1e-6 * edge / slope, 0.0, 0.0] for f in (-1.0, 1.0)])
    np.testing.assert_allclose(_gram_growth(coil, pts), [edge * (1.0 - 1e-6), edge * (1.0 + 1e-6)],
                               rtol=1e-7)
    b, valid, _ = field_coupling._curve_field(coil, pts)
    far = field_coupling._far_sum

    def poisoned(*args, **kwargs):
        out = far(*args, **kwargs)
        (out[0] if isinstance(out, tuple) else out)[:] = np.nan
        return out

    monkeypatch.setattr(field_coupling, "_far_sum", poisoned)
    b_poisoned, _, _ = field_coupling._curve_field(coil, pts)
    assert valid.all() and np.isfinite(b).all()
    assert np.isnan(b_poisoned[0]).all()
    assert np.array_equal(b_poisoned[1], b[1])


def test_pair_kernels_keep_block_sized_buffers():
    # numpy reports its buffers to tracemalloc. Whole-grid planes would
    # take 20k points x 96 nodes x 8 bytes = 15 MB each; each kernel's
    # peak stays within 8 planes of its block budget plus what scales
    # with the points alone (contiguous copies of their coordinates and
    # the per-point results)
    coil = build_filament_coil(_DOME, 64)
    pts = np.random.default_rng(3).uniform(-0.02, 0.02, (20_000, 3))
    axis = np.outer(np.linspace(0.05, 1.0, 4_000), [0.0, 0.0, 1.0])
    nodes, dl = _shared_panels(coil, 0)
    calls = [
        (lambda: field_coupling._node_sum(pts, nodes, dl),
         field_coupling._BLOCK_PAIRS, 7 * 8 * len(pts)),
        # per point: its coordinates in the coil's frame, their
        # contiguous copy and its distance. On the axis far out, every
        # node of a block is a candidate to polish
        (lambda: _curve_distance(coil, pts), field_coupling._BLOCK_PAIRS,
         7 * 8 * len(pts)),
        (lambda: _curve_distance(coil, axis), field_coupling._BLOCK_PAIRS,
         7 * 8 * len(axis)),
        (lambda: _neumann_sum(pts, pts, nodes, dl),
         field_coupling._BLOCK_PAIRS, 6 * 8 * len(pts)),
        # per point: its B and nearest-node distance
        (lambda: field_coupling._far_sum(pts, nodes, dl, nearest=True),
         field_coupling._BLOCK_PAIRS, 4 * 8 * len(pts)),
    ]
    for call, pairs, per_point in calls:
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * pairs * 8 + per_point


def _posed_grazing(spec):
    coil = apply_pose(build_filament_coil(spec, 64),
                      Pose(center=(0.01, -0.002, 0.03), tilt_angle_deg=37.0))
    return coil, _grazing_points(coil)


def _bench_map():
    # a map shaped like the benchmark's: 97 x 61 xz points on a 1/512 m
    # lattice about the nominal posed tx, most of them far points
    tx, _ = _nominal_pair()
    step = 1.0 / 512.0
    pts = _grid("xz", 0.0, (-60 * step, 36 * step, 97), (26 * step, 86 * step, 61))
    nearest = _broadcast_node_sum((pts - tx.origin) @ tx.rotation, *_shared_panels(tx, 0))[1]
    assert np.count_nonzero(nearest >= _reach(tx)) > len(pts) // 2
    return tx, pts


@pytest.mark.parametrize("case", [lambda: _posed_grazing(_FLAT), lambda: _posed_grazing(_DOME),
                                  _bench_map], ids=["flat", "helical", "bench-map"])
def test_estimates_bound_the_error_of_one_more_level(case):
    # a tolerance just under each point's estimate sends it one level
    # past where it stopped
    coil, pts = case()
    b, valid, estimate = field_coupling._curve_field(coil, pts)
    finer, _, _ = field_coupling._curve_field(
        coil, pts, tolerance=np.where(valid, estimate * (1.0 - 1e-9), 1.0))
    err = np.linalg.norm(b - finer, axis=1)[valid] / np.linalg.norm(finer, axis=1)[valid]
    assert np.all(estimate[valid] <= field_coupling._FIELD_TOLERANCE)
    assert np.all(err <= estimate[valid])


def test_field_is_invariant_under_rigid_motion():
    # B of a posed coil at p is R B of the unposed coil at R^T (p - t),
    # beside the wire and away from it, for rotations about any axis
    rng = np.random.default_rng(13)
    base = build_filament_coil(_DOME, 64)
    local = np.vstack([_grazing_points(base), rng.uniform(-0.02, 0.02, (40, 3))])
    # clear of the exclusion radius by a margin, so no mask is in doubt
    clear = _curve_distance(base, local) > base.wire_diameter
    local = local[clear][::5]
    for _ in range(3):
        rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rot *= np.linalg.det(rot)
        shift = rng.uniform(-0.05, 0.05, 3)
        coil = replace(base, rotation=rot, origin=shift)
        pts = local @ rot.T + shift
        moved = b_field(coil, 2.0, pts)
        still = b_field(base, 2.0, (pts - shift) @ rot) @ rot.T
        err = np.linalg.norm(moved - still, axis=1) / np.linalg.norm(still, axis=1)
        assert err.max() <= 1e-12


_MASK_COIL = apply_pose(
    build_filament_coil(CoilSpec(turns=2, inner_radius=8e-3, wire_diameter=1e-3,
                                 wire_spacing=0.5e-3), 24),
    Pose(center=(0.003, 0.0, -0.002), tilt_angle_deg=25.0))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 2.0 * math.pi * _MASK_COIL.spec.turns),
                          st.floats(0.0, 5.0), st.floats(-1.0, 1.0),
                          st.floats(0.0, 2.0 * math.pi)),
                min_size=1, max_size=40))
def test_vertex_early_out_masks_exactly_the_points_inside_the_wire(draws):
    # points at 0..5 exclusion radii from a spot on the curve straddle
    # both the exclusion radius and the routing radius `clear` (about 4.7
    # exclusion radii here)
    coil = _MASK_COIL
    exclusion = coil.wire_diameter / 2.0
    pts = []
    for phi, dist, cos_polar, azimuth in draws:
        on_wire = coil.curve([phi])[0][0]
        sin_polar = math.sqrt(1.0 - cos_polar * cos_polar)
        direction = np.array([sin_polar * math.cos(azimuth),
                              sin_polar * math.sin(azimuth), cos_polar])
        pts.append(on_wire + dist * exclusion * direction)
    pts = np.array(pts)
    _, valid, _ = field_coupling._curve_field(coil, pts)
    np.testing.assert_array_equal(~valid, _curve_distance(coil, pts) <= exclusion)


def test_maps_far_from_the_wire_skip_the_curve_distance_pass(monkeypatch):
    def pairwise(*args):
        raise AssertionError("curve distance pass ran for points far from the wire")

    monkeypatch.setattr(field_coupling, "_curve_distance", pairwise)
    tx, _ = _nominal_pair()
    b = field_map(tx, 1.0, _grid("xz", 0.0, (-0.03, 0.03, 9), (0.02, 0.08, 7)))
    assert b.shape == (63, 3) and np.isfinite(b).all()


def _clear_radius(coil):
    # the level-0 nodes' slack and the radius beyond which a point
    # shares the uniform panels, as the field kernel defines them on its
    # widest level-0 panel
    widest = float(field_coupling._uniform_panels(coil, 0)[1].max())
    frac = (field_coupling._gauss_legendre(field_coupling._PANEL_NODES)[0] + 1.0) / 2.0
    speed = coil.top_speed
    slack = widest * speed * max(np.diff(frac).max() / 2.0, frac[0])
    return max(coil.wire_diameter / 2.0, widest * speed / field_coupling._PANEL_REACH) + slack


@pytest.mark.parametrize("spec", [_FLAT, _DOME], ids=["flat", "helical"])
def test_only_points_within_the_clear_radius_take_the_curve_distance(spec, monkeypatch):
    coil, pts = _posed_grazing(spec)
    clear = _clear_radius(coil)
    local = (pts - coil.origin) @ coil.rotation
    _, nearest = _broadcast_node_sum(local, *_shared_panels(coil, 0))
    # no point so close to the radius that the routing margin decides it
    assert np.all(np.abs(nearest - clear) > 1e-6 * clear)
    within = nearest <= clear
    assert 0 < np.count_nonzero(within) < len(pts)

    seen = []
    distance = field_coupling._curve_distance

    def recorded(c, points):
        seen.append(points.copy())
        return distance(c, points)

    monkeypatch.setattr(field_coupling, "_curve_distance", recorded)
    field_coupling._curve_field(coil, pts)
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], pts[within])


@pytest.mark.parametrize("spec", [_FLAT, _DOME], ids=["flat", "helical"])
def test_each_point_is_routed_by_one_level0_pass(spec, monkeypatch):
    # the far form's level-0 pass sees every point once; _node_sum's
    # level-0 call holds exactly the points beyond `clear` whose Gram
    # growth is over _GRAM_GROWTH, and no point within `clear` reaches
    # _node_sum at any level
    coil, pts = _posed_grazing(spec)
    clear, level0 = _clear_radius(coil), _level0_nodes(coil)
    local = (pts - coil.origin) @ coil.rotation
    nearest = _broadcast_node_sum(local, *_shared_panels(coil, 0))[1]
    growth = _gram_growth(coil, local)
    shared = nearest > clear
    offset = shared & (growth > field_coupling._GRAM_GROWTH)
    # no point so close to either edge that rounding decides it
    assert np.all(np.abs(nearest - clear) > 1e-6 * clear)
    assert np.all(np.abs(growth - field_coupling._GRAM_GROWTH)[shared] > 1e-6)
    assert 0 < np.count_nonzero(offset) and 0 < np.count_nonzero(~shared)

    calls = {}

    def recorder(name):
        kernel, seen = getattr(field_coupling, name), calls.setdefault(name, [])

        def recorded(points, nodes, *args, **kwargs):
            seen.append((len(nodes) == level0, points.copy()))
            return kernel(points, nodes, *args, **kwargs)
        return recorded

    for name in ("_far_sum", "_node_sum"):
        monkeypatch.setattr(field_coupling, name, recorder(name))
    field_coupling._curve_field(coil, pts)
    far0 = [p for first, p in calls["_far_sum"] if first]
    assert len(far0) == 1 and np.array_equal(far0[0], local)
    node0 = [p for first, p in calls["_node_sum"] if first]
    assert len(node0) == 1 and np.array_equal(node0[0], local[offset])
    reached = np.vstack([p for _, p in calls["_node_sum"]])
    assert np.all(_broadcast_node_sum(reached, *_shared_panels(coil, 0))[1] > clear)


def test_a_point_on_a_level0_node_is_masked_without_warnings():
    # its level-0 sum divides by a zero distance; the map masks the
    # point and no RuntimeWarning escapes
    coil = build_filament_coil(_FLAT, 64)
    nodes, _ = _shared_panels(coil, 0)
    x, y, z = nodes[37]
    pts = _grid("xy", z, (x, x + 1e-3, 2), (y, y + 1e-3, 2))
    assert np.array_equal(pts[0], nodes[37])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b = field_map(coil, 1.0, pts)
    assert np.isnan(b[0]).all() and np.isfinite(b[1:]).all()


def test_every_point_on_the_exact_curve_is_masked():
    # the nominal tx at 64 segments/turn, where a 64-gon's chord sag
    # (75 um) exceeds the wire radius (68.5 um): a mask decided on that
    # polyline let 55 of these 202 points through, with meaningless B
    tx = apply_pose(build_filament_coil(TX, 64), scenario_poses(NOMINAL)[0])
    pts, _ = tx.curve(np.linspace(0.0, 2.0 * math.pi * TX.turns, 202))
    _, valid, _ = field_coupling._curve_field(tx, pts)
    assert not valid.any()
    with pytest.raises(SingularEvaluationError):
        b_field(tx, 1.0, pts[101])


def test_curve_distance_of_one_turn_is_the_circle_distance():
    # points within a tenth of r of an exact circle of radius r, where
    # the polish converges fast, on a posed loop
    r = 0.01
    pose = Pose(center=(0.02, -0.01, 0.05), tilt_angle_deg=37.0)
    rng = np.random.default_rng(21)
    d = r * np.geomspace(1e-3, 0.1, 300)
    psi, theta = rng.uniform(0.0, 2.0 * math.pi, (2, len(d)))
    rho, z = r + d * np.cos(psi), d * np.sin(psi)
    local = np.column_stack([rho * np.cos(theta), rho * np.sin(theta), z])
    pts = local @ pose.rotation_matrix().T + np.asarray(pose.center)
    got = _curve_distance(apply_pose(Ring(r), pose), pts)
    np.testing.assert_allclose(got, np.sqrt((rho - r) ** 2 + z * z), rtol=1e-10, atol=0)


@pytest.mark.parametrize("spec", [TX, RX, replace(RX, shape=HELICAL)],
                         ids=["tx", "rx", "helical"])
def test_curve_distance_reads_an_offset_along_a_normal(spec):
    # a point moved delta off the curve along a normal, delta below a
    # quarter of the turn pitch, so the nearest point stays where it was
    coil = apply_pose(build_filament_coil(spec, _SPT),
                      Pose(center=(0.092, 0.0, 0.15), tilt_angle_deg=37.0))
    rng = np.random.default_rng(17)
    on, tangent = coil.curve(rng.uniform(0.0, 2.0 * math.pi * spec.turns, 400))
    assert _curve_distance(coil, on).max() <= 1e-16
    normal = rng.standard_normal(on.shape)
    normal -= (np.sum(normal * tangent, axis=1) / np.sum(tangent * tangent, axis=1))[:, None] * \
        tangent
    normal /= np.linalg.norm(normal, axis=1)[:, None]
    delta = np.geomspace(1e-6, spec.pitch / 4.0, len(on))
    got = _curve_distance(coil, on + delta[:, None] * normal)
    np.testing.assert_allclose(got, delta, rtol=1e-9, atol=0)


def test_closest_approach_of_coaxial_loops_is_the_closed_form():
    for r1, r2, z in ((0.02, 0.0195, 0.001), (0.02, 0.021, 0.0), (0.02, 0.02, 0.002)):
        gap = math.hypot(r1 - r2, z)
        a = Ring(r1)
        b = apply_pose(Ring(r2), Pose(center=(0.0, 0.0, z)))
        assert closest_approach(a, b) == pytest.approx(gap, rel=1e-12, abs=0)
        # the check raises with the wire just thicker than the gap, and
        # passes with it just thinner
        for wire in (gap * (1 + 1e-3), gap * (1 - 1e-3)):
            a = Ring(r1, wire)
            b = apply_pose(Ring(r2, wire), Pose(center=(0.0, 0.0, z)))
            if wire > gap:
                with pytest.raises(SeparationError):
                    _check_separation(a, b)
            else:
                _check_separation(a, b)


# --------------------------------------------------------------- pieces

_RECT = apply_pose(Rectangle(3e-3, 2e-3), Pose(center=(0.01, -0.004, 0.02), tilt_angle_deg=33.0))


def test_rectangle_field_on_its_axis_is_the_closed_form():
    # four straight pieces of unequal length, kinked at their breaks:
    # B on the axis at height z is mu0 I a b / (pi sqrt(a^2 + b^2 + z^2))
    # (1 / (a^2 + z^2) + 1 / (b^2 + z^2)), and at the centre
    # mu0 I sqrt(a^2 + b^2) / (pi a b)
    a, b = _RECT.a, _RECT.b
    z = np.array([0.0, 1e-3, 3e-3, 1e-2, 3e-2])
    field, valid, estimate = field_coupling._curve_field(
        _RECT, np.outer(z, _RECT.axis) + _RECT.origin)
    want = MU0 * a * b / (math.pi * np.sqrt(a * a + b * b + z * z)) * \
        (1.0 / (a * a + z * z) + 1.0 / (b * b + z * z))
    assert want[0] == pytest.approx(MU0 * math.hypot(a, b) / (math.pi * a * b), rel=1e-15, abs=0)
    assert valid.all()
    err = np.linalg.norm(field - np.outer(want, _RECT.axis), axis=1) / want
    assert np.all(err <= estimate)


def test_every_point_on_a_rectangle_is_masked():
    # its long pieces have the widest level-0 node gaps, which the field
    # kernel's routing radius must allow for: on a 6 x 2 mm rectangle a
    # point midway between two nodes of a long piece lies farther from
    # every node than a radius taken from a short piece
    rect = apply_pose(Rectangle(3e-3, 1e-3), Pose(center=(0.01, 0.0, 0.02), tilt_angle_deg=50.0))
    on, _ = rect.curve(piece_angles(rect, 400))
    _, valid, _ = field_coupling._curve_field(rect, on)
    assert not valid.any()


def _segment_distance(points, start, end):
    # exact distance from each point to the straight segment [start, end]
    step = end - start
    t = np.clip((points - start) @ step / (step @ step), 0.0, 1.0)
    return np.linalg.norm(points - start - t[:, None] * step, axis=1)


def test_rectangle_curve_distance_is_the_segment_distance():
    # points inside, outside and beyond the corners, whose nearest point
    # may be a kink: each piece polishes its candidates within itself
    a, b = _RECT.a, _RECT.b
    rng = np.random.default_rng(3)
    local = np.column_stack([rng.uniform(-2 * a, 2 * a, 500), rng.uniform(-2 * b, 2 * b, 500),
                             rng.uniform(-1e-3, 1e-3, 500)])
    corners = _RECT.corners
    want = np.min([_segment_distance(local, corners[k], corners[k + 1]) for k in range(4)],
                  axis=0)
    got = _curve_distance(_RECT, local @ _RECT.rotation.T + _RECT.origin)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_rectangle_curve_distance_near_a_kink_is_the_segment_distance():
    # inside each corner, nearest to the piece ending there at half of
    # its half node gap from the kink: only that piece's end node
    # brackets the nearest point, and local at the kink reads the next piece
    corners = _RECT.corners
    step = np.diff(corners, axis=0)
    length = np.linalg.norm(step, axis=1)
    tangent = step / length[:, None]
    inward = np.column_stack([-tangent[:, 1], tangent[:, 0], np.zeros(4)])
    delta = length / (4 * field_coupling._DISTANCE_NODES)
    local = corners[1:] - delta[:, None] * tangent + 0.2 * delta[:, None] * inward
    want = np.min([_segment_distance(local, corners[k], corners[k + 1]) for k in range(4)],
                  axis=0)
    np.testing.assert_allclose(want, 0.2 * delta, rtol=1e-12)
    got = _curve_distance(_RECT, local @ _RECT.rotation.T + _RECT.origin)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_rectangle_and_ring_mutual_inductance_is_reciprocal():
    ring = apply_pose(Ring(4e-3), Pose(center=(0.012, -0.003, 0.032), tilt_angle_deg=20.0))
    m_ab = mutual_inductance(_RECT, ring).m
    m_ba = mutual_inductance(ring, _RECT).m
    assert m_ab == pytest.approx(m_ba, rel=1e-12, abs=0)


class _MidTurnBreaks(FilamentCoil):
    """A coil whose every turn is split at its middle: the same smooth
    curve, with a break where it has no kink."""

    @property
    def breaks(self):
        b = super().breaks
        return np.sort(np.r_[b, (b[:-1] + b[1:]) / 2.0])


def test_a_smooth_breakpoint_moves_m_and_b_within_their_estimates():
    # each grid is laid on half turns instead of turns: on the nominal
    # pair, M and a field map through each coil's wire move by no more
    # than the two runs' estimates
    poses = scenario_poses(NOMINAL)
    (tx, rx), (split_tx, split_rx) = (
        (apply_pose(kind(spec, _SPT), pose) for spec, pose in zip((TX, RX), poses))
        for kind in (FilamentCoil, _MidTurnBreaks))
    assert len(split_tx.breaks) == 2 * TX.turns + 1
    m, split = mutual_inductance(tx, rx), mutual_inductance(split_tx, split_rx)
    assert abs(split.m - m.m) / max(abs(m.m), _coupling_floor(tx, rx)) <= \
        m.convergence_estimate + split.convergence_estimate
    for coil, split_coil, half in ((tx, split_tx, 0.08), (rx, split_rx, 0.012)):
        local = _grid("xz", 0.0, (-half, half, 33), (-half / 2.0, half / 2.0, 17))
        pts = local @ coil.rotation.T + coil.origin
        b, valid, estimate = field_coupling._curve_field(coil, pts)
        b_split, valid_split, estimate_split = field_coupling._curve_field(split_coil, pts)
        np.testing.assert_array_equal(valid_split, valid)
        assert 0 < np.count_nonzero(~valid)
        floor = MU0 / (4.0 * math.pi) * field_coupling._Ladder(coil, pts[:1], None).floor
        moved = np.linalg.norm(b_split - b, axis=1) / \
            np.maximum(np.linalg.norm(b, axis=1), floor)
        assert np.all((moved <= estimate + estimate_split)[valid])


# --------------------------------------------------------------- field_map

def test_field_map_masks_points_on_the_wire_and_keeps_the_rest():
    coil = Ring(0.01, wire_diameter=1e-3)
    # middle column of axis1 passes exactly through the wire at (0.01, 0, 0)
    pts = _grid("xy", 0.0, (0.009, 0.011, 3), (-0.001, 0.001, 3))
    b = field_map(coil, 1.0, pts)
    assert b.shape == (9, 3)
    masked = np.isnan(b).any(axis=1)
    assert masked.any() and not masked.all()
    assert np.isnan(b[masked]).all()            # a masked row is NaN throughout
    assert np.isfinite(b[~masked]).all()
    on_wire = (np.abs(pts[:, 0] - 0.01) < 1e-12) & (pts[:, 1] == 0.0)
    assert on_wire.sum() == 1 and masked[on_wire].all()


# ------------------------------------------------- mutual inductance

def _sub_chords(verts, sub):
    # each polyline segment cut into `sub` equal chords: midpoints and
    # line elements
    a = verts[:-1]
    step = (verts[1:] - a) / sub
    frac = (np.arange(sub) + 0.5)[None, :, None]
    mids = a[:, None, :] + step[:, None, :] * frac
    dl = np.broadcast_to(step[:, None, :], mids.shape)
    return mids.reshape(-1, 3), dl.reshape(-1, 3)


def _polyline_neumann(tx, rx, per_turn, tolerance=1e-3):
    # the polyline reference: the midpoint-rule Neumann double line
    # integral over every segment pair of the coils' polylines at
    # per_turn segments per turn, refined by chord doubling
    # (1, 2, 4, 8 chords per segment) until the relative change, judged
    # against the dipole-scale floor, falls below tolerance; returns
    # (M, last relative change)
    _check_separation(tx, rx)
    floor = _coupling_floor(tx, rx)
    prev = None
    tx, rx = polyline(tx, per_turn), polyline(rx, per_turn)
    for sub in (1, 2, 4, 8):
        m = _neumann_sum(*_sub_chords(tx, sub), *_sub_chords(rx, sub))
        if prev is not None:
            estimate = abs(m - prev) / max(abs(m), floor)
            if estimate <= tolerance:
                return m, estimate
        prev = m
    raise ConvergenceError(f"polyline reference missed tolerance {tolerance:g}",
                           value=prev, estimate=estimate)


def test_neumann_matches_the_coaxial_oracle():
    a = Ring(0.03)
    b = apply_pose(Ring(0.01), Pose(center=(0, 0, 0.04)))
    got, _ = _polyline_neumann(a, b, 720)
    want = coaxial_mutual_oracle(0.03, 0.01, 0.04)
    assert got == pytest.approx(want, rel=1e-4, abs=0)


def test_nominal_coupling_is_frozen():
    m, estimate = _polyline_neumann(*_nominal_pair(), 360)
    assert m == pytest.approx(M_NOMINAL, rel=1e-11, abs=0)
    assert 0 < estimate < 1e-3


def test_flux_route_agrees_with_neumann_on_the_nominal_pose():
    m, _ = flux_mutual_inductance(*_nominal_pair())
    assert m == pytest.approx(M_FLUX_NOMINAL, rel=1e-11, abs=0)
    assert abs(m - M_NOMINAL) / abs(M_NOMINAL) < 0.01


def _vertex_mean_disk_frames(coil, per_turn):
    # the flux disks from the polyline alone: each turn's center on the
    # axis at its vertices' mean height, and its radius their mean
    # distance from the axis
    n, points = coil.axis, polyline(coil, per_turn)
    frames = []
    for i in range(coil.spec.turns):
        verts = points[i * per_turn:(i + 1) * per_turn + 1]
        center = coil.origin + n * float(np.mean((verts - coil.origin) @ n))
        rel = verts - center
        radial = rel - np.outer(rel @ n, n)
        frames.append((center, float(np.sqrt(np.sum(radial * radial, axis=1)).mean())))
    return frames


@pytest.mark.parametrize("spec", [RX, replace(RX, shape=HELICAL)], ids=["flat", "helical"])
@pytest.mark.parametrize("pose", [Pose(), Pose(center=(0.092, 0.0, 0.15), tilt_angle_deg=90.0),
                                  Pose(center=(0.01, -0.02, 0.03), tilt_angle_deg=37.0)],
                         ids=["local", "rx", "tilted"])
def test_disk_frames_match_the_vertex_means(spec, pose):
    # the mid-angle radius is the mean over the turn's vertices, since
    # the radius grows linearly with angle
    coil = apply_pose(build_filament_coil(spec, _SPT), pose)
    frames = disk_frames(coil, 64)
    assert len(frames) == spec.turns
    for (center, radius, e1, e2), (want_center, want_radius) in zip(
            frames, _vertex_mean_disk_frames(coil, 64)):
        assert radius == pytest.approx(want_radius, rel=1e-14, abs=0)
        np.testing.assert_allclose(center, want_center, rtol=1e-14,
                                   atol=1e-14 * spec.outer_diameter)
        np.testing.assert_allclose(np.array([e1 @ e1, e2 @ e2, e1 @ e2, e1 @ coil.axis]),
                                   [1.0, 1.0, 0.0, 0.0], rtol=0, atol=1e-15)


def test_reciprocity_of_the_neumann_route():
    a = apply_pose(Ring(0.02), Pose(tilt_angle_deg=25.0))
    b = apply_pose(Ring(0.008),
                   Pose(center=(0.01, 0.005, 0.06), tilt_angle_deg=70.0))
    m_ab = mutual_inductance(a, b).m
    m_ba = mutual_inductance(b, a).m
    assert m_ab == pytest.approx(m_ba, rel=5e-3, abs=0)


def test_orthogonal_centered_pose_couples_to_nothing():
    # rx axis perpendicular to tx axis, centered on the tx axis: every
    # flux contribution cancels by symmetry
    sc = Scenario(tx=TX, rx=RX, x_eye=0.0, z_eye=150e-3, tx_angle_deg=0.0)
    tx_pose, rx_pose = scenario_poses(sc)
    tx = apply_pose(build_filament_coil(TX, 180), tx_pose)
    rx = apply_pose(build_filament_coil(RX, 180), rx_pose)
    assert abs(mutual_inductance(tx, rx).m) < 1e-13


def test_convergence_estimate_bounds_the_next_refinement():
    a = Ring(0.02)
    b = apply_pose(Ring(0.008), Pose(center=(0.005, 0, 0.03)))
    coarse = mutual_inductance(a, b, tolerance=1e-3)
    fine = mutual_inductance(a, b, tolerance=coarse.convergence_estimate / 10)
    assert abs(fine.m - coarse.m) <= 2 * coarse.convergence_estimate * abs(coarse.m)


def test_flux_route_reports_the_change_it_measured():
    # the rx disk passes 5 mm from the tx wire, so the flux ladder has
    # real work to do
    a = Ring(0.03)
    b = apply_pose(Ring(0.028), Pose(center=(0.0, 0.0, 0.005)))
    m, estimate = flux_mutual_inductance(a, b, tolerance=1e-3)
    assert 0.0 < estimate < 1e-3
    tight, _ = flux_mutual_inductance(a, b, tolerance=estimate / 10)
    assert abs(tight - m) <= estimate * abs(m)


def test_cone_flux_is_the_neumann_m_of_the_chord_closed_rx():
    # Stokes' theorem: the flux through the cone over the rx winding is
    # the Neumann M of the winding plus its closing chord, on criterion
    # 04's spirals (3.8e-8 at worst); the open winding alone is 0.7% off
    worst_closed = worst_open = 0.0
    for tx, rx in random_spiral_pairs():
        m = mutual_inductance(tx, rx).m
        closed = m + path_neumann(tx, closing_path(rx))
        cone = cone_flux_mutual_inductance(tx, rx)
        worst_closed = max(worst_closed, abs(cone - closed) / abs(closed))
        worst_open = max(worst_open, abs(cone - m) / abs(m))
    assert worst_closed <= 1e-6
    assert worst_open > 1e-3


def test_closing_path_of_a_flat_spiral_is_its_radial_chord():
    spec = CoilSpec(turns=3, inner_radius=5e-3, wire_diameter=0.2e-3, wire_spacing=0.4e-3)
    rx = apply_pose(build_filament_coil(spec, 120),
                    Pose(center=(0.01, 0.0, 0.06), tilt_angle_deg=40.0))
    outer, centre, inner = closing_path(rx)
    np.testing.assert_allclose(centre, rx.origin, rtol=0, atol=0)
    radial = np.array([outer - centre, inner - centre]) @ rx.rotation
    r = turn_radii(spec)
    np.testing.assert_allclose(radial, [[r[-1], 0.0, 0.0], [r[0], 0.0, 0.0]],
                               rtol=1e-15, atol=1e-17)


# ------------------------------------------------- spectral route

def test_spectral_matches_the_coaxial_oracle_on_the_kernel_grid():
    # the criterion-04 grid of one-turn coaxial loops; at tolerance 1e-5
    # every pose stops on a level whose error is below 1e-9
    r1 = 0.05
    base = Ring(r1)
    for ratio in (0.05, 0.2, 1.0):
        for zr in (0.5, 1.0, 5.0):
            inner = apply_pose(Ring(ratio * r1),
                               Pose(center=(0, 0, zr * r1)))
            result = mutual_inductance(base, inner, tolerance=1e-5)
            want = coaxial_mutual_oracle(r1, ratio * r1, zr * r1)
            err = abs(result.m - want) / abs(want)
            assert err <= 1e-9, (ratio, zr, err)
            assert err <= result.convergence_estimate, (ratio, zr, err)


def _tilted_loop_oracle(r_p, r_s, pose, nodes=128):
    # M of a loop of radius r_s placed by pose against a loop of radius
    # r_p at the origin about +z: the primary's closed-form vector
    # potential A_phi = mu0/(pi k) sqrt(r_p/rho) ((1 - k^2/2) K(k) - E(k)),
    # k^2 = 4 r_p rho/((r_p + rho)^2 + z^2), integrated once around the
    # secondary as M = sum A_phi (x dy - y dx)/rho (Babic, Sirois, Akyel &
    # Girardi, IEEE Trans. Magn. 46(9), 2010) by the periodic trapezoid
    # rule, exponentially convergent for a secondary clear of the
    # primary's wire and axis
    t = 2.0 * math.pi * np.arange(nodes) / nodes
    rot = pose.rotation_matrix()
    ring = np.outer(np.cos(t), rot[:, 0]) + np.outer(np.sin(t), rot[:, 1])
    x, y, z = (np.array(pose.center) + r_s * ring).T
    dl = r_s * (np.outer(-np.sin(t), rot[:, 0]) + np.outer(np.cos(t), rot[:, 1]))
    rho = np.hypot(x, y)
    k_sq = 4.0 * r_p * rho / ((r_p + rho) ** 2 + z * z)
    a_phi = MU0 / (math.pi * np.sqrt(k_sq)) * np.sqrt(r_p / rho) * \
        ((1.0 - k_sq / 2.0) * scipy.special.ellipk(k_sq) - scipy.special.ellipe(k_sq))
    return float(np.sum(a_phi * (x * dl[:, 1] - y * dl[:, 0]) / rho)) * 2.0 * math.pi / nodes


def test_tilted_loop_oracle_reduces_to_the_coaxial_formula():
    for r_s, z in ((0.01, 0.04), (0.03, 0.015), (0.05, 0.2)):
        assert _tilted_loop_oracle(0.03, r_s, Pose(center=(0.0, 0.0, z))) == \
            pytest.approx(coaxial_mutual_oracle(0.03, r_s, z), rel=1e-13, abs=0)


def test_spectral_matches_the_closed_form_on_tilted_offset_loops():
    # random tilts and azimuths; the secondary's centre sits 20-50 mm off
    # the primary's axis and 40-80 mm above its plane, so it clears both
    # the primary's wire and its axis
    r_p, r_s = 0.03, 0.01
    base = Ring(r_p)
    rng = np.random.default_rng(8)
    for _ in range(8):
        azimuth = rng.uniform(0.0, 2.0 * math.pi)
        offset = rng.uniform(0.02, 0.05)
        pose = Pose(center=(offset * math.cos(azimuth), offset * math.sin(azimuth),
                            rng.uniform(0.04, 0.08)),
                    tilt_angle_deg=rng.uniform(0.0, 360.0))
        got = mutual_inductance(base, apply_pose(Ring(r_s), pose),
                                tolerance=1e-9).m
        want = _tilted_loop_oracle(r_p, r_s, pose)
        assert got == pytest.approx(want, rel=1e-12, abs=0), pose


def test_spectral_nominal_coupling_matches_the_extrapolated_polyline():
    tx, rx = _nominal_pair()
    result = mutual_inductance(tx, rx)
    assert 0 < result.convergence_estimate < 1e-3
    assert result.m == pytest.approx(M_NOMINAL_EXTRAPOLATED, rel=1e-8, abs=0)


def test_spectral_follows_the_helical_sag():
    # the raw polyline is still ~2e-5 off at 720 segments/turn; its
    # Richardson extrapolation from 180 and 360 is the reference
    helical = replace(RX, shape=HELICAL, sphere_radius=12e-3)
    m = {}
    for spt in (180, 360):
        m[spt], _ = _polyline_neumann(*_nominal_pair(helical), spt)
    reference = (4.0 * m[360] - m[180]) / 3.0
    got = mutual_inductance(*_nominal_pair(helical)).m
    assert got == pytest.approx(reference, rel=1e-7, abs=0)
    flat = mutual_inductance(*_nominal_pair()).m
    assert abs(got - flat) > 1e-4 * abs(flat)        # the sag matters


def _random_pair(rng):
    a = apply_pose(build_filament_coil(TX, 90),
                   Pose(tilt_angle_deg=rng.uniform(0, 90)))
    b = apply_pose(build_filament_coil(RX, 90),
                   Pose(center=(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1),
                                rng.uniform(0.05, 0.2)),
                        tilt_angle_deg=rng.uniform(0, 360)))
    return a, b


def test_spectral_reciprocity_is_exact():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a, b = _random_pair(rng)
        m_ab = mutual_inductance(a, b).m
        m_ba = mutual_inductance(b, a).m
        assert m_ab == pytest.approx(m_ba, rel=1e-12, abs=0)


def test_spectral_coupling_is_invariant_under_rigid_motion():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a, b = _random_pair(rng)
        motion = Pose(center=tuple(rng.uniform(-1.0, 1.0, 3)),
                      tilt_angle_deg=rng.uniform(0, 360))
        m = mutual_inductance(a, b).m
        moved = mutual_inductance(apply_pose(a, motion), apply_pose(b, motion)).m
        assert moved == pytest.approx(m, rel=1e-12, abs=0)


def test_spectral_sign_flips_when_the_receiver_turns_over():
    a = Ring(0.03)
    up = Pose(center=(0.01, 0.0, 0.04), tilt_angle_deg=30.0)
    down = Pose(center=(0.01, 0.0, 0.04), tilt_angle_deg=210.0)
    m_up = mutual_inductance(a, apply_pose(Ring(0.01), up), tolerance=1e-9).m
    m_down = mutual_inductance(a, apply_pose(Ring(0.01), down), tolerance=1e-9).m
    assert m_up > 0 > m_down
    assert m_down == pytest.approx(-m_up, rel=1e-9, abs=0)
    # a spiral turned over is not the same wire reversed, but the sign
    # still follows the axis
    tx_pose, rx_pose = scenario_poses(NOMINAL)
    tx = apply_pose(build_filament_coil(TX, 90), tx_pose)
    flipped = apply_pose(build_filament_coil(RX, 90),
                         replace(rx_pose, tilt_angle_deg=270.0))
    m_flipped = mutual_inductance(tx, flipped).m
    assert m_flipped == pytest.approx(-M_NOMINAL_EXTRAPOLATED, rel=1e-2, abs=0)


def test_spectral_unreachable_tolerance_raises_with_the_last_estimate():
    tx, rx = _nominal_pair()
    with pytest.raises(ConvergenceError) as err:
        mutual_inductance(tx, rx, tolerance=1e-16)
    assert err.value.value == pytest.approx(M_NOMINAL_EXTRAPOLATED, rel=1e-8, abs=0)
    assert err.value.estimate > 1e-16
    # a pair of coarse loops converges to 6.9e-16 and still misses 1e-16
    a = Ring(0.02)
    b = apply_pose(Ring(0.008), Pose(center=(0.005, 0, 0.03)))
    with pytest.raises(ConvergenceError) as err:
        mutual_inductance(a, b, tolerance=1e-16)
    assert math.isfinite(err.value.value)
    assert err.value.estimate > 1e-16


def test_spectral_route_still_checks_separation():
    # interleaved loops: each passes through the other's wire
    a = Ring(0.02, wire_diameter=0.5e-3)
    b = apply_pose(Ring(0.02, wire_diameter=0.5e-3),
                   Pose(tilt_angle_deg=90.0))
    with pytest.raises(SeparationError):
        mutual_inductance(a, b)


def _legendre_rule(n):
    # the n-point Gauss-Legendre rule to 40 digits: Newton on the
    # three-term recurrence from the textbook guess cos(pi (4k - 1) /
    # (4n + 2)), ascending
    with mpmath.workdps(40):
        nodes, weights = [], []
        for k in range(n, 0, -1):
            x = mpmath.cos(mpmath.pi * (4 * k - 1) / (4 * n + 2))
            for _ in range(100):
                p0, p1 = mpmath.mpf(1), x
                for j in range(1, n):
                    p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
                d = n * (p0 - x * p1) / (1 - x * x)
                x -= p1 / d
                if abs(p1 / d) < mpmath.mpf(10) ** -38:
                    break
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * d * d))
        assert abs(sum(weights) - 2) < mpmath.mpf(10) ** -35
        return nodes, weights


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_gauss_legendre_rule_is_within_an_ulp(n):
    # nodes and weights within one unit of double rounding of the exact
    # rule (numpy's leggauss is within one for the nodes, and off by 36,
    # 32, 263 and 5791 for the weights at these n)
    nodes, weights = field_coupling._gauss_legendre(n)
    for got, exact in zip((nodes, weights), _legendre_rule(n)):
        assert len(got) == n
        with mpmath.workdps(40):
            err = [abs(mpmath.mpf(float(g)) - e) / abs(e) for g, e in zip(got, exact)]
        assert float(max(err)) <= 2.0**-52


def test_field_map_and_mutual_inductance_leave_numpy_polynomial_unloaded():
    # field_coupling builds its quadrature rules itself, so a run never
    # loads numpy.polynomial (a few ms of every process)
    code = f"""if True:
        import sys
        sys.path.insert(0, {str(Path(__file__).parent)!r})
        import mqslink
        from mqslink.geometry import apply_pose, build_filament_coil, scenario_poses
        from nominal import NOMINAL
        tx, rx = (apply_pose(build_filament_coil(spec, {_SPT}), pose)
                  for spec, pose in zip((NOMINAL.tx, NOMINAL.rx), scenario_poses(NOMINAL)))
        mqslink.field_map(tx, 1.0, [[0.0, 0.0, 0.1]])
        mqslink.mutual_inductance(tx, rx)
        print(sorted(m for m in sys.modules if m.startswith("numpy.polynomial")))
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "[]"


# ------------------------------------------------- separation check

def _points_per_level(monkeypatch, tx, rx):
    # the points of each _curve_distance call of one check, one call
    # per level of runs of samples
    calls = []
    distance = field_coupling._curve_distance

    def counted(coil, points):
        calls.append(len(points))
        return distance(coil, points)

    monkeypatch.setattr(field_coupling, "_curve_distance", counted)
    _check_separation(tx, rx)
    return calls


def test_far_coils_settle_the_separation_check_in_few_levels(monkeypatch):
    # the nominal pair settles on the ends of the tx's level-0 runs of
    # samples, two a turn, and the rx is never sampled
    assert _points_per_level(monkeypatch, *_nominal_pair()) == [2 * TX.turns + 1]
    # close poses, where each coil's bounding ball holds the other's
    # centre, within two levels
    for x_eye, z_eye in ((0.03, 0.05), (0.0, 0.06)):
        pair = _nominal_pair(scenario=replace(NOMINAL, x_eye=x_eye, z_eye=z_eye))
        assert len(_points_per_level(monkeypatch, *pair)) <= 2


def test_near_equator_coil_refines_only_its_outer_end(monkeypatch):
    # a helical rx whose sphere only just clears its outer turn is fast
    # near that end alone, so it takes no more points than one well
    # inside its sphere, within a factor of 2
    scenario = replace(NOMINAL, x_eye=0.03, z_eye=0.05)
    r_out = float(turn_radii(RX).max())
    near, inside = (
        sum(_points_per_level(monkeypatch, *_nominal_pair(
            replace(RX, shape=HELICAL, sphere_radius=r_out * (1.0 + rel)), scenario)))
        for rel in (1e-9, 1e-2))
    assert near <= 2 * inside


def test_separation_check_measures_the_dense_samples(monkeypatch):
    # coaxial loops just outside the threshold leave no run of samples
    # cleared, so the check measures every sample both ways; they are
    # the ring's one piece [0, 2 pi] at equal steps of at most the
    # threshold of arc, pi (1 + x) for x = -1, -1 + 2 / per, ..., and its end
    a = Ring(0.02)
    b = apply_pose(Ring(0.02), Pose(center=(0.0, 0.0, a.wire_diameter * (1 + 1e-6))))
    angles = []
    curve = Ring.curve

    def recorded(coil, phi):
        angles.append(phi)
        return curve(coil, phi)

    monkeypatch.setattr(Ring, "curve", recorded)
    _check_separation(a, b)
    per = math.ceil(longest_piece(a) * a.top_speed / a.wire_diameter)
    steps = (1.0 + np.arange(-per, per, 2) / per) * math.pi
    assert np.array_equal(np.unique(np.concatenate(angles)), np.r_[steps, 2.0 * math.pi])
    assert sum(map(len, angles)) > 2 * per


_SMALL = CoilSpec(turns=2, inner_radius=8e-3, wire_diameter=1e-3,
                  wire_spacing=0.5e-3)


@settings(max_examples=200, deadline=None)
@given(center=st.tuples(*[st.floats(-0.02, 0.02)] * 3),
       scale=st.sampled_from([1.0, 10.0]),
       tilt_a=st.floats(0.0, 360.0), tilt_b=st.floats(0.0, 360.0))
@example(center=(0.0, 0.0, _SMALL.wire_diameter * (1 - 1e-3)), scale=1.0, tilt_a=0.0, tilt_b=0.0)
@example(center=(0.0, 0.0, _SMALL.wire_diameter * (1 + 1e-3)), scale=1.0, tilt_a=0.0, tilt_b=0.0)
# 0.81 thresholds apart, nearest at the outer end of one coil
@example(center=(-0.0069, 0.0073, -0.0087), scale=1.0, tilt_a=252.0, tilt_b=318.0)
# 0.94 thresholds apart, within one threshold only at samples of the
# coil sampled second
@example(center=(-0.0022, -0.00966, 0.00818), scale=1.0, tilt_a=240.7, tilt_b=24.1)
def test_separation_early_out_agrees_with_the_exact_pass(center, scale,
                                                         tilt_a, tilt_b):
    a = apply_pose(build_filament_coil(_SMALL, 24), Pose(tilt_angle_deg=tilt_a))
    b = apply_pose(build_filament_coil(_SMALL, 24),
                   Pose(center=tuple(scale * c for c in center),
                        tilt_angle_deg=tilt_b))
    exact = closest_approach(a, b) <= _SMALL.wire_diameter
    try:
        _check_separation(a, b)
    except SeparationError:
        assert exact
    else:
        assert not exact


def test_coupling_coefficient_normalizes_m():
    k = coupling_coefficient(M_NOMINAL, L_TX, L_RX)
    expected = M_NOMINAL / math.sqrt(L_TX * L_RX)
    assert k == pytest.approx(expected, rel=1e-12, abs=0)
    assert 0.0 < k < 1.0
    assert coupling_coefficient(-M_NOMINAL, L_TX, 3.8e-7) > 0


def test_bad_arguments_are_rejected_before_any_integral(monkeypatch):
    tx, rx = _nominal_pair()
    with pytest.raises(ValueError, match=r"^tolerance must be > 0, got 0$"):
        mutual_inductance(tx, rx, tolerance=0)
    with pytest.raises(ValueError, match=r"^tolerance must be > 0, got nan$"):
        mutual_inductance(tx, rx, tolerance=math.nan)
    # b_field and field_map check their points and current on one path
    monkeypatch.setattr(field_coupling, "_curve_field", None)   # an integral raises TypeError
    for evaluate in (b_field, field_map):
        for shape in ((2,), (4, 2), (2, 3, 3)):
            with pytest.raises(ValueError, match=rf"3-vector or \(n, 3\) array, "
                                                 rf"got shape {re.escape(str(shape))}$"):
                evaluate(tx, 1.0, np.zeros(shape))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=r"^point must be finite$"):
                evaluate(tx, 1.0, [[0.0, 0.0, 0.1], [0.0, bad, 0.1]])
    # a NaN current would read as wire-masked rows of a field map
    pts = _grid("xz", 0.0, (-0.05, 0.05, 3), (0.05, 0.15, 3))
    for bad in (math.nan, math.inf, -math.inf):
        for evaluate in (lambda: b_field(tx, bad, (0.0, 0.0, 0.1)),
                         lambda: field_map(tx, bad, pts)):
            with pytest.raises(ValueError, match=f"^current must be finite, got {bad!r}$"):
                evaluate()


def test_coupling_coefficient_rejects_unphysical_m():
    with pytest.raises(ValueError):
        coupling_coefficient(1e-6, 1e-6, 1e-6)     # |k| = 1
    with pytest.raises(ValueError):
        coupling_coefficient(1e-9, 0.0, 1e-6)
    for args in ((math.nan, 1e-6, 1e-6), (1e-9, math.nan, 1e-6), (1e-9, 1e-6, math.nan),
                 (1e-9, math.inf, 1e-6), (math.inf, 1e-6, 1e-6)):
        with pytest.raises(ValueError, match="finite"):
            coupling_coefficient(*args)


def test_coupling_result_validation():
    with pytest.raises(ValueError, match="convergence_estimate"):
        CouplingResult(m=1e-9, convergence_estimate=-1.0)


@pytest.mark.parametrize("kwargs, field", [
    *((dict(m=bad), "m") for bad in (math.nan, math.inf, -math.inf, np.float32("inf"))),
    *((dict(convergence_estimate=bad), "convergence_estimate")
      for bad in (math.nan, math.inf)),
])
def test_coupling_result_rejects_non_finite_values_naming_the_field(kwargs, field):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        CouplingResult(**{"m": 1e-9, "convergence_estimate": 1e-6, **kwargs})
