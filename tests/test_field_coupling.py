"""Field evaluation and mutual inductance: kernel, routes, oracle."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from mqslink import field_coupling
from mqslink.constants import MU0
from mqslink.field_coupling import (FLUX, SPECTRAL, ConvergenceError,
                                    CouplingResult, GridSpec,
                                    SeparationError, SingularEvaluationError,
                                    _check_separation, _closest_approach,
                                    _coupling_floor, _ellipke, _neumann_sum,
                                    b_field, coaxial_mutual_oracle,
                                    coupling_coefficient, field_map,
                                    mutual_inductance)
from mqslink.geometry import (HELICAL, CoilSpec, Pose, Scenario, apply_pose,
                              build_filament_coil, scenario_poses)

RX = CoilSpec(turns=5, inner_radius=4e-3, wire_diameter=0.137e-3,
              wire_spacing=0.5e-3)
TX = CoilSpec(turns=5, inner_radius=60e-3, wire_diameter=0.137e-3,
              wire_spacing=0.5e-3)
NOMINAL = Scenario(tx=TX, rx=RX, x_eye=92e-3, z_eye=150e-3, tx_angle_deg=40.0,
                   l_tx_override=35e-6)

# pytest.approx adds an absolute tolerance of 1e-12 unless given one,
# which would swamp any relative tolerance on inductances of ~1e-10 H;
# every approx in this file passes abs=0

M_NOMINAL = 3.9074457990719537e-10    # _polyline_neumann, 360 segments/turn
M_FLUX_NOMINAL = 3.884941691187825e-10  # tx field from the exact winding
# _polyline_neumann at 360 and 720 segments/turn, Richardson-extrapolated:
# (4 M(720) - M(360)) / 3, since the polyline error falls as segments^-2
M_NOMINAL_EXTRAPOLATED = 3.9078144520416973e-10


def _loop(radius, segments=360, wire=1e-4):
    spec = CoilSpec(turns=1, inner_radius=radius, wire_diameter=wire,
                    wire_spacing=0.0)
    return build_filament_coil(spec, segments_per_turn=segments)


def _nominal_pair(segments_per_turn=360, rx_spec=RX):
    tx_pose, rx_pose = scenario_poses(NOMINAL)
    tx = apply_pose(build_filament_coil(TX, segments_per_turn), tx_pose)
    rx = apply_pose(build_filament_coil(rx_spec, segments_per_turn), rx_pose)
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
    coil = _loop(0.01, segments=720)
    b = b_field(coil, 1.0, np.zeros(3))
    assert b.shape == (3,)
    assert b[2] == pytest.approx(MU0 * 1.0 / (2 * 0.01), rel=1e-12, abs=0)
    assert abs(b[0]) < 1e-12 * abs(b[2])
    assert abs(b[1]) < 1e-12 * abs(b[2])


def test_on_axis_field_matches_the_analytic_profile():
    r = 0.02
    coil = _loop(r, segments=720)
    for z in (0.01, 0.05, 0.2):
        b = b_field(coil, 2.0, np.array([0.0, 0.0, z]))
        expected = MU0 * 2.0 * r**2 / (2.0 * (r**2 + z**2) ** 1.5)
        assert b[2] == pytest.approx(expected, rel=1e-12, abs=0)


def test_field_scales_linearly_with_current():
    coil = _loop(0.01)
    p = np.array([0.005, 0.002, 0.004])
    np.testing.assert_allclose(b_field(coil, 3.0, p), 3.0 * b_field(coil, 1.0, p),
                               rtol=1e-13)


def test_field_accepts_point_batches():
    coil = _loop(0.01)
    pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.01], [0.0, 0.0, 0.02]])
    b = b_field(coil, 1.0, pts)
    assert b.shape == (3, 3)
    np.testing.assert_allclose(b[0], b_field(coil, 1.0, pts[0]), rtol=1e-14)


def test_field_needs_the_winding_curve():
    coil = replace(_loop(0.01), spec=None)
    with pytest.raises(ValueError, match="CoilSpec"):
        b_field(coil, 1.0, np.zeros(3))


def test_field_inside_the_wire_is_refused():
    coil = _loop(0.01, wire=1e-3)
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


def test_off_axis_field_converges_to_the_closed_form_loop():
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
    got = b_field(_loop(radius, wire=wire), 1.5, pts)
    err = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
    assert err.max() <= 1e-10
    # the polyline reference's inscribed polygon is off by segments^-2
    errs = []
    for segments in (720, 1440):
        poly, _ = _per_pair_field(_loop(radius, segments=segments, wire=wire), pts, 1.5)
        errs.append(np.linalg.norm(poly - want, axis=1) / np.linalg.norm(want, axis=1))
    assert np.all(errs[1] < 2e-4)
    np.testing.assert_allclose(errs[0] / errs[1], 4.0, rtol=0.01)


# --------------------------------------------------------------- kernel

def _polyline_field(coil, points, current):
    """B (tesla) of the coil's polyline at the (n, 3) points, and a mask.

    The reference kernel: the exact finite-segment field of every
    polyline segment (Hanson & Hirshman, Phys. Plasmas 9, 4410, 2002),
    one pass per block of points over point-to-vertex offsets, summed
    over segments by matrix products. valid[i] is False where points[i]
    lies within half a wire diameter of a segment; b is zero there.
    """
    starts, ends = coil.segment_starts, coil.segment_ends
    seg = ends - starts
    seg_len_sq = np.sum(seg * seg, axis=1)
    valid = field_coupling._distance_to_segments(points, starts, ends) > \
        coil.wire_diameter / 2.0
    b = np.zeros_like(points)
    rows = max(1, field_coupling._BLOCK_PAIRS // len(coil.points))
    for i0 in range(0, len(points), rows):
        keep = valid[i0:i0 + rows]
        p = points[i0:i0 + rows][keep]
        # segment s runs from vertex s to vertex s + 1, so its end
        # distances are adjacent columns
        rel = [p[:, k, None] - coil.points[:, k] for k in range(3)]
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


def _per_pair_field(coil, points, current, magnitudes=False):
    # the direct form of the finite-segment kernel: every point-segment
    # pair with its own cross(r1, r2); masked points stay zero. With
    # magnitudes (and a positive current), the sum of each segment's
    # |contribution| instead of B
    starts, ends = coil.segment_starts, coil.segment_ends
    valid = field_coupling._distance_to_segments(points, starts, ends) > \
        coil.wire_diameter / 2.0
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
    local = [GridSpec(plane, 0.0, -7e-3, 7e-3, 61, -7e-3, 7e-3, 61).points()
             for plane in ("xy", "xz")]
    grids = np.vstack(local) @ coil.rotation.T + coil.origin
    rng = np.random.default_rng(5)
    verts = coil.points[::3]
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
    b, valid = _polyline_field(coil, pts, 2.0)
    want, want_valid = _per_pair_field(coil, pts, 2.0)
    np.testing.assert_array_equal(valid, want_valid)
    assert 0 < np.count_nonzero(~valid) < len(pts)
    assert np.all(b[~valid] == 0.0)
    err = np.linalg.norm(b - want, axis=1)[valid] / \
        np.linalg.norm(want, axis=1)[valid]
    assert err.max() <= 1e-11


def _level0_nodes(coil):
    return coil.spec.turns * field_coupling._BASE_PANELS * field_coupling._PANEL_NODES


@pytest.mark.parametrize("spec", [_FLAT, _DOME], ids=["flat", "helical"])
def test_kernel_blocks_leave_masks_and_fields_unchanged(spec, monkeypatch):
    # one row per block, the default budget, and the whole grid's first
    # level in one block: masks, segment distances and the sums over a
    # point's own panels are elementwise, so they must not move; B may
    # move in its last bits, as BLAS sums each block's rows over the
    # shared panels in its own order. That rounding is relative to the
    # sum of the segments' |contributions|, which near a field null is
    # up to ~2e3 times |B| on these grids, so it is measured against
    # that sum
    coil = apply_pose(build_filament_coil(spec, 64),
                      Pose(center=(0.01, -0.002, 0.03), tilt_angle_deg=37.0))
    pts = _grazing_points(coil)
    starts, ends = coil.segment_starts, coil.segment_ends
    rows = field_coupling._BLOCK_PAIRS // _level0_nodes(coil)
    assert 1 < rows < len(pts) and len(pts) % rows
    runs = []
    for budget in (1, field_coupling._BLOCK_PAIRS, len(pts) * _level0_nodes(coil)):
        monkeypatch.setattr(field_coupling, "_BLOCK_PAIRS", budget)
        runs.append((*field_coupling._curve_field(coil, pts)[:2],
                     field_coupling._distance_to_segments(pts, starts, ends)))
    (b, valid, dist), others = runs[0], runs[1:]
    assert 0 < np.count_nonzero(~valid) < len(pts)
    scale = _per_pair_field(coil, pts, 1.0, magnitudes=True)[0][valid]
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

def _broadcast_node_sum(points, nodes, dl, skip_within=None):
    b = np.zeros((len(points), 3))
    nearest = np.full(len(points), math.inf)
    rows = max(1, field_coupling._BLOCK_PAIRS // len(nodes))
    for i0 in range(0, len(points), rows):
        p = points[i0:i0 + rows]
        rel = [p[:, k, None] - nodes[:, k] for k in range(3)]
        w = rel[0] * rel[0]
        w += rel[1] * rel[1]
        w += rel[2] * rel[2]
        keep = slice(None)
        if skip_within is not None:
            near = np.sqrt(w.min(axis=1))
            nearest[i0:i0 + rows] = near
            keep = near > skip_within
            if not keep.all():
                rel, w = [r[keep] for r in rel], w[keep]
        s = np.sqrt(w)
        w *= s
        np.reciprocal(w, out=w)
        m = [np.multiply(w, r, out=s) @ dl for r in rel]
        b[i0:i0 + rows][keep] = np.column_stack([m[2][:, 1] - m[1][:, 2],
                                                 m[0][:, 2] - m[2][:, 0],
                                                 m[1][:, 0] - m[0][:, 1]])
    return b, nearest


def _broadcast_neumann_sum(m1, d1, m2, d2):
    total = 0.0
    rows = max(1, field_coupling._CHUNK_PAIRS // len(m2))
    for i0 in range(0, len(m1), rows):
        diff = m1[i0:i0 + rows, None, :] - m2[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=2))
        dots = np.sum(d1[i0:i0 + rows, None, :] * d2[None, :, :], axis=2)
        total += float(np.sum(dots / dist))
    return MU0 / (4.0 * math.pi) * total


def _broadcast_distance(points, starts, ends):
    seg = ends - starts
    seg_len_sq = np.maximum(np.sum(seg * seg, axis=1), 1e-300)
    out = np.empty(len(points))
    rows = max(1, field_coupling._BLOCK_PAIRS // max(1, len(starts)))
    for i0 in range(0, len(points), rows):
        p = points[i0:i0 + rows]
        w = p[:, None, :] - starts[None, :, :]
        t = np.clip(np.sum(w * seg[None, :, :], axis=2) / seg_len_sq[None, :], 0.0, 1.0)
        closest = starts[None, :, :] + t[..., None] * seg[None, :, :]
        d = np.sqrt(np.sum((p[:, None, :] - closest) ** 2, axis=2))
        out[i0:i0 + rows] = d.min(axis=1)
    return out


def _shared_panels(coil, level):
    return field_coupling._panel_nodes(
        coil.spec, *field_coupling._uniform_panels(coil.spec.turns, level))


# near-node distance that drops rows of the grazing points' blocks
_SKIP = 2e-3


@pytest.mark.parametrize("block_pairs", [None, 1000], ids=["default", "small"])
def test_pair_kernels_match_their_broadcast_form(block_pairs, monkeypatch):
    # a ragged last block, blocks with rows dropped between kept ones,
    # and (with a small budget) many blocks
    if block_pairs is not None:
        monkeypatch.setattr(field_coupling, "_BLOCK_PAIRS", block_pairs)
    coil = build_filament_coil(_DOME, 64)
    pts = _grazing_points(coil)
    nodes, dl = _shared_panels(coil, 0)
    rows = field_coupling._BLOCK_PAIRS // len(nodes)
    assert 1 < rows < len(pts) and len(pts) % rows
    want = _broadcast_node_sum(pts, nodes, dl, skip_within=_SKIP)
    dropped = want[1] <= _SKIP
    assert any(blk.any() and not blk[0] and not blk[-1]
               for blk in np.split(dropped, range(rows, len(pts), rows)))
    for got, ref in zip(field_coupling._node_sum(pts, nodes, dl, skip_within=_SKIP), want):
        assert np.array_equal(got, ref)
    nodes, dl = _shared_panels(coil, 2)
    assert np.array_equal(field_coupling._node_sum(pts, nodes, dl)[0],
                          _broadcast_node_sum(pts, nodes, dl)[0])
    starts, ends = coil.segment_starts, coil.segment_ends
    assert np.array_equal(field_coupling._distance_to_segments(pts, starts, ends),
                          _broadcast_distance(pts, starts, ends))


def test_pair_kernels_match_their_broadcast_form_at_one_point():
    coil = build_filament_coil(_DOME, 64)
    pt = np.array([[0.003, -0.001, 0.002]])
    nodes, dl = _shared_panels(coil, 1)
    for skip in (None, _SKIP, 1.0):
        for got, ref in zip(field_coupling._node_sum(pt, nodes, dl, skip_within=skip),
                            _broadcast_node_sum(pt, nodes, dl, skip_within=skip)):
            assert np.array_equal(got, ref)
    assert np.array_equal(
        field_coupling._distance_to_segments(pt, coil.segment_starts, coil.segment_ends),
        _broadcast_distance(pt, coil.segment_starts, coil.segment_ends))


@pytest.mark.parametrize("tilted", [False, True], ids=["nominal", "tilted"])
def test_neumann_sum_matches_its_broadcast_form(tilted, monkeypatch):
    tx, rx = _nominal_pair(90)
    if tilted:
        rx = apply_pose(build_filament_coil(RX, 90),
                        Pose(center=(0.03, -0.02, 0.12), tilt_angle_deg=63.0))
    for chunk in (None, 1000):
        if chunk is not None:
            # 3 rows a chunk at 64 nodes per turn, the last one ragged
            monkeypatch.setattr(field_coupling, "_CHUNK_PAIRS", chunk)
        for n in (8, 16, 32, 64):
            args = (*field_coupling._curve_nodes(tx, n), *field_coupling._curve_nodes(rx, n))
            assert _neumann_sum(*args) == _broadcast_neumann_sum(*args)


def test_pair_kernels_keep_block_sized_buffers(monkeypatch):
    # numpy reports its buffers to tracemalloc. Whole-grid planes would
    # take 20k points x 96 nodes x 8 bytes = 15 MB each; each kernel's
    # peak stays within 8 planes of its block budget plus what scales
    # with the points alone (contiguous copies of their coordinates and
    # the per-point results)
    coil = build_filament_coil(_DOME, 64)
    pts = np.random.default_rng(3).uniform(-0.02, 0.02, (20_000, 3))
    nodes, dl = _shared_panels(coil, 0)
    monkeypatch.setattr(field_coupling, "_CHUNK_PAIRS", 32_768)
    calls = [
        (lambda: field_coupling._node_sum(pts, nodes, dl, skip_within=_SKIP),
         field_coupling._BLOCK_PAIRS, 7 * 8 * len(pts)),
        (lambda: field_coupling._distance_to_segments(pts, coil.segment_starts,
                                                      coil.segment_ends),
         field_coupling._BLOCK_PAIRS, 4 * 8 * len(pts)),
        (lambda: _neumann_sum(pts, pts, nodes, dl),
         field_coupling._CHUNK_PAIRS, 6 * 8 * len(pts)),
    ]
    for call, pairs, per_point in calls:
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * pairs * 8 + per_point


@pytest.mark.parametrize("spec", [_FLAT, _DOME], ids=["flat", "helical"])
def test_estimates_bound_the_error_of_one_more_level(spec):
    # a tolerance just under each point's estimate sends it one level
    # past where it stopped
    coil = apply_pose(build_filament_coil(spec, 64),
                      Pose(center=(0.01, -0.002, 0.03), tilt_angle_deg=37.0))
    pts = _grazing_points(coil)
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
    clear = field_coupling._distance_to_segments(
        local, base.segment_starts, base.segment_ends) > base.wire_diameter
    local = local[clear][::5]
    for _ in range(3):
        rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rot *= np.linalg.det(rot)
        shift = rng.uniform(-0.05, 0.05, 3)
        coil = replace(base, points=base.points @ rot.T + shift,
                       turn_centers=base.turn_centers @ rot.T + shift,
                       axis=base.axis @ rot.T, rotation=rot, origin=shift)
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
@given(st.lists(st.tuples(st.integers(0, _MASK_COIL.n_segments - 1),
                          st.floats(0.0, 1.0), st.floats(0.0, 5.0),
                          st.floats(-1.0, 1.0), st.floats(0.0, 2.0 * math.pi)),
                min_size=1, max_size=40))
def test_vertex_early_out_masks_exactly_the_points_inside_the_wire(draws):
    # points at 0..5 exclusion radii from a spot on a segment straddle
    # both the exclusion radius and the early-out reach (exclusion plus
    # the level-0 node slack and the chord sag, about 4 exclusion radii
    # here)
    coil = _MASK_COIL
    exclusion = coil.wire_diameter / 2.0
    pts = []
    for seg, t, dist, cos_polar, azimuth in draws:
        on_wire = coil.points[seg] + t * (coil.points[seg + 1] - coil.points[seg])
        sin_polar = math.sqrt(1.0 - cos_polar * cos_polar)
        direction = np.array([sin_polar * math.cos(azimuth),
                              sin_polar * math.sin(azimuth), cos_polar])
        pts.append(on_wire + dist * exclusion * direction)
    pts = np.array(pts)
    _, valid, _ = field_coupling._curve_field(coil, pts)
    exact = field_coupling._distance_to_segments(
        pts, coil.segment_starts, coil.segment_ends)
    np.testing.assert_array_equal(~valid, exact <= exclusion)


def test_maps_far_from_the_wire_skip_the_segment_distance_pass(monkeypatch):
    def pairwise(*args):
        raise AssertionError("segment distance pass ran for points far from the wire")

    monkeypatch.setattr(field_coupling, "_distance_to_segments", pairwise)
    tx, _ = _nominal_pair(90)
    grid = GridSpec(plane="xz", offset=0.0, axis1_start=-0.03, axis1_stop=0.03,
                    axis1_points=9, axis2_start=0.02, axis2_stop=0.08,
                    axis2_points=7)
    b = field_map(tx, 1.0, grid)
    assert b.shape == (63, 3) and np.isfinite(b).all()


# --------------------------------------------------------------- field_map

def test_grid_points_run_row_major_with_axis1_slow():
    grid = GridSpec(plane="xz", offset=0.002, axis1_start=-1.0, axis1_stop=1.0,
                    axis1_points=2, axis2_start=10.0, axis2_stop=11.0,
                    axis2_points=3)
    pts = grid.points()
    assert pts.shape == (6, 3)
    np.testing.assert_allclose(pts[:, 1], 0.002)        # y pinned by offset
    np.testing.assert_allclose(pts[:3, 0], -1.0)        # axis1 held per row
    np.testing.assert_allclose(pts[:3, 2], [10.0, 10.5, 11.0])


@pytest.mark.parametrize("kwargs, match", [
    (dict(plane="ab"), "plane"),
    (dict(axis1_points=1), "axis1_points"),
    (dict(axis2_points=1), "axis2_points"),
    (dict(axis1_start=1.0, axis1_stop=-1.0), "axis1"),
])
def test_grid_spec_validation(kwargs, match):
    base = dict(plane="xy", offset=0.0, axis1_start=-1.0, axis1_stop=1.0,
                axis1_points=3, axis2_start=-1.0, axis2_stop=1.0,
                axis2_points=3)
    base.update(kwargs)
    with pytest.raises(ValueError, match=match):
        GridSpec(**base)


def test_field_map_masks_points_on_the_wire_and_keeps_the_rest():
    coil = _loop(0.01, segments=360, wire=1e-3)
    # middle column of axis1 passes exactly through the wire at (0.01, 0, 0)
    grid = GridSpec(plane="xy", offset=0.0, axis1_start=0.009,
                    axis1_stop=0.011, axis1_points=3, axis2_start=-0.001,
                    axis2_stop=0.001, axis2_points=3)
    b = field_map(coil, 1.0, grid)
    assert b.shape == (9, 3)
    masked = np.isnan(b).any(axis=1)
    assert masked.any() and not masked.all()
    assert np.isnan(b[masked]).all()            # a masked row is NaN throughout
    assert np.isfinite(b[~masked]).all()
    pts = grid.points()
    on_wire = (np.abs(pts[:, 0] - 0.01) < 1e-12) & (pts[:, 1] == 0.0)
    assert on_wire.sum() == 1 and masked[on_wire].all()


# ------------------------------------------------- mutual inductance

def _sub_chords(coil, sub):
    # each polyline segment cut into `sub` equal chords: midpoints and
    # line elements
    a = coil.segment_starts
    step = (coil.segment_ends - a) / sub
    frac = (np.arange(sub) + 0.5)[None, :, None]
    mids = a[:, None, :] + step[:, None, :] * frac
    dl = np.broadcast_to(step[:, None, :], mids.shape)
    return mids.reshape(-1, 3), dl.reshape(-1, 3)


def _polyline_neumann(tx, rx, tolerance=1e-3):
    # the polyline reference: the midpoint-rule Neumann double line
    # integral over every segment pair, refined by chord doubling
    # (1, 2, 4, 8 chords per segment) until the relative change, judged
    # against the dipole-scale floor, falls below tolerance; returns
    # (M, last relative change)
    _check_separation(tx, rx)
    floor = _coupling_floor(tx, rx)
    prev = None
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
    a = _loop(0.03, segments=720)
    b = apply_pose(_loop(0.01, segments=720), Pose(center=(0, 0, 0.04)))
    got, _ = _polyline_neumann(a, b)
    want = coaxial_mutual_oracle(0.03, 0.01, 0.04)
    assert got == pytest.approx(want, rel=1e-4, abs=0)


def test_nominal_coupling_is_frozen():
    m, estimate = _polyline_neumann(*_nominal_pair())
    assert m == pytest.approx(M_NOMINAL, rel=1e-11, abs=0)
    assert 0 < estimate < 1e-3


def test_flux_route_agrees_with_neumann_on_the_nominal_pose():
    tx, rx = _nominal_pair()
    result = mutual_inductance(tx, rx, method=FLUX)
    assert result.method == FLUX
    assert result.m == pytest.approx(M_FLUX_NOMINAL, rel=1e-11, abs=0)
    assert abs(result.m - M_NOMINAL) / abs(M_NOMINAL) < 0.01


def test_reciprocity_of_the_neumann_route():
    a = apply_pose(_loop(0.02, segments=240), Pose(tilt_angle_deg=25.0))
    b = apply_pose(_loop(0.008, segments=240),
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
    a = _loop(0.02, segments=120)
    b = apply_pose(_loop(0.008, segments=120), Pose(center=(0.005, 0, 0.03)))
    coarse = mutual_inductance(a, b, tolerance=1e-3)
    fine = mutual_inductance(a, b, tolerance=coarse.convergence_estimate / 10)
    assert abs(fine.m - coarse.m) <= 2 * coarse.convergence_estimate * abs(coarse.m)


def test_flux_route_reports_the_change_it_measured():
    # the rx disk passes 5 mm from the tx wire, so the flux ladder has
    # real work to do
    a = _loop(0.03, segments=180)
    b = apply_pose(_loop(0.028, segments=180), Pose(center=(0.0, 0.0, 0.005)))
    result = mutual_inductance(a, b, method=FLUX, tolerance=1e-3)
    assert 0.0 < result.convergence_estimate < 1e-3
    assert result.convergence_estimate != 1e-3
    tight = mutual_inductance(a, b, method=FLUX,
                              tolerance=result.convergence_estimate / 10)
    assert abs(tight.m - result.m) <= result.convergence_estimate * abs(result.m)


# ------------------------------------------------- spectral route

def test_spectral_matches_the_coaxial_oracle_on_the_kernel_grid():
    # the criterion-04 grid of one-turn coaxial loops; at tolerance 1e-5
    # every pose stops on a level whose error is below 1e-9
    r1 = 0.05
    base = _loop(r1, segments=90)
    for ratio in (0.05, 0.2, 1.0):
        for zr in (0.5, 1.0, 5.0):
            inner = apply_pose(_loop(ratio * r1, segments=90),
                               Pose(center=(0, 0, zr * r1)))
            result = mutual_inductance(base, inner, method=SPECTRAL, tolerance=1e-5)
            want = coaxial_mutual_oracle(r1, ratio * r1, zr * r1)
            err = abs(result.m - want) / abs(want)
            assert result.method == SPECTRAL
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
    base = _loop(r_p, segments=90)
    rng = np.random.default_rng(8)
    for _ in range(8):
        azimuth = rng.uniform(0.0, 2.0 * math.pi)
        offset = rng.uniform(0.02, 0.05)
        pose = Pose(center=(offset * math.cos(azimuth), offset * math.sin(azimuth),
                            rng.uniform(0.04, 0.08)),
                    tilt_angle_deg=rng.uniform(0.0, 360.0))
        got = mutual_inductance(base, apply_pose(_loop(r_s, segments=90), pose),
                                tolerance=1e-9).m
        want = _tilted_loop_oracle(r_p, r_s, pose)
        assert got == pytest.approx(want, rel=1e-12, abs=0), pose


def test_spectral_nominal_coupling_matches_the_extrapolated_polyline():
    tx, rx = _nominal_pair(180)
    result = mutual_inductance(tx, rx, method=SPECTRAL)
    assert result.method == SPECTRAL
    assert 0 < result.convergence_estimate < 1e-3
    assert result.m == pytest.approx(M_NOMINAL_EXTRAPOLATED, rel=1e-8, abs=0)


def test_spectral_follows_the_helical_sag():
    # the raw polyline is still ~2e-5 off at 720 segments/turn; its
    # Richardson extrapolation from 180 and 360 is the reference
    helical = replace(RX, shape=HELICAL, sphere_radius=12e-3)
    m = {}
    for spt in (180, 360):
        m[spt], _ = _polyline_neumann(*_nominal_pair(spt, helical))
    reference = (4.0 * m[360] - m[180]) / 3.0
    got = mutual_inductance(*_nominal_pair(180, helical), method=SPECTRAL).m
    assert got == pytest.approx(reference, rel=1e-7, abs=0)
    flat = mutual_inductance(*_nominal_pair(180), method=SPECTRAL).m
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
        m_ab = mutual_inductance(a, b, method=SPECTRAL).m
        m_ba = mutual_inductance(b, a, method=SPECTRAL).m
        assert m_ab == pytest.approx(m_ba, rel=1e-12, abs=0)


def test_spectral_coupling_is_invariant_under_rigid_motion():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a, b = _random_pair(rng)
        motion = Pose(center=tuple(rng.uniform(-1.0, 1.0, 3)),
                      tilt_angle_deg=rng.uniform(0, 360))
        m = mutual_inductance(a, b, method=SPECTRAL).m
        moved = mutual_inductance(apply_pose(a, motion), apply_pose(b, motion),
                                  method=SPECTRAL).m
        assert moved == pytest.approx(m, rel=1e-12, abs=0)


def test_spectral_sign_flips_when_the_receiver_turns_over():
    a = _loop(0.03, segments=90)
    up = Pose(center=(0.01, 0.0, 0.04), tilt_angle_deg=30.0)
    down = Pose(center=(0.01, 0.0, 0.04), tilt_angle_deg=210.0)
    m_up = mutual_inductance(a, apply_pose(_loop(0.01, segments=90), up),
                             method=SPECTRAL, tolerance=1e-9).m
    m_down = mutual_inductance(a, apply_pose(_loop(0.01, segments=90), down),
                               method=SPECTRAL, tolerance=1e-9).m
    assert m_up > 0 > m_down
    assert m_down == pytest.approx(-m_up, rel=1e-9, abs=0)
    # a spiral turned over is not the same wire reversed, but the sign
    # still follows the axis
    tx_pose, rx_pose = scenario_poses(NOMINAL)
    tx = apply_pose(build_filament_coil(TX, 90), tx_pose)
    flipped = apply_pose(build_filament_coil(RX, 90),
                         replace(rx_pose, tilt_angle_deg=270.0))
    m_flipped = mutual_inductance(tx, flipped, method=SPECTRAL).m
    assert m_flipped == pytest.approx(-M_NOMINAL_EXTRAPOLATED, rel=1e-2, abs=0)


def test_spectral_route_needs_the_winding_curve():
    tx, rx = _nominal_pair(90)
    with pytest.raises(ValueError, match="CoilSpec"):
        mutual_inductance(tx, replace(rx, spec=None))
    # the flux route takes the tx field from the tx winding curve; the rx
    # enters only through disks spanning its polyline turns
    with pytest.raises(ValueError, match="CoilSpec"):
        mutual_inductance(replace(tx, spec=None), rx, method=FLUX)
    assert mutual_inductance(tx, replace(rx, spec=None), method=FLUX).m > 0


def test_unknown_method_is_refused():
    tx, rx = _nominal_pair(90)
    with pytest.raises(ValueError, match="'spectral', 'flux'"):
        mutual_inductance(tx, rx, method="neumann")


def test_spectral_unreachable_tolerance_raises_with_the_last_estimate():
    tx, rx = _nominal_pair(90)
    with pytest.raises(ConvergenceError) as err:
        mutual_inductance(tx, rx, tolerance=1e-16)
    assert err.value.value == pytest.approx(M_NOMINAL_EXTRAPOLATED, rel=1e-8, abs=0)
    assert err.value.estimate > 1e-16
    # a pair of coarse loops converges to 6.9e-16 and still misses 1e-16
    a = _loop(0.02, segments=24)
    b = apply_pose(_loop(0.008, segments=24), Pose(center=(0.005, 0, 0.03)))
    with pytest.raises(ConvergenceError) as err:
        mutual_inductance(a, b, tolerance=1e-16)
    assert math.isfinite(err.value.value)
    assert err.value.estimate > 1e-16


def test_spectral_route_still_checks_separation():
    # interleaved loops: each passes through the other's wire
    a = _loop(0.02, segments=90, wire=0.5e-3)
    b = apply_pose(_loop(0.02, segments=90, wire=0.5e-3),
                   Pose(tilt_angle_deg=90.0))
    with pytest.raises(SeparationError):
        mutual_inductance(a, b)


# ------------------------------------------------- separation check

def test_far_coils_skip_the_pairwise_separation_pass(monkeypatch):
    def pairwise(*args):
        raise AssertionError("pairwise pass ran for well separated coils")

    monkeypatch.setattr(field_coupling, "_closest_approach", pairwise)
    _check_separation(*_nominal_pair(90))


_SMALL = CoilSpec(turns=2, inner_radius=8e-3, wire_diameter=1e-3,
                  wire_spacing=0.5e-3)


@settings(max_examples=200, deadline=None)
@given(center=st.tuples(*[st.floats(-0.02, 0.02)] * 3),
       scale=st.sampled_from([1.0, 10.0]),
       tilt_a=st.floats(0.0, 360.0), tilt_b=st.floats(0.0, 360.0))
def test_separation_early_out_agrees_with_the_exact_pass(center, scale,
                                                         tilt_a, tilt_b):
    a = apply_pose(build_filament_coil(_SMALL, 24), Pose(tilt_angle_deg=tilt_a))
    b = apply_pose(build_filament_coil(_SMALL, 24),
                   Pose(center=tuple(scale * c for c in center),
                        tilt_angle_deg=tilt_b))
    exact = _closest_approach(a, b) <= _SMALL.wire_diameter
    try:
        _check_separation(a, b)
    except SeparationError:
        assert exact
    else:
        assert not exact


def test_coupling_coefficient_normalizes_m():
    k = coupling_coefficient(M_NOMINAL, 35e-6, 3.816942603467716e-07)
    expected = M_NOMINAL / math.sqrt(35e-6 * 3.816942603467716e-07)
    assert k == pytest.approx(expected, rel=1e-12, abs=0)
    assert 0.0 < k < 1.0
    assert coupling_coefficient(-M_NOMINAL, 35e-6, 3.8e-7) > 0


def test_coupling_coefficient_rejects_unphysical_m():
    with pytest.raises(ValueError):
        coupling_coefficient(1e-6, 1e-6, 1e-6)     # |k| = 1
    with pytest.raises(ValueError):
        coupling_coefficient(1e-9, 0.0, 1e-6)


def test_coupling_result_validation():
    with pytest.raises(ValueError, match="method"):
        CouplingResult(m=1e-9, method="guess", convergence_estimate=0.0)
    with pytest.raises(ValueError, match="convergence_estimate"):
        CouplingResult(m=1e-9, method=SPECTRAL, convergence_estimate=-1.0)
