"""Coil specs, filament discretization, and posing."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from mqslink.geometry import (DEFAULT_SPHERE_RADIUS, HELICAL, CoilSpec, FilamentCoil,
                              Pose, Scenario, apply_pose, build_filament_coil,
                              scenario_poses, turn_radii, winding_curve)
from nominal import PLACEMENT, RX, TX
from references import Ring, piece_angles, polyline


def test_turn_radii_advance_by_pitch():
    radii = turn_radii(RX)
    assert radii.shape == (5,)
    assert radii[0] == pytest.approx(4e-3)
    assert np.allclose(np.diff(radii), RX.pitch)


def test_diameter_properties():
    assert RX.pitch == pytest.approx(0.637e-3)
    assert RX.inner_diameter == pytest.approx(8e-3)
    # D_o = 2*r_i + 2*N*(d+s)
    assert RX.outer_diameter == pytest.approx(8e-3 + 2 * 5 * 0.637e-3)


@pytest.mark.parametrize("kwargs, field", [
    (dict(turns=0), "turns"),
    (dict(turns=2.5), "turns"),
    # a count is a Python or numpy integer, never a bool
    (dict(turns=True), r"^turns must be an integer >= 1, got True$"),
    (dict(turns=np.int64(0)), r"^turns must be an integer >= 1, got np\.int64\(0\)$"),
    (dict(turns=np.float64(5.0)), r"^turns must be an integer >= 1"),
    (dict(inner_radius=0.0), "inner_radius"),
    (dict(wire_diameter=-1e-4), "wire_diameter"),
    (dict(wire_spacing=-1e-4), "wire_spacing"),
    (dict(shape="square"), r"^shape must be one of 'flat-spiral', 'helical', got 'square'$"),
    (dict(conductivity=0.0), "conductivity"),
    (dict(sphere_radius=-1e-3), "sphere_radius"),
    (dict(sphere_radius=0.02), r"^sphere_radius 0\.02 is for the helical shape only$"),
    (dict(parasitic_capacitance=0.0), "parasitic_capacitance"),
    (dict(inductance_override=0.0), "inductance_override"),
    (dict(inductance_override=-1e-6), "inductance_override"),
    (dict(resistance_override=-0.5), "resistance_override"),
    *((dict([(name, bad)]), f"^{name} must be finite")
      for name in ("inner_radius", "wire_diameter", "wire_spacing", "sphere_radius",
                   "conductivity", "parasitic_capacitance", "inductance_override",
                   "resistance_override")
      for bad in (math.nan, math.inf)),
])
def test_coil_spec_rejects_bad_values_naming_the_field(kwargs, field):
    base = dict(turns=5, inner_radius=4e-3, wire_diameter=0.137e-3,
                wire_spacing=0.5e-3)
    base.update(kwargs)
    with pytest.raises(ValueError, match=field):
        CoilSpec(**base)


def test_counts_accept_numpy_integers():
    spec = CoilSpec(turns=np.int64(5), inner_radius=4e-3, wire_diameter=0.137e-3,
                    wire_spacing=0.5e-3)
    assert spec == RX
    assert build_filament_coil(spec, np.int32(16)).n_segments == 80


def test_helical_coil_must_fit_on_its_sphere():
    with pytest.raises(ValueError, match="sphere_radius"):
        CoilSpec(turns=5, inner_radius=11e-3, wire_diameter=0.137e-3,
                 wire_spacing=0.5e-3, shape=HELICAL, sphere_radius=12e-3)
    # on a sphere whose radius equals the outermost turn radius the
    # winding's sag is vertical, and its tangent infinite, at its outer end
    r_max = float(turn_radii(RX)[-1])
    with pytest.raises(ValueError, match="^sphere_radius .* must exceed"):
        CoilSpec(5, 4e-3, 0.137e-3, 0.5e-3, shape=HELICAL, sphere_radius=r_max)
    just_fits = CoilSpec(5, 4e-3, 0.137e-3, 0.5e-3, shape=HELICAL,
                         sphere_radius=float(np.nextafter(r_max, 1.0)))
    assert np.all(np.isfinite(winding_curve(just_fits, [0.0, 5.0, 10.0 * math.pi])[1]))


def test_no_sphere_radius_is_an_explicit_12_mm():
    # the default sphere has one home: the curve and the fit check read
    # the same radius whether it is left out or written
    implicit = CoilSpec(5, 4e-3, 0.137e-3, 0.5e-3, shape=HELICAL)
    explicit = replace(implicit, sphere_radius=12e-3)
    phi = np.linspace(0.0, 2.0 * math.pi * 5, 5 * 64 + 1)
    for got, want in zip(winding_curve(implicit, phi), winding_curve(explicit, phi)):
        assert np.array_equal(got, want)
    # outer turns just inside and just outside 12 mm
    for shift, fits in ((-1e-12, True), (1e-12, False)):
        verdicts = []
        for sphere in (None, 12e-3):
            try:
                CoilSpec(5, 12e-3 - 4 * 0.637e-3 + shift, 0.137e-3, 0.5e-3,
                         shape=HELICAL, sphere_radius=sphere)
                verdicts.append("fits")
            except ValueError as exc:
                verdicts.append(str(exc))
        assert verdicts[0] == verdicts[1]
        assert (verdicts[0] == "fits") == fits, verdicts[0]


def _wire_length(coil, per_turn):
    return float(np.sum(np.linalg.norm(np.diff(polyline(coil, per_turn), axis=0), axis=1)))


def test_wire_length_matches_per_turn_circumferences():
    # with linear radius growth each turn's mean radius is its mid-angle
    # one, not its nominal one, but the sum over all turns matches
    coil = build_filament_coil(RX, 16)
    expected = float(np.sum(2.0 * math.pi * turn_radii(RX)))
    assert abs(_wire_length(coil, 720) - expected) / expected < 1e-3


def test_filament_starts_on_inner_radius_and_is_connected():
    coil = build_filament_coil(RX, segments_per_turn=64)
    # the count the benchmark reads; it sets no geometry
    assert coil.n_segments == 5 * 64
    points, _ = coil.curve([0.0, 2.0 * math.pi * RX.turns])
    np.testing.assert_allclose(points, [[4e-3, 0.0, 0.0], [turn_radii(RX)[-1], 0.0, 0.0]],
                               rtol=0, atol=1e-15)


def test_flat_spiral_is_planar():
    coil = build_filament_coil(TX, 16)
    assert np.all(polyline(coil, 90)[:, 2] == 0.0)


def test_helical_sag_follows_the_sphere():
    spec = CoilSpec(turns=5, inner_radius=4e-3, wire_diameter=0.137e-3,
                    wire_spacing=0.5e-3, shape=HELICAL)
    points = polyline(build_filament_coil(spec, 16), 180)
    r_max = float(turn_radii(spec)[-1])
    sag = DEFAULT_SPHERE_RADIUS - math.sqrt(DEFAULT_SPHERE_RADIUS**2 - r_max**2)
    assert float(points[:, 2].min()) == pytest.approx(-sag, rel=1e-9)
    assert np.all(points[:, 2] <= 0.0)


HELICAL_RX = CoilSpec(turns=5, inner_radius=4e-3, wire_diameter=0.137e-3,
                      wire_spacing=0.5e-3, shape=HELICAL)


@pytest.mark.parametrize("spec", [RX, HELICAL_RX], ids=["flat", "helical"])
def test_vertices_sample_the_winding_curve(spec):
    # an unposed coil's curve is its spec's winding, to the bit
    coil = build_filament_coil(spec, segments_per_turn=64)
    phi = np.linspace(0.0, 2.0 * math.pi * spec.turns, spec.turns * 64 + 1)
    for got, want in zip(coil.curve(phi), winding_curve(spec, phi)):
        np.testing.assert_array_equal(got, want)
    assert coil.spec is spec


@pytest.mark.parametrize("spec", [RX, HELICAL_RX], ids=["flat", "helical"])
def test_a_spirals_pieces_are_its_turns(spec):
    # read-only breaks at 2 pi k, and a top speed no sample of any piece
    # exceeds
    coil = apply_pose(build_filament_coil(spec, 16), Pose(center=(0.01, 0.0, 0.02),
                                                          tilt_angle_deg=30.0))
    np.testing.assert_array_equal(coil.breaks, 2.0 * math.pi * np.arange(spec.turns + 1))
    with pytest.raises(ValueError, match="read-only"):
        coil.breaks[1] = 0.0
    speed = np.linalg.norm(coil.curve(piece_angles(coil, 256))[1], axis=1)
    assert np.argmax(speed) == len(speed) - 1
    assert speed[-1] == pytest.approx(coil.top_speed, rel=1e-15, abs=0)


@pytest.mark.parametrize("spec", [RX, HELICAL_RX], ids=["flat", "helical"])
def test_curve_tangents_are_the_angle_derivative(spec):
    phi = np.linspace(0.1, 2.0 * math.pi * spec.turns - 0.1, 50)
    h = 1e-6
    _, tangents = winding_curve(spec, phi)
    ahead, _ = winding_curve(spec, phi + h)
    behind, _ = winding_curve(spec, phi - h)
    np.testing.assert_allclose(tangents, (ahead - behind) / (2 * h),
                               rtol=0, atol=1e-9 * spec.outer_diameter)


def test_posed_curve_follows_the_posed_vertices():
    first, second = (Pose(center=(0.01, -0.02, 0.03), tilt_angle_deg=35.0),
                     Pose(center=(0.1, 0.0, 0.2), tilt_angle_deg=-70.0))
    coil = build_filament_coil(HELICAL_RX, segments_per_turn=32)
    posed = apply_pose(apply_pose(coil, first), second)
    phi = np.linspace(0.0, 2.0 * math.pi * HELICAL_RX.turns, 5 * 32 + 1)
    points, tangents = posed.curve(phi)
    # the two poses applied in turn to the local vertices
    moved = apply_pose(coil, first).curve(phi)[0]
    moved = moved @ second.rotation_matrix().T + np.asarray(second.center)
    np.testing.assert_allclose(points, moved, rtol=0, atol=1e-16)
    # rotation keeps tangent lengths
    _, local = winding_curve(HELICAL_RX, phi)
    np.testing.assert_allclose(np.linalg.norm(tangents, axis=1),
                               np.linalg.norm(local, axis=1), rtol=1e-14)


@pytest.mark.parametrize("spec", [RX, HELICAL_RX], ids=["flat", "helical"])
@pytest.mark.parametrize("tilt", [0.0, 37.0, 90.0, 143.5, -61.0])
def test_posed_vertices_are_the_local_vertices_moved(spec, tilt):
    # the polyline a pose derives from the curve is, to the bit, the
    # local vertices rotated and then translated
    pose = Pose(center=(0.092, -0.004, 0.15), tilt_angle_deg=tilt)
    posed = apply_pose(build_filament_coil(spec, 16), pose)
    phi = piece_angles(posed, 64)
    assert len(phi) == spec.turns * 64 + 1
    rot = pose.rotation_matrix()
    moved = winding_curve(spec, phi)[0] @ rot.T + np.asarray(pose.center)
    assert np.array_equal(polyline(posed, 64), moved)


def test_refinement_halves_the_chord_error():
    # polyline length of an inscribed polygon converges ~ 1/n^2
    exact = 2.0 * math.pi * 10e-3
    coil = Ring(10e-3)
    err = [abs(_wire_length(coil, n) - exact) for n in (32, 64, 128)]
    assert err[0] / err[1] == pytest.approx(4.0, rel=0.05)
    assert err[1] / err[2] == pytest.approx(4.0, rel=0.05)


@pytest.mark.parametrize("bad", [15, np.int64(15), 16.0, True])
def test_too_coarse_discretization_is_rejected(bad):
    with pytest.raises(ValueError, match=f"^segments_per_turn must be an integer >= 16, "
                                         f"got {re.escape(repr(bad))}$"):
        build_filament_coil(RX, segments_per_turn=bad)


def test_filament_arrays_are_frozen():
    coil = build_filament_coil(RX, segments_per_turn=32)
    with pytest.raises(ValueError):
        coil.rotation[0, 0] = 2.0
    with pytest.raises(ValueError):
        coil.origin[0] = 1.0


@pytest.mark.parametrize("name", ["origin", "rotation"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_filament_coil_rejects_a_non_finite_placement(name, bad):
    value = np.eye(3) if name == "rotation" else np.array([0.0, 0.0, 0.1])
    value.flat[0] = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        FilamentCoil(RX, 64, **{name: value})


def test_pose_rejects_a_center_that_is_not_a_3_vector():
    with pytest.raises(ValueError, match=r"^center must be a finite 3-vector, got \(0, 0\)$"):
        Pose(center=(0, 0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float32("nan")])
def test_pose_rejects_a_non_finite_tilt(bad):
    with pytest.raises(ValueError, match="^tilt_angle_deg must be finite"):
        Pose(center=(0.0, 0.0, 0.1), tilt_angle_deg=bad)


def test_tilt_rotates_axis_from_vertical_to_forward():
    coil = build_filament_coil(RX, segments_per_turn=32)
    posed = apply_pose(coil, Pose(tilt_angle_deg=90.0))
    np.testing.assert_allclose(posed.axis, [1.0, 0.0, 0.0], atol=1e-12)
    half = apply_pose(coil, Pose(tilt_angle_deg=45.0))
    np.testing.assert_allclose(half.axis,
                               [math.sqrt(0.5), 0.0, math.sqrt(0.5)],
                               atol=1e-12)


def test_two_quarter_tilts_compose_to_a_half_turn():
    coil = build_filament_coil(RX, segments_per_turn=48)
    twice = apply_pose(apply_pose(coil, Pose(tilt_angle_deg=90.0)),
                       Pose(tilt_angle_deg=90.0))
    once = apply_pose(coil, Pose(tilt_angle_deg=180.0))
    np.testing.assert_allclose(polyline(twice, 48), polyline(once, 48), atol=1e-15)
    np.testing.assert_allclose(twice.axis, once.axis, atol=1e-15)


def test_pose_preserves_lengths_and_translates_centers():
    coil = build_filament_coil(RX, segments_per_turn=48)
    posed = apply_pose(coil, Pose(center=(0.1, -0.02, 0.3),
                                  tilt_angle_deg=37.0))
    assert _wire_length(posed, 48) == pytest.approx(_wire_length(coil, 48), rel=1e-12, abs=0)
    rng = np.random.default_rng(7)
    for _ in range(5):
        tilt = float(rng.uniform(0, 180))
        center = tuple(rng.uniform(-0.2, 0.2, 3))
        p = apply_pose(coil, Pose(center=center, tilt_angle_deg=tilt))
        d = np.linalg.norm(polyline(p, 48) - np.asarray(center), axis=1)
        d0 = np.linalg.norm(polyline(coil, 48), axis=1)
        np.testing.assert_allclose(d, d0, rtol=1e-12, atol=1e-15)


def test_rotation_matrix_is_proper():
    rng = np.random.default_rng(11)
    for tilt in rng.uniform(-180, 180, 8):
        rot = Pose(tilt_angle_deg=float(tilt)).rotation_matrix()
        np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-14)
        assert np.linalg.det(rot) == pytest.approx(1.0)


def test_scenario_poses_place_tx_at_origin_and_rx_at_the_eye():
    sc = Scenario(tx=TX, rx=RX, **PLACEMENT)
    tx_pose, rx_pose = scenario_poses(sc)
    assert tx_pose.center == (0.0, 0.0, 0.0)
    assert tx_pose.tilt_angle_deg == 40.0
    assert rx_pose.center == (92e-3, 0.0, 150e-3)
    assert rx_pose.tilt_angle_deg == 90.0


@pytest.mark.parametrize("kwargs, field", [
    (dict(x_eye=-1e-3), "x_eye"),
    (dict(z_eye=-1e-3), "z_eye"),
    # each placement field lies within its SWEEP_RANGES row
    (dict(x_eye=1e297), "^x_eye must lie within"),
    (dict(x_eye=0.25), "^x_eye must lie within"),
    (dict(z_eye=0.04), "^z_eye must lie within"),
    (dict(z_eye=0.31), "^z_eye must lie within"),
    (dict(tx_angle_deg=91.0), "tx_angle_deg"),
    (dict(tx_angle_deg=-1.0), "tx_angle_deg"),
    (dict(r_source=0.0), "r_source"),
    (dict(r_load=-5.0), "r_load"),
    (dict(tuned_frequency=0.0), "tuned_frequency"),
    (dict(v_source=0.0), "v_source"),
    *((dict([(name, bad)]), f"^{name} must be finite")
      for name in ("x_eye", "z_eye", "r_source", "r_load", "tuned_frequency", "v_source")
      for bad in (math.nan, math.inf)),
])
def test_scenario_rejects_bad_values_naming_the_field(kwargs, field):
    base = dict(tx=TX, rx=RX, **PLACEMENT)
    base.update(kwargs)
    with pytest.raises(ValueError, match=field):
        Scenario(**base)
