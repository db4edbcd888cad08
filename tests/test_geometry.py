"""Coil specs, filament discretization, and posing."""

import math

import numpy as np
import pytest

from mqslink.geometry import (DEFAULT_SPHERE_RADIUS, FLAT_SPIRAL, HELICAL,
                              CoilSpec, Pose, Scenario, apply_pose,
                              build_filament_coil, scenario_poses, turn_radii,
                              winding_curve)

RX = CoilSpec(turns=5, inner_radius=4e-3, wire_diameter=0.137e-3,
              wire_spacing=0.5e-3)
TX = CoilSpec(turns=5, inner_radius=60e-3, wire_diameter=0.137e-3,
              wire_spacing=0.5e-3)


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
    (dict(inner_radius=0.0), "inner_radius"),
    (dict(wire_diameter=-1e-4), "wire_diameter"),
    (dict(wire_spacing=-1e-4), "wire_spacing"),
    (dict(shape="square"), "shape"),
    (dict(conductivity=0.0), "conductivity"),
    (dict(sphere_radius=-1e-3), "sphere_radius"),
    (dict(parasitic_capacitance=0.0), "parasitic_capacitance"),
])
def test_coil_spec_rejects_bad_values_naming_the_field(kwargs, field):
    base = dict(turns=5, inner_radius=4e-3, wire_diameter=0.137e-3,
                wire_spacing=0.5e-3)
    base.update(kwargs)
    with pytest.raises(ValueError, match=field):
        CoilSpec(**base)


def test_helical_coil_must_fit_on_its_sphere():
    with pytest.raises(ValueError, match="sphere_radius"):
        CoilSpec(turns=5, inner_radius=11e-3, wire_diameter=0.137e-3,
                 wire_spacing=0.5e-3, shape=HELICAL, sphere_radius=12e-3)


def test_wire_length_matches_per_turn_circumferences():
    # linear radius growth makes each turn's mean radius its nominal one
    coil = build_filament_coil(RX, segments_per_turn=720)
    expected = float(np.sum(2.0 * math.pi * turn_radii(RX)))
    assert abs(coil.wire_length - expected) / expected < 1e-3


def test_filament_starts_on_inner_radius_and_is_connected():
    coil = build_filament_coil(RX, segments_per_turn=64)
    assert coil.points.shape == (5 * 64 + 1, 3)
    assert coil.n_segments == 5 * 64
    np.testing.assert_allclose(coil.points[0], [4e-3, 0.0, 0.0], atol=1e-15)
    # consecutive segments share vertices by construction
    np.testing.assert_array_equal(coil.segment_starts, coil.points[:-1])
    np.testing.assert_array_equal(coil.segment_ends, coil.points[1:])


def test_flat_spiral_is_planar():
    coil = build_filament_coil(TX, segments_per_turn=90)
    assert np.all(coil.points[:, 2] == 0.0)


def test_helical_sag_follows_the_sphere():
    spec = CoilSpec(turns=5, inner_radius=4e-3, wire_diameter=0.137e-3,
                    wire_spacing=0.5e-3, shape=HELICAL)
    coil = build_filament_coil(spec, segments_per_turn=180)
    r_max = float(turn_radii(spec)[-1])
    sag = DEFAULT_SPHERE_RADIUS - math.sqrt(DEFAULT_SPHERE_RADIUS**2 - r_max**2)
    assert float(coil.points[:, 2].min()) == pytest.approx(-sag, rel=1e-9)
    assert np.all(coil.points[:, 2] <= 0.0)


HELICAL_RX = CoilSpec(turns=5, inner_radius=4e-3, wire_diameter=0.137e-3,
                      wire_spacing=0.5e-3, shape=HELICAL)


@pytest.mark.parametrize("spec", [RX, HELICAL_RX], ids=["flat", "helical"])
def test_vertices_sample_the_winding_curve(spec):
    coil = build_filament_coil(spec, segments_per_turn=64)
    phi = np.linspace(0.0, 2.0 * math.pi * spec.turns, spec.turns * 64 + 1)
    points, _ = winding_curve(spec, phi)
    np.testing.assert_array_equal(coil.points, points)
    assert coil.spec is spec


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
    coil = build_filament_coil(HELICAL_RX, segments_per_turn=32)
    posed = apply_pose(apply_pose(coil, Pose(center=(0.01, -0.02, 0.03),
                                             tilt_angle_deg=35.0)),
                       Pose(center=(0.1, 0.0, 0.2), tilt_angle_deg=-70.0))
    phi = np.linspace(0.0, 2.0 * math.pi * HELICAL_RX.turns, 5 * 32 + 1)
    points, tangents = posed.curve(phi)
    np.testing.assert_allclose(points, posed.points, rtol=0, atol=1e-15)
    # rotation keeps tangent lengths
    _, local = winding_curve(HELICAL_RX, phi)
    np.testing.assert_allclose(np.linalg.norm(tangents, axis=1),
                               np.linalg.norm(local, axis=1), rtol=1e-14)


def test_refinement_halves_the_chord_error():
    # polyline length of an inscribed polygon converges ~ 1/n^2
    one = CoilSpec(turns=1, inner_radius=10e-3, wire_diameter=1e-4,
                   wire_spacing=0.0)
    exact = 2.0 * math.pi * 10e-3
    err = [abs(build_filament_coil(one, n).wire_length - exact)
           for n in (32, 64, 128)]
    assert err[0] / err[1] == pytest.approx(4.0, rel=0.05)
    assert err[1] / err[2] == pytest.approx(4.0, rel=0.05)


def test_too_coarse_discretization_is_rejected():
    with pytest.raises(ValueError, match="segments_per_turn"):
        build_filament_coil(RX, segments_per_turn=15)


def test_filament_arrays_are_frozen():
    coil = build_filament_coil(RX, segments_per_turn=32)
    with pytest.raises(ValueError):
        coil.points[0, 0] = 1.0


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
    np.testing.assert_allclose(twice.points, once.points, atol=1e-15)
    np.testing.assert_allclose(twice.axis, once.axis, atol=1e-15)


def test_pose_preserves_lengths_and_translates_centers():
    coil = build_filament_coil(RX, segments_per_turn=48)
    posed = apply_pose(coil, Pose(center=(0.1, -0.02, 0.3),
                                  tilt_angle_deg=37.0))
    assert posed.wire_length == coil.wire_length
    seg = np.linalg.norm(np.diff(posed.points, axis=0), axis=1)
    assert np.sum(seg) == pytest.approx(coil.wire_length, rel=1e-12, abs=0)
    rng = np.random.default_rng(7)
    for _ in range(5):
        tilt = float(rng.uniform(0, 180))
        center = tuple(rng.uniform(-0.2, 0.2, 3))
        p = apply_pose(coil, Pose(center=center, tilt_angle_deg=tilt))
        d = np.linalg.norm(p.points - np.asarray(center), axis=1)
        d0 = np.linalg.norm(coil.points, axis=1)
        np.testing.assert_allclose(d, d0, rtol=1e-12, atol=1e-15)


def test_rotation_matrix_is_proper():
    rng = np.random.default_rng(11)
    for tilt in rng.uniform(-180, 180, 8):
        rot = Pose(tilt_angle_deg=float(tilt)).rotation_matrix()
        np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-14)
        assert np.linalg.det(rot) == pytest.approx(1.0)


def test_scenario_poses_place_tx_at_origin_and_rx_at_the_eye():
    sc = Scenario(tx=TX, rx=RX, x_eye=92e-3, z_eye=150e-3, tx_angle_deg=40.0)
    tx_pose, rx_pose = scenario_poses(sc)
    assert tx_pose.center == (0.0, 0.0, 0.0)
    assert tx_pose.tilt_angle_deg == 40.0
    assert rx_pose.center == (92e-3, 0.0, 150e-3)
    assert rx_pose.tilt_angle_deg == 90.0


@pytest.mark.parametrize("kwargs, field", [
    (dict(x_eye=-1e-3), "x_eye"),
    (dict(z_eye=-1e-3), "z_eye"),
    (dict(tx_angle_deg=91.0), "tx_angle_deg"),
    (dict(tx_angle_deg=-1.0), "tx_angle_deg"),
    (dict(r_source=0.0), "r_source"),
    (dict(r_load=-5.0), "r_load"),
    (dict(tuned_frequency=0.0), "tuned_frequency"),
    (dict(v_source=0.0), "v_source"),
    (dict(l_tx_override=0.0), "l_tx_override"),
    (dict(l_rx_override=-1e-6), "l_rx_override"),
])
def test_scenario_rejects_bad_values_naming_the_field(kwargs, field):
    base = dict(tx=TX, rx=RX, x_eye=92e-3, z_eye=150e-3, tx_angle_deg=40.0)
    base.update(kwargs)
    with pytest.raises(ValueError, match=field):
        Scenario(**base)
