"""Lumped coil parameters: inductance formulas and skin effect."""

import math
from dataclasses import replace

import numpy as np
import pytest

from mqslink.constants import COPPER_CONDUCTIVITY, MU0
from mqslink.geometry import HELICAL, CoilSpec
from mqslink.lumped import (CURRENT_SHEET, LOW_CONFIDENCE, TRUSTED,
                            USER_SUPPLIED, ac_resistance,
                            current_sheet_inductance, estimate_inductance,
                            skin_depth, wheeler_inductance, wheeler_validity)
from nominal import L_RX, L_TX, RX, TX

# pytest.approx adds an absolute tolerance of 1e-12 unless given one,
# which would swamp any relative tolerance on microhenries or on skin
# depths of ~1e-5 m; every approx in this file passes abs=0

# frozen reference values for the two build coils
WHEELER_RX = 3.8587851286822313e-07
SHEET_RX = L_RX
SHEET_TX = 8.814884391012745e-06
SKIN_26MHZ = 1.2960431495631124e-05
R_RX_26MHZ = 0.5430476906598128
R_TX_26MHZ = 5.98080731103523


def test_wheeler_rx_value_frozen():
    assert wheeler_inductance(RX) == pytest.approx(WHEELER_RX, rel=1e-12, abs=0)


def test_current_sheet_values_frozen():
    assert current_sheet_inductance(RX) == pytest.approx(SHEET_RX, rel=1e-12, abs=0)
    assert current_sheet_inductance(TX) == pytest.approx(SHEET_TX, rel=1e-12, abs=0)


def test_the_two_formulas_agree_on_the_small_coil():
    # independent fits to the same physics; ~1% apart on a well-filled spiral
    assert wheeler_inductance(RX) == pytest.approx(SHEET_RX, rel=0.05, abs=0)


def test_wheeler_hand_computed_single_turn():
    # N=1, r_i=10mm, d=1mm, s=0: D_o=22mm, N*p=1mm
    spec = CoilSpec(turns=1, inner_radius=10e-3, wire_diameter=1e-3,
                    wire_spacing=0.0)
    d_o = 22e-3
    np_ = 1e-3
    expected = 1 * (d_o - np_) ** 2 / (16 * d_o + 28 * np_) * 39.37e-6
    assert wheeler_inductance(spec) == pytest.approx(expected, rel=1e-12, abs=0)


def test_current_sheet_hand_computed():
    spec = CoilSpec(turns=4, inner_radius=5e-3, wire_diameter=0.2e-3,
                    wire_spacing=0.3e-3)
    d_i = spec.inner_diameter
    d_o = spec.outer_diameter
    gamma = (d_o - d_i) / (d_o + d_i)
    d_avg = (d_o + d_i) / 2.0
    expected = MU0 * 16 * d_avg / 2.0 * (math.log(2.46 / gamma)
                                         + 0.2 * gamma**2)
    assert current_sheet_inductance(spec) == pytest.approx(expected, rel=1e-12, abs=0)


def test_inductance_scales_as_turns_squared():
    # same conductor band (n*pitch fixed), so the geometry factor is
    # unchanged and L must scale exactly as N^2
    vals = []
    for n in (4, 8, 16):
        spec = CoilSpec(turns=n, inner_radius=20e-3, wire_diameter=0.1e-3,
                        wire_spacing=20e-3 / n - 0.1e-3)
        vals.append(current_sheet_inductance(spec) / n**2)
    assert vals[0] == pytest.approx(vals[1], rel=1e-9, abs=0)
    assert vals[1] == pytest.approx(vals[2], rel=1e-9, abs=0)


def test_current_sheet_rejects_a_coil_without_width():
    # a config can reach this: one turn of vanishing wire, no spacing
    with pytest.raises(ValueError,
                       match="^outer diameter 0.008 must exceed inner diameter 0.008$"):
        current_sheet_inductance(CoilSpec(1, 4e-3, 1e-30, 0.0))


def test_wheeler_rejects_helical_shapes():
    spec = CoilSpec(turns=5, inner_radius=4e-3, wire_diameter=0.137e-3,
                    wire_spacing=0.5e-3, shape=HELICAL)
    with pytest.raises(ValueError, match="flat"):
        wheeler_inductance(spec)


def test_validity_flags_on_the_build_coils():
    assert wheeler_validity(RX) == TRUSTED
    # wide shallow spiral: winding depth is ~5% of the outer radius
    assert wheeler_validity(TX) == LOW_CONFIDENCE


def test_validity_flags_low_turn_counts_and_fat_wire():
    thin = CoilSpec(turns=2, inner_radius=10e-3, wire_diameter=0.2e-3,
                    wire_spacing=5e-3)
    assert wheeler_validity(thin) == LOW_CONFIDENCE
    fat = CoilSpec(turns=8, inner_radius=2e-3, wire_diameter=2e-3,
                   wire_spacing=0.1e-3)
    assert wheeler_validity(fat) == LOW_CONFIDENCE


def test_estimate_prefers_a_supplied_measurement():
    est = estimate_inductance(replace(TX, inductance_override=L_TX))
    assert est.value == L_TX
    assert est.source == USER_SUPPLIED
    assert est.validity_flag == TRUSTED


def test_estimate_falls_back_to_current_sheet_with_flag():
    est = estimate_inductance(TX)
    assert est.value == pytest.approx(SHEET_TX, rel=1e-12, abs=0)
    assert est.source == CURRENT_SHEET
    assert est.validity_flag == LOW_CONFIDENCE
    assert estimate_inductance(RX).validity_flag == TRUSTED


def test_skin_depth_frozen_and_scaling():
    assert skin_depth(26e6, COPPER_CONDUCTIVITY) == pytest.approx(
        SKIN_26MHZ, rel=1e-12, abs=0)
    # delta ~ 1/sqrt(f)
    assert skin_depth(26e6 / 4, COPPER_CONDUCTIVITY) == pytest.approx(
        2 * SKIN_26MHZ, rel=1e-12, abs=0)
    assert skin_depth(1e6, COPPER_CONDUCTIVITY) == pytest.approx(
        1.0 / math.sqrt(math.pi * 1e6 * COPPER_CONDUCTIVITY * MU0), rel=1e-15, abs=0)


def test_skin_depth_rejects_nonpositive_inputs():
    with pytest.raises(ValueError):
        skin_depth(0.0, COPPER_CONDUCTIVITY)
    with pytest.raises(ValueError):
        skin_depth(26e6, 0.0)


def test_ac_resistance_frozen_values():
    assert ac_resistance(RX, 26e6) == pytest.approx(R_RX_26MHZ, rel=1e-12, abs=0)
    assert ac_resistance(TX, 26e6) == pytest.approx(R_TX_26MHZ, rel=1e-12, abs=0)


def test_ac_resistance_grows_as_sqrt_frequency():
    rng = np.random.default_rng(3)
    for _ in range(10):
        f = float(rng.uniform(1e6, 50e6))
        ratio = ac_resistance(RX, 4 * f) / ac_resistance(RX, f)
        assert ratio == pytest.approx(2.0, rel=1e-12, abs=0)


def test_ac_resistance_uses_the_same_skin_depth_kernel():
    # the prefactor is 1/(sigma*delta) with the very same skin_depth value
    f = 13.56e6
    delta = skin_depth(f, RX.conductivity)
    run = RX.turns * (RX.outer_diameter - RX.turns * RX.pitch)
    expected = run / (RX.conductivity * delta * RX.wire_diameter)
    assert ac_resistance(RX, f) == pytest.approx(expected, rel=1e-14, abs=0)


def test_array_frequencies_match_scalar_calls_bit_for_bit():
    f = np.concatenate([np.linspace(20e6, 30e6, 1001),
                        np.random.default_rng(5).uniform(1e3, 1e9, 200)])
    delta = skin_depth(f, COPPER_CONDUCTIVITY)
    assert delta.shape == f.shape
    assert delta.tolist() == [skin_depth(x, COPPER_CONDUCTIVITY) for x in f.tolist()]
    # the scalar path keeps the math.sqrt kernel's values and type
    assert [skin_depth(x, COPPER_CONDUCTIVITY) for x in f.tolist()] == \
        [1.0 / math.sqrt(math.pi * x * COPPER_CONDUCTIVITY * MU0) for x in f.tolist()]
    assert type(skin_depth(26e6, COPPER_CONDUCTIVITY)) is float
    for spec in (RX, TX):
        r = ac_resistance(spec, f)
        assert r.tolist() == [ac_resistance(spec, x) for x in f.tolist()]
        assert type(ac_resistance(spec, 26e6)) is float
    grid = ac_resistance(RX, f[:1200].reshape(12, 100))
    assert grid.shape == (12, 100)
    assert grid.ravel().tolist() == ac_resistance(RX, f[:1200]).tolist()


def test_array_frequencies_with_a_nonpositive_element_raise():
    grid = np.array([0.0, 1e6, 2e6])
    with pytest.raises(ValueError, match="frequency"):
        skin_depth(grid, COPPER_CONDUCTIVITY)
    with pytest.raises(ValueError, match="frequency"):
        ac_resistance(RX, grid)
    with pytest.raises(ValueError, match="frequency"):
        ac_resistance(RX, np.array([1e6, -2e6]))
