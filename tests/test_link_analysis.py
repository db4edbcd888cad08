"""Bandwidth, capacity, and parametric sweep layers."""

import math
import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqslink import circuit, link_analysis
from mqslink.circuit import (default_grid, frequency_sweep, received_power,
                             tune_capacitance)
from mqslink.field_coupling import mutual_inductance
from mqslink.geometry import (CoilSpec, Scenario, apply_pose,
                              build_filament_coil, scenario_poses)
from mqslink.link_analysis import (AXIAL, LATERAL, POWER, TX_ANGLE, VOLTAGE,
                                   BandwidthCapacityRow, BandwidthStudy,
                                   CapacityReport, DualModeReport,
                                   SweepResult, SweepRow,
                                   TruncatedBandError, capacity_report,
                                   capacity_vs_bandwidth, channel_capacity,
                                   dual_mode_report, impedance_sweep,
                                   misalignment_sweep, resistance_sweep,
                                   scenario_link, scenario_mutual_inductance,
                                   snr_db, three_db_bandwidth)
from mqslink.lumped import ac_resistance
from test_circuit import _random_links

RX = CoilSpec(turns=5, inner_radius=4e-3, wire_diameter=0.137e-3,
              wire_spacing=0.5e-3)
TX = CoilSpec(turns=5, inner_radius=60e-3, wire_diameter=0.137e-3,
              wire_spacing=0.5e-3)
NOMINAL = Scenario(tx=TX, rx=RX, x_eye=92e-3, z_eye=150e-3, tx_angle_deg=40.0,
                   l_tx_override=35e-6)

M_NOMINAL = 3.9074457990719537e-10

BW3_LOW = 25874525.733524043
BW3_HIGH = 26128515.657878127
BW3_WIDTH = 253989.92435408384
PEAK_DBV = -58.86457577086184
CAPACITY_NOMINAL = 1120219.2181389725


@pytest.fixture(scope="module")
def nominal_spectrum():
    link = scenario_link(NOMINAL, m=M_NOMINAL)
    return frequency_sweep(link, default_grid())


# -------------------------------------------------------------- bandwidth

def test_three_db_band_of_the_nominal_link(nominal_spectrum):
    f_low, f_high, width = three_db_bandwidth(nominal_spectrum)
    assert f_low == pytest.approx(BW3_LOW, rel=1e-12)
    assert f_high == pytest.approx(BW3_HIGH, rel=1e-12)
    assert width == pytest.approx(BW3_WIDTH, rel=1e-12)
    assert f_low < 26e6 < f_high


def test_band_running_off_the_grid_raises_with_partial_edges():
    link = scenario_link(NOMINAL, m=M_NOMINAL)
    # grid stops before the upper 3 dB crossing
    spectrum = frequency_sweep(link, np.linspace(25.5e6, 26.0e6, 201))
    with pytest.raises(TruncatedBandError) as err:
        three_db_bandwidth(spectrum)
    assert err.value.f_low == pytest.approx(BW3_LOW, rel=1e-6)
    assert err.value.f_high is None
    assert "high" in str(err.value)


def test_fully_truncated_band_reports_both_sides():
    link = scenario_link(NOMINAL, m=M_NOMINAL)
    spectrum = frequency_sweep(link, np.linspace(25.95e6, 26.05e6, 101))
    with pytest.raises(TruncatedBandError) as err:
        three_db_bandwidth(spectrum)
    assert err.value.f_low is None and err.value.f_high is None


# --------------------------------------------------------------- capacity

def test_snr_is_a_level_difference():
    assert snr_db(-55.0, -85.0) == 30.0


def test_channel_capacity_under_both_conventions():
    assert channel_capacity(1e6, 30.0) == \
        pytest.approx(5027807.6733505195, rel=1e-12)
    assert channel_capacity(1e6, 30.0, convention=POWER) == \
        pytest.approx(9967226.258835994, rel=1e-12)
    assert channel_capacity(1e6, 30.0) == \
        pytest.approx(1e6 * math.log2(1 + 10 ** 1.5), rel=1e-15)


def test_channel_capacity_validation():
    with pytest.raises(ValueError, match="bandwidth"):
        channel_capacity(0.0, 30.0)
    with pytest.raises(ValueError, match="convention"):
        channel_capacity(1e6, 30.0, convention="amplitude")


def test_capacity_report_of_the_nominal_link(nominal_spectrum):
    report = capacity_report(nominal_spectrum)
    assert report.signal_dbv == pytest.approx(PEAK_DBV, abs=1e-9)
    assert report.snr_db == pytest.approx(PEAK_DBV + 85.0, abs=1e-9)
    assert report.bandwidth_hz == pytest.approx(BW3_WIDTH, rel=1e-12)
    assert report.capacity_bps == pytest.approx(CAPACITY_NOMINAL, rel=1e-9)
    assert report.convention == VOLTAGE


def test_source_level_shifts_the_budget(nominal_spectrum):
    base = capacity_report(nominal_spectrum)
    hot = capacity_report(nominal_spectrum, source_level_dbv=20.0)
    assert hot.signal_dbv == pytest.approx(base.signal_dbv + 20.0)
    assert hot.snr_db == pytest.approx(base.snr_db + 20.0)
    assert hot.capacity_bps > base.capacity_bps


def test_capacity_report_rejects_inconsistent_fields():
    with pytest.raises(ValueError, match="snr_db"):
        CapacityReport(bandwidth_hz=1e6, signal_dbv=-55.0,
                       noise_floor_dbv=-85.0, snr_db=25.0,
                       capacity_bps=5027807.6733505195)
    with pytest.raises(ValueError, match="capacity_bps"):
        CapacityReport(bandwidth_hz=1e6, signal_dbv=-55.0,
                       noise_floor_dbv=-85.0, snr_db=30.0,
                       capacity_bps=4e6)


def test_threshold_study_masks_offgrid_rows_and_ranks_the_rest(nominal_spectrum):
    study = capacity_vs_bandwidth(nominal_spectrum)
    assert [r.threshold_db for r in study.rows] == [float(t) for t in range(1, 31)]
    masked = [r.threshold_db for r in study.rows if r.masked]
    assert masked == [29.0, 30.0]
    live = [r for r in study.rows if not r.masked]
    widths = [r.bandwidth_hz for r in live]
    assert all(b > a for a, b in zip(widths, widths[1:]))
    assert study.best.threshold_db == 28.0
    t3 = next(r for r in study.rows if r.threshold_db == 3.0)
    t12 = next(r for r in study.rows if r.threshold_db == 12.0)
    assert t3.capacity_bps == pytest.approx(1000699.0097581774, rel=1e-9)
    assert t12.capacity_bps == pytest.approx(2559445.899513709, rel=1e-9)
    assert t12.capacity_bps > t3.capacity_bps


def test_threshold_study_best_is_none_when_everything_is_masked():
    row = BandwidthCapacityRow(1.0, None, None, None, None, None)
    assert BandwidthStudy(rows=(row,)).best is None


# ---------------------------------------------------------- scenario link

def test_scenario_link_wires_the_lumped_pieces():
    link = scenario_link(NOMINAL, m=M_NOMINAL)
    assert link.l_tx == 35e-6                       # measured override wins
    assert link.l_rx == pytest.approx(3.816942603467716e-07, rel=1e-12, abs=0)
    assert link.m == M_NOMINAL
    assert link.r_source == 50.0 and link.r_load == 1e3
    assert link.c_tx == pytest.approx(tune_capacitance(35e-6, 26e6), rel=1e-15, abs=0)
    assert link.c_rx == pytest.approx(link.l_tx * link.c_tx / link.l_rx,
                                      rel=1e-15, abs=0)
    assert link.esr_tx == TX and link.esr_rx == RX
    assert link.coil_resistance_tx(26e6) == pytest.approx(ac_resistance(TX, 26e6),
                                                          rel=1e-15, abs=0)
    assert link.coil_resistance_rx(13e6) == pytest.approx(ac_resistance(RX, 13e6),
                                                          rel=1e-15, abs=0)


def test_scenario_link_is_a_hashable_picklable_value():
    link = scenario_link(NOMINAL, m=M_NOMINAL)
    assert link == scenario_link(NOMINAL, m=M_NOMINAL)
    assert hash(link) == hash(scenario_link(NOMINAL, m=M_NOMINAL))
    restored = pickle.loads(pickle.dumps(link))
    assert restored == link and hash(restored) == hash(link)
    grid = np.linspace(25e6, 27e6, 101)
    assert frequency_sweep(restored, grid).h.tolist() == \
        frequency_sweep(link, grid).h.tolist()


def test_untuned_scenario_link_has_no_capacitors():
    link = scenario_link(NOMINAL, m=M_NOMINAL, tuned=False)
    assert link.c_tx is None and link.c_rx is None


def test_scenario_mutual_inductance_matches_direct_composition():
    tx_pose, rx_pose = scenario_poses(NOMINAL)
    tx = apply_pose(build_filament_coil(TX, 120), tx_pose)
    rx = apply_pose(build_filament_coil(RX, 120), rx_pose)
    direct = mutual_inductance(tx, rx, method="spectral", tolerance=1e-3).m
    assert scenario_mutual_inductance(NOMINAL, segments_per_turn=120) == direct


# --------------------------------------------------------------- sweeps

def test_misalignment_sweep_validation():
    with pytest.raises(ValueError, match="axis"):
        misalignment_sweep(NOMINAL, "roll", [10.0])
    with pytest.raises(ValueError, match="non-empty"):
        misalignment_sweep(NOMINAL, TX_ANGLE, [])
    with pytest.raises(ValueError, match="within"):
        misalignment_sweep(NOMINAL, TX_ANGLE, [95.0])
    with pytest.raises(ValueError, match="within"):
        misalignment_sweep(NOMINAL, AXIAL, [0.010])


def test_angle_sweep_rows_are_ordered_and_live():
    grid = np.linspace(25e6, 27e6, 201)
    sweep = misalignment_sweep(NOMINAL, TX_ANGLE, [60.0, 20.0, 40.0],
                               segments_per_turn=96, grid=grid)
    assert sweep.param == TX_ANGLE and sweep.unit == "deg"
    assert sweep.values == (20.0, 40.0, 60.0)
    assert not any(r.masked for r in sweep.rows)
    for row in sweep.rows:
        assert row.peak_db < 0
        assert row.p_rx_w > 0
        assert 25e6 <= row.peak_freq_hz <= 27e6


def test_unreachable_tolerance_masks_points_instead_of_failing():
    grid = np.linspace(25e6, 27e6, 51)
    sweep = misalignment_sweep(NOMINAL, TX_ANGLE, [30.0, 50.0],
                               segments_per_turn=24, tolerance=1e-15,
                               grid=grid)
    assert all(r.masked for r in sweep.rows)
    assert all(r.capacity_bps is None for r in sweep.rows)
    assert len(sweep.notes) == 2
    assert all("masked" in n for n in sweep.notes)


def test_on_axis_placement_is_flagged():
    grid = np.linspace(25e6, 27e6, 51)
    sweep = misalignment_sweep(NOMINAL, LATERAL, [0.0, 0.092],
                               segments_per_turn=48, grid=grid)
    assert any("transmitter axis" in n for n in sweep.notes)


def test_source_resistance_loads_the_resonator():
    link = scenario_link(NOMINAL, m=M_NOMINAL)
    sweep = resistance_sweep(link, "r_source", [10.0, 50.0, 200.0, 1e3])
    peaks = [r.peak_db for r in sweep.rows]
    assert all(b < a for a, b in zip(peaks, peaks[1:]))
    assert sweep.param == "r_source" and sweep.unit == "ohm"


def test_received_voltage_saturates_with_load():
    link = scenario_link(NOMINAL, m=M_NOMINAL)
    sweep = resistance_sweep(link, "r_load", [100.0, 1e3, 1e4])
    peaks = [r.peak_db for r in sweep.rows]
    assert all(b > a for a, b in zip(peaks, peaks[1:]))
    # near saturation the step from 1k to 10k is small
    assert peaks[2] - peaks[1] < peaks[1] - peaks[0]


def test_resistance_sweep_validation():
    link = scenario_link(NOMINAL, m=M_NOMINAL)
    with pytest.raises(ValueError, match="field"):
        resistance_sweep(link, "r_coil_tx", [10.0])
    with pytest.raises(ValueError, match="non-empty"):
        resistance_sweep(link, "r_load", [])
    with pytest.raises(ValueError, match="> 0"):
        resistance_sweep(link, "r_load", [0.0, 10.0])


def test_impedance_sweep_bundles_both_sides():
    link = scenario_link(NOMINAL, m=M_NOMINAL)
    grid = np.linspace(25e6, 27e6, 101)
    src, load = impedance_sweep(link, [25.0, 100.0], [500.0, 2e3], grid=grid)
    assert src.param == "r_source" and load.param == "r_load"
    assert src.values == (25.0, 100.0)
    assert load.values == (500.0, 2000.0)


def test_sweep_result_requires_ordered_rows():
    row = SweepRow(2.0, -60.0, 26e6, 1e5, 1e6, 1e-9)
    with pytest.raises(ValueError, match="increasing"):
        SweepResult(param="r_load", unit="ohm",
                    rows=(row, replace(row, value=1.0)))
    assert SweepRow(1.0, None, None, None, None, None).masked
    assert not row.masked


# -------------------------------------------------------------- dual mode

def test_dual_mode_loads_split_as_designed():
    link = scenario_link(NOMINAL, m=M_NOMINAL)
    grid = np.linspace(25.5e6, 26.5e6, 201)
    report = dual_mode_report(link, grid=grid)
    assert report.comm_mode_r_load > report.power_mode_r_load
    assert report.p_rx_power_mode >= report.p_rx_comm_mode
    assert report.v_rx_comm_mode > report.v_rx_power_mode
    assert report.v_rx_comm_mode > 0.9 * report.v_rx_power_mode


def test_dual_mode_warns_when_the_loads_stop_short_of_saturation():
    link = scenario_link(NOMINAL, m=M_NOMINAL)
    with pytest.warns(UserWarning, match="still rises .* over 1-10 ohm"):
        dual_mode_report(link, r_load_grid=np.geomspace(0.1, 10.0, 31))
    # under a decade, the rise is judged over the whole scan
    with pytest.warns(UserWarning, match="over 2-10 ohm"):
        dual_mode_report(link, r_load_grid=np.geomspace(2.0, 10.0, 9))


def test_dual_mode_default_loads_saturate_without_warning():
    link = scenario_link(NOMINAL, m=M_NOMINAL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dual_mode_report(link)


def test_dual_mode_rejects_bad_load_grids():
    link = scenario_link(NOMINAL, m=M_NOMINAL)
    with pytest.raises(ValueError, match="r_load grid"):
        dual_mode_report(link, r_load_grid=[10.0, 5.0])
    with pytest.raises(ValueError, match="r_load grid"):
        dual_mode_report(link, r_load_grid=[0.0, 5.0])


# ------------------------------------------------- per-load reference scans
# The scans once re-solved the whole spectrum per load; these copies of
# that loop are the reference the row-block scans must equal exactly.

def _per_load_sweep(link, field, values, grid, convention):
    rows = []
    for v in sorted(float(v) for v in values):
        varied = replace(link, **{field: v})
        spectrum = frequency_sweep(varied, grid)
        mags = np.abs(spectrum.h)
        pk = int(np.argmax(mags))
        v_peak = float(mags[pk]) * link.v_source
        if v_peak == 0.0:
            rows.append(SweepRow(v, None, None, None, None, None))
            continue
        peak_db = 20.0 * math.log10(v_peak)
        try:
            _, _, bw = three_db_bandwidth(spectrum)
            cap = channel_capacity(bw, snr_db(peak_db, -85.0), convention)
        except TruncatedBandError:
            bw = cap = None
        rows.append(SweepRow(v, peak_db, float(spectrum.frequencies[pk]), bw, cap,
                             received_power(v_peak, varied.r_load)))
    return tuple(rows)


def _per_load_dual_mode(link, loads, grid):
    v_rx = np.empty(len(loads))
    p_rx = np.empty(len(loads))
    for i, r in enumerate(loads):
        spectrum = frequency_sweep(replace(link, r_load=float(r)), grid)
        v = float(np.max(np.abs(spectrum.h))) * link.v_source
        v_rx[i] = v
        p_rx[i] = received_power(v, float(r))
    i_power = int(np.argmax(p_rx))
    v_sat = v_rx[-1]
    i_top = int(np.searchsorted(loads, loads[-1] / 10.0))
    if v_sat > 1.01 * v_rx[i_top]:
        warnings.warn(f"received voltage still rises {v_sat / v_rx[i_top] - 1.0:.1%} over "
                      f"{loads[i_top]:g}-{loads[-1]:g} ohm; comm mode assumes saturation")
    i_comm = int(np.nonzero(v_rx >= 0.95 * v_sat)[0][0])
    return DualModeReport(float(loads[i_power]), float(loads[i_comm]),
                          float(p_rx[i_power]), float(p_rx[i_comm]),
                          float(v_rx[i_power]), float(v_rx[i_comm]))


@st.composite
def _scans(draw):
    """A random link, a grid around its f0, sorted loads and a convention.

    The link comes from the power-balance strategy: tuned or untuned,
    spec or fixed ESR, with or without parasitics. On the larger grids
    the load count is 1, block - 1, block or block + 1 for the rows the
    scans solve per block on that grid. A one-point grid is left out:
    there numpy runs the broadcast along the rows, through other SIMD
    loops than the per-load solve, and a row may differ from it in the
    last bit.
    """
    link, f = draw(_random_links(parasitics=True))
    points = draw(st.sampled_from([2, 7, 201, 1001, 4097]))
    block = max(1, link_analysis._SCAN_ELEMENTS // points)
    edges = sorted({1, block - 1, block, block + 1} - {0})
    count = draw(st.sampled_from(edges) if block <= 20 else st.integers(1, 3))
    lo = 10 ** draw(st.floats(-2, 2))
    values = np.geomspace(lo, lo * 10 ** draw(st.floats(1, 4)), count)
    return (link, np.linspace(f[0], f[-1], points), values,
            draw(st.sampled_from([VOLTAGE, POWER])))


@settings(max_examples=200, deadline=None)
@given(_scans())
def test_row_block_scans_equal_the_per_load_loop(drawn):
    link, grid, values, convention = drawn
    for field in ("r_source", "r_load"):
        sweep = resistance_sweep(link, field, values, grid, convention=convention)
        assert sweep.rows == _per_load_sweep(link, field, values, grid, convention)
    loads = values if len(values) > 1 else np.array([values[0], 2.0 * values[0]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = dual_mode_report(link, r_load_grid=loads, grid=grid)
    with warnings.catch_warnings(record=True) as expected:
        warnings.simplefilter("always")
        reference = _per_load_dual_mode(link, loads, grid)
    assert report == reference
    assert [str(w.message) for w in caught] == [str(w.message) for w in expected]


def test_load_scans_solve_in_bounded_blocks_without_frequency_sweep(monkeypatch):
    sizes = []

    def counting_solve(link, f, **terminations):
        h, input_current = circuit._mesh_solve(link, f, **terminations)
        sizes.append(h.size)
        return h, input_current

    def forbidden(*args, **kwargs):
        raise AssertionError("a load scan called frequency_sweep")

    monkeypatch.setattr(link_analysis, "_mesh_solve", counting_solve)
    monkeypatch.setattr(link_analysis, "frequency_sweep", forbidden)
    link = scenario_link(NOMINAL, m=M_NOMINAL)
    grid = default_grid()
    dual_mode_report(link, r_load_grid=np.geomspace(0.1, 1e4, 451), grid=grid)
    assert sum(sizes) == 451 * len(grid)
    for field in ("r_source", "r_load"):
        resistance_sweep(link, field, np.geomspace(1.0, 1e4, 224), grid)
    assert sum(sizes) == (451 + 2 * 224) * len(grid)
    assert max(sizes) <= link_analysis._SCAN_ELEMENTS


def test_load_scans_keep_the_spectrum_checks(monkeypatch):
    link = scenario_link(NOMINAL, m=M_NOMINAL)
    with pytest.raises(ValueError, match="increasing"):
        resistance_sweep(link, "r_load", [1.0], grid=[26e6, 25e6])
    with pytest.raises(ValueError, match="increasing"):
        dual_mode_report(link, r_load_grid=[1.0, 2.0], grid=[26e6, 26e6])

    def non_finite(link, f, **terminations):
        h, input_current = circuit._mesh_solve(link, f, **terminations)
        h[-1, 0] = np.nan
        return h, input_current

    monkeypatch.setattr(link_analysis, "_mesh_solve", non_finite)
    with pytest.raises(ValueError, match="finite"):
        resistance_sweep(link, "r_source", [10.0, 20.0])
    with pytest.raises(ValueError, match="finite"):
        dual_mode_report(link)


def test_dual_mode_finds_the_closed_form_optimum_load():
    # at the tuned f0 without parasitics both meshes are resistive, so
    # V_rx = wM V R/((R_s+R_1)(R_2+R) + (wM)^2) = V_lim R/(R + R*), with
    # V_lim = wM V/(R_s+R_1) and R* = R_2 + (wM)^2/(R_s+R_1) the load of
    # maximum V_rx^2/R (Zargham & Gulak, IEEE TBioCAS 6(3), 2012)
    link = scenario_link(NOMINAL, m=M_NOMINAL)
    assert link.parasitic_tx is None and link.parasitic_rx is None
    f0 = NOMINAL.tuned_frequency
    wm = 2.0 * math.pi * f0 * M_NOMINAL
    r_total = link.r_source + ac_resistance(TX, f0)
    r_star = ac_resistance(RX, f0) + wm * wm / r_total
    v_lim = wm * link.v_source / r_total
    assert r_star == pytest.approx(0.54312, abs=5e-6)
    assert 20.0 * math.log10(v_lim) == pytest.approx(PEAK_DBV, abs=5e-3)

    loads = np.geomspace(0.01, 1e4, 2001)
    step = loads[1] / loads[0]
    report = dual_mode_report(link, r_load_grid=loads, grid=[f0])
    # power mode: V_rx^2/R = V_lim^2 u/(R*(1+u)^2) with u = R/R* is
    # symmetric in log u, so the grid picks the load nearest R* in log
    # distance, and there V_rx is V_lim/2 to within a grid step
    nearest = loads[np.argmin(np.abs(np.log(loads / r_star)))]
    assert r_star / step < nearest < r_star * step
    assert report.power_mode_r_load == nearest
    assert v_lim / 2 / step < report.v_rx_power_mode < v_lim / 2 * step
    # comm mode: the first load at or past the 95% crossing of V_rx(R_max)
    v_sat = v_lim * loads[-1] / (loads[-1] + r_star)
    assert v_lim * (1.0 - r_star / loads[-1]) < v_sat < v_lim
    c = 0.95 * v_sat
    r_comm = c * r_star / (v_lim - c)
    assert r_comm <= report.comm_mode_r_load < r_comm * step
    assert c <= report.v_rx_comm_mode < c * step
