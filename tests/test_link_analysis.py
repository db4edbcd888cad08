"""Bandwidth, capacity, and parametric sweep layers."""

import math
import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mqslink import circuit, field_coupling, link_analysis
from mqslink.circuit import (LinkCircuit, Spectrum, frequency_sweep,
                             path_loss_db, received_power,
                             receiver_capacitance, tune_capacitance)
from mqslink.field_coupling import mutual_inductance
from mqslink.geometry import (AXIAL, LATERAL, TX_ANGLE, apply_pose, build_filament_coil,
                              scenario_poses)
from mqslink.link_analysis import (POWER, VOLTAGE,
                                   BandwidthCapacityRow, CapacityReport,
                                   DualModeReport,
                                   SweepResult, SweepRow,
                                   TruncatedBandError, capacity_report,
                                   capacity_vs_bandwidth, channel_capacity,
                                   dual_mode_report, misalignment_sweep,
                                   resistance_sweep,
                                   scenario_link, scenario_mutual_inductance,
                                   snr_db)
from mqslink.lumped import ac_resistance, current_sheet_inductance
from nominal import (BUDGET, DUAL_MODE_LOADS, GRID, L_RX, L_TX, M_NOMINAL,
                     NOISE_FLOOR_DBV, NOMINAL, PEAK_DB, RX, TX)
from test_circuit import _random_links

BW3_LOW = 25874525.733524043
BW3_HIGH = 26128515.657878127
BW3_WIDTH = 253989.92435408384
CAPACITY_NOMINAL = 1120219.2181389725


@pytest.fixture(scope="module")
def nominal_spectrum():
    link = scenario_link(NOMINAL, m=M_NOMINAL)
    return frequency_sweep(link, GRID)


# -------------------------------------------------------------- bandwidth

def test_three_db_band_of_the_nominal_link(nominal_spectrum):
    row = capacity_vs_bandwidth(nominal_spectrum, **BUDGET)[2]
    assert row.threshold_db == 3.0
    f_low, f_high, width = row.f_low_hz, row.f_high_hz, row.bandwidth_hz
    assert f_low == pytest.approx(BW3_LOW, rel=1e-12)
    assert f_high == pytest.approx(BW3_HIGH, rel=1e-12)
    assert width == pytest.approx(BW3_WIDTH, rel=1e-12)
    assert f_low < 26e6 < f_high


def test_band_running_off_the_grid_raises_with_partial_edges():
    link = scenario_link(NOMINAL, m=M_NOMINAL)
    # grid stops before the upper 3 dB crossing
    spectrum = frequency_sweep(link, np.linspace(25.5e6, 26.0e6, 201))
    with pytest.raises(TruncatedBandError, match="on the high side"):
        capacity_report(spectrum, **BUDGET)


def test_fully_truncated_band_reports_both_sides():
    link = scenario_link(NOMINAL, m=M_NOMINAL)
    spectrum = frequency_sweep(link, np.linspace(25.95e6, 26.05e6, 101))
    with pytest.raises(TruncatedBandError, match="on the low and high side"):
        capacity_report(spectrum, **BUDGET)


@pytest.mark.parametrize("h, zero_side", [([0.1, 0.0, 1.0, 0.9, 0.1], "low"),
                                          ([0.1, 0.9, 1.0, 0.0, 0.1], "high")])
def test_a_band_edge_next_to_a_zero_of_h_is_the_sample_above(h, zero_side):
    # linear interpolation in dB toward a -inf dB sample tends to the
    # sample at or above the threshold; the other edge keeps its bits
    freqs = np.array([1e6, 2e6, 3e6, 4e6, 5e6])
    spectrum = Spectrum(frequencies=freqs, h=np.array(h), z11=np.ones(5))
    mag = path_loss_db(np.array(h))
    i = 3 if zero_side == "low" else 0      # the other edge lies in [i, i + 1]
    t = (-3.0 - mag[i]) / (mag[i + 1] - mag[i])
    other = freqs[i] + t * (freqs[i + 1] - freqs[i])
    f_low, f_high = (3e6, other) if zero_side == "low" else (other, 3e6)
    row = capacity_vs_bandwidth(spectrum, **BUDGET)[2]
    assert (row.f_low_hz, row.f_high_hz) == (f_low, f_high)
    assert capacity_report(spectrum, **BUDGET).bandwidth_hz == row.bandwidth_hz == f_high - f_low
    assert row.bandwidth_hz == pytest.approx(1109241.108, abs=1e-3)


def test_a_band_between_two_zeros_of_h_is_masked_and_named():
    # both edges of a lone sample between zeros of h fall on it: thresholds
    # 1..26 dB give bands of zero width, masked like a cut band in the
    # threshold study and the sweep rows; from 27 dB the band reaches the
    # -26.02 dB samples and is live
    freqs = np.arange(1.0, 8.0) * 1e6
    h = np.array([0.01, 0.05, 0.0, 1.0, 0.0, 0.05, 0.01])
    spectrum = Spectrum(frequencies=freqs, h=h, z11=np.ones(7))
    study = capacity_vs_bandwidth(spectrum, **BUDGET)
    assert [row.masked for row in study] == [True] * 26 + [False] * 4
    assert all(row.f_low_hz < 2e6 and row.f_high_hz > 6e6 for row in study[26:])
    with pytest.raises(ValueError, match=r"^3 dB band has zero width: both edges at 4000000\.0 Hz$"):
        capacity_report(spectrum, **BUDGET)
    (row,) = link_analysis._sweep_rows([1.0], [link_analysis._row_summaries(freqs, h[None])],
                                       1.0, 50.0, -85.0, VOLTAGE)     # h is its own |h|
    assert (row.peak_db, row.peak_freq_hz, row.bw3db_hz, row.capacity_bps) == \
        (0.0, 4e6, None, None)


# --------------------------------------------------------------- capacity

def test_snr_is_a_level_difference():
    assert snr_db(-55.0, -85.0) == 30.0


def test_channel_capacity_under_both_conventions():
    assert channel_capacity(1e6, 30.0, VOLTAGE) == \
        pytest.approx(5027807.6733505195, rel=1e-12)
    assert channel_capacity(1e6, 30.0, convention=POWER) == \
        pytest.approx(9967226.258835994, rel=1e-12)
    assert channel_capacity(1e6, 30.0, VOLTAGE) == \
        pytest.approx(1e6 * math.log2(1 + 10 ** 1.5), rel=1e-15)


def test_channel_capacity_validation():
    for bw in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="bandwidth"):
            channel_capacity(bw, 30.0, VOLTAGE)
    with pytest.raises(ValueError, match="convention"):
        channel_capacity(1e6, 30.0, convention="amplitude")
    for snr in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^snr_db must be finite, got {snr!r}$"):
            channel_capacity(1e6, snr, VOLTAGE)


def test_capacity_report_of_the_nominal_link(nominal_spectrum):
    report = capacity_report(nominal_spectrum, **BUDGET)
    assert report.signal_dbv == pytest.approx(PEAK_DB, abs=1e-9)
    assert report.snr_db == pytest.approx(PEAK_DB + 85.0, abs=1e-9)
    assert report.bandwidth_hz == pytest.approx(BW3_WIDTH, rel=1e-12)
    assert report.capacity_bps == pytest.approx(CAPACITY_NOMINAL, rel=1e-9)
    assert report.convention == VOLTAGE


def test_source_level_shifts_the_budget(nominal_spectrum):
    base = capacity_report(nominal_spectrum, **BUDGET)
    hot = capacity_report(replace(nominal_spectrum, v_source=10.0), **BUDGET)
    assert hot.signal_dbv == pytest.approx(base.signal_dbv + 20.0)
    assert hot.snr_db == pytest.approx(base.snr_db + 20.0)
    assert hot.capacity_bps > base.capacity_bps


def test_capacity_report_derives_its_snr_and_capacity():
    for signal, convention in ((-55.0, VOLTAGE), (-55.0, POWER), (-485.0, VOLTAGE)):
        report = CapacityReport(1e6, signal, NOISE_FLOOR_DBV, convention)
        snr = snr_db(signal, NOISE_FLOOR_DBV)
        assert (report.snr_db, report.capacity_bps) == \
            (snr, channel_capacity(1e6, snr, convention))
    for derived in ("snr_db", "capacity_bps"):
        with pytest.raises(TypeError, match=derived):
            CapacityReport(bandwidth_hz=1e6, signal_dbv=-55.0, noise_floor_dbv=-85.0,
                           convention=VOLTAGE, **{derived: 30.0})
    with pytest.raises(ValueError, match="^bandwidth_hz must be > 0, got 0.0$"):
        CapacityReport(bandwidth_hz=0.0, signal_dbv=-55.0, noise_floor_dbv=-85.0,
                       convention=VOLTAGE)


_VALUES = {
    CapacityReport: dict(bandwidth_hz=1e6, signal_dbv=-55.0, noise_floor_dbv=-85.0,
                         convention=VOLTAGE),
    BandwidthCapacityRow: dict(threshold_db=3.0, f_low_hz=25.9e6, f_high_hz=26.1e6,
                               bandwidth_hz=2e5, signal_dbv=-60.0, capacity_bps=1e6),
    SweepRow: dict(value=1.0, peak_db=-60.0, peak_freq_hz=26e6, bw3db_hz=2e5,
                   capacity_bps=1e6, p_rx_w=1e-9),
    DualModeReport: dict(power_mode_r_load_ohm=10.0, comm_mode_r_load_ohm=1e3,
                         p_rx_power_mode_w=1e-6, p_rx_comm_mode_w=1e-7,
                         v_rx_power_mode_v=1e-3, v_rx_comm_mode_v=1e-2),
}


@pytest.mark.parametrize("cls, name, bad", [
    (cls, name, bad) for cls, values in _VALUES.items() for name in values
    if name != "convention"
    for bad in (math.nan, math.inf, -math.inf)])
def test_link_budget_values_reject_nan_and_infinities(cls, name, bad):
    cls(**_VALUES[cls])
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        cls(**{**_VALUES[cls], name: bad})


@pytest.mark.parametrize("noise, convention, match", [
    (math.nan, VOLTAGE, "^noise_floor_dbv must be finite, got nan$"),
    (math.inf, VOLTAGE, "^noise_floor_dbv must be finite, got inf$"),
    (-math.inf, VOLTAGE, "^noise_floor_dbv must be finite, got -inf$"),
    (-85.0, "bogus", "^convention must be 'voltage' or 'power', got 'bogus'$")])
def test_a_bad_noise_floor_or_convention_is_named_before_any_solve(
        monkeypatch, nominal_spectrum, noise, convention, match):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return mutual_inductance(*args, **kwargs)

    monkeypatch.setattr(link_analysis, "mutual_inductance", counted)
    budget = dict(noise_floor_dbv=noise, convention=convention)
    link = scenario_link(NOMINAL, m=M_NOMINAL)
    for budget_of in (lambda: capacity_report(nominal_spectrum, **budget),
                      lambda: capacity_vs_bandwidth(nominal_spectrum, **budget),
                      lambda: resistance_sweep(link, "r_load", [1.0, 10.0], GRID, **budget),
                      lambda: misalignment_sweep(NOMINAL, TX_ANGLE, [10.0, 20.0], GRID,
                                                 **budget)):
        with pytest.raises(ValueError, match=match):
            budget_of()
    assert calls == []


def test_threshold_study_masks_offgrid_rows_and_ranks_the_rest(nominal_spectrum):
    study = capacity_vs_bandwidth(nominal_spectrum, **BUDGET)
    assert [r.threshold_db for r in study] == [float(t) for t in range(1, 31)]
    masked = [r.threshold_db for r in study if r.masked]
    assert masked == [29.0, 30.0]
    live = [r for r in study if not r.masked]
    widths = [r.bandwidth_hz for r in live]
    assert all(b > a for a, b in zip(widths, widths[1:]))
    assert max(live, key=lambda r: r.capacity_bps).threshold_db == 28.0
    t3 = next(r for r in study if r.threshold_db == 3.0)
    t12 = next(r for r in study if r.threshold_db == 12.0)
    assert t3.capacity_bps == pytest.approx(1000699.0097581774, rel=1e-9)
    assert t12.capacity_bps == pytest.approx(2559445.899513709, rel=1e-9)
    assert t12.capacity_bps > t3.capacity_bps


# ---------------------------------------------------------- scenario link

def test_scenario_link_wires_the_lumped_pieces():
    link = scenario_link(NOMINAL, m=M_NOMINAL)
    assert link.l_tx == L_TX                        # measured override wins
    assert link.l_rx == pytest.approx(L_RX, rel=1e-12, abs=0)
    assert link.m == M_NOMINAL
    assert link.r_source == 50.0 and link.r_load == 1e3
    assert link.c_tx == pytest.approx(tune_capacitance(L_TX, 26e6), rel=1e-15, abs=0)
    assert link.c_rx == pytest.approx(link.l_tx * link.c_tx / link.l_rx,
                                      rel=1e-15, abs=0)
    assert link.esr_tx == NOMINAL.tx and link.esr_rx == RX
    assert link.coil_resistance_tx(26e6) == pytest.approx(ac_resistance(TX, 26e6),
                                                          rel=1e-15, abs=0)
    assert link.coil_resistance_rx(13e6) == pytest.approx(ac_resistance(RX, 13e6),
                                                          rel=1e-15, abs=0)


def test_each_coil_takes_its_own_loss():
    # a measured tx loss beside a skin-effect rx, and the other way round
    l_rx = current_sheet_inductance(RX)
    c_tx = tune_capacitance(L_TX, 26e6)
    common = dict(l_tx=L_TX, l_rx=l_rx, m=M_NOMINAL, r_source=50.0, r_load=1e3,
                  c_tx=c_tx, c_rx=receiver_capacitance(L_TX, c_tx, l_rx))
    for tx_ohm, rx_ohm, direct in (
            (6.0, None, LinkCircuit(esr_tx=6.0, esr_rx=RX, **common)),
            (None, 0.5, LinkCircuit(esr_rx=0.5, esr_tx=NOMINAL.tx, **common))):
        sc = replace(NOMINAL, tx=replace(NOMINAL.tx, resistance_override=tx_ohm),
                     rx=replace(RX, resistance_override=rx_ohm))
        link = scenario_link(sc, m=M_NOMINAL)
        assert (link.esr_tx, link.esr_rx) == (sc.tx, sc.rx)
        assert frequency_sweep(link, GRID).h.tobytes() == \
            frequency_sweep(direct, GRID).h.tobytes()
    assert link.coil_resistance_rx(26e6) == 0.5
    assert link.coil_resistance_tx(26e6) == ac_resistance(NOMINAL.tx, 26e6)


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
    direct = mutual_inductance(tx, rx, tolerance=1e-3).m
    assert scenario_mutual_inductance(NOMINAL, segments_per_turn=120) == direct


# --------------------------------------------------------------- sweeps

def test_misalignment_sweep_validation(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return mutual_inductance(*args, **kwargs)

    monkeypatch.setattr(link_analysis, "mutual_inductance", counted)
    with pytest.raises(ValueError, match="axis"):
        misalignment_sweep(NOMINAL, "roll", [10.0], GRID, **BUDGET)
    with pytest.raises(ValueError, match="non-empty"):
        misalignment_sweep(NOMINAL, TX_ANGLE, [], GRID, **BUDGET)
    with pytest.raises(ValueError, match="within"):
        misalignment_sweep(NOMINAL, TX_ANGLE, [95.0], GRID, **BUDGET)
    with pytest.raises(ValueError, match="within"):
        misalignment_sweep(NOMINAL, AXIAL, [0.010], GRID, **BUDGET)
    # a valid first value is not solved before the second is refused
    with pytest.raises(ValueError, match=r"^tx_angle_deg must lie within \[0, 90\] deg"):
        misalignment_sweep(NOMINAL, TX_ANGLE, [40.0, 95.0], GRID, **BUDGET)
    assert calls == []


def test_angle_sweep_rows_are_ordered_and_live():
    grid = np.linspace(25e6, 27e6, 201)
    sweep = misalignment_sweep(NOMINAL, TX_ANGLE, [60.0, 20.0, 40.0], grid=grid, **BUDGET)
    assert sweep.unit == "deg"
    assert [r.value for r in sweep.rows] == [20.0, 40.0, 60.0]
    assert not any(r.masked for r in sweep.rows)
    for row in sweep.rows:
        assert row.peak_db < 0
        assert row.p_rx_w > 0
        assert 25e6 <= row.peak_freq_hz <= 27e6
        # each row is the capacity report of its own spectrum, bit for bit
        m = scenario_mutual_inductance(replace(NOMINAL, tx_angle_deg=row.value))
        spectrum = frequency_sweep(replace(scenario_link(NOMINAL, 0.0), m=m), grid)
        report = capacity_report(spectrum, **BUDGET)
        p_rx = received_power(float(np.max(np.abs(spectrum.h))) * NOMINAL.v_source,
                              NOMINAL.r_load)
        assert (row.peak_db, row.bw3db_hz, row.capacity_bps, row.p_rx_w) == \
            (report.signal_dbv, report.bandwidth_hz, report.capacity_bps, p_rx)


def test_unreachable_tolerance_masks_points_instead_of_failing(monkeypatch):
    # one refinement level gives no estimate, so every M raises ConvergenceError
    monkeypatch.setattr(field_coupling, "_SPECTRAL_LEVELS", (8,))
    grid = np.linspace(25e6, 27e6, 51)
    with pytest.warns(UserWarning) as caught:
        sweep = misalignment_sweep(NOMINAL, TX_ANGLE, [30.0, 50.0], grid=grid, **BUDGET)
    assert all(r.masked for r in sweep.rows)
    assert all(r.capacity_bps is None for r in sweep.rows)
    assert len(caught) == 2
    assert all("masked" in str(w.message) for w in caught)


def test_on_axis_placement_is_flagged():
    grid = np.linspace(25e6, 27e6, 51)
    with pytest.warns(UserWarning, match="transmitter axis"):
        misalignment_sweep(NOMINAL, LATERAL, [0.0, 0.092], grid=grid, **BUDGET)
    # a lateral sweep replaces x_eye, so x_eye = 0 alone places nothing on axis
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        misalignment_sweep(replace(NOMINAL, x_eye=0.0), LATERAL, [0.05, 0.1], grid=grid,
                           **BUDGET)
    # any other axis keeps x_eye, so x_eye = 0 is on axis at every point
    with pytest.warns(UserWarning, match="^x_eye = 0 places the receiver on the transmitter axis"):
        misalignment_sweep(replace(NOMINAL, x_eye=0.0), AXIAL, [0.15], grid=grid, **BUDGET)


def test_sweep_reports_the_scenario_termination():
    grid = np.linspace(25e6, 27e6, 51)
    sc = replace(NOMINAL, r_load=10.0, v_source=2.0)
    sweep = misalignment_sweep(sc, TX_ANGLE, [40.0], grid=grid, **BUDGET)
    (row,) = sweep.rows
    m = scenario_mutual_inductance(sc, segments_per_turn=48)
    h = frequency_sweep(scenario_link(sc, m), grid).h
    assert row.peak_db == pytest.approx(20 * math.log10(2.0 * np.max(np.abs(h))),
                                        rel=1e-12, abs=0)
    assert row.p_rx_w == pytest.approx(received_power(10 ** (row.peak_db / 20), 10.0),
                                       rel=1e-12, abs=0)


def test_source_resistance_loads_the_resonator():
    link = scenario_link(NOMINAL, m=M_NOMINAL)
    sweep = resistance_sweep(link, "r_source", [10.0, 50.0, 200.0, 1e3], GRID, **BUDGET)
    peaks = [r.peak_db for r in sweep.rows]
    assert all(b < a for a, b in zip(peaks, peaks[1:]))
    assert sweep.unit == "ohm"


def test_received_voltage_saturates_with_load():
    link = scenario_link(NOMINAL, m=M_NOMINAL)
    sweep = resistance_sweep(link, "r_load", [100.0, 1e3, 1e4], GRID, **BUDGET)
    peaks = [r.peak_db for r in sweep.rows]
    assert all(b > a for a, b in zip(peaks, peaks[1:]))
    # near saturation the step from 1k to 10k is small
    assert peaks[2] - peaks[1] < peaks[1] - peaks[0]


def test_resistance_sweep_validation():
    link = scenario_link(NOMINAL, m=M_NOMINAL)
    with pytest.raises(ValueError, match="field"):
        resistance_sweep(link, "r_coil_tx", [10.0], GRID, **BUDGET)
    with pytest.raises(ValueError, match="non-empty"):
        resistance_sweep(link, "r_load", [], GRID, **BUDGET)
    with pytest.raises(ValueError, match="> 0"):
        resistance_sweep(link, "r_load", [0.0, 10.0], GRID, **BUDGET)


def test_a_repeated_sweep_value_is_named_before_any_solve(monkeypatch):
    calls = []

    def counting(name):
        exact = getattr(link_analysis, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return exact(*args, **kwargs)
        return counted

    for name in ("scenario_mutual_inductance", "termination_scan"):
        monkeypatch.setattr(link_analysis, name, counting(name))
    with pytest.raises(ValueError, match="^values must not repeat; got 10 more than once$"):
        misalignment_sweep(NOMINAL, TX_ANGLE, [10, 20, 10], GRID, **BUDGET)
    with pytest.raises(ValueError, match="^values must not repeat; got 5 more than once$"):
        resistance_sweep(scenario_link(NOMINAL, m=M_NOMINAL), "r_load", [5, 5], GRID,
                         **BUDGET)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^values must be finite; got {bad:g}$"):
            misalignment_sweep(NOMINAL, TX_ANGLE, [10, 20, bad], GRID, **BUDGET)
        with pytest.raises(ValueError, match=f"^values must be finite; got {bad:g}$"):
            resistance_sweep(scenario_link(NOMINAL, m=M_NOMINAL), "r_load", [5, bad], GRID,
                             **BUDGET)
    assert calls == []


def test_sweep_result_requires_ordered_rows():
    row = SweepRow(2.0, -60.0, 26e6, 1e5, 1e6, 1e-9)
    with pytest.raises(ValueError, match="increasing"):
        SweepResult(unit="ohm",
                    rows=(row, replace(row, value=1.0)))
    assert SweepRow(1.0, None, None, None, None, None).masked
    assert not row.masked


# -------------------------------------------------------------- dual mode

def test_dual_mode_loads_split_as_designed():
    link = scenario_link(NOMINAL, m=M_NOMINAL)
    grid = np.linspace(25.5e6, 26.5e6, 201)
    report = dual_mode_report(link, DUAL_MODE_LOADS, grid)
    assert report.comm_mode_r_load_ohm > report.power_mode_r_load_ohm
    assert report.p_rx_power_mode_w >= report.p_rx_comm_mode_w
    assert report.v_rx_comm_mode_v > report.v_rx_power_mode_v
    assert report.v_rx_comm_mode_v > 0.9 * report.v_rx_power_mode_v


def test_dual_mode_warns_when_the_loads_stop_short_of_saturation():
    link = scenario_link(NOMINAL, m=M_NOMINAL)
    with pytest.warns(UserWarning, match="still rises .* over 1-10 ohm"):
        dual_mode_report(link, np.geomspace(0.1, 10.0, 31), GRID)
    # under a decade, the rise is judged over the whole scan
    with pytest.warns(UserWarning, match="over 2-10 ohm"):
        dual_mode_report(link, np.geomspace(2.0, 10.0, 9), GRID)


def test_dual_mode_default_loads_saturate_without_warning():
    link = scenario_link(NOMINAL, m=M_NOMINAL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dual_mode_report(link, DUAL_MODE_LOADS, GRID)


def test_dual_mode_rejects_bad_load_grids():
    link = scenario_link(NOMINAL, m=M_NOMINAL)
    with pytest.raises(ValueError, match="r_load grid"):
        dual_mode_report(link, [10.0, 5.0], GRID)
    with pytest.raises(ValueError, match=r"^r_load values must be finite and > 0, got 0\.0$"):
        dual_mode_report(link, [0.0, 5.0], GRID)
    for loads, bad in (([1.0, math.nan, 3.0], "nan"), ([1.0, 3.0, math.inf], "inf")):
        with pytest.raises(ValueError, match=f"^r_load values must be finite and > 0, got {bad}$"):
            dual_mode_report(link, loads, GRID)


# ------------------------------------------------- per-load reference scans
# The scans once re-solved the whole spectrum per load, and the threshold
# study found each band in its own pass; these copies of those loops are
# the reference the row-block scans and the one band pass must equal exactly.

def _per_load_sweep(link, field, values, grid, convention):
    rows = []
    for v in sorted(float(v) for v in values):
        varied = replace(link, **{field: v})
        spectrum = frequency_sweep(varied, grid)
        mags = np.abs(spectrum.h)
        pk = int(np.argmax(mags))
        if mags[pk] == 0.0:
            rows.append(SweepRow(v, None, None, None, None, None))
            continue
        peak_db = float(np.max(path_loss_db(spectrum.h))) + path_loss_db(link.v_source)
        try:
            bw = capacity_report(spectrum, **BUDGET).bandwidth_hz
            cap = channel_capacity(bw, snr_db(peak_db, NOISE_FLOOR_DBV), convention)
        except TruncatedBandError:
            bw = cap = None
        rows.append(SweepRow(v, peak_db, float(spectrum.frequencies[pk]), bw, cap,
                             received_power(float(mags[pk]) * link.v_source,
                                            varied.r_load)))
    return tuple(rows)


def _band_edges(freqs, mag_db, drop_db):
    """Outermost crossings of (peak - drop_db), linear interpolation in dB;
    next to a zero of h, the sample at or above. None past a grid edge."""
    peak = float(np.max(mag_db))
    thr = peak - drop_db
    above = mag_db >= thr
    i_lo = int(np.argmax(above))
    i_hi = len(above) - 1 - int(np.argmax(above[::-1]))
    if i_lo == 0 or i_hi == len(above) - 1:
        return None
    j = np.array([i_lo - 1, i_hi])
    lo, hi = mag_db[j], mag_db[j + 1]
    with np.errstate(invalid="ignore"):
        t = (thr - lo) / (hi - lo)
    return tuple(np.where(lo == -np.inf, freqs[j + 1],
                          freqs[j] + t * (freqs[j + 1] - freqs[j])).tolist())


def _per_threshold_study(spectrum, convention):
    mag = path_loss_db(spectrum.h)
    peak = float(np.max(mag)) + path_loss_db(spectrum.v_source)
    rows = []
    for threshold in range(1, 31):
        signal = peak - threshold
        edges = _band_edges(spectrum.frequencies, mag, float(threshold))
        if edges is None or edges[0] == edges[1]:
            rows.append(BandwidthCapacityRow(float(threshold), None, None, None, None, None))
            continue
        f_low, f_high = edges
        bw = f_high - f_low
        cap = channel_capacity(bw, snr_db(signal, NOISE_FLOOR_DBV), convention)
        rows.append(BandwidthCapacityRow(float(threshold), f_low, f_high, bw, signal, cap))
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
    scans solve per block on that grid, or chunk - 1, chunk or chunk + 1
    for the rows a sweep's band pass takes at once (_SUMMARY_BLOCKS
    blocks). A one-point grid is left out:
    there numpy runs the broadcast along the rows, through other SIMD
    loops than the per-load solve, and a row may differ from it in the
    last bit.
    """
    link, f = draw(_random_links(parasitics=True))
    points = draw(st.sampled_from([2, 7, 201, 1001, 4097]))
    block = max(1, circuit._SCAN_ELEMENTS // points)
    chunk = block * link_analysis._SUMMARY_BLOCKS
    edges = sorted({1, block - 1, block, block + 1, chunk - 1, chunk, chunk + 1} - {0})
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
        sweep = resistance_sweep(link, field, values, grid, NOISE_FLOOR_DBV, convention)
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


@settings(max_examples=200, deadline=None)
@given(_random_links(parasitics=True), st.sampled_from([VOLTAGE, POWER]))
def test_a_sweep_row_is_the_capacity_report_of_its_spectrum(drawn, convention):
    # untuned draws are flat over the grid, so their bands run off it
    link, grid = drawn
    (row,) = resistance_sweep(link, "r_load", [link.r_load], grid, NOISE_FLOOR_DBV,
                              convention).rows
    spectrum = frequency_sweep(link, grid)
    if not np.any(spectrum.h):
        assert row.masked
        return
    try:
        report = capacity_report(spectrum, NOISE_FLOOR_DBV, convention)
        expected = (report.signal_dbv, report.bandwidth_hz, report.capacity_bps)
    except TruncatedBandError:
        peak = float(np.max(path_loss_db(spectrum.h))) + path_loss_db(link.v_source)
        expected = (peak, None, None)
    assert (row.peak_db, row.bw3db_hz, row.capacity_bps) == expected


@st.composite
def _studied_spectra(draw):
    """A random link's spectrum on 1 to 1001 points, with up to four
    samples near the peak, or now and then every sample, set to a zero of h."""
    link, grid = draw(_random_links(parasitics=True))
    spectrum = frequency_sweep(link, np.linspace(grid[0], grid[-1],
                                                 draw(st.sampled_from([1, 5, 201, 1001]))))
    h = spectrum.h.copy()
    pk = int(np.argmax(np.abs(h)))
    if draw(st.integers(0, 9)) == 9:
        h[:] = 0.0
    for offset in draw(st.lists(st.integers(-12, 12), max_size=4)):
        h[min(max(pk + offset, 0), len(h) - 1)] = 0.0
    return replace(spectrum, h=h), draw(st.sampled_from([VOLTAGE, POWER]))


@settings(max_examples=200, deadline=None)
@given(_studied_spectra())
@example((Spectrum(frequencies=np.array([1e6, 2e6, 3e6, 4e6, 5e6]),
                   h=np.array([0.1, 0.0, 1.0, 0.0, 0.1]), z11=np.ones(5)), VOLTAGE))
def test_threshold_study_equals_the_per_threshold_loop(drawn):
    # untuned draws are flat, so their bands run off the grid; a peak
    # sample between two zeros of h has a 0 Hz band, masked alike
    spectrum, convention = drawn
    assert capacity_vs_bandwidth(spectrum, NOISE_FLOOR_DBV, convention) == \
        _per_threshold_study(spectrum, convention)


def test_load_scans_solve_in_bounded_blocks_without_frequency_sweep(monkeypatch):
    sizes = []

    terminated = circuit._terminated

    def counting_blocks(terms, r_source, r_load):
        h = terminated(terms, r_source, r_load)
        sizes.append(h.size)
        return h

    def forbidden(*args, **kwargs):
        raise AssertionError("a load scan called frequency_sweep")

    monkeypatch.setattr(circuit, "_terminated", counting_blocks)
    monkeypatch.setattr(link_analysis, "frequency_sweep", forbidden)
    link = scenario_link(NOMINAL, m=M_NOMINAL)
    grid = GRID
    dual_mode_report(link, r_load_grid=np.geomspace(0.1, 1e4, 451), grid=grid)
    assert sum(sizes) == 451 * len(grid)
    for field in ("r_source", "r_load"):
        resistance_sweep(link, field, np.geomspace(1.0, 1e4, 224), grid, **BUDGET)
    assert sum(sizes) == (451 + 2 * 224) * len(grid)
    assert max(sizes) <= circuit._SCAN_ELEMENTS


def test_load_scans_evaluate_each_coil_loss_once_on_the_whole_grid(monkeypatch):
    # the dual-mode scan and both sweeps of one link share its terms
    calls = []

    def counting(spec, f):
        calls.append((spec, np.shape(f)))
        return ac_resistance(spec, f)

    monkeypatch.setattr(circuit, "ac_resistance", counting)
    link = scenario_link(NOMINAL, m=M_NOMINAL)
    grid = GRID
    dual_mode_report(link, r_load_grid=np.geomspace(0.1, 1e4, 451), grid=grid)
    for field in ("r_source", "r_load"):
        resistance_sweep(link, field, np.geomspace(1.0, 1e4, 224), grid, **BUDGET)
    assert len(calls) == 2
    assert {spec for spec, _ in calls} == {NOMINAL.tx, RX}
    assert all(shape == grid.shape for _, shape in calls)
    # a grid of another shape or other values, or an equal link that is
    # another instance, builds anew
    for other in (grid + 1.0, grid[:-1]):
        resistance_sweep(link, "r_load", [10.0], other, **BUDGET)
    assert len(calls) == 6
    resistance_sweep(scenario_link(NOMINAL, m=M_NOMINAL), "r_load", [10.0], grid + 1.0,
                     **BUDGET)
    assert len(calls) == 8


def test_load_scans_keep_the_spectrum_checks(monkeypatch):
    link = scenario_link(NOMINAL, m=M_NOMINAL)
    with pytest.raises(ValueError, match="increasing"):
        resistance_sweep(link, "r_load", [1.0], [26e6, 25e6], **BUDGET)
    with pytest.raises(ValueError, match="increasing"):
        dual_mode_report(link, r_load_grid=[1.0, 2.0], grid=[26e6, 26e6])

    terminated = circuit._terminated

    def non_finite(terms, r_source, r_load):
        h = terminated(terms, r_source, r_load)
        h[-1, 0] = np.nan
        return h

    monkeypatch.setattr(circuit, "_terminated", non_finite)
    with pytest.raises(ValueError, match="finite"):
        resistance_sweep(link, "r_source", [10.0, 20.0], GRID, **BUDGET)
    with pytest.raises(ValueError, match="finite"):
        dual_mode_report(link, DUAL_MODE_LOADS, GRID)


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
    assert 20.0 * math.log10(v_lim) == pytest.approx(PEAK_DB, abs=5e-3)

    loads = np.geomspace(0.01, 1e4, 2001)
    step = loads[1] / loads[0]
    report = dual_mode_report(link, r_load_grid=loads, grid=[f0])
    # power mode: V_rx^2/R = V_lim^2 u/(R*(1+u)^2) with u = R/R* is
    # symmetric in log u, so the grid picks the load nearest R* in log
    # distance, and there V_rx is V_lim/2 to within a grid step
    nearest = loads[np.argmin(np.abs(np.log(loads / r_star)))]
    assert r_star / step < nearest < r_star * step
    assert report.power_mode_r_load_ohm == nearest
    assert v_lim / 2 / step < report.v_rx_power_mode_v < v_lim / 2 * step
    # comm mode: the first load at or past the 95% crossing of V_rx(R_max)
    v_sat = v_lim * loads[-1] / (loads[-1] + r_star)
    assert v_lim * (1.0 - r_star / loads[-1]) < v_sat < v_lim
    c = 0.95 * v_sat
    r_comm = c * r_star / (v_lim - c)
    assert r_comm <= report.comm_mode_r_load_ohm < r_comm * step
    assert c <= report.v_rx_comm_mode_v < c * step
