"""Acceptance gate: ten go/no-go checks on the assembled simulator.

Each test prints one live `criterion NN name: PASS/FAIL (detail)` line
even under captured output, then asserts. Tolerances are part of the
contract; loosening them here is a release decision, not a test fix.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from mqslink.circuit import (LinkCircuit, frequency_sweep,
                             received_power, receiver_capacitance,
                             tune_capacitance, tx_power)
from mqslink.field_coupling import mutual_inductance
from mqslink.geometry import AXIAL, TX_ANGLE, Pose, apply_pose
from mqslink.link_analysis import (capacity_vs_bandwidth,
                                   channel_capacity, misalignment_sweep,
                                   resistance_sweep, scenario_link,
                                   scenario_mutual_inductance, snr_db)
from mqslink.lumped import (LOW_CONFIDENCE, current_sheet_inductance,
                            estimate_inductance)
from mqslink.cli import main as cli_main
from nominal import BUDGET, GRID, L_TX, NOMINAL, RX, TX
from references import (Ring, coaxial_mutual_oracle, flux_mutual_inductance,
                        random_spiral_pairs, transfer_ratio_untuned)


@pytest.fixture(scope="module")
def nominal_m():
    return scenario_mutual_inductance(NOMINAL, segments_per_turn=360)


def report(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} "
              f"({detail})", flush=True)
    assert ok, f"criterion {num:02d} {name}: {detail}"


def test_criterion_01_rx_inductance(capsys):
    runs = []
    for _ in range(3):
        t0 = time.perf_counter()
        l_rx = current_sheet_inductance(RX)
        runs.append(time.perf_counter() - t0)
    best_ms = min(runs) * 1e3
    ok = 0.32e-6 <= l_rx <= 0.48e-6 and best_ms < 1.0
    report(capsys, 1, "rx_inductance", ok,
           f"L_rx = {l_rx * 1e6:.4f} uH in [0.32, 0.48], {best_ms:.3f} ms")


def test_criterion_02_tx_inductance_discrepancy(capsys):
    l_formula = current_sheet_inductance(TX)
    est = estimate_inductance(TX)
    link = scenario_link(NOMINAL, m=0.0)
    ok = (l_formula < 15e-6 and est.validity_flag == LOW_CONFIDENCE
          and link.l_tx == L_TX)
    report(capsys, 2, "tx_inductance_discrepancy", ok,
           f"formula {l_formula * 1e6:.2f} uH < 15, flag {est.validity_flag}, "
           f"link uses {link.l_tx * 1e6:.0f} uH override")


def test_criterion_03_tuning(capsys):
    c_tx = tune_capacitance(L_TX, 26e6)
    c_err = abs(c_tx - 1.07e-12) / 1.07e-12
    l_rx = current_sheet_inductance(RX)
    c_rx = receiver_capacitance(L_TX, c_tx, l_rx)
    f_tx = 1.0 / (2 * math.pi * math.sqrt(L_TX * c_tx))
    f_rx = 1.0 / (2 * math.pi * math.sqrt(l_rx * c_rx))
    f_err = abs(f_tx - f_rx) / f_tx
    ok = c_err <= 0.01 and f_err <= 1e-12
    report(capsys, 3, "tuning", ok,
           f"C_tx = {c_tx * 1e12:.4f} pF ({c_err * 100:.3f}% from 1.07), "
           f"f0 split {f_err:.2e} rel")


def test_criterion_04_coupling_kernel(capsys):
    t0 = time.perf_counter()

    r1 = 0.05
    worst_oracle = 0.0
    base = Ring(r1)
    for ratio in (0.05, 0.2, 1.0):
        for zr in (0.5, 1.0, 5.0):
            inner = apply_pose(Ring(ratio * r1), Pose(center=(0, 0, zr * r1)))
            got = mutual_inductance(base, inner).m
            want = coaxial_mutual_oracle(r1, ratio * r1, zr * r1)
            worst_oracle = max(worst_oracle, abs(got - want) / abs(want))

    worst_routes = 0.0
    worst_recip = 0.0
    for i, (a, b) in enumerate(random_spiral_pairs()):
        m_n = mutual_inductance(a, b).m
        m_f, _ = flux_mutual_inductance(a, b)
        worst_routes = max(worst_routes, abs(m_f - m_n) / abs(m_n))
        if i % 5 == 0:
            m_r = mutual_inductance(b, a).m
            worst_recip = max(worst_recip, abs(m_r - m_n) / abs(m_n))

    elapsed = time.perf_counter() - t0
    ok = (worst_oracle <= 1e-3 and worst_routes <= 0.01
          and worst_recip <= 0.005 and elapsed < 60.0)
    report(capsys, 4, "coupling_kernel", ok,
           f"oracle {worst_oracle * 100:.4f}% <= 0.1, routes "
           f"{worst_routes * 100:.3f}% <= 1, reciprocity "
           f"{worst_recip * 100:.4f}% <= 0.5, {elapsed:.1f} s < 60")


def test_criterion_05_circuit_reduction(capsys):
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        l_tx = 10 ** rng.uniform(-7, -4)
        l_rx = 10 ** rng.uniform(-7, -4)
        k = rng.uniform(0.0, 0.9) * rng.choice([-1.0, 1.0])
        link = LinkCircuit(
            l_tx=l_tx, l_rx=l_rx, m=k * math.sqrt(l_tx * l_rx),
            r_source=10 ** rng.uniform(0, 4), r_load=10 ** rng.uniform(0, 4),
            esr_tx=rng.uniform(0, 10), esr_rx=rng.uniform(0, 10))
        freqs = np.sort(10 ** rng.uniform(4, 8, 5))
        h1 = frequency_sweep(link, freqs).h
        h2 = transfer_ratio_untuned(link, freqs)
        scale = np.abs(h2)
        live = scale > 0
        if np.any(live):
            worst = max(worst, float(np.max(
                np.abs(h1[live] - h2[live]) / scale[live])))
    ok = worst <= 1e-12
    report(capsys, 5, "circuit_reduction", ok,
           f"max relative split {worst:.2e} <= 1e-12 over 1000 links")


def test_criterion_06_resonant_gain(capsys, nominal_m):
    tuned_link = scenario_link(NOMINAL, nominal_m)
    untuned_link = scenario_link(NOMINAL, nominal_m, tuned=False)
    grid = GRID
    t0 = time.perf_counter()
    tuned = frequency_sweep(tuned_link, grid)
    elapsed = time.perf_counter() - t0
    untuned = frequency_sweep(untuned_link, grid)
    gain_db = 20 * math.log10(np.abs(tuned.h).max() / np.abs(untuned.h).max())
    ok = gain_db >= 20.0 and elapsed < 10.0
    report(capsys, 6, "resonant_gain", ok,
           f"peak over flatband {gain_db:.1f} dB >= 20, "
           f"{len(grid)}-point sweep {elapsed * 1e3:.0f} ms < 10 s")


def test_criterion_07_robustness(capsys):
    angles = misalignment_sweep(NOMINAL, TX_ANGLE,
                                [20.0, 30.0, 40.0, 50.0, 60.0], GRID, **BUDGET)
    peaks = [r.peak_db for r in angles.rows]
    spread = max(peaks) - min(peaks)

    axial = misalignment_sweep(NOMINAL, AXIAL,
                               [0.100, 0.150, 0.200, 0.250, 0.300], GRID, **BUDGET)
    mags = [10 ** (r.peak_db / 20.0) for r in axial.rows]
    monotone = all(b < a for a, b in zip(mags, mags[1:]))
    ok = spread <= 10.0 and monotone
    report(capsys, 7, "robustness", ok,
           f"angle spread {spread:.2f} dB <= 10, axial |H| "
           f"{'monotone decreasing' if monotone else 'NOT monotone'} "
           f"past 100 mm")


def test_criterion_08_capacity(capsys, nominal_m):
    cap = channel_capacity(1e6, snr_db(-55.0, -85.0), convention="voltage")
    cap_err = abs(cap - 5.03e6) / 5.03e6
    spectrum = frequency_sweep(scenario_link(NOMINAL, nominal_m), GRID)
    study = capacity_vs_bandwidth(spectrum, **BUDGET)
    t3 = next(r for r in study if r.threshold_db == 3.0)
    t12 = next(r for r in study if r.threshold_db == 12.0)
    ok = cap_err <= 1e-3 and t12.capacity_bps > t3.capacity_bps
    report(capsys, 8, "capacity", ok,
           f"1 MHz / 30 dB -> {cap / 1e6:.4f} Mbit/s ({cap_err * 100:.3f}% "
           f"from 5.03), threshold 12 dB {t12.capacity_bps / 1e6:.2f} > "
           f"3 dB {t3.capacity_bps / 1e6:.2f} Mbit/s")


def test_criterion_09_impedance_study(capsys, nominal_m):
    link = scenario_link(NOMINAL, nominal_m)
    src = resistance_sweep(link, "r_source",
                           [10.0, 25.0, 50.0, 100.0, 250.0, 1000.0], GRID, **BUDGET)
    src_peaks = [r.peak_db for r in src.rows]
    decreasing = all(b < a for a, b in zip(src_peaks, src_peaks[1:]))

    load = resistance_sweep(link, "r_load", [1e3, 1e4], GRID, **BUDGET)
    v1k, v10k = (10 ** (r.peak_db / 20.0) for r in load.rows)
    sat_change = abs(v10k - v1k) / v1k

    spectrum = frequency_sweep(link, GRID)
    f_peak = float(spectrum.frequencies[np.argmax(np.abs(spectrum.h))])
    p_tx = tx_power(link, f_peak)
    ok = decreasing and sat_change < 0.10 and 5e-3 <= p_tx <= 20e-3
    report(capsys, 9, "impedance_study", ok,
           f"V_rx decreasing in R_source: {decreasing}, 1k->10k change "
           f"{sat_change * 100:.1f}% < 10, P_tx {p_tx * 1e3:.2f} mW in [5, 20]")


ACCEPTANCE_CONFIG = """\
[placement]
x_eye = 92 mm
z_eye = 150 mm
tx_angle = 40 deg

[frequency_grid]
start = 25 MHz
stop = 27 MHz
points = 101

[analysis]
segments_per_turn = 64

[spectrum]
modes = tuned untuned

[capacity]

[dual_mode]
points = 31

[sweep tx_angle]
start = 20 deg
stop = 60 deg
step = 20 deg

[field_map]
coil = tx
plane = xz
offset = 0 mm
axis1_start = -50 mm
axis1_stop = 50 mm
axis1_points = 3
axis2_start = 50 mm
axis2_stop = 150 mm
axis2_points = 3
current = 1 A
"""


def test_criterion_10_determinism_and_passivity(capsys, tmp_path, nominal_m):
    config = tmp_path / "scenario.ini"
    config.write_text(ACCEPTANCE_CONFIG, encoding="utf-8")
    outs = []
    for name in ("a", "b", "c"):
        out = tmp_path / name
        assert cli_main(["run", str(config), "--out", str(out)]) == 0
        outs.append(out)

    identical = True
    names = sorted(p.name for p in outs[0].iterdir())
    for other in outs[1:]:
        if sorted(p.name for p in other.iterdir()) != names:
            identical = False
            break
        for name in names:
            a, b = outs[0] / name, other / name
            if name == "report.json":
                ra, rb = (json.loads(p.read_text()) for p in (a, b))
                ra.pop("timings_s"), rb.pop("timings_s")
                same = ra == rb
            else:
                same = a.read_bytes() == b.read_bytes()
            if not same:
                identical = False

    m20 = scenario_mutual_inductance(replace(NOMINAL, tx_angle_deg=20.0), 180)
    m60 = scenario_mutual_inductance(replace(NOMINAL, tx_angle_deg=60.0), 180)
    corpus = [
        scenario_link(NOMINAL, nominal_m),
        scenario_link(NOMINAL, nominal_m, tuned=False),
        scenario_link(replace(NOMINAL, tx_angle_deg=20.0), m20),
        scenario_link(replace(NOMINAL, tx_angle_deg=60.0), m60),
        replace(scenario_link(NOMINAL, nominal_m), r_load=10.0),
        replace(scenario_link(NOMINAL, nominal_m), r_load=1e4),
        replace(scenario_link(NOMINAL, nominal_m), r_source=10.0),
    ]
    grid = GRID
    worst_margin = math.inf
    for link in corpus:
        spectrum = frequency_sweep(link, grid)
        p_rx = received_power(np.abs(spectrum.h) * link.v_source, link.r_load)
        p_tx = tx_power(link, grid)
        worst_margin = min(worst_margin, float(np.min(p_tx - p_rx)))
    passive = worst_margin >= 0.0

    ok = identical and passive
    report(capsys, 10, "determinism_and_passivity", ok,
           f"outputs byte-identical across runs: {identical}, "
           f"min(P_tx - P_rx) = {worst_margin:.3e} W >= 0 over "
           f"{len(corpus)} links x {len(grid)} frequencies")
