"""Link budgets and parametric studies on top of the circuit solver.

Bandwidth extraction, Shannon capacity under the voltage-ratio SNR
reading (the power-ratio form is selectable), misalignment sweeps that
rebuild the geometry per point, and source/load impedance studies on
circuit.termination_scan. Sweep notes are warnings.

Levels are in dBV of the received amplitude, path_loss_db(h) plus
path_loss_db(v_source); with a 1 V source they read as the transfer ratio.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .geometry import Scenario, apply_pose, build_filament_coil, check_fields, scenario_poses
from .lumped import estimate_inductance
from .field_coupling import (ConvergenceError, SeparationError,
                             SingularEvaluationError, mutual_inductance)
from .circuit import (LinkCircuit, Spectrum, default_grid, frequency_sweep,
                      path_loss_db, received_power, receiver_capacitance,
                      termination_scan, tune_capacitance)

VOLTAGE = "voltage"
POWER = "power"

DEFAULT_NOISE_FLOOR_DBV = -85.0

TX_ANGLE = "tx_angle"
LATERAL = "lateral"
AXIAL = "axial"

# each misalignment axis: the Scenario field it moves and that field's
# documented domain and unit
SWEEP_RANGES = {
    TX_ANGLE: ("tx_angle_deg", 0.0, 90.0, "deg"),
    LATERAL: ("x_eye", 0.0, 0.200, "m"),
    AXIAL: ("z_eye", 0.050, 0.300, "m"),
}


class TruncatedBandError(Exception):
    """A threshold band ran past the grid edge; the message names the
    truncated side (low, high or both)."""


def _snr_linear(snr_db: float, convention: str) -> float:
    if convention == VOLTAGE:
        return 10.0 ** (snr_db / 20.0)
    if convention == POWER:
        return 10.0 ** (snr_db / 10.0)
    raise ValueError(f"convention must be {VOLTAGE!r} or {POWER!r}, got {convention!r}")


def _check_budget(noise_floor_dbv: float, convention: str) -> None:
    """Reject a NaN or infinite noise floor and an unknown convention in the
    words of CapacityReport and channel_capacity, before any solve."""
    if not math.isfinite(noise_floor_dbv):
        raise ValueError(f"noise_floor_dbv must be finite, got {noise_floor_dbv!r}")
    _snr_linear(0.0, convention)          # raises for an unknown convention


@dataclass(frozen=True)
class CapacityReport:
    """Shannon link budget at one operating point."""

    bandwidth_hz: float
    signal_dbv: float
    noise_floor_dbv: float
    snr_db: float
    capacity_bps: float
    convention: str = VOLTAGE

    def __post_init__(self):
        check_fields(self, positive=("bandwidth_hz",), nonnegative=("capacity_bps",))
        if abs(self.snr_db - (self.signal_dbv - self.noise_floor_dbv)) > 1e-9:
            raise ValueError("snr_db inconsistent with signal and noise levels")
        expected = self.bandwidth_hz * math.log2(1.0 + _snr_linear(self.snr_db, self.convention))
        if abs(self.capacity_bps - expected) > 1e-12 * max(abs(expected), 1.0):
            raise ValueError(
                f"capacity_bps {self.capacity_bps!r} inconsistent with BW*log2(1+SNR) = {expected!r}"
            )


@dataclass(frozen=True)
class SweepRow:
    """Per-point summary of a sweep. None fields are masked values; p_rx_w is
    received_power, |V|^2/R_load with V a peak: twice the cycle average."""

    value: float
    peak_db: Optional[float]
    peak_freq_hz: Optional[float]
    bw3db_hz: Optional[float]
    capacity_bps: Optional[float]
    p_rx_w: Optional[float]

    def __post_init__(self):
        check_fields(self)

    @property
    def masked(self) -> bool:
        return self.peak_db is None


@dataclass(frozen=True)
class SweepResult:
    """Ordered sweep of one scalar parameter with per-point summaries."""

    unit: str
    rows: Tuple[SweepRow, ...]

    def __post_init__(self):
        values = [r.value for r in self.rows]
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("sweep rows must be ordered by strictly increasing parameter value")


@dataclass(frozen=True)
class BandwidthCapacityRow:
    """One threshold level of the bandwidth-vs-capacity tradeoff."""

    threshold_db: float
    f_low_hz: Optional[float]
    f_high_hz: Optional[float]
    bandwidth_hz: Optional[float]
    signal_dbv: Optional[float]
    capacity_bps: Optional[float]

    def __post_init__(self):
        check_fields(self)

    @property
    def masked(self) -> bool:
        return self.bandwidth_hz is None


def _bands(freqs: np.ndarray, mag: np.ndarray, drop) -> Tuple[np.ndarray, ...]:
    """Peak, (rows, 2) edges at (peak - drop) and low/high cut masks of each dB
    row of mag (rows, F); drop is a scalar or one value per row. Edges interpolate
    linearly in dB; next to a zero of h (-inf dB) an edge is the sample at or above
    the threshold, that interpolation's limit. A cut side's edge is meaningless."""
    peak = np.max(mag, axis=1)
    thr = peak - drop
    above = mag >= thr[:, None]
    n = mag.shape[1]
    i_lo = np.argmax(above, axis=1)                      # first index at/above
    i_hi = n - 1 - np.argmax(above[:, ::-1], axis=1)     # last index at/above
    cut_low, cut_high = i_lo == 0, i_hi == n - 1
    # each edge lies in [j, j + 1]; a cut side clamps j (to -1 on a one-point grid)
    j = np.minimum(np.maximum(np.stack([i_lo - 1, i_hi], axis=1), 0), n - 2)
    rows = np.arange(len(mag))[:, None]
    lo, hi = mag[rows, j], mag[rows, j + 1]   # uncut, only the low edge's lo can be -inf
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (thr[:, None] - lo) / (hi - lo)
        edges = np.where(lo == -np.inf, freqs[j + 1], freqs[j] + t * (freqs[j + 1] - freqs[j]))
    return peak, edges, cut_low, cut_high


def snr_db(signal_dbv: float, noise_floor_dbv: float) -> float:
    """SNR in dB: signal level minus noise floor, both in dBV."""
    return signal_dbv - noise_floor_dbv


def channel_capacity(bw: float, snr_db: float, convention: str = VOLTAGE) -> float:
    """Shannon capacity BW*log2(1 + SNR_linear) in bit/s.

    The default reads snr_db as a voltage ratio (10^(snr/20)), matching
    link budgets quoted in dBV; convention="power" selects the standard
    power-ratio form 10^(snr/10).
    """
    if not 0 < bw < math.inf:
        raise ValueError(f"bandwidth must be finite and > 0, got {bw!r}")
    if not math.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, got {snr_db!r}")
    return bw * math.log2(1.0 + _snr_linear(snr_db, convention))


def capacity_report(spectrum: Spectrum, noise_floor_dbv: float = DEFAULT_NOISE_FLOOR_DBV,
                    convention: str = VOLTAGE) -> CapacityReport:
    """Budget at the 3 dB bandwidth of a spectrum's peak, whose level is
    path_loss_db(h) plus path_loss_db(spectrum.v_source). The band's
    outermost crossings interpolate linearly in dB; past a grid edge the
    band raises TruncatedBandError."""
    _check_budget(noise_floor_dbv, convention)
    peak, edges, cut_low, cut_high = _bands(spectrum.frequencies,
                                            path_loss_db(spectrum.h)[None], 3.0)
    sides = " and ".join(s for s, cut in (("low", cut_low[0]), ("high", cut_high[0])) if cut)
    if sides:
        raise TruncatedBandError(f"3 dB band extends past the grid edge on the {sides} side")
    f_low, f_high = edges[0].tolist()
    signal = float(peak[0]) + path_loss_db(spectrum.v_source)
    snr = snr_db(signal, noise_floor_dbv)
    return CapacityReport(f_high - f_low, signal, noise_floor_dbv, snr,
                          channel_capacity(f_high - f_low, snr, convention), convention)


def capacity_vs_bandwidth(spectrum: Spectrum, noise_floor_dbv: float = DEFAULT_NOISE_FLOOR_DBV,
                          convention: str = VOLTAGE) -> Tuple[BandwidthCapacityRow, ...]:
    """Capacity across detection thresholds 1..30 dB below the peak.

    Widening the accepted band costs signal level; each row reports the
    band at (peak - threshold) and the capacity at that reduced level,
    the peak level as in capacity_report. Rows whose band runs off the
    grid are masked, not dropped.
    """
    _check_budget(noise_floor_dbv, convention)
    thresholds = np.arange(1.0, 31.0)
    mag = np.broadcast_to(path_loss_db(spectrum.h), (len(thresholds), len(spectrum.h)))
    peak, edges, cut_low, cut_high = _bands(spectrum.frequencies, mag, thresholds)
    level = float(peak[0]) + path_loss_db(spectrum.v_source)
    rows = []
    for threshold, (f_low, f_high), cut in zip(thresholds.tolist(), edges.tolist(),
                                               (cut_low | cut_high).tolist()):
        if cut:
            rows.append(BandwidthCapacityRow(threshold, None, None, None, None, None))
            continue
        signal = level - threshold
        bw = f_high - f_low
        cap = channel_capacity(bw, snr_db(signal, noise_floor_dbv), convention)
        rows.append(BandwidthCapacityRow(threshold, f_low, f_high, bw, signal, cap))
    return tuple(rows)


def scenario_link(sc: Scenario, m: float, tuned: bool = True) -> LinkCircuit:
    """Assemble the LinkCircuit a scenario implies at mutual inductance m.

    Each coil's inductance is estimate_inductance of its spec, a measured
    inductance_override when supplied. Each coil's loss is its spec's
    resistance_override when supplied, else its skin-effect resistance on
    the whole solver grid. Tuning capacitors (when tuned) resonate both
    meshes at the scenario's tuned_frequency using those inductances.
    """
    l_tx = estimate_inductance(sc.tx).value
    l_rx = estimate_inductance(sc.rx).value
    c_tx = c_rx = None
    if tuned:
        c_tx = tune_capacitance(l_tx, sc.tuned_frequency, parasitic=sc.tx.parasitic_capacitance)
        c_rx = receiver_capacitance(l_tx, c_tx, l_rx)
    return LinkCircuit(
        l_tx=l_tx, l_rx=l_rx, m=m,
        r_source=sc.r_source, r_load=sc.r_load,
        c_tx=c_tx, c_rx=c_rx, v_source=sc.v_source,
        parasitic_tx=sc.tx.parasitic_capacitance,
        parasitic_rx=sc.rx.parasitic_capacitance,
        r_coil_tx=sc.tx.resistance_override or 0.0,
        r_coil_rx=sc.rx.resistance_override or 0.0,
        esr_tx=sc.tx if sc.tx.resistance_override is None else None,
        esr_rx=sc.rx if sc.rx.resistance_override is None else None,
    )


def scenario_mutual_inductance(sc: Scenario, segments_per_turn: int = 360) -> float:
    """M (H) of the scenario's posed coil pair at the default tolerance.

    The Neumann integral runs on the exact winding curves. Kept for its
    callers, segments_per_turn changes no result.
    """
    tx_pose, rx_pose = scenario_poses(sc)
    tx = apply_pose(build_filament_coil(sc.tx, segments_per_turn), tx_pose)
    rx = apply_pose(build_filament_coil(sc.rx, segments_per_turn), rx_pose)
    return mutual_inductance(tx, rx).m


def _sweep_rows(values: List[float], freqs: np.ndarray, h: np.ndarray, v_source: float,
                r_loads: List[float], noise_floor_dbv: float, convention: str) -> List[SweepRow]:
    """Peak, 3 dB band and capacity of each transfer-ratio row of h
    (rows, F) over freqs: capacity_report's, with the band and capacity
    masked where the band runs off the grid, and the whole row masked
    where h is 0 throughout. p_rx_w is received_power of the linear peak
    at that row's load."""
    mags = np.abs(h)
    pk = np.argmax(mags, axis=1)
    peak, edges, cut_low, cut_high = _bands(freqs, path_loss_db(mags), 3.0)
    rows = []
    for i, value in enumerate(values):
        top = float(mags[i, pk[i]])
        if top == 0.0:
            rows.append(SweepRow(value, None, None, None, None, None))
            continue
        signal = float(peak[i]) + path_loss_db(v_source)
        bw = cap = None
        if not (cut_low[i] or cut_high[i]):
            bw = float(edges[i, 1] - edges[i, 0])
            cap = channel_capacity(bw, snr_db(signal, noise_floor_dbv), convention)
        rows.append(SweepRow(value, signal, float(freqs[pk[i]]), bw, cap,
                             received_power(top * v_source, r_loads[i])))
    return rows


def _sweep_values(values: Sequence[float]) -> List[float]:
    """values as sorted floats; an empty list, a NaN or infinite value or a
    repeated value raises ValueError."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("values must be non-empty")
    for v in vals:
        if not math.isfinite(v):
            raise ValueError(f"values must be finite; got {v:g}")
    vals.sort()
    for a, b in zip(vals, vals[1:]):
        if a == b:
            raise ValueError(f"values must not repeat; got {a:g} more than once")
    return vals


def misalignment_sweep(sc: Scenario, axis: str, values: Sequence[float], grid=None,
                       noise_floor_dbv: float = DEFAULT_NOISE_FLOOR_DBV,
                       convention: str = VOLTAGE) -> SweepResult:
    """Re-pose the geometry along one axis and summarize each link.

    axis is a key of SWEEP_RANGES, whose row names the Scenario field
    it moves and that field's domain. The tuning capacitors are computed
    once from the scenario's inductances and tuned_frequency and held
    fixed across the sweep: the worn device is tuned once, not per
    pose. Points whose field integration fails are masked rows, and
    the sweep continues; a masked point or an on-axis receiver is a
    warning. Terminations, source and coil losses are sc's (see
    scenario_link): set them on sc to sweep another link.
    """
    _check_budget(noise_floor_dbv, convention)
    if axis not in SWEEP_RANGES:
        raise ValueError(f"axis must be one of {sorted(SWEEP_RANGES)}, got {axis!r}")
    field, lo, hi, unit = SWEEP_RANGES[axis]
    vals = _sweep_values(values)
    if vals[0] < lo or vals[-1] > hi:
        raise ValueError(f"{axis} values must lie within [{lo:g}, {hi:g}] {unit}")

    sweep_grid = default_grid() if grid is None else np.asarray(grid, dtype=float)
    # fixes tuning; m replaced per point
    nominal = scenario_link(sc, m=0.0)
    rows = []
    for value in vals:
        try:
            m = scenario_mutual_inductance(replace(sc, **{field: value}))
            spectrum = frequency_sweep(replace(nominal, m=m), sweep_grid)
            rows += _sweep_rows([value], sweep_grid, spectrum.h[None], nominal.v_source,
                                [nominal.r_load], noise_floor_dbv, convention)
        except (ConvergenceError, SeparationError, SingularEvaluationError) as exc:
            rows.append(SweepRow(value, None, None, None, None, None))
            warnings.warn(f"{axis} = {value:g} {unit}: point masked: {exc}", stacklevel=2)
    if axis == LATERAL and any(v == 0.0 for v in vals):
        warnings.warn("lateral = 0 places the receiver on the transmitter axis; "
                      "not a wearable placement, kept and flagged", stacklevel=2)
    elif axis != LATERAL and sc.x_eye == 0.0:
        warnings.warn("x_eye = 0 places the receiver on the transmitter axis; "
                      "not a wearable placement, kept and flagged", stacklevel=2)
    return SweepResult(unit=unit, rows=tuple(rows))


def resistance_sweep(link: LinkCircuit, field: str, values: Sequence[float],
                     grid=None, noise_floor_dbv: float = DEFAULT_NOISE_FLOOR_DBV,
                     convention: str = VOLTAGE) -> SweepResult:
    """Re-terminate one side (field is r_source or r_load) and summarize."""
    _check_budget(noise_floor_dbv, convention)
    if field not in ("r_source", "r_load"):
        raise ValueError(f"field must be r_source or r_load, got {field!r}")
    sweep_grid = default_grid() if grid is None else np.asarray(grid, dtype=float)
    vals = _sweep_values(values)
    rows = []
    for block, h in termination_scan(link, field, np.array(vals), sweep_grid):
        r_loads = block.tolist() if field == "r_load" else [link.r_load] * len(block)
        rows += _sweep_rows(block.tolist(), sweep_grid, h, link.v_source, r_loads,
                            noise_floor_dbv, convention)
    return SweepResult(unit="ohm", rows=tuple(rows))


@dataclass(frozen=True)
class DualModeReport:
    """Load resistances for the two operating modes of a shared link.

    power mode maximizes delivered power; comm mode is the smallest
    load reaching 95% of the saturated received voltage. p_rx_* are
    received_power values: |V|^2/R_load, twice the cycle average.
    """

    power_mode_r_load: float
    comm_mode_r_load: float
    p_rx_power_mode: float
    p_rx_comm_mode: float
    v_rx_power_mode: float
    v_rx_comm_mode: float

    def __post_init__(self):
        check_fields(self)


def dual_mode_report(link: LinkCircuit, r_load_grid=None, grid=None) -> DualModeReport:
    """Pick power-mode and comm-mode loads from a log-spaced R_load scan.

    The saturated voltage is read at the largest load; a warning says so
    when it still rises by more than 1% over the top decade of loads.
    """
    loads = (np.logspace(-1, 4, 101) if r_load_grid is None
             else np.asarray(r_load_grid, dtype=float))
    if len(loads) < 2 or np.any(np.diff(loads) <= 0):
        raise ValueError("r_load grid must hold at least two strictly increasing loads")
    sweep_grid = default_grid() if grid is None else np.asarray(grid, dtype=float)
    v_rx = np.concatenate([np.max(np.abs(h), axis=1) for _, h in
                           termination_scan(link, "r_load", loads, sweep_grid)])
    v_rx *= link.v_source
    p_rx = np.array([received_power(v, r) for v, r in zip(v_rx.tolist(), loads.tolist())])
    i_power = int(np.argmax(p_rx))
    v_sat = v_rx[-1]
    i_top = int(np.searchsorted(loads, loads[-1] / 10.0))   # 0 when under a decade
    if v_sat > 1.01 * v_rx[i_top]:
        warnings.warn(f"received voltage still rises {v_sat / v_rx[i_top] - 1.0:.1%} over "
                      f"{loads[i_top]:g}-{loads[-1]:g} ohm; comm mode assumes saturation",
                      stacklevel=2)
    reaching = np.nonzero(v_rx >= 0.95 * v_sat)[0]
    i_comm = int(reaching[0])
    return DualModeReport(
        power_mode_r_load=float(loads[i_power]),
        comm_mode_r_load=float(loads[i_comm]),
        p_rx_power_mode=float(p_rx[i_power]),
        p_rx_comm_mode=float(p_rx[i_comm]),
        v_rx_power_mode=float(v_rx[i_power]),
        v_rx_comm_mode=float(v_rx[i_comm]),
    )
