"""Link budgets and parametric studies on top of the circuit solver.

Bandwidth extraction, Shannon capacity under the voltage-ratio SNR
reading (the power-ratio form is selectable), misalignment sweeps that
rebuild the geometry per point, and source/load impedance studies.

Levels are in dBV of the received amplitude; with a 1 V source this
coincides numerically with the transfer ratio in dB, which is how the
sweep tables should be read.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .geometry import Scenario, apply_pose, build_filament_coil, scenario_poses
from .lumped import estimate_inductance
from .field_coupling import (ConvergenceError, SeparationError,
                             SingularEvaluationError, mutual_inductance)
from .circuit import (LinkCircuit, Spectrum, _check_finite, _check_grid,
                      _mesh_solve, default_grid, frequency_sweep,
                      received_power, receiver_capacitance, tune_capacitance)

VOLTAGE = "voltage"
POWER = "power"

DEFAULT_NOISE_FLOOR_DBV = -85.0

TX_ANGLE = "tx_angle"
LATERAL = "lateral"
AXIAL = "axial"

# complex elements per (rows, F) temporary of a load scan, which solves
# max(1, _SCAN_ELEMENTS // F) terminations per mesh solve: 4 rows (64 KiB
# per temporary) on the default 1001-point grid. With one row per solve
# a run of a 451-load and two 224-load scans took 1.3-2.2x as long; 8
# rows saved a few percent more and raised its peak memory by 0.7 MiB.
_SCAN_ELEMENTS = 4096

# documented sweep domains: angle in deg, offsets in m
_SWEEP_RANGES = {
    TX_ANGLE: (0.0, 90.0, "deg"),
    LATERAL: (0.0, 0.200, "m"),
    AXIAL: (0.050, 0.300, "m"),
}


class TruncatedBandError(Exception):
    """A threshold band ran past the grid edge.

    f_low / f_high hold the crossings that were found (None on the
    truncated side), so callers can keep the partial result.
    """

    def __init__(self, message: str, f_low: Optional[float], f_high: Optional[float]):
        super().__init__(message)
        self.f_low = f_low
        self.f_high = f_high


def _snr_linear(snr_db: float, convention: str) -> float:
    if convention == VOLTAGE:
        return 10.0 ** (snr_db / 20.0)
    if convention == POWER:
        return 10.0 ** (snr_db / 10.0)
    raise ValueError(f"convention must be {VOLTAGE!r} or {POWER!r}, got {convention!r}")


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
        if self.bandwidth_hz <= 0:
            raise ValueError(f"bandwidth_hz must be > 0, got {self.bandwidth_hz!r}")
        if abs(self.snr_db - (self.signal_dbv - self.noise_floor_dbv)) > 1e-9:
            raise ValueError("snr_db inconsistent with signal and noise levels")
        expected = self.bandwidth_hz * math.log2(1.0 + _snr_linear(self.snr_db, self.convention))
        if abs(self.capacity_bps - expected) > 1e-12 * max(abs(expected), 1.0):
            raise ValueError(
                f"capacity_bps {self.capacity_bps!r} inconsistent with BW*log2(1+SNR) = {expected!r}"
            )
        if self.capacity_bps < 0:
            raise ValueError("capacity must be >= 0")


@dataclass(frozen=True)
class SweepRow:
    """Per-point summary of a sweep; None fields are masked values."""

    value: float
    peak_db: Optional[float]
    peak_freq_hz: Optional[float]
    bw3db_hz: Optional[float]
    capacity_bps: Optional[float]
    p_rx_w: Optional[float]

    @property
    def masked(self) -> bool:
        return self.peak_db is None


@dataclass(frozen=True)
class SweepResult:
    """Ordered sweep of one scalar parameter with per-point summaries."""

    param: str
    unit: str
    rows: Tuple[SweepRow, ...]
    notes: Tuple[str, ...] = ()

    def __post_init__(self):
        values = [r.value for r in self.rows]
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("sweep rows must be ordered by strictly increasing parameter value")

    @property
    def values(self) -> Tuple[float, ...]:
        return tuple(r.value for r in self.rows)


@dataclass(frozen=True)
class BandwidthCapacityRow:
    """One threshold level of the bandwidth-vs-capacity tradeoff."""

    threshold_db: float
    f_low_hz: Optional[float]
    f_high_hz: Optional[float]
    bandwidth_hz: Optional[float]
    signal_dbv: Optional[float]
    capacity_bps: Optional[float]

    @property
    def masked(self) -> bool:
        return self.bandwidth_hz is None


@dataclass(frozen=True)
class BandwidthStudy:
    rows: Tuple[BandwidthCapacityRow, ...]

    @property
    def best(self) -> Optional[BandwidthCapacityRow]:
        """Row of maximum capacity, or None when every row is masked."""
        live = [r for r in self.rows if not r.masked]
        if not live:
            return None
        return max(live, key=lambda r: r.capacity_bps)


def _band_edges(freqs: np.ndarray, mag_db: np.ndarray, drop_db: float) -> Tuple[float, float]:
    """Outermost crossings of (peak - drop_db), linear interpolation in dB."""
    peak = float(np.max(mag_db))
    thr = peak - drop_db
    above = mag_db >= thr
    i_lo = int(np.argmax(above))                      # first index at/above
    i_hi = len(above) - 1 - int(np.argmax(above[::-1]))  # last index at/above
    left_trunc = i_lo == 0
    right_trunc = i_hi == len(above) - 1

    f_low = f_high = None
    if not left_trunc:
        m0, m1 = mag_db[i_lo - 1], mag_db[i_lo]
        t = (thr - m0) / (m1 - m0)
        f_low = float(freqs[i_lo - 1] + t * (freqs[i_lo] - freqs[i_lo - 1]))
    if not right_trunc:
        m0, m1 = mag_db[i_hi], mag_db[i_hi + 1]
        t = (thr - m0) / (m1 - m0)
        f_high = float(freqs[i_hi] + t * (freqs[i_hi + 1] - freqs[i_hi]))
    if left_trunc or right_trunc:
        sides = [s for s, trunc in (("low", left_trunc), ("high", right_trunc)) if trunc]
        raise TruncatedBandError(
            f"{drop_db:g} dB band extends past the grid edge on the {' and '.join(sides)} side",
            f_low=f_low, f_high=f_high,
        )
    return f_low, f_high


def _db(mags: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(mags)


def three_db_bandwidth(spectrum: Spectrum) -> Tuple[float, float, float]:
    """(f_low, f_high, width) of the band within 3 dB of the peak.

    Crossings are the outermost ones, interpolated linearly in the dB
    domain between grid points. A band running past the grid edge
    raises TruncatedBandError carrying whichever crossing was found.
    """
    f_low, f_high = _band_edges(spectrum.frequencies, _db(np.abs(spectrum.h)), 3.0)
    return f_low, f_high, f_high - f_low


def snr_db(signal_dbv: float, noise_floor_dbv: float) -> float:
    """SNR in dB: signal level minus noise floor, both in dBV."""
    return signal_dbv - noise_floor_dbv


def channel_capacity(bw: float, snr_db: float, convention: str = VOLTAGE) -> float:
    """Shannon capacity BW*log2(1 + SNR_linear) in bit/s.

    The default reads snr_db as a voltage ratio (10^(snr/20)), matching
    link budgets quoted in dBV; convention="power" selects the standard
    power-ratio form 10^(snr/10).
    """
    if bw <= 0:
        raise ValueError(f"bandwidth must be > 0, got {bw!r}")
    return bw * math.log2(1.0 + _snr_linear(snr_db, convention))


def capacity_report(spectrum: Spectrum, noise_floor_dbv: float = DEFAULT_NOISE_FLOOR_DBV,
                    source_level_dbv: float = 0.0,
                    convention: str = VOLTAGE) -> CapacityReport:
    """Budget at the 3 dB bandwidth of a spectrum's peak."""
    mag = _db(np.abs(spectrum.h))
    signal = float(np.max(mag)) + source_level_dbv
    _, _, bw = three_db_bandwidth(spectrum)
    snr = snr_db(signal, noise_floor_dbv)
    return CapacityReport(
        bandwidth_hz=bw, signal_dbv=signal, noise_floor_dbv=noise_floor_dbv,
        snr_db=snr, capacity_bps=channel_capacity(bw, snr, convention),
        convention=convention,
    )


def capacity_vs_bandwidth(spectrum: Spectrum, noise_floor_dbv: float = DEFAULT_NOISE_FLOOR_DBV,
                          source_level_dbv: float = 0.0,
                          convention: str = VOLTAGE) -> BandwidthStudy:
    """Capacity across detection thresholds 1..30 dB below the peak.

    Widening the accepted band costs signal level; each row reports the
    band at (peak - threshold) and the capacity at that reduced level.
    Rows whose band runs off the grid are masked, not dropped.
    """
    mag = _db(np.abs(spectrum.h))
    peak = float(np.max(mag)) + source_level_dbv
    rows = []
    for threshold in range(1, 31):
        signal = peak - threshold
        try:
            f_low, f_high = _band_edges(spectrum.frequencies, mag, float(threshold))
        except TruncatedBandError:
            rows.append(BandwidthCapacityRow(float(threshold), None, None, None, None, None))
            continue
        bw = f_high - f_low
        cap = channel_capacity(bw, snr_db(signal, noise_floor_dbv), convention)
        rows.append(BandwidthCapacityRow(float(threshold), f_low, f_high, bw, signal, cap))
    return BandwidthStudy(rows=tuple(rows))


def scenario_link(sc: Scenario, m: float, tuned: bool = True) -> LinkCircuit:
    """Assemble the LinkCircuit a scenario implies at mutual inductance m.

    Inductances come from the coil specs unless the scenario carries
    measured overrides; coil losses are the coil specs' skin-effect
    resistance, evaluated on the whole solver grid; tuning capacitors (when
    tuned) resonate both meshes at the scenario's tuned_frequency using
    those same inductances.
    """
    l_tx = estimate_inductance(sc.tx, sc.l_tx_override).value
    l_rx = estimate_inductance(sc.rx, sc.l_rx_override).value
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
        esr_tx=sc.tx, esr_rx=sc.rx,
    )


def scenario_mutual_inductance(sc: Scenario, segments_per_turn: int = 360,
                               tolerance: float = 1e-3) -> float:
    """M (H) of the scenario's posed coil pair.

    The Neumann integral runs on the exact winding curves (the spectral
    route); segments_per_turn sets only the polylines that the
    separation check uses.
    """
    tx_pose, rx_pose = scenario_poses(sc)
    tx = apply_pose(build_filament_coil(sc.tx, segments_per_turn), tx_pose)
    rx = apply_pose(build_filament_coil(sc.rx, segments_per_turn), rx_pose)
    return mutual_inductance(tx, rx, tolerance=tolerance).m


def _sweep_row(value: float, freqs: np.ndarray, h: np.ndarray, v_source: float,
               r_load: float, noise_floor_dbv: float, convention: str) -> SweepRow:
    """Peak, 3 dB band and capacity of one transfer-ratio row h over freqs."""
    mags = np.abs(h)
    pk = int(np.argmax(mags))
    v_peak = float(mags[pk]) * v_source
    if v_peak == 0.0:
        return SweepRow(value, None, None, None, None, None)
    peak_db = 20.0 * math.log10(v_peak)
    p_rx = received_power(v_peak, r_load)
    try:
        f_low, f_high = _band_edges(freqs, _db(mags), 3.0)
        bw = f_high - f_low
        cap = channel_capacity(bw, snr_db(peak_db, noise_floor_dbv), convention)
    except TruncatedBandError:
        bw = None
        cap = None
    return SweepRow(value, peak_db, float(freqs[pk]), bw, cap, p_rx)


def _termination_blocks(link: LinkCircuit, field: str, values: np.ndarray,
                        grid: np.ndarray):
    """Yield (values block, h block) of the link re-terminated at each value.

    field is r_source or r_load; values must be > 0. Each block solves
    up to _SCAN_ELEMENTS // len(grid) values at once as a column of
    terminations; on a grid of two or more points row k of h is
    bit-identical to the h of frequency_sweep(replace(link,
    field=value_k), grid). The grid and finiteness checks are the ones
    a Spectrum makes.
    """
    _check_grid(grid)
    rows = max(1, _SCAN_ELEMENTS // len(grid))
    for start in range(0, len(values), rows):
        block = values[start:start + rows]
        h, _ = _mesh_solve(link, grid, **{field: block[:, None]})
        _check_finite(h)
        yield block, h


def _scenario_variant(sc: Scenario, axis: str, value: float) -> Scenario:
    if axis == TX_ANGLE:
        return replace(sc, tx_angle_deg=value)
    if axis == LATERAL:
        return replace(sc, x_eye=value)
    return replace(sc, z_eye=value)


def misalignment_sweep(sc: Scenario, axis: str, values: Sequence[float],
                       segments_per_turn: int = 360, tolerance: float = 1e-3,
                       grid=None, noise_floor_dbv: float = DEFAULT_NOISE_FLOOR_DBV,
                       convention: str = VOLTAGE,
                       link_template: Optional[LinkCircuit] = None) -> SweepResult:
    """Re-pose the geometry along one axis and summarize each link.

    axis is tx_angle (deg, 0-90), lateral = x_eye (m, 0-0.2), or
    axial = z_eye (m, 0.05-0.3). The tuning capacitors are computed
    once from the scenario's inductances and tuned_frequency and held
    fixed across the sweep: the worn device is tuned once, not per
    pose. Points whose field integration fails are masked rows, and
    the sweep continues. link_template, when given, replaces the
    scenario-derived circuit (its m is overwritten per point).
    """
    if axis not in _SWEEP_RANGES:
        raise ValueError(f"axis must be one of {sorted(_SWEEP_RANGES)}, got {axis!r}")
    lo, hi, unit = _SWEEP_RANGES[axis]
    vals = sorted(float(v) for v in values)
    if not vals:
        raise ValueError("values must be non-empty")
    if vals[0] < lo or vals[-1] > hi:
        raise ValueError(f"{axis} values must lie within [{lo:g}, {hi:g}] {unit}")

    sweep_grid = default_grid() if grid is None else np.asarray(grid, dtype=float)
    # fixes tuning; m replaced per point
    nominal = scenario_link(sc, m=0.0) if link_template is None else replace(link_template, m=0.0)
    rows, notes = [], []
    for value in vals:
        try:
            m = scenario_mutual_inductance(_scenario_variant(sc, axis, value),
                                           segments_per_turn, tolerance)
            spectrum = frequency_sweep(replace(nominal, m=m), sweep_grid)
            rows.append(_sweep_row(value, spectrum.frequencies, spectrum.h, sc.v_source,
                                   sc.r_load, noise_floor_dbv, convention))
        except (ConvergenceError, SeparationError, SingularEvaluationError) as exc:
            rows.append(SweepRow(value, None, None, None, None, None))
            notes.append(f"{axis} = {value:g} {unit}: point masked: {exc}")
    if axis == LATERAL and any(v == 0.0 for v in vals):
        notes.append("lateral = 0 places the receiver on the transmitter axis; "
                     "not a wearable placement, kept and flagged")
    elif sc.x_eye == 0.0:
        notes.append("x_eye = 0 places the receiver on the transmitter axis; "
                     "not a wearable placement, kept and flagged")
    return SweepResult(param=axis, unit=unit, rows=tuple(rows), notes=tuple(notes))


def resistance_sweep(link: LinkCircuit, field: str, values: Sequence[float],
                     grid=None, noise_floor_dbv: float = DEFAULT_NOISE_FLOOR_DBV,
                     convention: str = VOLTAGE) -> SweepResult:
    """Re-terminate one side (field is r_source or r_load) and summarize."""
    if field not in ("r_source", "r_load"):
        raise ValueError(f"field must be r_source or r_load, got {field!r}")
    sweep_grid = default_grid() if grid is None else np.asarray(grid, dtype=float)
    vals = sorted(float(v) for v in values)
    if not vals:
        raise ValueError("values must be non-empty")
    if vals[0] <= 0:
        raise ValueError(f"{field} values must be > 0")
    rows = []
    for block, h in _termination_blocks(link, field, np.array(vals), sweep_grid):
        for v, row in zip(block.tolist(), h):
            r_load = v if field == "r_load" else link.r_load
            rows.append(_sweep_row(v, sweep_grid, row, link.v_source, r_load,
                                   noise_floor_dbv, convention))
    return SweepResult(param=field, unit="ohm", rows=tuple(rows))


def impedance_sweep(link: LinkCircuit, r_source_values: Sequence[float],
                    r_load_values: Sequence[float], grid=None,
                    noise_floor_dbv: float = DEFAULT_NOISE_FLOOR_DBV,
                    convention: str = VOLTAGE) -> Tuple[SweepResult, SweepResult]:
    """Source- and load-resistance studies, the other side held nominal.

    Returns (r_source sweep, r_load sweep); each row summarizes the
    resonant peak of the re-terminated link.
    """
    sweep_grid = default_grid() if grid is None else np.asarray(grid, dtype=float)
    return (
        resistance_sweep(link, "r_source", r_source_values, sweep_grid,
                         noise_floor_dbv, convention),
        resistance_sweep(link, "r_load", r_load_values, sweep_grid,
                         noise_floor_dbv, convention),
    )


@dataclass(frozen=True)
class DualModeReport:
    """Load resistances for the two operating modes of a shared link.

    power mode maximizes delivered power; comm mode is the smallest
    load reaching 95% of the saturated received voltage.
    """

    power_mode_r_load: float
    comm_mode_r_load: float
    p_rx_power_mode: float
    p_rx_comm_mode: float
    v_rx_power_mode: float
    v_rx_comm_mode: float


def dual_mode_report(link: LinkCircuit, r_load_grid=None, grid=None) -> DualModeReport:
    """Pick power-mode and comm-mode loads from a log-spaced R_load scan.

    The saturated voltage is read at the largest load; a warning says so
    when it still rises by more than 1% over the top decade of loads.
    """
    loads = (np.logspace(-1, 4, 101) if r_load_grid is None
             else np.asarray(r_load_grid, dtype=float))
    if np.any(loads <= 0) or len(loads) < 2 or np.any(np.diff(loads) <= 0):
        raise ValueError("r_load grid must be > 0 and strictly increasing")
    sweep_grid = default_grid() if grid is None else np.asarray(grid, dtype=float)
    v_rx = np.concatenate([np.max(np.abs(h), axis=1) for _, h in
                           _termination_blocks(link, "r_load", loads, sweep_grid)])
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
