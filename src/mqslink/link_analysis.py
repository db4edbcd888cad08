"""Link budgets and parametric studies on top of the circuit solver.

Bandwidth extraction, Shannon capacity under a voltage- or power-ratio
SNR reading, misalignment sweeps that rebuild the geometry per point,
and source/load impedance studies on circuit.termination_scan. Sweep
notes are warnings. The caller gives every run setting: the frequency
grid, a dual-mode study's loads, the noise floor and the SNR convention.

Levels are in dBV of the received amplitude, path_loss_db(h) plus
path_loss_db(v_source); with a 1 V source they read as the transfer ratio.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .geometry import (LATERAL, SWEEP_RANGES, Scenario, apply_pose, build_filament_coil,
                       check_fields, scenario_poses)
from .lumped import estimate_inductance
from .field_coupling import ConvergenceError, SeparationError, mutual_inductance
from .circuit import (LinkCircuit, Spectrum, check_finite, frequency_sweep, path_loss_db,
                      received_power, receiver_capacitance, termination_scan,
                      tune_capacitance)

VOLTAGE = "voltage"
POWER = "power"


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
    """Shannon link budget at one operating point; snr_db and
    capacity_bps are computed from the other fields."""

    bandwidth_hz: float
    signal_dbv: float
    noise_floor_dbv: float
    snr_db: float = field(init=False)
    capacity_bps: float = field(init=False)
    convention: str

    def __post_init__(self):
        check_fields(self, positive=("bandwidth_hz",))
        snr = snr_db(self.signal_dbv, self.noise_floor_dbv)
        object.__setattr__(self, "snr_db", snr)
        object.__setattr__(self, "capacity_bps",
                           channel_capacity(self.bandwidth_hz, snr, self.convention))


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
    """Peak, (rows, 2) edges at (peak - drop), low/high cut masks and a
    zero-width mask of each dB row of mag (rows, F); drop is a scalar or one
    value per row. Edges interpolate linearly in dB; next to a zero of h (-inf
    dB) an edge is the sample at or above the threshold, that interpolation's
    limit, so a lone sample between two zeros has coinciding edges. A cut
    side's edge is meaningless."""
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
    return peak, edges, cut_low, cut_high, edges[:, 0] == edges[:, 1]


def snr_db(signal_dbv: float, noise_floor_dbv: float) -> float:
    """SNR in dB: signal level minus noise floor, both in dBV."""
    return signal_dbv - noise_floor_dbv


def channel_capacity(bw: float, snr_db: float, convention: str) -> float:
    """Shannon capacity BW*log2(1 + SNR_linear) in bit/s.

    convention="voltage" reads snr_db as a voltage ratio (10^(snr/20)),
    matching link budgets quoted in dBV; convention="power" selects the
    standard power-ratio form 10^(snr/10).
    """
    if not 0 < bw < math.inf:
        raise ValueError(f"bandwidth must be finite and > 0, got {bw!r}")
    if not math.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, got {snr_db!r}")
    return bw * math.log2(1.0 + _snr_linear(snr_db, convention))


def capacity_report(spectrum: Spectrum, noise_floor_dbv: float,
                    convention: str) -> CapacityReport:
    """Budget at the 3 dB bandwidth of a spectrum's peak, whose level is
    path_loss_db(h) plus path_loss_db(spectrum.v_source). The band's
    outermost crossings interpolate linearly in dB; past a grid edge the
    band raises TruncatedBandError, and a band of zero width ValueError."""
    _check_budget(noise_floor_dbv, convention)
    peak, edges, cut_low, cut_high, empty = _bands(spectrum.frequencies,
                                                   path_loss_db(spectrum.h)[None], 3.0)
    sides = " and ".join(s for s, cut in (("low", cut_low[0]), ("high", cut_high[0])) if cut)
    if sides:
        raise TruncatedBandError(f"3 dB band extends past the grid edge on the {sides} side")
    f_low, f_high = edges[0].tolist()
    if empty[0]:
        raise ValueError(f"3 dB band has zero width: both edges at {f_low!r} Hz")
    return CapacityReport(f_high - f_low, float(peak[0]) + path_loss_db(spectrum.v_source),
                          noise_floor_dbv, convention)


def capacity_vs_bandwidth(spectrum: Spectrum, noise_floor_dbv: float,
                          convention: str) -> Tuple[BandwidthCapacityRow, ...]:
    """Capacity across detection thresholds 1..30 dB below the peak.

    Widening the accepted band costs signal level; each row reports the
    band at (peak - threshold) and the capacity at that reduced level,
    the peak level as in capacity_report. Rows whose band runs off the
    grid or has zero width are masked, not dropped.
    """
    _check_budget(noise_floor_dbv, convention)
    thresholds = np.arange(1.0, 31.0)
    mag = np.broadcast_to(path_loss_db(spectrum.h), (len(thresholds), len(spectrum.h)))
    peak, edges, cut_low, cut_high, empty = _bands(spectrum.frequencies, mag, thresholds)
    level = float(peak[0]) + path_loss_db(spectrum.v_source)
    rows = []
    for threshold, (f_low, f_high), cut in zip(thresholds.tolist(), edges.tolist(),
                                               (cut_low | cut_high | empty).tolist()):
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
    inductance_override when supplied, and its loss is the spec itself
    (see LinkCircuit). Tuning capacitors (when tuned) resonate both
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
        esr_tx=sc.tx, esr_rx=sc.rx,
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


def _row_summaries(freqs: np.ndarray, mags: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The per-row reductions of a (rows, F) block of |h| over freqs that a
    sweep row reads: max |h| and its frequency, then the peak (dB), width
    and mask (cut at a grid edge, or of zero width) of the 3 dB band."""
    pk = np.argmax(mags, axis=1)
    peak, edges, cut_low, cut_high, empty = _bands(freqs, path_loss_db(mags), 3.0)
    with np.errstate(invalid="ignore"):     # a masked band's edges may be infinite
        width = edges[:, 1] - edges[:, 0]
    return (mags[np.arange(len(pk)), pk], freqs[pk], peak, width,
            cut_low | cut_high | empty)


# termination-scan blocks whose |h| one _row_summaries call takes: on a
# 4-row block of a 1001-point grid most of a band pass is per-call cost.
# A 224-row sweep, its solves included, took 4.0 ms with 4 blocks (16
# rows, 128 KiB of |h|) per pass, against 5.8 ms block by block, 4.6 at
# 2 blocks and 4.7 at 8; the solve itself stays in 4-row blocks
_SUMMARY_BLOCKS = 4


def _scan_summaries(scan, freqs: np.ndarray):
    """Yield the _row_summaries of a termination scan's |h|, _SUMMARY_BLOCKS
    blocks at a time."""
    mags = []
    for _, h in scan:
        mags.append(np.abs(h))
        if len(mags) == _SUMMARY_BLOCKS:
            yield _row_summaries(freqs, np.concatenate(mags))
            mags = []
    if mags:
        yield _row_summaries(freqs, np.concatenate(mags))


def _sweep_rows(values: List[float], summaries: Iterable[Tuple[np.ndarray, ...]],
                v_source: float, r_load, noise_floor_dbv: float,
                convention: str) -> List[SweepRow]:
    """The row of each value from the _row_summaries of its rows' |h|, in
    order: capacity_report's peak, 3 dB band and capacity, with the band
    and capacity masked where the band runs off the grid or has zero
    width, and the whole row masked where h is 0 throughout. p_rx_w is
    received_power of the linear peak at r_load, one load per row or one
    for all. A non-finite h raises ValueError through its row's max |h|."""
    top, f_peak, peak, width, cut = (np.concatenate(parts) for parts in zip(*summaries))
    check_finite(top)
    signal = (peak + path_loss_db(v_source)).tolist()
    p_rx = received_power(top * v_source, r_load).tolist()
    rows = []
    for value, t, s, f, bw, c, p in zip(values, top.tolist(), signal, f_peak.tolist(),
                                        width.tolist(), cut.tolist(), p_rx):
        if t == 0.0:
            rows.append(SweepRow(value, None, None, None, None, None))
        elif c:
            rows.append(SweepRow(value, s, f, None, None, p))
        else:
            cap = channel_capacity(bw, snr_db(s, noise_floor_dbv), convention)
            rows.append(SweepRow(value, s, f, bw, cap, p))
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


def misalignment_sweep(sc: Scenario, axis: str, values: Sequence[float], grid,
                       noise_floor_dbv: float, convention: str) -> SweepResult:
    """Re-pose the geometry along one axis and summarize each link.

    axis is a key of SWEEP_RANGES, whose row names the Scenario field
    it moves and that field's domain; each value's Scenario is built,
    and so checked against the domain, before any solve. The tuning
    capacitors are computed once from the scenario's inductances and
    tuned_frequency and held fixed across the sweep: the worn device is
    tuned once, not per pose. Points whose field integration fails are
    masked rows, and the sweep continues; a masked point or an on-axis
    receiver is a warning. Terminations, source and coil losses are
    sc's (see scenario_link): set them on sc to sweep another link.
    """
    _check_budget(noise_floor_dbv, convention)
    if axis not in SWEEP_RANGES:
        raise ValueError(f"axis must be one of {sorted(SWEEP_RANGES)}, got {axis!r}")
    field, *_, unit = SWEEP_RANGES[axis]
    vals = _sweep_values(values)
    poses = [replace(sc, **{field: value}) for value in vals]

    grid = np.asarray(grid, dtype=float)
    # fixes tuning; m replaced per point
    nominal = scenario_link(sc, m=0.0)
    rows = []
    for value, posed in zip(vals, poses):
        try:
            m = scenario_mutual_inductance(posed)
            spectrum = frequency_sweep(replace(nominal, m=m), grid)
            rows += _sweep_rows([value], [_row_summaries(grid, np.abs(spectrum.h)[None])],
                                nominal.v_source, nominal.r_load, noise_floor_dbv, convention)
        except (ConvergenceError, SeparationError) as exc:
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
                     grid, noise_floor_dbv: float, convention: str) -> SweepResult:
    """Re-terminate one side (field is r_source or r_load) and summarize."""
    _check_budget(noise_floor_dbv, convention)
    if field not in ("r_source", "r_load"):
        raise ValueError(f"field must be r_source or r_load, got {field!r}")
    grid = np.asarray(grid, dtype=float)
    vals = np.array(_sweep_values(values))
    summaries = _scan_summaries(termination_scan(link, field, vals, grid), grid)
    rows = _sweep_rows(vals.tolist(), summaries, link.v_source,
                       vals if field == "r_load" else link.r_load, noise_floor_dbv, convention)
    return SweepResult(unit="ohm", rows=tuple(rows))


@dataclass(frozen=True)
class DualModeReport:
    """Load resistances for the two operating modes of a shared link.

    power mode maximizes delivered power; comm mode is the smallest
    load reaching 95% of the saturated received voltage. p_rx_* are
    received_power values: |V|^2/R_load, twice the cycle average. Each
    field name, its unit the suffix, is its key in dual_mode.json.
    """

    power_mode_r_load_ohm: float
    comm_mode_r_load_ohm: float
    p_rx_power_mode_w: float
    p_rx_comm_mode_w: float
    v_rx_power_mode_v: float
    v_rx_comm_mode_v: float

    def __post_init__(self):
        check_fields(self)


def dual_mode_report(link: LinkCircuit, r_load_grid, grid) -> DualModeReport:
    """Pick power-mode and comm-mode loads from a scan of the link over the
    increasing loads r_load_grid, each solved on the frequency grid.

    The saturated voltage is read at the largest load; a warning says so
    when it still rises by more than 1% over the top decade of loads.
    """
    loads = np.asarray(r_load_grid, dtype=float)
    if len(loads) < 2 or np.any(np.diff(loads) <= 0):
        raise ValueError("r_load grid must hold at least two strictly increasing loads")
    v_rx = np.concatenate([np.max(np.abs(h), axis=1) for _, h in
                           termination_scan(link, "r_load", loads,
                                            np.asarray(grid, dtype=float))])
    check_finite(v_rx)
    v_rx *= link.v_source
    p_rx = received_power(v_rx, loads)
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
        power_mode_r_load_ohm=float(loads[i_power]),
        comm_mode_r_load_ohm=float(loads[i_comm]),
        p_rx_power_mode_w=float(p_rx[i_power]),
        p_rx_comm_mode_w=float(p_rx[i_comm]),
        v_rx_power_mode_v=float(v_rx[i_power]),
        v_rx_comm_mode_v=float(v_rx[i_comm]),
    )
