"""Resonant two-coil circuit: coupled series-series meshes.

The general solver handles series tuning capacitors on both sides plus
optional parallel parasitic capacitances across each coil, in closed
form (no matrix solve, no division-by-zero frequencies as long as the
terminations are resistive). With the capacitors absent and lossless
coils it reduces algebraically to the classical untuned two-mesh
transfer expression, and that reduction is enforced by tests rather
than assumed. Each coil's loss is either a fixed resistance or the
skin-effect resistance of its CoilSpec, evaluated on the whole
frequency grid at once. The terminations may also come as a (rows, 1)
column that broadcasts elementwise against the grid, so one call
solves a block of re-terminated links; on a grid of two or more points
each row is bit-identical to the solve of its own link.

Amplitude convention: v_source is a peak amplitude; powers use the
(1/2)*Re(V*conj(I)) peak convention throughout.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .geometry import CoilSpec
from .lumped import ac_resistance

FrequencyLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class LinkCircuit:
    """Lumped model of the full link at one geometric configuration.

    Coil losses are fixed (r_coil_tx / r_coil_rx) unless esr_tx / esr_rx
    holds a CoilSpec; that side then uses the coil's skin-effect
    resistance, evaluated on the whole frequency grid at once.
    c_tx / c_rx are the series tuning capacitors; absent (None) means
    that side is untuned, the capacitor position shorted. Parasitic
    capacitances, when given, sit in parallel with their coil.
    """

    l_tx: float
    l_rx: float
    m: float
    r_source: float
    r_load: float
    r_coil_tx: float = 0.0
    r_coil_rx: float = 0.0
    c_tx: Optional[float] = None
    c_rx: Optional[float] = None
    v_source: float = 1.0
    parasitic_tx: Optional[float] = None
    parasitic_rx: Optional[float] = None
    esr_tx: Optional[CoilSpec] = None
    esr_rx: Optional[CoilSpec] = None

    def __post_init__(self):
        if self.l_tx <= 0 or self.l_rx <= 0:
            raise ValueError("coil inductances must be > 0")
        if self.m * self.m > self.l_tx * self.l_rx:
            raise ValueError(
                f"m^2 = {self.m * self.m!r} exceeds l_tx*l_rx = {self.l_tx * self.l_rx!r} "
                "(coupling coefficient above 1)"
            )
        if self.r_source <= 0 or self.r_load <= 0:
            raise ValueError("r_source and r_load must be > 0")
        if self.r_coil_tx < 0 or self.r_coil_rx < 0:
            raise ValueError("coil resistances must be >= 0")
        if self.v_source <= 0:
            raise ValueError(f"v_source must be > 0, got {self.v_source!r}")
        for name in ("c_tx", "c_rx", "parasitic_tx", "parasitic_rx"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be > 0 when given, got {value!r}")
        for name in ("esr_tx", "esr_rx"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, CoilSpec):
                raise TypeError(f"{name} must be a CoilSpec or None, got {value!r}")

    def coil_resistance_tx(self, f: FrequencyLike) -> np.ndarray:
        return _coil_resistance(self.esr_tx, self.r_coil_tx, f)

    def coil_resistance_rx(self, f: FrequencyLike) -> np.ndarray:
        return _coil_resistance(self.esr_rx, self.r_coil_rx, f)


def _coil_resistance(spec: Optional[CoilSpec], r_fixed: float, f: FrequencyLike) -> np.ndarray:
    """Coil loss (ohm) at each f: the spec's skin-effect ESR, else r_fixed."""
    r = r_fixed if spec is None else ac_resistance(spec, f)
    return np.broadcast_to(r, np.shape(f)).astype(float)[()]


def _check_grid(f: np.ndarray) -> None:
    """Raise ValueError unless f is a non-empty, positive, increasing 1-D grid."""
    if f.ndim != 1 or len(f) < 1:
        raise ValueError("frequency grid must be a non-empty 1-D array")
    if np.any(f <= 0):
        raise ValueError("frequencies must be > 0")
    if len(f) > 1 and np.any(np.diff(f) <= 0):
        raise ValueError("frequency grid must be strictly increasing")


def _check_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError("spectrum values must be finite")


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Transfer ratio and input impedance on a frequency grid.

    h = V_rx/V_source (complex), z11 = input impedance seen by the
    ideal source, excluding r_source (complex ohm).
    """

    frequencies: np.ndarray
    h: np.ndarray
    z11: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float)
        h = np.asarray(self.h, dtype=complex)
        z = np.asarray(self.z11, dtype=complex)
        _check_grid(f)
        if h.shape != f.shape or z.shape != f.shape:
            raise ValueError("h and z11 must match the frequency grid shape")
        _check_finite(h)
        _check_finite(z)
        for name, arr in (("frequencies", f), ("h", h), ("z11", z)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.frequencies)


def _mesh_solve(link: LinkCircuit, f: FrequencyLike, r_source=None, r_load=None):
    """Closed-form mesh solution: (h, input_current) at each f.

    r_source / r_load default to the link's own; either may instead be
    a (rows, 1) column, which broadcasts against the (F,) grid so h
    comes back as (rows, F), row k being the link re-terminated at the
    k-th value. Every operation is elementwise and in the same order as
    for a scalar termination, so with F >= 2 each row keeps the bits of
    its own solve (with F == 1 numpy loops along the rows instead, and
    a row may differ in the last bit). The terms that do not depend on
    the terminations (jw, the capacitor impedances, z_l1/z_l2 with the
    coil ESR, wm) stay (F,), and so does alpha1 when only r_load
    varies. input_current() gives the source current i_in; it runs
    only when called, so callers that read h alone skip the input-side
    tail.
    """
    farr = np.asarray(f, dtype=float)
    if np.any(farr <= 0):
        raise ValueError("frequency must be > 0")
    r_source = link.r_source if r_source is None else r_source
    r_load = link.r_load if r_load is None else r_load
    w = 2.0 * math.pi * farr
    jw = 1j * w

    z_ctx = 1.0 / (jw * link.c_tx) if link.c_tx is not None else 0.0
    z_crx = 1.0 / (jw * link.c_rx) if link.c_rx is not None else 0.0
    z_s1 = r_source + z_ctx
    z_s2 = r_load + z_crx
    z_l1 = link.coil_resistance_tx(farr) + jw * link.l_tx
    z_l2 = link.coil_resistance_rx(farr) + jw * link.l_rx

    jw_cp1 = jw * link.parasitic_tx if link.parasitic_tx is not None else 0.0
    jw_cp2 = jw * link.parasitic_rx if link.parasitic_rx is not None else 0.0

    alpha1 = 1.0 + jw_cp1 * z_s1
    beta2 = jw_cp2 + 1.0 / z_s2
    d2 = 1.0 + beta2 * z_l2
    wm = w * link.m
    # the denominator and V_rx stay unnamed, so a block's (rows, F)
    # temporaries are freed as soon as they are used
    i_l1 = link.v_source / (z_s1 + alpha1 * z_l1 + alpha1 * beta2 * wm * wm / d2)
    v2 = 1j * wm * i_l1 / d2

    def input_current():
        i_l2 = -beta2 * v2
        v1 = z_l1 * i_l1 + 1j * wm * i_l2
        return i_l1 + jw_cp1 * v1

    return v2 * r_load / z_s2 / link.v_source, input_current


def transfer_ratio(link: LinkCircuit, f: FrequencyLike):
    """Complex V_rx/V_source at frequency f (scalar or array)."""
    h, _ = _mesh_solve(link, f)
    return complex(h) if np.ndim(f) == 0 else h


def transfer_ratio_untuned(link: LinkCircuit, f: FrequencyLike):
    """V_rx/V_source of the capacitor-free link by the direct two-mesh form.

    H = jwM*R_load / ((jwL_tx + R_s)(jwL_rx + R_l) + w^2 M^2) with the
    coil losses folded into the source and load positions (R_s =
    r_source + coil ESR, R_l = r_load + coil ESR) and the numerator
    keeping the bare r_load, since V_rx is measured across it alone.
    Kept as an independent expression: the general solver must reduce
    to this exactly, and tests hold the pair together.
    """
    if link.c_tx is not None or link.c_rx is not None:
        raise ValueError("untuned transfer ratio requires both tuning capacitors absent")
    if link.parasitic_tx is not None or link.parasitic_rx is not None:
        raise ValueError("untuned transfer ratio requires parasitic capacitances absent")
    farr = np.asarray(f, dtype=float)
    if np.any(farr <= 0):
        raise ValueError("frequency must be > 0")
    w = 2.0 * math.pi * farr
    r_s = link.r_source + link.coil_resistance_tx(farr)
    r_l = link.r_load + link.coil_resistance_rx(farr)
    wm = w * link.m
    h = (1j * wm * link.r_load
         / ((1j * w * link.l_tx + r_s) * (1j * w * link.l_rx + r_l) + wm * wm))
    return complex(h) if np.ndim(f) == 0 else h


def tune_capacitance(l: float, f0: float, parasitic: Optional[float] = None) -> float:
    """Series capacitance resonating inductance l at f0: C = 1/((2 pi f0)^2 L).

    Warns when a supplied parasitic capacitance is at least the tuning
    value, since the parallel parasitic then dominates the series
    capacitor and the tuning loses meaning.
    """
    if l <= 0 or f0 <= 0:
        raise ValueError("inductance and frequency must be > 0")
    c = 1.0 / ((2.0 * math.pi * f0) ** 2 * l)
    if parasitic is not None and parasitic >= c:
        warnings.warn(
            f"parasitic capacitance {parasitic:.3e} F >= series tuning value {c:.3e} F; "
            "the mesh will not resonate at the requested frequency",
            stacklevel=2,
        )
    return c


def receiver_capacitance(l_tx: float, c_tx: float, l_rx: float) -> float:
    """Receiver-side capacitance giving both meshes the same resonance.

    C_rx = L_tx*C_tx/L_rx, i.e. L_tx*C_tx = L_rx*C_rx, so the two
    1/(2 pi sqrt(LC)) frequencies coincide.
    """
    if l_tx <= 0 or c_tx <= 0 or l_rx <= 0:
        raise ValueError("all arguments must be > 0")
    return l_tx * c_tx / l_rx


def default_grid() -> np.ndarray:
    """Standard sweep grid: 20-30 MHz, 1001 points."""
    return np.linspace(20e6, 30e6, 1001)


def frequency_sweep(link: LinkCircuit, grid) -> Spectrum:
    """Solve the mesh at every grid frequency; grid must be increasing."""
    farr = np.asarray(grid, dtype=float)
    h, input_current = _mesh_solve(link, farr)
    z11 = link.v_source / input_current() - link.r_source
    return Spectrum(frequencies=farr, h=h, z11=z11)


def received_power(v_rx, r_load: float) -> float:
    """Load power as the amplitude-squared form P = |V_rx|^2/R_load.

    This is the plain V^2/R reading with V a peak amplitude (twice the
    cycle-average dissipation of a sinusoid); kept in that form so
    levels compare directly against voltage-derived link budgets.
    """
    if r_load <= 0:
        raise ValueError(f"r_load must be > 0, got {r_load!r}")
    return abs(v_rx) ** 2 / r_load


def tx_power(link: LinkCircuit, f: FrequencyLike):
    """Real power delivered by the source: (1/2) Re(V_source * conj(I_in))."""
    _, input_current = _mesh_solve(link, f)
    p = 0.5 * np.real(link.v_source * np.conj(input_current()))
    return float(p) if np.ndim(f) == 0 else p


def path_loss_db(h) -> float:
    """20 log10 |h|; exact zeros return -inf as a masked-value sentinel."""
    mag = abs(h)
    if mag == 0.0:
        return float("-inf")
    return 20.0 * math.log10(mag)
