"""Resonant two-coil circuit: the terminated series-series link.

Each side is a series tuning capacitor and a coil with its loss (a
fixed resistance, or its CoilSpec's), with an optional parasitic
capacitance across the coil; the source resistance and the load close
the sides. The response is bilinear in those two terminations (Pozar,
Microwave Engineering, 4th ed., 2012, sec. 4.3): one denominator
D = R_L*(R_s*c11 + c01) + (R_s*c10 + c00) with frequency-only
coefficients, formed once per link and grid and kept on the link, so
each termination (a scalar or a (rows, 1) column) costs a few
elementwise operations. Only this module
closes a link: frequency_sweep at its own terminations, termination_scan
at many values of one. Without the capacitors it reduces to the
classical untuned two-mesh transfer expression, which tests enforce
against tests/references.py rather than assume.

Amplitude convention: v_source is a peak amplitude. tx_power is the cycle
average (1/2)*Re(V*conj(I)); received_power (each sweep p_rx_w, dual-mode
p_rx_*) is |V|^2/R, twice that, so a ratio of the two reads efficiency 2x high.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .geometry import CoilSpec, check_fields
from .lumped import ac_resistance

FrequencyLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class LinkCircuit:
    """Lumped model of the full link at one geometric configuration.

    esr_tx / esr_rx is a coil's loss: a fixed resistance (ohm), or a
    CoilSpec, which gives its resistance_override when supplied and
    else its skin-effect resistance on the whole frequency grid at once.
    c_tx / c_rx are the series tuning capacitors; absent (None) means
    that side is untuned, the capacitor position shorted. Parasitic
    capacitances, when supplied, sit in parallel with their coil.
    """

    l_tx: float
    l_rx: float
    m: float
    r_source: float
    r_load: float
    c_tx: Optional[float] = None
    c_rx: Optional[float] = None
    v_source: float = 1.0
    parasitic_tx: Optional[float] = None
    parasitic_rx: Optional[float] = None
    esr_tx: Union[float, CoilSpec] = 0.0
    esr_rx: Union[float, CoilSpec] = 0.0

    def __post_init__(self):
        fixed = [n for n in ("esr_tx", "esr_rx") if not isinstance(getattr(self, n), CoilSpec)]
        for name in fixed:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"{name} must be a resistance or a CoilSpec, got {value!r}")
        check_fields(self, positive=("l_tx", "l_rx", "r_source", "r_load", "c_tx", "c_rx",
                                     "v_source", "parasitic_tx", "parasitic_rx"),
                     nonnegative=fixed)
        if self.m * self.m > self.l_tx * self.l_rx:
            raise ValueError(
                f"m^2 = {self.m * self.m!r} exceeds l_tx*l_rx = {self.l_tx * self.l_rx!r} "
                "(coupling coefficient above 1)"
            )

    def coil_resistance_tx(self, f: FrequencyLike) -> np.ndarray:
        return _coil_resistance(self.esr_tx, f)

    def coil_resistance_rx(self, f: FrequencyLike) -> np.ndarray:
        return _coil_resistance(self.esr_rx, f)


def _coil_resistance(esr: Union[float, CoilSpec], f: FrequencyLike) -> np.ndarray:
    """Coil loss (ohm) at each f of a LinkCircuit's esr_tx or esr_rx."""
    if isinstance(esr, CoilSpec):
        esr = ac_resistance(esr, f) if esr.resistance_override is None else esr.resistance_override
    return np.broadcast_to(esr, np.shape(f)).astype(float)[()]


def _check_grid(f: np.ndarray) -> None:
    """Raise ValueError unless f is a non-empty, finite, positive, increasing 1-D grid."""
    if f.ndim != 1 or len(f) < 1:
        raise ValueError("frequency grid must be a non-empty 1-D array")
    if not np.all(np.isfinite(f) & (f > 0)):
        raise ValueError("frequencies must be finite and > 0")
    if len(f) > 1 and np.any(np.diff(f) <= 0):
        raise ValueError("frequency grid must be strictly increasing")


def check_finite(values: np.ndarray) -> None:
    """Raise ValueError unless every value of a spectrum or scan is finite."""
    if not np.all(np.isfinite(values)):
        raise ValueError("spectrum values must be finite")


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Transfer ratio and input impedance on a frequency grid.

    h = V_rx/V_source (complex), z11 = input impedance seen by the
    ideal source, excluding r_source (complex ohm). v_source (V peak)
    is the source amplitude h is relative to.
    """

    frequencies: np.ndarray
    h: np.ndarray
    z11: np.ndarray
    v_source: float = 1.0

    def __post_init__(self):
        check_fields(self, positive=("v_source",))
        # copies, so freezing them leaves the caller's arrays writable
        f = np.array(self.frequencies, dtype=float)
        h = np.array(self.h, dtype=complex)
        z = np.array(self.z11, dtype=complex)
        _check_grid(f)
        if h.shape != f.shape or z.shape != f.shape:
            raise ValueError("h and z11 must match the frequency grid shape")
        check_finite(h)
        check_finite(z)
        for name, arr in (("frequencies", f), ("h", h), ("z11", z)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.frequencies)


# frexp exponent that _link_terms lifts a smaller |wM| to: h is degree 0
# in the five terms, so a common power of two leaves it unchanged
_JWM_MIN_EXP = -511


def _link_terms(link: LinkCircuit, f: FrequencyLike):
    """(jwM, c11, c10, c01, c00) of the link on f, and i_in at its own terminations.

    With Z = R(f) + jwL per coil, X = 1/(jwC) per tuning capacitor and
    Y = jwC_p per parasitic (each 0 when absent), s1 = 1 + Y1*Z1,
    s0 = s1*X1 + Z1, a0 = 1 + Y1*X1 and likewise t1, t0, u0 on the rx,
    D = (R_s*s1 + s0)(R_L*t1 + t0) + (wM)^2*(R_s*Y1 + a0)(R_L*Y2 + u0)
    is collected by powers of R_s and R_L; i_in = V*(R_L*c11 + c10)/D.
    The terms are formed in long double and rounded once: near a Q ~
    3.5e4 resonance one ulp of L or C moves the source power by 1e-12,
    and i_in, a ratio of large reactive terms, loses its small real part
    in double (1.3e-12 at wL/R = 8000). Where |wM| < 2**-512, the five
    terms at that frequency are scaled by the power of two that lifts
    |wM| into [2**-512, 2**-511), which leaves h as it is in exact
    arithmetic: rounded unscaled, a wM in double's subnormal range keeps
    few bits (a 3.5e-12 error at wM = 7e-313).
    """
    farr = np.asarray(f, dtype=float)
    if not np.all(np.isfinite(farr) & (farr > 0)):
        raise ValueError("frequency must be finite and > 0")
    w = (2.0 * math.pi * farr).astype(np.longdouble)
    jw = 1j * w
    z1 = link.coil_resistance_tx(farr) + jw * link.l_tx
    z2 = link.coil_resistance_rx(farr) + jw * link.l_rx
    x1 = 1.0 / (jw * link.c_tx) if link.c_tx is not None else 0.0
    x2 = 1.0 / (jw * link.c_rx) if link.c_rx is not None else 0.0
    y1 = jw * link.parasitic_tx if link.parasitic_tx is not None else 0.0
    y2 = jw * link.parasitic_rx if link.parasitic_rx is not None else 0.0
    wm = w * link.m
    ww = wm * wm
    s1, t1 = 1.0 + y1 * z1, 1.0 + y2 * z2
    s0, t0 = s1 * x1 + z1, t1 * x2 + z2
    a0, u0 = 1.0 + y1 * x1, 1.0 + y2 * x2
    c11, c10 = s1 * t1 + ww * (y1 * y2), s1 * t0 + ww * (y1 * u0)
    c01, c00 = s0 * t1 + ww * (a0 * y2), s0 * t0 + ww * (a0 * u0)
    n = link.r_load * c11 + c10
    i_in = link.v_source * n / (link.r_source * n + (link.r_load * c01 + c00))
    terms = (1j * wm, c11, c10, c01, c00)
    lift = np.maximum(0, _JWM_MIN_EXP - np.frexp(np.abs(wm))[1])
    if np.any(lift):
        # np.where: a product with 1 could flip the sign of a zero part
        scale = np.ldexp(np.longdouble(1), lift)
        terms = tuple(np.where(lift > 0, t * scale, t) for t in terms)
    return (tuple(np.asarray(t, dtype=complex) for t in terms),
            np.asarray(i_in, dtype=complex))


def _grid_terms(link: LinkCircuit, grid: np.ndarray):
    """_link_terms(link, grid), formed once per link and grid.

    The link instance keeps the read-only terms of the last grid it was
    solved on, keyed by that grid's shape and bytes, so the tuned
    spectrum and every load scan of one link share one long-double
    build. An equal link (m = 0.0 against -0.0) is another instance and
    builds its own.
    """
    key = (grid.shape, grid.tobytes())
    kept = getattr(link, "_terms", None)
    if kept is None or kept[0] != key:
        terms, i_in = _link_terms(link, grid)
        for arr in (*terms, i_in):
            arr.setflags(write=False)
        kept = (key, (terms, i_in))
        object.__setattr__(link, "_terms", kept)
    return kept[1]


def _terminated(terms, r_source, r_load):
    """h = jwM*R_L/D of the link with coefficients terms, closed by R_s and R_L.

    Either termination may be a (rows, 1) column; h is then (rows, F).
    The operations are elementwise and in the order of a scalar
    termination, so with F >= 2 each row keeps the bits of its own
    solve (with F == 1 numpy loops along the rows instead, and a row may
    differ in the last bit).
    """
    jwm, c11, c10, c01, c00 = terms
    return jwm * r_load / (r_load * (r_source * c11 + c01) + (r_source * c10 + c00))


# complex elements per (rows, F) temporary of a load scan, which
# terminates max(1, _SCAN_ELEMENTS // F) values per block: 4 rows on the
# 1001-point grid. A 451-load and two 224-load scans (2 shared cores)
# took 51 ms at 1 row, 42 at 4, 38 at 8, 36 at 16 and 51 at 65; the
# traced peak is 0.70 MiB up to 4 rows, 0.79 at 8 and 1.3 at 16.
# Re-measured with one term build per link and the sweeps' band pass
# over 4 blocks at once (median of 12 interleaved repeats, same cores):
# 29 ms at 1 row, 19 at 4, 17 at 8, 16 at 16 and 24 at 65; traced peak
# 0.70 MiB up to 4 rows, 1.2 at 8, 2.3 at 16 and 7.4 at 65. A 16-row
# block alone solves slower than four 4-row ones (361 against 154 us),
# and in a whole run 16- and 32-row blocks measured slower with a
# higher peak RSS, so blocks stay at 4 rows.
_SCAN_ELEMENTS = 4096


def termination_scan(link: LinkCircuit, field: str, values: np.ndarray,
                     grid: np.ndarray):
    """Yield (values block, h block) of the link re-terminated at each value.

    field is r_source or r_load, and every value must be finite and > 0
    (LinkCircuit's rule for that field): the first that is not raises
    ValueError, naming the field and the value, before any solve. The
    coefficients, coil ESR included, are the link's for this grid
    (formed once per link and grid, shared with frequency_sweep), and
    each block takes up to _SCAN_ELEMENTS // len(grid) values. With two
    or more grid points row k is bit-identical to frequency_sweep(replace(link,
    field=value_k), grid).h. The grid check is a Spectrum's; h is not
    checked here: a caller passes the row maxima of |h| it takes to
    check_finite, since a non-finite h makes its row's maximum non-finite.
    """
    bad = values[~(np.isfinite(values) & (values > 0))]
    if bad.size:
        raise ValueError(f"{field} values must be finite and > 0, got {bad[0].item()!r}")
    _check_grid(grid)
    terms, _ = _grid_terms(link, grid)
    rows = max(1, _SCAN_ELEMENTS // len(grid))
    for start in range(0, len(values), rows):
        block = values[start:start + rows]
        yield block, _terminated(terms, **{"r_source": link.r_source, "r_load": link.r_load,
                                           field: block[:, None]})


def tune_capacitance(l: float, f0: float, parasitic: Optional[float] = None) -> float:
    """Series capacitance resonating inductance l at f0: C = 1/((2 pi f0)^2 L).

    Warns when a supplied parasitic capacitance is at least the tuning
    value, since the parallel parasitic then dominates the series
    capacitor and the tuning loses meaning.
    """
    if not (0 < l < math.inf and 0 < f0 < math.inf):
        raise ValueError("inductance and frequency must be finite and > 0")
    if parasitic is not None and not 0 < parasitic < math.inf:
        raise ValueError(f"parasitic must be finite and > 0, got {parasitic!r}")
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
    if not all(0 < x < math.inf for x in (l_tx, c_tx, l_rx)):
        raise ValueError("all arguments must be finite and > 0")
    return l_tx * c_tx / l_rx


def frequency_sweep(link: LinkCircuit, grid) -> Spectrum:
    """Solve the link at every grid frequency of an increasing grid, on
    the coefficients the link keeps for that grid (see _grid_terms)."""
    farr = np.asarray(grid, dtype=float)
    terms, i_in = _grid_terms(link, farr)
    h = _terminated(terms, link.r_source, link.r_load)
    z11 = link.v_source / i_in - link.r_source
    return Spectrum(frequencies=farr, h=h, z11=z11, v_source=link.v_source)


def received_power(v_rx, r_load):
    """Load power as the amplitude-squared form P = |V_rx|^2/R_load.

    This is the plain V^2/R reading with V a peak amplitude (twice the
    cycle-average dissipation of a sinusoid); kept in that form so
    levels compare directly against voltage-derived link budgets.
    v_rx and r_load may be scalars or arrays that broadcast; the square
    is libm's pow, as Python's ** takes it, so each element keeps the
    bits of a scalar call (numpy's x**2, a product, differs in the last
    bit for about one value in 1200).
    """
    bad = np.asarray(v_rx)[~np.isfinite(v_rx)]
    if bad.size:
        raise ValueError(f"v_rx must be finite, got {bad[0].item()!r}")
    loads = np.asarray(r_load)
    bad = loads[~(np.isfinite(loads) & (loads > 0))]
    if bad.size:
        raise ValueError(f"r_load must be finite and > 0, got {bad[0].item()!r}")
    p = np.float_power(np.abs(v_rx), 2) / r_load
    return float(p) if np.ndim(p) == 0 else p


def tx_power(link: LinkCircuit, f: FrequencyLike):
    """Real power delivered by the source: (1/2) Re(V_source * conj(I_in))."""
    _, i_in = _link_terms(link, f)
    p = 0.5 * np.real(link.v_source * np.conj(i_in))
    return float(p) if np.ndim(f) == 0 else p


def path_loss_db(h):
    """20 log10 |h| of a scalar, or elementwise of an array: the package's one
    amplitude-to-dB route. Exact zeros return -inf as a masked-value sentinel."""
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(np.abs(h))
    return float(db) if np.ndim(db) == 0 else db
