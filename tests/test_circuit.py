"""Two-mesh circuit solver, tuning, and power bookkeeping."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mqslink import circuit
from mqslink.circuit import (CapacitiveRegimeError, LinkCircuit, Spectrum,
                             default_grid, extract_inductance,
                             frequency_sweep, path_loss_db, received_power,
                             receiver_capacitance, transfer_ratio,
                             transfer_ratio_untuned, tune_capacitance,
                             tx_power)
from mqslink.geometry import CoilSpec
from mqslink.lumped import ac_resistance

RX = CoilSpec(turns=5, inner_radius=4e-3, wire_diameter=0.137e-3,
              wire_spacing=0.5e-3)
TX = CoilSpec(turns=5, inner_radius=60e-3, wire_diameter=0.137e-3,
              wire_spacing=0.5e-3)

L_TX = 35e-6                       # measured override used throughout
L_RX = 3.816942603467716e-07       # current-sheet value for the small coil
M_NOMINAL = 3.9074457990719537e-10

C_TX = 1.0705957696781254e-12
C_RX = 9.816980717680136e-11

PEAK_DB = -58.86457577086184       # tuned nominal link at 26 MHz
UNTUNED_MAX_DB = -99.05829339910385
TXP_PEAK_W = 0.00893163188676889
Z11_PEAK_RE = 5.980811383492899


def _nominal_link(tuned=True, **overrides):
    kwargs = dict(
        l_tx=L_TX, l_rx=L_RX, m=M_NOMINAL, r_source=50.0, r_load=1e3,
        c_tx=C_TX if tuned else None, c_rx=C_RX if tuned else None,
        esr_tx=TX, esr_rx=RX,
    )
    kwargs.update(overrides)
    return LinkCircuit(**kwargs)


# ----------------------------------------------------------------- tuning

def test_tuning_capacitance_frozen_and_by_hand():
    c = tune_capacitance(L_TX, 26e6)
    assert c == pytest.approx(C_TX, rel=1e-15, abs=0)
    assert c == pytest.approx(1.0 / ((2 * math.pi * 26e6) ** 2 * L_TX),
                              rel=1e-15, abs=0)


def test_receiver_capacitance_matches_the_resonances():
    c_rx = receiver_capacitance(L_TX, C_TX, L_RX)
    assert c_rx == pytest.approx(C_RX, rel=1e-15, abs=0)
    f_tx = 1.0 / (2 * math.pi * math.sqrt(L_TX * C_TX))
    f_rx = 1.0 / (2 * math.pi * math.sqrt(L_RX * c_rx))
    assert abs(f_tx - f_rx) / f_tx < 1e-14


def test_tune_capacitance_rejects_nonpositive_inputs():
    with pytest.raises(ValueError):
        tune_capacitance(0.0, 26e6)
    with pytest.raises(ValueError):
        tune_capacitance(35e-6, -1.0)
    with pytest.raises(ValueError):
        receiver_capacitance(L_TX, 0.0, L_RX)


def test_dominant_parasitic_triggers_a_warning():
    with pytest.warns(UserWarning, match="parasitic"):
        tune_capacitance(L_TX, 26e6, parasitic=2e-12)


def test_small_parasitic_stays_silent():
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tune_capacitance(L_TX, 26e6, parasitic=0.1e-12)


# ------------------------------------------------------------ mesh solver

def test_general_solver_reduces_to_the_untuned_form():
    rng = np.random.default_rng(7)
    for _ in range(200):
        l_tx = 10 ** rng.uniform(-7, -4)
        l_rx = 10 ** rng.uniform(-7, -4)
        k = rng.uniform(0.0, 0.9) * rng.choice([-1.0, 1.0])
        link = LinkCircuit(
            l_tx=l_tx, l_rx=l_rx, m=k * math.sqrt(l_tx * l_rx),
            r_source=10 ** rng.uniform(0, 4), r_load=10 ** rng.uniform(0, 4),
            r_coil_tx=rng.uniform(0, 10), r_coil_rx=rng.uniform(0, 10),
        )
        if rng.uniform() < 0.5:
            esr_tx, esr_rx = (CoilSpec(turns=int(rng.integers(1, 8)),
                                       inner_radius=rng.uniform(2e-3, 0.1),
                                       wire_diameter=rng.uniform(0.05e-3, 0.5e-3),
                                       wire_spacing=rng.uniform(0.0, 1e-3))
                              for _ in range(2))
            link = LinkCircuit(**{**link.__dict__, "esr_tx": esr_tx, "esr_rx": esr_rx})
        freqs = np.sort(10 ** rng.uniform(4, 8, 7))
        np.testing.assert_allclose(transfer_ratio(link, freqs),
                                   transfer_ratio_untuned(link, freqs),
                                   rtol=1e-12, atol=0.0)


def test_nominal_tuned_peak_is_frozen():
    link = _nominal_link()
    spec = frequency_sweep(link, default_grid())
    idx = int(np.argmax(np.abs(spec.h)))
    assert spec.frequencies[idx] == 26e6
    assert path_loss_db(spec.h[idx]) == pytest.approx(PEAK_DB, abs=1e-9)
    assert spec.z11[idx].real == pytest.approx(Z11_PEAK_RE, rel=1e-9)
    assert abs(spec.z11[idx].imag) < 1e-6 * spec.z11[idx].real


def test_untuned_link_is_flat_and_weak_in_band():
    link = _nominal_link(tuned=False)
    spec = frequency_sweep(link, default_grid())
    mags = np.abs(spec.h)
    assert 20 * math.log10(mags.max()) == pytest.approx(UNTUNED_MAX_DB,
                                                        abs=1e-9)
    assert mags.max() / mags.min() < 10 ** (1.0 / 20)   # under 1 dB of ripple


def test_tuning_gain_is_frozen():
    tuned = frequency_sweep(_nominal_link(), default_grid())
    untuned = frequency_sweep(_nominal_link(tuned=False), default_grid())
    gain = 20 * math.log10(np.abs(tuned.h).max() / np.abs(untuned.h).max())
    assert gain == pytest.approx(40.193717628242005, abs=1e-9)


def test_spec_esr_takes_precedence_over_the_fixed_value():
    link = _nominal_link(tuned=False, r_coil_tx=3.0,
                         esr_tx=TX, esr_rx=None, r_coil_rx=0.0)
    assert float(link.coil_resistance_tx(26e6)) == ac_resistance(TX, 26e6)
    assert float(link.coil_resistance_rx(26e6)) == 0.0
    arr = link.coil_resistance_tx(np.array([1e6, 2e6]))
    np.testing.assert_allclose(arr, [ac_resistance(TX, 1e6), ac_resistance(TX, 2e6)],
                               rtol=0.0, atol=0.0)


def test_a_sweep_evaluates_each_coil_loss_once_on_the_whole_grid(monkeypatch):
    calls = []

    def counting(spec, f):
        calls.append((spec, np.shape(f)))
        return ac_resistance(spec, f)

    monkeypatch.setattr(circuit, "ac_resistance", counting)
    grid = default_grid()
    frequency_sweep(_nominal_link(), grid)
    assert len(calls) == 2
    assert {spec for spec, _ in calls} == {TX, RX}
    assert all(shape == grid.shape for _, shape in calls)


def test_esr_fields_reject_anything_but_a_spec():
    with pytest.raises(TypeError, match="esr_tx"):
        _nominal_link(esr_tx=lambda f: 1.0)
    with pytest.raises(TypeError, match="esr_rx"):
        _nominal_link(esr_rx=2.5)


def test_transfer_ratio_scalar_and_array_agree():
    link = _nominal_link()
    h = transfer_ratio(link, 26e6)
    assert isinstance(h, complex)
    harr = transfer_ratio(link, np.array([25e6, 26e6, 27e6]))
    assert harr.shape == (3,)
    assert harr[1] == pytest.approx(h, rel=1e-15)


def test_solver_rejects_nonpositive_frequencies():
    link = _nominal_link()
    with pytest.raises(ValueError, match="frequency"):
        transfer_ratio(link, 0.0)
    with pytest.raises(ValueError, match="frequency"):
        transfer_ratio_untuned(_nominal_link(tuned=False), -1e6)


def test_untuned_form_refuses_reactive_parts():
    with pytest.raises(ValueError, match="capacitors"):
        transfer_ratio_untuned(_nominal_link(), 26e6)
    link = _nominal_link(tuned=False, parasitic_tx=1e-12)
    with pytest.raises(ValueError, match="parasitic"):
        transfer_ratio_untuned(link, 26e6)


def test_parasitics_reshape_the_response():
    plain = _nominal_link()
    shunted = _nominal_link(parasitic_tx=5e-12, parasitic_rx=2e-12)
    f = default_grid()
    h0 = transfer_ratio(plain, f)
    h1 = transfer_ratio(shunted, f)
    assert np.max(np.abs(h0 - h1)) > 0
    assert np.all(np.isfinite(h1))


# ------------------------------------------------------------------ power

def test_source_power_anchor_at_low_frequency():
    # negligible reactance, no coupling: the source sees its own 50 ohm,
    # P = 0.5 * 1 V^2 / 50 ohm = 10 mW
    link = LinkCircuit(l_tx=L_TX, l_rx=L_RX, m=0.0, r_source=50.0,
                       r_load=1e3)
    assert tx_power(link, 1e-3) == pytest.approx(0.01, rel=1e-12, abs=0)


def test_source_power_at_the_tuned_peak_is_frozen():
    assert tx_power(_nominal_link(), 26e6) == pytest.approx(TXP_PEAK_W,
                                                            rel=1e-9)


def test_tx_power_vectorizes():
    link = _nominal_link()
    p = tx_power(link, np.array([25e6, 26e6, 27e6]))
    assert p.shape == (3,)
    assert p[1] == pytest.approx(tx_power(link, 26e6), rel=1e-15, abs=0)
    assert isinstance(tx_power(link, 26e6), float)


_SPECS = st.builds(CoilSpec, turns=st.integers(1, 7),
                   inner_radius=st.floats(2e-3, 0.1),
                   wire_diameter=st.floats(0.05e-3, 0.5e-3),
                   wire_spacing=st.floats(0.0, 1e-3))


@st.composite
def _random_links(draw, parasitics):
    """A link with random values, and a grid spanning +-50% around its f0.

    Coil loss is drawn either as a CoilSpec's skin-effect ESR or as
    fixed resistances. Parasitics, when drawn, are at most a tenth of
    the capacitance that tunes their coil to f0, which keeps each
    coil's self-resonance above the grid.
    """
    l_tx, l_rx = (10 ** draw(st.floats(-7, -4)) for _ in range(2))
    f0 = 10 ** draw(st.floats(6, 8))
    c_tx, c_rx = tune_capacitance(l_tx, f0), tune_capacitance(l_rx, f0)
    kwargs = dict(l_tx=l_tx, l_rx=l_rx,
                  m=draw(st.floats(-0.5, 0.5)) * math.sqrt(l_tx * l_rx),
                  r_source=10 ** draw(st.floats(0, 3)),
                  r_load=10 ** draw(st.floats(0, 4)),
                  v_source=draw(st.floats(0.1, 10)))
    if draw(st.booleans()):
        kwargs.update(c_tx=c_tx, c_rx=c_rx)
    if draw(st.booleans()):
        kwargs.update(esr_tx=draw(_SPECS), esr_rx=draw(_SPECS))
    else:
        kwargs.update(r_coil_tx=draw(st.floats(0, 10)), r_coil_rx=draw(st.floats(0, 10)))
    if parasitics:
        for side, c in (("parasitic_tx", c_tx), ("parasitic_rx", c_rx)):
            kwargs[side] = draw(st.none() | st.floats(-3, -1).map(lambda e, c=c: c * 10 ** e))
    return LinkCircuit(**kwargs), np.linspace(0.5 * f0, 1.5 * f0, 201)


def _assert_power_balance(link, f, dissipated):
    p_in = tx_power(link, f)
    np.testing.assert_allclose(dissipated, p_in, rtol=1e-12, atol=0.0)


@settings(max_examples=200, deadline=None)
@given(_random_links(parasitics=False))
def test_power_balance_without_parasitics(drawn):
    # every term from public outputs: i_in from z11, the receive-mesh
    # current from V_rx across the load
    link, f = drawn
    spectrum = frequency_sweep(link, f)
    i_in = link.v_source / (spectrum.z11 + link.r_source)
    i_rx = spectrum.h * link.v_source / link.r_load
    dissipated = 0.5 * (np.abs(i_in) ** 2 * (link.r_source + link.coil_resistance_tx(f))
                        + np.abs(i_rx) ** 2 * (link.coil_resistance_rx(f) + link.r_load))
    _assert_power_balance(link, f, dissipated)


def _solve_extended(a, b):
    """x with a @ x = b, batched over the first axis, in np.clongdouble.

    Gaussian elimination with partial pivoting. Rounding in double
    (np.linalg.solve) is amplified by the Q of a sharp link past the
    1e-12 balance tolerance; long double carries 11 more bits on x86-64.
    """
    a, x = a.astype(np.clongdouble), b.astype(np.clongdouble)
    batch, n = np.arange(len(a)), a.shape[1]
    for k in range(n):
        p = k + np.argmax(np.abs(a[:, k:, k]), axis=1)
        a[batch, k], a[batch, p] = a[batch, p], a[batch, k]
        x[batch, k], x[batch, p] = x[batch, p], x[batch, k]
        factor = a[:, k + 1:, k] / a[:, k, k, None]
        a[:, k + 1:] -= factor[:, :, None] * a[:, None, k]
        x[:, k + 1:] -= factor * x[:, None, k]
    for k in reversed(range(n)):
        x[:, k] = (x[:, k] - np.sum(a[:, k, k + 1:] * x[:, k + 1:], axis=1)) / a[:, k, k]
    return x


_SHARP_F0 = 10 ** 7.75
_SHARP_C = tune_capacitance(1e-4, _SHARP_F0)


@settings(max_examples=200, deadline=None)
@given(_random_links(parasitics=True))
# Q ~ 3.5e4: a double-precision reference misses the balance by 1.4e-12 here
@example((LinkCircuit(l_tx=1e-4, l_rx=1e-4, m=7.8125e-6, r_source=1.0, r_load=1.0,
                      c_tx=_SHARP_C, c_rx=_SHARP_C, parasitic_rx=_SHARP_C * 10 ** -2.25),
          np.linspace(0.5 * _SHARP_F0, 1.5 * _SHARP_F0, 201)))
def test_power_balance_with_parasitics(drawn):
    # branch currents from an extended-precision solve of the circuit
    # equations at the double omega the solver uses; unknowns are I_in,
    # V_1, I_coil1, V_2, I_coil2, I_load, where V_k is the voltage
    # across coil k and its parasitic
    link, f = drawn
    jw = 1j * (2.0 * math.pi * f).astype(np.longdouble)
    r_tx, r_rx = link.coil_resistance_tx(f), link.coil_resistance_rx(f)
    z_src = link.r_source + (1 / (jw * link.c_tx) if link.c_tx else 0)
    z_load = link.r_load + (1 / (jw * link.c_rx) if link.c_rx else 0)
    y_tx = jw * (link.parasitic_tx or 0.0)
    y_rx = jw * (link.parasitic_rx or 0.0)
    a = np.zeros((len(f), 6, 6), dtype=np.clongdouble)
    a[:, 0, 0], a[:, 0, 1] = z_src, 1.0                       # source loop
    a[:, 1, 0], a[:, 1, 1], a[:, 1, 2] = 1.0, -y_tx, -1.0     # node 1
    a[:, 2, 1], a[:, 2, 2], a[:, 2, 4] = 1.0, -(r_tx + jw * link.l_tx), -jw * link.m
    a[:, 3, 3], a[:, 3, 4], a[:, 3, 2] = 1.0, -(r_rx + jw * link.l_rx), -jw * link.m
    a[:, 4, 3], a[:, 4, 4], a[:, 4, 5] = y_rx, 1.0, 1.0       # node 2
    a[:, 5, 3], a[:, 5, 5] = 1.0, -z_load                     # load branch
    b = np.zeros((len(f), 6), dtype=np.clongdouble)
    b[:, 0] = link.v_source
    i_in, _, i_tx, _, i_rx, i_load = _solve_extended(a, b).T
    dissipated = 0.5 * (np.abs(i_in) ** 2 * link.r_source + np.abs(i_tx) ** 2 * r_tx
                        + np.abs(i_rx) ** 2 * r_rx + np.abs(i_load) ** 2 * link.r_load)
    _assert_power_balance(link, f, dissipated.astype(float))


def test_received_power_is_amplitude_squared_over_load():
    assert received_power(2.0, 8.0) == pytest.approx(0.5)
    assert received_power(3 + 4j, 100.0) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        received_power(1.0, 0.0)


def test_path_loss_handles_zeros_and_scales():
    assert path_loss_db(0.0) == float("-inf")
    assert path_loss_db(1.0) == 0.0
    assert path_loss_db(10 * 0.003) - path_loss_db(0.003) == \
        pytest.approx(20.0, abs=1e-12)


# ------------------------------------------------------------- extraction

def test_inductance_extraction_round_trips():
    f = 26e6
    z = 5.0 + 1j * 2 * math.pi * f * L_TX
    assert extract_inductance(z, f) == pytest.approx(L_TX, rel=1e-15, abs=0)


def test_extraction_refuses_capacitive_impedances():
    with pytest.raises(CapacitiveRegimeError):
        extract_inductance(5.0 - 1.0j, 26e6)
    with pytest.raises(ValueError, match="frequency"):
        extract_inductance(5.0 + 1.0j, 0.0)


# ------------------------------------------------------------- validation

@pytest.mark.parametrize("overrides, match", [
    (dict(l_tx=0.0), "inductances"),
    (dict(m=1e-3), "coupling"),
    (dict(r_source=0.0), "r_source"),
    (dict(r_load=-1.0), "r_source"),
    (dict(r_coil_tx=-0.1), "resistances"),
    (dict(v_source=0.0), "v_source"),
    (dict(c_tx=0.0), "c_tx"),
    (dict(parasitic_rx=-1e-12), "parasitic_rx"),
])
def test_link_circuit_rejects_bad_values(overrides, match):
    base = dict(l_tx=L_TX, l_rx=L_RX, m=M_NOMINAL, r_source=50.0, r_load=1e3)
    base.update(overrides)
    with pytest.raises(ValueError, match=match):
        LinkCircuit(**base)


def test_spectrum_validation():
    f = np.linspace(20e6, 30e6, 5)
    good = np.ones(5, dtype=complex)
    with pytest.raises(ValueError, match="increasing"):
        Spectrum(frequencies=f[::-1], h=good, z11=good)
    with pytest.raises(ValueError, match="> 0"):
        Spectrum(frequencies=f - 25e6, h=good, z11=good)
    with pytest.raises(ValueError, match="shape"):
        Spectrum(frequencies=f, h=good[:4], z11=good)
    with pytest.raises(ValueError, match="finite"):
        Spectrum(frequencies=f, h=np.full(5, np.inf, dtype=complex), z11=good)
    spec = Spectrum(frequencies=f, h=good, z11=good)
    assert len(spec) == 5
    with pytest.raises(ValueError):
        spec.h[0] = 0.0


def test_default_grid_shape():
    grid = default_grid()
    assert len(grid) == 1001
    assert grid[0] == 20e6 and grid[-1] == 30e6
    assert np.allclose(np.diff(grid), 10e3)
