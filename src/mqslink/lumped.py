"""Lumped electrical parameters of spiral coils.

Two inductance estimators (a modified Wheeler fit and the current-sheet
expression) and skin-effect AC resistance. The current sheet value is
the default estimate; the Wheeler fit serves as a cross-check inside
its validity region.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .constants import MU0
from .geometry import CoilSpec, FLAT_SPIRAL

TRUSTED = "trusted"
LOW_CONFIDENCE = "low-confidence"

CURRENT_SHEET = "current-sheet"
USER_SUPPLIED = "user-supplied"

# the Wheeler fit degrades when the winding is radially shallow
_MIN_DEPTH_RATIO = 0.2
# "small N" cutoff for the same fit
_MIN_TURNS = 3
# wire much thicker than its spacing also leaves the fitted regime
_DIAMETER_SPACING_FACTOR = 10.0


class InductanceEstimate(NamedTuple):
    value: float          # H
    validity_flag: str
    source: str


def _radial_depth(spec: CoilSpec) -> float:
    return spec.turns * spec.pitch


def _winding_radius(spec: CoilSpec) -> float:
    return (spec.outer_diameter - _radial_depth(spec)) / 2.0


def wheeler_validity(spec: CoilSpec) -> str:
    """Validity flag for the Wheeler fit on this spec.

    Low confidence when the turn count is small, the wire diameter
    dwarfs the spacing, or the radial depth is under 20% of the winding
    radius (shallow winding).
    """
    if spec.turns < _MIN_TURNS:
        return LOW_CONFIDENCE
    if spec.wire_diameter > _DIAMETER_SPACING_FACTOR * spec.wire_spacing:
        return LOW_CONFIDENCE
    if _radial_depth(spec) / _winding_radius(spec) < _MIN_DEPTH_RATIO:
        return LOW_CONFIDENCE
    return TRUSTED


def wheeler_inductance(spec: CoilSpec) -> float:
    """Modified Wheeler inductance of a flat spiral (H).

    L = N^2 * (D_o - N(d+s))^2 / (16 D_o + 28 N(d+s)) * 39.37e-6 with all
    lengths in meters. The 39.37 converts meters to inches and the 1e-6
    microhenries to henries, recovering Wheeler's original inch/uH fit
    a^2 N^2 / (8a + 11c) with a the mean winding radius and c the radial
    depth. Use wheeler_validity() for the fit's confidence flag.
    """
    if spec.shape != FLAT_SPIRAL:
        raise ValueError(f"wheeler_inductance applies to flat spirals only, got shape {spec.shape!r}")
    depth = _radial_depth(spec)
    d_o = spec.outer_diameter
    return spec.turns**2 * (d_o - depth) ** 2 / (16.0 * d_o + 28.0 * depth) * 39.37e-6


def current_sheet_inductance(spec: CoilSpec) -> float:
    """Current-sheet inductance (H).

    gamma = (D_o - D_i)/(D_o + D_i) is the fill factor;
    L = mu0 * N^2 * d_avg/2 * (ln(2.46/gamma) + 0.2 gamma^2) with
    d_avg = (D_o + D_i)/2. Valid for both flat and helical shapes (the
    helical projection preserves the diameters).
    """
    d_o, d_i = spec.outer_diameter, spec.inner_diameter
    if d_o <= d_i:
        raise ValueError(f"outer diameter {d_o!r} must exceed inner diameter {d_i!r}")
    gamma = (d_o - d_i) / (d_o + d_i)
    d_avg = (d_o + d_i) / 2.0
    return MU0 * spec.turns**2 * d_avg / 2.0 * (math.log(2.46 / gamma) + 0.2 * gamma**2)


def estimate_inductance(spec: CoilSpec) -> InductanceEstimate:
    """Best-available inductance with provenance.

    The spec's inductance_override (e.g. a measured value) wins and is
    trusted; otherwise the current-sheet value is returned, flagged by
    the Wheeler fit's validity conditions since both formulas target
    the same coil family and share their region of confidence.
    """
    if spec.inductance_override is not None:
        return InductanceEstimate(float(spec.inductance_override), TRUSTED, USER_SUPPLIED)
    flag = wheeler_validity(spec)
    return InductanceEstimate(current_sheet_inductance(spec), flag, CURRENT_SHEET)


def skin_depth(f, sigma: float):
    """Skin depth delta = 1/sqrt(pi f sigma mu0) (m); f may be an array."""
    farr = np.asarray(f, dtype=float)
    bad = farr[~(np.isfinite(farr) & (farr > 0))]
    if bad.size:
        raise ValueError(f"frequency must be finite and > 0, got {bad[0].item()!r}")
    if not 0 < sigma < math.inf:
        raise ValueError(f"conductivity must be finite and > 0, got {sigma!r}")
    delta = 1.0 / np.sqrt(math.pi * farr * sigma * MU0)
    return float(delta) if np.ndim(f) == 0 else delta


def ac_resistance(spec: CoilSpec, f):
    """Skin-effect series resistance (ohm); f may be an array.

    R = (1/(sigma*delta)) * N*(D_o - N(d+s))/d, where N*(D_o - N(d+s))
    approximates the total wire length over the conduction cross-section
    per unit diameter. The prefactor is written through skin_depth so the
    identity sqrt(f pi mu0 / sigma) = 1/(sigma*delta) holds exactly;
    proximity-effect losses are not modeled, so this is an underestimate.
    """
    prefactor = 1.0 / (spec.conductivity * skin_depth(f, spec.conductivity))
    depth = _radial_depth(spec)
    return prefactor * spec.turns * (spec.outer_diameter - depth) / spec.wire_diameter

