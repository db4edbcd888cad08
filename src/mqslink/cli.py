"""Config-driven command line front end.

    mqslink run <config> [--out DIR] [--threads N] [--log LEVEL]
    mqslink validate <config>
    mqslink defaults

Configs are INI files. Every dimensioned value carries a unit tag
("60 mm", "26 MHz", "50 ohm"); bare numbers are reserved for counts.
Scenario sections ([tx_coil], [rx_coil], [placement], [circuit],
[frequency_grid], [analysis], [output]) fall back to the built-in
nominal values; the presence of a request section ([spectrum],
[sweep tx_angle], [field_map], ...) asks for that analysis. Outputs
are CSV/JSON files written atomically (temp file, then rename) plus a
report.json manifest, which is written even when requests fail.
Sweeps run serially; --threads N is accepted for compatibility.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import logging
import math
import os
import re
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .circuit import LinkCircuit, Spectrum, frequency_sweep, path_loss_db
from .field_coupling import FieldSample, GridSpec, field_map
from .geometry import (FLAT_SPIRAL, HELICAL, CoilSpec, Scenario, apply_pose,
                       build_filament_coil, scenario_poses)
from .link_analysis import (_SWEEP_RANGES, POWER, VOLTAGE, BandwidthStudy,
                            SweepResult, TruncatedBandError, capacity_report,
                            capacity_vs_bandwidth, dual_mode_report,
                            misalignment_sweep, resistance_sweep,
                            scenario_link, scenario_mutual_inductance)
from .lumped import LOW_CONFIDENCE, estimate_inductance

ARTIFACT_VERSION = "0.1.0"
REPORT_SCHEMA_VERSION = 1

_log = logging.getLogger("mqslink")


class ConfigError(Exception):
    """Config file rejected; str() carries file:line context."""

    def __init__(self, message: str, path: Optional[str] = None,
                 line: Optional[int] = None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:{line}: " if line is not None else f"{path}: "
        super().__init__(prefix + message)


# SI multipliers per dimension; the angle table converts to degrees.
_UNITS: Dict[str, Dict[str, float]] = {
    "length": {"m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6},
    "frequency": {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9},
    "resistance": {"ohm": 1.0, "kohm": 1e3, "Mohm": 1e6,
                   "Ω": 1.0, "kΩ": 1e3, "MΩ": 1e6},
    "capacitance": {"F": 1.0, "uF": 1e-6, "nF": 1e-9, "pF": 1e-12},
    "inductance": {"H": 1.0, "mH": 1e-3, "uH": 1e-6, "nH": 1e-9},
    "voltage": {"V": 1.0, "mV": 1e-3},
    "current": {"A": 1.0, "mA": 1e-3},
    "conductivity": {"S/m": 1.0, "MS/m": 1e6},
    "angle": {"deg": 1.0, "rad": 180.0 / math.pi},
    "level": {"dBV": 1.0},
}

_REQUIRED = object()


# ---------------------------------------------------------------------------
# requests

@dataclass(frozen=True)
class SpectrumRequest:
    modes: Tuple[str, ...] = ("tuned", "untuned")

    @property
    def label(self) -> str:
        return "spectrum"


@dataclass(frozen=True)
class MisalignmentSweepRequest:
    axis: str
    start: float
    stop: float
    step: float

    @property
    def label(self) -> str:
        return f"sweep {self.axis}"

    def values(self) -> np.ndarray:
        n = int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1
        vals = self.start + self.step * np.arange(n)
        vals[-1] = min(vals[-1], self.stop)   # accumulation must not pass stop
        return vals


@dataclass(frozen=True)
class ResistanceSweepRequest:
    side: str                     # r_source or r_load
    start: float
    stop: float
    points: int
    spacing: str = "log"

    @property
    def label(self) -> str:
        return f"sweep {self.side}"

    def values(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class FieldMapRequest:
    coil: str = "tx"
    plane: str = "xz"
    offset: float = 0.0
    axis1_start: float = -0.15
    axis1_stop: float = 0.15
    axis1_points: int = 31
    axis2_start: float = 0.05
    axis2_stop: float = 0.25
    axis2_points: int = 21
    current: float = 1.0

    @property
    def label(self) -> str:
        return "field_map"

    def grid_spec(self) -> GridSpec:
        return GridSpec(plane=self.plane, offset=self.offset,
                        axis1_start=self.axis1_start, axis1_stop=self.axis1_stop,
                        axis1_points=self.axis1_points,
                        axis2_start=self.axis2_start, axis2_stop=self.axis2_stop,
                        axis2_points=self.axis2_points)


@dataclass(frozen=True)
class CapacityRequest:
    @property
    def label(self) -> str:
        return "capacity"


@dataclass(frozen=True)
class DualModeRequest:
    load_min: float = 0.1
    load_max: float = 1e4
    points: int = 101

    @property
    def label(self) -> str:
        return "dual_mode"

    def loads(self) -> np.ndarray:
        return np.geomspace(self.load_min, self.load_max, self.points)


Request = Union[SpectrumRequest, MisalignmentSweepRequest, ResistanceSweepRequest,
                FieldMapRequest, CapacityRequest, DualModeRequest]


@dataclass(frozen=True)
class ScenarioConfig:
    """A parsed config: the scenario, solver knobs, and requested analyses."""

    scenario: Scenario
    esr_mode: str                 # frequency | fixed | none
    r_coil_tx: Optional[float]
    r_coil_rx: Optional[float]
    grid_start: float
    grid_stop: float
    grid_points: int
    noise_floor_dbv: float
    snr_convention: str
    segments_per_turn: int
    output_dir: str
    requests: Tuple[Request, ...]
    config_digest: str            # sha256 of the config file bytes

    def frequency_grid(self) -> np.ndarray:
        return np.linspace(self.grid_start, self.grid_stop, self.grid_points)


# ---------------------------------------------------------------------------
# schemas: key -> (kind, detail). kind is count | quantity | optional_quantity
# | enum | string; detail is the unit dimension or the enum values.

_COIL_SCHEMA = {
    "turns": ("count", None),
    "inner_radius": ("quantity", "length"),
    "wire_diameter": ("quantity", "length"),
    "wire_spacing": ("quantity", "length"),
    "shape": ("enum", (FLAT_SPIRAL, HELICAL)),
    "sphere_radius": ("optional_quantity", "length"),
    "conductivity": ("quantity", "conductivity"),
    "inductance_override": ("optional_quantity", "inductance"),
    "parasitic_capacitance": ("optional_quantity", "capacitance"),
}

_PLACEMENT_SCHEMA = {
    "x_eye": ("quantity", "length"),
    "z_eye": ("quantity", "length"),
    "tx_angle": ("quantity", "angle"),
}

_CIRCUIT_SCHEMA = {
    "r_source": ("quantity", "resistance"),
    "r_load": ("quantity", "resistance"),
    "tuned_frequency": ("quantity", "frequency"),
    "source_amplitude": ("quantity", "voltage"),
    "esr_mode": ("enum", ("frequency", "fixed", "none")),
    "r_coil_tx": ("optional_quantity", "resistance"),
    "r_coil_rx": ("optional_quantity", "resistance"),
}

_GRID_SCHEMA = {
    "start": ("quantity", "frequency"),
    "stop": ("quantity", "frequency"),
    "points": ("count", None),
}

_ANALYSIS_SCHEMA = {
    "noise_floor": ("quantity", "level"),
    "snr_convention": ("enum", (VOLTAGE, POWER)),
    "segments_per_turn": ("count", None),
}

_OUTPUT_SCHEMA = {"directory": ("string", None)}

_SCENARIO_SCHEMAS = {"tx_coil": _COIL_SCHEMA, "rx_coil": _COIL_SCHEMA,
                     "placement": _PLACEMENT_SCHEMA, "circuit": _CIRCUIT_SCHEMA,
                     "frequency_grid": _GRID_SCHEMA, "analysis": _ANALYSIS_SCHEMA,
                     "output": _OUTPUT_SCHEMA}
_SCENARIO_SECTIONS = tuple(_SCENARIO_SCHEMAS)

_SWEEP_AXES = ("tx_angle", "lateral", "axial")
_SWEEP_SIDES = ("r_source", "r_load")

_REQUEST_SECTIONS = (("spectrum", "capacity", "dual_mode", "field_map")
                     + tuple(f"sweep {a}" for a in _SWEEP_AXES)
                     + tuple(f"sweep {s}" for s in _SWEEP_SIDES))


class _Reader:
    """One config file: raw text, configparser view, and line numbers."""

    def __init__(self, path: Union[str, Path], allow_defaults: bool,
                 raw: Optional[bytes] = None):
        self.path = str(path)
        self.allow_defaults = allow_defaults
        if raw is None:
            try:
                raw = Path(path).read_bytes()
            except OSError as exc:
                raise ConfigError(f"cannot read config: {exc}")
        self.digest = hashlib.sha256(raw).hexdigest()
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config is not UTF-8: {exc}", self.path)

        self.lines: Dict[Tuple[str, Optional[str]], int] = {}
        section: Optional[str] = None
        for lineno, line in enumerate(text.splitlines(), 1):
            stripped = line.strip()
            if not stripped or stripped.startswith(("#", ";")):
                continue
            header = re.match(r"\[(.+)\]\s*$", stripped)
            if header:
                section = header.group(1).strip()
                self.lines.setdefault((section, None), lineno)
                continue
            if "=" in stripped and section is not None:
                key = stripped.split("=", 1)[0].strip().lower()
                self.lines.setdefault((section, key), lineno)

        self.parser = configparser.ConfigParser(
            interpolation=None, delimiters=("=",),
            comment_prefixes=("#", ";"), inline_comment_prefixes=("#",))
        try:
            self.parser.read_string(text, source=self.path)
        except configparser.Error as exc:
            message = str(exc).replace("\n", "; ")
            raise ConfigError(f"cannot parse config: {message}", self.path,
                              getattr(exc, "lineno", None))

    def fail(self, section: str, key: Optional[str], message: str) -> None:
        line = self.lines.get((section, key)) or self.lines.get((section, None))
        raise ConfigError(message, self.path, line)

    def _value(self, section: str, key: str, raw: str, kind: str, detail):
        where = f"[{section}] {key}"
        if kind == "string":
            if not raw:
                self.fail(section, key, f"{where} must not be empty")
            return raw
        if kind == "enum":
            token = raw.lower()
            if token not in detail:
                self.fail(section, key,
                          f"{where} must be one of {', '.join(detail)}; got {raw!r}")
            return token
        if kind == "count":
            if not re.fullmatch(r"[+-]?\d+", raw):
                self.fail(section, key,
                          f"{where} takes a bare integer count; got {raw!r}")
            return int(raw)
        if kind == "optional_quantity" and raw.lower() == "none":
            return None
        # quantity / optional_quantity: "<number> <unit>"
        units = _UNITS[detail]
        parts = raw.split()
        accepted = ", ".join(u for u in units if "Ω" not in u)
        if len(parts) != 2:
            hint = "missing unit tag" if len(parts) == 1 else "malformed value"
            self.fail(section, key,
                      f"{where}: {hint} in {raw!r}; expected '<number> <unit>' "
                      f"with unit one of: {accepted}")
        number, unit = parts
        if unit not in units:
            self.fail(section, key,
                      f"{where}: unknown unit {unit!r}; accepted: {accepted}")
        try:
            magnitude = float(number)
        except ValueError:
            self.fail(section, key, f"{where}: cannot parse number {number!r}")
        return magnitude * units[unit]

    def section(self, name: str, schema: Dict, defaults: Dict,
                scenario_section: bool) -> Dict:
        present = self.parser.has_section(name)
        if not present and scenario_section and not self.allow_defaults:
            raise ConfigError(f"missing required section [{name}]", self.path)
        out = {}
        for key, (kind, detail) in schema.items():
            if present and self.parser.has_option(name, key):
                raw = self.parser.get(name, key).strip()
                out[key] = self._value(name, key, raw, kind, detail)
            else:
                if scenario_section and not self.allow_defaults:
                    self.fail(name, None, f"[{name}] is missing required key {key!r}")
                if defaults.get(key, _REQUIRED) is _REQUIRED:
                    self.fail(name, None, f"[{name}] requires key {key!r}")
                out[key] = defaults[key]
        if present:
            for key in self.parser.options(name):
                if key not in schema:
                    self.fail(name, key,
                              f"unknown key {key!r} in [{name}]; "
                              f"allowed: {', '.join(sorted(schema))}")
        return out

    def anchored(self, section: str, message: str) -> ConfigError:
        """Anchor a validation message at the offending key when it names one."""
        for (sec, key), line in self.lines.items():
            if sec == section and key is not None and key in message:
                return ConfigError(message, self.path, line)
        return ConfigError(message, self.path, self.lines.get((section, None)))


def _coil_spec(reader: _Reader, section: str,
               defaults: Dict) -> Tuple[CoilSpec, Optional[float]]:
    vals = reader.section(section, _COIL_SCHEMA, defaults, scenario_section=True)
    override = vals.pop("inductance_override")
    try:
        spec = CoilSpec(turns=vals["turns"], inner_radius=vals["inner_radius"],
                        wire_diameter=vals["wire_diameter"],
                        wire_spacing=vals["wire_spacing"], shape=vals["shape"],
                        sphere_radius=vals["sphere_radius"],
                        conductivity=vals["conductivity"],
                        parasitic_capacitance=vals["parasitic_capacitance"])
    except ValueError as exc:
        raise reader.anchored(section, str(exc))
    if override is not None and override <= 0:
        reader.fail(section, "inductance_override",
                    f"[{section}] inductance_override must be > 0")
    return spec, override


def _misalignment_request(reader: _Reader, name: str, axis: str) -> MisalignmentSweepRequest:
    dim = "angle" if axis == "tx_angle" else "length"
    schema = {"start": ("quantity", dim), "stop": ("quantity", dim),
              "step": ("quantity", dim)}
    vals = reader.section(name, schema, {}, scenario_section=False)
    lo, hi, unit = _SWEEP_RANGES[axis]
    if vals["step"] <= 0:
        reader.fail(name, "step", f"[{name}] step must be > 0")
    if vals["stop"] < vals["start"]:
        reader.fail(name, "stop", f"[{name}] stop must be >= start")
    if vals["start"] < lo or vals["stop"] > hi:
        reader.fail(name, None,
                    f"[{name}] range must lie within [{lo:g}, {hi:g}] {unit}")
    return MisalignmentSweepRequest(axis=axis, start=vals["start"],
                                    stop=vals["stop"], step=vals["step"])


def _resistance_request(reader: _Reader, name: str, side: str) -> ResistanceSweepRequest:
    schema = {"start": ("quantity", "resistance"), "stop": ("quantity", "resistance"),
              "points": ("count", None), "spacing": ("enum", ("log", "linear"))}
    vals = reader.section(name, schema, {"spacing": "log"}, scenario_section=False)
    if vals["start"] <= 0:
        reader.fail(name, "start", f"[{name}] start must be > 0")
    if vals["stop"] <= vals["start"]:
        reader.fail(name, "stop", f"[{name}] stop must be > start")
    if vals["points"] < 2:
        reader.fail(name, "points", f"[{name}] points must be >= 2")
    return ResistanceSweepRequest(side=side, start=vals["start"], stop=vals["stop"],
                                  points=vals["points"], spacing=vals["spacing"])


def _field_map_request(reader: _Reader) -> FieldMapRequest:
    schema = {
        "coil": ("enum", ("tx", "rx")),
        "plane": ("enum", ("xy", "xz", "yz")),
        "offset": ("quantity", "length"),
        "axis1_start": ("quantity", "length"),
        "axis1_stop": ("quantity", "length"),
        "axis1_points": ("count", None),
        "axis2_start": ("quantity", "length"),
        "axis2_stop": ("quantity", "length"),
        "axis2_points": ("count", None),
        "current": ("quantity", "current"),
    }
    defaults = {"coil": "tx", "offset": 0.0, "current": 1.0}
    vals = reader.section("field_map", schema, defaults, scenario_section=False)
    req = FieldMapRequest(**vals)
    try:
        req.grid_spec()
    except ValueError as exc:
        raise reader.anchored("field_map", str(exc))
    return req


def _spectrum_request(reader: _Reader) -> SpectrumRequest:
    schema = {"modes": ("string", None)}
    vals = reader.section("spectrum", schema, {"modes": "tuned untuned"},
                          scenario_section=False)
    tokens = tuple(t for t in re.split(r"[,\s]+", vals["modes"].lower()) if t)
    if not tokens or any(t not in ("tuned", "untuned") for t in tokens):
        reader.fail("spectrum", "modes",
                    "[spectrum] modes must be a subset of: tuned untuned")
    if len(set(tokens)) != len(tokens):
        reader.fail("spectrum", "modes", "[spectrum] modes repeats a mode")
    return SpectrumRequest(modes=tokens)


def _dual_mode_request(reader: _Reader) -> DualModeRequest:
    schema = {"load_min": ("quantity", "resistance"),
              "load_max": ("quantity", "resistance"),
              "points": ("count", None)}
    defaults = {"load_min": 0.1, "load_max": 1e4, "points": 101}
    vals = reader.section("dual_mode", schema, defaults, scenario_section=False)
    if vals["load_min"] <= 0 or vals["load_max"] <= vals["load_min"]:
        reader.fail("dual_mode", None,
                    "[dual_mode] needs 0 < load_min < load_max")
    if vals["points"] < 2:
        reader.fail("dual_mode", "points", "[dual_mode] points must be >= 2")
    return DualModeRequest(**vals)


def parse_config(path: Union[str, Path], allow_defaults: bool = False) -> ScenarioConfig:
    """Read and validate a config file into a ScenarioConfig.

    With allow_defaults, absent scenario sections and keys fall back to
    the built-in nominal values (the ones `mqslink defaults` prints), so
    an empty file parses to the nominal scenario with no requests.
    Without it, every scenario key must be written out. Request sections
    are optional either way: presence requests the analysis. Unknown
    sections or keys, untagged dimensioned values, and out-of-range
    values are rejected with file:line anchored messages.
    """
    reader = _Reader(path, allow_defaults)
    parser = reader.parser

    known = set(_SCENARIO_SECTIONS) | set(_REQUEST_SECTIONS)
    for name in parser.sections():
        if name not in known:
            reader.fail(name, None,
                        f"unknown section [{name}]; known sections: "
                        f"{', '.join(list(_SCENARIO_SECTIONS) + list(_REQUEST_SECTIONS))}")

    defaults = _builtin_defaults()
    tx, l_tx_override = _coil_spec(reader, "tx_coil", defaults["tx_coil"])
    rx, l_rx_override = _coil_spec(reader, "rx_coil", defaults["rx_coil"])
    placement, circuit, grid, analysis, output = (
        reader.section(name, _SCENARIO_SCHEMAS[name], defaults[name],
                       scenario_section=True)
        for name in ("placement", "circuit", "frequency_grid", "analysis", "output"))

    if circuit["esr_mode"] == "fixed":
        for key in ("r_coil_tx", "r_coil_rx"):
            if circuit[key] is None:
                reader.fail("circuit", None,
                            f"[circuit] esr_mode = fixed requires key {key!r}")
            if circuit[key] < 0:
                reader.fail("circuit", key, f"[circuit] {key} must be >= 0")
    else:
        for key in ("r_coil_tx", "r_coil_rx"):
            if circuit[key] is not None:
                reader.fail("circuit", key,
                            f"[circuit] {key} is only valid with esr_mode = fixed")

    if grid["points"] < 2:
        reader.fail("frequency_grid", "points",
                    "[frequency_grid] points must be >= 2")
    if not 0 < grid["start"] < grid["stop"]:
        reader.fail("frequency_grid", None,
                    "[frequency_grid] needs 0 < start < stop")
    if analysis["segments_per_turn"] < 16:
        reader.fail("analysis", "segments_per_turn",
                    "[analysis] segments_per_turn must be >= 16")

    try:
        scenario = Scenario(tx=tx, rx=rx, x_eye=placement["x_eye"],
                            z_eye=placement["z_eye"],
                            tx_angle_deg=placement["tx_angle"],
                            r_source=circuit["r_source"], r_load=circuit["r_load"],
                            tuned_frequency=circuit["tuned_frequency"],
                            v_source=circuit["source_amplitude"],
                            l_tx_override=l_tx_override,
                            l_rx_override=l_rx_override)
    except ValueError as exc:
        message = str(exc)
        for section in ("placement", "circuit"):
            if any(key in message for key in
                   list(_PLACEMENT_SCHEMA if section == "placement" else _CIRCUIT_SCHEMA)):
                raise reader.anchored(section, message)
        raise ConfigError(message, reader.path)

    requests: List[Request] = []
    for name in parser.sections():          # file order = execution order
        if name in _SCENARIO_SECTIONS:
            continue
        if name == "spectrum":
            requests.append(_spectrum_request(reader))
        elif name == "capacity":
            for key in parser.options(name):
                reader.fail(name, key, f"[capacity] takes no keys; got {key!r}")
            requests.append(CapacityRequest())
        elif name == "dual_mode":
            requests.append(_dual_mode_request(reader))
        elif name == "field_map":
            requests.append(_field_map_request(reader))
        elif name.startswith("sweep "):
            target = name.split(" ", 1)[1]
            if target in _SWEEP_AXES:
                requests.append(_misalignment_request(reader, name, target))
            else:
                requests.append(_resistance_request(reader, name, target))

    return ScenarioConfig(
        scenario=scenario, esr_mode=circuit["esr_mode"],
        r_coil_tx=circuit["r_coil_tx"], r_coil_rx=circuit["r_coil_rx"],
        grid_start=grid["start"], grid_stop=grid["stop"],
        grid_points=grid["points"], noise_floor_dbv=analysis["noise_floor"],
        snr_convention=analysis["snr_convention"],
        segments_per_turn=analysis["segments_per_turn"],
        output_dir=output["directory"], requests=tuple(requests),
        config_digest=reader.digest)


DEFAULT_CONFIG = """\
# mqslink scenario config (nominal values).
#
# Dimensioned values carry unit tags: lengths m/cm/mm/um, frequency
# Hz/kHz/MHz/GHz, resistance ohm/kohm/Mohm, capacitance F/uF/nF/pF,
# inductance H/mH/uH/nH, voltage V/mV, current A/mA, conductivity
# S/m or MS/m, angles deg/rad, levels dBV. Counts are bare integers.
# Optional values accept "none".

[tx_coil]
turns = 5
inner_radius = 60 mm
wire_diameter = 0.137 mm
wire_spacing = 0.5 mm
shape = flat-spiral
sphere_radius = none
conductivity = 5.8e7 S/m
# measured value; the spiral formula is low-confidence at this aspect ratio
inductance_override = 35 uH
parasitic_capacitance = none

[rx_coil]
turns = 5
inner_radius = 4 mm
wire_diameter = 0.137 mm
wire_spacing = 0.5 mm
shape = flat-spiral
# shape = helical needs the mounting sphere radius, e.g. 12 mm
sphere_radius = none
conductivity = 5.8e7 S/m
inductance_override = none
parasitic_capacitance = none

[placement]
x_eye = 92 mm
z_eye = 150 mm
tx_angle = 40 deg

[circuit]
r_source = 50 ohm
r_load = 1 kohm
tuned_frequency = 26 MHz
source_amplitude = 1 V
# frequency: skin-effect coil loss at each solve frequency
# fixed:     constant r_coil_tx / r_coil_rx (both required)
# none:      lossless coils
esr_mode = frequency
r_coil_tx = none
r_coil_rx = none

[frequency_grid]
start = 20 MHz
stop = 30 MHz
points = 1001

[analysis]
noise_floor = -85 dBV
snr_convention = voltage
segments_per_turn = 360

[output]
directory = out

# A request section's presence asks for that analysis; outputs land in
# the output directory next to report.json.

[spectrum]
modes = tuned untuned

[capacity]

# [sweep tx_angle]
# start = 0 deg
# stop = 90 deg
# step = 10 deg

# [sweep lateral]
# start = 0 mm
# stop = 200 mm
# step = 25 mm

# [sweep axial]
# start = 100 mm
# stop = 300 mm
# step = 50 mm

# [sweep r_source]
# start = 10 ohm
# stop = 400 ohm
# points = 13
# spacing = log

# [sweep r_load]
# start = 1 ohm
# stop = 10 kohm
# points = 13
# spacing = log

# [field_map]
# coil = tx
# plane = xz
# offset = 0 mm
# axis1_start = -150 mm
# axis1_stop = 150 mm
# axis1_points = 31
# axis2_start = 50 mm
# axis2_stop = 250 mm
# axis2_points = 21
# current = 1 A

# [dual_mode]
# load_min = 0.1 ohm
# load_max = 10 kohm
# points = 101
"""


def _builtin_defaults() -> Dict[str, Dict]:
    """Scenario section values of DEFAULT_CONFIG, parsed strictly.

    The fallbacks of allow_defaults come from the text `mqslink
    defaults` prints, through the parser's own unit arithmetic, so that
    text parses to the same values by construction.
    """
    reader = _Reader("<defaults>", allow_defaults=False,
                     raw=DEFAULT_CONFIG.encode("utf-8"))
    return {name: reader.section(name, schema, {}, scenario_section=True)
            for name, schema in _SCENARIO_SCHEMAS.items()}


# ---------------------------------------------------------------------------
# serialization

def _fmt(value) -> str:
    """One CSV cell. Masked (None or non-finite float) cells are empty."""
    if value is None:
        return ""
    if isinstance(value, float):
        if not math.isfinite(value):
            return ""
        return format(value, ".17g")
    return str(value)


def _json_text(value, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f'{inner}{json.dumps(str(k))}: {_json_text(v, indent + 1)}'
                 for k, v in value.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{inner}{_json_text(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if not math.isfinite(v):
            return "null"               # JSON has no inf/nan; mask instead
        return format(v, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__} to JSON")


def _atomic_write(path: Path, text: str) -> None:
    """Write via a temp file in the same directory, then rename over."""
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _csv_text(header: str, rows) -> str:
    """CSV text: the header, then one line per row of cells.

    A row of finite floats is written through one %.17g template; any
    other row (a None, a string, an int or a non-finite float in it) is
    joined cell by cell through _fmt. Both give the same text.
    """
    template = ",".join(["%.17g"] * (header.count(",") + 1))
    lines = [header]
    for cells in rows:
        if all(type(c) is float for c in cells) and math.isfinite(sum(cells)):
            lines.append(template % cells)
        else:
            lines.append(",".join([_fmt(c) for c in cells]))
    return "\n".join(lines) + "\n"


def emit_spectrum_csv(spectrum: Spectrum, path: Path) -> None:
    h, z = spectrum.h, spectrum.z11
    rows = zip(spectrum.frequencies.tolist(), h.real.tolist(), h.imag.tolist(),
               [path_loss_db(v) for v in h.tolist()],
               z.real.tolist(), z.imag.tolist())
    _atomic_write(path, _csv_text(
        "frequency_hz,h_real,h_imag,h_mag_db,z11_real_ohm,z11_imag_ohm", rows))


def emit_sweep_csv(sweep: SweepResult, path: Path) -> None:
    rows = ((row.value, sweep.unit, row.peak_db, row.peak_freq_hz,
             row.bw3db_hz, row.capacity_bps, row.p_rx_w) for row in sweep.rows)
    _atomic_write(path, _csv_text(
        "param,param_unit,peak_db,peak_freq_hz,bw3db_hz,capacity_bps,p_rx_w", rows))


def emit_field_map_csv(samples: Sequence[FieldSample], path: Path) -> None:
    masked = (None, None, None)
    rows = (s.position + (masked if s.b is None else s.b) for s in samples)
    _atomic_write(path, _csv_text("x,y,z,Bx,By,Bz", rows))


def emit_capacity_csv(study: BandwidthStudy, path: Path) -> None:
    rows = ((row.threshold_db, row.f_low_hz, row.f_high_hz, row.bandwidth_hz,
             row.signal_dbv, row.capacity_bps) for row in study.rows)
    _atomic_write(path, _csv_text(
        "threshold_db,f_low_hz,f_high_hz,bandwidth_hz,signal_dbv,capacity_bps", rows))


@dataclass(frozen=True)
class RunReport:
    """What one `mqslink run` did: outputs, timings, complaints."""

    artifact_version: str
    config_digest: str
    outputs: Tuple[Tuple[str, Tuple[str, ...]], ...]   # (request label, files)
    timings_s: Tuple[Tuple[str, float], ...]
    warnings: Tuple[str, ...]
    failures: Tuple[str, ...]


def emit_report_json(report: RunReport, path: Path) -> None:
    payload = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "artifact_version": report.artifact_version,
        "config_digest": report.config_digest,
        "outputs": [{"request": label, "files": list(files)}
                    for label, files in report.outputs],
        "timings_s": {label: t for label, t in report.timings_s},
        "warnings": list(report.warnings),
        "failures": list(report.failures),
    }
    _atomic_write(path, _json_text(payload) + "\n")


# ---------------------------------------------------------------------------
# execution

def _apply_esr_mode(link: LinkCircuit, config: ScenarioConfig) -> LinkCircuit:
    if config.esr_mode == "fixed":
        return replace(link, esr_tx=None, esr_rx=None,
                       r_coil_tx=config.r_coil_tx, r_coil_rx=config.r_coil_rx)
    if config.esr_mode == "none":
        return replace(link, esr_tx=None, esr_rx=None,
                       r_coil_tx=0.0, r_coil_rx=0.0)
    return link


def run_scenario(config: ScenarioConfig, out_dir: Optional[str] = None) -> RunReport:
    """Execute the config's requests in declared order; write all outputs.

    Each request is isolated: one failing is recorded in the report's
    failures and the rest still run. report.json is always written last.
    """
    out = Path(out_dir if out_dir is not None else config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    sc = config.scenario
    grid = config.frequency_grid()

    timings: List[Tuple[str, float]] = []
    warn_list: List[str] = []
    failures: List[str] = []
    outputs: List[Tuple[str, Tuple[str, ...]]] = []

    for name, spec, override in (("tx", sc.tx, sc.l_tx_override),
                                 ("rx", sc.rx, sc.l_rx_override)):
        est = estimate_inductance(spec, override)
        if est.validity_flag == LOW_CONFIDENCE:
            warn_list.append(f"{name} coil inductance is {est.source} and "
                             "low-confidence for this geometry")

    m_cache: Dict[str, float] = {"s": 0.0}

    def nominal_m() -> float:
        if "m" not in m_cache:
            t0 = time.perf_counter()
            m_cache["m"] = scenario_mutual_inductance(sc, config.segments_per_turn)
            m_cache["s"] = time.perf_counter() - t0
            timings.append(("mutual_inductance", m_cache["s"]))
            _log.info("mutual inductance %.6g H (%.2f s)", m_cache["m"], m_cache["s"])
        return m_cache["m"]

    def build_link(tuned: bool) -> LinkCircuit:
        return _apply_esr_mode(scenario_link(sc, nominal_m(), tuned=tuned), config)

    def execute(req: Request) -> Tuple[str, ...]:
        if isinstance(req, SpectrumRequest):
            files = []
            for mode in req.modes:
                spectrum = frequency_sweep(build_link(mode == "tuned"), grid)
                fname = f"spectrum_{mode}.csv"
                emit_spectrum_csv(spectrum, out / fname)
                files.append(fname)
            return tuple(files)

        if isinstance(req, MisalignmentSweepRequest):
            template = _apply_esr_mode(scenario_link(sc, m=0.0, tuned=True), config)
            sweep = misalignment_sweep(
                sc, req.axis, req.values(),
                segments_per_turn=config.segments_per_turn, grid=grid,
                noise_floor_dbv=config.noise_floor_dbv,
                convention=config.snr_convention, link_template=template)
            warn_list.extend(f"sweep {req.axis}: {note}" for note in sweep.notes)
            fname = f"sweep_{req.axis}.csv"
            emit_sweep_csv(sweep, out / fname)
            return (fname,)

        if isinstance(req, ResistanceSweepRequest):
            sweep = resistance_sweep(build_link(tuned=True), req.side,
                                     req.values(), grid=grid,
                                     noise_floor_dbv=config.noise_floor_dbv,
                                     convention=config.snr_convention)
            fname = f"sweep_{req.side}.csv"
            emit_sweep_csv(sweep, out / fname)
            return (fname,)

        if isinstance(req, FieldMapRequest):
            tx_pose, rx_pose = scenario_poses(sc)
            spec, pose = (sc.tx, tx_pose) if req.coil == "tx" else (sc.rx, rx_pose)
            coil = apply_pose(build_filament_coil(spec, config.segments_per_turn),
                              pose)
            samples = field_map(coil, req.current, req.grid_spec())
            masked = sum(1 for s in samples if s.masked)
            if masked:
                warn_list.append(f"field_map: {masked} of {len(samples)} points "
                                 "inside the wire exclusion zone are masked")
            emit_field_map_csv(samples, out / "field_map.csv")
            return ("field_map.csv",)

        if isinstance(req, CapacityRequest):
            spectrum = frequency_sweep(build_link(tuned=True), grid)
            study = capacity_vs_bandwidth(spectrum,
                                          noise_floor_dbv=config.noise_floor_dbv,
                                          convention=config.snr_convention)
            masked = sum(1 for row in study.rows if row.masked)
            if masked:
                warn_list.append(f"capacity: {masked} threshold rows masked "
                                 "(band runs off the frequency grid)")
            emit_capacity_csv(study, out / "capacity.csv")
            files = ["capacity.csv"]
            try:
                rep = capacity_report(spectrum,
                                      noise_floor_dbv=config.noise_floor_dbv,
                                      convention=config.snr_convention)
            except TruncatedBandError as exc:
                warn_list.append(f"capacity: {exc}; capacity_report.json "
                                 "not written")
            else:
                payload = {
                    "bandwidth_hz": rep.bandwidth_hz,
                    "signal_dbv": rep.signal_dbv,
                    "noise_floor_dbv": rep.noise_floor_dbv,
                    "snr_db": rep.snr_db,
                    "capacity_bps": rep.capacity_bps,
                    "convention": rep.convention,
                }
                _atomic_write(out / "capacity_report.json",
                              _json_text(payload) + "\n")
                files.append("capacity_report.json")
            return tuple(files)

        if isinstance(req, DualModeRequest):
            dm = dual_mode_report(build_link(tuned=True), r_load_grid=req.loads(),
                                  grid=grid)
            payload = {
                "power_mode_r_load_ohm": dm.power_mode_r_load,
                "comm_mode_r_load_ohm": dm.comm_mode_r_load,
                "p_rx_power_mode_w": dm.p_rx_power_mode,
                "p_rx_comm_mode_w": dm.p_rx_comm_mode,
                "v_rx_power_mode_v": dm.v_rx_power_mode,
                "v_rx_comm_mode_v": dm.v_rx_comm_mode,
            }
            _atomic_write(out / "dual_mode.json", _json_text(payload) + "\n")
            return ("dual_mode.json",)

        raise TypeError(f"unhandled request {req!r}")

    for req in config.requests:
        label = req.label
        m_before = m_cache["s"]
        t0 = time.perf_counter()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                files = execute(req)
            warn_list.extend(f"{label}: {w.message}" for w in caught)
            outputs.append((label, files))
            _log.info("%s -> %s (%.2f s)", label, ", ".join(files),
                      time.perf_counter() - t0)
        except Exception as exc:
            failures.append(f"{label}: {exc}")
            _log.error("%s failed: %s", label, exc)
        # exclusive: a nominal M computed on the way has its own entry
        timings.append((label, time.perf_counter() - t0 - (m_cache["s"] - m_before)))

    report = RunReport(artifact_version=ARTIFACT_VERSION,
                       config_digest=config.config_digest,
                       outputs=tuple(outputs), timings_s=tuple(timings),
                       warnings=tuple(warn_list), failures=tuple(failures))
    emit_report_json(report, out / "report.json")
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mqslink",
        description="Simulate a resonant inductive link between a necklace "
                    "transmit coil and a contact lens receive coil.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the analyses a config requests")
    p_run.add_argument("config", help="path to an INI config file")
    p_run.add_argument("--out", default=None, metavar="DIR",
                       help="output directory (overrides [output] directory)")
    p_run.add_argument("--threads", type=int, default=None, metavar="N",
                       help="accepted for compatibility; sweeps run serially")
    p_run.add_argument("--log", default="WARNING", type=str.upper,
                       choices=("DEBUG", "INFO", "WARNING", "ERROR"),
                       metavar="LEVEL", help="log level (default WARNING)")

    p_val = sub.add_parser("validate", help="check a config without running it")
    p_val.add_argument("config", help="path to an INI config file")

    sub.add_parser("defaults", help="print the built-in nominal config")

    args = parser.parse_args(argv)

    if args.command == "defaults":
        sys.stdout.write(DEFAULT_CONFIG)
        return 0

    try:
        config = parse_config(args.config, allow_defaults=True)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        n = len(config.requests)
        print(f"{args.config}: OK ({n} requested "
              f"{'analysis' if n == 1 else 'analyses'})")
        return 0

    logging.basicConfig(level=getattr(logging, args.log),
                        format="%(levelname)s %(name)s: %(message)s")
    if args.threads is not None and args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2

    report = run_scenario(config, out_dir=args.out)
    for failure in report.failures:
        print(f"failed: {failure}", file=sys.stderr)
    out = args.out if args.out is not None else config.output_dir
    n_files = sum(len(files) for _, files in report.outputs) + 1
    print(f"wrote {n_files} files to {out}")
    return 1 if report.failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
