"""Config-driven command line front end.

    mqslink run <config> [--out DIR] [--log LEVEL]
    mqslink validate <config>
    mqslink defaults

Configs are INI files. Every dimensioned value carries a unit tag
("60 mm", "26 MHz", "50 ohm"); bare numbers are reserved for counts.
Scenario sections ([tx_coil], [rx_coil], [placement], [circuit],
[frequency_grid], [analysis], [output]) fall back to DEFAULT_CONFIG,
the nominal config `mqslink defaults` prints; the presence of a request section ([spectrum],
[sweep tx_angle], [field_map], ...) asks for that analysis. Every
section is read one way: its schema says how to read each value, and
the record the values build (CoilSpec, Scenario, ScenarioConfig, or a
request record) states every value rule. REQUESTS maps each request
section's name to its record's constructor and schema; a request
record's run method computes the analysis and writes its files.
Outputs are CSV/JSON files
written atomically (temp file, then rename) plus a report.json
manifest, which is written even when requests fail.
"""

from __future__ import annotations

import argparse
import functools
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
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import (Callable, Dict, List, Optional, Protocol, Sequence,
                    Tuple, Union)

import numpy as np

from .circuit import LinkCircuit, Spectrum, frequency_sweep, path_loss_db
from .field_coupling import field_map
from .geometry import (MOST_VALUES, SWEEP_RANGES, CoilSpec, Scenario, apply_pose,
                       build_filament_coil, check_fields, check_placement,
                       scenario_poses)
from .link_analysis import (POWER, VOLTAGE, BandwidthCapacityRow,
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


# Each tag's power of ten to SI per dimension: "0.137 mm" reads as the
# decimal 0.137e-3, the double nearest it. Angles are in degrees; rad is
# the one tag that also scales by a factor.
_UNITS: Dict[str, Dict[str, int]] = {
    "length": {"m": 0, "cm": -2, "mm": -3, "um": -6},
    "frequency": {"Hz": 0, "kHz": 3, "MHz": 6, "GHz": 9},
    "resistance": {"ohm": 0, "kohm": 3, "Mohm": 6, "Ω": 0, "kΩ": 3, "MΩ": 6},
    "capacitance": {"F": 0, "uF": -6, "nF": -9, "pF": -12},
    "inductance": {"H": 0, "mH": -3, "uH": -6, "nH": -9},
    "voltage": {"V": 0, "mV": -3},
    "current": {"A": 0, "mA": -3},
    "conductivity": {"S/m": 0, "MS/m": 6},
    "angle": {"deg": 0, "rad": 0},
    "level": {"dBV": 0},
}

class Request(Protocol):
    """A request section's record: REQUESTS[name] builds it from the
    section's values and it checks them, as every record does.

    run computes the analysis, writes its files into `out`, reports its
    notes through warnings.warn and returns the names of the files it
    wrote; grid() and build_link(tuned) give the frequency grid and the
    nominal link, built once per run, which keeps its terms for the grid.
    """

    def run(self, config: ScenarioConfig, grid: Callable[[], np.ndarray], out: Path,
            build_link: Callable[[bool], LinkCircuit]) -> Tuple[str, ...]: ...


@dataclass(frozen=True)
class ScenarioConfig:
    """A parsed config: the scenario, solver knobs, and requested analyses."""

    scenario: Scenario
    grid_start: float
    grid_stop: float
    grid_points: int
    noise_floor_dbv: float
    snr_convention: str
    segments_per_turn: int
    output_dir: str
    requests: Dict[str, Request]  # section name -> request, in file order
    config_digest: str            # sha256 of the config file bytes

    def __post_init__(self):
        check_fields(self, positive=("grid_start",),
                     choices={"snr_convention": (VOLTAGE, POWER)},
                     counts={"grid_points": 2, "segments_per_turn": 16},
                     ordered=(("grid_stop", ">", "grid_start"),))
        # frequency_grid's points are i * step + grid_start, the product and
        # the sum each rounded by at most half an ulp of grid_stop, and its
        # last is grid_stop: a step above 3 such ulps keeps them increasing,
        # if the step is a normal double (a subnormal one has no relative
        # rounding bound, and i times its error can pass grid_stop)
        least = max(3.0 * math.ulp(self.grid_stop), sys.float_info.min)
        if not (self.grid_stop - self.grid_start) / (self.grid_points - 1) > least:
            raise ValueError(f"grid_points must leave a step above {least!r} Hz from "
                             f"{self.grid_start!r} to {self.grid_stop!r} Hz, "
                             f"got {self.grid_points!r}")
        if not self.output_dir:
            raise ValueError("output_dir must not be empty")

    def frequency_grid(self) -> np.ndarray:
        return np.linspace(self.grid_start, self.grid_stop, self.grid_points)


# ---------------------------------------------------------------------------
# schemas: key -> (kind, detail) says how to read a value's text, and no
# more: the record the values build states every value rule. kind is
# count | quantity | optional_quantity | word | string | words; detail is
# a quantity's unit dimension, else None.

_COIL_SCHEMA = {
    "turns": ("count", None),
    "inner_radius": ("quantity", "length"),
    "wire_diameter": ("quantity", "length"),
    "wire_spacing": ("quantity", "length"),
    "shape": ("word", None),
    "sphere_radius": ("optional_quantity", "length"),
    "conductivity": ("quantity", "conductivity"),
    "inductance_override": ("optional_quantity", "inductance"),
    "resistance_override": ("optional_quantity", "resistance"),
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
}

_GRID_SCHEMA = {
    "start": ("quantity", "frequency"),
    "stop": ("quantity", "frequency"),
    "points": ("count", None),
}

_ANALYSIS_SCHEMA = {
    "noise_floor": ("quantity", "level"),
    "snr_convention": ("word", None),
    "segments_per_turn": ("count", None),
}

_OUTPUT_SCHEMA = {"directory": ("string", None)}

_SCENARIO_SCHEMAS = {"tx_coil": _COIL_SCHEMA, "rx_coil": _COIL_SCHEMA,
                     "placement": _PLACEMENT_SCHEMA, "circuit": _CIRCUIT_SCHEMA,
                     "frequency_grid": _GRID_SCHEMA, "analysis": _ANALYSIS_SCHEMA,
                     "output": _OUTPUT_SCHEMA}

# record field -> the (section, key) it is read from: Scenario's from
# [placement] and [circuit] (tx and rx are CoilSpecs), ScenarioConfig's
# from the run settings
_RENAMED = {"tx_angle": "tx_angle_deg", "source_amplitude": "v_source",
            "start": "grid_start", "stop": "grid_stop", "points": "grid_points",
            "noise_floor": "noise_floor_dbv", "directory": "output_dir"}
_SCENARIO_KEYS, _CONFIG_KEYS = ({_RENAMED.get(key, key): (section, key)
                                 for section in sections for key in _SCENARIO_SCHEMAS[section]}
                                for sections in (("placement", "circuit"),
                                                 ("frequency_grid", "analysis", "output")))


class _Reader:
    """One config file, read in one pass: each section's keys with their
    raw value text, and the line of every section header and key."""

    def __init__(self, path: Union[str, Path], raw: Optional[bytes] = None):
        self.path = str(path)
        if raw is None:
            try:
                raw = Path(path).read_bytes()
            except OSError as exc:
                raise ConfigError(f"cannot read config: {exc}")
        self.digest = hashlib.sha256(raw).hexdigest()
        try:
            text = raw.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config is not UTF-8: {exc}", self.path)

        self.sections: Dict[str, Dict[str, str]] = {}
        self.lines: Dict[Tuple[str, Optional[str]], int] = {}
        section: Optional[str] = None
        for lineno, line in enumerate(text.splitlines(), 1):
            line = re.split(r"\s#", line, maxsplit=1)[0].strip()
            if not line or line.startswith(("#", ";")):
                continue
            header = re.fullmatch(r"\[(.+)\]", line)
            key, eq, value = line.partition("=")
            key = key.strip().lower()
            if header and header[1] not in self.sections:
                section = header[1]
                self.sections[section] = {}
                self.lines[section, None] = lineno
                continue
            if header:
                error = f"repeated section {line}"
            elif not eq or not key:
                error = f"expected '[section]' or 'key = value', got {line!r}"
            elif section is None:
                error = f"key {key!r} comes before the first section"
            elif key in self.sections[section]:
                error = f"repeated key {key!r} in [{section}]"
            else:
                self.sections[section][key] = value.strip()
                self.lines[section, key] = lineno
                continue
            raise ConfigError(error, self.path, lineno)

    def fail(self, section: str, key: Optional[str], message: str) -> None:
        line = self.lines.get((section, key)) or self.lines.get((section, None))
        raise ConfigError(message, self.path, line)

    def _value(self, section: str, key: str, raw: str, kind: str, detail):
        """raw read as its kind says; only text that cannot be read as
        that kind fails here."""
        where = f"[{section}] {key}"
        if kind == "string":
            return raw
        if kind == "word":
            return raw.lower()
        if kind == "words":
            return tuple(word for word in re.split(r"[,\s]+", raw.lower()) if word)
        if kind == "count":
            if not re.fullmatch(r"[+-]?\d+", raw):
                self.fail(section, key,
                          f"{where} takes a bare integer count; got {raw!r}")
            try:
                return int(raw)
            except ValueError:    # past int()'s digit limit
                self.fail(section, key, f"{where} is too long a count ({len(raw)} digits)")
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
            value = float(number)
            mantissa, _, exponent = number.lower().partition("e")
            if math.isfinite(float(mantissa)):    # nan and inf have no exponent to shift
                value = float(f"{mantissa}e{int(exponent or 0) + units[unit]}")
        except ValueError:
            self.fail(section, key, f"{where}: cannot parse number {number!r}")
        if unit == "rad":
            value *= 180.0 / math.pi
        return value

    def section(self, name: str, schema: Dict, defaults: Dict[str, str]) -> Dict:
        """[name] read by schema, in SI units: key -> (kind, detail), or a
        request's (kind, detail, default text or None). A key the file
        leaves out is read from its text in defaults, else from its
        schema default; one with neither is required."""
        given = self.sections.get(name, {})
        out = {}
        for key, (kind, detail, *default) in schema.items():
            raw = given.get(key, defaults.get(key, *default))
            if raw is None:
                self.fail(name, None, f"[{name}] requires key {key!r}")
            out[key] = self._value(name, key, raw, kind, detail)
        for key in given:
            if key not in schema:
                self.fail(name, key,
                          f"unknown key {key!r} in [{name}]; "
                          f"allowed: {', '.join(sorted(schema)) or 'none'}")
        return out

    def build(self, section: str, cls, keys: Dict, **kwargs):
        """cls(**kwargs). A ValueError's message starts with the field it
        rejects, and fails at keys[field] = (section, key) or else at
        [section] field (the section header if field is not a key)."""
        try:
            return cls(**kwargs)
        except ValueError as exc:
            message = str(exc)
            field = message.split(" ", 1)[0]
            self.fail(*keys.get(field, (section, field)), message)


def parse_config(path: Union[str, Path], allow_defaults: bool = False) -> ScenarioConfig:
    """Read and validate a config file into a ScenarioConfig.

    With allow_defaults, an absent scenario section or key takes its
    value text from DEFAULT_CONFIG (what `mqslink defaults` prints),
    read by the same rules as the file, so an empty file parses to the
    nominal scenario with no requests. Without it there are no scenario
    defaults: every scenario key must be written out. Request sections
    are optional either way: presence requests the analysis. Unknown
    sections or keys, malformed lines, untagged dimensioned values, and
    non-finite or out-of-range values are rejected with file:line
    anchored messages.
    """
    reader = _Reader(path)
    known = (*_SCENARIO_SCHEMAS, *REQUESTS)
    for name in reader.sections:
        if name not in known:
            reader.fail(name, None, f"unknown section [{name}]; known sections: "
                                    f"{', '.join(known)}")

    defaults = (_Reader("<defaults>", DEFAULT_CONFIG.encode("utf-8")).sections
                if allow_defaults else {})
    read = {name: reader.section(name, schema, defaults.get(name, {}))
            for name, schema in _SCENARIO_SCHEMAS.items()}
    tx, rx = (reader.build(name, CoilSpec, {}, **read[name])
              for name in ("tx_coil", "rx_coil"))
    scenario = reader.build("circuit", Scenario, _SCENARIO_KEYS, tx=tx, rx=rx, **{
        field: read[section][key] for field, (section, key) in _SCENARIO_KEYS.items()})
    config = reader.build("analysis", ScenarioConfig, _CONFIG_KEYS, scenario=scenario,
                          requests={}, config_digest=reader.digest, **{
        field: read[section][key] for field, (section, key) in _CONFIG_KEYS.items()})

    # read after the scenario, whose errors come first; file order = execution order
    requests = {}
    for name in reader.sections:
        if name in REQUESTS:
            make, schema = REQUESTS[name]
            requests[name] = reader.build(name, make, {}, **reader.section(name, schema, {}))
    return replace(config, requests=requests)


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
# measured values, or none for the model; the L formula is low-confidence here
inductance_override = 35 uH
resistance_override = none
parasitic_capacitance = none

[rx_coil]
turns = 5
inner_radius = 4 mm
wire_diameter = 0.137 mm
wire_spacing = 0.5 mm
shape = flat-spiral
# shape = helical winds onto a sphere; sphere_radius = none takes 12 mm
sphere_radius = none
conductivity = 5.8e7 S/m
inductance_override = none
resistance_override = none
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

[frequency_grid]
start = 20 MHz
stop = 30 MHz
points = 1001

[analysis]
noise_floor = -85 dBV
snr_convention = voltage
# accepted (>= 16) but changes no result: B and M use the exact winding
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


# ---------------------------------------------------------------------------
# serialization

def _fmt(value: float) -> str:
    """One CSV number as ".17g" writes it; a masked (non-finite) one is empty."""
    return format(value, ".17g") if math.isfinite(value) else ""


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


def _emit_json(payload, path: Path) -> None:
    """payload as indented JSON; a NaN or infinite number raises ValueError."""
    _atomic_write(path, json.dumps(payload, indent=2, allow_nan=False) + "\n")


def _csv_text(header: str, columns) -> str:
    """CSV text: the header, then one line per row. Each column is a 1-D
    float64 array or a text cell that every row repeats (a sweep's
    unit). A finite row takes one %-format, its numbers as "%.17g" writes
    them, which is what _fmt's format(v, ".17g") writes for a finite
    value; an array column whose first value recurs (a grid's
    coordinates) has each distinct value formatted once. A row with a
    non-finite number goes through _fmt, so its masked cells are empty."""
    # values: each column as the masked-row pass reads it, by row index
    values, cells, specs, finite = [], [], [], np.True_
    for col in columns:
        if isinstance(col, str):
            values.append(col)
            specs.append(col.replace("%", "%%"))
            continue
        finite = finite & np.isfinite(col)
        if np.count_nonzero(col == col[:1]) > 1:
            # distinct bit patterns, so -0.0 keeps its sign
            bits, at = np.unique(col.view(np.int64), return_inverse=True)
            text = np.array(["%.17g" % v for v in bits.view(np.float64).tolist()], dtype=object)
            cells.append(text[at].tolist())
            values.append(col)
            specs.append("%s")
        else:
            cells.append(col.tolist())
            values.append(cells[-1])
            specs.append("%.17g")
    line = ",".join(specs)
    lines = [header] + [line % row for row in zip(*cells)]
    for i in np.flatnonzero(~finite).tolist():
        lines[i + 1] = ",".join([v if isinstance(v, str) else _fmt(v[i]) for v in values])
    return "\n".join(lines) + "\n"


def emit_spectrum_csv(spectrum: Spectrum, path: Path) -> None:
    h, z = spectrum.h, spectrum.z11
    _atomic_write(path, _csv_text(
        "frequency_hz,h_real,h_imag,h_mag_db,z11_real_ohm,z11_imag_ohm",
        (spectrum.frequencies, h.real, h.imag, path_loss_db(h), z.real, z.imag)))


def emit_sweep_csv(sweep: SweepResult, path: Path) -> None:
    """One line per row; a masked (None) value is an empty cell."""
    param, *values = np.array(
        [(row.value, row.peak_db, row.peak_freq_hz, row.bw3db_hz, row.capacity_bps, row.p_rx_w)
         for row in sweep.rows], dtype=float).reshape(-1, 6).T
    _atomic_write(path, _csv_text(
        "param,param_unit,peak_db,peak_freq_hz,bw3db_hz,capacity_bps,p_rx_w",
        (param, sweep.unit, *values)))


def emit_field_map_csv(points: np.ndarray, b: np.ndarray, path: Path) -> None:
    """One row per point; a masked (NaN) B row gets empty cells."""
    _atomic_write(path, _csv_text("x,y,z,Bx,By,Bz", (*points.T, *b.T)))


def emit_capacity_csv(study: Sequence[BandwidthCapacityRow], path: Path) -> None:
    """One line per threshold; a masked (None) value is an empty cell."""
    columns = np.array(
        [(row.threshold_db, row.f_low_hz, row.f_high_hz, row.bandwidth_hz, row.signal_dbv,
          row.capacity_bps) for row in study], dtype=float).reshape(-1, 6).T
    _atomic_write(path, _csv_text(
        "threshold_db,f_low_hz,f_high_hz,bandwidth_hz,signal_dbv,capacity_bps", columns))


@dataclass(frozen=True)
class RunReport:
    """What one `mqslink run` did: outputs, timings, complaints."""

    config_digest: str
    outputs: Tuple[Tuple[str, Tuple[str, ...]], ...]   # (section name, files)
    timings_s: Tuple[Tuple[str, float], ...]
    warnings: Tuple[str, ...]
    failures: Tuple[str, ...]


def emit_report_json(report: RunReport, path: Path) -> None:
    payload = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "artifact_version": ARTIFACT_VERSION,
        "config_digest": report.config_digest,
        "outputs": [{"request": name, "files": list(files)}
                    for name, files in report.outputs],
        "timings_s": dict(report.timings_s),
        "warnings": list(report.warnings),
        "failures": list(report.failures),
    }
    _emit_json(payload, path)


# ---------------------------------------------------------------------------
# requests: one record class per request section (see Request and REQUESTS)

_SIDES = ("r_source", "r_load")
_COILS = ("tx", "rx")          # in the order scenario_poses returns their poses


@dataclass(frozen=True)
class SpectrumRequest:
    """[spectrum]: the link's transfer spectrum, tuned and/or untuned."""

    modes: Tuple[str, ...]

    def __post_init__(self):
        if not self.modes or not set(self.modes) <= {"tuned", "untuned"}:
            raise ValueError(f"modes must be a subset of: tuned untuned, got {self.modes!r}")
        if len(set(self.modes)) < len(self.modes):
            raise ValueError(f"modes repeats a mode, got {self.modes!r}")

    def run(self, config, grid, out, build_link):
        files = []
        for mode in self.modes:
            fname = f"spectrum_{mode}.csv"
            emit_spectrum_csv(frequency_sweep(build_link(mode == "tuned"), grid()), out / fname)
            files.append(fname)
        return tuple(files)


@dataclass(frozen=True)
class MisalignmentSweepRequest:
    """[sweep tx_angle|lateral|axial]: the link at each pose on one axis."""

    axis: str
    start: float
    stop: float
    step: float

    def __post_init__(self):
        check_fields(self, choices={"axis": tuple(SWEEP_RANGES)}, positive=("step",),
                     ordered=(("stop", ">=", "start"),))
        for name in ("start", "stop"):
            check_placement(self.axis, name, getattr(self, name))
        if (self.stop - self.start) / self.step + 1.0 > MOST_VALUES:    # one array of values()
            raise ValueError(f"step must leave at most {MOST_VALUES} values from "
                             f"{self.start!r} to {self.stop!r}, got {self.step!r}")

    def values(self) -> np.ndarray:
        n = int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1
        vals = self.start + self.step * np.arange(n)
        vals[-1] = min(vals[-1], self.stop)   # accumulation must not pass stop
        return vals

    def run(self, config, grid, out, build_link):
        sweep = misalignment_sweep(
            config.scenario, self.axis, self.values(), grid=grid(),
            noise_floor_dbv=config.noise_floor_dbv,
            convention=config.snr_convention)
        fname = f"sweep_{self.axis}.csv"
        emit_sweep_csv(sweep, out / fname)
        return (fname,)


@dataclass(frozen=True)
class ResistanceSweepRequest:
    """[sweep r_source|r_load]: the nominal link over one termination."""

    side: str
    start: float
    stop: float
    points: int
    spacing: str                  # log | linear

    def __post_init__(self):
        check_fields(self, choices={"side": _SIDES, "spacing": ("log", "linear")},
                     positive=("start",), counts={"points": 2},
                     ordered=(("stop", ">", "start"),))

    def values(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)

    def run(self, config, grid, out, build_link):
        sweep = resistance_sweep(build_link(True), self.side, self.values(),
                                 grid=grid(), noise_floor_dbv=config.noise_floor_dbv,
                                 convention=config.snr_convention)
        fname = f"sweep_{self.side}.csv"
        emit_sweep_csv(sweep, out / fname)
        return (fname,)


@dataclass(frozen=True)
class FieldMapRequest:
    """[field_map]: B of one coil, posed, at the points of a grid on an
    axis-aligned plane: plane names its two coordinates ("xy", "xz" or
    "yz") and offset fixes the third. axis1 is the first letter's range,
    axis2 the second's; points run row-major with axis1 as the slow index."""

    coil: str                     # tx | rx
    plane: str
    offset: float
    axis1_start: float
    axis1_stop: float
    axis1_points: int
    axis2_start: float
    axis2_stop: float
    axis2_points: int
    current: float

    def __post_init__(self):
        check_fields(self, choices={"coil": _COILS, "plane": ("xy", "xz", "yz")},
                     counts={"axis1_points": 2, "axis2_points": 2},
                     ordered=(("axis1_stop", ">", "axis1_start"),
                              ("axis2_stop", ">", "axis2_start")))
        # points() holds 3 coordinates per point in one array; Python ints
        # cannot wrap, and axis1 is the count reported on a tie
        n = {"axis1_points": int(self.axis1_points), "axis2_points": int(self.axis2_points)}
        big, other = sorted(n, key=n.get, reverse=True)
        if 3 * n[big] * n[other] > MOST_VALUES:
            raise ValueError(f"{big} must be at most {MOST_VALUES // (3 * n[other])} "
                             f"with {other} = {n[other]}, got {n[big]}")

    def points(self) -> np.ndarray:
        """All sample positions, shape (axis1_points*axis2_points, 3)."""
        a1 = np.linspace(self.axis1_start, self.axis1_stop, self.axis1_points)
        a2 = np.linspace(self.axis2_start, self.axis2_stop, self.axis2_points)
        points = np.full((a1.size * a2.size, 3), float(self.offset))
        for axis, values in zip(self.plane, np.meshgrid(a1, a2, indexing="ij")):
            points[:, "xyz".index(axis)] = values.ravel()
        return points

    def run(self, config, grid, out, build_link):
        sc = config.scenario
        spec, pose = getattr(sc, self.coil), scenario_poses(sc)[_COILS.index(self.coil)]
        coil = apply_pose(build_filament_coil(spec, config.segments_per_turn), pose)
        points = self.points()
        b = field_map(coil, self.current, points)
        masked = int(np.isnan(b[:, 0]).sum())
        if masked:
            warnings.warn(f"{masked} of {len(b)} points inside the wire "
                          "exclusion zone are masked")
        emit_field_map_csv(points, b, out / "field_map.csv")
        return ("field_map.csv",)


@dataclass(frozen=True)
class CapacityRequest:
    """[capacity]: Shannon capacity against bandwidth on the tuned link."""

    def run(self, config, grid, out, build_link):
        tuned = frequency_sweep(build_link(True), grid())
        budget = dict(noise_floor_dbv=config.noise_floor_dbv,
                      convention=config.snr_convention)
        study = capacity_vs_bandwidth(tuned, **budget)
        masked = sum(1 for row in study if row.masked)
        if masked:
            warnings.warn(f"{masked} threshold rows masked "
                          "(band runs off the frequency grid)")
        emit_capacity_csv(study, out / "capacity.csv")
        try:
            rep = capacity_report(tuned, **budget)
        except TruncatedBandError as exc:
            warnings.warn(f"{exc}; capacity_report.json not written")
            return ("capacity.csv",)
        _emit_json(asdict(rep), out / "capacity_report.json")
        return ("capacity.csv", "capacity_report.json")


@dataclass(frozen=True)
class DualModeRequest:
    """[dual_mode]: the power-mode and comm-mode loads of the tuned link."""

    load_min: float
    load_max: float
    points: int

    def __post_init__(self):
        check_fields(self, positive=("load_min",), counts={"points": 2},
                     ordered=(("load_max", ">", "load_min"),))

    def run(self, config, grid, out, build_link):
        loads = np.geomspace(self.load_min, self.load_max, self.points)
        dm = dual_mode_report(build_link(True), r_load_grid=loads, grid=grid())
        _emit_json(asdict(dm), out / "dual_mode.json")
        return ("dual_mode.json",)


# request section name -> (record constructor, schema), in the order
# error messages list them. A request's schema entry is (kind, detail,
# default text, or None for a required key).
REQUESTS: Dict[str, Tuple[Callable[..., Request], Dict]] = {
    "spectrum": (SpectrumRequest, {"modes": ("words", None, "tuned untuned")}),
    "capacity": (CapacityRequest, {}),
    "dual_mode": (DualModeRequest, {
        "load_min": ("quantity", "resistance", "0.1 ohm"),
        "load_max": ("quantity", "resistance", "10 kohm"),
        "points": ("count", None, "101"),
    }),
    "field_map": (FieldMapRequest, {
        "coil": ("word", None, "tx"),
        "plane": ("word", None, None),
        "offset": ("quantity", "length", "0 mm"),
        "axis1_start": ("quantity", "length", None),
        "axis1_stop": ("quantity", "length", None),
        "axis1_points": ("count", None, None),
        "axis2_start": ("quantity", "length", None),
        "axis2_stop": ("quantity", "length", None),
        "axis2_points": ("count", None, None),
        "current": ("quantity", "current", "1 A"),
    }),
    # each axis reads the unit dimension of its SWEEP_RANGES row
    **{f"sweep {axis}": (functools.partial(MisalignmentSweepRequest, axis), dict.fromkeys(
        ("start", "stop", "step"),
        ("quantity", next(d for d, units in _UNITS.items() if unit in units), None)))
       for axis, (*_, unit) in SWEEP_RANGES.items()},
    **{f"sweep {side}": (functools.partial(ResistanceSweepRequest, side), {
        "start": ("quantity", "resistance", None),
        "stop": ("quantity", "resistance", None),
        "points": ("count", None, None),
        "spacing": ("word", None, "log"),
    }) for side in _SIDES},
}


def run_scenario(config: ScenarioConfig, out_dir: Optional[str] = None) -> RunReport:
    """Execute the config's requests in declared order; write all outputs.

    Each request is isolated: one failing is recorded in the report's
    failures and the rest still run. report.json is always written last.
    """
    out = Path(out_dir if out_dir is not None else config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    sc = config.scenario

    timings: List[Tuple[str, float]] = []
    warn_list: List[str] = []
    failures: List[str] = []
    outputs: List[Tuple[str, Tuple[str, ...]]] = []

    for name, spec in (("tx", sc.tx), ("rx", sc.rx)):
        est = estimate_inductance(spec)
        if est.validity_flag == LOW_CONFIDENCE:
            warn_list.append(f"{name} coil inductance is {est.source} and "
                             "low-confidence for this geometry")

    # a failing call is not cached, so the next request retries it
    @functools.cache
    def nominal_m() -> float:
        t0 = time.perf_counter()
        m = scenario_mutual_inductance(sc, config.segments_per_turn)
        timings.append(("mutual_inductance", time.perf_counter() - t0))
        _log.info("mutual inductance %.6g H (%.2f s)", m, timings[-1][1])
        return m

    @functools.cache
    def build_link(tuned: bool) -> LinkCircuit:
        return scenario_link(sc, nominal_m(), tuned=tuned)

    grid = functools.cache(config.frequency_grid)    # built and cached as nominal_m is
    for section, req in config.requests.items():
        before = len(timings)
        t0 = time.perf_counter()
        # a request's notes are kept whether or not it completes
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                files = req.run(config, grid, out, build_link)
                outputs.append((section, files))
                _log.info("%s -> %s (%.2f s)", section, ", ".join(files),
                          time.perf_counter() - t0)
            except Exception as exc:
                failures.append(f"{section}: {exc}")
        warn_list.extend(f"{section}: {w.message}" for w in caught)
        # exclusive: a nominal M computed on the way has its own entry
        nested = sum(s for _, s in timings[before:])
        timings.append((section, time.perf_counter() - t0 - nested))

    report = RunReport(config_digest=config.config_digest,
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

    try:
        report = run_scenario(config, out_dir=args.out)
    except OSError as exc:        # an output directory that cannot be made
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for failure in report.failures:
        print(f"failed: {failure}", file=sys.stderr)
    out = args.out if args.out is not None else config.output_dir
    n_files = sum(len(files) for _, files in report.outputs) + 1
    print(f"wrote {n_files} files to {out}")
    return 1 if report.failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
