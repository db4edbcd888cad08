"""Config parsing, file emission, and the command-line entry point."""

import csv
import hashlib
import json
import math
import re
import runpy
import subprocess
import sys
import time
import warnings
from dataclasses import MISSING, asdict, fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mqslink import circuit, cli, field_coupling
from mqslink.circuit import frequency_sweep, path_loss_db
from mqslink.cli import (DEFAULT_CONFIG, ConfigError, RunReport, _csv_text,
                         _emit_json, _fmt, emit_field_map_csv,
                         emit_report_json, emit_spectrum_csv, emit_sweep_csv,
                         main, parse_config, run_scenario)
from mqslink.geometry import CoilSpec, Scenario
from mqslink.link_analysis import (SweepResult, SweepRow, capacity_report,
                                   dual_mode_report, misalignment_sweep,
                                   scenario_link, scenario_mutual_inductance)
from nominal import (CONVENTION, DUAL_MODE_LOADS, GRID, NOISE_FLOOR_DBV,
                     NOMINAL)

SMALL_RUN = """\
[tx_coil]
turns = 5
inner_radius = 60 mm
wire_diameter = 0.137 mm
wire_spacing = 0.5 mm
inductance_override = none

[rx_coil]
turns = 5
inner_radius = 4 mm
wire_diameter = 0.137 mm
wire_spacing = 0.5 mm

[placement]
x_eye = 92 mm
z_eye = 150 mm
tx_angle = 40 deg

[circuit]
tuned_frequency = 26 MHz

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


ROOT = Path(__file__).resolve().parents[1]

# the scenario of DEFAULT_CONFIG with every commented request example
# switched on, at 64 segments per turn on a 201-point frequency grid
_head, _examples = DEFAULT_CONFIG.split("[capacity]\n")
ALL_REQUESTS = (_head.replace("segments_per_turn = 360", "segments_per_turn = 64")
                .replace("points = 1001", "points = 201")
                + "[capacity]\n" + re.sub(r"^# (?=\[|\w+ = )", "", _examples, flags=re.M))


def write_config(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def parse_text(tmp_path, text, **kwargs):
    kwargs.setdefault("allow_defaults", True)
    return parse_config(write_config(tmp_path, text), **kwargs)


def small_scenario(circuit_lines, requests):
    """SMALL_RUN's scenario with circuit_lines added to [circuit], then requests."""
    head = SMALL_RUN.split("[spectrum]")[0]
    return head.replace("[circuit]\n", "[circuit]\n" + circuit_lines) + requests


# ---------------------------------------------------------------- parsing

def test_builtin_defaults_round_trip(tmp_path):
    from_text = parse_config(write_config(tmp_path, DEFAULT_CONFIG, "d.ini"))
    from_empty = parse_config(write_config(tmp_path, "", "e.ini"),
                              allow_defaults=True)
    # every field but the requests and the file digest, floats bit for bit
    assert replace(from_text, requests={}, config_digest="") == \
        replace(from_empty, requests={}, config_digest="")
    assert list(from_text.requests) == ["spectrum", "capacity"]
    assert from_empty.requests == {}


def test_the_empty_config_is_the_nominal_link(tmp_path):
    assert parse_text(tmp_path, "").scenario == NOMINAL


def _bits(value):
    return value.hex() if isinstance(value, float) else value


def test_library_defaults_equal_the_printed_defaults(tmp_path):
    # the records' field defaults repeat the nominal values of `mqslink
    # defaults`; [rx_coil] leaves every defaulted CoilSpec field at its
    # default. The run settings have no library default: the tests state
    # them once, in tests/nominal.py
    config = parse_text(tmp_path, "")
    for cls, parsed in ((Scenario, config.scenario), (CoilSpec, config.scenario.rx)):
        for f in fields(cls):
            if f.default is not MISSING:
                assert _bits(getattr(parsed, f.name)) == _bits(f.default), f.name
    assert config.frequency_grid().tobytes() == GRID.tobytes()
    assert _bits(config.noise_floor_dbv) == _bits(NOISE_FLOOR_DBV)
    assert config.snr_convention == CONVENTION
    request = parse_text(tmp_path, "[dual_mode]\n").requests["dual_mode"]
    loads = np.geomspace(request.load_min, request.load_max, request.points)
    assert loads.tobytes() == DUAL_MODE_LOADS.tobytes()


def test_printed_request_examples_write_out_the_parsers_defaults(tmp_path):
    # a request key that `mqslink defaults` prints and its parser can
    # default must be printed at that default: leaving it out of
    # ALL_REQUESTS, one key at a time, leaves the request as it was
    lines = ALL_REQUESTS.splitlines(keepends=True)
    full = parse_config(write_config(tmp_path, ALL_REQUESTS)).requests
    defaulted, section = [], None
    for i, line in enumerate(lines):
        header = re.fullmatch(r"\[(.+)\]\n", line)
        section = header[1] if header else section
        if section not in cli.REQUESTS or not re.match(r"\w+ = ", line):
            continue
        try:
            config = parse_config(write_config(tmp_path, "".join(lines[:i] + lines[i + 1:])))
        except ConfigError:
            continue    # a required key
        assert config.requests[section] == full[section], f"[{section}] {line.strip()}"
        defaulted.append(line)
    assert defaulted


def _readme_keys(text):
    # "- `[sweep r_source|r_load]`: `start`, ..." -> {"sweep r_source": [...], ...}
    keys = {}
    for name, body in re.findall(r"^- `\[(.+?)\]`:(.*?)(?=^- |\Z)", text, flags=re.M | re.S):
        head, _, tails = name.rpartition(" ")
        for tail in tails.split("|"):
            keys[f"{head} {tail}".strip()] = re.findall(r"`([^`]+)`", body)
    return keys


def test_readme_request_keys_match_the_schemas():
    # README states each request's required keys and defaults a third
    # time, beside the schemas and the printed examples
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    text = readme.split("\nRequest keys are ", 1)[1].split("\n```", 1)[0]
    required, defaults = text.split("\nThese have defaults:\n")
    tables = {name: [(key, default) for key, (*_, default) in schema.items()]
              for name, (_, schema) in cli.REQUESTS.items()}
    assert _readme_keys(required) == {
        name: listed for name, keys in tables.items()
        if (listed := [key for key, default in keys if default is None])}
    assert _readme_keys(defaults.split("\n\n`[", 1)[0]) == {
        name: listed for name, keys in tables.items()
        if (listed := [f"{key} = {default}" for key, default in keys if default is not None])}
    assert re.findall(r"`\[(\w+)\]` takes no keys", text) == \
        [name for name, keys in tables.items() if not keys]


# the nominal config's settings, for a ScenarioConfig built directly
NOMINAL_CONFIG = cli.ScenarioConfig(NOMINAL, GRID[0], GRID[-1], len(GRID), NOISE_FLOOR_DBV,
                                    CONVENTION, 360, "out", {}, "")


# a valid [field_map] grid, for records built directly
_GRID = dict(plane="xz", offset=0.0, axis1_start=-0.05, axis1_stop=0.05, axis1_points=3,
             axis2_start=0.05, axis2_stop=0.15, axis2_points=3)


@pytest.mark.parametrize("build, field", [
    (lambda: cli.DualModeRequest(0.0, 10.0, 101), "load_min"),
    (lambda: cli.ResistanceSweepRequest("r_load", 10.0, 10.0, 3, "log"), "stop"),
    (lambda: cli.MisalignmentSweepRequest("tx_angle", 0.0, 95.0, 5.0), "stop"),
    (lambda: cli.SpectrumRequest(("tuned", "tuned")), "modes"),
    # an enum key's values, as its schema states them
    (lambda: cli.ResistanceSweepRequest("r_load", 1.0, 10.0, 3, "cubic"), "spacing"),
    (lambda: cli.ResistanceSweepRequest("r_coil", 1.0, 10.0, 3, "log"), "side"),
    (lambda: cli.FieldMapRequest("txx", **_GRID, current=1.0), "coil"),
    (lambda: cli.MisalignmentSweepRequest("roll", 0.0, 10.0, 5.0), "axis"),
    (lambda: cli.FieldMapRequest("tx", **_GRID, current=math.nan), "current"),
    (lambda: cli.MisalignmentSweepRequest("tx_angle", 0.0, 90.0, 1e-300), "step"),
])
def test_request_records_reject_bad_values_built_directly(build, field):
    # each request record checks its own values, as CoilSpec and Scenario do
    with pytest.raises(ValueError, match=f"^{field} "):
        build()


def test_scenario_config_built_directly_rejects_an_unknown_snr_convention(tmp_path):
    # the [analysis] schema's values, checked by the record itself
    config = parse_text(tmp_path, "")
    assert replace(config, snr_convention="power").snr_convention == "power"
    with pytest.raises(ValueError, match=r"^snr_convention must be one of 'voltage', 'power', "
                                         r"got 'amplitude'$"):
        replace(config, snr_convention="amplitude")


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=5e-324, max_value=1e300), st.integers(1, 2**16),
       st.integers(2, 10**4))
@example(20e6, 1, 1001)    # 20 MHz to the next double up
@example(1.0, 1, 3)
@example(20e6, 10**4, 1001)
@example(2.225073858507203e-309, 188, 23)    # a subnormal step rounded up
def test_every_accepted_frequency_grid_strictly_increases(start, ulps, points):
    # stop lies a few ulps of start above it, where linspace's rounding
    # could put two neighbouring points on the same double
    stop = start + ulps * math.ulp(start)
    try:
        config = replace(NOMINAL_CONFIG, grid_start=start, grid_stop=stop, grid_points=points)
    except ValueError as exc:
        assert str(exc).startswith("grid_points must leave a step above ")
        return
    assert np.all(np.diff(config.frequency_grid()) > 0)


def test_grid_points_run_row_major_with_axis1_slow():
    request = cli.FieldMapRequest(coil="tx", plane="xz", offset=0.002, axis1_start=-1.0,
                                  axis1_stop=1.0, axis1_points=2, axis2_start=10.0,
                                  axis2_stop=11.0, axis2_points=3, current=1.0)
    pts = request.points()
    assert pts.shape == (6, 3)
    np.testing.assert_allclose(pts[:, 1], 0.002)        # y pinned by offset
    np.testing.assert_allclose(pts[:3, 0], -1.0)        # axis1 held per row
    np.testing.assert_allclose(pts[:3, 2], [10.0, 10.5, 11.0])


@pytest.mark.parametrize("kwargs, match", [
    (dict(plane="ab"), "plane"),
    (dict(axis1_points=1), "axis1_points"),
    (dict(axis2_points=1), "axis2_points"),
    # a count is a Python or numpy integer, never a bool
    (dict(axis1_points=True), r"^axis1_points must be an integer >= 2, got True$"),
    (dict(axis2_points=3.0), r"^axis2_points must be an integer >= 2, got 3\.0$"),
    (dict(axis2_points=np.int64(1)), r"^axis2_points must be an integer >= 2"),
    # points() must fit 3 coordinates per point in one array; numpy
    # counts whose product would wrap around in int64 are still caught
    (dict(axis1_points=np.int64(2**40), axis2_points=np.int64(2**40)),
     r"^axis1_points must be at most 349525 with axis2_points = 1099511627776, "
     r"got 1099511627776$"),
    (dict(axis2_points=2**60), r"^axis2_points must be at most 1152921504606846975"),
    (dict(axis1_start=1.0, axis1_stop=-1.0), "axis1"),
    (dict(offset=math.nan), "^offset must be finite"),
    (dict(offset=math.inf), "^offset must be finite"),
    (dict(offset=-math.inf), "^offset must be finite"),
    (dict(axis1_start=-math.inf), "^axis1_start must be finite"),
    (dict(axis1_stop=math.inf), "^axis1_stop must be finite"),
])
def test_field_map_grid_validation(kwargs, match):
    # the [field_map] record, built directly, checks its grid
    base = dict(_GRID, plane="xy", offset=0.0, axis1_start=-1.0, axis1_stop=1.0,
                axis2_start=-1.0, axis2_stop=1.0)
    base.update(kwargs)
    with pytest.raises(ValueError, match=match):
        cli.FieldMapRequest("tx", **base, current=1.0)


def test_field_map_grid_counts_accept_numpy_integers():
    request = cli.FieldMapRequest(coil="tx", plane="xy", offset=0.0, axis1_start=-1.0,
                                  axis1_stop=1.0, axis1_points=np.int64(3), axis2_start=-1.0,
                                  axis2_stop=1.0, axis2_points=np.int32(2), current=1.0)
    assert request.points().shape == (6, 3)


def test_strict_mode_requires_the_scenario_sections(tmp_path):
    with pytest.raises(ConfigError, match=r"\[tx_coil\]"):
        parse_config(write_config(tmp_path, ""), allow_defaults=False)


def test_digest_is_the_sha256_of_the_file(tmp_path):
    path = write_config(tmp_path, SMALL_RUN)
    config = parse_config(path, allow_defaults=True)
    assert config.config_digest == hashlib.sha256(path.read_bytes()).hexdigest()
    # a UTF-8 byte-order mark (as Windows Notepad writes) is not config text,
    # but the digest still covers it
    bom = tmp_path / "bom.ini"
    bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    with_bom = parse_config(bom, allow_defaults=True)
    assert with_bom.config_digest == hashlib.sha256(bom.read_bytes()).hexdigest()
    assert replace(with_bom, config_digest="") == replace(config, config_digest="")


def test_unit_tags_scale_into_si(tmp_path):
    config = parse_text(tmp_path, """\
[placement]
x_eye = 9.2 cm
z_eye = 0.15 m
tx_angle = 40 deg

[circuit]
r_load = 1 kohm
tuned_frequency = 26 MHz
""")
    sc = config.scenario
    assert sc.x_eye == pytest.approx(0.092)
    assert sc.z_eye == pytest.approx(0.15)
    assert sc.r_load == 1000.0
    assert sc.tuned_frequency == 26e6


# every power-of-ten tag, "rad" being the one tag that is a factor
_POWER_TAGS = [(dim, unit) for dim, units in cli._UNITS.items()
               for unit in units if unit != "rad"]


@settings(max_examples=500, deadline=None)
@given(st.from_regex(r"[+-]?(\d{1,20}\.?\d{0,20}|\.\d{1,20})([eE][+-]?\d{1,3})?",
                     fullmatch=True),
       st.sampled_from(_POWER_TAGS))
@example("0.137", ("length", "mm"))
@example("35", ("inductance", "uH"))
@example("1.7976931348623157e308", ("frequency", "kHz"))
@example(".1E310", ("length", "cm"))    # the text overflows, the tagged value does not
@example("-1e400", ("length", "mm"))
def test_tagged_numbers_read_as_the_double_nearest_their_decimal(number, tag):
    dim, unit = tag
    reader = cli._Reader("<text>", b"")
    exact = Fraction(number) * Fraction(10) ** cli._UNITS[dim][unit]
    try:
        want = float(exact)
    except OverflowError:
        # past the largest double: the signed infinity, which the record refuses
        want = math.inf if exact > 0 else -math.inf
    assert reader._value("s", "k", f"{number} {unit}", "quantity", dim) == want


def test_every_schema_entry_names_a_kind_the_reader_reads():
    # a misspelled kind would fall through to the quantity branch and
    # raise KeyError from _UNITS instead of a ConfigError
    reader = cli._Reader("<text>", b"")
    texts = {"count": ("3", 3), "word": ("Tx", "tx"), "string": ("out", "out"),
             "words": ("tuned, Untuned", ("tuned", "untuned")),
             "quantity": ("1 {}", 1.0), "optional_quantity": ("1 {}", 1.0)}
    schemas = {**cli._SCENARIO_SCHEMAS, **{name: schema for name, (_, schema)
                                           in cli.REQUESTS.items()}}
    for name, schema in schemas.items():
        for key, (kind, detail, *_) in schema.items():
            assert kind in texts, f"[{name}] {key}: unknown kind {kind!r}"
            if kind.endswith("quantity"):
                assert detail in cli._UNITS, f"[{name}] {key}: unknown dimension {detail!r}"
            else:
                assert detail is None, f"[{name}] {key}: detail {detail!r}"
            text, want = texts[kind]
            # each dimension's first tag has power 0
            raw = text.format(next(iter(cli._UNITS[detail])) if detail else "")
            assert reader._value(name, key, raw, kind, detail) == want, f"[{name}] {key}"


def test_unicode_resistance_aliases(tmp_path):
    config = parse_text(tmp_path, "[circuit]\nr_load = 2 kΩ\n")
    assert config.scenario.r_load == 2000.0


def test_radian_angles_convert(tmp_path):
    config = parse_text(tmp_path,
                        f"[placement]\ntx_angle = {math.pi / 4} rad\n")
    assert config.scenario.tx_angle_deg == pytest.approx(45.0)


@pytest.mark.parametrize("snippet, fragment", [
    ("[placement]\nx_eye = 92\n", "unit"),
    ("[placement]\nx_eye = 92 Hz\n", "unit"),
    ("[placement]\nxeye = 92 mm\n", "unknown key"),
    ("[telemetry]\nrate = 1\n", "unknown section"),
    ("[tx_coil]\nturns = 0\n", "turns"),
    ("[tx_coil]\nturns = 2.5\n", "integer"),
    ("[circuit]\nesr_mode = fixed\n", r"\.ini:2: unknown key 'esr_mode' in \[circuit\]"),
    ("[rx_coil]\nturns = 5\nresistance_override = -1 ohm\n",
     r"\.ini:3: resistance_override must be >= 0"),
    # the nominal rx's outermost turn radius, 4 mm + 4 x 0.637 mm, to the bit
    ("[rx_coil]\nshape = helical\nsphere_radius = 0.006548 m\n",
     r"\.ini:3: sphere_radius .* must exceed"),
    # a flat spiral takes no sphere radius
    ("[rx_coil]\nshape = flat-spiral\nsphere_radius = 20 mm\n",
     r"\.ini:3: sphere_radius 0\.02 is for the helical shape only$"),
    ("[sweep tx_angle]\nstart = 10 deg\nstop = 95 deg\nstep = 5 deg\n",
     r"\.ini:3: stop must lie within \[0, 90\] deg, got 95\.0$"),
    ("[sweep tx_angle]\nstart = 30 deg\nstop = 20 deg\nstep = 5 deg\n",
     r"\.ini:3: stop must be >= start, got \[30\.0, 20\.0\]$"),
    # each axis takes the unit dimension of its SWEEP_RANGES row
    ("[sweep tx_angle]\nstart = 10 mm\nstop = 20 mm\nstep = 5 mm\n",
     r"\.ini:2: .*unknown unit 'mm'"),
    ("[sweep lateral]\nstart = 0 deg\nstop = 20 deg\nstep = 5 deg\n",
     r"\.ini:2: .*unknown unit 'deg'"),
    ("[frequency_grid]\npoints = 1\n", r"\.ini:2: grid_points must be an integer >= 2, got 1$"),
    # grids whose neighbouring points would round onto the same double
    ("[frequency_grid]\nstart = 20 MHz\nstop = 20.000000000000004 MHz\npoints = 1001\n",
     r"\.ini:4: grid_points must leave a step above 1\.1175870895385742e-08 Hz from "
     r"20000000\.0 to 20000000\.000000004 Hz, got 1001$"),
    ("[frequency_grid]\nstart = 1 Hz\nstop = 1.0000000000000002 Hz\npoints = 3\n",
     r"\.ini:4: grid_points must leave a step above "),
    ("[frequency_grid]\nstart = 30 MHz\nstop = 20 MHz\n",
     r"\.ini:3: grid_stop must be > grid_start, got \[30000000\.0, 20000000\.0\]$"),
    ("[analysis]\nsegments_per_turn = 8\n",
     r"\.ini:2: segments_per_turn must be an integer >= 16, got 8$"),
    ("[spectrum]\nmodes = tuned tuned\n",
     r"\.ini:2: modes repeats a mode, got \('tuned', 'tuned'\)$"),
    ("[spectrum]\nmodes = sideways\n",
     r"\.ini:2: modes must be a subset of: tuned untuned, got \('sideways',\)$"),
    ("[dual_mode]\npoints = 3.5\n", "integer"),
    ("[circuit]\nr_load = 1 kohm\nr_load = 2 kohm\n", "r_load"),
    ("[circuit]\nsource_amplitude = 0 V\n", r"\.ini:2: v_source must be > 0"),
    # [DEFAULT] is an unknown section, not keys shared by every section
    ("[DEFAULT]\nfoo = 1\n", r"\.ini:1: unknown section \[DEFAULT\]"),
    ("[tx_coil]\nturns = 5\n[DEFAULT]\nwire_spacing = 2 mm\n",
     r"\.ini:3: unknown section \[DEFAULT\]"),
    # a non-finite number is rejected at its line
    ("[circuit]\ntuned_frequency = nan MHz\n", r"\.ini:2: .* must be finite"),
    ("[placement]\nx_eye = nan mm\n", r"\.ini:2: .* must be finite"),
    ("[circuit]\nr_load = inf ohm\n", r"\.ini:2: .* must be finite"),
    ("[tx_coil]\ninner_radius = nan mm\n", r"\.ini:2: .* must be finite"),
    ("[analysis]\nnoise_floor = nan dBV\n", r"\.ini:2: .* must be finite"),
    ("[tx_coil]\ninner_radius = 1e400 mm\n", r"\.ini:2: inner_radius must be finite, got inf$"),
    # a range error is reported at the key whose value is out of range
    ("[sweep lateral]\nstart = -5 mm\nstop = 100 mm\nstep = 5 mm\n",
     r"\.ini:2: start must lie within \[0, 0\.2\] m, got -0\.005$"),
    ("[sweep axial]\nstart = 100 mm\nstop = 400 mm\nstep = 50 mm\n",
     r"\.ini:3: stop must lie within \[0\.05, 0\.3\] m, got 0\.4$"),
    ("[placement]\nx_eye = 92 mm\nz_eye = 40 mm\n",
     r"\.ini:3: z_eye must lie within \[0\.05, 0\.3\] m, got 0\.04$"),
    ("[placement]\nx_eye = 250 mm\n", r"\.ini:2: x_eye must lie within \[0, 0\.2\] m, got 0\.25$"),
    ("[placement]\nx_eye = 1e300 mm\n", r"\.ini:2: x_eye must lie within \[0, 0\.2\] m, got 1e\+297$"),
    ("[frequency_grid]\nstart = 0 MHz\n", r"\.ini:2: grid_start must be > 0, got 0\.0$"),
    ("[frequency_grid]\nstart = 25 MHz\nstop = 21 MHz\n",
     r"\.ini:3: grid_stop must be > grid_start, got \[25000000\.0, 21000000\.0\]$"),
    ("[dual_mode]\nload_min = 0 ohm\n", r"\.ini:2: load_min must be > 0, got 0\.0$"),
    ("[dual_mode]\nload_min = 5 ohm\nload_max = 2 ohm\n",
     r"\.ini:3: load_max must be > load_min, got \[5\.0, 2\.0\]$"),
    ("[field_map]\nplane = xz\naxis1_start = 5 mm\naxis1_stop = 1 mm\naxis1_points = 3\n"
     "axis2_start = 50 mm\naxis2_stop = 90 mm\naxis2_points = 3\n",
     r"\.ini:4: axis1_stop must be > axis1_start"),
    ("x_eye = 92 mm\n", r"\.ini:1: key 'x_eye' comes before the first section"),
    ("[output]\ndirectory =\n", r"\.ini:2: output_dir must not be empty$"),
    ("[spectrum]\nmodes =\n", r"\.ini:2: modes must be a subset of: tuned untuned, got \(\)$"),
    # each word key's values are its record's choices
    ("[analysis]\nsnr_convention = amplitude\n",
     r"\.ini:2: snr_convention must be one of 'voltage', 'power', got 'amplitude'$"),
    ("[tx_coil]\nshape = square\n",
     r"\.ini:2: shape must be one of 'flat-spiral', 'helical', got 'square'$"),
    ("[field_map]\ncoil = lens\nplane = xz\naxis1_start = 1 mm\naxis1_stop = 5 mm\n"
     "axis1_points = 3\naxis2_start = 50 mm\naxis2_stop = 90 mm\naxis2_points = 3\n",
     r"\.ini:2: coil must be one of 'tx', 'rx', got 'lens'$"),
    ("[field_map]\nplane = XW\naxis1_start = 1 mm\naxis1_stop = 5 mm\naxis1_points = 3\n"
     "axis2_start = 50 mm\naxis2_stop = 90 mm\naxis2_points = 3\n",
     r"\.ini:2: plane must be one of 'xy', 'xz', 'yz', got 'xw'$"),
    ("[sweep r_load]\nstart = 1 ohm\nstop = 10 ohm\npoints = 3\nspacing = cubic\n",
     r"\.ini:5: spacing must be one of 'log', 'linear', got 'cubic'$"),
    ("[placement]\nx_eye = abc mm\n", r"\.ini:2: \[placement\] x_eye: cannot parse number 'abc'"),
    ("[sweep tx_angle]\nstart = 10 deg\nstop = 20 deg\nstep = 0 deg\n",
     r"\.ini:4: step must be > 0, got 0\.0$"),
    # a step so small that its sweep's values would not fit in one array
    ("[sweep tx_angle]\nstart = 0 deg\nstop = 90 deg\nstep = 1e-300 deg\n",
     r"\.ini:4: step must leave at most 1152921504606846975 values from 0\.0 to 90\.0, "
     r"got 1e-300$"),
    ("[sweep r_load]\nstart = 0 ohm\nstop = 10 ohm\npoints = 3\n",
     r"\.ini:2: start must be > 0, got 0\.0$"),
    ("[sweep r_load]\nstart = 10 ohm\nstop = 10 ohm\npoints = 3\n",
     r"\.ini:3: stop must be > start, got \[10\.0, 10\.0\]$"),
    # each request record states its count's minimum
    ("[sweep r_load]\nstart = 1 ohm\nstop = 10 ohm\npoints = 1\n",
     r"\.ini:4: points must be an integer >= 2, got 1$"),
    ("[dual_mode]\npoints = 1\n", r"\.ini:2: points must be an integer >= 2, got 1$"),
    ("[capacity]\nrate = 1\n", r"\.ini:2: unknown key 'rate' in \[capacity\]; allowed: none$"),
    # a count past int()'s 4300-digit limit, and a grid numpy cannot hold
    pytest.param("[frequency_grid]\npoints = " + "9" * 5000 + "\n",
                 r"\.ini:2: \[frequency_grid\] points is too long a count \(5000 digits\)$",
                 id="frequency_grid-5000-digit-points"),
    pytest.param("[dual_mode]\npoints = " + "9" * 5000 + "\n",
                 r"\.ini:2: \[dual_mode\] points is too long a count \(5000 digits\)$",
                 id="dual_mode-5000-digit-points"),
    pytest.param("[field_map]\nplane = xz\naxis1_start = 1 mm\naxis1_stop = 5 mm\n"
                 "axis1_points = " + "9" * 5000 + "\naxis2_start = 50 mm\n"
                 "axis2_stop = 90 mm\naxis2_points = 3\n",
                 r"\.ini:5: \[field_map\] axis1_points is too long a count \(5000 digits\)$",
                 id="field_map-5000-digit-axis1_points"),
    ("[frequency_grid]\npoints = 10000000000000000000\n",
     r"\.ini:2: grid_points must be at most 1152921504606846975, got 10000000000000000000$"),
    # every request count is capped by the same rule, and a field map by
    # its point count, 3 coordinates each
    ("[dual_mode]\npoints = 10000000000000000000\n",
     r"\.ini:2: points must be at most 1152921504606846975, got 10000000000000000000$"),
    ("[sweep r_source]\nstart = 1 ohm\nstop = 10 ohm\npoints = 10000000000000000000\n",
     r"\.ini:4: points must be at most 1152921504606846975, got 10000000000000000000$"),
    ("[field_map]\nplane = xz\naxis1_start = 1 mm\naxis1_stop = 5 mm\n"
     "axis1_points = 10000000000000000000\naxis2_start = 50 mm\n"
     "axis2_stop = 90 mm\naxis2_points = 3\n",
     r"\.ini:5: axis1_points must be at most 1152921504606846975, "
     r"got 10000000000000000000$"),
    ("[field_map]\nplane = xz\naxis1_start = 1 mm\naxis1_stop = 5 mm\naxis1_points = 3\n"
     "axis2_start = 50 mm\naxis2_stop = 90 mm\naxis2_points = 1000000000000000000\n",
     r"\.ini:8: axis2_points must be at most 128102389400760775 with axis1_points = 3, "
     r"got 1000000000000000000$"),
])
def test_bad_configs_are_rejected(tmp_path, snippet, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_text(tmp_path, snippet)


def _corruptions(line):
    """Single-line corruptions of one config line, each paired with
    whether it must fail at that line: a non-finite number must."""
    header = re.fullmatch(r"\[(.+)\]", line)
    if header:
        yield f"[ {header[1]} ]", False
        yield f"[{header[1]}", False
        yield f"{line} # note", False
    elif "=" in line:
        yield line.replace("=", "", 1), False
        number = re.fullmatch(r"(\w+ = )\S+( \S+)", line)
        if number:
            yield number[1] + "nan" + number[2], True
            yield number[1] + "inf" + number[2], True
    if line:
        yield line + "\n" + line, False


def test_every_rejected_config_names_its_line(tmp_path):
    lines = ALL_REQUESTS.splitlines()
    path = tmp_path / "corrupt.ini"
    faults = []
    for i, line in enumerate(lines):
        for corrupt, non_finite in _corruptions(line):
            path.write_text("\n".join(lines[:i] + [corrupt] + lines[i + 1:]) + "\n",
                            encoding="utf-8")
            try:
                parse_config(path, allow_defaults=True)
            except ConfigError as exc:
                if exc.line is None or (non_finite and exc.line != i + 1):
                    faults.append(f"line {i + 1} {corrupt!r}: {exc}")
            else:
                if non_finite:
                    faults.append(f"line {i + 1} {corrupt!r} parsed")
    assert not faults, f"{len(faults)} faults, first: {faults[:3]}"


def test_indentation_and_inline_comments_carry_no_meaning(tmp_path):
    config = parse_text(tmp_path, "[placement] # eye\nx_eye = 90 mm  # lateral\n"
                                  "    Z_Eye = 0.2 m\n")
    assert config.scenario.x_eye == pytest.approx(0.09)
    assert config.scenario.z_eye == 0.2


def test_errors_carry_the_offending_line(tmp_path):
    path = write_config(tmp_path, "[placement]\nx_eye = 92 mm\nz_eye = 15\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path, allow_defaults=True)
    assert str(err.value).startswith(f"{path}:3:")


def test_missing_and_binary_files_fail_cleanly(tmp_path):
    with pytest.raises(ConfigError, match="read"):
        parse_config(tmp_path / "absent.ini", allow_defaults=True)
    bad = tmp_path / "bad.ini"
    bad.write_bytes(b"[tx_coil]\nturns = \xff\xfe\n")
    with pytest.raises(ConfigError, match="UTF-8"):
        parse_config(bad, allow_defaults=True)


def test_optional_none_and_helical_sphere(tmp_path):
    config = parse_text(tmp_path, """\
[rx_coil]
shape = helical
sphere_radius = 12 mm
inductance_override = none
""")
    assert config.scenario.rx.shape == "helical"
    assert config.scenario.rx.sphere_radius == pytest.approx(0.012)
    assert config.scenario.rx.inductance_override is None


def test_fixed_esr_mode_carries_both_resistances(tmp_path):
    config = parse_text(tmp_path, """\
[tx_coil]
resistance_override = 6 ohm
[rx_coil]
resistance_override = 0.5 ohm
""")
    assert config.scenario.tx.resistance_override == 6.0
    assert config.scenario.rx.resistance_override == 0.5


@pytest.mark.parametrize("r_tx, r_rx", [(6.0, 0.5), (0.0, 0.0)], ids=["fixed", "none"])
def test_fixed_and_lossless_coils_run_end_to_end(tmp_path, r_tx, r_rx):
    text = small_scenario("", "[spectrum]\nmodes = tuned\n\n[sweep tx_angle]\n"
                              "start = 20 deg\nstop = 60 deg\nstep = 20 deg\n")
    for coil, r in (("tx_coil", r_tx), ("rx_coil", r_rx)):
        text = text.replace(f"[{coil}]\n", f"[{coil}]\nresistance_override = {r:g} ohm\n")
    config = parse_config(write_config(tmp_path, text), allow_defaults=True)
    out = tmp_path / "out"
    assert run_scenario(config, out_dir=str(out)).failures == ()
    sc, grid = config.scenario, config.frequency_grid()
    # the coil losses set on the LinkCircuit directly, not through the config
    m = scenario_mutual_inductance(sc, config.segments_per_turn)
    link = replace(scenario_link(sc, m), esr_tx=r_tx, esr_rx=r_rx)
    emit_spectrum_csv(frequency_sweep(link, grid), tmp_path / "spectrum.csv")
    assert (out / "spectrum_tuned.csv").read_bytes() == \
        (tmp_path / "spectrum.csv").read_bytes()
    sweep = misalignment_sweep(sc, "tx_angle", [20.0, 40.0, 60.0], grid=grid,
                               noise_floor_dbv=config.noise_floor_dbv,
                               convention=config.snr_convention)
    emit_sweep_csv(sweep, tmp_path / "sweep.csv")
    assert (out / "sweep_tx_angle.csv").read_bytes() == \
        (tmp_path / "sweep.csv").read_bytes()


def test_capacity_budget_reads_the_source_amplitude(tmp_path):
    # the report and the threshold table sit at the received level, as
    # the sweep rows do, not at the 1 V transfer ratio
    text = small_scenario("source_amplitude = 2 V\n", "[capacity]\n\n[sweep r_load]\n"
                          "start = 500 ohm\nstop = 1.5 kohm\npoints = 3\nspacing = linear\n")
    out = tmp_path / "out"
    assert main(["run", str(write_config(tmp_path, text)), "--out", str(out)]) == 0
    row = list(csv.DictReader((out / "sweep_r_load.csv").read_text().splitlines()))[1]
    assert float(row["param"]) == 1000.0                # the nominal r_load
    report = json.loads((out / "capacity_report.json").read_text())
    assert report["signal_dbv"] == float(row["peak_db"])
    assert report["capacity_bps"] == float(row["capacity_bps"])
    top = next(csv.DictReader((out / "capacity.csv").read_text().splitlines()))
    assert float(top["signal_dbv"]) == pytest.approx(
        report["signal_dbv"] - float(top["threshold_db"]), rel=1e-12, abs=0)


# ------------------------------------------------------------- formatting

def test_csv_cells_round_trip_doubles():
    rng = np.random.default_rng(3)
    for x in rng.uniform(-1e8, 1e8, 50):
        assert float(_fmt(float(x))) == float(x)
    assert _fmt(float("nan")) == ""
    assert _fmt(float("-inf")) == ""
    assert _fmt(26000000.0) == "26000000"


_MAX = 1.7976931348623157e308
_FLOAT_CELLS = st.floats() | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 7, _MAX])
# a few values drawn often, so columns repeat them (a grid's coordinates)
_NUMBER_CELLS = _FLOAT_CELLS | st.sampled_from([0.0, -0.0, 0.1])
_TEXT_CELLS = (st.sampled_from(["deg", "m", "ohm", "%", "a%sb", "%%"])
               | st.text(alphabet="abz Ω_-.%", max_size=4))


def _layouts_and_rows(layout):
    # layout: a text cell per text column and None per number column
    row = st.tuples(*[_NUMBER_CELLS] * layout.count(None))
    return st.tuples(st.just(layout), st.lists(row, max_size=8))


@settings(max_examples=800, deadline=None)
@given(st.lists(st.none() | _TEXT_CELLS, min_size=1, max_size=7)
       .filter(lambda layout: None in layout).flatmap(_layouts_and_rows))
@example(([None] * 3, [(-0.0, 5e-324, 0.1), (math.nan, 1.0, 2.0), (math.inf, -math.inf, 0.5),
                       (_MAX, _MAX, 1.0), (_MAX, 1e16, 1e17)]))
@example(([None, "ohm", None, None], [(1.0, math.nan, math.nan), (2.0, -60.0, 26e6),
                                      (-0.0, 5e-324, math.nan)]))
@example(([None, "%", None], [(-0.0, 0.1), (math.inf, 0.5), (0.0, 0.1), (0.0, -0.0)]))
@example((["a%sb", None, None], [(0.5, 26000000.0), (-0.0, math.nan), (_MAX, 1e17)]))
def test_csv_lines_read_as_their_cells_through_fmt(case):
    # a line reads as its row's numbers through _fmt (a masked one
    # empty) and its text cells as given, whichever route formats it
    layout, rows = case
    numbers = iter(np.array(rows, dtype=float).reshape(len(rows), layout.count(None)).T)
    columns = [next(numbers) if kind is None else kind for kind in layout]
    header = ",".join(f"c{i}" for i in range(len(layout)))
    want = [header]
    for row in rows:
        cells = iter(row)
        want.append(",".join(_fmt(next(cells)) if kind is None else kind for kind in layout))
    assert _csv_text(header, columns) == "\n".join(want) + "\n"


def _map_rows():
    # a map's rows: x slow (with -0.0 beside 0.0), y fixed, z fast, and
    # B as random doubles
    rng = np.random.default_rng(7)
    x = np.repeat([-0.0, 0.0, 0.1, -1.7976931348623157e308], 4)
    z = np.tile([1.0, 1.0 / 3.0, 5e-324, 1e17], 4)
    return np.column_stack([x, np.full(16, 2.5e-3), z, rng.standard_normal((16, 3))])


def _masked_map_rows():
    # the first and a later B row masked, and a non-finite coordinate
    rows = _map_rows()
    rows[[0, 9], 3:] = math.nan
    rows[5, 2] = -math.inf
    return rows


@pytest.mark.parametrize("rows", [
    _map_rows(), _masked_map_rows(), _map_rows()[:1],
    np.random.default_rng(8).standard_normal((9, 4)) * 10.0 ** np.arange(-150, 150, 75),
], ids=["grid", "masked", "one-row", "unique"])
def test_repeated_float_columns_read_as_their_cells_through_fmt(rows):
    # a column whose values recur has each distinct value formatted once;
    # every line still reads as its row's cells through _fmt
    header = ",".join(f"c{i}" for i in range(rows.shape[1]))
    want = [header] + [",".join(_fmt(c) for c in cells) for cells in rows.tolist()]
    assert _csv_text(header, rows.T) == "\n".join(want) + "\n"


def test_a_finite_row_takes_one_format(monkeypatch):
    monkeypatch.setattr(cli, "_fmt", None)      # the cell-by-cell path raises TypeError
    assert _csv_text("a,u,b", (np.array([0.5, -0.0]), "%", np.array([26000000.0, 0.1]))) \
        == "a,u,b\n0.5,%,26000000\n-0,%,0.10000000000000001\n"


@pytest.mark.parametrize("unit", ["ohm", "deg", "%", "a%sb"])
def test_sweep_csv_rows_carry_the_unit_and_mask_none_cells(tmp_path, unit):
    rows = (SweepRow(1.0, None, None, None, None, None),
            SweepRow(2.0, -60.0, 26e6, None, None, 1e-9),
            SweepRow(3.0, -0.0, 5e-324, 1e5, 1e6, 0.1))
    path = tmp_path / "sweep.csv"
    emit_sweep_csv(SweepResult(unit=unit, rows=rows), path)
    header = "param,param_unit,peak_db,peak_freq_hz,bw3db_hz,capacity_bps,p_rx_w"
    want = [header, f"1,{unit},,,,,", f"2,{unit},-60,26000000,,,1.0000000000000001e-09",
            f"3,{unit},-0,4.9406564584124654e-324,100000,1000000,0.10000000000000001"]
    assert path.read_text(encoding="utf-8") == "\n".join(want) + "\n"
    emit_sweep_csv(SweepResult(unit=unit, rows=()), path)
    assert path.read_text(encoding="utf-8") == header + "\n"


def test_json_files_hold_only_what_json_can(tmp_path):
    payload = {"a": 1.5, "b": [True, None, 2], "c": {"d": -85.0}, "e": "text"}
    _emit_json(payload, tmp_path / "ok.json")
    text = (tmp_path / "ok.json").read_text()
    assert json.loads(text) == payload
    assert "\n    true,\n" in text          # bool must not print as 1
    with pytest.raises(TypeError):
        _emit_json({"x": object()}, tmp_path / "object.json")
    # a non-finite number raises instead of being written as null
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="JSON"):
            _emit_json({"c": {"d": bad}}, tmp_path / "bad.json")
    report = RunReport(config_digest="", outputs=(),
                       timings_s=(("spectrum", math.nan),), warnings=(), failures=())
    with pytest.raises(ValueError, match="JSON"):
        emit_report_json(report, tmp_path / "report.json")
    # neither the target nor a temp file is left
    assert [p.name for p in tmp_path.iterdir()] == ["ok.json"]


def test_a_failed_write_leaves_the_target_and_no_temp_file(tmp_path, monkeypatch):
    target = tmp_path / "report.json"
    target.write_text("old\n")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(cli.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        cli._atomic_write(target, "new\n")
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
    assert target.read_text() == "old\n"


def test_field_map_rows_mask_with_empty_cells(tmp_path):
    points = np.array([[0.05, 0.0, 0.1], [0.06, 0.0, 0.1]])
    b = np.array([[1e-9, 0.0, -2e-9], [np.nan, np.nan, np.nan]])
    path = tmp_path / "field_map.csv"
    emit_field_map_csv(points, b, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,z,Bx,By,Bz"
    assert lines[1].split(",")[3] == "1.0000000000000001e-09"
    assert lines[2] == "0.059999999999999998,0,0.10000000000000001,,,"


# ------------------------------------------------------------ end to end

def test_every_request_kind_runs_end_to_end(tmp_path):
    sections = [name for name in re.findall(r"^\[(.+)\]$", ALL_REQUESTS, flags=re.M)
                if name not in cli._SCENARIO_SCHEMAS]
    assert ALL_REQUESTS.count("segments_per_turn = 64") == 1
    assert set(cli.REQUESTS) == set(sections)
    config = parse_config(write_config(tmp_path, ALL_REQUESTS))
    assert config.frequency_grid().size == 201
    # keyed by section name, in file order
    assert list(config.requests) == sections
    out = tmp_path / "out"
    report = run_scenario(config, out_dir=str(out))
    assert report.failures == ()
    # the README's table of files per request
    assert dict(report.outputs) == {
        "spectrum": ("spectrum_tuned.csv", "spectrum_untuned.csv"),
        "capacity": ("capacity.csv", "capacity_report.json"),
        **{f"sweep {t}": (f"sweep_{t}.csv",)
           for t in ("tx_angle", "lateral", "axial", "r_source", "r_load")},
        "field_map": ("field_map.csv",),
        "dual_mode": ("dual_mode.json",),
    }
    written = {f for _, files in report.outputs for f in files} | {"report.json"}
    assert {p.name for p in out.iterdir()} == written
    # the JSON files hold the library's values, bit for bit
    sc, grid = config.scenario, config.frequency_grid()
    link = scenario_link(sc, scenario_mutual_inductance(sc, config.segments_per_turn))
    rep = capacity_report(frequency_sweep(link, grid),
                          noise_floor_dbv=config.noise_floor_dbv,
                          convention=config.snr_convention)
    saved = json.loads((out / "capacity_report.json").read_text())
    assert {k: _bits(v) for k, v in saved.items()} == \
        {k: _bits(v) for k, v in asdict(rep).items()}
    request = config.requests["dual_mode"]
    loads = np.geomspace(request.load_min, request.load_max, request.points)
    dm = dual_mode_report(link, r_load_grid=loads, grid=grid)
    saved = json.loads((out / "dual_mode.json").read_text())
    assert list(saved) == list(asdict(dm))
    assert {k: _bits(v) for k, v in saved.items()} == \
        {k: _bits(v) for k, v in asdict(dm).items()}
    # every CSV line holds the header's cell count, and no masked cell
    # is written as nan or inf
    for path in out.glob("*.csv"):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        assert {line.count(",") for line in lines} == {lines[0].count(",")}, path.name
        assert not re.search(r"nan|inf", text, re.I), path.name


def test_traced_run_sees_every_layer_it_patches(tmp_path, monkeypatch):
    # bench/traced_run.py wraps mqslink.cli's module globals; a request
    # that bound a layer function early, or a global that went away,
    # would leave a span missing from the trace. install() looks up every
    # attribute it patches, so a renamed one fails the run outright, as
    # it would fail a traced run of the bench's own pose_sweep config
    script = ROOT / "bench" / "traced_run.py"
    monkeypatch.setattr(sys, "path", list(sys.path))    # the script prepends src/
    traced_run = runpy.run_path(str(script), run_name="traced_run")
    patched = set()

    class Names(traced_run["Tracer"]):
        def patch(self, name, sites, attr, count=None):
            patched.add(name)

    traced_run["install"](Names())
    bench = runpy.run_path(str(ROOT / "bench" / "workloads.py"))
    pose_sweep = bench["make_config"](bench["WORKLOADS"]["pose_sweep"], DEFAULT_CONFIG, 1)
    spans = {}
    for name, text in (("all_requests", ALL_REQUESTS), ("pose_sweep", pose_sweep)):
        trace = tmp_path / f"{name}.json"
        proc = subprocess.run([sys.executable, str(script),
                               str(write_config(tmp_path, text, f"{name}.ini")),
                               str(tmp_path / name), str(trace)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (name, proc.stderr)
        spans[name] = {span[0] for span in json.loads(trace.read_text())["spans"]}
        assert "cli.main" in spans[name], name
    assert patched and patched <= spans["all_requests"], patched - spans["all_requests"]


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("run")
    config = write_config(tmp, SMALL_RUN)
    out = tmp / "out"
    code = main(["run", str(config), "--out", str(out)])
    return code, config, out


def test_run_succeeds_and_writes_the_advertised_files(small_run):
    code, _, out = small_run
    assert code == 0
    expected = {"spectrum_tuned.csv", "spectrum_untuned.csv", "capacity.csv",
                "capacity_report.json", "dual_mode.json", "sweep_tx_angle.csv",
                "field_map.csv", "report.json"}
    assert {p.name for p in out.iterdir()} == expected


def test_spectrum_csv_levels_are_path_loss_db_of_h(tmp_path):
    sc = parse_text(tmp_path, "").scenario
    spectrum = frequency_sweep(scenario_link(sc, scenario_mutual_inductance(sc)),
                               GRID)
    emit_spectrum_csv(spectrum, tmp_path / "spectrum.csv")
    rows = csv.DictReader((tmp_path / "spectrum.csv").read_text().splitlines())
    assert [float(r["h_mag_db"]) for r in rows] == path_loss_db(spectrum.h).tolist()


def test_spectrum_csv_shape_and_header(small_run):
    _, _, out = small_run
    lines = (out / "spectrum_tuned.csv").read_text().splitlines()
    assert lines[0] == \
        "frequency_hz,h_real,h_imag,h_mag_db,z11_real_ohm,z11_imag_ohm"
    assert len(lines) == 102
    first = lines[1].split(",")
    assert float(first[0]) == 25e6
    assert all(cell for cell in first)


def test_report_json_contents(small_run):
    _, config_path, out = small_run
    report = json.loads((out / "report.json").read_text())
    assert report["schema_version"] == 1
    assert report["artifact_version"] == "0.1.0"
    assert report["config_digest"] == \
        hashlib.sha256(config_path.read_bytes()).hexdigest()
    assert [o["request"] for o in report["outputs"]] == \
        ["spectrum", "capacity", "dual_mode", "sweep tx_angle", "field_map"]
    assert report["failures"] == []
    assert any("low-confidence" in w for w in report["warnings"])
    assert any("masked" in w for w in report["warnings"])
    assert set(report["timings_s"]) >= {"mutual_inductance", "spectrum"}


def test_capacity_rows_run_off_the_narrow_grid(small_run):
    _, _, out = small_run
    lines = (out / "capacity.csv").read_text().splitlines()
    assert lines[0] == \
        "threshold_db,f_low_hz,f_high_hz,bandwidth_hz,signal_dbv,capacity_bps"
    assert len(lines) == 31
    assert any(line.endswith(",,,,,") or ",,,,," in line for line in lines[1:])
    live = [line for line in lines[1:] if ",,," not in line]
    assert live


def test_sweep_csv_has_three_angle_rows(small_run):
    _, _, out = small_run
    lines = (out / "sweep_tx_angle.csv").read_text().splitlines()
    assert lines[0] == "param,param_unit,peak_db,peak_freq_hz,bw3db_hz,capacity_bps,p_rx_w"
    assert [line.split(",")[0] for line in lines[1:]] == ["20", "40", "60"]
    assert all(line.split(",")[1] == "deg" for line in lines[1:])


def test_no_temp_files_left_behind(small_run):
    _, _, out = small_run
    strays = [p for p in out.iterdir()
              if not (p.suffix in (".csv", ".json"))]
    assert strays == []


def test_repeated_runs_are_byte_identical(tmp_path):
    config = write_config(tmp_path, SMALL_RUN)
    outs = [tmp_path / name for name in ("a", "b", "c")]
    for out in outs:
        assert main(["run", str(config), "--out", str(out)]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    for other in outs[1:]:
        assert sorted(p.name for p in other.iterdir()) == names
        for name in names:
            a, b = (outs[0] / name), (other / name)
            if name == "report.json":
                ra, rb = (json.loads(p.read_text()) for p in (a, b))
                ra.pop("timings_s"), rb.pop("timings_s")
                assert ra == rb
            else:
                assert a.read_bytes() == b.read_bytes()


# the tx flat in the xy plane, and a field map across its five turns
# near the winding angle pi/16, where a 16-gon's chords sag 1.2 mm off
# the curve
NO_SPT_EFFECT = """\
[tx_coil]
turns = 5
inner_radius = 60 mm
wire_diameter = 0.137 mm
wire_spacing = 0.5 mm
inductance_override = 35 uH

[rx_coil]
turns = 5
inner_radius = 4 mm
wire_diameter = 0.137 mm
wire_spacing = 0.5 mm

[placement]
x_eye = 92 mm
z_eye = 150 mm
tx_angle = 0 deg

[frequency_grid]
start = 25 MHz
stop = 27 MHz
points = 51

[analysis]
segments_per_turn = {spt}

[sweep tx_angle]
start = 0 deg
stop = 60 deg
step = 30 deg

[field_map]
coil = tx
plane = xy
offset = 0 mm
axis1_start = 58 mm
axis1_stop = 62 mm
axis1_points = 41
axis2_start = 11.5 mm
axis2_stop = 12.5 mm
axis2_points = 11
"""


def test_segments_per_turn_moves_no_result(tmp_path):
    # B, M and the wire masks all come from the exact winding, so the
    # key changes no artifact byte; report.json differs only in its
    # timings and in the digest of its (different) config file
    outs = []
    for spt in (16, 360):
        config = write_config(tmp_path, NO_SPT_EFFECT.format(spt=spt), f"spt{spt}.ini")
        outs.append(tmp_path / f"out{spt}")
        assert main(["run", str(config), "--out", str(outs[-1])]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == ["field_map.csv", "report.json", "sweep_tx_angle.csv"]
    assert sorted(p.name for p in outs[1].iterdir()) == names
    reports = [json.loads((out / "report.json").read_text()) for out in outs]
    for report in reports:
        report.pop("timings_s")
        report.pop("config_digest")
    assert reports[0] == reports[1]
    assert reports[0]["failures"] == []
    masked = [w for w in reports[0]["warnings"] if "inside the wire" in w]
    assert len(masked) == 1 and not masked[0].startswith("field_map: 0 of")
    for name in ("field_map.csv", "sweep_tx_angle.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_validate_and_defaults_subcommands(tmp_path, capsys):
    config = write_config(tmp_path, SMALL_RUN)
    assert main(["validate", str(config)]) == 0
    assert "OK (5 requested analyses)" in capsys.readouterr().out
    empty = write_config(tmp_path, "", "empty.ini")
    assert main(["validate", str(empty)]) == 0
    assert "OK (0 requested analyses)" in capsys.readouterr().out
    assert main(["defaults"]) == 0
    assert capsys.readouterr().out == DEFAULT_CONFIG


def test_invalid_config_exits_2(tmp_path, capsys):
    bad = write_config(tmp_path, "[placement]\nx_eye = 92\n")
    assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{bad}:2:" in err
    assert main(["validate", str(bad)]) == 2


def test_an_output_path_that_cannot_be_made_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("")
    config = write_config(tmp_path, "[output]\ndirectory = taken\n")
    for args in (["--out", str(tmp_path / "taken")], []):
        assert main(["run", str(config), *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "taken" in err
        assert "Traceback" not in err


# the rx grown to the tx and placed across it, at the edge of the
# placement domain: the coils' wires cross, so the spectrum, which needs
# M, fails and the field map does not
COLLIDING = """\
[rx_coil]
turns = 5
inner_radius = 60 mm
wire_diameter = 0.137 mm
wire_spacing = 0.5 mm

[placement]
x_eye = 0 mm
z_eye = 50 mm
tx_angle = 90 deg

[frequency_grid]
start = 25.5 MHz
stop = 26.5 MHz
points = 11

[analysis]
segments_per_turn = 32

[spectrum]
modes = tuned

[field_map]
coil = tx
plane = xy
offset = 100 mm
axis1_start = -20 mm
axis1_stop = 20 mm
axis1_points = 2
axis2_start = -20 mm
axis2_stop = 20 mm
axis2_points = 2
"""


def test_failing_request_is_isolated(tmp_path, capsys):
    colliding = write_config(tmp_path, COLLIDING)
    out = tmp_path / "out"
    assert main(["run", str(colliding), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "failed: spectrum" in err
    report = json.loads((out / "report.json").read_text())
    assert len(report["failures"]) == 1
    assert "spectrum" in report["failures"][0]
    assert [o["request"] for o in report["outputs"]] == ["field_map"]
    assert (out / "field_map.csv").exists()
    assert not (out / "spectrum_tuned.csv").exists()


class _NotingRequest:
    """A request that warns and then fails, or succeeds, as told."""

    def __init__(self, note, error=None):
        self.note, self.error = note, error

    def run(self, config, grid, out, build_link):
        warnings.warn(self.note)
        if self.error is not None:
            raise self.error
        return ("kept.csv",)


def test_a_failed_requests_warnings_reach_the_report(tmp_path):
    # a sweep may mask points and then fail to write its CSV: its notes
    # are kept beside its failure
    config = replace(parse_text(tmp_path, ""), requests={
        "stub": _NotingRequest("half the rows masked", OSError("disk full")),
        "fine": _NotingRequest("all rows kept")})
    report = run_scenario(config, out_dir=str(tmp_path / "out"))
    assert report.warnings[-2:] == ("stub: half the rows masked", "fine: all rows kept")
    assert report.failures == ("stub: disk full",)
    assert report.outputs == (("fine", ("kept.csv",)),)


def test_a_failed_request_prints_one_stderr_line(tmp_path):
    # main prints the report's failure and nothing else speaks of it; a
    # child process, since pytest's own log handlers would hide a log line
    proc = subprocess.run([sys.executable, "-m", "mqslink", "run",
                           str(write_config(tmp_path, COLLIDING)), "--out", str(tmp_path / "out")],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("failed: spectrum: "), lines


def test_capacity_band_off_the_grid_writes_the_table_without_the_report(tmp_path):
    config = write_config(tmp_path, "[frequency_grid]\nstart = 25.99 MHz\n"
                                    "stop = 26.01 MHz\npoints = 11\n\n[capacity]\n")
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["capacity.csv", "report.json"]
    rows = (out / "capacity.csv").read_text().splitlines()[1:]
    assert len(rows) == 30 and all(row.endswith(",,,,,") for row in rows)
    report = json.loads((out / "report.json").read_text())
    assert report["outputs"] == [{"request": "capacity", "files": ["capacity.csv"]}]
    assert [w for w in report["warnings"] if w.startswith("capacity: ")] == [
        "capacity: 30 threshold rows masked (band runs off the frequency grid)",
        "capacity: 3 dB band extends past the grid edge on the low and high side; "
        "capacity_report.json not written"]


def test_field_map_warns_of_points_stopped_at_the_refinement_cap(tmp_path, monkeypatch):
    # no estimate meets a zero tolerance, so every point refines to the
    # cap; the map is still written, and the report says how far off
    monkeypatch.setattr(field_coupling, "_FIELD_TOLERANCE", 0.0)
    config = parse_text(tmp_path, """\
[analysis]
segments_per_turn = 32

[field_map]
coil = rx
plane = xy
offset = 5 mm
axis1_start = -3 mm
axis1_stop = 3 mm
axis1_points = 2
axis2_start = -3 mm
axis2_stop = 3 mm
axis2_points = 3
""")
    report = run_scenario(config, tmp_path / "out")
    assert report.failures == ()
    capped = [w for w in report.warnings if "refinement cap" in w]
    assert len(capped) == 1
    assert re.fullmatch(r"field_map: 6 of 6 points stopped at the refinement cap "
                        r"above tolerance 0 \(worst estimate \d\.\d{3}e-\d\d\)",
                        capped[0]), capped
    assert len((tmp_path / "out" / "field_map.csv").read_text().splitlines()) == 7


def test_output_directory_from_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = write_config(tmp_path, "[output]\ndirectory = results\n"
                                    "[frequency_grid]\npoints = 11\n")
    assert main(["run", str(config)]) == 0
    assert (tmp_path / "results" / "report.json").exists()


def test_console_module_smoke():
    proc = subprocess.run([sys.executable, "-m", "mqslink.cli", "defaults"],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == DEFAULT_CONFIG


def test_package_runs_as_a_module_without_warnings():
    proc = subprocess.run([sys.executable, "-m", "mqslink", "defaults"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout == DEFAULT_CONFIG


def test_validate_leaves_the_quadrature_module_unloaded(tmp_path):
    config = write_config(tmp_path, SMALL_RUN)
    code = ("import sys; from mqslink.cli import main; "
            f"main(['validate', {str(config)!r}]); "
            "print('numpy.polynomial' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "False"


def test_timings_are_exclusive_per_layer(tmp_path, monkeypatch):
    # a slow nominal M makes double counting visible: it runs inside
    # the spectrum request, which must not book it a second time
    exact = cli.scenario_mutual_inductance

    def slow(*args, **kwargs):
        time.sleep(0.3)
        return exact(*args, **kwargs)

    monkeypatch.setattr(cli, "scenario_mutual_inductance", slow)
    config = parse_config(write_config(tmp_path, SMALL_RUN),
                          allow_defaults=True)
    t0 = time.perf_counter()
    report = run_scenario(config, out_dir=str(tmp_path / "out"))
    wall = time.perf_counter() - t0
    timings = dict(report.timings_s)
    assert timings["mutual_inductance"] >= 0.3
    assert 0.0 <= timings["spectrum"]
    assert timings["spectrum"] + timings["mutual_inductance"] <= wall


@pytest.mark.parametrize("fails", [False, True])
def test_nominal_m_is_solved_once_and_a_failure_retried(tmp_path, monkeypatch, fails):
    calls = []
    exact = cli.scenario_mutual_inductance

    def counted(*args, **kwargs):
        calls.append(args)
        if fails:
            raise field_coupling.SeparationError("coils overlap")
        return exact(*args, **kwargs)

    monkeypatch.setattr(cli, "scenario_mutual_inductance", counted)
    config = parse_config(write_config(tmp_path, SMALL_RUN), allow_defaults=True)
    report = run_scenario(config, out_dir=str(tmp_path / "out"))
    needing_m = ("spectrum", "capacity", "dual_mode")      # the link requests
    assert len(calls) == (len(needing_m) if fails else 1)
    assert [f.split(":")[0] for f in report.failures] == (list(needing_m) if fails else [])
    booked = [name for name, _ in report.timings_s].count("mutual_inductance")
    assert booked == (0 if fails else 1)


def test_an_unallocatable_grid_fails_each_request_that_reads_it(tmp_path, monkeypatch, capsys):
    # validate accepts the grid: its step is far above the ulp floor, and
    # it builds no grid. Its 728 TiB, refused here as numpy refuses them,
    # are asked for by the first request that reads it, inside that
    # request's isolation, and by the next one again
    def unallocatable(config):
        raise MemoryError("Unable to allocate 728. TiB for an array")

    monkeypatch.setattr(cli.ScenarioConfig, "frequency_grid", unallocatable)
    grid = "[frequency_grid]\nstart = 20 MHz\nstop = 30 MHz\npoints = 100000000000000\n"
    config = write_config(tmp_path, grid + "\n[spectrum]\n\n[capacity]\n" +
                          COLLIDING[COLLIDING.index("[field_map]"):])
    assert main(["validate", str(config)]) == 0
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[:2] for line in err[:2]] == [["failed", " spectrum"],
                                                         ["failed", " capacity"]]
    report = json.loads((out / "report.json").read_text())
    assert [f.split(":")[0] for f in report["failures"]] == ["spectrum", "capacity"]
    assert [o["request"] for o in report["outputs"]] == ["field_map"]


@pytest.mark.parametrize("fails", [False, True])
def test_the_grid_is_built_once_on_demand_and_a_failure_retried(tmp_path, monkeypatch, fails):
    calls = []
    exact = cli.ScenarioConfig.frequency_grid

    def counted(config):
        calls.append(config)
        if fails:
            raise MemoryError("no room for the grid")
        return exact(config)

    monkeypatch.setattr(cli.ScenarioConfig, "frequency_grid", counted)
    config = parse_config(write_config(tmp_path, SMALL_RUN), allow_defaults=True)
    report = run_scenario(config, out_dir=str(tmp_path / "out"))
    needing_grid = ("spectrum", "capacity", "dual_mode", "sweep tx_angle")
    assert len(calls) == (len(needing_grid) if fails else 1)
    assert [f.split(":")[0] for f in report.failures] == (list(needing_grid) if fails else [])
    # a config with no request never builds it
    calls.clear()
    assert run_scenario(replace(config, requests={}), out_dir=str(tmp_path / "none")).failures == ()
    assert calls == []


def test_a_run_builds_each_links_terms_once(tmp_path, monkeypatch):
    # the tuned spectrum, the capacity study, the dual-mode scan and both
    # termination sweeps share the tuned link's terms; the untuned
    # spectrum builds its own
    built = []
    exact = circuit._link_terms

    def counted(link, f):
        built.append(link.c_tx is not None)
        return exact(link, f)

    monkeypatch.setattr(circuit, "_link_terms", counted)
    sweeps = "".join(f"\n[sweep {side}]\nstart = 1 ohm\nstop = 10 kohm\npoints = 9\n"
                     for side in ("r_source", "r_load"))
    config = parse_config(write_config(tmp_path, small_scenario(
        "", "[dual_mode]\n" + sweeps + "\n[spectrum]\nmodes = tuned untuned\n\n[capacity]\n")),
        allow_defaults=True)
    report = run_scenario(config, out_dir=str(tmp_path / "out"))
    assert report.failures == ()
    assert [label for label, _ in report.outputs] == \
        ["dual_mode", "sweep r_source", "sweep r_load", "spectrum", "capacity"]
    assert built == [True, False]


def test_unsaturated_dual_mode_scan_is_reported_as_a_warning(tmp_path):
    config = parse_config(write_config(tmp_path, "[dual_mode]\nload_max = 10 ohm\n"),
                          allow_defaults=True)
    report = run_scenario(config, out_dir=str(tmp_path / "out"))
    assert report.failures == ()
    rising = [w for w in report.warnings if "still rises" in w]
    assert len(rising) == 1 and rising[0].startswith("dual_mode: ")


def test_run_scenario_returns_the_report(tmp_path):
    config = parse_config(write_config(tmp_path, SMALL_RUN),
                          allow_defaults=True)
    report = run_scenario(config, out_dir=str(tmp_path / "direct"))
    assert report.failures == ()
    assert report.config_digest == config.config_digest
    labels = [label for label, _ in report.outputs]
    assert labels == ["spectrum", "capacity", "dual_mode", "sweep tx_angle",
                      "field_map"]
