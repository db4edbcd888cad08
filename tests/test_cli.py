"""Config parsing, file emission, and the command-line entry point."""

import hashlib
import json
import math
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mqslink import cli
from mqslink.cli import (DEFAULT_CONFIG, ConfigError, _csv_text, _fmt,
                         _json_text, emit_field_map_csv, main, parse_config,
                         run_scenario)
from mqslink.field_coupling import FieldSample

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


def write_config(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def parse_text(tmp_path, text, **kwargs):
    kwargs.setdefault("allow_defaults", True)
    return parse_config(write_config(tmp_path, text), **kwargs)


# ---------------------------------------------------------------- parsing

def test_builtin_defaults_round_trip(tmp_path):
    from_text = parse_config(write_config(tmp_path, DEFAULT_CONFIG, "d.ini"))
    from_empty = parse_config(write_config(tmp_path, "", "e.ini"),
                              allow_defaults=True)
    # every field but the requests and the file digest, floats bit for bit
    assert replace(from_text, requests=(), config_digest="") == \
        replace(from_empty, requests=(), config_digest="")
    assert [r.label for r in from_text.requests] == ["spectrum", "capacity"]
    assert from_empty.requests == ()


def test_strict_mode_requires_the_scenario_sections(tmp_path):
    with pytest.raises(ConfigError, match=r"\[tx_coil\]"):
        parse_config(write_config(tmp_path, ""), allow_defaults=False)


def test_digest_is_the_sha256_of_the_file(tmp_path):
    path = write_config(tmp_path, SMALL_RUN)
    config = parse_config(path, allow_defaults=True)
    assert config.config_digest == hashlib.sha256(path.read_bytes()).hexdigest()


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
    ("[circuit]\nesr_mode = fixed\n", "r_coil"),
    ("[circuit]\nesr_mode = frequency\nr_coil_tx = 1 ohm\n", "esr_mode"),
    ("[sweep tx_angle]\nstart = 10 deg\nstop = 95 deg\nstep = 5 deg\n",
     "within"),
    ("[sweep tx_angle]\nstart = 30 deg\nstop = 20 deg\nstep = 5 deg\n",
     "stop"),
    ("[frequency_grid]\npoints = 1\n", "points"),
    ("[frequency_grid]\nstart = 30 MHz\nstop = 20 MHz\n", "start"),
    ("[analysis]\nsegments_per_turn = 8\n", "segments_per_turn"),
    ("[spectrum]\nmodes = tuned tuned\n", "repeats"),
    ("[spectrum]\nmodes = sideways\n", "modes"),
    ("[dual_mode]\npoints = 3.5\n", "integer"),
    ("[circuit]\nr_load = 1 kohm\nr_load = 2 kohm\n", "r_load"),
])
def test_bad_configs_are_rejected(tmp_path, snippet, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_text(tmp_path, snippet)


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
    assert config.scenario.l_rx_override is None


def test_fixed_esr_mode_carries_both_resistances(tmp_path):
    config = parse_text(tmp_path, """\
[circuit]
esr_mode = fixed
r_coil_tx = 6 ohm
r_coil_rx = 0.5 ohm
""")
    assert config.esr_mode == "fixed"
    assert config.r_coil_tx == 6.0
    assert config.r_coil_rx == 0.5


# ------------------------------------------------------------- formatting

def test_csv_cells_round_trip_doubles():
    rng = np.random.default_rng(3)
    for x in rng.uniform(-1e8, 1e8, 50):
        assert float(_fmt(float(x))) == float(x)
    assert _fmt(None) == ""
    assert _fmt(float("nan")) == ""
    assert _fmt(float("-inf")) == ""
    assert _fmt(26000000.0) == "26000000"


_FLOAT_CELLS = st.floats() | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 7, 1.7976931348623157e308])
_ANY_CELLS = (_FLOAT_CELLS | st.none() | st.integers() | st.booleans()
              | st.text(alphabet="abz Ω_-.", max_size=4))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(*[_FLOAT_CELLS] * n) | st.tuples(*[_ANY_CELLS] * n), max_size=8))))
@example((3, [(-0.0, 5e-324, 0.1), (float("nan"), 1.0, 2.0),
              (float("inf"), float("-inf"), 0.5), (None, 1.5, "ohm"),
              (10**17, True, 2.5), (1.7976931348623157e308, 1.7976931348623157e308, 1.0)]))
def test_csv_rows_read_as_if_each_cell_went_through_fmt(case):
    # the one-template fast path and the cell-by-cell fallback must
    # write the same text
    n, rows = case
    header = ",".join(f"c{i}" for i in range(n))
    want = "\n".join([header] + [",".join(_fmt(c) for c in row) for row in rows])
    assert _csv_text(header, rows) == want + "\n"


def test_json_emitter_and_masking():
    payload = {"a": 1.5, "b": [True, None, 2], "c": {"d": float("inf")},
               "e": "text"}
    parsed = json.loads(_json_text(payload))
    assert parsed == {"a": 1.5, "b": [True, None, 2], "c": {"d": None},
                      "e": "text"}
    assert _json_text(True) == "true"     # bool must not print as 1
    with pytest.raises(TypeError):
        _json_text({"x": object()})


def test_field_map_rows_mask_with_empty_cells(tmp_path):
    samples = [FieldSample((0.05, 0.0, 0.1), (1e-9, 0.0, -2e-9)),
               FieldSample((0.06, 0.0, 0.1), None)]
    path = tmp_path / "field_map.csv"
    emit_field_map_csv(samples, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,z,Bx,By,Bz"
    assert lines[1].split(",")[3] == "1.0000000000000001e-09"
    assert lines[2] == "0.059999999999999998,0,0.10000000000000001,,,"


# ------------------------------------------------------------ end to end

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


def test_runs_are_byte_identical_across_threads(tmp_path):
    config = write_config(tmp_path, SMALL_RUN)
    outs = []
    for args in (["--out", str(tmp_path / "a")],
                 ["--out", str(tmp_path / "b")],
                 ["--out", str(tmp_path / "c"), "--threads", "3"]):
        assert main(["run", str(config)] + args) == 0
        outs.append(Path(args[1]))
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


def test_bad_thread_count_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, SMALL_RUN)
    assert main(["run", str(config), "--threads", "0",
                 "--out", str(tmp_path / "o")]) == 2
    assert "threads" in capsys.readouterr().err


def test_failing_request_is_isolated(tmp_path, capsys):
    colliding = write_config(tmp_path, """\
[rx_coil]
turns = 5
inner_radius = 60 mm
wire_diameter = 0.137 mm
wire_spacing = 0.5 mm

[placement]
x_eye = 0 mm
z_eye = 0 mm
tx_angle = 0 deg

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
""")
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
