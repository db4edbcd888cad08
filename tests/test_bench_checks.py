"""Each benchmark workload, run once, passes the benchmark's own output
checks: bench/workloads.py's check_run, and m_err and b_err below the
workload's ceilings, computed as bench/run.py computes them. Each also
runs under bench/traced_run.py, which wraps mqslink's layer functions by
name, with the counts it reports. A change that breaks one of them
fails here instead of only in a benchmark run.
"""

import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from mqslink import cli
from mqslink.field_coupling import b_field
from mqslink.geometry import apply_pose, build_filament_coil, scenario_poses
from mqslink.link_analysis import scenario_mutual_inductance

ROOT = Path(__file__).resolve().parents[1]
BENCH = runpy.run_path(str(ROOT / "bench" / "workloads.py"))


@pytest.mark.parametrize("name", sorted(BENCH["WORKLOADS"]))
def test_workload_run_passes_the_benchmark_checks(tmp_path, name):
    workload = BENCH["WORKLOADS"][name]
    config = tmp_path / f"{name}.ini"
    config.write_text(BENCH["make_config"](workload, cli.DEFAULT_CONFIG, 1))
    out = tmp_path / "out"
    code = cli.main(["run", str(config), "--out", str(out)])
    assert BENCH["check_run"](workload, out, code) == []

    parsed = cli.parse_config(config, allow_defaults=True)
    spt = parsed.segments_per_turn
    m_err = BENCH["m_err"](scenario_mutual_inductance(parsed.scenario, spt))
    if (out / "field_map.csv").is_file():
        probes = BENCH["field_map_probes"](out)
    else:
        coil = apply_pose(build_filament_coil(parsed.scenario.tx, spt),
                          scenario_poses(parsed.scenario)[0])
        probes = b_field(coil, 1.0, BENCH["PROBES"])
    assert m_err < workload.m_ceiling
    assert BENCH["b_err"](probes, spt) < workload.b_ceiling


@pytest.mark.parametrize("name, counts", [
    ("field_map", {"field_coupling.field_points": 5917}),
    ("pose_sweep", {"link_analysis.rows": 3}),
    ("load_study", {"link_analysis.rows": 448}),
])
def test_traced_run_counts_each_workload(tmp_path, name, counts):
    config = tmp_path / f"{name}.ini"
    config.write_text(BENCH["make_config"](BENCH["WORKLOADS"][name], cli.DEFAULT_CONFIG, 1))
    trace = tmp_path / "trace.json"
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "traced_run.py"), str(config),
                           str(tmp_path / "out"), str(trace)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(trace.read_text())["counts"]
    assert {key: got.get(key) for key in counts} == counts
