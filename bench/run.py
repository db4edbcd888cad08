"""mqslink benchmark: end-to-end and per-layer figures of `mqslink run`.

    python3 bench/run.py --workload pose_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. It builds the workload's config from
`mqslink defaults` and the seed, times `mqslink validate` (set-up) and
then `mqslink run` in fresh serial processes for --seconds, timing a
reference kernel right before and right after each run, and checks
every run's outputs. With --trace 1 it alternates plain and traced runs
and reports per-layer figures instead. The last line of standard output
is one JSON object: correct, attempted, failed and metrics. Everything
it writes goes under .bench_out/ in the checkout. bench/README.md
describes the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import (PROBES, WORKLOADS, b_err, check_run,          # noqa: E402
                       field_map_probes, m_err, make_config)

SETUP_REPEATS = 5
KERNEL_REPEATS = 3
CHILD_TIMEOUT_S = 150
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

# run_s, the raw wall time, is printed but is not a metric: on a shared
# machine it drifts with phases longer than a run window (see README)
END_TO_END = (("run_rel", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MiB"),
              ("m_err", "ratio"), ("b_err", "ratio"))
PER_LAYER = (
    ("field_coupling.mutual_inductance_s", "s"),
    ("field_coupling.mutual_inductance_calls", "count"),
    ("field_coupling.field_map_s", "s"),
    ("field_coupling.field_points", "count"),
    ("field_coupling.est_over_err", "ratio"),
    ("lumped.esr_s", "s"),
    ("lumped.esr_evals", "count"),
    ("circuit.frequency_sweep_s", "s"),
    ("circuit.solves", "count"),
    ("circuit.freq_points", "count"),
    ("link_analysis.self_s", "s"),
    ("link_analysis.masked_frac", "ratio"),
    ("geometry.build_s", "s"),
    ("geometry.segments", "count"),
    ("cli.parse_s", "s"),
    ("cli.emit_s", "s"),
    ("cli.emit_bytes", "B"),
    ("cli.self_s", "s"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
)
# counts that must repeat exactly across traced runs and seeds
EXACT_COUNTS = ("field_coupling.mutual_inductance_calls",
                "field_coupling.field_points", "lumped.esr_evals",
                "circuit.solves", "circuit.freq_points", "geometry.segments")


class HarnessError(Exception):
    """The benchmark itself cannot run (no program, a child crashed)."""


# --- reference kernels ---------------------------------------------------------
# Fixed work owned by the benchmark, timed around every run so a run's
# time can be read relative to how fast the machine is right then.

def _loop_kernel() -> float:
    # interpreter-bound: a scalar function call per element, like the
    # per-frequency ESR callbacks
    def esr(f, sigma=5.8e7):
        return math.sqrt(math.pi * f * 4e-7 * math.pi / sigma) * 5.0 / 1.37e-4

    total = 0.0
    for i in range(330_000):
        total += esr(2.0e7 + 10.0 * i)
    return total


def _array_kernel(a=np.random.default_rng(0).standard_normal((700, 3)),
                  b=np.random.default_rng(1).standard_normal((1500, 3))) -> float:
    # memory-bound: a (700 x 1500 x 3) pair pass with 25 MB temporaries,
    # the shape of one chunk of the Neumann and Biot-Savart kernels
    diff = a[:, None, :] - b[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    dots = np.sum(a[:, None, :] * b[None, :, :], axis=2)
    return float(np.sum(dots / dist))


KERNELS = {"loop": _loop_kernel, "array": _array_kernel}


def time_kernel(kernel) -> float:
    """Mean seconds of one kernel pass over KERNEL_REPEATS passes."""
    t0 = time.perf_counter()
    for _ in range(KERNEL_REPEATS):
        kernel()
    return (time.perf_counter() - t0) / KERNEL_REPEATS


# --- machine facts -------------------------------------------------------------

def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def steal_ticks() -> int:
    fields = _read("/proc/stat").split("\n", 1)[0].split()
    return int(fields[8]) if len(fields) > 8 else 0


def git_sha() -> str:
    head = _read(str(ROOT / ".git" / "HEAD")).strip()
    if head.startswith("ref: "):
        ref = head[5:]
        sha = _read(str(ROOT / ".git" / ref)).strip()
        if not sha:
            for line in _read(str(ROOT / ".git" / "packed-refs")).splitlines():
                if line.endswith(" " + ref):
                    sha = line.split()[0]
        return sha or "unknown"
    return head or "unknown"


def machine_facts() -> dict:
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    return {"git_sha": git_sha(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__}


# --- child processes -----------------------------------------------------------

def _alarm(signum, frame):
    raise TimeoutError


def run_child(argv, log: Path):
    """Run argv to completion; (wall s, exit code, peak RSS MiB).

    The harness blocks in wait4 while the child runs, so it stays idle.
    """
    env = dict(os.environ, **CHILD_ENV)
    with log.open("w") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=fh,
                                stderr=subprocess.STDOUT)
        signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            proc.wait()
            raise HarnessError(f"{argv} ran past {CHILD_TIMEOUT_S} s")
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def mqslink(*args) -> list:
    return [sys.executable, str(HERE / "mqslink_run.py"), *args]


def artifact_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.name != "report.json":
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# --- trace analysis --------------------------------------------------------------

def layer_figures(trace: dict) -> dict:
    """Per-layer self times and counts from one traced run."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s = {}
    for (name, start, end, _), covered in zip(spans, child_time):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - covered

    def total(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    counts = trace["counts"]
    rows = counts.get("link_analysis.rows", 0)
    out = {
        "field_coupling.mutual_inductance_s": total("field_coupling.mutual_inductance"),
        "field_coupling.field_map_s": total("field_coupling.field_map"),
        "lumped.esr_s": total("lumped.coil_resistance"),
        "circuit.frequency_sweep_s": total("circuit."),
        "link_analysis.self_s": total("link_analysis."),
        "link_analysis.masked_frac": counts.get("link_analysis.masked_rows", 0) / rows
        if rows else 0.0,
        "geometry.build_s": total("geometry."),
        "cli.parse_s": total("cli.parse_config"),
        "cli.emit_s": total("cli.emit."),
        "cli.emit_bytes": counts.get("cli.emit_bytes", 0),
        "cli.self_s": total("cli.main") + total("cli.run_scenario"),
    }
    for name in EXACT_COUNTS:
        out[name] = int(counts.get(name, 0))
    return out


# --- one benchmark invocation ------------------------------------------------------

def measure(workload, seed: int, seconds: float, traced: bool) -> dict:
    if not (ROOT / "src" / "mqslink" / "cli.py").is_file():
        raise HarnessError(f"no mqslink sources under {ROOT / 'src'}")
    work = ROOT / ".bench_out" / f"{workload.name}-{seed}-{int(traced)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # the reference kernel and every child run on one CPU, so the
    # kernel samples the speed of the CPU the run gets
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    facts = dict(machine_facts(), cpu=cpu)
    kernel = KERNELS[workload.kernel]

    _, code, _ = run_child(mqslink("defaults"), work / "defaults.txt")
    if code != 0:
        raise HarnessError(f"`mqslink defaults` exited {code}")
    config = work / "workload.ini"
    config.write_text(make_config(workload, (work / "defaults.txt").read_text(), seed))

    def validate() -> float:
        wall, code, _ = run_child(mqslink("validate", str(config)),
                                  work / "validate.log")
        if code != 0:
            raise HarnessError(f"`mqslink validate` exited {code}: "
                               + (work / "validate.log").read_text())
        return wall

    validate()                                  # warms the caches, untimed
    setup = [validate() for _ in range(SETUP_REPEATS)]

    sys.path.insert(0, str(ROOT / "src"))
    from mqslink.cli import parse_config
    parsed = parse_config(config, allow_defaults=True)

    runs, failures, digests, traces = [], [], set(), []
    out = work / "out"
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if (len(runs) >= 1 + traced
                and elapsed + runs[-1]["iteration_s"] > seconds):
            break
        with_trace = traced and len(runs) % 2 == 0
        shutil.rmtree(out, ignore_errors=True)
        t0 = time.perf_counter()
        load, steal = _read("/proc/loadavg").split()[:3], steal_ticks()
        ref_before = time_kernel(kernel)
        if with_trace:
            argv = [sys.executable, str(HERE / "traced_run.py"), str(config),
                    str(out), str(work / "trace.json")]
        else:
            argv = mqslink("run", str(config), "--out", str(out))
        wall, code, rss = run_child(argv, work / "run.log")
        ref_after = time_kernel(kernel)
        setup.append(validate())                # set-up samples span the window
        if not (out / "report.json").is_file():
            raise HarnessError(f"run exited {code} without report.json: "
                               + (work / "run.log").read_text()[-2000:])
        failed = check_run(workload, out, code)
        digests.add(artifact_digest(out))
        if with_trace:
            traces.append(layer_figures(json.loads((work / "trace.json").read_text())))
        failures += failed
        runs.append({"traced": with_trace, "run_s": wall,
                     "run_rel": wall / ((ref_before + ref_after) / 2.0),
                     "ref_before_s": ref_before, "ref_after_s": ref_after,
                     "peak_rss_mb": rss, "exit": code, "failed": failed,
                     "loadavg": load, "steal_ticks": steal_ticks() - steal,
                     "iteration_s": time.perf_counter() - t0})
    if len(digests) > 1:
        failures.append(f"artifacts differ across {len(runs)} identical runs")

    requests = len(parsed.requests)
    result = {"facts": facts, "config": str(config), "runs": runs,
              "attempted": requests * len(runs), "failures": failures,
              "setup_s": setup}
    if traced:
        result.update(layer_result(workload, parsed, runs, traces, failures))
    else:
        result.update(end_to_end_result(workload, parsed, runs, setup, out, failures))
    (work / "result.json").write_text(json.dumps(result, indent=1))
    return result


def _median(runs, key):
    return statistics.median(r[key] for r in runs)


def end_to_end_result(workload, parsed, runs, setup, out, failures) -> dict:
    from mqslink.field_coupling import b_field
    from mqslink.geometry import apply_pose, build_filament_coil, scenario_poses
    from mqslink.link_analysis import scenario_mutual_inductance

    spt = parsed.segments_per_turn
    merr = m_err(scenario_mutual_inductance(parsed.scenario, spt))
    if (out / "field_map.csv").is_file():
        try:
            probes = field_map_probes(out)
        except ValueError as exc:
            raise HarnessError(str(exc))
    else:
        coil = apply_pose(build_filament_coil(parsed.scenario.tx, spt),
                          scenario_poses(parsed.scenario)[0])
        probes = b_field(coil, 1.0, PROBES)
    berr = b_err(probes, spt)
    if not merr < workload.m_ceiling:
        failures.append(f"m_err {merr:.3e} >= ceiling {workload.m_ceiling:g}")
    if not berr < workload.b_ceiling:
        failures.append(f"b_err {berr:.3e} >= ceiling {workload.b_ceiling:g}")
    values = {"run_rel": _median(runs, "run_rel"),
              "setup_s": statistics.median(setup),
              "peak_rss_mb": _median(runs, "peak_rss_mb"),
              "m_err": merr, "b_err": berr}
    return {"metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in END_TO_END}}


def layer_result(workload, parsed, runs, traces, failures) -> dict:
    from mqslink.field_coupling import mutual_inductance
    from mqslink.geometry import apply_pose, build_filament_coil, scenario_poses

    spt = parsed.segments_per_turn
    tx_pose, rx_pose = scenario_poses(parsed.scenario)
    coupling = mutual_inductance(
        apply_pose(build_filament_coil(parsed.scenario.tx, spt), tx_pose),
        apply_pose(build_filament_coil(parsed.scenario.rx, spt), rx_pose))
    for name in EXACT_COUNTS:
        if len({t[name] for t in traces}) > 1:
            failures.append(f"{name} differs across traced runs")
    traced = [r for r in runs if r["traced"]]
    plain = [r for r in runs if not r["traced"]]
    values = {name: statistics.median(t[name] for t in traces)
              for name in traces[0]}
    values.update({name: traces[0][name] for name in EXACT_COUNTS})
    values["field_coupling.est_over_err"] = (coupling.convergence_estimate
                                             / m_err(coupling.m))
    values["trace.run_s"] = _median(traced, "run_s")
    values["trace.overhead_s"] = values["trace.run_s"] - _median(plain, "run_s")
    return {"metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in PER_LAYER}}


def report(name: str, seed: int, result: dict) -> None:
    facts = result["facts"]
    print(f"workload {name} seed {seed}: {len(result['runs'])} runs; "
          + ", ".join(f"{k} {v}" for k, v in facts.items()))
    for i, run in enumerate(result["runs"]):
        print(f"  run {i}{' traced' if run['traced'] else ''}: "
              f"{run['run_s']:.3f} s, rel {run['run_rel']:.2f}, "
              f"ref {run['ref_before_s'] * 1e3:.1f}/{run['ref_after_s'] * 1e3:.1f} ms, "
              f"rss {run['peak_rss_mb']:.0f} MiB, exit {run['exit']}, "
              f"loadavg {' '.join(run['loadavg'])}, steal {run['steal_ticks']} ticks")
    attempted, failed = result["attempted"], len(result["failures"])
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    print(f"  fail_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    plain = [r for r in result["runs"] if not r["traced"]]
    print(f"  run_s = {_median(plain, 'run_s'):.6g} s (median wall time)")
    for metric, entry in result["metrics"].items():
        value = entry["value"]
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {metric} = {shown} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result["metrics"]}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace))
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    report(args.workload, args.seed, result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
