"""`mqslink run` with spans at the layer boundaries.

    python3 bench/traced_run.py scenario.ini OUT_DIR TRACE.json

Wraps the public functions of each mqslink layer where the calling
module imported them (for example `mqslink.link_analysis.mutual_inductance`
and `mqslink.cli.field_map`), plus `LinkCircuit.coil_resistance_tx/rx`,
then runs the command line as `mqslink run scenario.ini --out OUT_DIR`.
Nothing under src/ changes. Each span is (name, start, end, parent
index); counts are taken in the same wrappers. Spans stay in memory and
are written to TRACE.json when the run ends. The exit code is the run's.

Hot inner functions are timed at their caller's boundary: the roughly
2.4M `ac_resistance` calls of a frequency-ESR run are not wrapped; the
spans sit on `coil_resistance_tx/rx`, which count the frequencies they
evaluate.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mqslink import cli, link_analysis                          # noqa: E402
from mqslink.circuit import LinkCircuit                         # noqa: E402


class Tracer:
    """Spans and counts of one process, kept in memory."""

    def __init__(self):
        self.spans = []                 # [name, start, end, parent index]
        self.counts = defaultdict(int)
        self._open = []

    def wrap(self, name, fn, count=None):
        spans, stack, counts = self.spans, self._open, self.counts

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def patch(self, name, sites, attr, count=None):
        """Replace `attr` on every owner in sites with one traced wrapper."""
        traced = self.wrap(name, getattr(sites[0], attr), count)
        for owner in sites:
            setattr(owner, attr, traced)


def _count_segments(counts, args, coil):
    counts["geometry.segments"] += coil.n_segments


def _count_esr(side):
    def count(counts, args, result):
        link, f = args
        if getattr(link, side) is not None:
            counts["lumped.esr_evals"] += np.size(f)
    return count


def _count_mutual(counts, args, result):
    counts["field_coupling.mutual_inductance_calls"] += 1


def _count_field_points(counts, args, samples):
    counts["field_coupling.field_points"] += len(samples)


def _count_solve(counts, args, spectrum):
    counts["circuit.solves"] += 1
    counts["circuit.freq_points"] += len(spectrum)


def _count_sweep_rows(counts, args, sweep):
    counts["link_analysis.rows"] += len(sweep.rows)
    counts["link_analysis.masked_rows"] += sum(row.masked for row in sweep.rows)


def _count_bytes(counts, args, result):
    counts["cli.emit_bytes"] += len(args[1].encode("utf-8"))


def install(tracer: Tracer) -> None:
    both = (cli, link_analysis)
    for attr in ("build_filament_coil", "apply_pose", "scenario_poses"):
        count = _count_segments if attr == "build_filament_coil" else None
        tracer.patch(f"geometry.{attr}", both, attr, count)

    tracer.patch("lumped.estimate_inductance", both, "estimate_inductance")
    for side in ("tx", "rx"):
        tracer.patch("lumped.coil_resistance", (LinkCircuit,),
                     f"coil_resistance_{side}", _count_esr(f"esr_{side}"))

    tracer.patch("field_coupling.mutual_inductance", (link_analysis,),
                 "mutual_inductance", _count_mutual)
    tracer.patch("field_coupling.field_map", (cli,), "field_map",
                 _count_field_points)

    tracer.patch("circuit.frequency_sweep", both, "frequency_sweep", _count_solve)

    for attr in ("scenario_link", "scenario_mutual_inductance"):
        tracer.patch(f"link_analysis.{attr}", both, attr)
    for attr in ("misalignment_sweep", "resistance_sweep"):
        tracer.patch(f"link_analysis.{attr}", (cli,), attr, _count_sweep_rows)
    for attr in ("dual_mode_report", "capacity_vs_bandwidth", "capacity_report"):
        tracer.patch(f"link_analysis.{attr}", (cli,), attr)

    tracer.patch("cli.parse_config", (cli,), "parse_config")
    tracer.patch("cli.run_scenario", (cli,), "run_scenario")
    for attr in ("emit_spectrum_csv", "emit_sweep_csv", "emit_field_map_csv",
                 "emit_capacity_csv", "emit_report_json"):
        tracer.patch(f"cli.emit.{attr}", (cli,), attr)
    tracer.patch("cli.emit._atomic_write", (cli,), "_atomic_write", _count_bytes)


def main(argv) -> int:
    config, out, trace_path = argv
    tracer = Tracer()
    install(tracer)
    code = tracer.wrap("cli.main", cli.main)(["run", config, "--out", out])
    Path(trace_path).write_text(json.dumps({"spans": tracer.spans,
                                            "counts": tracer.counts}))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
