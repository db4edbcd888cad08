"""Recompute the references pinned in bench/workloads.py.

    python3 bench/make_refs.py

Prints M_REF, by Richardson extrapolation of the polyline Neumann M of
the nominal pose at 360 and 720 segments/turn, and B_REF, the tx field
at the probe points with the polyline at 4x each workload's
segments/turn. Takes about 20 s; it is not part of a benchmark run.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from mqslink.cli import parse_config                            # noqa: E402
from mqslink.field_coupling import b_field                      # noqa: E402
from mqslink.geometry import (apply_pose, build_filament_coil,  # noqa: E402
                              scenario_poses)
from mqslink.link_analysis import scenario_mutual_inductance     # noqa: E402

from workloads import PROBES, WORKLOADS                          # noqa: E402


def main() -> None:
    with tempfile.NamedTemporaryFile("w", suffix=".ini") as fh:
        sc = parse_config(fh.name, allow_defaults=True).scenario
    m360 = scenario_mutual_inductance(sc, 360)
    m720 = scenario_mutual_inductance(sc, 720)
    print(f"M(360) = {m360!r}\nM(720) = {m720!r}")
    print(f"M_REF = {(4.0 * m720 - m360) / 3.0!r}")

    tx_pose, _ = scenario_poses(sc)
    for spt in sorted({w.segments_per_turn for w in WORKLOADS.values()}):
        coil = apply_pose(build_filament_coil(sc.tx, 4 * spt), tx_pose)
        b = b_field(coil, 1.0, PROBES)
        print(f"    {spt}: (")
        for row in b:
            print(f"        ({float(row[0])!r}, {float(row[1])!r}, {float(row[2])!r}),")
        print("    ),")


if __name__ == "__main__":
    main()
