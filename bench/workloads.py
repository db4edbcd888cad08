"""Seeded workload configs, pinned references and output checks.

Each workload is `mqslink defaults` (scenario sections only) with its
own `segments_per_turn` and request sections appended. The seed moves
sweep values, load-grid endpoints and field-map grid origins; it never
moves the nominal pose (M_REF pins it) nor the amount of work a run
does (point counts, grid sizes and request lists are fixed).
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

# Mutual inductance of the nominal pose (tx tilted 40 deg, rx at
# x = 92 mm, z = 150 mm), in H. Richardson extrapolation of the polyline
# Neumann values at 360 and 720 segments/turn, whose error falls as
# (segments/turn)^-2: M_REF = (4 M(720) - M(360)) / 3. It agrees with
# the Gauss-Legendre integral on the exact winding curve,
# 3.907814455e-10 H, to 8e-10 relative. `python3 bench/make_refs.py`
# recomputes it.
M_REF = 3.9078144520416973e-10

# Field-map lattice: every grid coordinate is a multiple of 1/512 m, so
# it is exact in binary and a probe point lands on the same double in
# every seed's grid, whatever its origin.
GRID_STEP = 1.0 / 512.0
FIELD_AXIS1 = (-60, 97)         # (first index before the seed shift, points)
FIELD_AXIS2 = (26, 61)
FIELD_SHIFT = 16                # the seed moves each origin by 0..15 steps

# Probe points (x, z) in lattice steps on the y = 0 plane. They lie in
# every seeded grid and at least 45 mm from the tx wire.
_PROBE_X = (-40, -20, 0, 16, 32)
_PROBE_Z = (45, 60, 80)
PROBES = tuple((ix * GRID_STEP, 0.0, iz * GRID_STEP)
               for ix in _PROBE_X for iz in _PROBE_Z)

# B (tesla, per ampere in the tx coil at the nominal pose) at PROBES,
# computed with the polyline at 4x each workload's segments/turn by
# `python3 bench/make_refs.py`. Keyed by the workload's segments/turn.
B_REF: Dict[int, Tuple[Tuple[float, float, float], ...]] = {
    64: (
        (-4.969593203381009e-06, 1.559949153522981e-09, -1.6848654891339718e-06),
        (-2.85960984938236e-06, 5.789219708422843e-10, 1.847857647879834e-07),
        (-1.4019780713224683e-06, -4.019335214037889e-10, 5.026226608563678e-07),
        (-8.062642001979466e-06, 9.414135597229512e-09, 7.1804391252422585e-06),
        (-3.355861066440696e-06, 1.9826107977551632e-09, 3.3303207056784363e-06),
        (-1.3950644571678685e-06, -5.754515656904595e-10, 1.5768615683150639e-06),
        (-7.213819745032448e-07, 8.851135233586517e-09, 1.1255480195841176e-05),
        (-1.0499044901330867e-06, 1.4457466722708676e-09, 5.314870078687457e-06),
        (-6.691363656507424e-07, -1.2269535261218024e-09, 2.3326611915345786e-06),
        (2.7467712036002714e-06, 2.9397716391453627e-09, 8.363963578901878e-06),
        (7.618550998052993e-07, -8.098361107659679e-10, 4.746500642875899e-06),
        (4.5463729330085655e-08, -2.132361837677235e-09, 2.340600577311032e-06),
        (3.5313372973706176e-06, -2.8693399453992743e-09, 5.08125950640423e-06),
        (1.606689787959817e-06, -3.2932081629400267e-09, 3.421814077293878e-06),
        (5.469650132874114e-07, -3.0795021392491206e-09, 1.9647018710621156e-06),
    ),
    180: (
        (-4.970219130602246e-06, 1.5603490611678376e-09, -1.6850044628427817e-06),
        (-2.859910375209365e-06, 5.791881487171447e-10, 1.8484133792740977e-07),
        (-1.4021090869954852e-06, -4.0179984813064595e-10, 5.026836431144383e-07),
        (-8.06319642703793e-06, 9.415796841578838e-09, 7.181485269208489e-06),
        (-3.35611124468472e-06, 1.983221639494107e-09, 3.330703991428722e-06),
        (-1.395173133416116e-06, -5.752197721022647e-10, 1.5770199493139178e-06),
        (-7.211571714313845e-07, 8.852283190862981e-09, 1.1256168310453784e-05),
        (-1.049896845336033e-06, 1.446399542410533e-09, 5.315283328245683e-06),
        (-6.691678892617601e-07, -1.2266745075578999e-09, 2.332858286529905e-06),
        (2.7469984747368173e-06, 2.940671393919579e-09, 8.364366532453919e-06),
        (7.619507177892301e-07, -8.092662589071596e-10, 4.746808730974701e-06),
        (4.548399235203081e-08, -2.1320896240506482e-09, 2.340779388978381e-06),
        (3.53154413880063e-06, -2.8685568373121037e-09, 5.081536056343384e-06),
        (1.6068090329847992e-06, -3.2927289663051337e-09, 3.4220327391761967e-06),
        (5.470141239975337e-07, -3.079259457417451e-09, 1.964845889301516e-06),
    ),
    360: (
        (-4.970287071400345e-06, 1.5603924702117066e-09, -1.6850195464352592e-06),
        (-2.8599429946761117e-06, 5.792170408062902e-10, 1.8484737045424594e-07),
        (-1.4021233074021037e-06, -4.0178533890306916e-10, 5.026902623119784e-07),
        (-8.063256599061603e-06, 9.415977155428134e-09, 7.181598821412696e-06),
        (-3.3561383978917578e-06, 1.9832879410932677e-09, 3.3307455939387144e-06),
        (-1.3951849288168159e-06, -5.751946129636456e-10, 1.577037140067399e-06),
        (-7.211327697295122e-07, 8.852407782044326e-09, 1.1256242993534747e-05),
        (-1.049896014557058e-06, 1.4464704033396844e-09, 5.315328181047902e-06),
        (-6.691713104841511e-07, -1.2266442230264057e-09, 2.332879678891562e-06),
        (2.7470231419731207e-06, 2.9407690467327376e-09, 8.364410265824243e-06),
        (7.61961096233159e-07, -8.09204409239088e-10, 4.746842169394306e-06),
        (4.548619184212325e-08, -2.132060078347482e-09, 2.340798796702109e-06),
        (3.5315665882266526e-06, -2.8684718433463485e-09, 5.081566071344353e-06),
        (1.6068219754686273e-06, -3.2926769559687328e-09, 3.422056471719284e-06),
        (5.470194544247697e-07, -3.0792331171162496e-09, 1.964861520587973e-06),
    ),
}


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json and bench/README.md say why it exists."""

    name: str
    segments_per_turn: int
    kernel: str                      # reference kernel: "loop" or "array"
    m_ceiling: float                 # check: m_err must stay below
    b_ceiling: float                 # check: b_err must stay below
    requests: Callable[[random.Random], str]
    artifacts: Dict[str, int]        # expected file -> CSV data rows


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _ohm(value: float) -> str:
    return f"{value:.6g} ohm"


# --- pose_sweep --------------------------------------------------------------

_ANGLE_POINTS = 3
_ANGLE_STEP = 30.0


def _pose_sweep_requests(rng: random.Random) -> str:
    start = rng.randrange(0, 61) / 2.0          # 0 .. 30 deg in 0.5 deg steps
    stop = start + _ANGLE_STEP * (_ANGLE_POINTS - 1)
    return ("[spectrum]\nmodes = tuned untuned\n\n[capacity]\n\n"
            f"[sweep tx_angle]\nstart = {start:g} deg\nstop = {stop:g} deg\n"
            f"step = {_ANGLE_STEP:g} deg\n")


# --- load_study --------------------------------------------------------------

_DUAL_POINTS = 451
_SWEEP_POINTS = 224


def _load_study_requests(rng: random.Random) -> str:
    return ("[spectrum]\nmodes = tuned untuned\n\n[capacity]\n\n"
            f"[dual_mode]\nload_min = {_ohm(_log_uniform(rng, 0.05, 0.2))}\n"
            f"load_max = {_ohm(_log_uniform(rng, 5e3, 2e4))}\n"
            f"points = {_DUAL_POINTS}\n\n"
            f"[sweep r_load]\nstart = {_ohm(_log_uniform(rng, 0.6, 1.6))}\n"
            f"stop = {_ohm(_log_uniform(rng, 6e3, 1.6e4))}\n"
            f"points = {_SWEEP_POINTS}\nspacing = log\n\n"
            f"[sweep r_source]\nstart = {_ohm(_log_uniform(rng, 8.0, 12.0))}\n"
            f"stop = {_ohm(_log_uniform(rng, 300.0, 500.0))}\n"
            f"points = {_SWEEP_POINTS}\nspacing = log\n")


# --- field_map ---------------------------------------------------------------

def _lattice(index: int) -> str:
    return f"{index * GRID_STEP!r} m"


def _field_map_requests(rng: random.Random) -> str:
    lines = ["[field_map]", "coil = tx", "plane = xz", "offset = 0 m"]
    for axis, (first, points) in (("axis1", FIELD_AXIS1), ("axis2", FIELD_AXIS2)):
        start = first + rng.randrange(FIELD_SHIFT)
        lines += [f"{axis}_start = {_lattice(start)}",
                  f"{axis}_stop = {_lattice(start + points - 1)}",
                  f"{axis}_points = {points}"]
    return "\n".join(lines + ["current = 1 A", ""])


# --- expected artifacts --------------------------------------------------------

# written by the workloads that solve the link; JSON files have no rows (0)
_LINK_ARTIFACTS = {"spectrum_tuned.csv": 1001,     # default [frequency_grid] points
                   "spectrum_untuned.csv": 1001,
                   "capacity.csv": 30,             # thresholds 1..30 dB
                   "capacity_report.json": 0}

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("pose_sweep", 180, "array", 1e-3, 1e-3, _pose_sweep_requests,
             {**_LINK_ARTIFACTS, "sweep_tx_angle.csv": _ANGLE_POINTS}),
    Workload("load_study", 64, "loop", 6e-3, 5e-3, _load_study_requests,
             {**_LINK_ARTIFACTS, "dual_mode.json": 0,
              "sweep_r_load.csv": _SWEEP_POINTS, "sweep_r_source.csv": _SWEEP_POINTS}),
    Workload("field_map", 360, "array", 2e-4, 1e-4, _field_map_requests,
             {"field_map.csv": FIELD_AXIS1[1] * FIELD_AXIS2[1]}),
)}


def scenario_text(defaults: str, segments_per_turn: int) -> str:
    """The scenario sections of `mqslink defaults`, re-resolved."""
    keep: List[str] = []
    section = None
    for line in defaults.splitlines():
        header = re.match(r"\s*\[(.+)\]\s*$", line)
        if header:
            section = header.group(1).strip()
        if section is not None and section not in (
                "tx_coil", "rx_coil", "placement", "circuit",
                "frequency_grid", "analysis", "output"):
            continue
        if section == "analysis" and line.strip().startswith("segments_per_turn"):
            line = f"segments_per_turn = {segments_per_turn}"
        keep.append(line)
    text = "\n".join(keep).rstrip() + "\n"
    if f"segments_per_turn = {segments_per_turn}" not in text:
        raise ValueError("`mqslink defaults` has no [analysis] segments_per_turn")
    return text


def make_config(workload: Workload, defaults: str, seed: int) -> str:
    rng = random.Random(f"{workload.name}:{seed}")
    return (scenario_text(defaults, workload.segments_per_turn) + "\n"
            + workload.requests(rng))


# --- checks -----------------------------------------------------------------

def _rows(path: Path) -> int:
    with path.open(newline="") as fh:
        return sum(1 for _ in fh) - 1        # minus the header


def _masked_rows(out: Path) -> int:
    """Masked rows over every sweep CSV in out."""
    masked = 0
    for path in sorted(out.glob("sweep_*.csv")):
        with path.open(newline="") as fh:
            masked += sum(row["peak_db"] == "" for row in csv.DictReader(fh))
    return masked


def check_run(workload: Workload, out: Path, returncode: int) -> List[str]:
    """Failed checks of one `mqslink run`, as readable strings."""
    failed = []
    if returncode != 0:
        failed.append(f"exit code {returncode}")
    report = json.loads((out / "report.json").read_text())
    failed += [f"request failed: {f}" for f in report["failures"]]
    for name, rows in workload.artifacts.items():
        path = out / name
        if not path.is_file():
            failed.append(f"missing artifact {name}")
        elif name.endswith(".csv") and _rows(path) != rows:
            failed.append(f"{name}: {_rows(path)} rows, expected {rows}")
        elif name.endswith(".json"):
            try:
                json.loads(path.read_text())
            except json.JSONDecodeError as exc:
                failed.append(f"{name}: {exc}")
    masked = _masked_rows(out)
    if masked:
        failed.append(f"{masked} masked sweep rows")
    return failed


def field_map_probes(out: Path) -> List[Tuple[float, float, float]]:
    """B at PROBES, read from the run's own field_map.csv."""
    wanted = {p: None for p in PROBES}
    with (out / "field_map.csv").open(newline="") as fh:
        for row in csv.DictReader(fh):
            key = (float(row["x"]), float(row["y"]), float(row["z"]))
            if key in wanted:
                wanted[key] = (float(row["Bx"]), float(row["By"]), float(row["Bz"]))
    missing = [p for p, b in wanted.items() if b is None]
    if missing:
        raise ValueError(f"field_map.csv lacks probe points {missing}")
    return [wanted[p] for p in PROBES]


def b_err(values, segments_per_turn: int) -> float:
    """Largest relative deviation of B at PROBES from B_REF."""
    worst = 0.0
    for b, ref in zip(values, B_REF[segments_per_turn]):
        diff = math.sqrt(sum((x - y) ** 2 for x, y in zip(b, ref)))
        worst = max(worst, diff / math.sqrt(sum(y * y for y in ref)))
    return worst


def m_err(m: float) -> float:
    return abs(m - M_REF) / M_REF
