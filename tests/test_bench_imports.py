"""What the benchmark harness in bench/ takes from mqslink still exists:
every name it imports, and the parsed-config fields bench/run.py reads
for each workload. A rename would otherwise surface only as failed
benchmark runs."""

import ast
import importlib
import random
import re
import runpy
from pathlib import Path

from mqslink.cli import DEFAULT_CONFIG, parse_config
from mqslink.geometry import Scenario

ROOT = Path(__file__).resolve().parents[1]


def test_every_name_bench_imports_from_mqslink_exists():
    missing, imported = [], 0
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and \
                    (node.module or "").split(".")[0] == "mqslink":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    imported += 1
                    if not hasattr(module, alias.name):
                        missing.append(f"{path.name}:{node.lineno}: "
                                       f"{node.module}.{alias.name}")
    assert imported and missing == []


def test_bench_reads_each_workload_config(tmp_path):
    workloads = runpy.run_path(str(ROOT / "bench" / "workloads.py"))
    for name, workload in workloads["WORKLOADS"].items():
        path = tmp_path / f"{name}.ini"
        path.write_text(workloads["make_config"](workload, DEFAULT_CONFIG, 1))
        parsed = parse_config(path, allow_defaults=True)
        sections = re.findall(r"^\[", workload.requests(random.Random(0)), flags=re.M)
        assert parsed.segments_per_turn == workload.segments_per_turn, name
        assert isinstance(parsed.scenario, Scenario), name
        assert len(parsed.requests) == len(sections), name
