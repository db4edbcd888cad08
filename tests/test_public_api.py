"""The public surface: every name the package re-exports is used by the
program or kept on purpose, and README's library sketch runs."""

import ast
import re
from pathlib import Path

import mqslink

PACKAGE = Path(mqslink.__file__).parent

# Re-exports that no other module reads, each kept for a stated reason.
KEPT = {
    # source power for the efficiency figures (ROADMAP, "Powering: efficiency
    # and optimal loads in closed form")
    "tx_power",
    # point-evaluation API behind bench/make_refs.py and the field tests
    "b_field",
    # k for the per-coil block of the run report (ROADMAP, "A run explains itself")
    "coupling_coefficient",
    # Wheeler cross-check of the current-sheet estimate (ROADMAP, "Filament
    # self-inductance on the winding curve")
    "wheeler_inductance",
}


def _reexports(tree: ast.Module):
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _loaded_names(tree: ast.Module):
    # names read as bare names or as attributes; an import, a definition
    # or a docstring mention does not count
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_reexport_is_used_or_kept_for_a_reason():
    init = PACKAGE / "__init__.py"
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path != init:
            used |= _loaded_names(ast.parse(path.read_text(encoding="utf-8")))
    exported = _reexports(ast.parse(init.read_text(encoding="utf-8")))
    assert KEPT <= exported, sorted(KEPT - exported)
    unused = sorted(exported - used - KEPT)
    assert unused == [], f"re-exported but used by no module: {unused}"
    # an entry that the program now reads no longer needs its reason
    assert sorted(KEPT & used) == []


def test_readme_library_sketch_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library sketch\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S)[1]
    exec(compile(code, "README.md", "exec"), {})
