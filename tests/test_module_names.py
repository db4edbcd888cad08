"""Names across src/ modules: no module imports another module's private
name, every module-level name is read somewhere in the repository, and
field_coupling knows a coil only through its curve."""

import ast
from pathlib import Path

from mqslink.geometry import CoilSpec, build_filament_coil
from references import Ring
from test_public_api import _loaded_names

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src").rglob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def test_no_module_in_src_imports_a_private_name():
    # tests/ is exempt: tests/references.py builds on kernel internals on purpose
    private = [f"{path.relative_to(ROOT)}:{node.lineno}: {alias.name}"
               for path in SRC for node in ast.walk(_tree(path))
               if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def _defined(tree: ast.Module):
    # top-level functions, classes and assigned names, with their lines
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield node.lineno, target.id


def test_every_module_level_name_in_src_is_read():
    readers = [*SRC, *(ROOT / "tests").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]
    read = set().union(*(_loaded_names(_tree(path)) for path in readers))
    unread = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in SRC for line, name in _defined(_tree(path))
              if name not in read and not name.startswith("__")]
    assert unread == []


def test_field_coupling_reads_a_coil_only_through_its_curve():
    # how a winding is parametrized is decided in geometry alone: the
    # kernels take the coil record and read its curve attributes, its
    # pieces among them, never its spec, a turn count or the end of its
    # angle, and no kernel takes a spec, a turn count or a speed. Neither
    # the coil record nor the tests' ring has those attributes to read
    tree = _tree(ROOT / "src" / "mqslink" / "field_coupling.py")
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[-1] == "geometry" for alias in node.names}
    assert imported == {"FilamentCoil", "check_fields"}
    assert [f"{node.lineno}: .{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in {"spec", "turns", "stop"}] == []
    params = {arg.arg for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
              for arg in node.args.args + node.args.kwonlyargs}
    assert params.isdisjoint({"spec", "turns", "speed"})
    coil = build_filament_coil(CoilSpec(turns=3, inner_radius=4e-3, wire_diameter=1e-4,
                                        wire_spacing=1e-4), 16)
    for curve in (coil, Ring(0.01)):
        assert not any(hasattr(curve, name) for name in ("turns", "stop")), type(curve).__name__
