"""No module in src/ or tests/ imports a name it never reads."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(tree: ast.Module):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(line, name) for name, line in imported.items() if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    # __init__.py imports to re-export; test_public_api.py checks those
    paths = [*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").glob("*.py")]
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in sorted(paths) if path.name != "__init__.py"
              for line, name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert unused == []
