"""Static checks on the package sources."""

import ast
from pathlib import Path

import pytest

import segrenum

# __init__.py is left out: its imports are the package's re-exports.
MODULES = sorted(p for p in Path(segrenum.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_unused_import_scan_sees_annotations_and_attributes():
    source = "from .a import B, C\nimport os.path\nimport re\ndef f(x: B):\n    return os.path\n"
    assert _unused_imports(source) == ["line 1: C", "line 3: re"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []
