"""Static checks on the package sources."""

import ast
import inspect
import re
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


# every .py under the package, kernel/_pure.py and __init__.py included
PACKAGE = sorted(Path(segrenum.__file__).parent.rglob("*.py"))


def _orphans(sources: dict[str, str]) -> list[str]:
    """Module-level private functions and classes that nothing in the given
    sources refers to outside their own definition."""
    trees = {name: ast.parse(src) for name, src in sources.items()}

    def referenced(tree, skip) -> set[str]:
        seen, stack = set(), [tree]
        while stack:
            node = stack.pop()
            if node is skip:
                continue
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif isinstance(node, ast.alias):
                seen.add(node.name)
            stack.extend(ast.iter_child_nodes(node))
        return seen

    out = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            if not any(
                node.name in referenced(other, node if other is tree else None)
                for other in trees.values()
            ):
                out.append(f"{name}: {node.name}")
    return out


def test_orphan_scan_sees_other_modules_and_ignores_self_reference():
    sources = {
        "a.py": "def _used():\n    pass\ndef _recursive():\n    return _recursive()\nclass _Lone:\n    pass\n",
        "b.py": "from .a import _used\n",
    }
    assert _orphans(sources) == ["a.py: _recursive", "a.py: _Lone"]


def test_every_private_helper_is_referenced():
    root = Path(segrenum.__file__).parent
    sources = {str(p.relative_to(root)): p.read_text(encoding="utf-8") for p in PACKAGE}
    assert _orphans(sources) == []


README = Path(__file__).resolve().parents[1] / "README.md"


def _entry_point_calls(text: str) -> list[tuple[str, list[str]]]:
    """(name, arguments) of each `name(args)` call in the first column of the
    README's "Main entry points" table."""
    table = text.split("Main entry points", 1)[1].split("\n\n")[1]
    calls = []
    for row in table.splitlines():
        for name, args in re.findall(r"`(\w+)\(([^)]*)\)", row.split("|")[1]):
            calls.append((name, [a.strip() for a in args.split(",") if a.strip()]))
    return calls


def test_readme_entry_points_match_the_code():
    calls = _entry_point_calls(README.read_text(encoding="utf-8"))
    assert len(calls) > 10
    bad = []
    for name, args in calls:
        if name not in segrenum.__all__:
            bad.append(f"{name}: not exported")
            continue
        sig = inspect.signature(getattr(segrenum, name))
        # a trailing ... stands for further arguments
        bind = sig.bind_partial if args[-1:] == ["..."] else sig.bind
        try:
            bind(*[a for a in args if a != "..."])
        except TypeError as exc:
            bad.append(f"{name}({', '.join(args)}): {exc}")
    assert bad == []
