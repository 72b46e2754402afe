"""No package module imports an underscore-prefixed name from a sibling,
or a name it does not use, or holds a `match` statement.

A private name is the business of the module that defines it; a module
that needs another's private plumbing (its budget variable, a head
reducer) is doing that module's work and should call a public entry
point instead.  An import the module does not use misleads a reader
about what it depends on.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cubematch"


def _private_imports(path: Path) -> list[str]:
    """The `module.name` of every private name path imports from the package."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out: list[str] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "cubematch":
            continue
        out += [f"{module}.{a.name}" for a in node.names if a.name.startswith("_")]
    return out


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_private_name_from_a_sibling(path) -> None:
    assert _private_imports(path) == []


def _unused_imports(path: Path) -> list[str]:
    """The names path imports and never names again, in code or in an
    annotation, quoted ones included.

    `from __future__` imports are directives, not names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported: list[str] = []
    trees = [tree]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        note = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            trees.append(ast.parse(note.value, mode="eval"))
    used = {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize(
    "path", sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"}), ids=lambda p: p.name
)
def test_every_imported_name_is_used(path) -> None:
    assert _unused_imports(path) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_uses_a_match_statement(path) -> None:
    # the package dispatches on type(t); structural `match` is the style
    # of the test oracles in tests/match_walks.py
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Match)]
    assert lines == []
