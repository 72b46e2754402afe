"""No package module imports an underscore-prefixed name from a sibling.

A private name is the business of the module that defines it; a module
that needs another's private plumbing (its budget variable, a head
reducer) is doing that module's work and should call a public entry
point instead.
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
