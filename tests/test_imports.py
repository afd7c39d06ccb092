"""Every name a package module imports or defines is referenced.

Stdlib-only stand-ins for a linter's unused-name rules.  An imported name
counts as used when it is loaded anywhere in its module or listed in its
``__all__``; a module-level definition outside ``__all__`` must be loaded
or read as an attribute somewhere in the package, the tests or the
benchmark.
"""

from __future__ import annotations

import ast
from functools import cache
from pathlib import Path

import pytest

import squareperm

MODULES = sorted(Path(squareperm.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    unused = [f"{name} (line {line})" for name, line in imported.items() if name not in used]
    assert not unused, f"{path.name} never uses {', '.join(sorted(unused))}"


def module_all(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def defined_names(tree: ast.Module) -> dict[str, int]:
    """Module-level assignments, functions and classes, by first line."""
    names: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.setdefault(node.name, node.lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        names.setdefault(sub.id, node.lineno)
    return names


@cache
def referenced_names() -> frozenset[str]:
    """Names loaded, and attributes read, anywhere in src/, tests/ and bench/."""
    used: set[str] = set()
    files = [*MODULES, *(ROOT / "tests").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    return frozenset(used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_unexported_definition_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    exported = module_all(tree)
    used = referenced_names()
    unused = [
        f"{name} (line {line})"
        for name, line in defined_names(tree).items()
        if not (name.startswith("__") and name.endswith("__"))
        and name not in exported
        and name not in used
    ]
    assert not unused, f"{path.name} defines but nobody uses {', '.join(sorted(unused))}"
