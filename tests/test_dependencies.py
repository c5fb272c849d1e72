"""The package imports nothing beyond the standard library and numpy, and exports what it names."""

import ast
import sys
from pathlib import Path

import graphbell

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "graphbell"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "graphbell"}


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.partition(".")[0] not in ALLOWED]
    assert foreign == []


def test_public_names_resolve_once():
    names = graphbell.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(graphbell, name) for name in names)
    assert {"PauliString", "generator", "apply_permutation"}.isdisjoint(names)
