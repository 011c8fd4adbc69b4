"""Source rules for the package: invariants survive ``python -O``, and the oracles stay independent."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "surfops").glob("*.py"))
INDEPENDENT = {"oracles", "perfbench"}  # the references the package is checked against


def _trees():
    assert len(SOURCES) > 5, "package sources not found"
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"), str(path))) for path in SOURCES]


def test_no_assert_statements():
    found = [f"{name}:{node.lineno}" for name, tree in _trees() for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert found == [], f"assert statements vanish under python -O: {found}"


def _imported(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [node.module or ""] + [alias.name for alias in node.names]
    return []


def test_no_imports_of_the_oracles():
    found = [f"{name}:{node.lineno}" for name, tree in _trees() for node in ast.walk(tree)
             if INDEPENDENT & {part for dotted in _imported(node) for part in dotted.split(".")}]
    assert found == [], f"the package imports an oracle: {found}"
