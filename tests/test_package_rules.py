"""Source rules for the package: invariants (the oracles' too) survive ``python -O``, the oracles
stay independent (in both directions), modules import one another only downward, each public name
is declared once, in its module's ``__all__``, every import is used, and the sources parse on the
oldest Python that ``pyproject.toml`` admits."""

import ast
import importlib
import re
import sys
from pathlib import Path

import surfops

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "surfops").glob("*.py"))
INDEPENDENT = {"oracles", "perfbench"}  # the references the package is checked against
ORACLES = [ROOT / "tests" / "oracles.py", ROOT / "perfbench" / "oracle.py"]  # stdlib only, and no asserts
FRONT_ENDS = {"__init__", "__main__", "cli"}  # every other module declares its API in __all__
# The import order: a module imports only from lower layers, never from its own layer or above.
LAYERS = [{"lexer"}, {"words"}, {"surface"}, {"diagram"}, {"canonical", "rewrite", "census"}, {"laws"}, {"cli"}]

# The package API, pinned: a name added or dropped here is a listed behaviour change.
EXPORTS = sorted([
    "AgreementReport", "BoundaryMove", "CanonicalExpression", "ChordDiagram", "CyclicWord", "HandleMove",
    "LawReport", "Move", "ParseError", "Renaming", "RotateMove", "Surface", "SurfaceTarget", "Target",
    "TerminalElement", "TerminalTarget", "__version__", "all_canonical_diagrams", "apply_move",
    "apply_moves", "canonical_diagram", "check_axioms", "check_axioms_random", "check_cyclic_morphism",
    "check_modular_morphism", "check_universal_property", "check_well_definedness", "compose",
    "cycle_decompositions", "distribution_rows", "enumerate_cyclic_words", "enumerate_matchings",
    "enumerate_surfaces", "equivalent", "evaluate", "evaluate_expression", "find_certificate",
    "genus_distribution", "glue", "induce", "is_glue", "neighbors",
    "random_diagram", "random_surface", "render_dot", "self_glue", "splice",
    "terminal_inclusion", "to_surface",
])


def _trees():
    assert len(SOURCES) > 5, "package sources not found"
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"), str(path))) for path in SOURCES]


def test_no_assert_statements():
    oracles = [(path.name, ast.parse(path.read_text(encoding="utf-8"), str(path))) for path in ORACLES]
    found = [f"{name}:{node.lineno}" for name, tree in _trees() + oracles for node in ast.walk(tree)
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


def _top_modules(node: ast.AST) -> list[str]:
    """The top-level modules an import statement reads from; a relative import reads from ``""``."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return ["" if node.level else (node.module or "").split(".")[0]]
    return []


def test_the_oracles_import_only_the_standard_library():
    for path in ORACLES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found = [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                 if any(module not in sys.stdlib_module_names for module in _top_modules(node))]
        assert found == [], f"an oracle imports beyond the standard library, so it may reach surfops: {found}"


def _package_imports(tree: ast.AST) -> set[str]:
    """The package modules that a module imports; the package reaches itself only by relative imports."""
    found = set()
    for node in ast.walk(tree):
        assert "surfops" not in _top_modules(node), f"an absolute import of the package at line {node.lineno}"
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module.split(".")[0]} if node.module else {alias.name for alias in node.names}
    return found


def test_package_modules_import_only_downward():
    layer = {name: i for i, names in enumerate(LAYERS) for name in names}
    modules = {name.removesuffix(".py"): tree for name, tree in _trees()}
    assert set(modules) - {"__init__", "__main__"} == set(layer), "every module has a layer"
    upward = [f"{module} imports {other}" for module, tree in modules.items() if module in layer
              for other in sorted(_package_imports(tree)) if layer[other] >= layer[module]]
    assert upward == [], f"imports that do not go down the layers: {upward}"


def _api_modules():
    return [importlib.import_module(f"surfops.{path.stem}") for path in SOURCES if path.stem not in FRONT_ENDS]


def test_export_set_is_pinned():
    assert len(EXPORTS) == 49
    assert sorted(surfops.__all__) == EXPORTS
    namespace: dict = {}
    exec("from surfops import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == EXPORTS


def test_each_module_declares_its_public_names():
    for module in _api_modules():
        assert "__all__" in vars(module), f"{module.__name__} has no __all__"
        for name in module.__all__:
            assert not name.startswith("_"), f"{module.__name__} exports the private {name}"
            assert hasattr(module, name), f"{module.__name__}.__all__ names the missing {name}"


def test_only_the_package_star_imports():
    found = [f"{name}:{node.lineno}" for name, tree in _trees() if name != "__init__.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and any(alias.name == "*" for alias in node.names)]
    assert found == [], f"star imports outside __init__.py: {found}"


def test_package_all_joins_the_module_lists():
    joined = [name for module in _api_modules() for name in module.__all__] + ["__version__"]
    assert len(set(joined)) == len(joined), "a name is declared in two modules"
    assert sorted(surfops.__all__) == sorted(joined)
    # and __init__.py writes no name by hand beyond __version__
    tree = dict(_trees())["__init__.py"]
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)]
    assert [ast.literal_eval(elt) for elt in value.elts if not isinstance(elt, ast.Starred)] == ["__version__"]


def _bound_names(node: ast.AST) -> list[str]:
    """The names an import statement binds; ``__future__`` and star imports bind none to check."""
    if isinstance(node, ast.Import):
        return [alias.asname or alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    return []


def test_every_import_is_used():
    found = []
    for name, tree in _trees():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = [node.value for node in tree.body if isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)]
        used |= {elt.value for value in exported for elt in value.elts if isinstance(elt, ast.Constant)}
        found += [f"{name}:{node.lineno} {bound}" for node in ast.walk(tree)
                  for bound in _bound_names(node) if bound not in used]
    assert found == [], f"imports that nothing in the module reads: {found}"


def test_sources_parse_on_the_declared_python_floor():
    # a regex, not tomllib, so that the rule itself runs on the floor version
    floor = re.search(r'^requires-python = ">=3\.(\d+)"$', (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.M)
    assert floor, "pyproject.toml declares no plain requires-python floor"
    assert len(SOURCES) > 5, "package sources not found"
    for path in [*SOURCES, ROOT / "tests" / "oracles.py"]:
        # a SyntaxError names the file and the construct the floor version lacks
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, int(floor.group(1))))
