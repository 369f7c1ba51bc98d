"""The traced benchmark run (perfbench/tracing.py) wraps efalg's module-level
names by getattr/setattr; every name it plans to wrap must exist, the plan
must not lose a name, and uninstalling must put the originals back."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = Path(__file__).resolve().parent.parent / "src" / "efalg"

# The tracer plans a name only while the module imports it, so a refactor that
# drops an import silently empties that name's span. Pin the plan instead.
PLANNED = {
    "efalg.catalog": {"canonical_algebra", "canonical_form", "verify_effect_algebra"},
    "efalg.core": {"verify_effect_algebra", "verify_generalized"},
    "efalg.fileformat": {"serialize"},
    "efalg.iso": {"canonical_algebra", "element_order", "sharp_elements"},
    "efalg.properties": {
        "blocks",
        "central_elements",
        "element_order",
        "extract_triple",
        "find_isomorphism",
        "has_rdp",
        "hypermeager_elements",
        "is_archimedean",
        "is_homogeneous",
        "is_lattice",
        "lattice_counterexample",
        "meager_elements",
        "principal_elements",
        "reconstruct_tea",
        "sharp_bounds",
        "sharp_elements",
        "verify_roundtrip",
    },
    "efalg.structure": {
        "blocks",
        "central_elements",
        "element_order",
        "has_rdp",
        "homogeneity_counterexample",
        "hypermeager_elements",
        "is_archimedean",
        "is_homogeneous",
        "is_lattice",
        "is_sharply_dominating",
        "lattice_counterexample",
        "meager_elements",
        "principal_elements",
        "rdp_counterexample",
        "sharp_bounds",
        "sharp_elements",
    },
    "efalg.triple": {
        "extract_triple",
        "homogeneity_counterexample",
        "reconstruct_tea",
        "sharp_bounds",
        "sharp_elements",
    },
}


def test_wrap_plan_is_pinned(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assert {module: set(names) for module, names in tracing.wrap_plan().items()} == PLANNED


def test_tracer_wraps_and_restores_every_planned_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    planned = [
        (importlib.import_module(module), name)
        for module, names in tracing.wrap_plan().items()
        for name in names
    ]
    missing = [f"{m.__name__}.{name}" for m, name in planned if not hasattr(m, name)]
    assert not missing

    originals = [getattr(m, name) for m, name in planned]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (m, name), original in zip(planned, originals):
            assert getattr(m, name).__wrapped__ is original
    finally:
        tracer.uninstall()
    assert [getattr(m, name) for m, name in planned] == originals


# Imported and never called: each module holds the name only so that the
# tracer, which wraps module-level names, can time the calls made through it.
TRACED_ONLY = {
    ("efalg.catalog", "verify_effect_algebra"),
    ("efalg.properties", "find_isomorphism"),
}


def test_every_import_is_used_or_traced():
    """No module imports a name it never reads, except the names the tracer
    needs; __init__.py is left out, since it imports to re-export."""
    unused = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.add((f"efalg.{path.stem}", name))
    assert unused == TRACED_ONLY
    assert all(name in PLANNED[module] for module, name in TRACED_ONLY)


def test_every_private_helper_is_read():
    """Every module-level private function or class is read somewhere in
    src/, by name or as an attribute, so a replaced loop leaves no orphan
    helper behind."""
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    helpers = [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
    ]
    assert helpers
    assert [name for name in helpers if name not in read] == []
