"""Export and import hygiene of the ``genonet`` modules.

No linter runs on this project, so these checks stand in for three of its
rules: every name a module exports in ``__all__`` exists, a module with
``__all__`` lists each public function and class it defines, and every
module-level import is used by the module that makes it.  Two more keep
Python loop kernels out of the graph code: no heap-driven search, and no
per-node successor lists or other name-keyed helper that moved to the
oracles.  One keeps the graph kernels answering in arrays, one keeps the
turning of names into ids in ``ingest.intern``, and the last keeps
float32 inside latmin's Greedy screen.
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "genonet"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def _tree(name):
    return ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))


def _defines_all(tree):
    return any(
        isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for node in tree.body
    )


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"genonet.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"genonet.{name}.__all__ names undefined {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_module_level_imports_are_used(name):
    tree = _tree(name)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(f"{b} (line {line})" for b, line in imported.items() if b not in used)
    assert not unused, f"genonet.{name} imports but never uses {unused}"


@pytest.mark.parametrize("name", [n for n in MODULES if _defines_all(_tree(n))])
def test_public_definitions_are_exported(name):
    exported = importlib.import_module(f"genonet.{name}").__all__
    unlisted = [
        node.name for node in _tree(name).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in exported
    ]
    assert not unlisted, f"genonet.{name} defines but does not export {unlisted}"


# syngen's cascade simulator pops pending adoptions in time order from a
# heap: an event clock whose random draws follow that order, not a search
HEAPQ_USERS = {"syngen"}


def test_no_module_imports_heapq():
    users = {
        name for name in MODULES for node in ast.walk(_tree(name))
        if isinstance(node, ast.Import) and any(a.name == "heapq" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "heapq"
    }
    assert users == HEAPQ_USERS, f"heapq imported by {sorted(users - HEAPQ_USERS)}"


# Name-keyed helpers that moved to the oracles: per-node successor lists,
# the topic map's lookups by name and the graph with latencies by name
NAME_KEYED = {"adjacency", "topic_of", "hashtags_for", "by_topic", "LatencyGraph"}


def test_no_adjacency_lists():
    """No module defines or uses ``adjacency`` or another of ``NAME_KEYED``:
    every module works on the CSR arrays and the topic id column, and the
    per-node successor lists and name lookups live in the oracles."""
    sites = [
        f"{name}.py:{node.lineno}" for name in MODULES for node in ast.walk(_tree(name))
        if isinstance(node, ast.Attribute) and node.attr in NAME_KEYED
        or isinstance(node, ast.Name) and node.id in NAME_KEYED
        or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name in NAME_KEYED
    ]
    assert not sites, f"name-keyed helpers defined or used at {sites}"


def test_graph_kernels_build_no_dicts_or_frozensets():
    """``graph.py`` builds no ``dict``, ``frozenset`` or dict comprehension:
    its kernels take and return arrays in node order."""
    sites = [
        f"graph.py:{node.lineno}" for node in ast.walk(_tree("graph"))
        if isinstance(node, ast.DictComp)
        or isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("dict", "frozenset")
    ]
    assert not sites, f"dict or frozenset built at {sites}"


# A dict from each label to its position is an id map.  ingest.intern
# builds the one that gives names their ids, in sorted-name order; topic
# ids, in first-appearance order, are derived from its ids.
ID_MAP_OWNERS = {"ingest.intern"}


def _is_id_map(node):
    """``{x: i for i, x in enumerate(...)}``, whatever the names."""
    if not (isinstance(node, ast.DictComp) and len(node.generators) == 1):
        return False
    gen = node.generators[0]
    return (
        isinstance(gen.iter, ast.Call) and getattr(gen.iter.func, "id", None) == "enumerate"
        and isinstance(gen.target, ast.Tuple) and len(gen.target.elts) == 2
        and [getattr(e, "id", None) for e in gen.target.elts]
        == [getattr(node.value, "id", 0), getattr(node.key, "id", 0)]
    )


def _scopes(node, scope, match):
    """The qualified name of the function or class around each node that
    ``match`` accepts."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        if match(child):
            yield f"{inner}:{child.lineno}"
        yield from _scopes(child, inner, match)


def test_id_maps_only_in_intern():
    """Names become ids in ``ingest.intern`` alone, so "id = position in
    sorted-name order" holds for every id space."""
    found = [site for name in MODULES for site in _scopes(_tree(name), name, _is_id_map)]
    scopes = {site.split(":")[0] for site in found}
    assert "ingest.intern" in scopes  # the walk sees the pattern
    stray = [site for site in found if site.split(":")[0] not in ID_MAP_OWNERS]
    assert not stray, f"id maps outside ingest.intern at {stray}"


# latmin's Greedy screen is the one narrow-float computation: it only
# ranks candidates, and every exact score and output stays float64
NARROW_FLOATS = {"float32", "float16", "single", "half", "f4", "f2"}
NARROW_FLOAT_OWNERS = {"latmin.minimize", "latmin._screen_total"}


def _is_narrow_float(node):
    """``np.float32`` and kin, a bare ``float32`` or a dtype string."""
    return (
        isinstance(node, ast.Attribute) and node.attr in NARROW_FLOATS
        or isinstance(node, ast.Name) and node.id in ("float32", "float16")
        or isinstance(node, ast.Constant) and node.value in NARROW_FLOATS
    )


def test_float32_only_in_the_greedy_screen():
    """No module computes in a float narrower than float64 outside
    latmin's Greedy screen."""
    found = [site for name in MODULES for site in _scopes(_tree(name), name, _is_narrow_float)]
    scopes = {site.split(":")[0] for site in found}
    assert "latmin._screen_total" in scopes  # the walk sees the pattern
    stray = [site for site in found if site.split(":")[0] not in NARROW_FLOAT_OWNERS]
    assert not stray, f"narrow floats outside latmin's screen at {stray}"
