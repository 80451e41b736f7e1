"""Export and import hygiene of the ``genonet`` modules.

No linter runs on this project, so these checks stand in for three of its
rules: every name a module exports in ``__all__`` exists, a module with
``__all__`` lists each public function and class it defines, and every
module-level import is used by the module that makes it.  Two more keep
Python loop kernels out of the graph code: no heap-driven search, and no
per-node successor lists or other name-keyed helper that moved to the
oracles.  One keeps the graph kernels answering in arrays, one keeps the
turning of names into ids in ``ingest.intern``, one keeps the lookup of
each hashtag's topic in ``ingest.build_adoption_index``, and one keeps
float32 inside latmin's Greedy screen.  The last three keep the float-identity
decisions in one place each: left-to-right sums in
``ingest.ordered_sum``, the starts of sorted runs in
``ingest.run_starts``, and no numpy transcendental or BLAS product
outside an allowlist that names each exception's reason.  One keeps
the making of ``--out`` and the writing of files in the CLI's one output
writer, so a command computes every output before it writes any.  One
keeps the cyclic collector's state in the CLI's process entry, and the
last keeps settings out of the environment: the CLI's OpenBLAS thread
default is the one read of it.
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


def _sites(match):
    """Every site in ``src/`` that ``match`` accepts, as ``scope:line``."""
    return [site for name in MODULES for site in _scopes(_tree(name), name, match)]


def test_id_maps_only_in_intern():
    """Names become ids in ``ingest.intern`` alone, so "id = position in
    sorted-name order" holds for every id space."""
    found = _sites(_is_id_map)
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
    found = _sites(_is_narrow_float)
    scopes = {site.split(":")[0] for site in found}
    assert "latmin._screen_total" in scopes  # the walk sees the pattern
    stray = [site for site in found if site.split(":")[0] not in NARROW_FLOAT_OWNERS]
    assert not stray, f"narrow floats outside latmin's screen at {stray}"


def _dotted(node):
    """``np.add.accumulate`` for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def _owners(sites, allowed):
    """The allowed scopes that hold a site, and the sites outside them; a
    scope covers the functions nested in it."""
    seen, stray = set(), []
    for site in sites:
        scope = site.split(":")[0]
        owner = next((a for a in allowed if scope == a or scope.startswith(a + ".")), None)
        if owner:
            seen.add(owner)
        else:
            stray.append(site)
    return seen, stray


def test_topic_lookup_only_in_the_index():
    """Each hashtag's topic is looked up once, by ``TopicMap.topic_ids`` in
    ``ingest.build_adoption_index``; every analysis reads the index's
    ``hashtag_topic`` column."""
    calls = _sites(lambda n: isinstance(n, ast.Call) and getattr(n.func, "attr", None)
                   == "topic_ids")
    seen, stray = _owners(calls, {"ingest.build_adoption_index"})
    assert seen == {"ingest.build_adoption_index"}  # the walk sees the pattern
    assert not stray, f"topic_ids called outside ingest.build_adoption_index at {stray}"


def test_left_to_right_sums_only_in_ordered_sum():
    """``np.add.accumulate``, the left-to-right float sum, is written once,
    in ``ingest.ordered_sum``; every other sum that must match a Python
    loop calls it."""
    seen, stray = _owners(_sites(lambda n: _dotted(n) == "np.add.accumulate"),
                          {"ingest.ordered_sum"})
    assert seen == {"ingest.ordered_sum"}  # the walk sees the pattern
    assert not stray, f"np.add.accumulate outside ingest.ordered_sum at {stray}"


def _is_neighbour_comparison(node):
    """``x[1:] != x[:-1]`` (or ``==``), either way round, with the slices
    anywhere inside each side, as in ``c[order[1:]] != c[order[:-1]]``."""
    if not (isinstance(node, ast.Compare) and len(node.ops) == 1
            and isinstance(node.ops[0], (ast.Eq, ast.NotEq))):
        return False
    left, right = (
        {ast.unparse(s) for s in ast.walk(side) if isinstance(s, ast.Slice)}
        for side in (node.left, node.comparators[0])
    )
    return "1:" in left and ":-1" in right or ":-1" in left and "1:" in right


def test_run_starts_only_in_ingest():
    """Where a run of equal sorted rows starts is worked out once, in
    ``ingest.run_starts``."""
    seen, stray = _owners(_sites(_is_neighbour_comparison), {"ingest.run_starts"})
    assert seen == {"ingest.run_starts"}  # the walk sees the pattern
    assert not stray, f"neighbour comparisons outside ingest.run_starts at {stray}"


# numpy's transcendentals and BLAS products round as the host's SIMD loop
# or BLAS kernel does, so an output computed with them can move between
# hosts; floats go through ``ingest.libm`` and ``ingest.ordered_sum``
# instead.  Each exception names why it is allowed.
HOST_ROUNDED = {"np.exp", "np.log", "np.power", "np.sqrt", "np.dot", "np.matmul"}
HOST_ROUNDED_OWNERS = {
    "graph.kendall_tau": "np.sqrt is correctly rounded on every host",
    "predict.PredictionContext.__init__": "its @ multiplies integers",
    "classify.fit_logistic": "host-dependent: the open fault of ROADMAP.md's "
                             "host-independent outputs item, which deletes this entry",
}


def _is_host_rounded(node):
    return (_dotted(node) in HOST_ROUNDED
            or isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult))


def test_no_host_rounded_numpy_floats():
    """No module calls numpy's exp, log, power, sqrt, dot or matmul, or
    uses ``@``, outside the allowlist, and every allowlist entry is used."""
    seen, stray = _owners(_sites(_is_host_rounded), HOST_ROUNDED_OWNERS)
    assert seen == set(HOST_ROUNDED_OWNERS)  # the walk sees each allowed site
    assert not stray, f"host-rounded numpy calls at {stray}"


def _opens_for_writing(node):
    """``open(path, "w")``, ``path.open("a")`` and kin (a mode with w, a, x
    or +, by position or keyword), or ``path.write_text``/``write_bytes``."""
    if not isinstance(node, ast.Call):
        return False
    name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
    if name in ("write_text", "write_bytes"):
        return True
    position = 1 if isinstance(node.func, ast.Name) else 0  # open(path, mode), path.open(mode)
    modes = node.args[position:position + 1] + [k.value for k in node.keywords if k.arg == "mode"]
    return name == "open" and any(
        isinstance(m, ast.Constant) and set(str(m.value)) & set("wax+") for m in modes
    )


def test_only_the_output_writer_makes_out():
    """``cli._outdir`` makes ``--out``; only ``cli._write_outputs`` calls
    it, and ``cli.cmd_syngen`` before it writes its generated dataset
    files.  No ``cli`` function but ``_outdir`` (its write probe) and
    ``_write_outputs`` opens a file for writing."""
    cli = _tree("cli")
    calls = _scopes(cli, "cli", lambda n: isinstance(n, ast.Call)
                    and getattr(n.func, "id", None) == "_outdir")
    makers = {"cli._write_outputs", "cli.cmd_syngen"}
    seen, stray = _owners(calls, makers)
    assert seen == makers  # the walk sees both callers
    assert not stray, f"_outdir called outside {sorted(makers)} at {stray}"
    writers = {"cli._outdir", "cli._write_outputs"}
    seen, stray = _owners(_scopes(cli, "cli", _opens_for_writing), writers)
    assert seen == writers  # the walk sees both writers
    assert not stray, f"files opened for writing outside {sorted(writers)} at {stray}"


# A command is a short process whose objects live until it exits, so its
# process entry runs without the cyclic collector and freezes every
# object before exit.  Library callers, tests and traced runs that call
# ``cli.main`` keep the collector as they set it.
GC_SITES = {("cli.entry", "disable"), ("cli.entry", "freeze")}
GC_STATE = {"disable", "enable", "freeze", "unfreeze", "collect", "set_threshold", "set_debug"}


def _gc_calls(node, scope):
    """(scope, function) of every ``gc.<function>(...)`` call."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        if isinstance(child, ast.Call) and (_dotted(child.func) or "").startswith("gc."):
            yield inner, child.func.attr
        yield from _gc_calls(child, inner)


def test_gc_state_changes_only_in_the_cli_process_entry():
    """Only ``cli.entry`` switches the collector off and freezes objects;
    no module changes the collector's state anywhere else, nor binds
    ``gc`` under another name."""
    found = {call for name in MODULES for call in _gc_calls(_tree(name), name)}
    assert GC_SITES <= found  # the walk sees each allowed site
    stray = sorted(call for call in found if call[1] in GC_STATE and call not in GC_SITES)
    assert not stray, f"collector state changed at {stray}"
    aliased = [
        f"{name}.py:{node.lineno}" for name in MODULES for node in ast.walk(_tree(name))
        if isinstance(node, ast.ImportFrom) and node.module == "gc"
        or isinstance(node, ast.Import) and any(a.name == "gc" and a.asname for a in node.names)
    ]
    assert not aliased, f"gc imported under another name at {aliased}"


# A setting is a command-line flag, never an environment variable, so a
# run is named by its command line.  The one read of the environment is
# cli's default of one OpenBLAS thread, which a caller's value overrides.
ENVIRONMENT = {"os.environ", "os.environb", "os.getenv", "os.getenvb"}
OPENBLAS_DEFAULT = "os.environ.setdefault('OPENBLAS_NUM_THREADS', '1')"  # as ast.unparse writes it


def test_environment_read_only_for_the_openblas_default():
    """No module reads ``os.environ`` or ``os.getenv``, nor imports them
    from ``os``, but ``cli``'s module-level OpenBLAS thread default."""
    allowed, stray = [], []
    for name in MODULES:
        tree = _tree(name)
        for node in tree.body:
            if (name == "cli" and isinstance(node, ast.Expr)
                    and ast.unparse(node.value) == OPENBLAS_DEFAULT):
                allowed.append(node.value.func.value)
        stray += [
            (node, f"{name}.py:{node.lineno}") for node in ast.walk(tree)
            if _dotted(node) in ENVIRONMENT
            or isinstance(node, ast.ImportFrom) and node.module == "os"
            and any(f"os.{a.name}" in ENVIRONMENT for a in node.names)
        ]
    assert len(allowed) == 1  # the walk sees the allowed site
    stray = [site for node, site in stray if node is not allowed[0]]
    assert not stray, f"environment read at {stray}"
