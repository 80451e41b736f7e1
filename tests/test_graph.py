import math

import numpy as np
import pytest

from genonet import graph as graph_module
from genonet.errors import DataError
from genonet.graph import (
    DirectedGraph,
    betweenness_centrality,
    jaccard_keys,
    kendall_tau,
    pagerank,
    strongly_connected_components,
    weakly_connected_components,
)

import datasets
import oracles


def g(edges, nodes=()):
    return datasets.from_edges(edges, nodes=nodes)


def scc(graph):
    return oracles.partition(graph, strongly_connected_components(graph))


def wcc(graph):
    return oracles.partition(graph, weakly_connected_components(graph))


def pr(graph, **kwargs):
    return oracles.by_node(graph, pagerank(graph.indptr, graph.indices, **kwargs))


def bc_map(graph):
    return oracles.by_node(graph, betweenness_centrality(graph))


def test_scc_cycle():
    assert scc(g([("a", "b"), ("b", "c"), ("c", "a")])) == [frozenset("abc")]


def test_scc_chain():
    comps = scc(g([("a", "b"), ("b", "c")]))
    assert comps == [frozenset("a"), frozenset("b"), frozenset("c")]


def test_scc_toy_graph():
    comps = scc(g([("A", "B"), ("C", "B")]))
    assert sorted(sorted(c) for c in comps) == [["A"], ["B"], ["C"]]


def test_wcc_chain_and_disjoint():
    assert wcc(g([("a", "b"), ("b", "c")])) == [frozenset("abc")]
    comps = wcc(g([("a", "b"), ("c", "d")]))
    assert sorted(sorted(c) for c in comps) == [["a", "b"], ["c", "d"]]


def test_wcc_toy_graph():
    assert wcc(g([("A", "B"), ("C", "B")])) == [frozenset("ABC")]


def _scipy_components(names, edges, connection):
    """The partition of ``scipy.sparse.csgraph.connected_components``."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    n = len(names)
    src, dst = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    adj = csr_matrix((np.ones(len(src)), (src, dst)), shape=(n, n))
    _count, labels = connected_components(adj, directed=True, connection=connection)
    parts: dict = {}
    for name, label in zip(names, labels.tolist()):
        parts.setdefault(label, set()).add(name)
    return sorted((frozenset(p) for p in parts.values()), key=sorted)


def _large_digraphs():
    """Seeded random digraphs of up to 2,000 nodes, about a tenth of them
    isolated, around the giant-component threshold; a 2,000-node directed
    path and cycle.  Then the slow cases of label hooking, at 3,000 nodes:
    a path through randomly permuted ids, a path from high ids to low
    ones, an in-star and 1,500 disjoint pairs.  Names sort in another
    order than their ids."""
    rng = np.random.default_rng(17)
    for n, mean_degree in ((60, 1.0), (500, 0.7), (2000, 1.0), (2000, 1.6)):
        linked = n - n // 10
        m = int(mean_degree * linked)
        pairs = {(u, v) for u, v in rng.integers(0, linked, size=(m, 2)).tolist() if u != v}
        yield n, sorted(pairs)
    path = [(i, i + 1) for i in range(1999)]
    yield 2000, path
    yield 2000, path + [(1999, 0)]
    perm = rng.permutation(3000).tolist()
    yield 3000, sorted(zip(perm, perm[1:]))
    yield 3000, [(i + 1, i) for i in range(2999)]
    yield 3000, [(i, 1500) for i in range(3000) if i != 1500]
    yield 3000, sorted((i + 1, i) if i % 4 else (i, i + 1) for i in range(0, 3000, 2))


def test_components_equal_scipy_at_scale():
    """SCC and WCC partitions equal scipy's and the loop oracles', each
    label is its component's least node index, and each CSR row holds its
    node's successors in sorted-name order."""
    for n, edges in _large_digraphs():
        names = [f"v{i}" for i in range(n)]
        graph = g([(names[u], names[v]) for u, v in edges], nodes=names)
        assert graph.nodes == tuple(sorted(names))
        pos = {name: i for i, name in enumerate(graph.nodes)}
        rows = [[] for _ in names]
        for u, v in edges:
            rows[pos[names[u]]].append(pos[names[v]])
        assert oracles.adjacency(graph) == [sorted(row) for row in rows]
        for kernel, loop, connection in (
            (strongly_connected_components, oracles.scc_tarjan_loop, "strong"),
            (weakly_connected_components, oracles.wcc_search_loop, "weak"),
        ):
            label = kernel(graph)
            assert oracles.labels_least_members(label), (n, connection)
            assert oracles.partition(graph, label) == loop(graph)
            assert oracles.partition(graph, label) == _scipy_components(names, edges, connection)


def test_scc_refines_wcc_random():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        edges = oracles.random_digraph_edges(rng, n, 0.3)
        graph = g(edges, nodes=range(n))
        wccs = wcc(graph)
        for comp in scc(graph):
            assert any(comp <= w for w in wccs)


def test_pagerank_two_cycle():
    scores = pr(g([("a", "b"), ("b", "a")]))
    assert scores["a"] == pytest.approx(0.5, abs=1e-12)
    assert scores["b"] == pytest.approx(0.5, abs=1e-12)


def test_pagerank_complete_graph():
    nodes = list("abcd")
    edges = [(x, y) for x in nodes for y in nodes if x != y]
    scores = pr(g(edges))
    for v in scores.values():
        assert v == pytest.approx(0.25, abs=1e-12)


def test_pagerank_star_against_dense_oracle():
    edges = [(0, 1), (0, 2), (0, 3)]
    scores = pr(g(edges))
    expected = oracles.pagerank_dense(4, edges)
    for i in range(4):
        assert scores[i] == pytest.approx(expected[i], abs=1e-8)


def test_pagerank_sums_to_one_random():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        edges = oracles.random_digraph_edges(rng, n, 0.3)
        scores = pr(g(edges, nodes=range(n)))
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(v >= 0 for v in scores.values())


def test_pagerank_empty_graph():
    with pytest.raises(DataError):
        pr(g([]))


def test_pagerank_bad_params():
    graph = g([("a", "b")])
    with pytest.raises(DataError):
        pr(graph, damping=1.0)
    with pytest.raises(DataError):
        pr(graph, tol=0.0)


def test_pagerank_equals_loop_oracle():
    """The array power iteration equals the node-by-node loop bit for bit,
    whether it stops at ``tol`` or at ``max_iter``."""
    rng = np.random.default_rng(404)
    graphs = [g([], nodes=[0]), g([], nodes="abc"), g([("b", "a"), ("c", "a"), ("a", "d")])]
    for _ in range(60):
        n = int(rng.integers(2, 40))
        edges = oracles.random_digraph_edges(rng, n, float(rng.uniform(0.01, 0.4)))
        graphs.append(g(edges, nodes=range(n)))  # low densities leave dangling nodes
    graphs.append(g(oracles.random_digraph_edges(rng, 300, 0.02), nodes=range(300)))
    assert any(any(not row for row in oracles.adjacency(x)) for x in graphs[3:])
    settings = ({}, {"tol": 1e-3}, {"max_iter": 3}, {"damping": 0.5, "tol": 1e-15, "max_iter": 400})
    for graph in graphs:
        for kwargs in settings:
            assert pr(graph, **kwargs) == oracles.pagerank_loop(graph, **kwargs)


def test_betweenness_path():
    bc = bc_map(g([("a", "b"), ("b", "c")]))
    assert bc == {"a": 0.0, "b": 1.0, "c": 0.0}


def test_betweenness_single_path_counts_pairs():
    # on a chain, BC(node i) = (sources before) x (sinks after)
    chain = g([(i, i + 1) for i in range(4)])
    bc = bc_map(chain)
    assert bc == {0: 0.0, 1: 3.0, 2: 4.0, 3: 3.0, 4: 0.0}


def test_betweenness_cycle_symmetric():
    bc = bc_map(g([("a", "b"), ("b", "c"), ("c", "a")]))
    assert len(set(bc.values())) == 1


def test_betweenness_matches_enumeration_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        edges = oracles.random_digraph_edges(rng, n, 0.35)
        bc = bc_map(g(edges, nodes=range(n)))
        expected = oracles.betweenness_by_path_enumeration(n, edges)
        for i in range(n):
            assert bc[i] == pytest.approx(expected[i], abs=1e-9)


def test_betweenness_equals_brandes_loop_oracle():
    """The level-synchronous blocks make every float add of the per-source
    queue loop in its order: ``==`` on the int64 views, on tie-heavy
    graphs and on path counts above 2^53."""
    for label, graph in datasets.kernel_graphs():
        got = bc_map(graph)
        want = oracles.betweenness_brandes_loop(graph)
        assert list(got) == list(want)
        assert np.array(list(got.values())).view(np.int64).tolist() == \
            np.array(list(want.values())).view(np.int64).tolist(), label


def test_kendall_identical_and_reversed():
    a = [float(i) for i in range(5)]
    assert kendall_tau(a, a) == pytest.approx(1.0)
    b = [float(-i) for i in range(5)]
    assert kendall_tau(a, b) == pytest.approx(-1.0)


def test_kendall_hand_example():
    a = [1.0, 2.0, 3.0, 4.0]
    b = [1.0, 3.0, 2.0, 4.0]
    assert kendall_tau(a, b) == pytest.approx(4.0 / 6.0)


def test_kendall_symmetry_and_ties_vs_oracle():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(2, 12))
        xs = [float(x) for x in rng.integers(0, 4, n)]  # heavy ties
        ys = [float(y) for y in rng.integers(0, 4, n)]
        expected = oracles.kendall_tau_pairs(xs, ys)
        got = kendall_tau(xs, ys)
        if math.isnan(expected):
            assert math.isnan(got)
        else:
            assert got == pytest.approx(expected, abs=1e-12)
            assert kendall_tau(ys, xs) == pytest.approx(got, abs=1e-12)


def _tau_cases(rng):
    for _ in range(200):
        n = int(rng.integers(2, 60))
        yield rng.integers(0, 4, n), rng.integers(0, 3, n)  # heavy ties
        yield rng.integers(0, 5, n), rng.random(n)  # ties on one side
        yield rng.random(n), rng.random(n)  # no ties
    yield np.full(9, 2.0), rng.random(9)  # all tied: NaN
    yield rng.random(9), np.zeros(9)
    yield [1.0, math.nan, 3.0], [1.0, 2.0, 3.0]  # NaN input: NaN
    yield [1.0, 2.0], [2.0, 1.0]
    yield [1.0, 2.0], [1.0, 2.0]
    yield rng.integers(0, 50, 6000), rng.integers(0, 2000, 6000)
    yield rng.random(5000), rng.random(5000)
    yield rng.integers(0, 3000, 50000), rng.random(50000)  # 16 rank bits


def test_kendall_equals_scipy_exactly():
    """Bit-identical to scipy's tau-b, so backbone reports keep every byte."""
    scipy_stats = pytest.importorskip("scipy.stats")
    for xs, ys in _tau_cases(np.random.default_rng(11)):
        xs = [float(x) for x in xs]
        ys = [float(y) for y in ys]
        got = kendall_tau(xs, ys)
        want = float(scipy_stats.kendalltau(xs, ys, variant="b").statistic)
        assert got == want or (math.isnan(got) and math.isnan(want)), (len(xs), got, want)


def test_inversions_equal_pair_count():
    """The bit-partition inversion count equals the pair-by-pair count on
    the ranks of every Kendall case, 50,000 entries of 16 rank bits among
    them, and on sorted, reversed and constant ranks."""
    cases = [np.arange(7), np.arange(7)[::-1], np.zeros(5, np.int64), np.array([1, 0])]
    for xs, ys in _tau_cases(np.random.default_rng(11)):
        cases += [np.unique(np.asarray(v, float), return_inverse=True)[1] for v in (xs, ys)]
    assert max(len(r) for r in cases) == 50000
    for ranks in cases:
        assert graph_module._inversions(ranks) == oracles.inversion_pairs(ranks), len(ranks)


def test_kendall_too_small():
    with pytest.raises(DataError):
        kendall_tau([1.0], [1.0])
    with pytest.raises(DataError):
        kendall_tau([1.0, 2.0], [1.0, 2.0, 3.0])


def test_jaccard():
    def keys(*k):
        return np.array(k, np.int64)

    assert jaccard_keys(keys(1), keys(1)) == 1.0
    assert jaccard_keys(keys(1), keys(5)) == 0.0
    assert jaccard_keys(keys(1, 5, 7), keys(5, 7, 9)) == 0.5
    assert jaccard_keys(keys(), keys(3)) == 0.0
    with pytest.raises(DataError):
        jaccard_keys(keys(), keys())


def test_jaccard_keys_equal_set_oracle():
    rng = np.random.default_rng(41)
    for _ in range(200):
        a, b = (np.unique(rng.integers(0, 30, int(rng.integers(0, 12)))) for _ in "ab")
        if len(a) or len(b):
            assert jaccard_keys(a, b) == oracles.jaccard_edge_sets(a.tolist(), b.tolist())


def test_from_keys_equals_from_edges():
    """The CSR rows built from sorted keys over sorted labels, cut to a
    mask of kept ids, equal the rows ``datasets.from_edges`` builds from
    the labelled pairs with both ends kept, isolated kept nodes included."""
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(1, 15))
        labels = [f"v{i:02d}" for i in range(n)]
        keep = rng.random(n) < 0.7
        edges = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.3]
        got = DirectedGraph.from_keys(
            np.array([u * n + v for u, v in edges], np.int64), keep, labels)
        want = datasets.from_edges(
            [(labels[u], labels[v]) for u, v in edges if keep[u] and keep[v]],
            nodes=[labels[u] for u in np.flatnonzero(keep)])
        assert got.keys.tolist() == want.keys.tolist()
        assert got.nodes == want.nodes
        assert got.indptr.tolist() == want.indptr.tolist()
        assert got.indices.tolist() == want.indices.tolist()

