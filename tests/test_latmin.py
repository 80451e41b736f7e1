import math
import tracemalloc

import numpy as np
import pytest

from genonet import backbone, latmin
from genonet.cli import main
from genonet.errors import DataError
from genonet.graph import (
    BLOCK_PAIR_BYTES,
    DirectedGraph,
    betweenness_centrality,
    strongly_connected_components,
    weakly_connected_components,
)
from genonet.genotype import node_topic_latency
from genonet.ingest import build_adoption_index, load_dataset
from genonet.latmin import (
    Heuristic,
    latency_component,
    minimize,
    prepare,
)

import datasets
import oracles
from datasets import LatencyCase


def lgraph(edges, latency, nodes=()):
    return LatencyCase(datasets.from_edges(edges, nodes=nodes), latency)


def solve(g, strict=True):
    """``prepare`` on a name-keyed latency case."""
    return prepare(g.graph, g.lat, strict)


def picks(g, trace):
    """A trace's picks by node label."""
    return tuple(g.graph.nodes[i] for i in trace.selected)


def random_latency_graph(rng, n, p, strongly_connected=False, zero_frac=0.0):
    edges = set(oracles.random_digraph_edges(rng, n, p))
    if strongly_connected:
        perm = list(rng.permutation(n))
        for i in range(n):
            a, b = perm[i], perm[(i + 1) % n]
            if a != b:
                edges.add((int(a), int(b)))
    latency = {
        i: (0.0 if rng.random() < zero_frac else float(rng.integers(0, 10)))
        for i in range(n)
    }
    return lgraph(sorted(edges), latency, nodes=range(n)), sorted(edges), latency


def zeroed_graph(g, nodes):
    """The same graph with the latency of ``nodes`` set to 0."""
    latency = {x: (0.0 if x in nodes else v) for x, v in g.latency.items()}
    return LatencyCase(g.graph, latency)


def check_apsp_against_floyd_warshall(g, edges, latency):
    """``solve(g, strict=False).d`` equals the oracle entry by entry
    (inf where unreachable, 0 on the diagonal); when the oracle reaches no
    pair, ``prepare`` refuses the graph."""
    nodes = list(g.graph.nodes)
    expected = oracles.floyd_warshall_latency(nodes, edges, latency)
    if all(v == math.inf for v in expected.values()):
        with pytest.raises(DataError, match="no reachable ordered pairs"):
            solve(g, strict=False)
        return False
    d = solve(g, strict=False).d
    for i, s in enumerate(nodes):
        assert d[i, i] == 0.0
        for j, t in enumerate(nodes):
            if i != j:
                assert d[i, j] == expected[(s, t)], (s, t)
    return True


def test_pair_latency_examples():
    g = lgraph(
        [("u1", "u2"), ("u2", "u3"), ("u1", "u3")],
        {"u1": 2.0, "u2": 3.0, "u3": 7.0},
    )
    inf = math.inf
    # rows and columns in node order u1, u2, u3; a path never pays its
    # destination's latency
    assert solve(g, strict=False).d.tolist() == [
        [0.0, 2.0, 2.0], [inf, 0.0, 3.0], [inf, inf, 0.0]
    ]
    assert solve(zeroed_graph(g, {"u2"}), strict=False).d.tolist() == [
        [0.0, 2.0, 2.0], [inf, 0.0, 0.0], [inf, inf, 0.0]
    ]
    assert check_apsp_against_floyd_warshall(
        g, [("u1", "u2"), ("u2", "u3"), ("u1", "u3")], g.latency
    )
    sink = lgraph([("a", "b")], {"a": 1.0, "b": 1.0})
    assert solve(sink, strict=False).d.tolist() == [[0.0, 1.0], [inf, 0.0]]


def test_pair_latency_matches_floyd_warshall():
    rng = np.random.default_rng(41)
    reached = 0
    for _ in range(60):
        n = int(rng.integers(2, 9))
        g, edges, latency = random_latency_graph(rng, n, 0.3, zero_frac=0.2)
        reached += check_apsp_against_floyd_warshall(g, edges, latency)
    assert 50 <= reached < 60  # the refused graphs are checked too


def test_average_latency_examples():
    two = lgraph([("a", "b"), ("b", "a")], {"a": 1.0, "b": 2.0})
    assert solve(two).base_avg == 1.5
    zeros = lgraph([("a", "b"), ("b", "a")], {"a": 0.0, "b": 0.0})
    assert solve(zeros).base_avg == 0.0
    # directed 4-cycle with unit latencies: distances 1,2,3 from each node
    cyc = lgraph([(0, 1), (1, 2), (2, 3), (3, 0)], {i: 1.0 for i in range(4)})
    oracle = oracles.average_latency_oracle(list(range(4)), [(0, 1), (1, 2), (2, 3), (3, 0)], {i: 1.0 for i in range(4)})
    assert oracle == 2.0
    assert solve(cyc).base_avg == oracle


def test_average_latency_strict_and_permissive():
    dag = lgraph([("a", "b"), ("b", "c")], {"a": 1.0, "b": 2.0, "c": 3.0})
    with pytest.raises(DataError):
        solve(dag, strict=True)
    # reachable pairs: (a,b)=1, (a,c)=3, (b,c)=2
    assert solve(dag, strict=False).base_avg == pytest.approx(2.0)
    assert solve(dag, strict=False).denom == 3
    # no ordered pair to average over: one node, or no edges at all
    for empty in (lgraph([], {"a": 1.0}, nodes=["a"]),
                  lgraph([], {"a": 1.0, "b": 2.0}, nodes=["a", "b"])):
        with pytest.raises(DataError, match="no reachable ordered pairs"):
            solve(empty, strict=False)
    with pytest.raises(DataError, match="no reachable ordered pairs"):
        solve(lgraph([], {"a": 1.0}, nodes=["a"]), strict=True)


def test_triangle_property():
    rng = np.random.default_rng(42)
    for _ in range(15):
        n = int(rng.integers(3, 8))
        g, edges, latency = random_latency_graph(rng, n, 0.4, strongly_connected=True)
        assert check_apsp_against_floyd_warshall(g, edges, latency)
        d = solve(g, strict=False).d
        for s in range(n):
            for t in range(n):
                if s == t:
                    continue
                for m in range(n):
                    if m in (s, t):
                        continue
                    assert d[s, t] <= d[s, m] + d[m, t] + 1e-9


def test_zeroing_never_increases_pair_latency():
    rng = np.random.default_rng(43)
    for _ in range(15):
        n = int(rng.integers(3, 8))
        g, edges, _l = random_latency_graph(rng, n, 0.4, strongly_connected=True)
        victim = int(rng.integers(n))
        zeroed = zeroed_graph(g, {victim})
        assert check_apsp_against_floyd_warshall(zeroed, edges, zeroed.latency)
        before = solve(g, strict=False).d
        after = solve(zeroed, strict=False).d
        for s in range(n):
            for t in range(n):
                if s != t:
                    assert after[s, t] <= before[s, t] + 1e-12


def test_minimize_star_center():
    edges = []
    for leaf in ("b", "c", "d"):
        edges += [("a", leaf), (leaf, "a")]
    latency = {"a": 10.0, "b": 1.0, "c": 1.0, "d": 1.0}
    for heuristic in Heuristic:
        g = lgraph(edges, latency)
        assert picks(g, minimize(solve(g), 1, heuristic)) == ("a",), heuristic


def test_minimize_tie_breaks_by_identifier():
    cyc = lgraph([(0, 1), (1, 2), (2, 0)], {i: 5.0 for i in range(3)})
    for heuristic in Heuristic:
        assert picks(cyc, minimize(solve(cyc), 1, heuristic)) == (0,)


def test_minimize_greedy_two_cycle():
    g = lgraph([("a", "b"), ("b", "a")], {"a": 1.0, "b": 2.0})
    trace = minimize(solve(g), 1, Heuristic.GREEDY)
    assert picks(g, trace) == ("b",)
    assert trace.relative == (pytest.approx(0.5 / 1.5),)


def test_minimize_errors():
    g = lgraph([("a", "b"), ("b", "a")], {"a": 1.0, "b": 2.0})
    with pytest.raises(DataError):
        minimize(solve(g), 0, Heuristic.GREEDY)
    with pytest.raises(DataError):
        minimize(solve(g), 3, Heuristic.GREEDY)
    zeros = lgraph([("a", "b"), ("b", "a")], {"a": 0.0, "b": 0.0})
    with pytest.raises(DataError):
        minimize(solve(zeros), 1, Heuristic.GREEDY)
    dag = lgraph([("a", "b")], {"a": 1.0, "b": 1.0})
    with pytest.raises(DataError):
        minimize(solve(dag, strict=True), 1, Heuristic.GREEDY)


def test_traces_non_increasing_and_full_zeroing():
    rng = np.random.default_rng(44)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        g, _e, _l = random_latency_graph(rng, n, 0.35, strongly_connected=True)
        if solve(g).base_avg == 0:
            continue
        for heuristic in Heuristic:
            trace = minimize(solve(g), n, heuristic)
            rel = (1.0,) + trace.relative
            for a, b in zip(rel, rel[1:]):
                assert b <= a + 1e-12
            assert trace.relative[-1] == pytest.approx(0.0, abs=1e-12)


def test_greedy_matches_naive_recomputation():
    """The incremental APSP update must equal re-solving from scratch."""
    rng = np.random.default_rng(45)
    for _ in range(10):
        n = int(rng.integers(3, 8))
        g, edges, latency = random_latency_graph(rng, n, 0.4, strongly_connected=True)
        base = solve(g).base_avg
        if base == 0:
            continue
        trace = minimize(solve(g), min(3, n), Heuristic.GREEDY)
        zeroed: list = []
        for step, node in enumerate(picks(g, trace)):
            # naive: try every remaining candidate by full recomputation
            remaining = [x for x in g.graph.nodes if x not in zeroed]
            best = min(
                (
                    solve(zeroed_graph(g, {*zeroed, c})).base_avg,
                    c,
                )
                for c in remaining
            )
            assert node == best[1]
            zeroed.append(node)
            naive_avg = solve(zeroed_graph(g, set(zeroed))).base_avg
            assert trace.relative[step] == pytest.approx(naive_avg / base, abs=1e-9)


def test_exact_examples():
    g = lgraph([("a", "b"), ("b", "a")], {"a": 1.0, "b": 2.0})
    assert oracles.exact_k_latmin(g, 1) == (frozenset({"b"}), pytest.approx(0.5))
    best, value = oracles.exact_k_latmin(g, 2)
    assert value == 0.0 and best == {"a", "b"}


def test_exact_budget_guard():
    n = 40
    edges = [(i, (i + 1) % n) for i in range(n)]
    g = lgraph(edges, {i: 1.0 for i in range(n)})
    with pytest.raises(DataError, match="budget"):
        oracles.exact_k_latmin(g, 8)


def test_exact_lower_bounds_heuristics():
    rng = np.random.default_rng(46)
    for _ in range(12):
        n = int(rng.integers(4, 9))
        g, _e, _l = random_latency_graph(rng, n, 0.35, strongly_connected=True)
        base = solve(g).base_avg
        if base == 0:
            continue
        k = int(rng.integers(1, 4))
        _best, opt = oracles.exact_k_latmin(g, k)
        for heuristic in Heuristic:
            final = minimize(solve(g), k, heuristic).relative[-1] * base
            assert opt <= final + 1e-9


def test_latency_graph_validation():
    """``prepare`` takes one finite latency >= 0 per node, and names the
    first node whose latency is not."""
    pair = datasets.from_edges([("a", "b")])
    for short in ([1.0], [1.0, 2.0, 3.0]):
        with pytest.raises(DataError, match=f"{len(short)} latencies for a graph of 2 nodes"):
            prepare(pair, np.array(short), strict=False)
    with pytest.raises(DataError, match="latency on 'a' is -1.0, not finite and >= 0"):
        prepare(pair, np.array([-1.0, 0.0]), strict=False)
    cycle = datasets.from_edges([(0, 1), (1, 2), (2, 0)])
    for bad in (math.nan, math.inf):
        with pytest.raises(DataError, match="latency on 1 is (nan|inf), not finite"):
            prepare(cycle, np.array([1.0, bad, 2.0]))


def _scoring_cases():
    """Seeded graphs: strict and permissive with unreachable pairs, both
    with fractional latencies (so rounding shows), zero latencies, and
    uniform cycles and paths where candidates tie."""
    rng = np.random.default_rng(48)
    for _ in range(8):
        n = int(rng.integers(4, 12))
        for strict, p in ((True, 0.3), (False, 0.15)):
            _g, edges, _lat = random_latency_graph(rng, n, p, strongly_connected=strict)
            latency = {i: 10 * float(rng.random()) for i in range(n)}
            yield lgraph(edges, latency, nodes=range(n)), strict
        yield random_latency_graph(
            rng, n, 0.3, strongly_connected=True, zero_frac=0.4
        )[0], True
    for n in (3, 5, 8):
        yield lgraph([(i, (i + 1) % n) for i in range(n)], {i: 2.0 for i in range(n)}), True
        yield lgraph([(i, i + 1) for i in range(n - 1)], {i: 1.0 for i in range(n)}), False


def test_greedy_scores_equal_zero_update_oracle(monkeypatch):
    """The buffered zero-update kernel scores each candidate exactly as the
    fresh-array formula does, and screened Greedy picks and traces what
    scoring every candidate does, with the latencies scaled far outside
    float32's range (zero latencies and exact ties kept) and each step
    whose best score is tied rescored in float64."""
    updates = []
    zero_update = latmin._zero_update
    monkeypatch.setattr(latmin, "_zero_update", lambda *a: updates.append(a[1]) or zero_update(*a))
    for scale in (1.0, 1e-300, 1e-40, 1e30, 1e300):
        seen = {"graphs": 0, "masked": 0, "tied": 0, "tied_graphs": 0}
        for g, strict in _scoring_cases():
            latency = {x: v * scale for x, v in g.latency.items()}
            state = solve(LatencyCase(g.graph, latency), strict)
            if not state.denom or state.base_avg == 0:
                continue
            n, nodes = g.graph.n, g.graph.nodes
            k = min(4, n)
            lat = [latency[x] for x in nodes]
            steps = list(oracles.greedy_steps(state.d, lat, state.mask, k, nodes))
            tmp, row = np.empty((n, n)), np.empty(n)
            for d, lat_step, remaining, want, _pick, _rel in steps:
                got = []
                for i in remaining:
                    out = zero_update(d, i, lat_step[i], tmp, row)
                    total = out.sum() if state.all_finite else out[state.mask].sum()
                    got.append(float(total / state.denom))
                assert got == want, scale
                seen["tied"] += len(set(want)) < len(want)
            updates.clear()
            trace = minimize(state, k, Heuristic.GREEDY)
            assert trace.selected == tuple(step[4] for step in steps), scale
            assert trace.relative == tuple(step[5] for step in steps), scale
            ties = sum(step[3].count(min(step[3])) > 1 for step in steps)
            assert len(updates) >= k + ties, scale
            seen["graphs"] += 1
            seen["masked"] += not state.all_finite
            seen["tied_graphs"] += ties > 0
        assert seen["graphs"] >= 20 and seen["masked"] >= 5 and seen["tied"] >= 5, (scale, seen)
        assert seen["tied_graphs"] >= 5, (scale, seen)


def _forward(g):
    """``g`` with only its edges u -> v for u < v: sparse reachability."""
    adj, nodes = oracles.adjacency(g.graph), g.graph.nodes
    edges = [(nodes[u], nodes[v]) for u in range(g.graph.n) for v in adj[u] if u < v]
    return LatencyCase(datasets.from_edges(edges, nodes=nodes), g.latency)


def _pruning_cases():
    """Seeded Pareto-latency trees large enough for the savings bound to
    skip candidates: both edge directions (strict) and only u -> v with
    u < v (permissive, sparse reachability)."""
    for seed in range(12):
        for n, both in ((120, True), (120, False), (60, False)):
            g = datasets.latency_benchmark(seed, n)
            yield (g, True) if both else (_forward(g), False)


def test_pruned_greedy_equals_all_candidate_oracle(monkeypatch):
    """Bound-ordered Greedy picks and traces exactly what scoring every
    remaining candidate does, while screening fewer of them and scoring
    few in float64."""
    screens, updates = [], []
    for name, calls in (("_screen_total", screens), ("_zero_update", updates)):
        kernel = getattr(latmin, name)
        monkeypatch.setattr(latmin, name, lambda *a, kernel=kernel, calls=calls:
                            calls.append(a[1]) or kernel(*a))
    k, cases, pruned = 5, 0, 0
    for g, strict in _pruning_cases():
        state = solve(g, strict)
        n, nodes = g.graph.n, g.graph.nodes
        lat = [g.latency[x] for x in nodes]
        steps = list(oracles.greedy_steps(state.d, lat, state.mask, k, nodes))
        screens.clear()
        updates.clear()
        trace = minimize(state, k, Heuristic.GREEDY)
        assert trace.selected == tuple(step[4] for step in steps)
        assert trace.relative == tuple(step[5] for step in steps)
        cases += 1
        # every step screens its n - step candidates unless the bound skips some
        pruned += len(screens) < sum(n - step for step in range(k))
        # each pick is one update; rescoring near-ties at most doubles that
        assert k <= len(updates) <= 2 * k
    assert cases == 36 and pruned >= 30


def test_screen_within_a_quarter_margin_at_n_2000(monkeypatch):
    """On a strongly connected random graph of 2,000 nodes with Pareto
    latencies, the first candidates Greedy screens, on the float32 matrix
    ``minimize`` builds, score within a quarter of the margin of their
    float64 totals."""
    n = 2000
    rng = np.random.default_rng(n)
    perm = rng.permutation(n)
    keys = np.unique(np.r_[rng.integers(0, n * n, 8 * n), perm * n + np.roll(perm, -1)])
    keys = keys[keys // n != keys % n]
    graph = DirectedGraph.from_keys(keys, np.ones(n, bool), tuple(range(n)))
    state = prepare(graph, rng.pareto(1.5, n) + 1.0)
    screened = []

    class Enough(Exception):
        pass

    def screen(*args, kernel=latmin._screen_total):
        screened.append((args[1], kernel(*args)))
        if len(screened) == 12:
            raise Enough
        return screened[-1][1]

    monkeypatch.setattr(latmin, "_screen_total", screen)
    with pytest.raises(Enough):
        minimize(state, 1, Heuristic.GREEDY)
    out, row = np.empty((n, n)), np.empty(n)
    margin = latmin._SCREEN_MARGIN * float(state.d[state.mask].sum())
    for i, total in screened:
        exact = float(latmin._zero_update(state.d, i, state.lat[i], out, row).sum())
        assert abs(total - exact) <= margin / 4, (i, total, exact)


@pytest.mark.parametrize("strict", [True, False])
def test_minimize_allocates_under_three_matrices(strict):
    """While the state is held, no heuristic allocates 24 B per node pair
    at n = 400: the screening pair is freed before each pick, whose two
    matrices and masked copy make the rest of the guard's 33 B."""
    n = 400
    g = datasets.latency_benchmark(3, n)
    state = solve(g if strict else _forward(g), strict)
    for heuristic in Heuristic:
        tracemalloc.start()
        try:
            minimize(state, 5, heuristic)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * n * n, (heuristic, peak / (8 * n * n))


def test_memory_guard_refuses_before_apsp(monkeypatch):
    g = lgraph([(0, 1), (1, 2), (2, 0)], {i: 1.0 for i in range(3)})
    monkeypatch.setattr(latmin, "MEMORY_BUDGET_BYTES", 33 * 3 * 3)
    assert solve(g).denom == 6
    monkeypatch.setattr(latmin, "MEMORY_BUDGET_BYTES", 33 * 3 * 3 - 1)
    monkeypatch.setattr(latmin, "_apsp_matrix", pytest.fail)
    with pytest.raises(DataError, match=r"n=3 nodes needs about 297 bytes"):
        solve(g)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def test_apsp_equals_dijkstra_oracle():
    """The label-correcting blocks reach Dijkstra's distances bit for bit,
    with tied and zero latencies and with fractional ones whose path sums
    round, on graphs with isolated nodes and unreachable pairs."""
    rng = np.random.default_rng(49)
    unreachable = 0
    for label, graph in datasets.kernel_graphs():
        n = graph.n
        ties = rng.choice([0.0, 0.1, 0.2, 0.3, 0.7], n)
        spread = np.where(rng.random(n) < 0.2, 0.0, 10 * rng.random(n))
        for lat in (ties, spread):
            got = latmin._apsp_matrix(graph, lat)
            assert (_bits(got) == _bits(oracles.dijkstra_apsp(graph, lat))).all(), label
        unreachable += bool(np.isinf(got).any())
    assert unreachable >= 5


# perfbench's latmin-dense and hubs datasets at its default seed, 7
_BENCH_GEN = {
    "latmin-dense": ("--users", "340", "--topics", "2", "--hashtags-per-topic", "4",
                     "--cascades", "3", "--edge-prob", "0.0353"),
    "hubs": ("--users", "320", "--topics", "3", "--hashtags-per-topic", "12",
             "--cascades", "30", "--graph-model", "preferential-attachment",
             "--attach-count", "12"),
}


@pytest.fixture(scope="module")
def bench_manifest(tmp_path_factory):
    made = {}

    def manifest(shape):
        if shape not in made:
            root = tmp_path_factory.mktemp(shape)
            assert main(["syngen", "--out", str(root), "--seed", "7", *_BENCH_GEN[shape]]) == 0
            made[shape] = root / "dataset.manifest"
        return made[shape]

    return manifest


@pytest.mark.parametrize("shape, topic, mode", [
    ("latmin-dense", "t0", "--strict"),
    ("latmin-dense", "t1", "--permissive"),
    ("hubs", "t0", "--permissive"),
])
def test_kernels_equal_oracles_on_benchmark_components(
    bench_manifest, tmp_path, monkeypatch, shape, topic, mode
):
    """The APSP and the betweenness of the benchmark's latmin components
    equal the Dijkstra and Brandes loops bit for bit."""
    seen = {}
    apsp = latmin._apsp_matrix
    monkeypatch.setattr(latmin, "_apsp_matrix",
                        lambda g, lat: seen.setdefault("apsp", (g, lat, apsp(g, lat)))[2])
    monkeypatch.setattr(latmin, "betweenness_centrality",
                        lambda g: seen.setdefault("bc", (g, betweenness_centrality(g)))[1])
    assert main(["latmin", "--manifest", str(bench_manifest(shape)), "--out", str(tmp_path),
                 "--topic", topic, "--k", "5", mode]) == 0
    graph, lat, d = seen["apsp"]
    assert seen["bc"][0] is graph and graph.n >= 300
    assert (_bits(d) == _bits(oracles.dijkstra_apsp(graph, lat))).all()
    bc, want = oracles.by_node(graph, seen["bc"][1]), oracles.betweenness_brandes_loop(graph)
    assert list(bc) == list(want)
    assert (_bits(list(bc.values())) == _bits(list(want.values()))).all()


@pytest.mark.parametrize("shape", ["latmin-dense", "hubs"])
def test_component_kernels_equal_loops_on_benchmark_backbones(bench_manifest, monkeypatch, shape):
    """On every influence and follower graph that ``compare_with_follower``
    ranks in the benchmark datasets, the component labels give the loop
    oracles' partitions, and each label is its component's least node."""
    seen = []
    for kernel, loop in ((strongly_connected_components, oracles.scc_tarjan_loop),
                         (weakly_connected_components, oracles.wcc_search_loop)):
        monkeypatch.setattr(backbone, kernel.__name__, lambda g, kernel=kernel, loop=loop:
                            seen.append((g, kernel(g), loop)) or seen[-1][1])
    net, events, topics = load_dataset(bench_manifest(shape))
    index = build_adoption_index(events, net, topics)
    for topic in topics.topics:
        backbone.compare_with_follower(backbone.extract_backbone(topic, index), index)
    assert len(seen) == 4 * len(topics.topics)
    for g, label, loop in seen:
        assert oracles.labels_least_members(label)
        assert oracles.partition(g, label) == loop(g)


def test_latency_component_equals_name_oracle(bench_manifest):
    """On every topic of the benchmark datasets, in both modes, the graph
    latmin solves, its edges and its latencies equal the name-keyed choice
    over the loop oracles' components; on hubs, some of those choices drop
    members without a TIME mean."""
    dropped = 0
    for shape in ("latmin-dense", "hubs"):
        net, events, topics = load_dataset(bench_manifest(shape))
        index = build_adoption_index(events, net, topics)
        everyone = dict.fromkeys(index.users, 0.0)
        for topic in topics.topics:
            b = backbone.extract_backbone(topic, index)
            user, mean = node_topic_latency(index, topic)
            latency = oracles.named_latency(index, (user, mean))
            for strict in (True, False):
                graph, lat = latency_component(b.graph, user, mean, strict)
                names, n = [index.users[u] for u in graph.nodes], graph.n
                edges = [(names[k // n], names[k % n]) for k in graph.keys.tolist()]
                want = oracles.latency_component(b, latency, strict)
                assert (names, edges, dict(zip(names, lat.tolist()))) == want, (shape, topic)
                dropped += len(oracles.latency_component(b, everyone, strict)[0]) > n
    assert dropped


def test_all_sources_kernels_stay_within_their_blocks():
    """In units of 8n^2 bytes, the APSP holds its n x n output plus one
    block of sources and the betweenness one block.  On 1,500 nodes of the
    benchmark components' degree, blocks grown toward n rows would break
    both bounds.  On 400 nodes of about n^2 / 5 edges, full blocks of
    ``SOURCE_BLOCK`` sources would hold about 10 x 8n^2 bytes of edges, so
    both kernels must shrink their blocks to keep within
    ``BLOCK_PAIR_BYTES`` per pair, which the latmin memory guard counts."""
    for n, edges, apsp_bound, bc_bound in (
        (1500, 6 * 1500, 1.25, 1 / 3),
        (400, 400 * 400 // 4, 1 + BLOCK_PAIR_BYTES / 8, BLOCK_PAIR_BYTES / 8),
    ):
        rng = np.random.default_rng(n)
        keys = np.unique(rng.integers(0, n * n, edges))
        keys = keys[keys // n != keys % n]
        graph = DirectedGraph.from_keys(keys, np.ones(n, bool), tuple(range(n)))
        lat = 10 * rng.random(n)
        peaks = []
        for run in (lambda: latmin._apsp_matrix(graph, lat),
                    lambda: betweenness_centrality(graph)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1] / (8 * n * n))
            finally:
                tracemalloc.stop()
        assert peaks[0] < apsp_bound and peaks[1] < bc_bound, (n, peaks)
