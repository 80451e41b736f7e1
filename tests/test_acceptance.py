"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import hashlib
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from genonet.classify import (
    accuracy_curve, fit_logistic, leave_one_out, prepare_loo,
)
from genonet.cli import main as cli_main
from genonet.genotype import MetricKind, pair_metrics
from genonet.graph import (
    betweenness_centrality,
    kendall_tau,
    pagerank,
    strongly_connected_components,
    weakly_connected_components,
)
from genonet.ingest import (
    build_adoption_index,
    load_events,
    load_follower_edges,
    load_topic_map,
)
from genonet.latmin import Heuristic, minimize, prepare
from genonet.predict import (
    Direction,
    PredictionContext,
    PredictorKind,
    build_instances,
    evaluate,
)
from genonet.syngen import generate

import datasets
import oracles


@contextmanager
def criterion(num: int, name: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None:
        assert elapsed < budget_s, f"runtime {elapsed:.1f}s over the {budget_s}s budget"
    print(f"[acceptance] criterion {num} ({name}): PASS ({elapsed:.1f}s)")


# -- 1. metric oracle equivalence -------------------------------------------


def test_criterion_1_metric_oracle_equivalence():
    with criterion(1, "metric oracle equivalence", budget_s=30):
        rng = np.random.default_rng(1001)
        for log_i in range(100):
            n_users = int(rng.integers(8, 51))
            n_hashtags = int(rng.integers(4, 21))
            edge_lines, event_lines, topic_lines = oracles.random_log(
                rng,
                n_users=n_users,
                n_hashtags=n_hashtags,
                n_topics=int(rng.integers(2, 5)),
                n_lines=int(rng.integers(80, 260)),
                edge_prob=float(rng.uniform(0.05, 0.2)),
            )
            net = load_follower_edges(edge_lines)
            events = load_events(event_lines)
            topics = load_topic_map(topic_lines)
            index = build_adoption_index(events, net, topics)

            oracle = oracles.MetricOracle(
                oracles.named(events).events, oracles.named(net).edges, oracles.assignment(topics)
            )
            rows = oracles.metric_rows(pair_metrics(index))
            exact = {
                MetricKind.TIME: oracle.time,
                MetricKind.N_USES: oracle.n_uses,
                MetricKind.N_PAR: oracle.n_par,
            }
            relative = {
                MetricKind.F_PAR: oracle.f_par,
                MetricKind.LAT: oracle.lat,
                MetricKind.LOG_LAT: oracle.log_lat,
            }
            assert len(rows) == len(oracle.pairs())
            for (u, h) in oracle.pairs():
                row = rows[(u, h)]
                for kind, fn in exact.items():
                    assert row.get(kind) == fn(u, h), (log_i, kind, u, h)
                for kind, fn in relative.items():
                    got = row.get(kind)
                    want = fn(u, h)
                    if want is None or got is None:
                        assert got == want, (log_i, kind, u, h)
                    else:
                        tol = 1e-12 * max(1.0, abs(want))
                        assert abs(got - want) <= tol, (log_i, kind, u, h)


# -- 2. graph kernel equivalence ---------------------------------------------


def test_criterion_2_graph_kernel_equivalence():
    with criterion(2, "graph kernel equivalence"):
        rng = np.random.default_rng(2002)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            edges = oracles.random_digraph_edges(rng, n, float(rng.uniform(0.1, 0.5)))
            g = datasets.from_edges(edges, nodes=range(n))

            for kernel, loop, reach in (
                (strongly_connected_components, oracles.scc_tarjan_loop,
                 oracles.scc_by_reachability),
                (weakly_connected_components, oracles.wcc_search_loop,
                 oracles.wcc_by_reachability),
            ):
                label = kernel(g)
                assert oracles.labels_least_members(label)
                assert oracles.partition(g, label) == loop(g) == reach(n, edges)

            bc = oracles.by_node(g, betweenness_centrality(g))
            bc_oracle = oracles.betweenness_by_path_enumeration(n, edges)
            for i in range(n):
                assert bc[i] == pytest.approx(bc_oracle[i], abs=1e-9)

            pr = oracles.by_node(g, pagerank(g.indptr, g.indices))
            pr_oracle = oracles.pagerank_dense(n, edges)
            assert sum(pr.values()) == pytest.approx(1.0, abs=1e-9)
            for i in range(n):
                assert pr[i] == pytest.approx(pr_oracle[i], abs=1e-8)

            xs = [float(x) for x in rng.integers(0, 5, n)]
            ys = [float(y) for y in rng.integers(0, 5, n)]
            if n >= 2:
                want = oracles.kendall_tau_pairs(xs, ys)
                got = kendall_tau(xs, ys)
                if math.isnan(want):
                    assert math.isnan(got)
                else:
                    assert got == pytest.approx(want, abs=1e-12)


# -- 3. classification recovery ----------------------------------------------


def _lat_separation(d, index) -> float:
    by_topic: dict = {}
    topic_of = oracles.assignment(d.topics)
    for (u, h), row in oracles.metric_rows(pair_metrics(index)).items():
        if MetricKind.LAT in row:
            by_topic.setdefault(topic_of[h], []).append(row[MetricKind.LAT])
    means = []
    ss = 0.0
    n = 0
    for vals in by_topic.values():
        a = np.array(vals)
        means.append(a.mean())
        ss += ((a - a.mean()) ** 2).sum()
        n += len(a)
    pooled = math.sqrt(ss / (n - len(by_topic)))
    means.sort()
    min_gap = min(b - a for a, b in zip(means, means[1:]))
    return min_gap / pooled


def test_criterion_3_classification_recovery():
    with criterion(3, "classification recovery", budget_s=120):
        # separated classes: expected error at most 0.15
        for seed in (0, 1):
            d = generate(datasets.classification_params(seed))
            index = build_adoption_index(d.events, d.network, d.topics)
            sep = _lat_separation(d, index)
            assert sep >= 3.0, f"planted separation {sep:.2f} below 3 sigma"
            pairs = pair_metrics(index)
            res = leave_one_out(prepare_loo(MetricKind.LAT, pairs))
            assert res.test.expected <= 0.15, res.test
        # zero separation: E[x] within +-0.1 of the Random baseline over 5 seeds
        diffs = []
        for seed in range(5):
            d = generate(
                datasets.classification_params(seed, shifts=datasets.FLAT_SHIFTS)
            )
            index = build_adoption_index(d.events, d.network, d.topics)
            pairs = pair_metrics(index)
            res = leave_one_out(prepare_loo(MetricKind.LAT, pairs))
            diffs.append(res.test.expected - res.random.expected)
        assert abs(float(np.mean(diffs))) <= 0.1, diffs


# -- 4. ensemble effect --------------------------------------------------------


def test_criterion_4_ensemble_effect():
    with criterion(4, "ensemble effect"):
        sizes = [1, 4, 16, 64]
        gaps = []
        mean_points = np.zeros(len(sizes))
        for seed in range(5):
            d = generate(datasets.classification_params(seed))
            index = build_adoption_index(d.events, d.network, d.topics)
            pairs = pair_metrics(index)
            curve = accuracy_curve(
                prepare_loo(MetricKind.LAT, pairs),
                sizes=sizes, repetitions=5, seed=seed + 40,
            )
            pts = dict(curve.points)
            gaps.append(pts[64] - pts[1])
            mean_points += np.array([pts[s] for s in sizes])
        mean_points /= 5
        assert sum(g >= 0.1 for g in gaps) >= 4, gaps
        fit = fit_logistic(list(zip(sizes, mean_points)))
        assert fit.k > 0, fit


# -- 5. predictor ordering -----------------------------------------------------


def test_criterion_5_predictor_ordering():
    with criterion(5, "predictor ordering"):
        d = generate(datasets.activity_params(3))
        index = build_adoption_index(d.events, d.network, d.topics)
        ctx = PredictionContext(index)
        table = build_instances(Direction.INFLUENCER, ctx)
        instances = oracles.table_instances(table, ctx, Direction.INFLUENCER)
        means = {}
        for res in evaluate(Direction.INFLUENCER, table, ctx):
            count = sum(n for _m, n in res.per_topic.values())
            assert count >= 200, (res.predictor, count)
            means[res.predictor] = sum(m * n for m, n in res.per_topic.values()) / count
        for genotype_kind in (PredictorKind.TOPIC_ACT, PredictorKind.RW_ACT):
            for structural in (PredictorKind.FOLLOWEES, PredictorKind.FOLLOWERS):
                gap = means[genotype_kind] - means[structural]
                assert gap >= 0.10, (genotype_kind, structural, means)
        # a random scorer sits at chance
        rng = np.random.default_rng(55)
        aucs = [
            oracles.roc_auc({c: float(rng.random()) for c in inst.candidates}, inst.truth)
            for inst in instances
            if inst.truth and len(inst.truth) < len(inst.candidates)
        ]
        assert abs(float(np.mean(aucs)) - 0.50) <= 0.05


# -- 6. latency suite ----------------------------------------------------------


def test_criterion_6_latency_suite():
    with criterion(6, "latency suite", budget_s=600):
        # (a) the APSP matrix equals the all-pairs oracle exactly (integer
        # latencies, so float sums are exact)
        rng = np.random.default_rng(6006)
        from test_latmin import check_apsp_against_floyd_warshall, random_latency_graph, solve

        for _ in range(200):
            n = int(rng.integers(2, 9))
            g, edges, latency = random_latency_graph(rng, n, 0.3, zero_frac=0.15)
            check_apsp_against_floyd_warshall(g, edges, latency)

        # (b) exact optimum lower-bounds every heuristic; Greedy hits the
        # optimum on >= 80% of 100 seeded instances
        hits = 0
        total = 0
        rng = np.random.default_rng(6007)
        while total < 100:
            n = int(rng.integers(4, 11))
            g, _e, _l = random_latency_graph(rng, n, 0.3, strongly_connected=True)
            base = solve(g).base_avg
            if base == 0:
                continue
            k = int(rng.integers(1, 4))
            total += 1
            _best, opt = oracles.exact_k_latmin(g, k)
            finals = {}
            for heuristic in Heuristic:
                finals[heuristic] = minimize(solve(g), k, heuristic).relative[-1] * base
                assert opt <= finals[heuristic] + 1e-9
            if finals[Heuristic.GREEDY] <= opt + 1e-9:
                hits += 1
        assert hits >= 80, f"greedy optimal on {hits}/100"

        # (c) 500-node benchmark: Greedy cuts >= 40% at k=5 in the median
        # and dominates MaxLat/MaxBC at every k <= 25
        k5 = []
        for seed in range(5):
            g = datasets.latency_benchmark(seed)
            state = prepare(g.graph, g.lat)
            greedy = minimize(state, 25, Heuristic.GREEDY)
            maxlat = minimize(state, 25, Heuristic.MAX_LAT)
            maxbc = minimize(state, 25, Heuristic.MAX_BC)
            k5.append(greedy.relative[4])
            for i in range(25):
                assert greedy.relative[i] <= maxlat.relative[i] + 1e-12
                assert greedy.relative[i] <= maxbc.relative[i] + 1e-12
        assert float(np.median(k5)) <= 0.60, k5


# -- 7. CLI determinism ----------------------------------------------------------


def _digest_dir(path) -> dict:
    out = {}
    for p in sorted(path.iterdir()):
        if p.is_file():
            out[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def test_criterion_7_cli_determinism(tmp_path):
    with criterion(7, "CLI determinism"):
        data = tmp_path / "data"
        assert cli_main([
            "syngen", "--out", str(data), "--seed", "13", "--users", "40",
            "--topics", "2", "--hashtags-per-topic", "4", "--cascades", "3",
            "--edge-prob", "0.25",
        ]) == 0
        # byte-identical regeneration
        data2 = tmp_path / "data2"
        assert cli_main([
            "syngen", "--out", str(data2), "--seed", "13", "--users", "40",
            "--topics", "2", "--hashtags-per-topic", "4", "--cascades", "3",
            "--edge-prob", "0.25",
        ]) == 0
        assert _digest_dir(data) == _digest_dir(data2)

        manifest = str(data / "dataset.manifest")
        digests = []
        for run in ("r1", "r2"):
            out = str(tmp_path / run)
            assert cli_main(["ingest-check", "--manifest", manifest, "--out", out]) == 0
            assert cli_main(["genome", "--manifest", manifest, "--out", out]) == 0
            assert cli_main(["backbone", "--manifest", manifest, "--out", out]) == 0
            assert cli_main(["classify", "--manifest", manifest, "--out", out,
                             "--metric", "TIME,LAT", "--ensemble-sizes", "1,4",
                             "--repetitions", "3", "--seed", "9"]) == 0
            assert cli_main(["predict", "--manifest", manifest, "--out", out]) == 0
            assert cli_main(["latmin", "--manifest", manifest, "--out", out,
                             "--topic", "t0", "--k", "2", "--permissive"]) == 0
            assert cli_main(["report", "--out", out]) == 0
            digests.append(_digest_dir(tmp_path / run))
        assert digests[0] == digests[1]
