import io
import math

import numpy as np
import pytest

from genonet import genotype
from genonet.errors import DataError
from genonet.genotype import (
    MetricKind,
    build_genome,
    node_topic_latency,
    pair_metrics,
    write_genome_summary,
    write_genome_values,
)
from genonet.ingest import build_adoption_index, load_events, load_follower_edges, load_topic_map
from genonet.syngen import GenParams, generate

import oracles


def metric(toy, kind, user="B", hashtag="x"):
    _net, _events, topics, index = toy
    return oracles.metric_rows(pair_metrics(index))[(user, hashtag)].get(kind)


def test_time_toy(toy):
    assert metric(toy, MetricKind.TIME) == 10.0


def test_n_uses_toy(toy):
    assert metric(toy, MetricKind.N_USES) == 2.0


def test_n_par_f_par_toy(toy):
    assert metric(toy, MetricKind.N_PAR) == 2.0
    assert metric(toy, MetricKind.F_PAR) == 1.0


def test_lat_toy(toy):
    # posts by B's followees with topic-T hashtags strictly inside (10, 20):
    # (C,x,12) and (C,y,14)
    assert metric(toy, MetricKind.LAT) == 0.5


def test_log_lat_toy(toy):
    # B is the only adopter of x with a defined LAT, so LAT equals its mean
    _net, _events, topics, index = toy
    rows = oracles.metric_rows(pair_metrics(index))
    assert rows[("B", "x")][MetricKind.LOG_LAT] == 0.0


def test_originator_metrics_undefined(toy):
    # A was never exposed before first use: reaction metrics excluded
    for kind in (MetricKind.TIME, MetricKind.N_PAR, MetricKind.F_PAR, MetricKind.LAT):
        assert metric(toy, kind, user="A") is None
    assert metric(toy, MetricKind.N_USES, user="A") == 1.0


def test_unknown_pair_rejected(toy):
    """A pair never adopted, or whose hashtag has no topic, gets no row."""
    net, events, topics, _index = toy

    def rows(topics):
        return oracles.metric_rows(pair_metrics(build_adoption_index(events, net, topics)))

    assert list(rows(topics)) == [("A", "x"), ("C", "x"), ("C", "y"), ("B", "x")]
    assert rows(load_topic_map([])) == {}
    assert list(rows(load_topic_map(["y\tT"]))) == [("C", "y")]


def test_simultaneous_adoption_is_not_exposure():
    net = load_follower_edges(["A\tB"])
    events = load_events(["10\tA\t#x", "10\tB\t#x"])
    topics = load_topic_map(["x\tT"])
    index = build_adoption_index(events, net, topics)
    assert oracles.metric_rows(pair_metrics(index))[("B", "x")] == {MetricKind.N_USES: 1.0}


def test_build_genome_toy(toy):
    net, events, topics, index = toy
    genome = oracles.genotypes(build_genome(index))
    assert set(genome) == {"A", "B", "C"}
    assert genome["B"].cells[("T", MetricKind.N_USES)].values == (2.0,)
    assert ("T", MetricKind.TIME) not in genome["A"].cells
    cell = genome["B"].cells[("T", MetricKind.TIME)]
    assert cell.mean == 10.0 and cell.count == 1


def test_build_genome_empty_log():
    net = load_follower_edges(["A\tB"])
    events = load_events([])
    topics = load_topic_map(["x\tT"])
    genome = build_genome(build_adoption_index(events, net, topics))
    assert oracles.genotypes(genome) == {}


def test_node_topic_latency(toy):
    net, events, topics, index = toy
    assert oracles.named_latency(index, node_topic_latency(index, "T")) == {"B": 10.0}
    with pytest.raises(DataError, match="unknown topic 'other_topic'"):
        node_topic_latency(index, "other_topic")


def test_mean_of_multiset():
    net = load_follower_edges(["A\tB"])
    events = load_events(["0\tA\t#x", "0\tA\t#y", "4\tB\t#x", "6\tB\t#y"])
    topics = load_topic_map(["x\tT", "y\tT"])
    index = build_adoption_index(events, net, topics)
    genome = oracles.genotypes(build_genome(index))
    cell = genome["B"].cells[("T", MetricKind.TIME)]
    assert sorted(cell.values) == [4.0, 6.0]
    assert cell.mean == 5.0
    assert oracles.named_latency(index, node_topic_latency(index, "T"))["B"] == 5.0


def test_node_topic_latency_equals_genome_time_means():
    data = generate(GenParams(n_users=60, seed=9, n_topics=3, hashtags_per_topic=4,
                              cascades_per_hashtag=3, edge_prob=0.15))
    net, events, topics = data.network, data.events, data.topics
    index = build_adoption_index(events, net, topics)
    genome = oracles.genotypes(build_genome(index))
    for topic in topics.topics:
        want = {
            u: gt.cells[(topic, MetricKind.TIME)].mean
            for u, gt in genome.items()
            if (topic, MetricKind.TIME) in gt.cells
        }
        assert want
        assert oracles.named_latency(index, node_topic_latency(index, topic)) == want


def _random_setup(rng, **kw):
    edge_lines, event_lines, topic_lines = oracles.random_log(rng, **kw)
    net = load_follower_edges(edge_lines)
    events = load_events(event_lines)
    topics = load_topic_map(topic_lines)
    index = build_adoption_index(events, net, topics)
    return oracles.named(net), oracles.named(events), topics, index


def test_metric_invariants_random():
    rng = np.random.default_rng(11)
    for _ in range(8):
        net, events, topics, index = _random_setup(rng, n_users=18, n_lines=150)
        for (u, h), row in oracles.metric_rows(pair_metrics(index)).items():
            t = row.get(MetricKind.TIME)
            npar = row.get(MetricKind.N_PAR)
            fpar = row.get(MetricKind.F_PAR)
            lat = row.get(MetricKind.LAT)
            if t is not None:
                assert t >= 0
            if lat is not None:
                assert 0 < lat <= 1
            if fpar is not None:
                assert 0 <= fpar <= 1
                followees = sum(v == u for _a, v in net.edges)
                assert fpar * followees == pytest.approx(npar, abs=1e-12)


def test_log_lat_normalization_identity():
    # mean over adopters of exp(LOG-LAT(w,h)) is exactly 1 per hashtag
    rng = np.random.default_rng(12)
    net, events, topics, index = _random_setup(rng, n_users=20, n_lines=250)
    ratios: dict = {}
    for (_u, h), row in oracles.metric_rows(pair_metrics(index)).items():
        if MetricKind.LOG_LAT in row:
            ratios.setdefault(h, []).append(math.exp(row[MetricKind.LOG_LAT]))
    assert ratios
    for vals in ratios.values():
        assert np.mean(vals) == pytest.approx(1.0, abs=1e-9)


def test_build_genome_matches_per_pair_composition():
    rng = np.random.default_rng(13)
    net, events, topics, index = _random_setup(rng, n_users=15, n_lines=120)
    genome = oracles.genotypes(build_genome(index))
    oracle = oracles.MetricOracle(events.events, net.edges, oracles.assignment(topics))
    by_kind = {
        MetricKind.TIME: oracle.time,
        MetricKind.N_USES: oracle.n_uses,
        MetricKind.N_PAR: oracle.n_par,
        MetricKind.F_PAR: oracle.f_par,
        MetricKind.LAT: oracle.lat,
        MetricKind.LOG_LAT: oracle.log_lat,
    }
    expected: dict = {}
    for (u, h) in oracle.pairs():
        topic = oracle.topic_of.get(h)
        if topic is None:
            continue
        for kind, fn in by_kind.items():
            v = fn(u, h)
            if v is not None:
                expected.setdefault((u, topic, kind), []).append(v)
    for (u, topic, kind), vals in expected.items():
        cell = genome[u].cells[(topic, kind)]
        assert sorted(cell.values) == pytest.approx(sorted(vals))
        assert cell.mean == pytest.approx(np.mean(vals))
    # no extra cells
    total_cells = sum(len(gt.cells) for gt in genome.values())
    assert total_cells == len(expected)


def test_genome_writers_follow_name_order():
    """Both writers' rows follow (user, topic name, metric tag), each cell's
    values in hashtag-name order, under a topic map whose first-appearance
    order is not name order."""
    rng = np.random.default_rng(14)
    edge_lines, event_lines, topic_lines = oracles.random_log(rng, n_users=15, n_lines=150)
    net, events = load_follower_edges(edge_lines), load_events(event_lines)
    topics = load_topic_map(reversed(topic_lines))
    assert list(topics.topics) != sorted(topics.topics)
    genome = build_genome(build_adoption_index(events, net, topics))
    rows = oracles.pair_metric_rows(oracles.named(events), oracles.named(net), topics)
    want = oracles.build_genome(rows, topics)
    cells = sorted((u, t, k.value, c) for u, g in want.items() for (t, k), c in g.cells.items())
    values, summary = io.StringIO(), io.StringIO()
    write_genome_values(genome, values)
    write_genome_summary(genome, summary)
    assert values.getvalue().splitlines()[1:] == [
        f"{u}\t{t}\t{k}\t{v!r}" for u, t, k, c in cells for v in c.values
    ]
    assert summary.getvalue().splitlines()[1:] == [
        f"{u}\t{t}\t{k}\t{c.mean!r}\t{c.count}" for u, t, k, c in cells
    ]


def test_group_means_add_left_to_right_on_skewed_sizes():
    """Each group's values come out in order-key order and its mean adds
    them left to right as ``float_sum`` does, with one long group among
    many short ones of equal and unequal sizes."""
    rng = np.random.default_rng(15)
    group = np.concatenate([np.zeros(300, np.int64), rng.integers(1, 60, 200)])
    order = rng.permutation(len(group))
    values = rng.random(len(group)) * 10.0 ** rng.integers(-8, 8, len(group))
    (ids,), ptr, got, mean = genotype._groups((group, order), values)
    want: dict = {}
    for g, _o, v in sorted(zip(group.tolist(), order.tolist(), values.tolist())):
        want.setdefault(g, []).append(v)
    assert ids.tolist() == sorted(want)
    assert np.diff(ptr).tolist() == [len(want[g]) for g in sorted(want)]
    assert got.tolist() == [v for g in sorted(want) for v in want[g]]
    assert mean.tolist() == [oracles.float_sum(want[g]) / len(want[g]) for g in sorted(want)]
