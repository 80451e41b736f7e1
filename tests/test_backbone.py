import dataclasses

import numpy as np
import pytest

from genonet.backbone import (
    compare_with_follower,
    cross_topic_overlap,
    extract_backbone,
)
from genonet.errors import DataError
from genonet.ingest import (
    build_adoption_index,
    load_events,
    load_follower_edges,
    load_topic_map,
)

import oracles


def test_extract_toy(toy):
    net, _events, topics, index = toy
    b = extract_backbone("T", index)
    assert oracles.backbone_edges(b) == {("A", "B"): 1, ("C", "B"): 1}
    assert {b.users[u] for u in b.graph.nodes} == {"A", "B", "C"}


def test_unknown_topic(toy):
    net, _events, topics, index = toy
    with pytest.raises(DataError):
        extract_backbone("nope", index)


def test_empty_topic_gives_empty_backbone():
    net = load_follower_edges(["A\tB"])
    events = load_events(["5\tA\t#x"])
    topics = load_topic_map(["x\tT", "z\tquiet"])
    index = build_adoption_index(events, net, topics)
    b = extract_backbone("quiet", index)
    assert oracles.backbone_edges(b) == {}


def test_reversed_times_remove_edges():
    net = load_follower_edges(["A\tB", "C\tB"])
    # reverse the T1 timeline: B now adopts first
    events = load_events(["1\tB\t#x", "2\tB\t#x", "8\tC\t#y", "10\tC\t#x", "12\tA\t#x"])
    topics = load_topic_map(["x\tT", "y\tT"])
    index = build_adoption_index(events, net, topics)
    b = extract_backbone("T", index)
    assert oracles.backbone_edges(b) == {}


def test_backbones_equal_edge_scan_oracle():
    rng = np.random.default_rng(23)
    for _ in range(20):
        edge_lines, event_lines, topic_lines = oracles.random_log(
            rng, n_users=int(rng.integers(5, 25)), n_hashtags=int(rng.integers(2, 12)),
            n_topics=int(rng.integers(1, 4)), n_lines=int(rng.integers(10, 300)),
            edge_prob=float(rng.uniform(0.05, 0.4)), max_time=int(rng.integers(5, 200)),
        )
        net = load_follower_edges(edge_lines)
        events = load_events(event_lines)
        topics = load_topic_map(topic_lines)
        index = build_adoption_index(events, net, topics)
        triples, edges = oracles.named(events).events, oracles.named(net).edges
        for topic in topics.topics:
            hashtags = oracles.hashtags_for(topics, topic)
            b = extract_backbone(topic, index)
            assert oracles.backbone_edges(b) == oracles.backbone_weights(triples, edges, hashtags)


def test_backbone_subset_of_follower_and_weight_bound():
    rng = np.random.default_rng(22)
    for _ in range(5):
        edge_lines, event_lines, topic_lines = oracles.random_log(rng, n_users=14)
        net = load_follower_edges(edge_lines)
        events = load_events(event_lines)
        topics = load_topic_map(topic_lines)
        index = build_adoption_index(events, net, topics)
        first_use = oracles.index_dicts(index)["first_use"]
        for topic in topics.topics:
            b = extract_backbone(topic, index)
            weights = oracles.backbone_edges(b)
            assert weights.keys() <= oracles.named(net).edges
            for (u, _v), w in weights.items():
                used = sum(
                    1 for h in oracles.hashtags_for(topics, topic) if (u, h) in first_use
                )
                assert 0 < w <= used


def test_compare_with_follower_toy(toy):
    net, _events, topics, index = toy
    report = compare_with_follower(extract_backbone("T", index), index)
    assert report.jaccard == 1.0
    assert report.wcc_fraction["influence"] == 1.0
    assert report.wcc_fraction["follower"] == 1.0
    # the toy backbone is a DAG: singleton SCCs
    assert report.scc_fraction["influence"] == pytest.approx(1 / 3)
    assert report.influence_edges == 2
    assert report.follower_edges == 2


def test_compare_with_follower_equals_name_oracle():
    """Every report field equals the one computed on names: graphs built
    from name pairs and the Jaccard taken over Python sets.  The logs add
    declared isolated nodes and posting users absent from the edge file."""
    rng = np.random.default_rng(31)
    compared = 0
    for _ in range(12):
        edge_lines, event_lines, topic_lines = oracles.random_log(
            rng, n_users=int(rng.integers(6, 22)), n_hashtags=int(rng.integers(3, 10)),
            n_topics=int(rng.integers(1, 4)), n_lines=int(rng.integers(40, 250)),
            edge_prob=float(rng.uniform(0.08, 0.4)), max_time=int(rng.integers(10, 150)),
        )
        net = load_follower_edges(edge_lines + ["u00_isolated", "zz_isolated"])
        events = load_events(event_lines + ["3\tloner\th0", "9\tu0\th0"])
        topics = load_topic_map(topic_lines)
        index = build_adoption_index(events, net, topics)
        assert {"loner", "u00_isolated", "zz_isolated"} <= set(index.users)
        for topic in topics.topics:
            b = extract_backbone(topic, index)
            weights = oracles.backbone_edges(b)
            if not weights:
                continue
            got = compare_with_follower(b, index)
            want = oracles.compare_with_follower(topic, weights, oracles.named(net))
            for field in dataclasses.fields(want):
                assert getattr(got, field.name) == getattr(want, field.name), field.name
            compared += 1
    assert compared >= 15


def test_compare_empty_backbone_errors():
    net = load_follower_edges(["A\tB"])
    events = load_events(["5\tA\t#x"])
    topics = load_topic_map(["x\tT"])
    index = build_adoption_index(events, net, topics)
    with pytest.raises(DataError):
        compare_with_follower(extract_backbone("T", index), index)


def test_follower_counterpart_restricted_to_touched_nodes():
    net = load_follower_edges(["A\tB", "C\tB", "D\tE"])
    events = load_events(["0\tA\t#x", "5\tB\t#x"])
    topics = load_topic_map(["x\tT"])
    index = build_adoption_index(events, net, topics)
    report = compare_with_follower(extract_backbone("T", index), index)
    # only the A-B edge carries precedence; C and D/E are untouched
    assert report.influence_edges == 1
    assert report.follower_edges == 1
    assert report.jaccard == 1.0


def test_cross_topic_overlap():
    net = load_follower_edges(["a\tb", "b\tc", "c\td"])
    events = load_events(
        ["0\ta\t#x", "1\tb\t#x", "2\tc\t#x", "0\tb\t#y", "1\tc\t#y", "2\td\t#y"]
    )
    topics = load_topic_map(["x\tT1", "y\tT2"])
    index = build_adoption_index(events, net, topics)
    b1 = extract_backbone("T1", index)
    b2 = extract_backbone("T2", index)
    assert oracles.backbone_edges(b1) == {("a", "b"): 1, ("b", "c"): 1}
    assert oracles.backbone_edges(b2) == {("b", "c"): 1, ("c", "d"): 1}
    overlap = cross_topic_overlap([b1, b2])
    assert overlap.values[0][0] == 1.0 and overlap.values[1][1] == 1.0
    assert overlap.values[0][1] == pytest.approx(1 / 3)
    assert overlap.values[0][1] == overlap.values[1][0]


def test_cross_topic_overlap_identical_and_disjoint(toy):
    net, _events, topics, index = toy
    b = extract_backbone("T", index)
    same = cross_topic_overlap([b, b])
    assert same.values[0][1] == 1.0
    with pytest.raises(DataError):
        cross_topic_overlap([b])


def test_cross_topic_overlap_edge_disjoint():
    net = load_follower_edges(["a\tb", "c\td"])
    events = load_events(["0\ta\t#x", "5\tb\t#x", "0\tc\t#y", "5\td\t#y"])
    topics = load_topic_map(["x\tT1", "y\tT2"])
    index = build_adoption_index(events, net, topics)
    b1 = extract_backbone("T1", index)
    b2 = extract_backbone("T2", index)
    assert oracles.backbone_edges(b1) and oracles.backbone_edges(b2)
    overlap = cross_topic_overlap([b1, b2])
    assert overlap.values[0][1] == 0.0
