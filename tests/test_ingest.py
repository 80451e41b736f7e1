import io
import random

import numpy as np
import pytest

from genonet.errors import DataError, ParseError
from genonet.ingest import (
    Event,
    build_adoption_index,
    load_events,
    load_follower_edges,
    load_manifest,
    load_topic_map,
    write_follower_edges,
    write_manifest,
)

import oracles


def test_duplicate_edges_collapse():
    net = load_follower_edges(["a\tb", "a\tb"])
    assert net.edges == {("a", "b")}


def test_self_loop_rejected_with_line_number():
    with pytest.raises(ParseError, match="line 1"):
        load_follower_edges(["a\ta"])


def test_two_line_parse():
    net = load_follower_edges(["a\tb", "c\tb"])
    assert net.nodes == {"a", "b", "c"}
    assert net.edges == {("a", "b"), ("c", "b")}


def test_isolated_node_declaration():
    net = load_follower_edges(["lonely", "a\tb"])
    assert "lonely" in net.nodes
    assert net.followees_of("lonely") == ()


def test_edge_field_errors():
    with pytest.raises(ParseError, match="line 2"):
        load_follower_edges(["a\tb", "a\tb\tc"])
    with pytest.raises(ParseError):
        load_follower_edges(["a\t"])


def test_comments_and_blanks_skipped():
    net = load_follower_edges(["# a comment", "", "a\tb"])
    assert net.edges == {("a", "b")}


def test_followee_orientation():
    # edge (followee, follower): b follows a
    net = load_follower_edges(["a\tb"])
    assert net.followees_of("b") == ("a",)
    assert net.followers_of("a") == ("b",)


def test_event_fanout():
    log = load_events(["10\tA\t#x,#y"])
    assert log.events == (Event(10, "A", "x"), Event(10, "A", "y"))


def test_identical_triple_collapse():
    log = load_events(["10\tA\t#x", "10\tA\t#x"])
    assert len(log.events) == 1


def test_events_sorted():
    log = load_events(["9\tB\t#x", "5\tA\t#x"])
    assert log.events == (Event(5, "A", "x"), Event(9, "B", "x"))


def test_non_integer_time():
    with pytest.raises(ParseError, match="line 1"):
        load_events(["soon\tA\t#x"])
    # int() accepts these, but times are plain ASCII decimal integers
    for raw in ("1_000", "+5", "\u0663"):
        with pytest.raises(ParseError, match=r"line 2: non-integer time"):
            load_events(["1\tA\t#x", f"{raw}\tA\t#y"])


def test_negative_time():
    with pytest.raises(ParseError, match="negative time"):
        load_events(["-3\tA\t#x"])


def test_empty_hashtag_list_skipped_with_count():
    log = load_events(["10\tA\t#", "11\tB\t#x"])
    assert log.skipped_lines == 1
    assert len(log.events) == 1


def test_hashtag_normalization():
    log = load_events(["10\tA\t#FooBar"])
    assert log.events[0].hashtag == "foobar"
    # topic files use the bare form: a leading '#' would read as a comment
    topics = load_topic_map(["FooBar\tnews"])
    assert topics.topic_of("foobar") == "news"


def test_topic_map_conflict():
    with pytest.raises(ParseError, match="line 2"):
        load_topic_map(["x\ta", "x\tb"])


def test_topic_order_is_first_appearance():
    topics = load_topic_map(["x\tzed", "y\talpha", "z\tzed"])
    assert topics.topics == ("zed", "alpha")
    assert topics.by_topic["zed"] == ("x", "z")


def test_adoption_index_toy(toy):
    _net, _events, _topics, index = toy
    assert index.first_use[("B", "x")] == 20
    assert index.first_exposure[("B", "x")] == 10
    assert ("A", "x") not in index.first_exposure
    assert index.use_counts[("B", "x")] == 2


def test_index_order_independence():
    lines = ["10\tA\t#x", "12\tC\t#x", "14\tC\t#y", "20\tB\t#x", "21\tB\t#x"]
    net = load_follower_edges(["A\tB", "C\tB"])
    base = build_adoption_index(load_events(lines), net)
    rng = random.Random(0)
    for _ in range(5):
        shuffled = lines[:]
        rng.shuffle(shuffled)
        other = build_adoption_index(load_events(shuffled), net)
        assert other.first_use == base.first_use
        assert other.first_exposure == base.first_exposure
        assert other.use_counts == base.use_counts


def test_exposure_has_witness():
    rng = np.random.default_rng(5)
    for _ in range(10):
        edge_lines, event_lines, _ = oracles.random_log(rng, n_users=15, n_lines=80)
        net = load_follower_edges(edge_lines)
        log = load_events(event_lines)
        index = build_adoption_index(log, net)
        for (u, h), t in index.first_exposure.items():
            witnesses = [
                v
                for v in net.followees_of(u)
                if index.first_use.get((v, h)) == t
            ]
            assert witnesses, f"no witness for exposure of {(u, h)}"


def test_prior_adopters_equal_brute_force_scan():
    """Every adopted pair's prior adopters are exactly the followees with a
    strictly earlier first use, and a hashtag's precedence edges are the
    follower edges it spread along; with 12 distinct times, ties are
    common and never count."""
    rng = np.random.default_rng(17)
    ties = 0
    for _ in range(10):
        edge_lines, event_lines, _ = oracles.random_log(
            rng, n_users=20, n_lines=120, edge_prob=0.25, max_time=12
        )
        net = load_follower_edges(edge_lines)
        log = load_events(event_lines)
        index = build_adoption_index(log, net)
        oracle = oracles.MetricOracle(log.events, net.edges, {})
        first = oracle.first_use
        assert index.prior_adopters.keys() == index.first_use.keys()
        for (u, h), prior in index.prior_adopters.items():
            assert sorted(prior) == sorted(oracle._prior_parents(u, h)), (u, h)
            ties += sum(
                index.first_use.get((v, h)) == index.first_use[(u, h)]
                for v in net.followees_of(u)
            )
        for h in log.hashtags:
            assert sorted(index.precedence_edges(h)) == sorted(
                (a, b) for a, b in net.edges
                if None not in (first(a, h), first(b, h)) and first(a, h) < first(b, h)
            ), h
    assert ties >= 50


def test_network_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(5):
        edge_lines, _, _ = oracles.random_log(rng, n_users=12)
        net = load_follower_edges(edge_lines + ["isolated_node"])
        buf = io.StringIO()
        write_follower_edges(net, buf)
        again = load_follower_edges(buf.getvalue().splitlines())
        assert again.edges == net.edges
        assert again.nodes == net.nodes


def test_manifest_round_trip(tmp_path):
    for name in ("edges.tsv", "events.tsv", "topics.tsv"):
        (tmp_path / name).write_text("")
    mpath = tmp_path / "dataset.manifest"
    with mpath.open("w") as fh:
        write_manifest(
            {"edges": "edges.tsv", "events": "events.tsv", "topics": "topics.tsv"}, fh
        )
    paths = load_manifest(mpath)
    assert paths["edges"] == tmp_path / "edges.tsv"


def test_manifest_missing_key(tmp_path):
    mpath = tmp_path / "dataset.manifest"
    mpath.write_text("edges = edges.tsv\n")
    with pytest.raises(DataError, match="missing keys"):
        load_manifest(mpath)


def test_manifest_unknown_key(tmp_path):
    mpath = tmp_path / "dataset.manifest"
    mpath.write_text("edges = e\nevents = v\ntopics = t\nbogus = x\n")
    with pytest.raises(ParseError, match="bogus"):
        load_manifest(mpath)
