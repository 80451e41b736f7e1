import io
import itertools
import math
import random
from dataclasses import fields

import numpy as np
import pytest

from genonet import ingest
from genonet.errors import DataError, ParseError
from genonet.genotype import MetricKind, build_genome, node_topic_latency, pair_metrics
from genonet.ingest import (
    build_adoption_index,
    libm,
    load_events,
    load_follower_edges,
    load_manifest,
    load_topic_map,
    ordered_sum,
    row_blocks,
    run_starts,
    write_follower_edges,
    write_manifest,
)

import oracles


def _row(ptr, ids, i):
    return ids[ptr[i]:ptr[i + 1]].tolist()


def _edge_case_logs(seed, count=10):
    """Seeded random logs with 12 distinct times, so first-use ties are
    common, and multi-hashtag lines; every other hashtag has no topic,
    two declared isolated nodes (one posting) and four posting users
    without any follow edge.  Of those, loner3 posts only a hashtag
    without a topic, and loner0 and loner1 are the only adopters of the
    topical hashtag ``solo``, so both are its originators."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        edge_lines, event_lines, topic_lines = oracles.random_log(
            rng, n_users=20, n_lines=120, edge_prob=0.25, max_time=12
        )
        edge_lines += ["iso0", "iso1"]
        event_lines += [
            f"{int(rng.integers(12))}\t{u}\th{int(rng.integers(12))},h{int(rng.integers(12))}"
            for u in ("iso0", "loner0", "loner1", "loner2") for _ in range(3)
        ]
        event_lines += ["3\tloner0\tsolo", "5\tloner1\tsolo", "7\tloner3\th1"]
        yield edge_lines, event_lines, topic_lines[::2] + ["solo\ttopic0"]


def _load_log(edge_lines, event_lines, topic_lines):
    """The network and log by name, with the topic map and the index."""
    net, events = load_follower_edges(edge_lines), load_events(event_lines)
    topics = load_topic_map(topic_lines)
    index = build_adoption_index(events, net, topics)
    return oracles.named(net), oracles.named(events), topics, index


# (loader, lines): the ParseError inputs of the edge and event tests below,
# plus an empty user and a line with two fields
_PARSE_ERRORS = [
    ("edges", ["a\ta"]),
    ("edges", ["a\tb", "a\tb\tc"]),
    ("edges", ["a\t"]),
    ("events", ["soon\tA\t#x"]),
    *(("events", ["1\tA\t#x", f"{raw}\tA\t#y"]) for raw in ("1_000", "+5", "\u0663")),
    ("events", ["-3\tA\t#x"]),
    ("events", ["1\tA\t#x", f"{2**63}\tA\t#y"]),
    ("events", ["1\tA\t#x", "2\t \t#y"]),
    ("events", ["1\tA"]),
]


def test_duplicate_edges_collapse():
    net = load_follower_edges(["a\tb", "a\tb"])
    assert oracles.named(net).edges == {("a", "b")}


def test_self_loop_rejected_with_line_number():
    with pytest.raises(ParseError, match="line 1"):
        load_follower_edges(["a\ta"])


def test_two_line_parse():
    net = load_follower_edges(["a\tb", "c\tb"])
    assert net.nodes == ("a", "b", "c")
    assert oracles.named(net).edges == {("a", "b"), ("c", "b")}


def test_isolated_node_declaration():
    net = load_follower_edges(["lonely", "a\tb"])
    assert "lonely" in net.nodes
    index = build_adoption_index(load_events([]), net, load_topic_map([]))
    lonely = index.users.index("lonely")
    assert _row(index.followee_ptr, index.followee_ids, lonely) == []
    assert _row(index.follower_ptr, index.follower_ids, lonely) == []


def test_edge_field_errors():
    with pytest.raises(ParseError, match="line 2"):
        load_follower_edges(["a\tb", "a\tb\tc"])
    with pytest.raises(ParseError):
        load_follower_edges(["a\t"])


def test_comments_and_blanks_skipped():
    net = load_follower_edges(["# a comment", "", "a\tb"])
    assert oracles.named(net).edges == {("a", "b")}


def test_followee_orientation():
    # edge (followee, follower): b follows a
    net = load_follower_edges(["a\tb"])
    index = build_adoption_index(load_events([]), net, load_topic_map([]))
    a, b = index.users.index("a"), index.users.index("b")
    assert _row(index.followee_ptr, index.followee_ids, b) == [a]
    assert _row(index.follower_ptr, index.follower_ids, a) == [b]


def test_event_fanout():
    log = oracles.named(load_events(["10\tA\t#x,#y"]))
    assert log.events == (oracles.Event(10, "A", "x"), oracles.Event(10, "A", "y"))


def test_identical_triple_collapse():
    log = load_events(["10\tA\t#x", "10\tA\t#x"])
    assert len(log.time) == 1


def test_events_sorted():
    log = oracles.named(load_events(["9\tB\t#x", "5\tA\t#x"]))
    assert log.events == (oracles.Event(5, "A", "x"), oracles.Event(9, "B", "x"))


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


def test_time_above_int64_rejected():
    assert load_events([f"{2**63 - 1}\tA\t#x"]).time.tolist() == [2**63 - 1]
    with pytest.raises(ParseError, match=r"^line 2: time 9223372036854775808 above 2\^63-1$"):
        load_events(["1\tA\t#x", f"{2**63}\tA\t#y"])


def test_empty_hashtag_list_skipped_with_count():
    log = load_events(["10\tA\t#", "11\tB\t#x"])
    assert log.skipped_lines == 1
    assert len(log.time) == 1


def test_hashtag_normalization():
    log = load_events(["10\tA\t#FooBar"])
    assert log.hashtags == ("foobar",)
    # topic files use the bare form: a leading '#' would read as a comment
    topics = load_topic_map(["FooBar\tnews"])
    assert oracles.assignment(topics) == {"foobar": "news"}


def test_topic_map_conflict():
    with pytest.raises(ParseError, match="line 2"):
        load_topic_map(["x\ta", "x\tb"])


def test_topic_order_is_first_appearance():
    topics = load_topic_map(["x\tzed", "y\talpha", "z\tzed"])
    assert topics.topics == ("zed", "alpha")
    assert oracles.hashtags_for(topics, "zed") == ("x", "z")
    index = build_adoption_index(load_events([]), load_follower_edges([]), topics)
    assert index.topic_rank.tolist() == [1, 0]


def test_topic_map_equals_name_oracle():
    """On seeded topic files with repeated lines, case and ``#`` variants,
    comments, conflicts and topics out of name order, the id columns read
    back by name equal the dict parse, conflicts name the same line, and
    ``topic_ids`` over used and unmapped hashtags equals one dict lookup
    per hashtag.  So do the index's ``hashtag_topic``, ``topic_rank`` and
    ``topic_id`` over a log with an unmapped hashtag and without a mapped
    one, and an unknown topic name raises."""
    rng = np.random.default_rng(31)
    conflicts = 0
    for _ in range(60):
        tags = [f"h{i}" for i in range(int(rng.integers(0, 9)))]
        names = [f"t{i}" for i in rng.permutation(int(rng.integers(1, 5))).tolist()]
        lines = [f"{t}\t{names[int(rng.integers(len(names)))]}" for t in tags]
        lines += [lines[int(i)] for i in rng.integers(len(lines), size=3)] if lines else []
        lines = [lines[int(i)] for i in rng.permutation(len(lines))] + ["# c", "H1\tt0"]
        want = oracles.topic_map_by_name(lines)
        if isinstance(want[0], str):
            conflicts += 1
            with pytest.raises(ParseError, match=f"line {want[1]}: " + want[0]):
                load_topic_map(lines)
            continue
        topics = load_topic_map(lines)
        assert (oracles.assignment(topics), topics.topics) == want
        query = sorted({f"h{i}" for i in rng.integers(12, size=6).tolist()})
        assert topics.topic_ids(query).tolist() == oracles.topic_ids_by_name(topics, query)
        # h11 is never mapped and h1 always is
        used = sorted(set(query) - {"h1"} | {"h11"})
        index = build_adoption_index(
            load_events([f"1\tA\t{h}" for h in used]), load_follower_edges([]), topics
        )
        assert index.hashtag_topic.tolist() == oracles.topic_ids_by_name(topics, index.hashtags)
        assert index.topic_rank.tolist() == [sorted(topics.topics).index(t) for t in topics.topics]
        assert [index.topic_id(t) for t in topics.topics] == list(range(len(topics.topics)))
        with pytest.raises(DataError, match="^unknown topic 'nope'"):
            index.topic_id("nope")
    assert 10 <= conflicts <= 50


def test_adoption_index_toy(toy):
    _net, _events, _topics, index = toy
    maps = oracles.index_dicts(index)
    assert maps["first_use"][("B", "x")] == 20
    assert maps["first_exposure"] == {("B", "x"): 10}
    assert maps["use_counts"][("B", "x")] == 2
    assert maps["prior_adopters"][("B", "x")] == ("A", "C")
    assert index.exposed_pairs == 2  # (B, x) and (B, y)


def _columns(index):
    return {f.name: getattr(index, f.name) for f in fields(index)}


def test_index_order_independence():
    """Shuffled event and edge lines give the same int64 columns, and the
    pair columns equal the name-keyed reference index."""
    lines = ["10\tA\t#x", "12\tC\t#x", "14\tC\t#y", "20\tB\t#x", "21\tB\t#x"]
    logs = [(["A\tB", "C\tB"], lines, [])] + list(_edge_case_logs(3))
    rng = random.Random(0)
    for edge_lines, event_lines, topic_lines in logs:
        net, events, topics, index = _load_log(edge_lines, event_lines, topic_lines)
        got, want = oracles.index_dicts(index), oracles.adoption_index_dicts(events, net)
        assert list(got["first_use"].items()) == list(want["first_use"].items())
        assert got["use_counts"] == want["use_counts"]
        base = _columns(index)
        for _ in range(3):
            shuffled_edges, shuffled_events = edge_lines[:], event_lines[:]
            rng.shuffle(shuffled_edges)
            rng.shuffle(shuffled_events)
            other = _columns(build_adoption_index(
                load_events(shuffled_events), load_follower_edges(shuffled_edges), topics
            ))
            assert other.keys() == base.keys()
            for name, column in base.items():
                if isinstance(column, np.ndarray):
                    assert column.dtype == other[name].dtype == np.int64, name
                    assert column.tolist() == other[name].tolist(), name
                else:
                    assert column == other[name], name


def test_exposure_has_witness():
    """First exposure is the first use of the earliest prior adopter, -1
    without one; every other followee used the hashtag no earlier than
    the user."""
    for logs in _edge_case_logs(5):
        net, _events, _topics, index = _load_log(*logs)
        maps = oracles.index_dicts(index)
        first = maps["first_use"]
        for (u, h), prior in maps["prior_adopters"].items():
            exposure = maps["first_exposure"].get((u, h))
            if prior:
                assert exposure == min(first[(v, h)] for v in prior) == first[(prior[0], h)]
            others = [v for v, w in net.edges if w == u and v not in prior and (v, h) in first]
            assert all(first[(v, h)] >= first[(u, h)] for v in others), (u, h)
        assert (index.first_exposure == -1).tolist() == (np.diff(index.prior_ptr) == 0).tolist()


def test_prior_adopters_equal_brute_force_scan():
    """The index columns equal the name-keyed reference index; the
    pair_metrics table, read back as rows, equals the reference rows in
    order, the genome equals the one regrouped from them, and latmin's
    TIME means equal the genome's TIME cell means.  Every adopted pair's
    prior adopters are exactly the followees with a strictly earlier
    first use, and each hashtag's precedence triples are the follower
    edges it spread along; with 12 distinct times, ties are common and
    never count.  The logs hold users with no topical pair and hashtags
    whose adopters are all originators."""
    ties = empty_genotypes = originator_hashtags = 0
    for logs in _edge_case_logs(17):
        net, events, topics, index = _load_log(*logs)
        got, want = oracles.index_dicts(index), oracles.adoption_index_dicts(events, net)
        assert list(got["first_use"].items()) == list(want["first_use"].items())
        assert got["use_counts"] == want["use_counts"]
        assert got["prior_adopters"] == want["prior_adopters"]
        assert got["first_exposure"] == {
            k: t for k, t in want["first_exposure"].items() if want["prior_adopters"].get(k)
        }
        assert index.exposed_pairs == len(want["first_exposure"])
        want_rows = oracles.pair_metric_rows(events, net, topics)
        rows = oracles.metric_rows(pair_metrics(index))
        assert rows == want_rows
        assert [(k, list(r)) for k, r in rows.items()] == [
            (k, list(r)) for k, r in want_rows.items()
        ]
        genome = oracles.genotypes(build_genome(index))
        assert genome == oracles.build_genome(want_rows, topics)
        for topic in topics.topics:
            assert oracles.named_latency(index, node_topic_latency(index, topic)) == {
                u: g.cells[(topic, MetricKind.TIME)].mean
                for u, g in genome.items() if (topic, MetricKind.TIME) in g.cells
            }
        empty_genotypes += len(events.users - genome.keys())
        originator_hashtags += len(
            {h for (_u, h) in rows} - {h for (_u, h), r in rows.items() if MetricKind.LOG_LAT in r}
        )

        oracle = oracles.MetricOracle(events.events, net.edges, {})
        first = oracle.first_use
        for (u, h), prior in got["prior_adopters"].items():
            assert sorted(prior) == sorted(oracle._prior_parents(u, h)), (u, h)
            ties += sum(first(v, h) == first(u, h) for v, w in net.edges if w == u)
        tag, followee, follower = (c.tolist() for c in index.precedence)
        for h in events.hashtags:
            assert sorted(
                (index.users[a], index.users[b])
                for t, a, b in zip(tag, followee, follower) if index.hashtags[t] == h
            ) == sorted(
                (a, b) for a, b in net.edges
                if None not in (first(a, h), first(b, h)) and first(a, h) < first(b, h)
            ), h
    assert ties >= 50
    assert empty_genotypes and originator_hashtags


def test_network_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(5):
        edge_lines, _, _ = oracles.random_log(rng, n_users=12)
        net = load_follower_edges(edge_lines + ["isolated_node"])
        buf = io.StringIO()
        write_follower_edges(net, buf)
        again = load_follower_edges(buf.getvalue().splitlines())
        assert oracles.named(again) == oracles.named(net)
        assert again.nodes == net.nodes


def test_loaders_equal_name_oracle():
    """Both loaders, their id columns read back as names, equal the
    name-keyed loaders of ``oracles``; labels are sorted and distinct,
    and keys and (time, user, hashtag) rows strictly ascend."""
    rng = np.random.default_rng(41)
    logs = list(_edge_case_logs(6, count=4)) + [oracles.random_log(rng) for _ in range(4)]
    for edge_lines, event_lines, _ in logs:
        net, events = load_follower_edges(edge_lines), load_events(event_lines)
        assert oracles.named(net) == oracles.load_follower_edges(edge_lines)
        assert oracles.named(events) == oracles.load_events(event_lines)
        for labels in (net.nodes, events.users, events.hashtags):
            assert list(labels) == sorted(set(labels))
        assert np.all(np.diff(net.keys) > 0)
        rows = list(zip(events.time.tolist(), events.user.tolist(), events.hashtag.tolist()))
        assert rows == sorted(set(rows))


def test_parse_errors_equal_name_oracle():
    """Every malformed input above fails in the loader and in the name
    oracle alike: same message, same line number."""
    loaders = {
        "edges": (load_follower_edges, oracles.load_follower_edges),
        "events": (load_events, oracles.load_events),
    }
    for kind, lines in _PARSE_ERRORS:
        errors = []
        for load in loaders[kind]:
            with pytest.raises(ParseError) as caught:
                load(lines)
            errors.append((str(caught.value), caught.value.line_no))
        assert errors[0] == errors[1], (kind, lines)
        assert errors[0][1] == len(lines), (kind, lines)


def _named_parse(kind, source):
    """One loader's result read back by name, or its ParseError's
    ``(message, line)``: the form ``_line_oracle`` gives."""
    load = {"edges": load_follower_edges, "events": load_events, "topics": load_topic_map}[kind]
    try:
        got = load(source)
    except ParseError as exc:
        return str(exc).split(": ", 1)[1], exc.line_no
    return (oracles.assignment(got), got.topics) if kind == "topics" else oracles.named(got)


def _line_oracle(kind, lines):
    """The per-line oracle of one loader, its first ParseError as ``(message, line)``."""
    if kind == "topics":
        return oracles.topic_map_by_name(lines)
    try:
        return {"edges": oracles.load_follower_edges, "events": oracles.load_events}[kind](lines)
    except ParseError as exc:
        return str(exc).split(": ", 1)[1], exc.line_no


def _sources(lines):
    """``lines`` as a list and as text files with and without a last line break."""
    text = "\n".join(lines)
    return [lines, io.StringIO(text), io.StringIO(text + "\n")]


# (loader, lines) that parse: comments (indented too), whitespace-only
# lines, CRLF ends, padded fields, declared nodes, multi-tag lines with
# empty, #-prefixed and upper-case tags (a final sigma among them),
# times of 19 digits and more around 2^63, -0, and files of comments alone
_WELL_FORMED = [
    ("edges", ["# follows", "a\tb\r", "  # indented", " \t ", "", " c \t d ", "lonely", "b\ta\r\r"]),
    ("edges", ["\u00a0x\u3000\ty", "\u3000# unicode-indented comment", "x\tz", "# last"]),
    ("edges", ["# only", "  # comments", "\t"]),
    ("events", ["1\tA\t#x,#Y, ,#", "# c", " 2 \t B \t ##Z , x ", "3\tC\t,", "-0\tD\t#x\r",
                "-00\tD\t#w", "4\tΣA\t#ΑΣ,ΣΑ'Σ"]),
    ("events", [f"{2**63 - 1}\tA\tx", f"000{2**63 - 1}\tB\tx", f"{10**18}\tC\tx", "007\tD\tx"]),
    ("events", ["  # nothing", "\r", "# here"]),
    ("topics", ["X\tT1", "  # comment", "Y \t T2 \r", "x\tT1", "  Z\tT1", "ΑΣ\tT3"]),
    ("topics", ["# none"]),
]


@pytest.mark.parametrize("chunk", [None, 5])
@pytest.mark.parametrize("kind, lines", _WELL_FORMED)
def test_loaders_equal_line_oracles(kind, lines, chunk, monkeypatch):
    """Each loader, read back by name, equals its per-line oracle on the
    cases above, as a list of lines and as a text file with and without
    its last line break; a 5-character chunk splits lines across reads."""
    if chunk:
        monkeypatch.setattr(ingest, "_CHUNK", chunk)
    want = _line_oracle(kind, lines)
    assert not isinstance(want, tuple) or not isinstance(want[0], str), want
    for source in _sources(lines):
        assert _named_parse(kind, source) == want, (kind, lines)


# (loader, lines, the first bad line): the first bad line is not the last,
# or breaks two rules, and a field-count error follows another error
_FIRST_ERRORS = [
    ("edges", ["a\tb", "c\tc", "d\te\tf"], 2),
    ("edges", ["# c", "a\tb\tc", "d\td"], 2),
    ("edges", ["x", " \t b", "a\ta", "a\tb\tc"], 2),
    ("events", ["1\tA\t#x", "soon\tB\t#y", "2\tC"], 2),
    ("events", ["1\tA", "soon\tB\t#y"], 1),
    ("events", ["# c", "  ", "-5\tA\t#x", f"{2**63}\tB\t#y"], 3),
    ("events", [f"{2**63}\tA\t#x", "-5\tB\t#y"], 1),
    ("events", [f"0{2**63}\tA\t#x", "1\t\t#y"], 1),
    ("events", [f"{10**19}\tA\t#x", "x"], 1),
    ("events", [f"-{2**63}\tA\t#x", "x"], 1),
    ("events", ["1\t\t#x", "2\tB"], 1),
    ("events", ["-\tA\t#x", "1\tB"], 1),
    ("events", ["--1\t\t#x", "3\t\t#y"], 1),
    ("events", [" 1 \t A \t #x", "1_0\tB\t#y", "x"], 2),
    ("events", ["1\tA\t#x", "\t\t", "x\t\t"], 3),
    ("topics", ["x\tA", "y\tB", "X\tC", "z"], 3),
    ("topics", ["x\tA", "\tB", "x\tC"], 2),
    ("topics", ["x\tA\tB", "x\tA", "x\tB"], 1),
    ("topics", ["# c", "x\tA\r", "  ", "#x\tB", " X \t B"], 5),
]


@pytest.mark.parametrize("chunk", [None, 5])
@pytest.mark.parametrize("kind, lines, line", _FIRST_ERRORS)
def test_first_errors_equal_line_oracles(kind, lines, line, chunk, monkeypatch):
    """Each loader reports the ``(message, line)`` of its per-line oracle:
    the first bad line and the first rule it breaks, as a list and as a
    text file, in one chunk or across many."""
    if chunk:
        monkeypatch.setattr(ingest, "_CHUNK", chunk)
    want = _line_oracle(kind, lines)
    assert want[1] == line, want
    for source in _sources(lines):
        assert _named_parse(kind, source) == want, (kind, lines)


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


@pytest.mark.parametrize("body, problem", [
    ("edges = e\nevents = v\ntopics = t\nevents = w\n", r"^line 4: repeated manifest key 'events'$"),
    ("edges = e\nevents = \ntopics = t\n", r"^line 2: empty value for manifest key 'events'$"),
    ("edges = e\nevents = ''\ntopics = t\n", r"^line 2: empty value for manifest key 'events'$"),
])
def test_manifest_repeated_key_or_empty_value(tmp_path, body, problem):
    mpath = tmp_path / "dataset.manifest"
    mpath.write_text(body)
    with pytest.raises(ParseError, match=problem):
        load_manifest(mpath)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("terms", [
    [], [2.5], [-0.0], [-0.0, -0.0], [-0.0, 1e-300, -1e-300], [1e16, 1.0, -1e16, 1.0],
    [0.1] * 10, [math.inf, 1.0], [-math.inf, 2.0, math.inf], [1.0, math.nan, 2.0],
])
def test_ordered_sum_equals_float_sum(terms):
    """Bit for bit, with signed zeros, infinities and NaN."""
    assert ordered_sum(np.array(terms)).tobytes() == np.float64(oracles.float_sum(terms)).tobytes()


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_ordered_sum_along_each_axis_equals_float_sum():
    """Along each axis of a 3-d array, each line adds as ``float_sum`` does;
    one line along each axis is all -0.0, and some hold inf, -inf or NaN.
    Empty and one-term axes are covered by slicing."""
    rng = np.random.default_rng(11)
    a = rng.normal(size=(3, 4, 5)) * 10.0 ** rng.integers(-12, 13, size=(3, 4, 5))
    a[:, 0, 0] = a[1, :, 1] = a[2, 3, :] = -0.0
    a[0, 1, 2], a[1, 2, 3], a[2, 1, 4], a[0, 2, 2] = math.inf, -math.inf, math.nan, math.inf
    for part in (a, a[:0], a[:, :0], a[:, :, :0], a[:1], a[:, :1], a[:, :, :1]):
        for axis in range(3):
            lines = np.moveaxis(part, axis, -1)
            at = list(np.ndindex(lines.shape[:-1]))
            want = np.array([oracles.float_sum(lines[i].tolist()) for i in at], float)
            got = ordered_sum(part, axis)
            assert got.shape == lines.shape[:-1], (part.shape, axis)
            assert got.tobytes() == want.tobytes(), (part.shape, axis)


@pytest.mark.parametrize("columns", [1, 2, 3])
def test_run_starts_equals_loop(columns):
    """Over jointly sorted columns, True exactly where a row differs from the
    row above on some column; -0.0 and 0.0 are one value."""
    rng = np.random.default_rng(columns)
    pools = (np.arange(3), np.array([0.0, -0.0, 1.5]), np.arange(2))
    for n in (0, 1, 2, 9, 80):
        cols = [rng.choice(pool, n) for pool in pools[:columns]]
        order = np.lexsort(cols[::-1])
        cols = [c[order] for c in cols]
        rows = list(zip(*(c.tolist() for c in cols)))
        want = [i == 0 or rows[i] != rows[i - 1] for i in range(n)]
        got = run_starts(*cols)
        assert got.dtype == bool and got.tolist() == want, (columns, n)


def test_row_blocks_equal_greedy_loop():
    """Consecutive rows, in order, filled one row at a time while the slots
    stay within the cap; a row larger than the cap is a block alone, and
    no rows at all make one empty block."""
    rng = np.random.default_rng(5)
    for rows in (0, 1, 2, 7, 60):
        for cap in (0, 1, 3, 8, 40):
            sizes = rng.choice([0, 1, 2, 5, 9, 30], rows)
            indptr = np.concatenate(([0], np.cumsum(sizes)))
            want, lo = [], 0
            for hi in range(1, rows + 1):
                if hi - 1 > lo and indptr[hi] - indptr[lo] > cap:
                    want.append((lo, hi - 1))
                    lo = hi - 1
            want.append((lo, rows))
            assert row_blocks(indptr, cap) == want, (rows, cap, sizes)


LIBM_INPUTS = [0.5, -0.0, 3.0, 0.5, 0.0, -2.25, 700.0, 1e-300, 3.0, -0.0, 0.1, 0.0, -2.25]


@pytest.mark.parametrize("fn, args", [
    (math.pow, (2.0,)), (math.pow, (3.0,)), (math.exp, ()), (math.log, ()),
])
def test_libm_equals_math_per_element(fn, args):
    """Bit for bit with repeated inputs; -0.0 and 0.0 stay apart, which
    ``pow(x, 3.0)`` shows.  ``log`` takes the magnitudes of the nonzero
    inputs, since ``math.log`` raises at ±0.0."""
    x = [abs(v) for v in LIBM_INPUTS if v] if fn is math.log else LIBM_INPUTS
    want = np.array([fn(v, *args) for v in x])
    got = libm(fn, np.array(x), *(itertools.repeat(a) for a in args))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_libm_raises_as_math_does(zero):
    with pytest.raises(ValueError):
        math.log(zero)
    with pytest.raises(ValueError):
        libm(math.log, np.array([1.0, zero, 1.0]))
