import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from genonet import predict
from genonet.backbone import extract_backbone
from genonet.errors import DataError
from genonet.graph import pagerank
from genonet.ingest import (
    EventLog,
    TopicMap,
    build_adoption_index,
    load_events,
    load_follower_edges,
    load_topic_map,
    row_blocks,
)
from genonet.predict import (
    Direction,
    InstanceTable,
    PredictionContext,
    PredictorKind,
    build_instances,
    evaluate,
    roc_auc,
    score_candidates,
)
from genonet.syngen import PREFERENTIAL, GenParams, generate

import datasets
import oracles
from oracles import PredictionInstance


def built(direction, ctx):
    """``build_instances``, read back as named instances."""
    return oracles.table_instances(build_instances(direction, ctx), ctx, direction)


def scores_of(kind, inst, ctx):
    """One instance's scores by candidate, read off a one-instance table."""
    scores = score_candidates(kind, oracles.instance_table([inst], ctx), ctx)
    return dict(zip(inst.candidates, scores.tolist()))


def slots_table(truth, indptr):
    """An ``InstanceTable`` of the given truth flags and CSR offsets, its
    other columns zero: all that ``roc_auc`` reads."""
    zeros = np.zeros(len(indptr) - 1, np.int64)
    return InstanceTable(indptr, np.zeros(len(truth), np.int64), truth, zeros, zeros, zeros)


def auc_of(scores, truth):
    """``roc_auc`` of one candidate -> score map, as a one-instance table."""
    values = np.array(list(scores.values()), dtype=float)
    flags = np.array([c in truth for c in scores], dtype=bool)
    return roc_auc(values, slots_table(flags, np.array([0, len(values)])))[0]


def result_of(kind, direction, instances, ctx):
    table = oracles.instance_table(instances, ctx)
    return {r.predictor: r for r in evaluate(direction, table, ctx)}[kind]


def _fixture(n_followees):
    """One user ('target') with n followees; followees f0..f2 adopt early.

    The sibling hashtag #y also spreads along the same edges, so the
    #x-excluded backbone keeps the candidates non-isolated.
    """
    followees = [f"f{i}" for i in range(n_followees)]
    edge_lines = [f"{f}\ttarget" for f in followees]
    # a follower of the target, so adopter instances exist too
    edge_lines.append("target\taudience")
    event_lines = [f"{i}\tf{i}\t#x" for i in range(3)]  # f0,f1,f2 adopt early
    event_lines.append("5\tf0\t#x")  # f0 repeats: two #x posts, one #y post
    event_lines += [f"{i+10}\tf{i}\t#y" for i in range(3)]
    event_lines.append("50\ttarget\t#x")
    event_lines.append("60\taudience\t#x")
    event_lines.append("70\ttarget\t#y")
    event_lines.append("80\taudience\t#y")
    net = load_follower_edges(edge_lines)
    events = load_events(event_lines)
    topics = load_topic_map(["x\tT", "y\tT"])
    index = build_adoption_index(events, net, topics)
    return oracles.named(net), oracles.named(events), topics, index


def test_minimum_followee_threshold():
    net, events, topics, index = _fixture(9)
    ctx = PredictionContext(index)
    assert len(build_instances(Direction.INFLUENCER, ctx)) == 0
    net, events, topics, index = _fixture(10)
    ctx = PredictionContext(index)
    instances = built(Direction.INFLUENCER, ctx)
    mine = [i for i in instances if i.user == "target" and i.hashtag == "x"]
    assert len(mine) == 1
    assert mine[0].truth == {"f0", "f1", "f2"}
    assert len(mine[0].candidates) == 10


def test_adopter_direction_truth():
    net, events, topics, index = _fixture(10)
    ctx = PredictionContext(index)
    instances = built(Direction.ADOPTER, ctx)
    mine = [i for i in instances if i.user == "target" and i.hashtag == "x"]
    assert len(mine) == 1
    assert mine[0].candidates == ("audience",)
    assert mine[0].truth == {"audience"}


def test_isolated_candidates_drop_instance():
    # one hashtag only: excluding it empties the backbone, so the
    # non-isolation filter kills every instance
    followees = [f"f{i}" for i in range(10)]
    edge_lines = [f"{f}\ttarget" for f in followees]
    event_lines = [f"{i}\tf{i}\t#x" for i in range(3)] + ["50\ttarget\t#x"]
    net = load_follower_edges(edge_lines)
    events = load_events(event_lines)
    topics = load_topic_map(["x\tT"])
    index = build_adoption_index(events, net, topics)
    ctx = PredictionContext(index)
    assert len(build_instances(Direction.INFLUENCER, ctx)) == 0


def test_instances_ordered():
    d = generate(datasets.activity_params(0))
    index = build_adoption_index(d.events, d.network, d.topics)
    ctx = PredictionContext(index)
    instances = built(Direction.INFLUENCER, ctx)
    keys = [(i.topic, i.hashtag, i.user) for i in instances]
    assert keys == sorted(keys)


def test_reciprocal_scores():
    net = load_follower_edges(
        [f"f{i}\ttarget" for i in range(10)] + ["target\tf0"]
    )
    events = load_events(
        [f"{i}\tf{i}\t#x" for i in range(3)]
        + ["50\ttarget\t#x", "0\tf0\t#y", "60\ttarget\t#y"]
    )
    topics = load_topic_map(["x\tT", "y\tT"])
    index = build_adoption_index(events, net, topics)
    ctx = PredictionContext(index)
    inst = built(Direction.INFLUENCER, ctx)[0]
    scores = scores_of(PredictorKind.RECIPROCAL, inst, ctx)
    assert scores["f0"] == 1.0
    assert all(scores[c] == 0.0 for c in inst.candidates if c != "f0")


def test_act_excludes_target_hashtag():
    net, events, topics, index = _fixture(10)
    ctx = PredictionContext(index)
    inst = next(
        i for i in built(Direction.INFLUENCER, ctx)
        if i.user == "target" and i.hashtag == "x"
    )
    act = scores_of(PredictorKind.ACT, inst, ctx)
    # f0 posted #x once and #y once; excluding #x leaves 1
    assert act["f0"] == 1.0
    assert act["f9"] == 0.0
    topic_act = scores_of(PredictorKind.TOPIC_ACT, inst, ctx)
    assert topic_act["f0"] == 1.0


def test_rw_act_zero_topic_activity_scores_zero():
    net, events, topics, index = _fixture(10)
    ctx = PredictionContext(index)
    inst = next(
        i for i in built(Direction.INFLUENCER, ctx)
        if i.user == "target" and i.hashtag == "x"
    )
    rw = scores_of(PredictorKind.RW_ACT, inst, ctx)
    assert rw["f9"] == 0.0  # no topic activity at all


def test_followee_follower_counts():
    net, events, topics, index = _fixture(10)
    ctx = PredictionContext(index)
    inst = next(
        i for i in built(Direction.INFLUENCER, ctx)
        if i.user == "target"
    )
    followees = scores_of(PredictorKind.FOLLOWEES, inst, ctx)
    followers = scores_of(PredictorKind.FOLLOWERS, inst, ctx)
    assert followees["f0"] == float(sum(b == "f0" for _a, b in net.edges))
    assert followers["f0"] == float(sum(a == "f0" for a, _b in net.edges))


def test_roc_auc_examples():
    assert auc_of({"p": 2.0, "n": 1.0}, {"p"}) == 1.0
    assert auc_of({"p": 1.0, "n": 2.0}, {"p"}) == 0.0
    # candidates {p,q,r}, truth {p,q}, scores q=3, r=2, p=1
    assert auc_of({"q": 3.0, "r": 2.0, "p": 1.0}, {"p", "q"}) == 0.5
    with pytest.raises(DataError):
        auc_of({"p": 1.0}, {"p"})
    with pytest.raises(DataError):
        auc_of({"p": 1.0, "q": 2.0}, set())


def test_roc_auc_ties_and_monotone_invariance():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(3, 10))
        cands = [f"c{i}" for i in range(n)]
        scores = {c: float(rng.integers(0, 4)) for c in cands}
        k = int(rng.integers(1, n))
        truth = set(rng.choice(cands, size=k, replace=False))
        if len(truth) == n:
            continue
        base = auc_of(scores, truth)
        squashed = {c: np.tanh(s) + 7.0 for c, s in scores.items()}
        assert auc_of(squashed, truth) == pytest.approx(base, abs=1e-12)
        flipped = auc_of(scores, set(cands) - truth)
        assert flipped == pytest.approx(1.0 - base, abs=1e-12)


def test_all_tied_scores_auc_half():
    assert auc_of({"a": 1.0, "b": 1.0, "c": 1.0}, {"a"}) == 0.5


# (instances, score draw): ties, integral and fractional scores, negative
# scores and signed zeros, one instance, and scores far apart
AUC_TABLES = [
    (30, lambda rng, n: rng.integers(0, 4, n).astype(float)),
    (30, lambda rng, n: rng.integers(-3, 3, n) / 4.0),
    (30, lambda rng, n: rng.integers(-10**6, 10**6, n).astype(float)),
    (30, lambda rng, n: rng.choice([-0.0, 0.0, -1.0, 2.0], n)),
    (1, lambda rng, n: rng.integers(-2, 2, n).astype(float)),
    (1, lambda rng, n: rng.random(n)),
    (30, lambda rng, n: rng.choice([-2.0**60, 0.0, 3.0, 2.0**60], n)),
    (1100, lambda rng, n: rng.choice([0.0, 1.0, 2.0**53 - 2], n)),
]


@pytest.mark.parametrize("instances, draw", AUC_TABLES)
def test_roc_auc_equals_scalar_oracle(instances, draw):
    """Bit for bit each instance's AUC by ``oracles.roc_auc``, one ranking
    at a time, on seeded tables with ties."""
    rng = np.random.default_rng(instances)
    for _ in range(5):
        sizes = rng.integers(2, 12, size=instances)
        indptr = np.concatenate(([0], np.cumsum(sizes)))
        truth = rng.random(int(indptr[-1])) < 0.4
        truth[indptr[:-1]], truth[indptr[1:] - 1] = True, False  # one of each per instance
        scores = draw(rng, int(indptr[-1]))
        got = roc_auc(scores, slots_table(truth, indptr))
        want = [
            oracles.roc_auc(dict(enumerate(scores[lo:hi].tolist())), set(np.flatnonzero(truth[lo:hi]).tolist()))
            for lo, hi in zip(indptr[:-1].tolist(), indptr[1:].tolist())
        ]
        assert got.tobytes() == np.array(want).tobytes()


def test_evaluate_single_instance():
    inst = PredictionInstance(
        user="u", hashtag="h", topic="T", direction=Direction.INFLUENCER,
        candidates=("a", "b"), truth=frozenset({"a"}),
    )
    net = load_follower_edges(["a\tu", "b\tu", "a\tb"])
    events = load_events(["0\ta\t#h", "5\tu\t#h"])
    topics = load_topic_map(["h\tT"])
    index = build_adoption_index(events, net, topics)
    ctx = PredictionContext(index)
    res = result_of(PredictorKind.FOLLOWERS, Direction.INFLUENCER, [inst], ctx)
    assert res.per_topic["T"][1] == 1
    assert res.per_topic["T"][0] == auc_of(
        scores_of(PredictorKind.FOLLOWERS, inst, ctx), inst.truth
    )


def test_degenerate_truth_instances_skipped():
    inst = PredictionInstance(
        user="u", hashtag="h", topic="T", direction=Direction.INFLUENCER,
        candidates=("a",), truth=frozenset({"a"}),
    )
    net = load_follower_edges(["a\tu"])
    events = load_events(["0\ta\t#h", "5\tu\t#h"])
    topics = load_topic_map(["h\tT"])
    index = build_adoption_index(events, net, topics)
    ctx = PredictionContext(index)
    res = result_of(PredictorKind.FOLLOWERS, Direction.INFLUENCER, [inst], ctx)
    assert res.per_topic == {}


def test_scores_blind_to_target_hashtag():
    """Rebuilding the context without the target hashtag's events must
    not change any predictor's scores.  One post of the hashtag by a user
    outside the network keeps the hashtag in the blind index's id space."""
    d = generate(datasets.activity_params(1))
    index = build_adoption_index(d.events, d.network, d.topics)
    ctx = PredictionContext(index)
    instances = built(Direction.INFLUENCER, ctx)[:8]
    for inst in instances:
        rows = [e for e in oracles.named(d.events).events if e.hashtag != inst.hashtag]
        filtered = EventLog.from_rows(*zip(*rows, (0, "outsider", inst.hashtag)))
        blind_index = build_adoption_index(filtered, d.network, d.topics)
        blind_ctx = PredictionContext(blind_index)
        for kind in PredictorKind:
            full = scores_of(kind, inst, ctx)
            blind = scores_of(kind, inst, blind_ctx)
            for c in inst.candidates:
                assert full[c] == pytest.approx(blind[c], abs=1e-12), (
                    kind, inst.hashtag, c,
                )


def test_random_scores_auc_near_half():
    d = generate(datasets.activity_params(2))
    index = build_adoption_index(d.events, d.network, d.topics)
    ctx = PredictionContext(index)
    instances = built(Direction.INFLUENCER, ctx)
    rng = np.random.default_rng(0)
    aucs = []
    for inst in instances:
        if not inst.truth or len(inst.truth) == len(inst.candidates):
            continue
        scores = {c: float(rng.random()) for c in inst.candidates}
        aucs.append(oracles.roc_auc(scores, inst.truth))
    assert len(aucs) >= 200
    assert abs(np.mean(aucs) - 0.5) <= 0.05


def test_adopter_run_without_cases_is_labelled_adopter():
    net, events, topics, index = _fixture(9)  # too few followees: no cases
    ctx = PredictionContext(index)
    table = build_instances(Direction.ADOPTER, ctx)
    assert len(table) == 0
    results = evaluate(Direction.ADOPTER, table, ctx)
    assert [r.predictor for r in results] == list(PredictorKind)
    assert all(r.direction is Direction.ADOPTER and r.per_topic == {} for r in results)


def _syngen_index(params):
    d = generate(params)
    return build_adoption_index(d.events, d.network, d.topics)


# seeded uniform and preferential-attachment datasets, and one whose
# users all have too few followees, so that no instance qualifies
BLOCK_DATASETS = {
    "uniform": lambda: _syngen_index(datasets.activity_params(3)),
    "preferential": lambda: _syngen_index(GenParams(
        n_users=150, seed=5, graph_model=PREFERENTIAL, attach_count=12, n_topics=3,
        hashtags_per_topic=6, cascades_per_hashtag=8,
    )),
    "no instance": lambda: _fixture(9)[3],
}


def _tables_and_results(index):
    ctx = PredictionContext(index)
    tables = {d: build_instances(d, ctx) for d in Direction}
    return tables, {d: evaluate(d, tables[d], ctx) for d in Direction}


@pytest.mark.parametrize("name", BLOCK_DATASETS)
def test_blocks_move_no_table_column_or_result(name, monkeypatch):
    """One-instance blocks and blocks of a few slots give every table
    column and every result of the default budget, in both directions."""
    index = BLOCK_DATASETS[name]()
    tables, results = _tables_and_results(index)
    assert all(len(t) for t in tables.values()) == (name != "no instance")
    for slots in (0, 37):  # a budget of 0 slots cuts one instance per block
        monkeypatch.setattr(predict, "BLOCK_BYTES", slots * predict._SLOT_BYTES)
        got_tables, got_results = _tables_and_results(index)
        for d in Direction:
            assert len(row_blocks(tables[d].indptr, slots)) >= len(tables[d]) / 4  # many blocks
            for column in (f.name for f in fields(InstanceTable)):
                want, got = getattr(tables[d], column), getattr(got_tables[d], column)
                assert got.dtype == want.dtype and np.array_equal(got, want), (d, slots, column)
            assert got_results[d] == results[d], (d, slots)


def test_predict_memory_within_block_budget():
    """On a hubs-shaped dataset (preferential attachment, about 70 k
    influencer slots), ``build_instances`` and ``evaluate`` each peak at
    under twice ``BLOCK_BYTES`` of traced memory above the table they
    return or read.  Holding every slot at once peaks at 3.5 and 7.0 MB."""
    index = _syngen_index(GenParams(
        n_users=320, seed=7, graph_model=PREFERENTIAL, attach_count=12, n_topics=3,
        hashtags_per_topic=12, cascades_per_hashtag=30,
    ))
    ctx = PredictionContext(index)
    build_instances(Direction.INFLUENCER, ctx)  # the context caches its PageRank vectors
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        table = build_instances(Direction.INFLUENCER, ctx)
        table_bytes = sum(getattr(table, f.name).nbytes for f in fields(InstanceTable))
        build_peak = tracemalloc.get_traced_memory()[1] - start - table_bytes
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        evaluate(Direction.INFLUENCER, table, ctx)
        evaluate_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len(table.candidate) > 60_000
    assert build_peak < 2 * predict.BLOCK_BYTES, build_peak
    assert evaluate_peak < 2 * predict.BLOCK_BYTES, evaluate_peak


def _oracle_dataset(rng):
    """A seeded random log with small integer counts and many tied times,
    plus event-less isolated users z0-z3 and a hashtag alone in its topic,
    whose excluded backbone is empty."""
    edge_lines, event_lines, topic_lines = oracles.random_log(
        rng, n_users=36, n_hashtags=8, n_topics=2, n_lines=260, edge_prob=0.4, max_time=30
    )
    edge_lines += [f"z{i}" for i in range(4)]
    event_lines += [f"{int(rng.integers(0, 30))}\tu{i}\t#solo" for i in range(0, 36, 3)]
    topic_lines.append("solo\tlone")
    net = load_follower_edges(edge_lines)
    events = load_events(event_lines)
    topics = load_topic_map(topic_lines)
    index = build_adoption_index(events, net, topics)
    return oracles.named(net), oracles.named(events), topics, index


def _edge_case_instances(rng, instances, direction):
    """Hand-built instances: one positive, one negative, all scores tied
    and RWAct maxima 0 (event-less candidates off every backbone), and a
    hashtag whose excluded backbone is empty."""
    extra = []
    for inst in instances[:: max(1, len(instances) // 6)]:
        cands = inst.candidates
        if len(cands) < 2:
            continue
        extra.append(PredictionInstance(inst.user, inst.hashtag, inst.topic, direction,
                                        cands, frozenset(cands[:1])))
        extra.append(PredictionInstance(inst.user, inst.hashtag, inst.topic, direction,
                                        cands, frozenset(cands[1:])))
        extra.append(PredictionInstance(inst.user, inst.hashtag, inst.topic, direction,
                                        ("z0", "z1", "z2") + cands[:2], frozenset({"z1", cands[0]})))
    extra.append(PredictionInstance("u0", "h0", "topic0", direction,
                                    ("z0", "z1", "z2", "z3"), frozenset({"z2"})))
    users = tuple(f"u{i}" for i in rng.choice(36, size=7, replace=False))
    extra.append(PredictionInstance("u1", "solo", "lone", direction, users,
                                    frozenset(users[::2])))
    return extra


def test_table_equals_scalar_oracle():
    """Table scores, per-instance AUCs and per-topic means equal the
    per-instance dict computation bit for bit, for both directions and
    all six predictors."""
    rng = np.random.default_rng(2024)
    for _ in range(4):
        net, events, topics, index = _oracle_dataset(rng)
        ctx = PredictionContext(index)
        octx = oracles.PredictionOracleContext(events, net, topics)
        for direction in Direction:
            cases = built(direction, ctx)
            assert len(cases) >= 40
            instances = cases + _edge_case_instances(rng, cases, direction)
            table = oracles.instance_table(instances, ctx)
            kept = [i for i in instances if len(i.truth) < len(i.candidates)]
            kept_table = oracles.instance_table(kept, ctx)
            for kind in PredictorKind:
                scores = score_candidates(kind, table, ctx)
                for i, inst in enumerate(instances):
                    expected = oracles.score_candidates(kind, inst, octx)
                    got = scores[table.indptr[i]:table.indptr[i + 1]].tolist()
                    assert got == list(expected.values()), (kind, inst)
                aucs = roc_auc(score_candidates(kind, kept_table, ctx), kept_table).tolist()
                assert aucs == [
                    oracles.roc_auc(oracles.score_candidates(kind, inst, octx), inst.truth)
                    for inst in kept
                ], kind
            for res in evaluate(direction, table, ctx):
                assert res.direction is direction
                assert res.per_topic == oracles.mean_auc_per_topic(
                    res.predictor, instances, octx
                ), res.predictor
    # heavily tied random scores on random CSR lists
    for _ in range(300):
        sizes = rng.integers(2, 12, size=int(rng.integers(1, 30)))
        indptr = np.concatenate(([0], np.cumsum(sizes)))
        scores = rng.integers(0, 4, size=int(indptr[-1])) / 2.0
        truth = rng.random(int(indptr[-1])) < 0.4
        for a, b in zip(indptr[:-1], indptr[1:]):  # at least one of each per instance
            truth[a], truth[b - 1] = True, False
        got = roc_auc(scores, slots_table(truth, indptr)).tolist()
        assert got == [
            oracles.roc_auc({j: scores[j] for j in range(a, b)}, set(np.flatnonzero(truth[a:b]) + a))
            for a, b in zip(indptr[:-1], indptr[1:])
        ]


def test_build_instances_equals_brute_force_oracle():
    """Order, candidates and truth sets of both directions equal direct
    enumeration on seeded random logs with many tied first uses, also with
    the topics listed in reverse, so that their ids and their name order
    disagree."""
    rng = np.random.default_rng(808)
    tied = 0
    for _ in range(4):
        net, events, base, index = _oracle_dataset(rng)
        flipped = TopicMap(base.hashtags, len(base.topics) - 1 - base.topic, base.topics[::-1])
        for topics, direction in ((t, d) for t in (base, flipped) for d in Direction):
            ctx = PredictionContext(replace(
                index, topics=topics.topics, hashtag_topic=topics.topic_ids(index.hashtags)
            ))
            cases = built(direction, ctx)
            assert len(cases) >= 40
            assert cases == oracles.build_instances(direction, events, net, topics)
            first_use = oracles.index_dicts(index)["first_use"]
            tied += sum(
                first_use.get((c, i.hashtag)) == first_use[(i.user, i.hashtag)]
                for i in cases for c in i.candidates
            )
    assert tied >= 200  # 100 ties, each seen under both topic orders



def _pagerank_on_users(weights, ctx):
    """``graph.pagerank`` of a backbone's graph placed on user ids; zeros when empty."""
    out = np.zeros(len(ctx.index.users))
    g = datasets.from_edges(weights)
    if g.n:
        for node, value in oracles.by_node(g, pagerank(g.indptr, g.indices)).items():
            out[ctx.index.users.index(node)] = value
    return out.tolist()


def _excluded(ctx, hashtag):
    return ctx.excluded_pagerank(ctx.index.hashtags.index(hashtag)).tolist()


def test_excluded_pagerank_toy(toy):
    net, events, topics, index = toy
    ctx = PredictionContext(index)
    # x carried both weight-1 edges: its exclusion empties the backbone
    assert _excluded(ctx, "x") == [0.0] * len(ctx.index.users)
    # y created no precedence, so removing it changes nothing
    full = oracles.backbone_edges(extract_backbone("T", index))
    assert _excluded(ctx, "y") == _pagerank_on_users(full, ctx)
    assert any(_excluded(ctx, "y"))


def test_excluded_pagerank_keeps_weight_two_edge():
    net = load_follower_edges(["A\tB"])
    events = load_events(["0\tA\t#x", "1\tA\t#y", "5\tB\t#x", "6\tB\t#y", "7\tA\t#z"])
    topics = load_topic_map(["x\tT", "y\tT"])
    index = build_adoption_index(events, net, topics)
    assert oracles.backbone_edges(extract_backbone("T", index))[("A", "B")] == 2
    ctx = PredictionContext(index)
    assert _excluded(ctx, "y") == _pagerank_on_users({("A", "B"): 1}, ctx)
    with pytest.raises(DataError, match="no topic"):
        _excluded(ctx, "z")


def test_excluded_pagerank_equals_extract_on_reduced_map():
    rng = np.random.default_rng(21)
    for _ in range(5):
        edge_lines, event_lines, topic_lines = oracles.random_log(rng, n_users=12)
        net = load_follower_edges(edge_lines)
        events = load_events(event_lines)
        topics = load_topic_map(topic_lines)
        index = build_adoption_index(events, net, topics)
        ctx = PredictionContext(index)
        topic = topics.topics[0]
        for h in oracles.hashtags_for(topics, topic):
            keep = np.array([g != h for g in topics.hashtags], bool)
            others = tuple(g for g in topics.hashtags if g != h)
            without_h = TopicMap(others, topics.topic[keep], topics.topics)
            reduced = oracles.backbone_edges(
                extract_backbone(topic, build_adoption_index(events, net, without_h))
            )
            assert _excluded(ctx, h) == _pagerank_on_users(reduced, ctx)


def test_excluded_pagerank_equals_edge_scan_oracle():
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
        ctx = PredictionContext(index)
        triples, edges = oracles.named(events).events, oracles.named(net).edges
        for topic in topics.topics:
            hashtags = oracles.hashtags_for(topics, topic)
            for h in hashtags:
                want = oracles.backbone_weights(triples, edges, [g for g in hashtags if g != h])
                assert _excluded(ctx, h) == _pagerank_on_users(want, ctx)
