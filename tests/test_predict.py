import numpy as np
import pytest

from genonet.errors import DataError
from genonet.ingest import (
    Event,
    EventLog,
    build_adoption_index,
    load_events,
    load_follower_edges,
    load_topic_map,
)
from genonet.predict import (
    Direction,
    PredictionContext,
    PredictionInstance,
    PredictorKind,
    build_instances,
    evaluate,
    roc_auc,
    score_candidates,
)
from genonet.syngen import generate

import datasets


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
    index = build_adoption_index(events, net)
    return net, events, topics, index


def test_minimum_followee_threshold():
    net, events, topics, index = _fixture(9)
    ctx = PredictionContext(events, index, net, topics)
    assert build_instances(Direction.INFLUENCER, ctx) == []
    net, events, topics, index = _fixture(10)
    ctx = PredictionContext(events, index, net, topics)
    instances = build_instances(Direction.INFLUENCER, ctx)
    mine = [i for i in instances if i.user == "target" and i.hashtag == "x"]
    assert len(mine) == 1
    assert mine[0].truth == {"f0", "f1", "f2"}
    assert len(mine[0].candidates) == 10


def test_adopter_direction_truth():
    net, events, topics, index = _fixture(10)
    ctx = PredictionContext(events, index, net, topics)
    instances = build_instances(Direction.ADOPTER, ctx)
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
    index = build_adoption_index(events, net)
    ctx = PredictionContext(events, index, net, topics)
    assert build_instances(Direction.INFLUENCER, ctx) == []


def test_instances_ordered():
    d = generate(datasets.activity_params(0))
    index = build_adoption_index(d.events, d.network)
    ctx = PredictionContext(d.events, index, d.network, d.topics)
    instances = build_instances(Direction.INFLUENCER, ctx)
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
    index = build_adoption_index(events, net)
    ctx = PredictionContext(events, index, net, topics)
    inst = build_instances(Direction.INFLUENCER, ctx)[0]
    scores = score_candidates(PredictorKind.RECIPROCAL, inst, ctx)
    assert scores["f0"] == 1.0
    assert all(scores[c] == 0.0 for c in inst.candidates if c != "f0")


def test_act_excludes_target_hashtag():
    net, events, topics, index = _fixture(10)
    ctx = PredictionContext(events, index, net, topics)
    inst = next(
        i for i in build_instances(Direction.INFLUENCER, ctx)
        if i.user == "target" and i.hashtag == "x"
    )
    act = score_candidates(PredictorKind.ACT, inst, ctx)
    # f0 posted #x once and #y once; excluding #x leaves 1
    assert act["f0"] == 1.0
    assert act["f9"] == 0.0
    topic_act = score_candidates(PredictorKind.TOPIC_ACT, inst, ctx)
    assert topic_act["f0"] == 1.0


def test_rw_act_zero_topic_activity_scores_zero():
    net, events, topics, index = _fixture(10)
    ctx = PredictionContext(events, index, net, topics)
    inst = next(
        i for i in build_instances(Direction.INFLUENCER, ctx)
        if i.user == "target" and i.hashtag == "x"
    )
    rw = score_candidates(PredictorKind.RW_ACT, inst, ctx)
    assert rw["f9"] == 0.0  # no topic activity at all


def test_followee_follower_counts():
    net, events, topics, index = _fixture(10)
    ctx = PredictionContext(events, index, net, topics)
    inst = next(
        i for i in build_instances(Direction.INFLUENCER, ctx)
        if i.user == "target"
    )
    followees = score_candidates(PredictorKind.FOLLOWEES, inst, ctx)
    followers = score_candidates(PredictorKind.FOLLOWERS, inst, ctx)
    assert followees["f0"] == float(len(net.followees_of("f0")))
    assert followers["f0"] == float(len(net.followers_of("f0")))


def test_predictor_tag_parsing():
    assert PredictorKind.from_tag("topicact") is PredictorKind.TOPIC_ACT
    with pytest.raises(DataError, match="RWAct"):
        PredictorKind.from_tag("zzz")


def test_roc_auc_examples():
    assert roc_auc({"p": 2.0, "n": 1.0}, {"p"}) == 1.0
    assert roc_auc({"p": 1.0, "n": 2.0}, {"p"}) == 0.0
    # candidates {p,q,r}, truth {p,q}, scores q=3, r=2, p=1
    assert roc_auc({"q": 3.0, "r": 2.0, "p": 1.0}, {"p", "q"}) == 0.5
    with pytest.raises(DataError):
        roc_auc({"p": 1.0}, {"p"})
    with pytest.raises(DataError):
        roc_auc({"p": 1.0, "q": 2.0}, set())


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
        base = roc_auc(scores, truth)
        squashed = {c: np.tanh(s) + 7.0 for c, s in scores.items()}
        assert roc_auc(squashed, truth) == pytest.approx(base, abs=1e-12)
        flipped = roc_auc(scores, set(cands) - truth)
        assert flipped == pytest.approx(1.0 - base, abs=1e-12)


def test_all_tied_scores_auc_half():
    assert roc_auc({"a": 1.0, "b": 1.0, "c": 1.0}, {"a"}) == 0.5


def test_evaluate_single_instance():
    inst = PredictionInstance(
        user="u", hashtag="h", topic="T", direction=Direction.INFLUENCER,
        candidates=("a", "b"), truth=frozenset({"a"}),
    )
    net = load_follower_edges(["a\tu", "b\tu", "a\tb"])
    events = load_events(["0\ta\t#h", "5\tu\t#h"])
    topics = load_topic_map(["h\tT"])
    index = build_adoption_index(events, net)
    ctx = PredictionContext(events, index, net, topics)
    res = evaluate(PredictorKind.FOLLOWERS, [inst], ctx)
    assert res.per_topic["T"][1] == 1
    assert res.overall[0] == roc_auc(
        score_candidates(PredictorKind.FOLLOWERS, inst, ctx), inst.truth
    )


def test_degenerate_truth_instances_skipped():
    inst = PredictionInstance(
        user="u", hashtag="h", topic="T", direction=Direction.INFLUENCER,
        candidates=("a",), truth=frozenset({"a"}),
    )
    net = load_follower_edges(["a\tu"])
    events = load_events(["0\ta\t#h", "5\tu\t#h"])
    topics = load_topic_map(["h\tT"])
    index = build_adoption_index(events, net)
    ctx = PredictionContext(events, index, net, topics)
    res = evaluate(PredictorKind.FOLLOWERS, [inst], ctx)
    assert res.per_topic == {}


def test_scores_blind_to_target_hashtag():
    """Rebuilding the context without the target hashtag's events must
    not change any predictor's scores."""
    d = generate(datasets.activity_params(1))
    index = build_adoption_index(d.events, d.network)
    ctx = PredictionContext(d.events, index, d.network, d.topics)
    instances = build_instances(Direction.INFLUENCER, ctx)[:8]
    for inst in instances:
        filtered = EventLog(
            events=tuple(e for e in d.events.events if e.hashtag != inst.hashtag)
        )
        blind_index = build_adoption_index(filtered, d.network)
        blind_ctx = PredictionContext(filtered, blind_index, d.network, d.topics)
        for kind in PredictorKind:
            full = score_candidates(kind, inst, ctx)
            blind = score_candidates(kind, inst, blind_ctx)
            for c in inst.candidates:
                assert full[c] == pytest.approx(blind[c], abs=1e-12), (
                    kind, inst.hashtag, c,
                )


def test_random_scores_auc_near_half():
    d = generate(datasets.activity_params(2))
    index = build_adoption_index(d.events, d.network)
    ctx = PredictionContext(d.events, index, d.network, d.topics)
    instances = build_instances(Direction.INFLUENCER, ctx)
    rng = np.random.default_rng(0)
    aucs = []
    for inst in instances:
        if not inst.truth or len(inst.truth) == len(inst.candidates):
            continue
        scores = {c: float(rng.random()) for c in inst.candidates}
        aucs.append(roc_auc(scores, inst.truth))
    assert len(aucs) >= 200
    assert abs(np.mean(aucs) - 0.5) <= 0.05
