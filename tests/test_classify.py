import math
import tracemalloc

import numpy as np
import pytest

from genonet import classify
from genonet.classify import (
    _fminbound,
    accuracy_curve,
    fit_logistic,
    leave_one_out,
    prepare_loo,
)
from genonet.errors import DataError
from genonet.genotype import MetricKind, PairMetrics, pair_metrics
from genonet.ingest import (
    TopicMap,
    build_adoption_index,
    load_events,
    load_follower_edges,
    load_topic_map,
)
from genonet.syngen import generate

import datasets
import oracles
from oracles import (
    DegenerateTrainingError,
    LocalClassifier,
    TrainingError,
    classify_local,
    nb_consensus,
    train_local,
)


def rows(topic_values):
    out = []
    i = 0
    for topic, values in topic_values.items():
        for v in values:
            out.append((f"h{i}", topic, v))
            i += 1
    return out


def test_train_local_threshold_at_midpoint():
    c = train_local("u", MetricKind.LAT, rows({"t1": [1, 1, 1], "t2": [5, 5, 5]}))
    at = classify_local(c, 3.0)
    assert at["t1"] == pytest.approx(0.5, abs=1e-9)
    below = classify_local(c, 2.999)
    above = classify_local(c, 3.001)
    assert max(below, key=below.get) == "t1"
    assert max(above, key=above.get) == "t2"


def test_train_local_single_value_per_topic():
    c = train_local("u", MetricKind.LAT, rows({"t1": [0.0], "t2": [10.0]}))
    post = classify_local(c, 4.0)
    assert max(post, key=post.get) == "t1"


def test_priors_from_counts():
    c = train_local("u", MetricKind.LAT, rows({"t1": [1, 2, 3], "t2": [9]}))
    assert c.priors == {"t1": 0.75, "t2": 0.25}


def test_train_local_errors():
    with pytest.raises(TrainingError):
        train_local("u", MetricKind.LAT, rows({"t1": [1.0, 2.0]}))
    with pytest.raises(DegenerateTrainingError):
        train_local("u", MetricKind.LAT, rows({"t1": [3.0], "t2": [3.0, 3.0]}))


def test_posterior_sums_to_one_and_shift_invariance():
    c = train_local("u", MetricKind.LAT, rows({"t1": [0, 1], "t2": [4, 5], "t3": [9]}))
    post = classify_local(c, 2.2)
    assert sum(post.values()) == pytest.approx(1.0, abs=1e-12)
    # softmax of the log scores is invariant to a shared additive constant
    logs = {
        t: math.log(c.priors[t]) - (2.2 - m) ** 2 / (2 * c.pooled_variance)
        for t, (m, _n) in c.class_stats.items()
    }
    shifted = {t: v + 123.456 for t, v in logs.items()}
    z = sum(math.exp(v - max(shifted.values())) for v in shifted.values())
    manual = {
        t: math.exp(v - max(shifted.values())) / z for t, v in shifted.items()
    }
    for t in post:
        assert post[t] == pytest.approx(manual[t], abs=1e-12)


def test_posterior_equidistant_and_prior_pass_through():
    c = train_local("u", MetricKind.LAT, rows({"t1": [0, 0], "t2": [10, 10]}))
    post = classify_local(c, 5.0)
    assert post["t1"] == pytest.approx(0.5, abs=1e-12)
    skew = LocalClassifier(
        owner="u",
        metric=MetricKind.LAT,
        class_stats={"t1": (0.0, 9), "t2": (10.0, 1)},
        pooled_variance=1.0,
        priors={"t1": 0.9, "t2": 0.1},
    )
    post = classify_local(skew, 5.0)
    assert post["t1"] == pytest.approx(0.9, abs=1e-12)
    assert post["t2"] == pytest.approx(0.1, abs=1e-12)


def _clf_with_posterior_at_zero(p1: float) -> LocalClassifier:
    # equal priors, unit variance: posterior(t1)/posterior(t2) at value 0
    # is exp((m2^2 - m1^2)/2)
    m2 = 3.0
    m1 = math.sqrt(m2 * m2 - 2.0 * math.log(p1 / (1 - p1)))
    return LocalClassifier(
        owner="u",
        metric=MetricKind.LAT,
        class_stats={"t1": (m1, 1), "t2": (m2, 1)},
        pooled_variance=1.0,
        priors={"t1": 0.5, "t2": 0.5},
    )


def test_nb_consensus_hand_product():
    users = [
        (_clf_with_posterior_at_zero(0.6), 0.0),
        (_clf_with_posterior_at_zero(0.6), 0.0),
        (_clf_with_posterior_at_zero(0.1), 0.0),
    ]
    res = nb_consensus("h", users, topic_order=("t1", "t2"))
    assert res.predicted_topic == "t2"
    # scores differ by log(0.144 / 0.036) = log 4
    gap = res.log_scores["t2"] - res.log_scores["t1"]
    assert gap == pytest.approx(math.log(4.0), abs=1e-9)
    assert res.contributing_users == 3


def test_nb_consensus_single_user_and_unanimity():
    one = [(_clf_with_posterior_at_zero(0.8), 0.0)]
    assert nb_consensus("h", one, ("t1", "t2")).predicted_topic == "t1"
    many = [(_clf_with_posterior_at_zero(0.9), 0.0) for _ in range(4)]
    assert nb_consensus("h", many, ("t1", "t2")).predicted_topic == "t1"


def test_nb_consensus_tie_breaks_by_topic_order():
    tied = [(_clf_with_posterior_at_zero(0.5), 0.0)]
    assert nb_consensus("h", tied, ("t1", "t2")).predicted_topic == "t1"
    assert nb_consensus("h", tied, ("t2", "t1")).predicted_topic == "t2"


def test_nb_consensus_empty_errors():
    with pytest.raises(DataError):
        nb_consensus("h", [], ("t1", "t2"))


def test_nb_consensus_prior_counts_once():
    users = [(_clf_with_posterior_at_zero(0.5), 0.0) for _ in range(5)]
    res = nb_consensus("h", users, ("t1", "t2"), global_prior={"t1": 0.9, "t2": 0.1})
    # all users neutral: the decision is the global prior alone
    gap = res.log_scores["t1"] - res.log_scores["t2"]
    assert gap == pytest.approx(math.log(9.0), abs=1e-9)


def _dataset(params):
    d = generate(params)
    index = build_adoption_index(d.events, d.network, d.topics)
    return d, index


def _pairs(d, index):
    return pair_metrics(index)


def _column(metric, pairs):
    """One metric's defined values, keyed by (user, hashtag)."""
    return {key: row[metric] for key, row in oracles.metric_rows(pairs).items() if metric in row}


def test_loo_perfectly_separated_zero_error():
    d, index = _dataset(datasets.time_separated_params(0))
    res = leave_one_out(prepare_loo(MetricKind.TIME, _pairs(d, index)))
    for topic, err in res.test.per_topic.items():
        assert err == 0.0, f"{topic}: {err}"
    assert res.test.expected == 0.0


def test_loo_train_error_low_on_separated_data():
    d, index = _dataset(datasets.time_separated_params(1))
    res = leave_one_out(prepare_loo(MetricKind.TIME, _pairs(d, index)))
    assert res.train.expected <= 0.05


def test_loo_shuffled_labels_match_random_baseline():
    diffs = []
    for seed in range(5):
        d, index = _dataset(datasets.time_separated_params(seed))
        rng = np.random.default_rng(seed + 500)
        labels = d.topics.topic.tolist()
        rng.shuffle(labels)
        shuffled = TopicMap(d.topics.hashtags, np.array(labels), d.topics.topics)
        pairs = pair_metrics(build_adoption_index(d.events, d.network, shuffled))
        res = leave_one_out(prepare_loo(MetricKind.TIME, pairs))
        diffs.append(res.test.expected - res.random.expected)
    assert abs(np.mean(diffs)) <= 0.1
    assert max(abs(x) for x in diffs) <= 0.25


def test_zero_separation_indistinguishable_from_random():
    """Two-sided binomial test at alpha=0.01 against the prior-draw model."""
    from scipy.stats import binomtest

    for seed in range(3):
        d, index = _dataset(
            datasets.classification_params(seed, shifts=datasets.FLAT_SHIFTS)
        )
        res = leave_one_out(prepare_loo(MetricKind.LAT, _pairs(d, index)))
        n = sum(res.test.counts.values())
        correct = round((1 - res.test.expected) * n)
        p0 = sum((c / n) ** 2 for c in res.test.counts.values())
        assert binomtest(correct, n, p0).pvalue >= 0.01


def test_random_baseline_even_shares():
    params = datasets.time_separated_params(2, n_topics=2)
    d, index = _dataset(params)
    res = leave_one_out(prepare_loo(MetricKind.TIME, _pairs(d, index)))
    for err in res.random.per_topic.values():
        assert err == pytest.approx(0.5)


def _assert_loo_equal(got, want, pairs):
    """The fold columns equal the oracle's folds byte for byte, with ids
    mapped to names through ``pairs``."""
    assert (got.metric, got.topic_order, got.skipped) == (want.metric, want.topic_order, want.skipped)
    assert (dict(zip(got.topic_order, got.train_errors.tolist())),
            dict(zip(got.topic_order, got.train_totals.tolist()))) == (
        want.train_errors, want.train_totals)
    assert got.hashtag_names == pairs.hashtags
    assert len(got.hashtags) == len(got.true_topic) == len(got.fold_ptr) - 1 == len(want.folds)
    assert got.fold_ptr[-1] == len(got.voter) == len(got.evidence)
    for f, g in enumerate(want.folds):
        lo, hi = got.fold_ptr[f], got.fold_ptr[f + 1]
        assert pairs.hashtags[got.hashtags[f]] == g.hashtag
        assert got.topic_order[got.true_topic[f]] == g.true_topic
        assert tuple(pairs.users[u] for u in got.voter[lo:hi].tolist()) == g.users
        assert got.evidence[lo:hi].shape == g.evidence.shape
        assert got.evidence[lo:hi].tobytes() == g.evidence.tobytes(), g.hashtag
        assert got.prior_logs[f].tobytes() == g.prior_logs.tobytes(), g.hashtag


def _training_cases(metric, pairs, skipped):
    """Which cases the users' training rows reach: one topic, identical
    values, a first row that is the only row of its topic, so that
    holding it out reorders a >= 2-topic classifier's topics, and a fold
    with no voters at all."""
    values = pairs.values[:, list(MetricKind).index(metric)].tolist()
    voted = {h for h, v in zip(pairs.hashtag.tolist(), values) if v == v}
    cases = set()
    if any(pairs.hashtags[h] not in skipped and h not in voted for h in pairs.hashtag.tolist()):
        cases.add("hashtag without voters")
    by_user: dict = {}
    for u, h, t, v in zip(pairs.user.tolist(), pairs.hashtag.tolist(),
                          pairs.topic.tolist(), values):
        if v == v and pairs.hashtags[h] not in skipped:
            by_user.setdefault(u, []).append((h, t, v))
    for u, rows in by_user.items():
        try:
            train_local(u, metric, rows)
        except DegenerateTrainingError:
            cases.add("identical values")
        except TrainingError:
            cases.add("one topic")
        topics = [t for _h, t, _v in rows]
        if topics.count(topics[0]) == 1 and len(set(topics)) >= 3:
            cases.add("reordered topics")
    return cases


def _seeded_logs():
    """(pairs, topics) of random logs where training fails both ways, a
    topic has a single hashtag, a held-out row reorders a user's topics, a
    hashtag has no voter (seed 0) and (seed 1) users hold about nine values
    per topic, enough for a pairwise sum to round differently from a
    sequential one."""
    for k in (2, 3, 4):
        for seed in range(3):
            rng = np.random.default_rng(1000 * k + seed)
            shape = (dict(n_users=10, n_hashtags=12 * k, n_lines=120 * k, edge_prob=0.4)
                     if seed == 1 else
                     dict(n_users=24, n_hashtags=3 * k + 1, n_lines=160, edge_prob=0.2))
            edge_lines, event_lines, topic_lines = oracles.random_log(
                rng, n_topics=k, max_time=60, **shape
            )
            if seed == 0:  # one adopter, so no TIME, N-PAR, F-PAR, LAT or LOG-LAT voter
                event_lines.append("0\tu0\thquiet")
                topic_lines.append("hquiet\ttopic0")
            if seed == 2 and k > 2:  # all but one hashtag of the last topic move
                last = f"topic{k - 1}"
                lines = [line for line in topic_lines if line.endswith(last)]
                topic_lines = [line.replace(last, "topic0") if line in lines[1:] else line
                               for line in topic_lines]
            net, events = load_follower_edges(edge_lines), load_events(event_lines)
            topics = load_topic_map(topic_lines)
            yield pair_metrics(build_adoption_index(events, net, topics)), topics


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_prepare_loo_equals_oracle():
    """The array program's fold columns and tallies equal the per-voter
    oracle's bit for bit on :func:`_seeded_logs`."""
    cases = set()
    for pairs, topics in _seeded_logs():
        for metric in MetricKind:
            want = oracles.prepare_loo(metric, pairs, topics)
            _assert_loo_equal(prepare_loo(metric, pairs), want, pairs)
            cases |= _training_cases(metric, pairs, set(want.skipped))
            if want.skipped:
                cases.add("single-hashtag topic")
    assert cases == {"one topic", "identical values", "single-hashtag topic",
                     "reordered topics", "hashtag without voters"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_side_scores_equal_oracle(monkeypatch):
    """Each fold's train-side scores equal the per-user oracle's bit for
    bit on :func:`_seeded_logs`: the fold's change adds each affected
    user's old evidence negated before their new evidence, user by user.
    The tallies alone cannot show this order, since it only moves scores
    by rounding."""
    got = []
    train_scores = classify._train_scores
    monkeypatch.setattr(
        classify, "_train_scores", lambda *a: got.append(train_scores(*a)) or got[-1]
    )
    compared = 0
    for pairs, topics in _seeded_logs():
        for metric in MetricKind:
            got.clear()
            want = []
            data = prepare_loo(metric, pairs)
            oracles.prepare_loo(metric, pairs, topics, train_scores=want)
            assert len(got) == len(want) == len(data.hashtags)
            names = [data.hashtag_names[h] for h in data.hashtags.tolist()]
            for scores, expected in zip(got, want):
                for name, row in expected.items():
                    assert scores[names.index(name)].tobytes() == row.tobytes(), name
                    compared += 1
    assert compared > 1000


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_consensus_equals_per_fold_oracle():
    """leave_one_out and accuracy_curve equal the per-fold loops over the
    oracle's folds for every metric, on the seeded logs and on the
    time-separated datasets, including folds without voters and samples
    that miss every voter of a fold."""
    cases = set()
    logs = list(_seeded_logs())
    for seed in range(3):
        d, index = _dataset(datasets.time_separated_params(seed, n_topics=2 + seed % 2))
        logs.append((_pairs(d, index), d.topics))
    for pairs, topics in logs:
        for metric in MetricKind:
            got = prepare_loo(metric, pairs)
            want = oracles.prepare_loo(metric, pairs, topics)
            assert leave_one_out(got) == oracles.leave_one_out(want)
            if any(not fold.users for fold in want.folds):
                cases.add("fold without voters")
            n = len({u for fold in want.folds for u in fold.users})
            if n == 0:
                continue
            kw = dict(sizes=sorted({1, max(1, n // 3), n}), repetitions=3, seed=n)
            assert accuracy_curve(got, **kw) == oracles.accuracy_curve(want, **kw)
            for _s, _rep, chosen in oracles.accuracy_samples(want, **kw):
                if any(fold.users and not chosen & set(fold.users) for fold in want.folds):
                    cases.add("sample misses a fold's voters")
    assert cases == {"fold without voters", "sample misses a fold's voters"}


def test_prepare_loo_memory_follows_the_slots():
    """One user who adopts all 200 hashtags among 2,000 users who adopt
    two each: ``prepare_loo`` allocates in proportion to the voted pairs
    times K, not to the users times the largest degree or the hashtags."""
    k, n_tags, n_users = 4, 200, 2001
    user = np.concatenate((np.zeros(n_tags, dtype=np.int64),
                           np.repeat(np.arange(1, n_users), 2)))
    hashtag = np.concatenate((np.arange(n_tags), np.arange(2 * (n_users - 1)) % n_tags))
    values = np.random.default_rng(2).random((len(user), len(MetricKind))) + 1.0
    pairs = PairMetrics(users=tuple(f"u{u:04d}" for u in range(n_users)),
                        hashtags=tuple(f"h{h:03d}" for h in range(n_tags)),
                        topics=tuple(f"t{t}" for t in range(k)),
                        user=user, hashtag=hashtag, topic=hashtag % k, values=values)
    tracemalloc.start()
    try:
        data = prepare_loo(MetricKind.TIME, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(data.voter) == n_tags  # the first user votes in every fold
    assert peak < 32 * 8 * len(user) * k, peak / (8 * len(user) * k)


def test_loo_matches_manual_holdout_protocol():
    """Oracle re-implementation of the protocol from the public ops; each
    fold's voters are the adopters that still train, in name order."""
    d, index = _dataset(datasets.time_separated_params(3, n_topics=2))
    metric = MetricKind.TIME
    pairs = _pairs(d, index)
    data = prepare_loo(metric, pairs)
    res = leave_one_out(data)
    ptr = data.fold_ptr.tolist()
    fold_users = {
        pairs.hashtags[h]: tuple(pairs.users[u] for u in data.voter[lo:hi].tolist())
        for h, lo, hi in zip(data.hashtags.tolist(), ptr, ptr[1:])
    }
    values = _column(metric, pairs)

    topic_of = oracles.assignment(d.topics).get
    used = [h for h in d.events.hashtags if topic_of(h)]
    counts = {t: 0 for t in d.topics.topics}
    for h in used:
        counts[topic_of(h)] += 1
    eligible = [h for h in used if counts[topic_of(h)] >= 2]

    pairs_by_user: dict = {}
    for (u, h), v in values.items():
        if h in set(eligible):
            pairs_by_user.setdefault(u, []).append((h, topic_of(h), v))

    for h in eligible:
        voters = []
        for u in sorted(u for (u, hh) in values if hh == h):
            training = [row for row in pairs_by_user.get(u, []) if row[0] != h]
            try:
                clf = train_local(u, metric, training)
            except TrainingError:
                continue
            voters.append((clf, values[(u, h)]))
        assert fold_users[h] == tuple(clf.owner for clf, _v in voters)
        truth, predicted = res.predictions[h]
        assert truth == topic_of(h)
        if not voters:
            assert predicted is None
            continue
        prior = {
            t: (counts[t] - (1 if t == truth else 0)) / (len(eligible) - 1)
            for t in d.topics.topics
        }
        manual = nb_consensus(h, voters, d.topics.topics, global_prior=prior)
        assert predicted == manual.predicted_topic


def test_loo_skips_singleton_topic_hashtags():
    from genonet.ingest import load_events, load_follower_edges, load_topic_map

    net = load_follower_edges(["a\tb", "c\tb"])
    events = load_events(
        [
            "0\ta\t#h1", "3\tb\t#h1",        # lonely topic
            "10\ta\t#h2", "13\tb\t#h2",
            "20\tc\t#h3", "24\tb\t#h3",
        ]
    )
    topics = load_topic_map(["h1\tlonely", "h2\tpair", "h3\tpair"])
    index = build_adoption_index(events, net, topics)
    pairs = pair_metrics(index)
    res = leave_one_out(prepare_loo(MetricKind.TIME, pairs))
    assert res.skipped == ("h1",)
    assert "h1" not in res.predictions
    assert res.test.counts["lonely"] == 0


def test_accuracy_curve_size_one_is_single_user_accuracy():
    """Every size-1 repetition equals some user's standalone accuracy."""
    d, index = _dataset(datasets.time_separated_params(7, n_topics=2))
    metric = MetricKind.TIME
    values = _column(metric, _pairs(d, index))

    topic_of = oracles.assignment(d.topics).get
    used = [h for h in d.events.hashtags if topic_of(h)]
    counts = {t: 0 for t in d.topics.topics}
    for h in used:
        counts[topic_of(h)] += 1
    eligible = [h for h in used if counts[topic_of(h)] >= 2]
    pairs_by_user: dict = {}
    for (u, h), v in values.items():
        if h in set(eligible):
            pairs_by_user.setdefault(u, []).append((h, topic_of(h), v))

    def single_user_accuracy(user):
        ok = 0
        for h in eligible:
            if (user, h) not in values:
                continue
            training = [r for r in pairs_by_user[user] if r[0] != h]
            try:
                clf = train_local(user, metric, training)
            except TrainingError:
                continue
            truth = topic_of(h)
            prior = {
                t: (counts[t] - (1 if t == truth else 0)) / (len(eligible) - 1)
                for t in d.topics.topics
            }
            res = nb_consensus(h, [(clf, values[(user, h)])], d.topics.topics,
                               global_prior=prior)
            if res.predicted_topic == truth:
                ok += 1
        return ok / len(eligible)

    per_user = {round(single_user_accuracy(u), 12) for u in pairs_by_user}
    # one repetition isolates a single sampled user's accuracy
    one = accuracy_curve(
        prepare_loo(metric, _pairs(d, index)),
        sizes=[1], repetitions=1, seed=3,
    )
    assert round(one.points[0][1], 12) in per_user
    # the mean over repetitions stays inside the single-user range
    many = accuracy_curve(
        prepare_loo(metric, _pairs(d, index)),
        sizes=[1], repetitions=12, seed=3,
    )
    assert min(per_user) - 1e-12 <= many.points[0][1] <= max(per_user) + 1e-12


def test_accuracy_curve_full_ensemble_equals_loo():
    d, index = _dataset(datasets.time_separated_params(4, n_topics=2))
    res = leave_one_out(prepare_loo(MetricKind.TIME, _pairs(d, index)))
    # population = everyone who ever votes
    values = _column(MetricKind.TIME, _pairs(d, index))
    curve = accuracy_curve(
        prepare_loo(MetricKind.TIME, _pairs(d, index)),
        sizes=[len({u for (u, _h) in values})], repetitions=2, seed=0,
    )
    # full sample can only fail if size exceeds the voting population
    assert curve.points[0][1] == pytest.approx(1.0 - res.test.expected, abs=1e-12)


def test_accuracy_curve_errors():
    d, index = _dataset(datasets.time_separated_params(5, n_topics=2))
    with pytest.raises(DataError):
        accuracy_curve(
            prepare_loo(MetricKind.TIME, _pairs(d, index)),
            sizes=[0], repetitions=1, seed=0,
        )
    with pytest.raises(DataError):
        accuracy_curve(
            prepare_loo(MetricKind.TIME, _pairs(d, index)),
            sizes=[10**6], repetitions=1, seed=0,
        )


def test_accuracy_curve_deterministic_in_seed():
    d, index = _dataset(datasets.time_separated_params(6, n_topics=2))
    kw = dict(sizes=[1, 4], repetitions=3, seed=11)
    c1 = accuracy_curve(prepare_loo(MetricKind.TIME, _pairs(d, index)), **kw)
    c2 = accuracy_curve(prepare_loo(MetricKind.TIME, _pairs(d, index)), **kw)
    assert c1 == c2


def test_fit_logistic_recovers_exact_curve():
    xs = [1, 2, 4, 8, 16, 32, 64, 128, 256]
    pts = [(x, 0.9 / (1 + math.exp(-2 * (math.log(x) - 1)))) for x in xs]
    fit = fit_logistic(pts)
    assert fit.residual <= 1e-4
    assert fit.l == pytest.approx(0.9, abs=1e-3)
    assert fit.k == pytest.approx(2.0, abs=1e-2)
    assert fit.x0 == pytest.approx(1.0, abs=1e-2)


def test_fit_logistic_flat_curve():
    pts = [(1, 0.7), (4, 0.7), (16, 0.7), (64, 0.7)]
    fit = fit_logistic(pts)
    # a flat input admits an exact fit whose curve is the constant itself
    assert fit.residual <= 1e-12
    for x, y in pts:
        assert oracles.logistic_value(fit, x) == pytest.approx(y, abs=1e-6)


def test_fit_logistic_increasing_points_nondecreasing_fit():
    pts = [(1, 0.2), (8, 0.5), (64, 0.8)]
    fit = fit_logistic(pts)
    values = [oracles.logistic_value(fit, x) for x, _y in pts]
    assert values == sorted(values)
    assert fit.k >= 0


def _logistic_point_sets(rng):
    """Seeded (size, accuracy) sets of 3-9 points in the shapes fits meet."""
    for i in range(200):
        n = int(rng.integers(3, 10))
        xs = np.sort(rng.choice(np.arange(1, 513), n, replace=False)).astype(float)
        shape = 5 if i == 199 else i % 5  # inf residuals never converge: one set
        if shape in (0, 1):  # noisy sigmoid, increasing or decreasing
            k = rng.uniform(0.3, 3.0) * (1 if shape == 0 else -1)
            ys = rng.uniform(0.5, 1.0) / (1 + np.exp(-k * (np.log(xs) - rng.uniform(0, 5))))
            ys = ys + rng.normal(0, 0.05, n)
        elif shape == 2:  # unstructured
            ys = rng.random(n)
        elif shape == 3:  # accuracies over 18 held-out hashtags
            ys = rng.integers(0, 19, n) / 18
        elif shape == 4:  # flat
            ys = np.full(n, float(rng.integers(0, 19)) / 18)
        else:  # squared residuals overflow to inf
            ys = rng.random(n) * 1e160
        yield list(zip(xs.tolist(), ys.tolist()))


def test_fit_logistic_equals_scipy_backed_fit():
    """The in-module bounded search reproduces the scipy-backed fit bit for bit."""
    pytest.importorskip("scipy.optimize")
    for pts in _logistic_point_sets(np.random.default_rng(23)):
        fit = fit_logistic(pts)
        assert (fit.l, fit.k, fit.x0, fit.residual) == oracles.fit_logistic_scipy(pts), pts


def _scalar_functions(rng):
    """Seeded 1-D (func, lo, hi, xatol, maxfun) cases for the bounded search."""
    for _ in range(60):
        c, s = rng.uniform(-10, 10), rng.uniform(0.1, 10)
        lo = rng.uniform(-12, 0)
        hi = lo + rng.uniform(1e-3, 20)
        xatol = float(rng.choice([1e-12, 1e-5, 1e-2]))
        yield lambda x, c=c, s=s: s * (x - c) ** 2, lo, hi, xatol, 500  # min may be outside
        yield lambda x, c=c: abs(x - c) ** 0.5 + math.sin(5 * x), lo, hi, xatol, 500
        yield lambda x, c=c: max(0.0, abs(x - c) - 2.0), lo, hi, xatol, 500  # plateau
        yield lambda x, c=c: math.nan if x > c else (x - c) ** 2, lo, hi, xatol, 500
        yield lambda x, c=c: math.inf if abs(x - c) > 1 else x * x, lo, hi, xatol, 500
        yield lambda x, c=c: (x - c) ** 2, lo, hi, xatol, int(rng.integers(1, 8))
    yield lambda x: 1.0, -3.0, 5.0, 1e-12, 500  # constant
    yield lambda x: x, 0.0, 1.0, 1e-12, 500  # minimum on the lower bound
    yield lambda x: -x, 0.0, 1.0, 1e-12, 500  # minimum on the upper bound
    yield lambda x: math.nan, 0.0, 1.0, 1e-12, 500
    yield lambda x: math.inf, 0.0, 1.0, 1e-12, 500
    yield lambda x: 2.0, 1.0, 1.0, 1e-12, 500  # empty interval


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def test_fminbound_equals_scipy_bounded():
    """Same minimiser, minimum and evaluation count as scipy's bounded method."""
    optimize = pytest.importorskip("scipy.optimize")
    for func, lo, hi, xatol, maxfun in _scalar_functions(np.random.default_rng(5)):
        want = optimize.minimize_scalar(
            func, bounds=(lo, hi), method="bounded",
            options={"xatol": xatol, "maxiter": maxfun},
        )
        x, fx, calls = _fminbound(func, lo, hi, xatol, maxfun)
        assert _same(x, float(want.x)) and _same(fx, float(want.fun)), (lo, hi, x, want)
        assert calls == want.nfev


def test_fit_logistic_errors():
    with pytest.raises(DataError):
        fit_logistic([(1, 0.5), (2, 0.6)])
    with pytest.raises(DataError):
        fit_logistic([(0, 0.5), (2, 0.6), (4, 0.7)])
    for bad in (math.inf, math.nan):
        with pytest.raises(DataError):
            fit_logistic([(1, 0.5), (2, 0.6), (bad, 0.7)])
