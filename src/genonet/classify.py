"""Per-user topic classifiers and the network-wide consensus vote.

Each (user, metric) pair gets a one-dimensional equal-variance Gaussian
discriminant over the topics the user has training values for.  The
network-wide vote combines the per-user posteriors as independent
evidence:

    score(t) = log prior(t) + sum_u [log post_u(t) - log(1/K)]

with K the total number of topics.  A user contributes the bracketed
term only for topics they trained on; for the rest their posterior is
taken to be the uniform 1/K, so the term vanishes and the user is
neutral.  The global prior is counted exactly once.

The leave-one-hashtag-out protocol withholds all pairs of one hashtag,
retrains the affected users, and classifies the held-out hashtag from
the votes of its adopters.  Hashtags that end up with zero contributing
voters count as misclassified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError, DegenerateTrainingError, TrainingError
from .genotype import MetricKind, PairMetrics, float_sum
from .ingest import TopicMap

__all__ = [
    "LocalClassifier",
    "ErrorTable",
    "LeaveOneOutResult",
    "AccuracyCurve",
    "LogisticFit",
    "LooData",
    "train_local",
    "classify_local",
    "prepare_loo",
    "leave_one_out",
    "accuracy_curve",
    "fit_logistic",
    "write_error_tables",
    "write_accuracy_rows",
]

VARIANCE_FLOOR = 1e-9


@dataclass(frozen=True)
class LocalClassifier:
    owner: str
    metric: MetricKind
    class_stats: Mapping[str, tuple[float, int]]  # topic -> (mean, count)
    pooled_variance: float
    priors: Mapping[str, float]


@dataclass(frozen=True)
class ErrorTable:
    per_topic: Mapping[str, float]
    counts: Mapping[str, int]
    expected: float


@dataclass(frozen=True)
class LeaveOneOutResult:
    metric: MetricKind
    train: ErrorTable
    test: ErrorTable
    random: ErrorTable
    predictions: Mapping[str, tuple[str, str | None]]  # hashtag -> (truth, predicted)
    skipped: tuple[str, ...]


@dataclass(frozen=True)
class AccuracyCurve:
    metric: MetricKind
    points: tuple[tuple[int, float], ...]  # (size, mean accuracy over reps)
    rows: tuple[tuple[str, int, int, float], ...]  # (topic, size, rep, accuracy)


@dataclass(frozen=True)
class LogisticFit:
    l: float
    k: float
    x0: float
    residual: float


def train_local(
    user: str,
    metric: MetricKind,
    training: Iterable[tuple[str, str, float]],
) -> LocalClassifier:
    """Fit the per-user discriminant from (hashtag, topic, value) rows.

    Per-topic means share one pooled variance (floored at 1e-9); priors
    are proportional to per-topic training counts.
    """
    by_topic: dict[str, list[float]] = {}
    for _hashtag, topic, value in training:
        by_topic.setdefault(topic, []).append(float(value))
    if len(by_topic) < 2:
        raise TrainingError(
            f"user {user!r} needs values from >=2 topics, got {len(by_topic)}"
        )
    all_values = [v for vals in by_topic.values() for v in vals]
    if min(all_values) == max(all_values):
        raise DegenerateTrainingError(
            f"user {user!r}: all {len(all_values)} training values identical"
        )
    n = len(all_values)
    t = len(by_topic)
    stats: dict[str, tuple[float, int]] = {}
    ss_within = 0.0
    for topic, vals in by_topic.items():
        mean = float_sum(vals) / len(vals)
        stats[topic] = (mean, len(vals))
        ss_within += float_sum((v - mean) ** 2 for v in vals)
    variance = max(VARIANCE_FLOOR, ss_within / max(1, n - t))
    priors = {topic: len(vals) / n for topic, vals in by_topic.items()}
    return LocalClassifier(
        owner=user,
        metric=metric,
        class_stats=stats,
        pooled_variance=variance,
        priors=priors,
    )


def classify_local(c: LocalClassifier, value: float) -> dict[str, float]:
    """Posterior over the classifier's trained topics, summing to 1."""
    logs: dict[str, float] = {}
    for topic, (mean, _count) in c.class_stats.items():
        logs[topic] = math.log(c.priors[topic]) - (value - mean) ** 2 / (
            2.0 * c.pooled_variance
        )
    top = max(logs.values())
    expd = {t: math.exp(v - top) for t, v in logs.items()}
    z = float_sum(expd.values())
    return {t: v / z for t, v in expd.items()}


def _evidence_vector(
    c: LocalClassifier, value: float, topic_order: Sequence[str]
) -> np.ndarray:
    """log post_u(t) - log(1/K) per topic, zero where the user is agnostic."""
    k = len(topic_order)
    post = classify_local(c, value)
    vec = np.zeros(k)
    log_uniform = -math.log(k)
    for i, topic in enumerate(topic_order):
        if topic in post:
            p = max(post[topic], 1e-300)
            vec[i] = math.log(p) - log_uniform
    return vec


def _argmax_topic(scores: np.ndarray, topic_order: Sequence[str]) -> str:
    best = 0
    for i in range(1, len(scores)):
        if scores[i] > scores[best]:
            best = i
    return topic_order[best]


@dataclass(frozen=True)
class _Fold:
    hashtag: str
    true_topic: str
    users: tuple[str, ...]
    evidence: np.ndarray  # len(users) x K
    prior_logs: np.ndarray


@dataclass(frozen=True)
class LooData:
    """One metric's leave-one-hashtag-out folds, shared by
    :func:`leave_one_out` and :func:`accuracy_curve`."""

    metric: MetricKind
    topic_order: tuple[str, ...]
    folds: tuple[_Fold, ...]
    skipped: tuple[str, ...]
    topic_counts: dict[str, int]
    train_errors: dict[str, int]
    train_totals: dict[str, int]


def _train_or_none(
    user: str, metric: MetricKind, rows: list[tuple[str, str, float]]
) -> LocalClassifier | None:
    try:
        return train_local(user, metric, rows)
    except TrainingError:
        return None


def prepare_loo(metric: MetricKind, pairs: PairMetrics, topics: TopicMap) -> LooData:
    """Retrain every user affected by each held-out hashtag, once per metric.

    ``pairs`` is :func:`genonet.genotype.pair_metrics` of the dataset;
    pairs where ``metric`` is undefined cast no vote.  Hashtags whose
    topic has a single hashtag are skipped.  The train-side error counts
    of every fold are tallied here.
    """
    topic_order = topics.topics
    k = len(topic_order)
    topic_pos = {t: i for i, t in enumerate(topic_order)}

    users, tags = pairs.users, pairs.hashtags
    used, first = np.unique(pairs.hashtag, return_index=True)
    counts = np.bincount(pairs.topic[first], minlength=k)
    topic_counts: dict[str, int] = dict(zip(topic_order, counts.tolist()))
    single = counts[pairs.topic[first]] < 2
    skipped = tuple(tags[h] for h in used[single].tolist())
    eligible = [tags[h] for h in used[~single].tolist()]
    n_eligible = len(eligible)

    # each user's rows in first-use order; each hashtag's voters in id order
    value = pairs.values[:, list(MetricKind).index(metric)]
    voted = np.flatnonzero(~np.isnan(value) & (counts[pairs.topic] >= 2))
    pairs_by_user: dict[str, list[tuple[str, str, float]]] = {}
    users_by_hashtag: dict[str, dict[str, float]] = {h: {} for h in eligible}
    for u, h, t, v in zip(pairs.user[voted].tolist(), pairs.hashtag[voted].tolist(),
                          pairs.topic[voted].tolist(), value[voted].tolist()):
        pairs_by_user.setdefault(users[u], []).append((tags[h], topic_order[t], v))
        users_by_hashtag[tags[h]][users[u]] = v
    users_by_hashtag = {h: dict(sorted(votes.items())) for h, votes in users_by_hashtag.items()}

    base_clf: dict[str, LocalClassifier | None] = {
        u: _train_or_none(u, metric, rows) for u, rows in pairs_by_user.items()
    }
    base_vec: dict[tuple[str, str], np.ndarray] = {}
    base_sum: dict[str, np.ndarray] = {h: np.zeros(k) for h in eligible}
    base_voters: dict[str, int] = {h: 0 for h in eligible}
    for u, rows in pairs_by_user.items():
        clf = base_clf[u]
        if clf is None:
            continue
        for h, _t, v in rows:
            vec = _evidence_vector(clf, v, topic_order)
            base_vec[(u, h)] = vec
            base_sum[h] += vec
            base_voters[h] += 1

    folds: list[_Fold] = []
    train_errors = {t: 0 for t in topic_order}
    train_totals = {t: 0 for t in topic_order}

    for h in eligible:
        true_topic = topics.topic_of(h)
        affected = users_by_hashtag[h]
        fold_clf: dict[str, LocalClassifier | None] = {}
        for u in affected:
            rows = [row for row in pairs_by_user[u] if row[0] != h]
            fold_clf[u] = _train_or_none(u, metric, rows)

        prior_logs = np.empty(k)
        for t in topic_order:
            cnt = topic_counts[t] - (1 if t == true_topic else 0)
            prior_logs[topic_pos[t]] = math.log(max(cnt, 1e-300)) - math.log(
                n_eligible - 1
            )

        contrib_users: list[str] = []
        contrib_rows: list[np.ndarray] = []
        for u in affected:
            clf = fold_clf[u]
            if clf is None:
                continue
            contrib_users.append(u)
            contrib_rows.append(
                _evidence_vector(clf, affected[u], topic_order)
            )
        evidence = (
            np.vstack(contrib_rows) if contrib_rows else np.zeros((0, k))
        )
        folds.append(
            _Fold(
                hashtag=h,
                true_topic=true_topic,
                users=tuple(contrib_users),
                evidence=evidence,
                prior_logs=prior_logs,
            )
        )

        # training-side classification under this fold's model: adjust the
        # precomputed sums only where an affected user also voted on h'
        deltas: dict[str, np.ndarray] = {}
        voter_deltas: dict[str, int] = {}
        for u in affected:
            new_clf = fold_clf[u]
            for h2, _t2, v2 in pairs_by_user[u]:
                if h2 == h:
                    continue
                old = base_vec.get((u, h2))
                if old is not None:
                    deltas[h2] = deltas.get(h2, np.zeros(k)) - old
                    voter_deltas[h2] = voter_deltas.get(h2, 0) - 1
                if new_clf is not None:
                    vec = _evidence_vector(new_clf, v2, topic_order)
                    deltas[h2] = deltas.get(h2, np.zeros(k)) + vec
                    voter_deltas[h2] = voter_deltas.get(h2, 0) + 1
        for h2 in eligible:
            if h2 == h:
                continue
            t2 = topics.topic_of(h2)
            train_totals[t2] += 1
            voters = base_voters[h2] + voter_deltas.get(h2, 0)
            if voters <= 0:
                train_errors[t2] += 1
                continue
            scores = prior_logs + base_sum[h2] + deltas.get(h2, 0.0)
            if _argmax_topic(scores, topic_order) != t2:
                train_errors[t2] += 1

    return LooData(
        metric=metric,
        topic_order=tuple(topic_order),
        folds=tuple(folds),
        skipped=skipped,
        topic_counts=topic_counts,
        train_errors=train_errors,
        train_totals=train_totals,
    )


def _error_table(
    errors: Mapping[str, int], totals: Mapping[str, int], topic_order: Sequence[str]
) -> ErrorTable:
    per_topic = {}
    counts = {}
    for t in topic_order:
        n = totals.get(t, 0)
        counts[t] = n
        per_topic[t] = errors.get(t, 0) / n if n else 0.0
    total = sum(counts.values())
    expected = (
        float_sum(per_topic[t] * counts[t] for t in topic_order) / total if total else 0.0
    )
    return ErrorTable(per_topic=per_topic, counts=counts, expected=expected)


def leave_one_out(data: LooData) -> LeaveOneOutResult:
    """Leave-one-hashtag-out validation of the consensus classifier.

    Returns train/test error tables plus the Random baseline (error
    1 - topic's hashtag share).  Held-out hashtags with no voters count
    as misclassified.
    """
    test_errors = {t: 0 for t in data.topic_order}
    test_totals = {t: 0 for t in data.topic_order}
    predictions: dict[str, tuple[str, str | None]] = {}
    for fold in data.folds:
        test_totals[fold.true_topic] += 1
        if len(fold.users) == 0:
            test_errors[fold.true_topic] += 1
            predictions[fold.hashtag] = (fold.true_topic, None)
            continue
        scores = fold.prior_logs + fold.evidence.sum(axis=0)
        predicted = _argmax_topic(scores, data.topic_order)
        predictions[fold.hashtag] = (fold.true_topic, predicted)
        if predicted != fold.true_topic:
            test_errors[fold.true_topic] += 1

    total = sum(test_totals.values())
    random_per_topic = {
        t: 1.0 - (test_totals[t] / total if total else 0.0) for t in data.topic_order
    }
    random_table = ErrorTable(
        per_topic=random_per_topic,
        counts=dict(test_totals),
        expected=(
            float_sum(random_per_topic[t] * test_totals[t] for t in data.topic_order) / total
            if total
            else 0.0
        ),
    )
    return LeaveOneOutResult(
        metric=data.metric,
        train=_error_table(data.train_errors, data.train_totals, data.topic_order),
        test=_error_table(test_errors, test_totals, data.topic_order),
        random=random_table,
        predictions=predictions,
        skipped=data.skipped,
    )


def accuracy_curve(
    data: LooData, sizes: Sequence[int], repetitions: int, seed: int
) -> AccuracyCurve:
    """Test accuracy of the consensus restricted to sampled voter subsets.

    For each size, ``repetitions`` uniform samples of users are drawn
    from everyone who votes in at least one fold.  Accuracy divides by
    the full test-hashtag count, so held-out hashtags none of the
    sampled users adopted count as incorrect; at full size this equals
    1 - E[x] of :func:`leave_one_out` on the same data.
    """
    if repetitions <= 0:
        raise DataError("repetitions must be positive")
    population = sorted({u for fold in data.folds for u in fold.users})
    for s in sizes:
        if s <= 0:
            raise DataError(f"ensemble size must be positive, got {s}")
        if s > len(population):
            raise DataError(
                f"ensemble size {s} exceeds available users ({len(population)})"
            )
    rng = np.random.default_rng(seed)
    pop_index = {u: i for i, u in enumerate(population)}
    fold_user_idx = [
        np.array([pop_index[u] for u in fold.users], dtype=int) for fold in data.folds
    ]
    n_folds = len(data.folds)
    points: list[tuple[int, float]] = []
    rows: list[tuple[str, int, int, float]] = []
    for s in sizes:
        rep_acc = []
        for rep in range(repetitions):
            chosen = rng.choice(len(population), size=s, replace=False)
            mask = np.zeros(len(population), dtype=bool)
            mask[chosen] = True
            correct = 0
            per_topic_ok: dict[str, int] = {t: 0 for t in data.topic_order}
            per_topic_n: dict[str, int] = {t: 0 for t in data.topic_order}
            for fold, idx in zip(data.folds, fold_user_idx):
                per_topic_n[fold.true_topic] += 1
                take = mask[idx]
                if not take.any():
                    continue
                scores = fold.prior_logs + fold.evidence[take].sum(axis=0)
                if _argmax_topic(scores, data.topic_order) == fold.true_topic:
                    correct += 1
                    per_topic_ok[fold.true_topic] += 1
            rep_acc.append(correct / n_folds if n_folds else 0.0)
            for t in data.topic_order:
                if per_topic_n[t]:
                    rows.append((t, s, rep, per_topic_ok[t] / per_topic_n[t]))
        points.append((s, float_sum(rep_acc) / len(rep_acc)))
    return AccuracyCurve(metric=data.metric, points=tuple(points), rows=tuple(rows))


# Brent's bounded minimiser, ported step for step from scipy 1.17's
# optimize._optimize._minimize_scalar_bounded (BSD-3-Clause, (c) SciPy
# Developers), so every fit equals the scipy-backed one bit for bit.
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))


def _fminbound(
    func: Callable[[float], float], lo: float, hi: float, xatol: float, maxfun: int = 500
) -> tuple[float, float, int]:
    """Minimise ``func`` over finite [lo, hi]; returns (x, func(x), evaluations).

    With finite bounds every step stays finite, whatever ``func`` returns,
    so scipy's ``np.sign(v) + (v == 0)`` is the plain sign with 0 -> +1.
    """
    a, b = lo, hi
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (1.0 if xm - xf >= 0.0 else -1.0)
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN_MEAN * e

        x = xf + (1.0 if rat >= 0.0 else -1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return xf, fx, num


def fit_logistic(points: Sequence[tuple[float, float]]) -> LogisticFit:
    """Least-squares fit of L / (1 + exp(-k(log x - x0))) to (size, accuracy).

    Coordinate descent: closed-form L, bounded 1-D searches for k and
    x0, from several deterministic starts.  Returns the parameters and
    the sum of squared residuals.
    """
    if len(points) < 3:
        raise DataError("fit_logistic needs at least 3 points")
    xs = np.array([float(p[0]) for p in points])
    ys = np.array([float(p[1]) for p in points])
    if not ((xs > 0) & (xs < math.inf)).all():  # the x0 search needs finite bounds
        raise DataError("sizes must be positive and finite")
    lx = np.log(xs)

    # np.clip and np.sum as bare ufunc calls: the same values, without the
    # Python-level dispatch that dominates on a handful of points
    def sigmoid(z: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(z, -500.0), 500.0)))

    def sse(l: float, k: float, x0: float) -> float:
        r = ys - l * sigmoid(k * (lx - x0))
        return float(np.add.reduce(r * r))

    def best_l(k: float, x0: float) -> float:
        f = sigmoid(k * (lx - x0))
        denom = float(np.dot(f, f))
        if denom <= 0:
            return float(ys.max())
        return float(np.dot(ys, f) / denom)

    lo, hi = float(lx.min()) - 50.0, float(lx.max()) + 50.0
    starts = [
        (1.0, float(np.median(lx))),
        (0.5, float(lx.min())),
        (2.0, float(lx.max())),
        (-1.0, float(np.median(lx))),
    ]
    best: tuple[float, float, float, float] | None = None
    for k, x0 in starts:
        l = best_l(k, x0)
        prev = sse(l, k, x0)
        for _ in range(200):
            k = _fminbound(lambda kk: sse(l, kk, x0), -60.0, 60.0, 1e-12)[0]
            x0 = _fminbound(lambda xx: sse(l, k, xx), lo, hi, 1e-12)[0]
            l = best_l(k, x0)
            cur = sse(l, k, x0)
            if not prev - cur >= 1e-15:  # NaN (inf - inf) is no improvement
                break
            prev = cur
        if best is None or prev < best[0]:
            best = (prev, l, k, x0)
    residual, l, k, x0 = best
    return LogisticFit(l=l, k=k, x0=x0, residual=residual)


def write_error_tables(
    results: Mapping[str, LeaveOneOutResult],
    topic_order: Sequence[str],
    which: str,
    fh,
) -> None:
    """Metric x topic error grid plus the E[x] column, TSV.

    ``which`` selects ``train`` or ``test`` tables; the Random baseline
    of the first result heads the grid.
    """
    fh.write("metric\t" + "\t".join(topic_order) + "\tE[x]\n")
    first = next(iter(results.values()), None)
    if first is not None:
        row = [f"{first.random.per_topic[t]!r}" for t in topic_order]
        fh.write("Random\t" + "\t".join(row) + f"\t{first.random.expected!r}\n")
    for name in sorted(results):
        table: ErrorTable = getattr(results[name], which)
        row = [f"{table.per_topic[t]!r}" for t in topic_order]
        fh.write(f"{name}\t" + "\t".join(row) + f"\t{table.expected!r}\n")


def write_accuracy_rows(
    curves: Mapping[str, AccuracyCurve],
    fh,
) -> None:
    fh.write("metric\ttopic\tsize\trepetition\taccuracy\n")
    for name in sorted(curves):
        for topic, size, rep, acc in curves[name].rows:
            fh.write(f"{name}\t{topic}\t{size}\t{rep}\t{acc!r}\n")
