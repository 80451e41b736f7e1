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
from itertools import repeat
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DataError
from .genotype import MetricKind, PairMetrics
from .ingest import gather_rows, libm, ordered_sum

__all__ = [
    "ErrorTable",
    "LeaveOneOutResult",
    "AccuracyCurve",
    "LogisticFit",
    "LooData",
    "prepare_loo",
    "leave_one_out",
    "accuracy_curve",
    "fit_logistic",
    "write_error_tables",
    "write_accuracy_rows",
]

VARIANCE_FLOOR = 1e-9


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


@dataclass(frozen=True, eq=False)
class LooData:
    """One metric's leave-one-hashtag-out folds as columns, shared by
    :func:`leave_one_out` and :func:`accuracy_curve`.

    Fold f holds out hashtag ``hashtags[f]``, an id into ``hashtag_names``,
    of topic ``true_topic[f]``, an id into ``topic_order``, with log priors
    ``prior_logs[f]``.  Its voters are ``voter[fold_ptr[f]:fold_ptr[f + 1]]``,
    user ids into :attr:`PairMetrics.users` in id (name) order, and
    ``evidence`` holds one row per voter.  ``train_errors`` and
    ``train_totals`` tally the train-side cases of all folds per topic id.
    """

    metric: MetricKind
    topic_order: tuple[str, ...]
    hashtag_names: tuple[str, ...]
    hashtags: np.ndarray
    true_topic: np.ndarray
    prior_logs: np.ndarray  # folds x K
    fold_ptr: np.ndarray
    voter: np.ndarray
    evidence: np.ndarray  # voters x K
    skipped: tuple[str, ...]
    train_errors: np.ndarray
    train_totals: np.ndarray


def _train_and_score(
    value: np.ndarray, topic: np.ndarray, row: np.ndarray, rows: int, kept: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Train one Gaussian discriminant per row on its kept slots; return
    which rows trained and each slot's evidence under its row's classifier.

    ``value``, ``topic`` and ``row`` hold one entry per slot, rows in
    order and each row's slots in its user's first-use order.  A row
    trains when its kept values span >= 2 topics and are not all equal.
    Per-topic means share one pooled variance, floored at 1e-9; priors
    are the per-topic shares of the kept slots.  The evidence
    ``log post(t) - log(1/K)`` is (slots, K), zero for topics the row has
    no values for and for rows that do not train.  Float sums add one
    term at a time in the order of the per-user loops they replace:
    slots in first-use order, topics in the order of their first kept
    slot.
    """
    at = (row[kept], topic[kept])
    count = np.bincount(at[0] * k + at[1], minlength=rows * k).reshape(rows, k)
    has = count > 0
    n = count.sum(axis=1)
    n_topics = has.sum(axis=1)
    first = np.full((rows, k), len(value))
    np.minimum.at(first, at, np.flatnonzero(kept))
    order = np.argsort(first, axis=1, kind="stable")
    lo, hi = np.full(rows, np.inf), np.full(rows, -np.inf)
    np.minimum.at(lo, at[0], value[kept])
    np.maximum.at(hi, at[0], value[kept])
    trained = (n_topics >= 2) & (lo != hi)

    mean = np.zeros((rows, k))
    np.add.at(mean, at, value[kept])
    mean /= np.maximum(count, 1)
    ss = np.zeros((rows, k))
    np.add.at(ss, at, libm(math.pow, value[kept] - mean[at], repeat(2.0)))
    ss_within = ordered_sum(np.take_along_axis(ss, order, axis=1), 1)
    variance = np.maximum(VARIANCE_FLOOR, ss_within / np.maximum(1, n - n_topics))
    log_prior = np.zeros((rows, k))
    fit = has & trained[:, None]
    log_prior[fit] = libm(math.log, (count / np.maximum(n, 1)[:, None])[fit])

    cell = fit[row]
    shape = cell.shape
    logs = np.full(shape, -np.inf)
    logs[cell] = log_prior[row][cell] - libm(
        math.pow, (value[:, None] - mean[row])[cell], repeat(2.0)
    ) / np.broadcast_to((2.0 * variance)[row, None], shape)[cell]
    top = logs.max(axis=1, initial=-np.inf)
    expd = np.zeros(shape)
    expd[cell] = libm(math.exp, logs[cell] - np.broadcast_to(top[:, None], shape)[cell])
    z = ordered_sum(np.take_along_axis(expd, order[row], axis=1), 1)
    post = expd[cell] / np.broadcast_to(z[:, None], shape)[cell]
    evidence = np.zeros(shape)
    evidence[cell] = libm(math.log, np.maximum(post, 1e-300)) + math.log(k)
    return trained, evidence


def prepare_loo(metric: MetricKind, pairs: PairMetrics) -> LooData:
    """Retrain every user affected by each held-out hashtag, once per metric.

    ``pairs`` is :func:`genonet.genotype.pair_metrics` of the dataset;
    pairs where ``metric`` is undefined cast no vote.  Hashtags whose
    topic has a single hashtag are skipped.  The train-side error counts
    of every fold are tallied here: each hashtag h' is scored by the base
    classifiers' summed evidence, less each affected user's base evidence
    and plus their fold evidence, in user-name order.

    Every user's voted pairs form one CSR row of slots in first-use
    order, as in the adoption index.  A fold gathers its affected users'
    rows, drops the held-out slot from training and scores all their
    slots at once, so only one fold's arrays exist at a time.
    """
    topic_order = pairs.topics
    k = len(topic_order)
    if k == 0:
        raise DataError("the topic map has no topics")
    tags = pairs.hashtags
    used, first = np.unique(pairs.hashtag, return_index=True)
    counts = np.bincount(pairs.topic[first], minlength=k)
    single = counts[pairs.topic[first]] < 2
    skipped = tuple(tags[h] for h in used[single].tolist())
    eligible = used[~single]
    tag_topic = pairs.topic[first][~single]
    n_tags = len(eligible)

    # CSR slots: rows in the users' first-vote order, each row's slots in
    # its user's first-use order
    value = pairs.values[:, list(MetricKind).index(metric)]
    voted = np.flatnonzero(~np.isnan(value) & (counts[pairs.topic] >= 2))
    voter = pairs.user[voted]
    _ids, first_vote, inverse, degree = np.unique(
        voter, return_index=True, return_inverse=True, return_counts=True
    )
    by_first = np.argsort(first_vote)
    row = np.argsort(by_first)[inverse]
    vote_col = np.searchsorted(eligible, pairs.hashtag[voted])
    by_row = np.argsort(row, kind="stable")
    indptr = np.concatenate(([0], np.cumsum(degree[by_first])))
    slot = voted[by_row]
    slot_row, slot_value, slot_topic = row[by_row], value[slot], pairs.topic[slot]
    col = vote_col[by_row]

    # slots come in row order, so each hashtag's evidence adds in row order
    base_ok, base_ev = _train_and_score(slot_value, slot_topic, slot_row, len(degree),
                                        np.ones(len(voted), dtype=bool), k)
    base_sum = np.zeros((n_tags, k))
    np.add.at(base_sum, col, base_ev)
    base_voters = np.bincount(col[base_ok[slot_row]], minlength=n_tags)

    # each hashtag's voters in user-name (id) order
    by_tag = np.lexsort((voter, vote_col))
    bounds = np.searchsorted(vote_col[by_tag], np.arange(n_tags + 1))
    log_rest = math.log(max(n_tags - 1, 1))
    prior_logs = np.empty((n_tags, k))
    fold_ok = np.zeros(len(voted), dtype=bool)
    evidence = np.zeros((len(voted), k))
    train_errors = np.zeros(k, dtype=np.int64)
    train_totals = np.zeros(k, dtype=np.int64)
    for c in range(n_tags):
        span = slice(bounds[c], bounds[c + 1])
        r = row[by_tag[span]]
        ptr, at = gather_rows(indptr, r)
        fold_row = np.repeat(np.arange(len(r)), np.diff(ptr))
        kept = col[at] != c
        ok, ev = _train_and_score(slot_value[at], slot_topic[at], fold_row, len(r), kept, k)
        fold_ok[span], evidence[span] = ok, ev[~kept]
        true_topic = int(tag_topic[c])
        prior_logs[c] = [
            math.log(max(int(cnt) - (t == true_topic), 1e-300)) - log_rest
            for t, cnt in enumerate(counts.tolist())
        ]

        # train side: every other hashtag under this fold's classifiers
        tag, kept_at = col[at][kept], at[kept]
        scores = _train_scores(prior_logs[c], base_sum, tag, base_ev[kept_at], ev[kept])
        voters = (base_voters + np.bincount(tag[ok[fold_row[kept]]], minlength=n_tags)
                  - np.bincount(tag[base_ok[slot_row[kept_at]]], minlength=n_tags))
        wrong = (voters <= 0) | (scores.argmax(axis=1) != tag_topic)
        others = np.arange(n_tags) != c
        train_errors += np.bincount(tag_topic[wrong & others], minlength=k)
        train_totals += np.bincount(tag_topic[others], minlength=k)

    return LooData(
        metric=metric,
        topic_order=tuple(topic_order),
        hashtag_names=tags,
        hashtags=eligible,
        true_topic=tag_topic,
        prior_logs=prior_logs,
        fold_ptr=np.concatenate(([0], np.cumsum(fold_ok)))[bounds],
        voter=voter[by_tag][fold_ok],
        evidence=evidence[fold_ok],
        skipped=skipped,
        train_errors=train_errors,
        train_totals=train_totals,
    )


def _train_scores(prior_logs: np.ndarray, base_sum: np.ndarray, tag: np.ndarray,
                  old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """One fold's train-side scores, hashtags x K: the prior plus the base
    classifiers' evidence sum plus the fold's change.  The change adds,
    slot by slot in row order, each kept slot's ``old`` (base) evidence
    negated and then its ``new`` (fold) evidence, at the slot's hashtag
    ``tag``."""
    change = np.zeros_like(base_sum)
    np.add.at(change, np.repeat(tag, 2), np.stack((-old, new), axis=1).reshape(-1, old.shape[1]))
    return prior_logs + base_sum + change


def _consensus(data: LooData, take: np.ndarray) -> np.ndarray:
    """Each fold's voted topic id from the voters flagged in ``take``, or -1
    where none is flagged.  Each fold's flagged evidence rows are added in
    voter order, then its prior; ties go to the first topic."""
    n_folds = len(data.hashtags)
    fold = np.repeat(np.arange(n_folds), np.diff(data.fold_ptr))[take]
    scores = np.zeros((n_folds, len(data.topic_order)))
    np.add.at(scores, fold, data.evidence[take])
    voted = np.argmax(scores + data.prior_logs, axis=1)
    return np.where(np.bincount(fold, minlength=n_folds) > 0, voted, -1)


def _share(part: np.ndarray, whole: np.ndarray) -> np.ndarray:
    """``part / whole`` elementwise, 0.0 where ``whole`` is 0."""
    return np.divide(part, whole, out=np.zeros(len(part)), where=whole > 0)


def _error_table(
    per_topic: np.ndarray, counts: np.ndarray, topic_order: Sequence[str]
) -> ErrorTable:
    """The table of error rates ``per_topic`` over ``counts`` hashtags per
    topic id; its E[x] adds the rates times the counts in topic order."""
    total = int(counts.sum())
    expected = float(ordered_sum(per_topic * counts)) / total if total else 0.0
    return ErrorTable(per_topic=dict(zip(topic_order, per_topic.tolist())),
                      counts=dict(zip(topic_order, counts.tolist())), expected=expected)


def leave_one_out(data: LooData) -> LeaveOneOutResult:
    """Leave-one-hashtag-out validation of the consensus classifier.

    Returns train/test error tables plus the Random baseline (error
    1 - topic's hashtag share).  Held-out hashtags with no voters count
    as misclassified.
    """
    topic_order, truth, k = data.topic_order, data.true_topic, len(data.topic_order)
    voted = _consensus(data, np.ones(len(data.voter), dtype=bool))
    test_totals = np.bincount(truth, minlength=k)
    test_errors = np.bincount(truth[voted != truth], minlength=k)
    predictions = {
        data.hashtag_names[h]: (topic_order[t], topic_order[v] if v >= 0 else None)
        for h, t, v in zip(data.hashtags.tolist(), truth.tolist(), voted.tolist())
    }
    share = _share(test_totals, test_totals.sum())
    return LeaveOneOutResult(
        metric=data.metric,
        train=_error_table(_share(data.train_errors, data.train_totals), data.train_totals,
                           topic_order),
        test=_error_table(_share(test_errors, test_totals), test_totals, topic_order),
        random=_error_table(1.0 - share, test_totals, topic_order),
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
    population, member = np.unique(data.voter, return_inverse=True)
    for s in sizes:
        if s <= 0:
            raise DataError(f"ensemble size must be positive, got {s}")
        if s > len(population):
            raise DataError(
                f"ensemble size {s} exceeds available users ({len(population)})"
            )
    rng = np.random.default_rng(seed)
    truth = data.true_topic
    per_topic_n = np.bincount(truth, minlength=len(data.topic_order)).tolist()
    n_folds = len(truth)
    points: list[tuple[int, float]] = []
    rows: list[tuple[str, int, int, float]] = []
    for s in sizes:
        rep_acc = []
        for rep in range(repetitions):
            mask = np.zeros(len(population), dtype=bool)
            mask[rng.choice(len(population), size=s, replace=False)] = True
            hit = truth[_consensus(data, mask[member]) == truth]
            rep_acc.append(len(hit) / n_folds if n_folds else 0.0)
            per_topic_ok = np.bincount(hit, minlength=len(data.topic_order)).tolist()
            for t, ok, n in zip(data.topic_order, per_topic_ok, per_topic_n):
                if n:
                    rows.append((t, s, rep, ok / n))
        points.append((s, float(ordered_sum(rep_acc)) / len(rep_acc)))
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
    ordered, mid = np.sort(lx).tolist(), len(lx) // 2
    # np.median's value without its numpy.ma import: the mean of the two
    # middle values is their sum over 2
    median = ordered[mid] if len(lx) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
    starts = [
        (1.0, median),
        (0.5, float(lx.min())),
        (2.0, float(lx.max())),
        (-1.0, median),
    ]
    best: tuple[float, float, float, float] | None = None
    # a residual may square to inf, which the stop rule reads as no
    # improvement; entered once here, not in each of the ~13,000 sse calls
    with np.errstate(over="ignore"):
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
