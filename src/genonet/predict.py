"""Influencer/adopter candidate ranking and ROC-AUC evaluation.

A prediction instance is one (user, hashtag) adoption; candidates are
the user's followees (influencer direction) or followers (adopter
direction), and the positives are the candidates that adopted strictly
before (influencers) or after (adopters) the user.  Every predictor is
blind to the target hashtag: activity counts drop its posts and the
backbone drops its precedence edges before any score is computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError
from .graph import pagerank_arrays
from .ingest import AdoptionIndex, EventLog, FollowerNetwork, TopicMap

__all__ = [
    "Direction", "PredictorKind", "PredictionContext", "InstanceTable",
    "build_instances", "score_candidates", "roc_auc", "evaluate",
    "EvaluationResult", "write_evaluation_tsv", "MIN_FOLLOWEES",
]

MIN_FOLLOWEES = 10


class Direction(Enum):
    INFLUENCER = "influencer"
    ADOPTER = "adopter"


class PredictorKind(Enum):
    FOLLOWEES = "Followees"
    FOLLOWERS = "Followers"
    RECIPROCAL = "Reciprocal"
    ACT = "Act"
    TOPIC_ACT = "TopicAct"
    RW_ACT = "RWAct"


class PredictionContext:
    """Shared inputs as numpy columns over one sorted user order.

    Per user: followee, follower and event counts, event counts per topic
    and per hashtag, and the sorted followee and follower id lists.  Per
    adopted (user, hashtag) pair, and per precedence triple (hashtag,
    followee, follower) of the adoption index: id columns.  Per hashtag,
    on first use: the PageRank vector of the hashtag-excluded backbone,
    which is zero exactly off its nodes.
    """

    def __init__(
        self, events: EventLog, index: AdoptionIndex, net: FollowerNetwork, topics: TopicMap
    ):
        self.topics = topics
        self.users = tuple(sorted(net.nodes | events.users))
        self.user_ids = {u: i for i, u in enumerate(self.users)}
        self.hashtags = tuple(sorted(events.hashtags | topics.assignment.keys()))
        self.hashtag_ids = {h: i for i, h in enumerate(self.hashtags)}
        n, n_tags, n_topics = len(self.users), len(self.hashtags), len(topics.topics)
        # a hashtag without a topic counts in an extra last topic column
        topic_ids = {t: i for i, t in enumerate(topics.topics)}
        self.hashtag_topic = np.array(
            [topic_ids.get(topics.topic_of(h), n_topics) for h in self.hashtags], np.int64
        )
        ids = self.user_ids
        src, dst = (_column(ids, (e[i] for e in net.edges), len(net.edges)) for i in (0, 1))
        self.followers, self.followees = np.bincount(src, minlength=n), np.bincount(dst, minlength=n)
        self.mutual = np.intersect1d(src * n + dst, dst * n + src)  # keys of reciprocal edges
        # CSR lists over the user order, each sorted by id = by name
        self.followee_ids = src[np.lexsort((src, dst))]
        self.follower_ids = dst[np.lexsort((dst, src))]
        ev = events.events
        user = _column(ids, (e.user for e in ev), len(ev))
        tag = _column(self.hashtag_ids, (e.hashtag for e in ev), len(ev))
        self.uses = np.bincount(user * n_tags + tag, minlength=n * n_tags).reshape(n, n_tags)
        self.activity = self.uses.sum(axis=1)
        self.topic_activity = self.uses @ (self.hashtag_topic[:, None] == np.arange(n_topics + 1))
        prior = index.prior_adopters
        sizes = np.fromiter(map(len, prior.values()), np.int64, count=len(prior))
        self.pair_user = _column(ids, (v for v, _h in prior), len(prior))
        self.pair_hashtag = _column(self.hashtag_ids, (h for _v, h in prior), len(prior))
        followee = chain.from_iterable(prior.values())
        self.precedence_followee = _column(ids, followee, int(sizes.sum()))
        self.precedence_follower = np.repeat(self.pair_user, sizes)
        self.precedence_hashtag = np.repeat(self.pair_hashtag, sizes)
        # topic id -> backbone edge keys (followee * n + follower, sorted),
        # their weights, and each topic precedence triple's edge and hashtag
        self._backbones: dict[int, tuple] = {}
        self._excluded: dict[int, np.ndarray] = {}

    def excluded_pagerank(self, tag: int) -> np.ndarray:
        """PageRank over users of the backbone without a hashtag, 0 off it.

        The topic backbone keeps the (followee, follower) edges of the
        topic's precedence triples, in id order, which is
        :meth:`DirectedGraph.from_edges`'s node and edge order, so the
        PageRank equals ``graph.pagerank`` of the excluded backbone.  An
        edge survives the exclusion when its weight exceeds the hashtag's
        own count, which is 0 or 1: a pair occurs once per hashtag.
        """
        if tag not in self._excluded:
            topic, n = int(self.hashtag_topic[tag]), len(self.users)
            if topic == len(self.topics.topics):
                raise DataError(f"hashtag {self.hashtags[tag]!r} has no topic")
            if topic not in self._backbones:
                on = self.hashtag_topic[self.precedence_hashtag] == topic
                edges = self.precedence_followee[on] * n + self.precedence_follower[on]
                keys, edge = np.unique(edges, return_inverse=True)
                self._backbones[topic] = keys, np.bincount(edge), edge, self.precedence_hashtag[on]
            keys, weight, edge, tags = self._backbones[topic]
            kept = keys[weight > np.bincount(edge[tags == tag], minlength=len(keys))]
            src, dst = kept // n, kept % n
            nodes = np.union1d(src, dst)
            self._excluded[tag] = pr = np.zeros(n)
            if len(nodes):
                pr[nodes] = pagerank_arrays(
                    len(nodes), np.searchsorted(nodes, src), np.searchsorted(nodes, dst)
                )
        return self._excluded[tag]


def _column(ids: Mapping, names, count: int) -> np.ndarray:
    try:
        return np.fromiter(map(ids.__getitem__, names), np.int64, count=count)
    except KeyError as exc:
        raise DataError(f"unknown user or hashtag {exc}") from None


def _ranges(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR offsets of ``rows`` laid end to end, and the source slot of each."""
    sizes = np.diff(indptr)[rows]
    out = np.concatenate(([0], np.cumsum(sizes)))
    return out, np.repeat(indptr[:-1][rows] - out[:-1], sizes) + np.arange(out[-1])


def _row_sums(flags: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Number of set slots in every row."""
    total = np.concatenate(([0], np.cumsum(flags)))
    return total[indptr[1:]] - total[indptr[:-1]]


@dataclass(frozen=True)
class InstanceTable:
    """Instances as CSR candidate lists over the context's user order.

    Instance ``i`` owns slots ``indptr[i]:indptr[i + 1]``: its candidates'
    user ids and positive flags.  The other columns hold instance ids;
    ``topic`` indexes ``TopicMap.topics``.
    """

    indptr: np.ndarray
    candidate: np.ndarray
    truth: np.ndarray
    user: np.ndarray
    hashtag: np.ndarray
    topic: np.ndarray

    def __len__(self) -> int:
        return len(self.user)

    def take(self, rows: np.ndarray) -> "InstanceTable":
        """The table of the selected instances (a mask or ids), in that order."""
        indptr, slots = _ranges(self.indptr, rows)
        return InstanceTable(
            indptr, self.candidate[slots], self.truth[slots],
            self.user[rows], self.hashtag[rows], self.topic[rows],
        )


def build_instances(direction: Direction, context: PredictionContext) -> InstanceTable:
    """Qualifying (hashtag, user) prediction cases, ordered by (topic, hashtag, user).

    A case qualifies when the user has >= 10 followees, adopted the
    hashtag, has a non-empty truth set, and at least one candidate is
    non-isolated in the hashtag-excluded backbone.  Influencer truth is
    the user's prior adopters; adopter truth is the followers whose prior
    adopters include the user.  Both are read off the precedence triples.
    """
    ctx, n = context, len(context.users)
    if direction is Direction.INFLUENCER:
        owner, degree, lists = ctx.precedence_follower, ctx.followees, ctx.followee_ids
    else:
        owner, degree, lists = ctx.precedence_followee, ctx.followers, ctx.follower_ids
    user, tag = ctx.pair_user, ctx.pair_hashtag
    topic = ctx.hashtag_topic[tag]
    # the filters that need no candidate slot run first
    keep = np.flatnonzero(
        (topic < len(ctx.topics.topics))
        & (ctx.followees[user] >= MIN_FOLLOWEES)
        & np.isin(tag * n + user, ctx.precedence_hashtag * n + owner)  # a non-empty truth
    )
    by_name = sorted(ctx.topics.topics)
    rank = np.array([by_name.index(t) for t in ctx.topics.topics], np.int64)
    rows = keep[np.lexsort((user[keep], tag[keep], rank[topic[keep]]))]
    user, tag = user[rows], tag[rows]
    indptr, slots = _ranges(np.concatenate(([0], np.cumsum(degree))), user)
    cand = lists[slots]
    slot_user, slot_tag = np.repeat(user, np.diff(indptr)), np.repeat(tag, np.diff(indptr))
    pair = (slot_user, cand) if direction is Direction.ADOPTER else (cand, slot_user)
    truth = np.isin(
        (slot_tag * n + pair[0]) * n + pair[1],
        (ctx.precedence_hashtag * n + ctx.precedence_followee) * n + ctx.precedence_follower,
    )
    table = InstanceTable(indptr, cand, truth, user, tag, topic[rows])
    return table.take(_row_sums(_slot_pagerank(table, ctx) > 0, indptr) > 0)


def score_candidates(
    kind: PredictorKind, table: InstanceTable, context: PredictionContext
) -> np.ndarray:
    """Every slot's score under one predictor, higher = ranked first."""
    cand, sizes = table.candidate, np.diff(table.indptr)
    if kind is PredictorKind.FOLLOWEES:
        return context.followees[cand].astype(float)
    if kind is PredictorKind.FOLLOWERS:
        return context.followers[cand].astype(float)
    if kind is PredictorKind.RECIPROCAL:
        keys = cand * len(context.users) + np.repeat(table.user, sizes)
        return np.isin(keys, context.mutual).astype(float)
    # the target hashtag's own events never count
    tag, topic = np.repeat(table.hashtag, sizes), np.repeat(table.topic, sizes)
    uses = context.uses[cand, tag]
    if kind is PredictorKind.ACT:
        return (context.activity[cand] - uses).astype(float)
    own = context.hashtag_topic[tag] == topic
    topic_act = (context.topic_activity[cand, topic] - uses * own).astype(float)
    if kind is PredictorKind.TOPIC_ACT:
        return topic_act
    if kind is PredictorKind.RW_ACT:
        raw_pr = _slot_pagerank(table, context)
        return _over_max(raw_pr, table.indptr) * _over_max(topic_act, table.indptr)
    raise DataError(f"unknown predictor kind {kind!r}")


def _slot_pagerank(table: InstanceTable, context: PredictionContext) -> np.ndarray:
    """Each candidate's PageRank in its instance's hashtag-excluded backbone."""
    tags, row = np.unique(table.hashtag, return_inverse=True)
    pr = np.stack([context.excluded_pagerank(t) for t in tags.tolist()] or [np.zeros(0)])
    return pr[np.repeat(row, np.diff(table.indptr)), table.candidate]


def _over_max(x: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Each slot over its instance's maximum; 0 where that maximum is 0."""
    top = np.repeat(np.maximum.reduceat(x, indptr[:-1]), np.diff(indptr))
    return np.divide(x, top, out=np.zeros_like(x), where=top > 0)


def roc_auc(scores: np.ndarray, truth: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Mann-Whitney AUC of every instance's ranking of slots ``indptr[i]:indptr[i + 1]``.

    Tied positive-negative pairs contribute 0.5 each.  One sort by
    (instance, score) gives each run of tied scores its midrank.  The
    midranks are half-integers, so every rank sum, and each AUC, is exact.
    """
    sizes = np.diff(indptr)
    inst = np.repeat(np.arange(len(sizes)), sizes)
    n_pos = np.bincount(inst[truth], minlength=len(sizes))
    n_neg = sizes - n_pos
    if not (n_pos.all() and n_neg.all()):
        raise DataError("AUC undefined: needs at least one positive and one negative")
    values, dense = np.unique(scores, return_inverse=True)
    key = inst * len(values) + dense  # ordered as (instance, score)
    order = np.argsort(key)
    run = np.diff(key[order], prepend=-1) != 0  # a run of tied scores starts here
    first = np.flatnonzero(run)
    last = np.append(first[1:], len(key))
    rank = ((first + last + 1 - 2 * indptr[inst[first]]) / 2.0)[np.cumsum(run) - 1]
    rank_sum = np.bincount(inst, weights=rank * truth[order], minlength=len(sizes))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@dataclass(frozen=True)
class EvaluationResult:
    direction: Direction
    predictor: PredictorKind
    per_topic: Mapping[str, tuple[float, int]]  # topic -> (mean AUC, instances)


def evaluate(
    direction: Direction, table: InstanceTable, context: PredictionContext
) -> list[EvaluationResult]:
    """Mean AUC per topic under every predictor, labelled ``direction``.

    Instances whose truth is empty or covers every candidate are
    skipped.  A topic's mean adds its AUCs one by one in instance order.
    """
    positives = _row_sums(table.truth, table.indptr)
    table = table.take((positives > 0) & (positives < np.diff(table.indptr)))
    names = context.topics.topics
    groups = sorted((names[t], np.flatnonzero(table.topic == t)) for t in set(table.topic.tolist()))
    results = []
    for kind in PredictorKind:
        auc = roc_auc(score_candidates(kind, table, context), table.truth, table.indptr)
        per_topic = {
            name: (float(np.add.accumulate(auc[rows])[-1]) / len(rows), len(rows))
            for name, rows in groups
        }
        results.append(EvaluationResult(direction, kind, per_topic))
    return results


def write_evaluation_tsv(results: Sequence[EvaluationResult], fh) -> None:
    fh.write("direction\ttopic\tpredictor\tmean_auc\tinstances\n")
    for r in sorted(results, key=lambda r: (r.direction.value, r.predictor.value)):
        for topic in sorted(r.per_topic):
            mean, n = r.per_topic[topic]
            fh.write(f"{r.direction.value}\t{topic}\t{r.predictor.value}\t{mean!r}\t{n}\n")
