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
from itertools import chain, compress
from typing import Mapping, Sequence

import numpy as np

from .backbone import InfluenceBackbone, exclude_hashtag, extract_backbone
from .errors import DataError
from .graph import pagerank_arrays
from .ingest import AdoptionIndex, EventLog, FollowerNetwork, TopicMap

__all__ = [
    "Direction", "PredictorKind", "PredictionInstance", "PredictionContext",
    "InstanceTable", "build_instances", "score_candidates", "roc_auc", "evaluate",
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

    @classmethod
    def from_tag(cls, tag: str) -> "PredictorKind":
        for kind in cls:
            if kind.value.lower() == tag.strip().lower():
                return kind
        valid = ", ".join(k.value for k in cls)
        raise DataError(f"unknown predictor {tag!r}; valid: {valid}")


@dataclass(frozen=True)
class PredictionInstance:
    user: str
    hashtag: str
    topic: str
    direction: Direction
    candidates: tuple[str, ...]
    truth: frozenset[str]


class PredictionContext:
    """Shared inputs as numpy columns over one sorted user order.

    Per user: followee, follower and event counts, and event counts per
    topic and per hashtag.  Per hashtag, on first use: the PageRank vector
    of the hashtag-excluded backbone, which is zero exactly off its nodes.
    """

    def __init__(
        self, events: EventLog, index: AdoptionIndex, net: FollowerNetwork, topics: TopicMap
    ):
        self.events, self.index, self.net, self.topics = events, index, net, topics
        self.users = tuple(sorted(net.nodes | events.users))
        self.user_ids = {u: i for i, u in enumerate(self.users)}
        self.hashtags = tuple(sorted(events.hashtags | topics.assignment.keys()))
        self.hashtag_ids = {h: i for i, h in enumerate(self.hashtags)}
        self.topic_ids = {t: i for i, t in enumerate(topics.topics)}
        n, n_tags, n_topics = len(self.users), len(self.hashtags), len(self.topic_ids)
        # a hashtag without a topic counts in an extra last topic column
        self.hashtag_topic = np.array(
            [self.topic_ids.get(topics.topic_of(h), n_topics) for h in self.hashtags], np.int64
        )
        src, dst = self._edge_ids(net.edges)
        self.followers, self.followees = np.bincount(src, minlength=n), np.bincount(dst, minlength=n)
        self.mutual = np.intersect1d(src * n + dst, dst * n + src)  # keys of reciprocal edges
        ev = events.events
        user = _column(self.user_ids, (e.user for e in ev), len(ev))
        tag = _column(self.hashtag_ids, (e.hashtag for e in ev), len(ev))
        self.uses = np.bincount(user * n_tags + tag, minlength=n * n_tags).reshape(n, n_tags)
        self.activity = self.uses.sum(axis=1)
        self.topic_activity = self.uses @ (self.hashtag_topic[:, None] == np.arange(n_topics + 1))
        # topic -> backbone, its edges in (followee, follower) order, their ids
        self._backbones: dict[str, tuple] = {}
        self._excluded: dict[int, np.ndarray] = {}

    def _edge_ids(self, edges) -> tuple[np.ndarray, ...]:
        """Followee and follower id columns of (followee, follower) pairs."""
        return tuple(_column(self.user_ids, (e[i] for e in edges), len(edges)) for i in (0, 1))

    def excluded_pagerank(self, tag: int) -> np.ndarray:
        """PageRank over users of the backbone without a hashtag, 0 off it.

        The edges keep the topic backbone's (followee, follower) id order,
        which is :meth:`DirectedGraph.from_edges`'s node and edge order, so
        the PageRank equals ``graph.pagerank`` of the excluded backbone.
        """
        if tag not in self._excluded:
            h = self.hashtags[tag]
            topic = self.topics.topic_of(h)
            if topic is None:
                raise DataError(f"hashtag {h!r} has no topic")
            if topic not in self._backbones:
                b = extract_backbone(topic, self.index, self.topics)
                edges = sorted(b.weights)
                self._backbones[topic] = (b, edges, *self._edge_ids(edges))
            b, edges, src, dst = self._backbones[topic]
            weights = exclude_hashtag(b, h, self.index, self.topics).weights
            kept = np.fromiter(map(weights.__contains__, edges), bool, count=len(edges))
            src, dst = src[kept], dst[kept]
            nodes = np.union1d(src, dst)
            self._excluded[tag] = pr = np.zeros(len(self.users))
            if len(nodes):
                pr[nodes] = pagerank_arrays(
                    len(nodes), np.searchsorted(nodes, src), np.searchsorted(nodes, dst)
                )
        return self._excluded[tag]


def _column(ids: Mapping, names, count: int) -> np.ndarray:
    try:
        return np.fromiter(map(ids.__getitem__, names), np.int64, count=count)
    except KeyError as exc:
        raise DataError(f"unknown user, hashtag or topic {exc}") from None


def build_instances(direction: Direction, context: PredictionContext) -> list[PredictionInstance]:
    """Qualifying (hashtag, user) prediction cases, ordered by (topic, hashtag, user).

    A case qualifies when the user has >= 10 followees, adopted the
    hashtag, has a non-empty truth set, and at least one candidate is
    non-isolated in the hashtag-excluded backbone.  Influencer truth is
    the user's prior adopters; adopter truth is the followers whose prior
    adopters include the user, read off the hashtag's precedence edges.
    """
    net, index, topic_of = context.net, context.index, context.topics.topic_of
    keyed = sorted((topic_of(h), h, u) for (u, h) in index.first_use if topic_of(h) is not None)
    instances: list[PredictionInstance] = []
    current, linked = None, frozenset()
    grouped, later = None, {}  # adopters: followee -> followers that adopted after it
    for topic, h, u in keyed:
        followees = net.followees_of(u)
        if len(followees) < MIN_FOLLOWEES:
            continue
        if direction is Direction.INFLUENCER:
            candidates, truth = followees, frozenset(index.prior_adopters[(u, h)])
        else:
            if h != grouped:
                grouped, later = h, {}
                for a, v in index.precedence_edges(h):
                    later.setdefault(a, []).append(v)
            candidates, truth = net.followers_of(u), frozenset(later.get(u, ()))
        if not truth:
            continue
        if h != current:
            pr = context.excluded_pagerank(context.hashtag_ids[h])
            current, linked = h, frozenset(compress(context.users, (pr > 0).tolist()))
        if not linked.isdisjoint(candidates):
            instances.append(PredictionInstance(u, h, topic, direction, candidates, truth))
    return instances


@dataclass(frozen=True)
class InstanceTable:
    """Instances as CSR candidate lists over the context's user order.

    Instance ``i`` owns slots ``indptr[i]:indptr[i + 1]``: its candidates'
    user ids and positive flags.  The other columns hold instance ids.
    """

    indptr: np.ndarray
    candidate: np.ndarray
    truth: np.ndarray
    user: np.ndarray
    hashtag: np.ndarray
    topic: np.ndarray

    @classmethod
    def build(cls, instances: Sequence[PredictionInstance], context: PredictionContext):
        k, ids = len(instances), context.user_ids
        sizes = np.fromiter((len(i.candidates) for i in instances), np.int64, count=k)
        if not sizes.all():
            raise DataError("a prediction instance has no candidates")
        slots = int(sizes.sum())
        return cls(
            indptr=np.concatenate(([0], np.cumsum(sizes))),
            candidate=_column(ids, chain.from_iterable(i.candidates for i in instances), slots),
            truth=np.fromiter(
                chain.from_iterable(map(i.truth.__contains__, i.candidates) for i in instances),
                bool, count=slots,
            ),
            user=_column(ids, (i.user for i in instances), k),
            hashtag=_column(context.hashtag_ids, (i.hashtag for i in instances), k),
            topic=_column(context.topic_ids, (i.topic for i in instances), k),
        )


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
        tags, row = np.unique(table.hashtag, return_inverse=True)
        pr = np.stack([context.excluded_pagerank(t) for t in tags.tolist()] or [np.zeros(0)])
        raw_pr = pr[np.repeat(row, sizes), cand]
        return _over_max(raw_pr, table.indptr) * _over_max(topic_act, table.indptr)
    raise DataError(f"unknown predictor kind {kind!r}")


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

    @property
    def overall(self) -> tuple[float, int]:
        total = sum(n for _m, n in self.per_topic.values())
        if not total:
            return 0.0, 0
        mean = sum(m * n for m, n in self.per_topic.values()) / total
        return mean, total


def evaluate(
    direction: Direction, instances: Sequence[PredictionInstance], context: PredictionContext
) -> list[EvaluationResult]:
    """Mean AUC per topic under every predictor, labelled ``direction``.

    Instances whose truth is empty or covers every candidate are
    skipped.  A topic's mean adds its AUCs one by one in instance order.
    """
    kept = [i for i in instances if i.truth and len(i.truth) != len(i.candidates)]
    table = InstanceTable.build(kept, context)
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
