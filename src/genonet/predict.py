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
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from . import backbone as bb
from .errors import DataError
from .graph import csr_rows, pagerank
from .ingest import (
    AdoptionIndex, gather_rows, in_sorted, ordered_sum, row_sums, run_starts, touched_ids,
)

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
    """Per-user score inputs as numpy columns over the adoption index's ids.

    Per user: followee, follower and event counts, and event counts per
    topic and per hashtag.  Per hashtag, on first use: the PageRank
    vector of the hashtag-excluded backbone, which is zero exactly off
    its nodes.  Pairs, follow lists and precedence triples are read off
    ``index``.
    """

    def __init__(self, index: AdoptionIndex):
        self.index = index
        n, n_tags, n_topics = len(index.users), len(index.hashtags), len(index.topics)
        self.followees, self.followers = np.diff(index.followee_ptr), np.diff(index.follower_ptr)
        src, dst = index.followee_ids, np.repeat(np.arange(n), self.followees)
        follow = dst * n + src  # ascending: rows by follower, followees sorted
        self.mutual = follow[in_sorted(follow, np.sort(src * n + dst))]  # reciprocal edges
        uses = np.bincount(index.event_user * n_tags + index.event_hashtag, minlength=n * n_tags)
        self.uses = uses.reshape(n, n_tags)
        self.activity = self.uses.sum(axis=1)
        # a hashtag without a topic counts in an extra last topic column
        self.topic_activity = self.uses @ (index.hashtag_topic[:, None] == np.arange(n_topics + 1))
        self._topic_backbones: dict[int, tuple] = {}
        self._excluded: dict[int, np.ndarray] = {}

    def excluded_pagerank(self, tag: int) -> np.ndarray:
        """PageRank over users of the backbone without a hashtag, 0 off it.

        The rows are :func:`graph.csr_rows`, as
        :meth:`DirectedGraph.from_keys` builds them for the excluded
        backbone's graph.  An edge survives the exclusion when its weight
        exceeds the hashtag's own count, which is 0 or 1: a pair occurs
        once per hashtag.
        """
        if tag not in self._excluded:
            topic, n = int(self.index.hashtag_topic[tag]), len(self.index.users)
            if topic == len(self.index.topics):
                raise DataError(f"hashtag {self.index.hashtags[tag]!r} has no topic")
            if topic not in self._topic_backbones:
                backbone = bb.topic_backbone(self.index, self.index.hashtag_topic == topic)
                self._topic_backbones[topic] = backbone
            keys, weight, edge, tags = self._topic_backbones[topic]
            kept = keys[weight > np.bincount(edge[tags == tag], minlength=len(keys))]
            nodes, indptr, indices = csr_rows(kept, touched_ids(kept, n), n)
            self._excluded[tag] = pr = np.zeros(n)
            if len(nodes):
                pr[nodes] = pagerank(indptr, indices)
        return self._excluded[tag]


@dataclass(frozen=True)
class InstanceTable:
    """Instances as CSR candidate lists over the context's user order.

    Instance ``i`` owns slots ``indptr[i]:indptr[i + 1]``: its candidates'
    user ids and positive flags.  The other columns hold instance ids;
    ``topic`` indexes ``AdoptionIndex.topics``.
    """

    indptr: np.ndarray
    candidate: np.ndarray
    truth: np.ndarray
    user: np.ndarray
    hashtag: np.ndarray
    topic: np.ndarray

    def __len__(self) -> int:
        return len(self.user)

    @cached_property
    def auc_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each slot's instance id, and each instance's positive and
        negative counts: what every AUC over the table shares."""
        sizes = np.diff(self.indptr)
        inst = np.repeat(np.arange(len(sizes)), sizes)
        n_pos = np.bincount(inst[self.truth], minlength=len(sizes))
        return inst, n_pos, sizes - n_pos

    def take(self, rows: np.ndarray) -> "InstanceTable":
        """The table of the selected instances (a mask or ids), in that order."""
        indptr, slots = gather_rows(self.indptr, rows)
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
    ctx, index, n = context, context.index, len(context.index.users)
    prior_tag, prior_followee, prior_follower = index.precedence
    if direction is Direction.INFLUENCER:
        owner, indptr, lists = prior_follower, index.followee_ptr, index.followee_ids
    else:
        owner, indptr, lists = prior_followee, index.follower_ptr, index.follower_ids
    user, tag = index.pair_user, index.pair_hashtag
    topic = index.hashtag_topic[tag]
    # the filters that need no candidate slot run first
    keep = np.flatnonzero(
        (topic < len(index.topics))
        & (ctx.followees[user] >= MIN_FOLLOWEES)
        & in_sorted(tag * n + user, np.sort(prior_tag * n + owner))  # a non-empty truth
    )
    rows = keep[np.lexsort((user[keep], tag[keep], index.topic_rank[topic[keep]]))]
    user, tag = user[rows], tag[rows]
    indptr, slots = gather_rows(indptr, user)
    cand = lists[slots]
    slot_user, slot_tag = np.repeat(user, np.diff(indptr)), np.repeat(tag, np.diff(indptr))
    pair = (slot_user, cand) if direction is Direction.ADOPTER else (cand, slot_user)
    truth = in_sorted(
        (slot_tag * n + pair[0]) * n + pair[1],
        np.sort((prior_tag * n + prior_followee) * n + prior_follower),
    )
    table = InstanceTable(indptr, cand, truth, user, tag, topic[rows])
    return table.take(row_sums(_slot_pagerank(table, ctx) > 0, indptr) > 0)


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
        keys = cand * len(context.index.users) + np.repeat(table.user, sizes)
        return in_sorted(keys, context.mutual).astype(float)
    # the target hashtag's own events never count
    tag, topic = np.repeat(table.hashtag, sizes), np.repeat(table.topic, sizes)
    uses = context.uses[cand, tag]
    if kind is PredictorKind.ACT:
        return (context.activity[cand] - uses).astype(float)
    own = context.index.hashtag_topic[tag] == topic
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


def roc_auc(scores: np.ndarray, table: InstanceTable) -> np.ndarray:
    """Mann-Whitney AUC of every instance's ranking of its slots by ``scores``.

    Tied positive-negative pairs contribute 0.5 each.  One sort by
    (instance, score) gives each run of tied scores its midrank.  The
    midranks are half-integers, so every rank sum, and each AUC, is exact.
    """
    inst, n_pos, n_neg = table.auc_columns
    if not (n_pos.all() and n_neg.all()):
        raise DataError("AUC undefined: needs at least one positive and one negative")
    values, dense = np.unique(scores, return_inverse=True)
    key = inst * len(values) + dense  # ordered as (instance, score)
    order = np.argsort(key)
    run = run_starts(key[order])  # a run of tied scores starts here
    first = np.flatnonzero(run)
    last = np.append(first[1:], len(key))
    rank = ((first + last + 1 - 2 * table.indptr[inst[first]]) / 2.0)[np.cumsum(run) - 1]
    rank_sum = np.bincount(inst, weights=rank * table.truth[order], minlength=len(n_pos))
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
    positives = row_sums(table.truth, table.indptr)
    table = table.take((positives > 0) & (positives < np.diff(table.indptr)))
    names = context.index.topics
    groups = sorted((names[t], np.flatnonzero(table.topic == t)) for t in set(table.topic.tolist()))
    results = []
    for kind in PredictorKind:
        auc = roc_auc(score_candidates(kind, table, context), table)
        per_topic = {
            name: (float(ordered_sum(auc[rows])) / len(rows), len(rows))
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
