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
from typing import Mapping, Sequence

from .backbone import InfluenceBackbone, exclude_hashtag, extract_backbone
from .errors import DataError
from .graph import pagerank
from .ingest import AdoptionIndex, EventLog, FollowerNetwork, TopicMap

__all__ = [
    "Direction",
    "PredictorKind",
    "PredictionInstance",
    "PredictionContext",
    "build_instances",
    "score_candidates",
    "roc_auc",
    "evaluate",
    "EvaluationResult",
    "write_evaluation_tsv",
    "MIN_FOLLOWEES",
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
    """Shared immutable inputs plus per-hashtag exclusion caches."""

    def __init__(
        self,
        events: EventLog,
        index: AdoptionIndex,
        net: FollowerNetwork,
        topics: TopicMap,
    ):
        self.events = events
        self.index = index
        self.net = net
        self.topics = topics
        self._backbones: dict[str, InfluenceBackbone] = {}
        self._excluded: dict[str, InfluenceBackbone] = {}
        self._excluded_pagerank: dict[str, Mapping[str, float]] = {}
        # event counts per user, per (user, topic) and per (user, hashtag)
        self._act_total: dict[str, int] = {}
        self._act_topic: dict[tuple[str, str], int] = {}
        self._act_hashtag: dict[tuple[str, str], int] = {}
        for t, u, h in events.events:
            self._act_total[u] = self._act_total.get(u, 0) + 1
            self._act_hashtag[(u, h)] = self._act_hashtag.get((u, h), 0) + 1
            topic = topics.topic_of(h)
            if topic is not None:
                self._act_topic[(u, topic)] = self._act_topic.get((u, topic), 0) + 1

    def backbone(self, topic: str) -> InfluenceBackbone:
        if topic not in self._backbones:
            self._backbones[topic] = extract_backbone(
                topic, self.index, self.net, self.topics
            )
        return self._backbones[topic]

    def excluded_backbone(self, hashtag: str) -> InfluenceBackbone:
        if hashtag not in self._excluded:
            topic = self.topics.topic_of(hashtag)
            if topic is None:
                raise DataError(f"hashtag {hashtag!r} has no topic")
            self._excluded[hashtag] = exclude_hashtag(
                self.backbone(topic), hashtag, self.index, self.net, self.topics
            )
        return self._excluded[hashtag]

    def excluded_pagerank(self, hashtag: str) -> Mapping[str, float]:
        if hashtag not in self._excluded_pagerank:
            g = self.excluded_backbone(hashtag).graph
            self._excluded_pagerank[hashtag] = pagerank(g) if g.n else {}
        return self._excluded_pagerank[hashtag]

    def activity(self, user: str, exclude: str) -> int:
        """Total hashtag-use events of the user, minus the target hashtag's."""
        return self._act_total.get(user, 0) - self._act_hashtag.get(
            (user, exclude), 0
        )

    def topic_activity(self, user: str, topic: str, exclude: str) -> int:
        n = self._act_topic.get((user, topic), 0)
        if self.topics.topic_of(exclude) == topic:
            n -= self._act_hashtag.get((user, exclude), 0)
        return n


def build_instances(
    direction: Direction, context: PredictionContext
) -> list[PredictionInstance]:
    """Qualifying (hashtag, user) prediction cases, ordered by (topic, hashtag, user).

    A case qualifies when the user has >= 10 followees, adopted the
    hashtag, has a non-empty truth set, and at least one candidate is
    non-isolated in the hashtag-excluded backbone.
    """
    index, net, topics = context.index, context.net, context.topics
    instances: list[PredictionInstance] = []
    keyed: list[tuple[str, str, str]] = []
    for (u, h) in index.first_use:
        topic = topics.topic_of(h)
        if topic is None:
            continue
        keyed.append((topic, h, u))
    keyed.sort()

    for topic, h, u in keyed:
        followees = net.followees_of(u)
        if len(followees) < MIN_FOLLOWEES:
            continue
        candidates = (
            followees if direction is Direction.INFLUENCER else net.followers_of(u)
        )
        if not candidates:
            continue
        t_use = index.first_use[(u, h)]
        if direction is Direction.INFLUENCER:
            truth = frozenset(
                c
                for c in candidates
                if (c, h) in index.first_use and index.first_use[(c, h)] < t_use
            )
        else:
            truth = frozenset(
                c
                for c in candidates
                if (c, h) in index.first_use and index.first_use[(c, h)] > t_use
            )
        if not truth:
            continue
        excluded = context.excluded_backbone(h)
        if not any(c in excluded.graph for c in candidates):
            continue
        instances.append(
            PredictionInstance(
                user=u,
                hashtag=h,
                topic=topic,
                direction=direction,
                candidates=tuple(candidates),
                truth=truth,
            )
        )
    return instances


def score_candidates(
    kind: PredictorKind,
    inst: PredictionInstance,
    context: PredictionContext,
) -> dict[str, float]:
    """Per-candidate score under one predictor, higher = ranked first."""
    net = context.net
    h = inst.hashtag
    if kind is PredictorKind.FOLLOWEES:
        return {c: float(len(net.followees_of(c))) for c in inst.candidates}
    if kind is PredictorKind.FOLLOWERS:
        return {c: float(len(net.followers_of(c))) for c in inst.candidates}
    if kind is PredictorKind.RECIPROCAL:
        return {
            c: float(net.has_edge(c, inst.user) and net.has_edge(inst.user, c))
            for c in inst.candidates
        }
    if kind is PredictorKind.ACT:
        return {c: float(context.activity(c, exclude=h)) for c in inst.candidates}
    if kind is PredictorKind.TOPIC_ACT:
        return {
            c: float(context.topic_activity(c, inst.topic, exclude=h))
            for c in inst.candidates
        }
    if kind is PredictorKind.RW_ACT:
        pr = context.excluded_pagerank(h)
        raw_pr = {c: pr.get(c, 0.0) for c in inst.candidates}
        raw_act = {
            c: float(context.topic_activity(c, inst.topic, exclude=h))
            for c in inst.candidates
        }
        max_pr = max(raw_pr.values())
        max_act = max(raw_act.values())
        return {
            c: (raw_pr[c] / max_pr if max_pr > 0 else 0.0)
            * (raw_act[c] / max_act if max_act > 0 else 0.0)
            for c in inst.candidates
        }
    raise DataError(f"unknown predictor kind {kind!r}")


def roc_auc(scores: Mapping[str, float], truth: frozenset[str] | set[str]) -> float:
    """Mann-Whitney AUC of a candidate ranking against the positives.

    Tied positive-negative score pairs contribute 0.5 each.
    """
    positives = [s for c, s in scores.items() if c in truth]
    negatives = [s for c, s in scores.items() if c not in truth]
    if not positives or not negatives:
        raise DataError("AUC undefined: needs at least one positive and one negative")
    # rank-sum with midranks over the pooled scores
    values = sorted(positives + negatives)
    ranks: dict[float, float] = {}
    i = 0
    while i < len(values):
        j = i
        while j < len(values) and values[j] == values[i]:
            j += 1
        ranks[values[i]] = (i + 1 + j) / 2.0
        i = j
    rank_sum = sum(ranks[s] for s in positives)
    n_pos, n_neg = len(positives), len(negatives)
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
    kind: PredictorKind,
    instances: Sequence[PredictionInstance],
    context: PredictionContext,
) -> EvaluationResult:
    """Mean AUC per topic; instances with undefined AUC are excluded."""
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    direction = instances[0].direction if instances else Direction.INFLUENCER
    for inst in instances:
        if not inst.truth or len(inst.truth) == len(inst.candidates):
            continue
        auc = roc_auc(score_candidates(kind, inst, context), inst.truth)
        sums[inst.topic] = sums.get(inst.topic, 0.0) + auc
        counts[inst.topic] = counts.get(inst.topic, 0) + 1
    per_topic = {t: (sums[t] / counts[t], counts[t]) for t in sorted(counts)}
    return EvaluationResult(direction=direction, predictor=kind, per_topic=per_topic)


def write_evaluation_tsv(results: Sequence[EvaluationResult], fh) -> None:
    fh.write("direction\ttopic\tpredictor\tmean_auc\tinstances\n")
    ordered = sorted(
        results, key=lambda r: (r.direction.value, r.predictor.value)
    )
    for r in ordered:
        for topic in sorted(r.per_topic):
            mean, n = r.per_topic[topic]
            fh.write(
                f"{r.direction.value}\t{topic}\t{r.predictor.value}\t{mean!r}\t{n}\n"
            )
