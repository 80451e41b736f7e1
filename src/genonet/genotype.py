"""Per-user, per-topic behavioral metrics and genome assembly.

Six metrics are computed per (user, hashtag) adoption:

* TIME     -- first use minus first exposure (seconds).
* N-USES   -- number of distinct posts of the pair.
* N-PAR    -- followees adopting strictly before the user.
* F-PAR    -- N-PAR divided by the followee count.
* LAT      -- inverse count of same-topic posts on the user's timeline
              strictly between first exposure and first use; the count
              is floored at 1 so LAT stays in (0, 1].
* LOG-LAT  -- natural log of LAT over the hashtag's mean LAT.

TIME, N-PAR, F-PAR and LAT are undefined (excluded) for cascade
originators, i.e. when no followee adopted the hashtag strictly before
the user's first use.  Ties in first-use times never count as prior
adoption.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from .errors import DataError
from .ingest import AdoptionIndex, EventLog, FollowerNetwork, TopicMap

__all__ = [
    "MetricKind",
    "MetricCell",
    "Genotype",
    "Genome",
    "compute_metric",
    "hashtag_mean_lats",
    "build_genome",
    "node_topic_latency",
    "write_genome_values",
    "write_genome_summary",
]


class MetricKind(Enum):
    TIME = "TIME"
    N_USES = "N-USES"
    N_PAR = "N-PAR"
    F_PAR = "F-PAR"
    LAT = "LAT"
    LOG_LAT = "LOG-LAT"

    @classmethod
    def from_tag(cls, tag: str) -> "MetricKind":
        for kind in cls:
            if kind.value.lower() == tag.strip().lower():
                return kind
        valid = ", ".join(k.value for k in cls)
        raise DataError(f"unknown metric {tag!r}; valid: {valid}")


@dataclass(frozen=True)
class MetricCell:
    values: tuple[float, ...]
    mean: float
    count: int


@dataclass(frozen=True)
class Genotype:
    owner: str
    cells: Mapping[tuple[str, MetricKind], MetricCell]

    def cell(self, topic: str, kind: MetricKind) -> MetricCell | None:
        return self.cells.get((topic, kind))

    def values(self, topic: str, kind: MetricKind) -> tuple[float, ...]:
        c = self.cells.get((topic, kind))
        return c.values if c else ()


@dataclass(frozen=True)
class Genome:
    genotypes: Mapping[str, Genotype]
    provenance: Mapping[str, str]

    def __getitem__(self, user: str) -> Genotype:
        return self.genotypes[user]

    def __contains__(self, user: str) -> bool:
        return user in self.genotypes


def _prior_adopters(
    user: str,
    hashtag: str,
    index: AdoptionIndex,
    net: FollowerNetwork,
) -> list[str]:
    t_use = index.first_use[(user, hashtag)]
    return [
        v
        for v in net.followees_of(user)
        if (v, hashtag) in index.first_use and index.first_use[(v, hashtag)] < t_use
    ]


def _timeline_topic_count(
    user: str,
    topic: str,
    lo: int,
    hi: int,
    events: EventLog,
    net: FollowerNetwork,
    topics: TopicMap,
) -> int:
    """Posts by ``user``'s followees with a same-topic hashtag, time in (lo, hi)."""
    count = 0
    for v in net.followees_of(user):
        times = events.times_by_user.get(v)
        if not times:
            continue
        start = bisect_right(times, lo)
        end = bisect_left(times, hi)
        evs = events.by_user[v]
        for i in range(start, end):
            if topics.topic_of(evs[i].hashtag) == topic:
                count += 1
    return count


def compute_metric(
    kind: MetricKind,
    user: str,
    hashtag: str,
    events: EventLog,
    index: AdoptionIndex,
    net: FollowerNetwork,
    topics: TopicMap,
    hashtag_mean_lat: float | None = None,
) -> float | None:
    """Evaluate one metric for an adopted (user, hashtag) pair.

    Returns None when the metric is undefined for the pair.  LOG-LAT
    requires ``hashtag_mean_lat`` (the mean LAT of the hashtag across
    all users with a defined LAT).
    """
    key = (user, hashtag)
    if key not in index.first_use:
        raise DataError(f"{user!r} never used {hashtag!r}")
    if kind is MetricKind.N_USES:
        return float(index.use_counts[key])

    if kind is MetricKind.F_PAR and not net.followees_of(user):
        return None
    prior = _prior_adopters(user, hashtag, index, net)
    if not prior:
        return None

    if kind is MetricKind.TIME:
        return float(index.first_use[key] - index.first_exposure[key])
    if kind is MetricKind.N_PAR:
        return float(len(prior))
    if kind is MetricKind.F_PAR:
        return len(prior) / len(net.followees_of(user))

    topic = topics.topic_of(hashtag)
    if topic is None:
        raise DataError(f"hashtag {hashtag!r} has no topic")
    lo = index.first_exposure[key]
    hi = index.first_use[key]
    lat = 1.0 / max(1, _timeline_topic_count(user, topic, lo, hi, events, net, topics))
    if kind is MetricKind.LAT:
        return lat
    if kind is MetricKind.LOG_LAT:
        if hashtag_mean_lat is None:
            raise DataError("LOG-LAT requires hashtag_mean_lat")
        if hashtag_mean_lat <= 0:
            raise DataError(f"hashtag_mean_lat must be positive, got {hashtag_mean_lat}")
        return math.log(lat / hashtag_mean_lat)
    raise DataError(f"unknown metric kind {kind!r}")


def hashtag_mean_lats(
    events: EventLog,
    index: AdoptionIndex,
    net: FollowerNetwork,
    topics: TopicMap,
) -> dict[str, float]:
    """Mean LAT per hashtag over all users with a defined LAT value."""
    sums: dict[str, list[float]] = {}
    for (u, h) in index.first_use:
        if topics.topic_of(h) is None:
            continue
        lat = compute_metric(MetricKind.LAT, u, h, events, index, net, topics)
        if lat is not None:
            sums.setdefault(h, []).append(lat)
    return {h: sum(vals) / len(vals) for h, vals in sums.items()}


_PAIR_METRICS = (
    MetricKind.TIME,
    MetricKind.N_USES,
    MetricKind.N_PAR,
    MetricKind.F_PAR,
    MetricKind.LAT,
)


def _user_genotype(
    user: str,
    pairs: list[str],
    events: EventLog,
    index: AdoptionIndex,
    net: FollowerNetwork,
    topics: TopicMap,
    mean_lats: Mapping[str, float],
) -> Genotype:
    raw: dict[tuple[str, MetricKind], list[float]] = {}
    for h in sorted(pairs):
        topic = topics.topic_of(h)
        if topic is None:
            continue
        for kind in _PAIR_METRICS:
            value = compute_metric(kind, user, h, events, index, net, topics)
            if value is None:
                continue
            raw.setdefault((topic, kind), []).append(value)
            if kind is MetricKind.LAT:
                log_lat = math.log(value / mean_lats[h])
                raw.setdefault((topic, MetricKind.LOG_LAT), []).append(log_lat)
    cells = {
        key: MetricCell(values=tuple(vals), mean=sum(vals) / len(vals), count=len(vals))
        for key, vals in raw.items()
    }
    return Genotype(owner=user, cells=cells)


def build_genome(
    events: EventLog,
    index: AdoptionIndex,
    net: FollowerNetwork,
    topics: TopicMap,
    workers: int = 1,
) -> Genome:
    """Assemble one genotype per user appearing in the event log.

    ``workers`` is accepted and ignored: the metrics are pure Python, and
    threads over them measured no gain.
    """
    mean_lats = hashtag_mean_lats(events, index, net, topics)
    by_user: dict[str, list[str]] = {u: [] for u in events.users}
    for (u, h) in index.first_use:
        by_user[u].append(h)
    genotypes = {
        u: _user_genotype(u, by_user[u], events, index, net, topics, mean_lats)
        for u in sorted(by_user)
    }
    provenance = {
        "dataset": hashlib.sha256(
            (net.digest() + events.digest()).encode()
        ).hexdigest(),
        "topics": topics.digest(),
    }
    return Genome(genotypes=genotypes, provenance=provenance)


def node_topic_latency(
    index: AdoptionIndex, net: FollowerNetwork, topics: TopicMap, topic: str
) -> dict[str, float]:
    """Per-user mean TIME for one topic; users without values omitted.

    Values are summed in sorted-hashtag order, as in the genome's TIME
    cell, so each mean equals that cell's mean exactly.
    """
    values: dict[str, list[float]] = {}
    for (u, h) in sorted(index.first_use):
        if topics.topic_of(h) == topic and _prior_adopters(u, h, index, net):
            time = float(index.first_use[(u, h)] - index.first_exposure[(u, h)])
            values.setdefault(u, []).append(time)
    return {u: sum(vals) / len(vals) for u, vals in values.items()}


def write_genome_values(genome: Genome, fh) -> None:
    """One row per (user, topic, metric, value), TSV."""
    fh.write("user\ttopic\tmetric\tvalue\n")
    for user in sorted(genome.genotypes):
        gt = genome.genotypes[user]
        for (topic, kind) in sorted(gt.cells, key=lambda k: (k[0], k[1].value)):
            for value in gt.cells[(topic, kind)].values:
                fh.write(f"{user}\t{topic}\t{kind.value}\t{value!r}\n")


def write_genome_summary(genome: Genome, fh) -> None:
    """One row per (user, topic, metric) with mean and count, TSV."""
    fh.write("user\ttopic\tmetric\tmean\tcount\n")
    for user in sorted(genome.genotypes):
        gt = genome.genotypes[user]
        for (topic, kind) in sorted(gt.cells, key=lambda k: (k[0], k[1].value)):
            cell = gt.cells[(topic, kind)]
            fh.write(f"{user}\t{topic}\t{kind.value}\t{cell.mean!r}\t{cell.count}\n")
