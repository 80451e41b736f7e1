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
    "pair_metrics",
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


@dataclass(frozen=True)
class Genome:
    genotypes: Mapping[str, Genotype]


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
    user: str,
    hashtag: str,
    events: EventLog,
    index: AdoptionIndex,
    net: FollowerNetwork,
    topics: TopicMap,
) -> dict[MetricKind, float]:
    """Every pair-local metric defined for an adopted (user, hashtag) pair.

    N-USES is always present; TIME, N-PAR, F-PAR and LAT only when a
    followee adopted the hashtag before the user, that is when
    ``index.prior_adopters`` of the pair is non-empty; N-PAR is its
    length.  LAT is the only scan of the user's followees (one timeline
    count).  LOG-LAT needs the hashtag's mean LAT over all adopters and
    comes from :func:`pair_metrics`.
    """
    key = (user, hashtag)
    if key not in index.first_use:
        raise DataError(f"{user!r} never used {hashtag!r}")
    topic = topics.topic_of(hashtag)
    if topic is None:
        raise DataError(f"hashtag {hashtag!r} has no topic")
    row = {MetricKind.N_USES: float(index.use_counts[key])}
    n_prior = len(index.prior_adopters[key])
    if not n_prior:
        return row
    lo = index.first_exposure[key]
    hi = index.first_use[key]
    row[MetricKind.TIME] = float(hi - lo)
    row[MetricKind.N_PAR] = float(n_prior)
    row[MetricKind.F_PAR] = n_prior / len(net.followees_of(user))
    count = _timeline_topic_count(user, topic, lo, hi, events, net, topics)
    row[MetricKind.LAT] = 1.0 / max(1, count)
    return row


def pair_metrics(
    events: EventLog,
    index: AdoptionIndex,
    net: FollowerNetwork,
    topics: TopicMap,
) -> dict[tuple[str, str], dict[MetricKind, float]]:
    """Metric rows of every adopted pair whose hashtag has a topic.

    Rows are keyed and ordered as ``index.first_use``.  Each is
    :func:`compute_metric`'s row plus LOG-LAT wherever LAT is defined; a
    hashtag's mean LAT sums its defined values in that same order.
    """
    rows = {
        (u, h): compute_metric(u, h, events, index, net, topics)
        for (u, h) in index.first_use
        if topics.topic_of(h) is not None
    }
    lats: dict[str, list[float]] = {}
    for (_u, h), row in rows.items():
        if MetricKind.LAT in row:
            lats.setdefault(h, []).append(row[MetricKind.LAT])
    mean_lats = {h: sum(vals) / len(vals) for h, vals in lats.items()}
    for (_u, h), row in rows.items():
        if MetricKind.LAT in row:
            row[MetricKind.LOG_LAT] = math.log(row[MetricKind.LAT] / mean_lats[h])
    return rows


def build_genome(
    events: EventLog,
    index: AdoptionIndex,
    net: FollowerNetwork,
    topics: TopicMap,
) -> Genome:
    """Assemble one genotype per user appearing in the event log.

    Each cell lists its values in sorted-hashtag order.
    """
    rows = pair_metrics(events, index, net, topics)
    raw: dict[str, dict[tuple[str, MetricKind], list[float]]] = {
        u: {} for u in sorted(events.users)
    }
    for (u, h) in sorted(rows):
        topic = topics.topic_of(h)
        cells = raw[u]
        for kind, value in rows[(u, h)].items():
            cells.setdefault((topic, kind), []).append(value)
    genotypes = {
        u: Genotype(
            owner=u,
            cells={
                key: MetricCell(
                    values=tuple(vals), mean=sum(vals) / len(vals), count=len(vals)
                )
                for key, vals in cells.items()
            },
        )
        for u, cells in raw.items()
    }
    return Genome(genotypes=genotypes)


def node_topic_latency(index: AdoptionIndex, topics: TopicMap, topic: str) -> dict[str, float]:
    """Per-user mean TIME for one topic; users without values omitted.

    Values are summed in sorted-hashtag order, as in the genome's TIME
    cell, so each mean equals that cell's mean exactly.
    """
    values: dict[str, list[float]] = {}
    for (u, h) in sorted(index.first_use):
        if topics.topic_of(h) == topic and index.prior_adopters[(u, h)]:
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
