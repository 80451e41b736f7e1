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
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

import numpy as np

from .errors import DataError
from .ingest import AdoptionIndex, TopicMap, gather_rows, row_sums

__all__ = [
    "MetricKind",
    "MetricCell",
    "Genotype",
    "float_sum",
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


def float_sum(values: Iterable[float]) -> float:
    """Floats added left to right, as ``sum()`` does up to Python 3.11.

    Python 3.12's ``sum()`` compensates float sums and ``math.fsum`` is
    exact; either would move the last bits of every mean written.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def _lat_counts(index: AdoptionIndex, tag_topic: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Per pair, the posts by the user's followees with a hashtag of the
    pair's topic and a time strictly between first exposure and first use.

    Posts are keyed by the rank of their (topic, user) group times the
    number of distinct times plus the rank of their time, so no key
    overflows whatever the times; each (pair, followee) slot counts its
    posts with two binary searches in the sorted keys.
    """
    times, time_rank = np.unique(index.event_time, return_inverse=True)
    n, width = len(index.users), len(times)
    groups, group_rank = np.unique(
        tag_topic[index.event_hashtag] * n + index.event_user, return_inverse=True
    )
    keys = np.sort(group_rank * width + time_rank)
    # the slot columns dominate memory, so each is dropped once read
    indptr, slots = gather_rows(index.followee_ptr, index.pair_user[pairs])
    sizes = np.diff(indptr)
    group = np.repeat(tag_topic[index.pair_hashtag[pairs]] * n, sizes) + index.followee_ids[slots]
    del slots
    at = np.minimum(np.searchsorted(groups, group), len(groups) - 1)
    found = groups[at] == group
    del group
    at *= width

    def bound(time: np.ndarray, side: str) -> np.ndarray:
        return np.searchsorted(keys, at + np.repeat(np.searchsorted(times, time), sizes), side)

    count = bound(index.first_use[pairs], "left") - bound(index.first_exposure[pairs], "right")
    return row_sums(count * found, indptr)


def pair_metrics(
    index: AdoptionIndex, topics: TopicMap
) -> dict[tuple[str, str], dict[MetricKind, float]]:
    """Metric rows of every adopted pair whose hashtag has a topic.

    Rows are keyed by (user, hashtag) name and ordered as the index's
    pairs, in first-use order.  Each row holds N-USES and, when a followee
    adopted the hashtag strictly before the user, TIME, N-PAR, F-PAR, LAT
    and LOG-LAT; a hashtag's mean LAT adds its values in row order.
    """
    tag_topic = topics.topic_ids(index.hashtags)
    pairs = np.flatnonzero(tag_topic[index.pair_hashtag] < len(topics.topics))
    user, tag = index.pair_user[pairs], index.pair_hashtag[pairs]
    n_prior = np.diff(index.prior_ptr)[pairs]
    reacted = n_prior > 0
    f_par = np.divide(n_prior, np.diff(index.followee_ptr)[user], out=np.zeros(len(pairs)),
                      where=reacted)
    lat = np.zeros(len(pairs))
    lat[reacted] = 1.0 / np.maximum(1, _lat_counts(index, tag_topic, pairs[reacted]))
    time = index.first_use[pairs] - index.first_exposure[pairs]
    users, tags = index.users, index.hashtags
    rows: dict[tuple[str, str], dict[MetricKind, float]] = {}
    lats: dict[str, list[float]] = {}
    for u, h, uses, npar, t, fpar, lat_value in zip(
        user.tolist(), tag.tolist(), index.use_count[pairs].tolist(), n_prior.tolist(),
        time.tolist(), f_par.tolist(), lat.tolist(),
    ):
        row = rows[(users[u], tags[h])] = {MetricKind.N_USES: float(uses)}
        if npar:
            row[MetricKind.TIME] = float(t)
            row[MetricKind.N_PAR] = float(npar)
            row[MetricKind.F_PAR] = fpar
            row[MetricKind.LAT] = lat_value
            lats.setdefault(tags[h], []).append(lat_value)
    mean_lats = {h: float_sum(vals) / len(vals) for h, vals in lats.items()}
    for (_u, h), row in rows.items():
        if MetricKind.LAT in row:
            row[MetricKind.LOG_LAT] = math.log(row[MetricKind.LAT] / mean_lats[h])
    return rows


def build_genome(index: AdoptionIndex, topics: TopicMap) -> dict[str, Genotype]:
    """One genotype per user appearing in the event log, by user name.

    Each cell lists its values in sorted-hashtag order.
    """
    rows = pair_metrics(index, topics)
    raw: dict[str, dict[tuple[str, MetricKind], list[float]]] = {
        index.users[u]: {} for u in np.unique(index.event_user).tolist()
    }
    for (u, h) in sorted(rows):
        topic = topics.topic_of(h)
        cells = raw[u]
        for kind, value in rows[(u, h)].items():
            cells.setdefault((topic, kind), []).append(value)
    return {
        u: Genotype(
            owner=u,
            cells={
                key: MetricCell(
                    values=tuple(vals), mean=float_sum(vals) / len(vals), count=len(vals)
                )
                for key, vals in cells.items()
            },
        )
        for u, cells in raw.items()
    }


def node_topic_latency(index: AdoptionIndex, topics: TopicMap, topic: str) -> dict[str, float]:
    """Per-user mean TIME for one topic; users without values omitted.

    Values are summed in sorted-hashtag order, as in the genome's TIME
    cell, so each mean equals that cell's mean exactly.
    """
    in_topic = np.array([topics.topic_of(h) == topic for h in index.hashtags], bool)
    pairs = np.flatnonzero(in_topic[index.pair_hashtag] & (index.first_exposure >= 0))
    pairs = pairs[np.lexsort((index.pair_hashtag[pairs], index.pair_user[pairs]))]
    times = (index.first_use[pairs] - index.first_exposure[pairs]).tolist()
    values: dict[str, list[float]] = {}
    for u, time in zip(index.pair_user[pairs].tolist(), times):
        values.setdefault(index.users[u], []).append(float(time))
    return {u: float_sum(vals) / len(vals) for u, vals in values.items()}


def write_genome_values(genome: Mapping[str, Genotype], fh) -> None:
    """One row per (user, topic, metric, value), TSV."""
    fh.write("user\ttopic\tmetric\tvalue\n")
    for user in sorted(genome):
        gt = genome[user]
        for (topic, kind) in sorted(gt.cells, key=lambda k: (k[0], k[1].value)):
            for value in gt.cells[(topic, kind)].values:
                fh.write(f"{user}\t{topic}\t{kind.value}\t{value!r}\n")


def write_genome_summary(genome: Mapping[str, Genotype], fh) -> None:
    """One row per (user, topic, metric) with mean and count, TSV."""
    fh.write("user\ttopic\tmetric\tmean\tcount\n")
    for user in sorted(genome):
        gt = genome[user]
        for (topic, kind) in sorted(gt.cells, key=lambda k: (k[0], k[1].value)):
            cell = gt.cells[(topic, kind)]
            fh.write(f"{user}\t{topic}\t{kind.value}\t{cell.mean!r}\t{cell.count}\n")
