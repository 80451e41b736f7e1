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

import numpy as np

from .errors import DataError
from .ingest import AdoptionIndex, TopicMap, gather_rows, libm, row_sums, run_starts

__all__ = [
    "MetricKind",
    "Genome",
    "PairMetrics",
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


@dataclass(frozen=True, eq=False)
class Genome:
    """Every user's per-topic metric cells, in output order.

    Cell i is user ``users[user[i]]``'s metric ``metrics[kind[i]]`` on
    topic ``topics[topic[i]]``.  The three tables are sorted by name (by
    tag for metrics), so cells in id order are in output order.  A cell's
    values, in hashtag-name order, are ``values[ptr[i]:ptr[i + 1]]``, and
    ``mean[i]`` adds them left to right as :func:`genonet.ingest.ordered_sum` does.
    """

    users: tuple[str, ...]
    topics: tuple[str, ...]
    metrics: tuple[MetricKind, ...]
    user: np.ndarray
    topic: np.ndarray
    kind: np.ndarray
    ptr: np.ndarray
    values: np.ndarray
    mean: np.ndarray


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


@dataclass(frozen=True, eq=False)
class PairMetrics:
    """The six metrics of every adopted pair whose hashtag has a topic.

    One row per pair in the index's first-use order: int64 ids into
    ``users``, ``hashtags`` (the index's names) and the topic map's
    ``topics``, and one float64 ``values`` column per :class:`MetricKind`
    in declaration order, NaN where a metric is undefined.  No defined
    value is NaN: TIME, N-USES and N-PAR are positive integers, F-PAR and
    LAT lie in (0, 1] and LOG-LAT is finite.
    """

    users: tuple[str, ...]
    hashtags: tuple[str, ...]
    user: np.ndarray
    hashtag: np.ndarray
    topic: np.ndarray
    values: np.ndarray


def _groups(keys: tuple[np.ndarray, ...], values: np.ndarray) -> tuple:
    """``values`` grouped by every key column but the last, which orders each
    group's values.  Returns, for the groups in key order (first column
    primary): their key columns, their CSR offsets into the returned sorted
    ``values``, and their means, each added left to right."""
    order = np.lexsort(keys[::-1])
    groups = [key[order] for key in keys[:-1]]
    starts = np.flatnonzero(run_starts(*groups))
    ptr, values = np.append(starts, len(order)), values[order]
    sizes = np.diff(ptr)
    # longest groups first, so the groups with a j-th value are a prefix
    desc = np.argsort(-sizes, kind="stable")
    first, total = starts[desc], np.zeros(len(starts))
    live = np.searchsorted(-sizes[desc], -np.arange(sizes.max(initial=0)))  # sizes above j
    for j, m in enumerate(live.tolist()):
        total[:m] += values[first[:m] + j]
    mean = np.empty(len(starts))
    mean[desc] = total / sizes[desc]
    return [g[starts] for g in groups], ptr, values, mean


def pair_metrics(index: AdoptionIndex, topics: TopicMap) -> PairMetrics:
    """The metric table of every adopted pair whose hashtag has a topic.

    N-USES is defined for every row; TIME, N-PAR, F-PAR, LAT and LOG-LAT
    where a followee adopted the hashtag strictly before the user.  A
    hashtag's mean LAT adds its values in row order.
    """
    tag_topic = topics.topic_ids(index.hashtags)
    pairs = np.flatnonzero(tag_topic[index.pair_hashtag] < len(topics.topics))
    user, tag = index.pair_user[pairs], index.pair_hashtag[pairs]
    n_prior = np.diff(index.prior_ptr)[pairs]
    reacted = np.flatnonzero(n_prior)
    prior, adopted = n_prior[reacted], pairs[reacted]
    lat = 1.0 / np.maximum(1, _lat_counts(index, tag_topic, adopted))
    mean_lat = np.ones(len(index.hashtags))
    (lat_tags,), _, _, means = _groups((tag[reacted], reacted), lat)
    mean_lat[lat_tags] = means
    columns = np.full((len(MetricKind), len(pairs)), np.nan)
    time_col, uses_col, n_par_col, f_par_col, lat_col, log_lat_col = columns
    uses_col[:] = index.use_count[pairs]
    time_col[reacted] = index.first_use[adopted] - index.first_exposure[adopted]
    n_par_col[reacted] = prior
    f_par_col[reacted] = prior / np.diff(index.followee_ptr)[user[reacted]]
    lat_col[reacted] = lat
    log_lat_col[reacted] = libm(math.log, lat / mean_lat[tag[reacted]])
    return PairMetrics(index.users, index.hashtags, user, tag, tag_topic[tag], columns.T)


def build_genome(index: AdoptionIndex, topics: TopicMap) -> Genome:
    """The metric cells of every user with a topical adoption."""
    table = pair_metrics(index, topics)
    row, kind = np.nonzero(~np.isnan(table.values))
    names = tuple(sorted(topics.topics))
    metrics = tuple(sorted(MetricKind, key=lambda k: k.value))
    kind_id = np.array([metrics.index(k) for k in MetricKind])
    (user, topic, kind), ptr, values, mean = _groups(
        (table.user[row], topics.rank[table.topic[row]], kind_id[kind], table.hashtag[row]),
        table.values[row, kind],
    )
    return Genome(index.users, names, metrics, user, topic, kind, ptr, values, mean)


def node_topic_latency(
    index: AdoptionIndex, topics: TopicMap, topic: str
) -> tuple[np.ndarray, np.ndarray]:
    """The ascending ids of the users with a TIME value on one topic, and
    each one's mean TIME.  The values group as the genome's cells do, so
    each mean equals the user's TIME cell mean exactly."""
    in_topic = topics.topic_ids(index.hashtags) == topics.topic_id(topic)
    pairs = np.flatnonzero(in_topic[index.pair_hashtag] & (index.first_exposure >= 0))
    time = (index.first_use[pairs] - index.first_exposure[pairs]).astype(float)
    (user,), _, _, mean = _groups((index.pair_user[pairs], index.pair_hashtag[pairs]), time)
    return user, mean


def _cell_labels(g: Genome) -> list[str]:
    """Each cell's ``user<TAB>topic<TAB>metric`` row prefix."""
    return [f"{g.users[u]}\t{g.topics[t]}\t{g.metrics[k].value}"
            for u, t, k in zip(g.user.tolist(), g.topic.tolist(), g.kind.tolist())]


def write_genome_values(genome: Genome, fh) -> None:
    """One row per (user, topic, metric, value), TSV."""
    fh.write("user\ttopic\tmetric\tvalue\n")
    labels = _cell_labels(genome)
    cells = np.repeat(np.arange(len(labels)), np.diff(genome.ptr))
    for cell, value in zip(cells.tolist(), genome.values.tolist()):
        fh.write(f"{labels[cell]}\t{value!r}\n")


def write_genome_summary(genome: Genome, fh) -> None:
    """One row per (user, topic, metric) with mean and count, TSV."""
    fh.write("user\ttopic\tmetric\tmean\tcount\n")
    counts = np.diff(genome.ptr).tolist()
    for label, mean, count in zip(_cell_labels(genome), genome.mean.tolist(), counts):
        fh.write(f"{label}\t{mean!r}\t{count}\n")
