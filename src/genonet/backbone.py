"""Topic influence backbones and their comparison with the follower net.

A backbone keeps the follower edges (u, v) along which adoption
precedence occurred for the topic: the followee u first-used at least
one topic hashtag strictly before the follower v.  The edge weight is
the number of such hashtags.  The backbone graph contains exactly the
nodes incident to at least one backbone edge, so "isolated in the
influence network" is the same as absence from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError
from .graph import (
    DirectedGraph,
    jaccard_keys,
    kendall_tau,
    pagerank,
    strongly_connected_components,
    weakly_connected_components,
)
from .ingest import AdoptionIndex, TopicMap, touched_ids

__all__ = [
    "InfluenceBackbone",
    "BackboneReport",
    "OverlapMatrix",
    "topic_backbone",
    "extract_backbone",
    "compare_with_follower",
    "cross_topic_overlap",
    "write_backbone_tsv",
]


@dataclass(frozen=True, eq=False)
class InfluenceBackbone:
    """One topic's backbone over the index's user ids: its edges as the
    sorted keys ``followee * n + follower``, ``n = len(users)``, and each
    edge's weight."""

    topic: str
    users: tuple[str, ...]
    keys: np.ndarray
    weight: np.ndarray

    @cached_property
    def touched(self) -> np.ndarray:
        """A mask over user ids: the users on at least one edge."""
        return touched_ids(self.keys, len(self.users))

    @cached_property
    def graph(self) -> DirectedGraph:
        """The graph on the ids of the users on an edge, built on first use."""
        return DirectedGraph.from_keys(self.keys, self.touched, range(len(self.users)))


@dataclass(frozen=True)
class BackboneReport:
    topic: str
    influence_edges: int
    follower_edges: int
    jaccard: float
    scc_fraction: Mapping[str, float]
    wcc_fraction: Mapping[str, float]
    kendall: Mapping[str, float]

    def to_dict(self) -> dict:
        d = asdict(self)
        # NaN is not valid JSON; degenerate rank correlations become null
        d["kendall"] = {
            k: (None if math.isnan(v) else v) for k, v in self.kendall.items()
        }
        return d


@dataclass(frozen=True)
class OverlapMatrix:
    topics: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]


def topic_backbone(index: AdoptionIndex, in_topic: np.ndarray) -> tuple[np.ndarray, ...]:
    """The precedence edges of the hashtag ids flagged by ``in_topic``.

    Returns the sorted edge keys ``followee * n + follower`` over user
    ids, each edge's weight (its number of hashtags), and for each of the
    hashtags' precedence triples its edge's position and its hashtag.
    """
    tag, followee, follower = index.precedence
    on = in_topic[tag]
    keys, edge = np.unique(followee[on] * len(index.users) + follower[on], return_inverse=True)
    return keys, np.bincount(edge, minlength=len(keys)), edge, tag[on]


def extract_backbone(topic: str, index: AdoptionIndex, topics: TopicMap) -> InfluenceBackbone:
    """Backbone for one topic: the sum of its hashtags' precedence edges."""
    in_topic = topics.topic_ids(index.hashtags) == topics.topic_id(topic)
    keys, weight, _, _ = topic_backbone(index, in_topic)
    return InfluenceBackbone(topic=topic, users=index.users, keys=keys, weight=weight)


def compare_with_follower(b: InfluenceBackbone, index: AdoptionIndex) -> BackboneReport:
    """Compare a backbone with its follower counterpart.

    The counterpart keeps every follower edge whose both endpoints touch
    a backbone edge.  Rank correlations compare follower counts,
    followee counts and PageRank across the two graphs on the shared
    node set.
    """
    if not len(b.keys):
        raise DataError(f"backbone for {b.topic!r} is empty")
    n = len(b.users)
    # CSR rows in id order, each sorted: the keys come out sorted
    follower = np.repeat(np.arange(n), np.diff(index.follower_ptr)) * n + index.follower_ids
    # both graphs are on the touched ids, so they share one node order
    graphs = (b.graph, DirectedGraph.from_keys(follower, b.touched, range(n)))

    def largest(components):
        return {name: int(np.bincount(components(g)).max()) / g.n
                for name, g in zip(("influence", "follower"), graphs)}

    # edge (followee, follower): out-degree counts followers, in-degree followees
    kendall = {
        "followers": kendall_tau(*(np.diff(g.indptr) for g in graphs)),
        "followees": kendall_tau(*(np.bincount(g.indices, minlength=g.n) for g in graphs)),
        "pagerank": kendall_tau(*(pagerank(g.indptr, g.indices) for g in graphs)),
    }
    return BackboneReport(
        topic=b.topic,
        influence_edges=len(b.keys),
        follower_edges=len(graphs[1].indices),
        jaccard=jaccard_keys(*(g.keys for g in graphs)),
        scc_fraction=largest(strongly_connected_components),
        wcc_fraction=largest(weakly_connected_components),
        kendall=kendall,
    )


def cross_topic_overlap(backbones: Sequence[InfluenceBackbone]) -> OverlapMatrix:
    """Pairwise Jaccard edge overlap; unit diagonal, empty-empty pairs 0."""
    if len(backbones) < 2:
        raise DataError("cross_topic_overlap needs at least 2 backbones")
    rows = []
    for i, a in enumerate(backbones):
        row = []
        for j, b in enumerate(backbones):
            if i == j:
                row.append(1.0)
            elif not len(a.keys) and not len(b.keys):
                row.append(0.0)
            else:
                row.append(jaccard_keys(a.keys, b.keys))
        rows.append(tuple(row))
    return OverlapMatrix(
        topics=tuple(b.topic for b in backbones), values=tuple(rows)
    )


def write_backbone_tsv(b: InfluenceBackbone, fh) -> None:
    """One row per edge in key order, which is (followee, follower) name order."""
    fh.write("topic\tfollowee\tfollower\tweight\n")
    n = len(b.users)
    for k, w in zip(b.keys.tolist(), b.weight.tolist()):
        fh.write(f"{b.topic}\t{b.users[k // n]}\t{b.users[k % n]}\t{w}\n")
