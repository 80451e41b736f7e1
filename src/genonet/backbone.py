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
    jaccard_edge_similarity,
    kendall_tau,
    pagerank,
    strongly_connected_components,
    weakly_connected_components,
)
from .ingest import AdoptionIndex, FollowerNetwork, TopicMap

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


@dataclass(frozen=True)
class InfluenceBackbone:
    topic: str
    weights: Mapping[tuple[str, str], int]

    @cached_property
    def graph(self) -> DirectedGraph:
        """The backbone graph, built on first use."""
        return DirectedGraph.from_edges(self.weights)


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
        d["scc_fraction"] = dict(self.scc_fraction)
        d["wcc_fraction"] = dict(self.wcc_fraction)
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
    wanted = set(topics.hashtags_for(topic))
    keys, weight, _, _ = topic_backbone(index, np.array([h in wanted for h in index.hashtags], bool))
    users, n = index.users, len(index.users)
    weights = {(users[k // n], users[k % n]): w for k, w in zip(keys.tolist(), weight.tolist())}
    return InfluenceBackbone(topic=topic, weights=weights)


def _largest_fraction(components: list[frozenset], node_count: int) -> float:
    if node_count == 0:
        return 0.0
    return max(len(c) for c in components) / node_count


def compare_with_follower(b: InfluenceBackbone, net: FollowerNetwork) -> BackboneReport:
    """Compare a backbone with its follower counterpart.

    The counterpart keeps every follower edge whose both endpoints touch
    a backbone edge.  Rank correlations compare follower counts,
    followee counts and PageRank across the two graphs on the shared
    node set.
    """
    if not b.weights:
        raise DataError(f"backbone for {b.topic!r} is empty")
    touched = set(b.graph.nodes)
    follower_edges = [(u, v) for (u, v) in net.edges if u in touched and v in touched]
    follower_graph = DirectedGraph.from_edges(follower_edges, nodes=touched)

    jac = jaccard_edge_similarity(b.weights, follower_edges)

    scc = {
        "influence": _largest_fraction(
            strongly_connected_components(b.graph), b.graph.n
        ),
        "follower": _largest_fraction(
            strongly_connected_components(follower_graph), follower_graph.n
        ),
    }
    wcc = {
        "influence": _largest_fraction(
            weakly_connected_components(b.graph), b.graph.n
        ),
        "follower": _largest_fraction(
            weakly_connected_components(follower_graph), follower_graph.n
        ),
    }

    # edge (followee, follower): out-degree counts followers, in-degree followees
    graphs = (b.graph, follower_graph)
    followers = [dict(zip(g.nodes, np.diff(g.indptr).tolist())) for g in graphs]
    followees = [dict(zip(g.nodes, np.bincount(g.indices, minlength=g.n).tolist()))
                 for g in graphs]
    kendall = {
        "followers": kendall_tau(*followers),
        "followees": kendall_tau(*followees),
        "pagerank": kendall_tau(pagerank(b.graph), pagerank(follower_graph)),
    }
    return BackboneReport(
        topic=b.topic,
        influence_edges=len(b.weights),
        follower_edges=len(follower_edges),
        jaccard=jac,
        scc_fraction=scc,
        wcc_fraction=wcc,
        kendall=kendall,
    )


def cross_topic_overlap(backbones: Sequence[InfluenceBackbone]) -> OverlapMatrix:
    """Pairwise Jaccard edge overlap; unit diagonal, empty-empty pairs 0."""
    if len(backbones) < 2:
        raise DataError("cross_topic_overlap needs at least 2 backbones")
    edges = [b.weights for b in backbones]
    rows = []
    for i, ei in enumerate(edges):
        row = []
        for j, ej in enumerate(edges):
            if i == j:
                row.append(1.0)
            elif not ei and not ej:
                row.append(0.0)
            else:
                row.append(jaccard_edge_similarity(ei, ej))
        rows.append(tuple(row))
    return OverlapMatrix(
        topics=tuple(b.topic for b in backbones), values=tuple(rows)
    )


def write_backbone_tsv(b: InfluenceBackbone, fh) -> None:
    fh.write("topic\tfollowee\tfollower\tweight\n")
    for (u, v) in sorted(b.weights):
        fh.write(f"{b.topic}\t{u}\t{v}\t{b.weights[(u, v)]}\n")
