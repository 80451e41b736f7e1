"""Planted syngen configurations shared by unit and acceptance tests."""

from dataclasses import dataclass

import numpy as np

from genonet.graph import DirectedGraph
from genonet.ingest import intern
from genonet.syngen import PREFERENTIAL, UNIFORM, GenParams, TopicProfile

# Per-topic delay shifts for the separated classification dataset.  On the
# attachment tree every LAT value is 1/(shift + g - 1) with a small
# geometric g, so classes are tight and well apart.
SEPARATED_SHIFTS = (30, 45, 68, 102, 153)
FLAT_SHIFTS = (60, 60, 60, 60, 60)


def from_edges(edges, nodes=()) -> DirectedGraph:
    """The graph on ``nodes`` and the ends of the (u, v) pairs, its nodes
    in sorted-label order, with one edge per distinct pair."""
    pairs, nodes = list(edges), list(nodes)
    order, ids = intern(nodes + [x for e in pairs for x in e])
    n, ids = len(order), ids[len(nodes):]
    return DirectedGraph.from_keys(np.unique(ids[::2] * n + ids[1::2]), np.ones(n, bool), order)


@dataclass(frozen=True)
class LatencyCase:
    """A graph and its node latencies keyed by node label, the form the
    latency oracles read."""

    graph: DirectedGraph
    latency: dict

    @property
    def lat(self) -> np.ndarray:
        """The latencies in node order, as ``latmin.prepare`` takes them."""
        return np.array([self.latency[x] for x in self.graph.nodes], float)


def classification_params(seed: int, shifts=SEPARATED_SHIFTS) -> GenParams:
    """5 topics x 20 hashtags, 300 users, LAT separated via delay shifts.

    The attachment tree gives every user exactly one followee, so the
    timeline count inside an adoption window is exactly the trigger's
    repeat stream and LAT is pinned to the topic's delay shift.
    """
    profiles = tuple(
        TopicProfile(
            latency_mean=(float(s), float(s)),
            latency_jitter=2.0,
            adoption_prob=(1.0, 1.0),
            repeat_rate=(1.0, 1.0),
            repeat_horizon=s + 25,
        )
        for s in shifts
    )
    return GenParams(
        n_users=300,
        seed=seed,
        graph_model=PREFERENTIAL,
        attach_count=1,
        n_topics=len(shifts),
        hashtags_per_topic=20,
        cascades_per_hashtag=8,
        topic_profiles=profiles,
    )


def time_separated_params(seed: int, n_topics: int = 3) -> GenParams:
    """Dense graph with enormous TIME separation between topics."""
    shifts = [10 * 30**i for i in range(n_topics)]
    profiles = tuple(
        TopicProfile(
            latency_mean=(float(s), float(s)),
            latency_jitter=2.0,
            adoption_prob=(1.0, 1.0),
            repeat_rate=(0.0, 0.0),
            repeat_horizon=0,
        )
        for s in shifts
    )
    return GenParams(
        n_users=60,
        seed=seed,
        graph_model=UNIFORM,
        edge_prob=0.15,
        n_topics=n_topics,
        hashtags_per_topic=8,
        cascades_per_hashtag=4,
        topic_profiles=profiles,
        cascade_gap=10_000_000,
    )


def activity_params(seed: int) -> GenParams:
    """Adoption driven by per-user topic engagement (criterion 5 substrate)."""
    profile = TopicProfile(
        latency_mean=(2.0, 40.0),
        latency_jitter=2.0,
        adoption_prob=(0.05, 0.95),
        repeat_rate=(0.0, 0.5),
        repeat_horizon=4,
        engagement_coupling=True,
    )
    return GenParams(
        n_users=120,
        seed=seed,
        graph_model=UNIFORM,
        edge_prob=0.12,
        n_topics=3,
        hashtags_per_topic=10,
        cascades_per_hashtag=2,
        topic_profiles=(profile,) * 3,
    )


def latency_benchmark(seed: int, n: int = 500) -> LatencyCase:
    """Hub-dominated strongly connected graph with Pareto(1.5) latencies.

    Bidirectional superlinear preferential-attachment tree: a handful of
    hubs sit on most shortest paths, the regime where joint structural
    and latency information pays off.
    """
    rng = np.random.default_rng(seed)
    counts = np.zeros(n)
    edges = []
    for new in range(1, n):
        w = (counts[:new] + 1.0) ** 2
        c = int(rng.choice(new, p=w / w.sum()))
        edges.append((c, new))
        edges.append((new, c))
        counts[c] += 1
        counts[new] += 1
    lat = rng.pareto(1.5, n) + 1.0
    graph = from_edges(edges)
    return LatencyCase(graph, {i: float(lat[i]) for i in range(n)})


def kernel_graphs(seed: int = 17):
    """(label, graph) cases for the all-sources kernels: tie-heavy shapes
    with many equal-length shortest paths, a layered DAG with more than
    2^53 of them, and random digraphs with isolated nodes and unreachable
    pairs, at sizes below, at and across a block of sources."""
    rng = np.random.default_rng(seed)
    ring = [(i, (i + 1) % 60) for i in range(60)]
    yield "bidirected 60-cycle", from_edges(ring + [(v, u) for u, v in ring])
    grid = [
        (12 * r + c, 12 * (r + dr) + c + dc)
        for r in range(12) for c in range(12)
        for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0))
        if 0 <= r + dr < 12 and 0 <= c + dc < 12
    ]
    yield "12x12 grid", from_edges(grid)
    halves = [(a, b) for a in range(20) for b in range(20, 40)]
    yield "K20,20", from_edges(halves + [(b, a) for a, b in halves])
    yield "layered DAG", from_edges(layered_dag_edges(rng))
    for n in (1, 2, 7, 16, 17, 40, 90):
        p = float(rng.uniform(0.01, 0.12))
        edges = [(int(a), int(b)) for a in range(n) for b in range(n)
                 if a != b and rng.random() < p]
        yield f"random n={n} p={p:.3f}", from_edges(edges, nodes=range(n))


def layered_dag_edges(rng, width: int = 10, layers: int = 24) -> list[tuple[int, int]]:
    """Edges between consecutive layers of ``width`` nodes, each present
    with probability 0.7 and every node given at least one parent, so the
    path counts differ from node to node."""
    edges = []
    for layer in range(1, layers):
        for child in range(width * layer, width * (layer + 1)):
            parents = np.flatnonzero(rng.random(width) < 0.7)
            if not len(parents):
                parents = rng.integers(width, size=1)
            edges += [(width * (layer - 1) + int(p), child) for p in parents]
    return edges
