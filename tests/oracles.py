"""Brute-force reference implementations used to check the library.

Everything here recomputes results from raw primitives (event lists,
edge sets) by direct enumeration, deliberately ignoring the library's
data structures and algorithms.
"""

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple

import numpy as np


# --- interpreter arithmetic -----------------------------------------------


def compensated_sum(iterable, /, start=0):
    """``builtins.sum`` as CPython 3.12 computes it.

    A port of ``builtin_sum_impl`` in 3.12's ``Python/bltinmodule.c``.
    An int start adds int items exactly while the total fits a C long.
    A float total then adds exact float items with Neumaier compensation
    and ints that fit a C long as doubles; the compensation joins the
    total, when it is nonzero and finite, at the end or before any other
    item.  Everything after such an item is added plainly.
    """
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            result = result + item
            if not (isinstance(item, int) and -2**63 <= result < 2**63):
                break
        else:
            return result
    if type(result) is float:
        total, comp = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    comp += (total - t) + item
                else:
                    comp += (item - t) + total
                total = t
            elif isinstance(item, int) and -2**63 <= item < 2**63:
                total += float(item)
            else:
                if comp and math.isfinite(comp):
                    total += comp
                result = total + item
                break
        else:
            if comp and math.isfinite(comp):
                total += comp
            return total
    for item in items:
        result = result + item
    return result


def float_sum(values):
    """Floats added left to right, as ``sum()`` does up to Python 3.11: the
    reference for :func:`genonet.ingest.ordered_sum`.

    Python 3.12's ``sum()`` compensates float sums and ``math.fsum`` is
    exact; either would move the last bits of every mean written.
    """
    total = 0.0
    for value in values:
        total += value
    return total


# --- name-keyed dataset ----------------------------------------------------


class Event(NamedTuple):
    time: int
    user: str
    hashtag: str


@dataclass(frozen=True)
class FollowerNetwork:
    """Directed follow structure: edge (u, v) means v follows u."""

    nodes: frozenset
    edges: frozenset

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop on {u!r}")
            if u not in self.nodes or v not in self.nodes:
                raise ValueError(f"edge ({u!r}, {v!r}) references unknown node")


@dataclass(frozen=True)
class EventLog:
    """Deduplicated post events, sorted by (time, user, hashtag)."""

    events: tuple
    skipped_lines: int = 0

    @cached_property
    def users(self):
        return frozenset(e.user for e in self.events)

    @cached_property
    def hashtags(self):
        return frozenset(e.hashtag for e in self.events)


def _content_lines(source):
    for line_no, raw in enumerate(source, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if line.strip() and not line.lstrip().startswith("#"):
            yield line_no, line


def load_follower_edges(source):
    """``ingest.load_follower_edges`` on names: a set of name pairs."""
    from genonet.errors import ParseError

    nodes, edges = set(), set()
    for line_no, line in _content_lines(source):
        parts = line.split("\t")
        if len(parts) == 1:
            nodes.add(parts[0].strip())
            continue
        if len(parts) != 2:
            raise ParseError(f"expected 2 fields, got {len(parts)}", line_no)
        followee, follower = (p.strip() for p in parts)
        if not followee or not follower:
            raise ParseError("empty field in edge", line_no)
        if followee == follower:
            raise ParseError(f"self-loop on {followee!r}", line_no)
        nodes.update((followee, follower))
        edges.add((followee, follower))
    return FollowerNetwork(frozenset(nodes), frozenset(edges))


def load_events(source):
    """``ingest.load_events`` on names: a set of ``Event`` triples, sorted."""
    from genonet.errors import ParseError
    from genonet.ingest import normalize_hashtag

    seen, skipped = set(), 0
    for line_no, line in _content_lines(source):
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(f"expected 3 fields, got {len(parts)}", line_no)
        time_raw, user, tags_raw = (p.strip() for p in parts)
        digits = time_raw.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise ParseError(f"non-integer time {time_raw!r}", line_no)
        time = int(time_raw)
        if time < 0:
            raise ParseError(f"negative time {time}", line_no)
        if time >= 2**63:
            raise ParseError(f"time {time} above 2^63-1", line_no)
        if not user:
            raise ParseError("empty user", line_no)
        tags = [t for t in (normalize_hashtag(t) for t in tags_raw.split(",")) if t]
        if not tags:
            skipped += 1
        seen.update(Event(time, user, tag) for tag in tags)
    return EventLog(tuple(sorted(seen)), skipped)


def named(data):
    """An ``ingest.FollowerNetwork`` or ``ingest.EventLog`` read back as the
    name type above, its id columns mapped to names."""
    from genonet.ingest import FollowerNetwork as IdNetwork

    if isinstance(data, IdNetwork):
        nodes, n = data.nodes, len(data.nodes)
        return FollowerNetwork(
            frozenset(nodes), frozenset((nodes[k // n], nodes[k % n]) for k in data.keys.tolist())
        )
    return EventLog(tuple(
        Event(t, data.users[u], data.hashtags[h])
        for t, u, h in zip(data.time.tolist(), data.user.tolist(), data.hashtag.tolist())
    ), data.skipped_lines)


# --- topics by name ---------------------------------------------------------


def assignment(topics):
    """An ``ingest.TopicMap`` read back as ``{hashtag: topic name}``, in
    hashtag-name order."""
    return {h: topics.topics[t] for h, t in zip(topics.hashtags, topics.topic.tolist())}


def hashtags_for(topics, topic):
    """The sorted hashtags of one topic, by name."""
    return tuple(h for h, t in assignment(topics).items() if t == topic)


def topic_map_by_name(lines):
    """``ingest.load_topic_map`` as one dict: ``{hashtag: topic}`` and the
    topics in their order of first appearance, or the ``(message, line)``
    of the first hashtag given a second topic."""
    from genonet.ingest import normalize_hashtag

    found, topics = {}, []
    for line_no, line in _content_lines(lines):
        tag, topic = line.split("\t")
        tag, topic = normalize_hashtag(tag), topic.strip()
        if found.setdefault(tag, topic) != topic:
            return f"hashtag {tag!r} mapped to both {found[tag]!r} and {topic!r}", line_no
        if topic not in topics:
            topics.append(topic)
    return found, tuple(topics)


def topic_ids_by_name(topics, hashtags):
    """``TopicMap.topic_ids`` one dict lookup per hashtag."""
    pos = {t: i for i, t in enumerate(topics.topics)}
    found = assignment(topics)
    return [pos.get(found.get(h), len(pos)) for h in hashtags]


def named_latency(index, user_mean):
    """``genotype.node_topic_latency``'s (user ids, means) as ``{name: mean}``."""
    user, mean = user_mean
    return {index.users[u]: m for u, m in zip(user.tolist(), mean.tolist())}


# --- random dataset material ----------------------------------------------


def random_log(rng, n_users=30, n_hashtags=12, n_topics=3, n_lines=300,
               edge_prob=0.1, max_time=200):
    """Random edges/events/topic lines in the ingest wire format."""
    users = [f"u{i}" for i in range(n_users)]
    hashtags = [f"h{i}" for i in range(n_hashtags)]
    topic_lines = [
        f"{h}\ttopic{i % n_topics}" for i, h in enumerate(hashtags)
    ]
    edge_lines = []
    for a in users:
        for b in users:
            if a != b and rng.random() < edge_prob:
                edge_lines.append(f"{a}\t{b}")
    event_lines = []
    for _ in range(n_lines):
        t = int(rng.integers(0, max_time))
        u = users[int(rng.integers(n_users))]
        k = int(rng.integers(1, 3))
        tags = ",".join(hashtags[int(rng.integers(n_hashtags))] for _ in range(k))
        event_lines.append(f"{t}\t{u}\t{tags}")
    return edge_lines, event_lines, topic_lines


# --- Table-style metric oracle --------------------------------------------


class MetricOracle:
    """Direct evaluation of the six metrics from raw (time, user, hashtag)
    triples and a raw follower edge set.

    Minima and per-pair values are cached after their first direct
    computation; every value still comes from a plain scan of the raw
    triples.
    """

    def __init__(self, triples, edges, topic_of):
        self.triples = sorted(set(triples))
        self.edges = set(edges)
        self.topic_of = dict(topic_of)
        self.followees = {}
        for a, b in self.edges:
            self.followees.setdefault(b, set()).add(a)
        self._first_use = {}
        for (t, u, h) in self.triples:
            if (u, h) not in self._first_use or t < self._first_use[(u, h)]:
                self._first_use[(u, h)] = t
        self._lat_cache = {}
        self._mean_lat_cache = {}

    def first_use(self, u, h):
        return self._first_use.get((u, h))

    def pairs(self):
        return sorted({(u, h) for (t, u, h) in self.triples})

    def _prior_parents(self, u, h):
        tu = self.first_use(u, h)
        out = []
        for v in self.followees.get(u, ()):
            tv = self.first_use(v, h)
            if tv is not None and tv < tu:
                out.append(v)
        return out

    def time(self, u, h):
        parents = self._prior_parents(u, h)
        if not parents:
            return None
        exposure = min(self.first_use(v, h) for v in self.followees.get(u, ())
                       if self.first_use(v, h) is not None)
        return self.first_use(u, h) - exposure

    def n_uses(self, u, h):
        return float(sum(1 for (t, uu, hh) in self.triples if uu == u and hh == h))

    def n_par(self, u, h):
        parents = self._prior_parents(u, h)
        return float(len(parents)) if parents else None

    def f_par(self, u, h):
        followees = self.followees.get(u, set())
        if not followees:
            return None
        parents = self._prior_parents(u, h)
        if not parents:
            return None
        return len(parents) / len(followees)

    def lat(self, u, h):
        if (u, h) in self._lat_cache:
            return self._lat_cache[(u, h)]
        parents = self._prior_parents(u, h)
        if not parents:
            value = None
        else:
            exposure = min(self.first_use(v, h) for v in self.followees.get(u, ())
                           if self.first_use(v, h) is not None)
            use = self.first_use(u, h)
            topic = self.topic_of[h]
            count = sum(
                1
                for (t, v, h2) in self.triples
                if v in self.followees.get(u, set())
                and self.topic_of.get(h2) == topic
                and exposure < t < use
            )
            value = 1.0 / max(1, count)
        self._lat_cache[(u, h)] = value
        return value

    def mean_lat(self, h):
        if h not in self._mean_lat_cache:
            vals = [self.lat(u, h) for (u, hh) in self.pairs() if hh == h]
            vals = [v for v in vals if v is not None]
            self._mean_lat_cache[h] = sum(vals) / len(vals) if vals else None
        return self._mean_lat_cache[h]

    def log_lat(self, u, h):
        lat = self.lat(u, h)
        if lat is None:
            return None
        return math.log(lat / self.mean_lat(h))


# --- name-keyed adoption index and pair metrics ----------------------------


def adoption_index_dicts(events, net):
    """The adoption index as name-keyed dicts, in first-use order.

    ``first_use``, ``use_counts`` and ``prior_adopters`` (each tuple in
    first-use order) hold every adopted pair; ``first_exposure[(u, h)]``
    is the earliest first use of ``h`` among u's followees, for every
    (user, hashtag) key of the follower join, adopted or not.
    """
    first_use, use_counts = {}, {}
    for t, u, h in events.events:
        key = (u, h)
        use_counts[key] = use_counts.get(key, 0) + 1
        if key not in first_use or t < first_use[key]:
            first_use[key] = t
    followers = {}
    for u, v in net.edges:
        followers.setdefault(u, []).append(v)
    first_exposure = {}
    prior = {key: () for key in first_use}
    for (v, h), t in first_use.items():
        for w in sorted(followers.get(v, ())):
            key = (w, h)
            if key not in first_exposure or t < first_exposure[key]:
                first_exposure[key] = t
            if t < first_use.get(key, t):
                prior[key] += (v,)
    return {"first_use": first_use, "first_exposure": first_exposure,
            "use_counts": use_counts, "prior_adopters": prior}


def index_dicts(index):
    """An ``AdoptionIndex``'s pair columns read back as name-keyed dicts in
    pair order; ``first_exposure`` holds the pairs with prior adopters."""
    users, tags = index.users, index.hashtags
    keys = [(users[u], tags[h]) for u, h in
            zip(index.pair_user.tolist(), index.pair_hashtag.tolist())]
    ptr, ids = index.prior_ptr.tolist(), index.prior_ids.tolist()
    prior = {k: tuple(users[v] for v in ids[a:b]) for k, a, b in zip(keys, ptr, ptr[1:])}
    return {
        "first_use": dict(zip(keys, index.first_use.tolist())),
        "first_exposure": {k: t for k, t in zip(keys, index.first_exposure.tolist())
                           if prior[k]},
        "use_counts": dict(zip(keys, index.use_count.tolist())),
        "prior_adopters": prior,
    }


def pair_metric_rows(events, net, topics):
    """Every adopted pair's metric row by name, one timeline scan per pair.

    Rows follow first-use order and hold N-USES, then TIME, N-PAR, F-PAR
    and LAT where a followee adopted strictly earlier, then LOG-LAT; a
    hashtag's mean LAT adds its LAT values in row order.
    """
    from genonet.genotype import MetricKind

    index = adoption_index_dicts(events, net)
    followees = {}
    for u, v in net.edges:
        followees.setdefault(v, []).append(u)
    by_user = {}
    for e in events.events:
        by_user.setdefault(e.user, []).append(e)
    topic_of = assignment(topics).get
    rows = {}
    for (u, h), hi in index["first_use"].items():
        topic = topic_of(h)
        if topic is None:
            continue
        row = rows[(u, h)] = {MetricKind.N_USES: float(index["use_counts"][(u, h)])}
        n_prior = len(index["prior_adopters"][(u, h)])
        if not n_prior:
            continue
        lo = index["first_exposure"][(u, h)]
        row[MetricKind.TIME] = float(hi - lo)
        row[MetricKind.N_PAR] = float(n_prior)
        row[MetricKind.F_PAR] = n_prior / len(followees[u])
        count = sum(
            1 for v in followees[u] for e in by_user.get(v, ())
            if lo < e.time < hi and topic_of(e.hashtag) == topic
        )
        row[MetricKind.LAT] = 1.0 / max(1, count)
    lats = {}
    for (_u, h), row in rows.items():
        if MetricKind.LAT in row:
            lats.setdefault(h, []).append(row[MetricKind.LAT])
    for (_u, h), row in rows.items():
        if MetricKind.LAT in row:
            total = 0.0
            for value in lats[h]:
                total += value
            row[MetricKind.LOG_LAT] = math.log(row[MetricKind.LAT] / (total / len(lats[h])))
    return rows



def metric_rows(table):
    """A ``PairMetrics`` table read back as name-keyed rows in table order,
    each with its defined (non-NaN) metrics in ``pair_metric_rows``' key
    order: N-USES, TIME, N-PAR, F-PAR, LAT, LOG-LAT."""
    from genonet.genotype import MetricKind

    order = (MetricKind.N_USES, MetricKind.TIME, MetricKind.N_PAR,
             MetricKind.F_PAR, MetricKind.LAT, MetricKind.LOG_LAT)
    columns = [list(MetricKind).index(kind) for kind in order]
    return {
        (table.users[u], table.hashtags[h]): {
            kind: values[c] for kind, c in zip(order, columns) if not math.isnan(values[c])
        }
        for u, h, values in zip(table.user.tolist(), table.hashtag.tolist(),
                                table.values.tolist())
    }


@dataclass(frozen=True)
class MetricCell:
    values: tuple
    mean: float
    count: int


@dataclass(frozen=True)
class Genotype:
    owner: str
    cells: Mapping


def build_genome(rows, topics):
    """The genome regrouped from name-keyed metric rows: one genotype per
    user with a row, its cells keyed by (topic, MetricKind), each cell's
    values in sorted-hashtag order and its mean added left to right."""
    raw, topic_of = {}, assignment(topics).get
    for (u, h) in sorted(rows):
        topic = topic_of(h)
        for kind, value in rows[(u, h)].items():
            raw.setdefault(u, {}).setdefault((topic, kind), []).append(value)
    genome = {}
    for u in sorted(raw):
        out = {}
        for key, vals in raw[u].items():
            total = 0.0
            for value in vals:
                total += value
            out[key] = MetricCell(values=tuple(vals), mean=total / len(vals), count=len(vals))
        genome[u] = Genotype(owner=u, cells=out)
    return genome


def genotypes(genome):
    """A ``genotype.Genome`` read back as name-keyed genotypes, one per
    user with a cell, in the form of :func:`build_genome`."""
    out = {}
    ptr, values = genome.ptr.tolist(), genome.values.tolist()
    for i, (u, t, k, mean) in enumerate(zip(genome.user.tolist(), genome.topic.tolist(),
                                            genome.kind.tolist(), genome.mean.tolist())):
        cell = MetricCell(values=tuple(values[ptr[i]:ptr[i + 1]]), mean=mean,
                          count=ptr[i + 1] - ptr[i])
        out.setdefault(genome.users[u], {})[(genome.topics[t], genome.metrics[k])] = cell
    return {u: Genotype(owner=u, cells=cells) for u, cells in out.items()}


# --- backbone oracle -------------------------------------------------------


def backbone_weights(triples, edges, hashtags):
    """Precedence weights by scanning every follower edge against every hashtag.

    Edge (u, v) weighs the number of ``hashtags`` that u first used
    strictly before v; zero-weight edges are left out.
    """
    first_use = {}
    for t, u, h in triples:
        if (u, h) not in first_use or t < first_use[(u, h)]:
            first_use[(u, h)] = t
    weights = {}
    for u, v in edges:
        count = 0
        for h in hashtags:
            tu = first_use.get((u, h))
            tv = first_use.get((v, h))
            if tu is not None and tv is not None and tu < tv:
                count += 1
        if count:
            weights[(u, v)] = count
    return weights


def backbone_edges(b):
    """An ``InfluenceBackbone``'s edges read back as ``{(followee, follower): weight}``."""
    n = len(b.users)
    return {(b.users[k // n], b.users[k % n]): w
            for k, w in zip(b.keys.tolist(), b.weight.tolist())}


def jaccard_edge_sets(e1, e2):
    """|E1 ∩ E2| / |E1 ∪ E2| over Python sets of edges."""
    from genonet.errors import DataError

    s1, s2 = set(e1), set(e2)
    if not s1 and not s2:
        raise DataError("jaccard undefined for two empty edge sets")
    return len(s1 & s2) / len(s1 | s2)


def compare_with_follower(topic, weights, net):
    """``backbone.compare_with_follower`` on a name-keyed backbone and the
    follower edge set: both graphs built from name pairs and the Jaccard
    taken over Python sets."""
    from genonet.backbone import BackboneReport
    from genonet.graph import (
        kendall_tau, pagerank, strongly_connected_components, weakly_connected_components,
    )

    from datasets import from_edges

    graph = from_edges(weights)
    touched = set(graph.nodes)
    follower_edges = [(u, v) for (u, v) in net.edges if u in touched and v in touched]
    follower_graph = from_edges(follower_edges, nodes=touched)
    graphs = (graph, follower_graph)
    assert follower_graph.nodes == graph.nodes  # kendall_tau pairs entries by position

    def largest(components, g):
        return max(len(c) for c in partition(g, components(g))) / g.n

    followers = [[len(row) for row in adjacency(g)] for g in graphs]
    followees = [[sum(i in row for row in adjacency(g)) for i in range(g.n)] for g in graphs]
    return BackboneReport(
        topic=topic,
        influence_edges=len(weights),
        follower_edges=len(follower_edges),
        jaccard=jaccard_edge_sets(weights, follower_edges),
        scc_fraction={"influence": largest(strongly_connected_components, graph),
                      "follower": largest(strongly_connected_components, follower_graph)},
        wcc_fraction={"influence": largest(weakly_connected_components, graph),
                      "follower": largest(weakly_connected_components, follower_graph)},
        kendall={"followers": kendall_tau(*followers), "followees": kendall_tau(*followees),
                 "pagerank": kendall_tau(*(pagerank(g.indptr, g.indices) for g in graphs))},
    )


# --- graph oracles ---------------------------------------------------------


def adjacency(g):
    """Each node's successor ids as a Python list, for the loop oracles."""
    ptr, idx = g.indptr.tolist(), g.indices.tolist()
    return [idx[a:b] for a, b in zip(ptr, ptr[1:])]


def partition(g, label):
    """A component label array as sorted ``frozenset``s of node labels."""
    parts = {}
    for node, c in zip(g.nodes, label.tolist()):
        parts.setdefault(c, []).append(node)
    return sorted(map(frozenset, parts.values()), key=sorted)


def by_node(g, values):
    """A value array in node order as a node-keyed dict."""
    return dict(zip(g.nodes, values.tolist()))


def labels_least_members(label):
    """Whether each label is the least node index carrying it, so the
    least member of its component."""
    least = np.full(len(label), len(label))
    np.minimum.at(least, label, np.arange(len(label)))
    return bool((least[label] == label).all())


def scc_tarjan_loop(g):
    """Tarjan's algorithm over ``adjacency(g)``, iterative: components as
    ``frozenset``s of node labels, sorted by their members."""
    n = g.n
    adj = adjacency(g)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    components = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, ei = work[-1]
            if ei == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while ei < len(adj[v]):
                w = adj[v][ei]
                ei += 1
                if index[w] == -1:
                    work[-1] = (v, ei)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(g.nodes[w])
                    if w == v:
                        break
                components.append(frozenset(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    components.sort(key=lambda c: sorted(c))
    return components


def wcc_search_loop(g):
    """Depth-first search over both directions of ``adjacency(g)``:
    components as ``frozenset``s of node labels, sorted by their members."""
    n = g.n
    undirected = [[] for _ in range(n)]
    for i, row in enumerate(adjacency(g)):
        for j in row:
            undirected[i].append(j)
            undirected[j].append(i)
    seen = [False] * n
    components = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in undirected[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    frontier.append(w)
        components.append(frozenset(g.nodes[i] for i in comp))
    components.sort(key=lambda c: sorted(c))
    return components


def random_digraph_edges(rng, n, p):
    return [
        (a, b)
        for a in range(n)
        for b in range(n)
        if a != b and rng.random() < p
    ]


def reachability(n, edges):
    reach = [[False] * n for _ in range(n)]
    for i in range(n):
        reach[i][i] = True
    for a, b in edges:
        reach[a][b] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    return reach


def scc_by_reachability(n, edges):
    reach = reachability(n, edges)
    comps = []
    assigned = [False] * n
    for i in range(n):
        if assigned[i]:
            continue
        comp = {j for j in range(n) if reach[i][j] and reach[j][i]}
        for j in comp:
            assigned[j] = True
        comps.append(frozenset(comp))
    return sorted(comps, key=sorted)


def wcc_by_reachability(n, edges):
    und = edges + [(b, a) for a, b in edges]
    reach = reachability(n, und)
    comps = []
    assigned = [False] * n
    for i in range(n):
        if assigned[i]:
            continue
        comp = {j for j in range(n) if reach[i][j]}
        for j in comp:
            assigned[j] = True
        comps.append(frozenset(comp))
    return sorted(comps, key=sorted)


def betweenness_by_path_enumeration(n, edges):
    """Enumerate every shortest path for every ordered pair."""
    adj = {i: [] for i in range(n)}
    for a, b in edges:
        adj[a].append(b)

    def all_shortest_paths(s, t):
        # BFS distance, then DFS over the shortest-path DAG
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        if t not in dist:
            return []
        paths = []

        def walk(v, path):
            if v == t:
                paths.append(list(path))
                return
            for w in adj[v]:
                if w in dist and dist[w] == dist[v] + 1 and dist.get(t, -1) >= dist[w]:
                    path.append(w)
                    walk(w, path)
                    path.pop()

        walk(s, [s])
        return paths

    bc = {i: 0.0 for i in range(n)}
    for s in range(n):
        for t in range(n):
            if s == t:
                continue
            paths = all_shortest_paths(s, t)
            if not paths:
                continue
            for interior in range(n):
                if interior in (s, t):
                    continue
                through = sum(1 for p in paths if interior in p)
                bc[interior] += through / len(paths)
    return bc


def betweenness_brandes_loop(g):
    """``graph.betweenness_centrality`` as Brandes' per-source queue loop
    over ``adjacency(g)``: the kernel's float adds, one at a time."""
    n = g.n
    adj = adjacency(g)
    bc = [0.0] * n
    for s in range(n):
        sigma = [0.0] * n
        dist = [-1] * n
        preds = [[] for _ in range(n)]
        sigma[s] = 1.0
        dist[s] = 0
        queue = [s]
        order = []
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            order.append(v)
            for w in adj[v]:
                if dist[w] == -1:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = [0.0] * n
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                bc[w] += delta[w]
    return {g.nodes[i]: b for i, b in enumerate(bc)}


def pagerank_dense(n, edges, damping=0.85, tol=1e-12, max_iter=500):
    m = np.zeros((n, n))
    out_deg = np.zeros(n)
    for a, b in edges:
        m[b, a] += 1.0
        out_deg[a] += 1.0
    for a in range(n):
        if out_deg[a]:
            m[:, a] /= out_deg[a]
    x = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        dangling = x[out_deg == 0].sum()
        nxt = (1 - damping) / n + damping * (m @ x + dangling / n)
        if np.abs(nxt - x).sum() < tol:
            x = nxt
            break
        x = nxt
    return x


def pagerank_loop(g, damping=0.85, tol=1e-10, max_iter=200):
    """``graph.pagerank`` as a node-by-node Python loop over ``adjacency(g)``."""
    n = g.n
    adj = adjacency(g)
    out_deg = [len(row) for row in adj]
    scores = [1.0 / n] * n
    for _ in range(max_iter):
        nxt = [0.0] * n
        dangling = 0.0
        for i, row in enumerate(adj):
            if not row:
                dangling += scores[i]
                continue
            share = scores[i] / out_deg[i]
            for j in row:
                nxt[j] += share
        base = (1.0 - damping) / n + damping * dangling / n
        nxt = [base + damping * x for x in nxt]
        delta = sum(abs(a - b) for a, b in zip(nxt, scores))
        scores = nxt
        if delta < tol:
            break
    return {g.nodes[i]: s for i, s in enumerate(scores)}


def inversion_pairs(ranks, rows=256):
    """Pairs i < j with ranks[i] > ranks[j], compared pair by pair: each
    block of ``rows`` entries against itself and every later entry."""
    ranks = np.asarray(ranks)
    total = 0
    for lo in range(0, len(ranks), rows):
        block = ranks[lo:lo + rows]
        total += np.count_nonzero(np.triu(block[:, None] > block, 1))
        total += np.count_nonzero(block[:, None] > ranks[lo + rows:])
    return int(total)


def kendall_tau_pairs(xs, ys):
    """Tau-b straight from the O(n^2) pair-count definition."""
    n = len(xs)
    concordant = discordant = 0
    ties_x = ties_y = 0
    for i, j in itertools.combinations(range(n), 2):
        dx = xs[i] - xs[j]
        dy = ys[i] - ys[j]
        if dx == 0 and dy == 0:
            ties_x += 1
            ties_y += 1
        elif dx == 0:
            ties_x += 1
        elif dy == 0:
            ties_y += 1
        elif dx * dy > 0:
            concordant += 1
        else:
            discordant += 1
    n0 = n * (n - 1) / 2
    denom = math.sqrt((n0 - ties_x) * (n0 - ties_y))
    if denom == 0:
        return math.nan
    return (concordant - discordant) / denom


# --- latency oracles --------------------------------------------------------


def dijkstra_apsp(g, lat):
    """``latmin._apsp_matrix`` as one ``heapq`` Dijkstra per source over
    w(u -> v) = lat[u], on ``adjacency(g)``; the diagonal is 0."""
    n, adj, lat = g.n, adjacency(g), list(lat)
    d = np.empty((n, n))
    for s in range(n):
        dist = [math.inf] * n
        dist[s] = 0.0
        heap = [(0.0, s)]
        while heap:
            du, u = heapq.heappop(heap)
            if du > dist[u]:
                continue
            step = du + lat[u]
            for v in adj[u]:
                if step < dist[v]:
                    dist[v] = step
                    heapq.heappush(heap, (step, v))
        d[s] = dist
    np.fill_diagonal(d, 0.0)
    return d


def floyd_warshall_latency(nodes, edges, latency):
    """All-pairs minimum path latency under w(u -> v) = latency(u)."""
    idx = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    d = [[math.inf] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = 0.0
    for u, v in edges:
        d[idx[u]][idx[v]] = min(d[idx[u]][idx[v]], latency[u])
    for k in range(n):
        for i in range(n):
            dik = d[i][k]
            if dik == math.inf:
                continue
            row_k = d[k]
            row_i = d[i]
            for j in range(n):
                alt = dik + row_k[j]
                if alt < row_i[j]:
                    row_i[j] = alt
    return {
        (a, b): d[idx[a]][idx[b]] for a in nodes for b in nodes if a != b
    }


def average_latency_oracle(nodes, edges, latency, zeroed=()):
    lat = {n: (0.0 if n in set(zeroed) else latency[n]) for n in nodes}
    pairs = floyd_warshall_latency(nodes, edges, lat)
    finite = [v for v in pairs.values() if v != math.inf]
    return sum(finite) / len(finite) if finite else math.nan


def zero_update_average(d, idx, lat, mask, denom, all_finite):
    """Average latency after zeroing node ``idx``, from a fresh array.

    The reference per-candidate formula of Greedy: the exact zero-update
    min(d(s, t), d(s, c) + (d(c, t) - lat)) with column ``idx`` and the
    diagonal restored, then the full sum when every pair is reachable or
    the sum over ``mask``.  Returns (average, updated matrix).
    """
    out = np.minimum(d, d[:, idx, None] + (d[None, idx, :] - lat))
    out[:, idx] = d[:, idx]
    np.fill_diagonal(out, 0.0)
    total = out.sum() if all_finite else out[mask].sum()
    return float(total / denom), out


def greedy_steps(d, lat, mask, k, nodes):
    """Greedy by ``zero_update_average`` over every remaining candidate.

    Yields, per step, the matrix and latencies it scored, the remaining
    candidate indices, their scores, the pick and the relative average.
    Ties break on the node identifier.
    """
    n = len(nodes)
    denom = float(mask.sum())
    all_finite = int(denom) == n * (n - 1)
    base = float(d[mask].sum() / denom)
    lat = np.array(lat, dtype=float)
    remaining = list(range(n))
    for _ in range(k):
        scores = [
            zero_update_average(d, i, lat[i], mask, denom, all_finite)[0]
            for i in remaining
        ]
        _score, _node, pick = min(zip(scores, (nodes[i] for i in remaining), remaining))
        step = (d, lat.copy(), list(remaining), scores, pick)
        _avg, d = zero_update_average(d, pick, float(lat[pick]), mask, denom, all_finite)
        lat[pick] = 0.0
        remaining.remove(pick)
        yield step + (float(d[mask].sum() / denom) / base,)


def latency_component(b, latency, strict):
    """``latmin.latency_component`` by name, on the loop oracles: the
    largest strong (weak unless ``strict``) component of the backbone
    ``b``'s graph, ties to the one whose least member is greatest, less the
    users missing from the name-keyed ``latency``.  Returns the kept
    users' sorted names, the edges among them by name and their latencies."""
    loop = scc_tarjan_loop if strict else wcc_search_loop
    largest = max(loop(b.graph), key=lambda c: (len(c), min(c)))
    names = sorted(b.users[u] for u in largest if b.users[u] in latency)
    kept, n = set(names), len(b.users)
    edges = [(b.users[k // n], b.users[k % n]) for k in b.keys.tolist()]
    return names, [e for e in edges if set(e) <= kept], {x: latency[x] for x in names}


ENUMERATION_BUDGET = 10**6


def exact_k_latmin(g, k):
    """Exhaustive optimum of ``latmin`` over all k-subsets of nodes.

    Ties resolve to the lexicographically first subset.  Refuses
    instances with more than ``ENUMERATION_BUDGET`` subsets.
    """
    from genonet.errors import DataError
    from genonet.latmin import _zero_update, prepare

    if k <= 0:
        raise DataError(f"k must be positive, got {k}")
    n = g.graph.n
    if k > n:
        raise DataError(f"k={k} exceeds node count {n}")
    total = math.comb(n, k)
    if total > ENUMERATION_BUDGET:
        raise DataError(
            f"C({n},{k}) = {total} subsets exceeds the enumeration budget "
            f"of {ENUMERATION_BUDGET}"
        )
    state = prepare(g.graph, g.lat, strict=False)
    row = np.empty(n)

    best_set = None
    best_value = math.inf
    # node order is sorted, so index order is lexicographic order
    for subset in itertools.combinations(range(n), k):
        d = state.d
        for i in subset:
            d = _zero_update(d, i, state.lat[i], np.empty((n, n)), row)
        value = float(d[state.mask].sum() / state.denom)
        if value < best_value:
            best_value = value
            best_set = subset
    return frozenset(g.graph.nodes[i] for i in best_set), best_value


def fit_logistic_scipy(points):
    """``classify.fit_logistic`` on ``scipy.optimize.minimize_scalar``.

    The same coordinate descent and starts, each 1-D search delegated to
    scipy's bounded Brent method.  Returns (l, k, x0, residual).
    """
    from scipy.optimize import minimize_scalar

    xs = np.array([float(p[0]) for p in points])
    ys = np.array([float(p[1]) for p in points])
    lx = np.log(xs)

    def sigmoid(z):
        return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))

    def sse(l, k, x0):
        return float(np.sum((ys - l * sigmoid(k * (lx - x0))) ** 2))

    def best_l(k, x0):
        f = sigmoid(k * (lx - x0))
        denom = float(np.dot(f, f))
        if denom <= 0:
            return float(ys.max())
        return float(np.dot(ys, f) / denom)

    lo, hi = float(lx.min()) - 50.0, float(lx.max()) + 50.0
    starts = [
        (1.0, float(np.median(lx))),
        (0.5, float(lx.min())),
        (2.0, float(lx.max())),
        (-1.0, float(np.median(lx))),
    ]
    best = None
    for k, x0 in starts:
        l = best_l(k, x0)
        prev = sse(l, k, x0)
        for _ in range(200):
            res_k = minimize_scalar(
                lambda kk: sse(l, kk, x0),
                bounds=(-60.0, 60.0),
                method="bounded",
                options={"xatol": 1e-12},
            )
            k = float(res_k.x)
            res_x0 = minimize_scalar(
                lambda xx: sse(l, k, xx),
                bounds=(lo, hi),
                method="bounded",
                options={"xatol": 1e-12},
            )
            x0 = float(res_x0.x)
            l = best_l(k, x0)
            cur = sse(l, k, x0)
            if not prev - cur >= 1e-15:  # NaN (inf - inf) is no improvement
                break
            prev = cur
        if best is None or prev < best[0]:
            best = (prev, l, k, x0)
    residual, l, k, x0 = best
    return l, k, x0, residual


def logistic_value(fit, x):
    """A fitted curve l / (1 + exp(-k (ln x - x0))) at ``x``."""
    z = fit.k * (math.log(x) - fit.x0)
    return fit.l / (1.0 + math.exp(-z))


# --- local classifiers and the leave-one-out oracle ------------------------


class TrainingError(ValueError):
    """A local classifier cannot be trained from the given values."""


class DegenerateTrainingError(TrainingError):
    """All training values are identical; no separation to learn."""


@dataclass(frozen=True)
class LocalClassifier:
    owner: str
    metric: object
    class_stats: Mapping[str, tuple]  # topic -> (mean, count)
    pooled_variance: float
    priors: Mapping[str, float]


def train_local(user, metric, training):
    """Fit the per-user discriminant from (hashtag, topic, value) rows.

    Per-topic means share one pooled variance (floored at 1e-9); priors
    are proportional to per-topic training counts.  Topics keep the order
    of their first row, which orders the ``ss_within`` sum.
    """

    by_topic = {}
    for _hashtag, topic, value in training:
        by_topic.setdefault(topic, []).append(float(value))
    if len(by_topic) < 2:
        raise TrainingError(
            f"user {user!r} needs values from >=2 topics, got {len(by_topic)}"
        )
    all_values = [v for vals in by_topic.values() for v in vals]
    if min(all_values) == max(all_values):
        raise DegenerateTrainingError(
            f"user {user!r}: all {len(all_values)} training values identical"
        )
    n = len(all_values)
    t = len(by_topic)
    stats = {}
    ss_within = 0.0
    for topic, vals in by_topic.items():
        mean = float_sum(vals) / len(vals)
        stats[topic] = (mean, len(vals))
        ss_within += float_sum((v - mean) ** 2 for v in vals)
    variance = max(1e-9, ss_within / max(1, n - t))
    priors = {topic: len(vals) / n for topic, vals in by_topic.items()}
    return LocalClassifier(
        owner=user, metric=metric, class_stats=stats,
        pooled_variance=variance, priors=priors,
    )


def classify_local(c, value):
    """Posterior over the classifier's trained topics, summing to 1."""

    logs = {}
    for topic, (mean, _count) in c.class_stats.items():
        logs[topic] = math.log(c.priors[topic]) - (value - mean) ** 2 / (
            2.0 * c.pooled_variance
        )
    top = max(logs.values())
    expd = {t: math.exp(v - top) for t, v in logs.items()}
    z = float_sum(expd.values())
    return {t: v / z for t, v in expd.items()}


def evidence_vector(c, value, topic_order):
    """log post_u(t) - log(1/K) per topic, zero where the user is agnostic."""
    k = len(topic_order)
    post = classify_local(c, value)
    vec = np.zeros(k)
    log_uniform = -math.log(k)
    for i, topic in enumerate(topic_order):
        if topic in post:
            p = max(post[topic], 1e-300)
            vec[i] = math.log(p) - log_uniform
    return vec


def _train_or_none(user, metric, rows):
    try:
        return train_local(user, metric, rows)
    except TrainingError:
        return None


def _argmax_topic(scores, topic_order):
    best = 0
    for i in range(1, len(scores)):
        if scores[i] > scores[best]:
            best = i
    return topic_order[best]


@dataclass(frozen=True)
class Fold:
    hashtag: str
    true_topic: str
    users: tuple
    evidence: np.ndarray  # len(users) x K, C-contiguous
    prior_logs: np.ndarray


@dataclass(frozen=True)
class LooFolds:
    metric: object
    topic_order: tuple
    folds: tuple
    skipped: tuple
    topic_counts: dict
    train_errors: dict
    train_totals: dict


def prepare_loo(metric, pairs, topics, train_scores=None):
    """``classify.prepare_loo`` one voter and one dict at a time, as one
    :class:`Fold` of user names per held-out hashtag.

    Retrains every user affected by each held-out hashtag and re-scores
    all their other hashtags for the train-side tallies, which adjust the
    base classifiers' vote sums by each affected user's old and new
    evidence.  A ``train_scores`` list receives, per fold, the scores of
    each other hashtag that keeps a voter, by hashtag name.
    """
    from genonet.genotype import MetricKind

    topic_order, topic_of = topics.topics, assignment(topics).get
    k = len(topic_order)
    topic_pos = {t: i for i, t in enumerate(topic_order)}

    users, tags = pairs.users, pairs.hashtags
    used, first = np.unique(pairs.hashtag, return_index=True)
    counts = np.bincount(pairs.topic[first], minlength=k)
    topic_counts = dict(zip(topic_order, counts.tolist()))
    single = counts[pairs.topic[first]] < 2
    skipped = tuple(tags[h] for h in used[single].tolist())
    eligible = [tags[h] for h in used[~single].tolist()]
    n_eligible = len(eligible)

    # each user's rows in first-use order; each hashtag's voters in id order
    value = pairs.values[:, list(MetricKind).index(metric)]
    voted = np.flatnonzero(~np.isnan(value) & (counts[pairs.topic] >= 2))
    pairs_by_user = {}
    users_by_hashtag = {h: {} for h in eligible}
    for u, h, t, v in zip(pairs.user[voted].tolist(), pairs.hashtag[voted].tolist(),
                          pairs.topic[voted].tolist(), value[voted].tolist()):
        pairs_by_user.setdefault(users[u], []).append((tags[h], topic_order[t], v))
        users_by_hashtag[tags[h]][users[u]] = v
    users_by_hashtag = {h: dict(sorted(votes.items())) for h, votes in users_by_hashtag.items()}

    base_clf = {u: _train_or_none(u, metric, rows) for u, rows in pairs_by_user.items()}
    base_vec = {}
    base_sum = {h: np.zeros(k) for h in eligible}
    base_voters = {h: 0 for h in eligible}
    for u, rows in pairs_by_user.items():
        clf = base_clf[u]
        if clf is None:
            continue
        for h, _t, v in rows:
            vec = evidence_vector(clf, v, topic_order)
            base_vec[(u, h)] = vec
            base_sum[h] += vec
            base_voters[h] += 1

    folds = []
    train_errors = {t: 0 for t in topic_order}
    train_totals = {t: 0 for t in topic_order}

    for h in eligible:
        true_topic = topic_of(h)
        affected = users_by_hashtag[h]
        fold_clf = {}
        for u in affected:
            rows = [row for row in pairs_by_user[u] if row[0] != h]
            fold_clf[u] = _train_or_none(u, metric, rows)

        prior_logs = np.empty(k)
        for t in topic_order:
            cnt = topic_counts[t] - (1 if t == true_topic else 0)
            prior_logs[topic_pos[t]] = math.log(max(cnt, 1e-300)) - math.log(
                n_eligible - 1
            )

        contrib_users = []
        contrib_rows = []
        for u in affected:
            clf = fold_clf[u]
            if clf is None:
                continue
            contrib_users.append(u)
            contrib_rows.append(evidence_vector(clf, affected[u], topic_order))
        evidence = np.vstack(contrib_rows) if contrib_rows else np.zeros((0, k))
        folds.append(
            Fold(
                hashtag=h,
                true_topic=true_topic,
                users=tuple(contrib_users),
                evidence=evidence,
                prior_logs=prior_logs,
            )
        )

        # training-side classification under this fold's model: adjust the
        # precomputed sums only where an affected user also voted on h'
        deltas = {}
        voter_deltas = {}
        for u in affected:
            new_clf = fold_clf[u]
            for h2, _t2, v2 in pairs_by_user[u]:
                if h2 == h:
                    continue
                old = base_vec.get((u, h2))
                if old is not None:
                    deltas[h2] = deltas.get(h2, np.zeros(k)) - old
                    voter_deltas[h2] = voter_deltas.get(h2, 0) - 1
                if new_clf is not None:
                    vec = evidence_vector(new_clf, v2, topic_order)
                    deltas[h2] = deltas.get(h2, np.zeros(k)) + vec
                    voter_deltas[h2] = voter_deltas.get(h2, 0) + 1
        fold_scores = {}
        for h2 in eligible:
            if h2 == h:
                continue
            t2 = topic_of(h2)
            train_totals[t2] += 1
            voters = base_voters[h2] + voter_deltas.get(h2, 0)
            if voters <= 0:
                train_errors[t2] += 1
                continue
            scores = fold_scores[h2] = prior_logs + base_sum[h2] + deltas.get(h2, 0.0)
            if _argmax_topic(scores, topic_order) != t2:
                train_errors[t2] += 1

        if train_scores is not None:
            train_scores.append(fold_scores)

    return LooFolds(
        metric=metric,
        topic_order=tuple(topic_order),
        folds=tuple(folds),
        skipped=skipped,
        topic_counts=topic_counts,
        train_errors=train_errors,
        train_totals=train_totals,
    )


def _error_table(errors, totals, topic_order):
    from genonet.classify import ErrorTable

    counts = {t: totals.get(t, 0) for t in topic_order}
    per_topic = {t: errors.get(t, 0) / counts[t] if counts[t] else 0.0 for t in topic_order}
    total = sum(counts.values())
    expected = (
        float_sum(per_topic[t] * counts[t] for t in topic_order) / total if total else 0.0
    )
    return ErrorTable(per_topic=per_topic, counts=counts, expected=expected)


def leave_one_out(data):
    """``classify.leave_one_out`` of :func:`prepare_loo`'s folds, one fold
    at a time: each fold's evidence rows summed, then the first maximum."""
    from genonet.classify import ErrorTable, LeaveOneOutResult

    test_errors = {t: 0 for t in data.topic_order}
    test_totals = {t: 0 for t in data.topic_order}
    predictions = {}
    for fold in data.folds:
        test_totals[fold.true_topic] += 1
        if len(fold.users) == 0:
            test_errors[fold.true_topic] += 1
            predictions[fold.hashtag] = (fold.true_topic, None)
            continue
        scores = fold.prior_logs + fold.evidence.sum(axis=0)
        predicted = _argmax_topic(scores, data.topic_order)
        predictions[fold.hashtag] = (fold.true_topic, predicted)
        if predicted != fold.true_topic:
            test_errors[fold.true_topic] += 1

    total = sum(test_totals.values())
    random_per_topic = {
        t: 1.0 - (test_totals[t] / total if total else 0.0) for t in data.topic_order
    }
    random_table = ErrorTable(
        per_topic=random_per_topic,
        counts=dict(test_totals),
        expected=(
            float_sum(random_per_topic[t] * test_totals[t] for t in data.topic_order) / total
            if total
            else 0.0
        ),
    )
    return LeaveOneOutResult(
        metric=data.metric,
        train=_error_table(data.train_errors, data.train_totals, data.topic_order),
        test=_error_table(test_errors, test_totals, data.topic_order),
        random=random_table,
        predictions=predictions,
        skipped=data.skipped,
    )


def accuracy_samples(data, sizes, repetitions, seed):
    """The user sets ``classify.accuracy_curve`` draws: (size, repetition,
    sampled names) in draw order, from the sorted names of every voter."""
    population = sorted({u for fold in data.folds for u in fold.users})
    rng = np.random.default_rng(seed)
    for s in sizes:
        for rep in range(repetitions):
            chosen = rng.choice(len(population), size=s, replace=False)
            yield s, rep, {population[i] for i in chosen.tolist()}


def accuracy_curve(data, sizes, repetitions, seed):
    """``classify.accuracy_curve`` of :func:`prepare_loo`'s folds, one
    fold at a time, for valid ``sizes``."""
    from genonet.classify import AccuracyCurve

    population = sorted({u for fold in data.folds for u in fold.users})
    rng = np.random.default_rng(seed)
    pop_index = {u: i for i, u in enumerate(population)}
    fold_user_idx = [
        np.array([pop_index[u] for u in fold.users], dtype=int) for fold in data.folds
    ]
    n_folds = len(data.folds)
    points = []
    rows = []
    for s in sizes:
        rep_acc = []
        for rep in range(repetitions):
            chosen = rng.choice(len(population), size=s, replace=False)
            mask = np.zeros(len(population), dtype=bool)
            mask[chosen] = True
            correct = 0
            per_topic_ok = {t: 0 for t in data.topic_order}
            per_topic_n = {t: 0 for t in data.topic_order}
            for fold, idx in zip(data.folds, fold_user_idx):
                per_topic_n[fold.true_topic] += 1
                take = mask[idx]
                if not take.any():
                    continue
                scores = fold.prior_logs + fold.evidence[take].sum(axis=0)
                if _argmax_topic(scores, data.topic_order) == fold.true_topic:
                    correct += 1
                    per_topic_ok[fold.true_topic] += 1
            rep_acc.append(correct / n_folds if n_folds else 0.0)
            for t in data.topic_order:
                if per_topic_n[t]:
                    rows.append((t, s, rep, per_topic_ok[t] / per_topic_n[t]))
        points.append((s, float_sum(rep_acc) / len(rep_acc)))
    return AccuracyCurve(metric=data.metric, points=tuple(points), rows=tuple(rows))


# --- consensus oracle --------------------------------------------------------


@dataclass(frozen=True)
class ConsensusResult:
    hashtag: str
    predicted_topic: str
    log_scores: Mapping[str, float]
    contributing_users: int


def nb_consensus(hashtag, locals_, topic_order, global_prior=None):
    """The network-wide vote for one hashtag, one voter at a time.

    score(t) = log prior(t) + sum_u [log post_u(t) - log(1/K)], with each
    user neutral (a zero term) on topics they did not train on and each
    posterior floored at 1e-300.  ``global_prior`` defaults to uniform;
    ties break by topic order.
    """
    from genonet.errors import DataError

    if not locals_:
        raise DataError(f"no local observations for {hashtag!r}")
    k = len(topic_order)
    log_uniform = -math.log(k)
    if global_prior is None:
        scores = np.full(k, log_uniform)
    else:
        scores = np.array([math.log(max(global_prior[t], 1e-300)) for t in topic_order])
    for clf, value in locals_:
        post = classify_local(clf, value)
        evidence = np.zeros(k)
        for i, topic in enumerate(topic_order):
            if topic in post:
                evidence[i] = math.log(max(post[topic], 1e-300)) - log_uniform
        scores += evidence
    best = max(range(k), key=lambda i: scores[i])  # first maximum
    return ConsensusResult(
        hashtag=hashtag,
        predicted_topic=topic_order[best],
        log_scores={t: float(scores[i]) for i, t in enumerate(topic_order)},
        contributing_users=len(locals_),
    )


# --- prediction oracles ------------------------------------------------------


@dataclass(frozen=True)
class PredictionInstance:
    """One prediction case by name: the reference form of an ``InstanceTable`` row."""

    user: str
    hashtag: str
    topic: str
    direction: object
    candidates: tuple
    truth: frozenset


def instance_table(instances, context):
    """The ``InstanceTable`` of named instances, on a ``PredictionContext``'s ids."""
    from genonet.predict import InstanceTable

    ids = {u: i for i, u in enumerate(context.index.users)}
    slots = [(c, i) for i in instances for c in i.candidates]
    return InstanceTable(
        indptr=np.cumsum([0] + [len(i.candidates) for i in instances]),
        candidate=np.array([ids[c] for c, _i in slots], np.int64),
        truth=np.array([c in i.truth for c, i in slots], bool),
        user=np.array([ids[i.user] for i in instances], np.int64),
        hashtag=np.array([context.index.hashtags.index(i.hashtag) for i in instances], np.int64),
        topic=np.array([context.topics.topics.index(i.topic) for i in instances], np.int64),
    )


def table_instances(table, context, direction):
    """The named instances of an ``InstanceTable``'s rows, in row order."""
    users, out = context.index.users, []
    for i in range(len(table)):
        rows = slice(table.indptr[i], table.indptr[i + 1])
        cands = [users[c] for c in table.candidate[rows].tolist()]
        out.append(PredictionInstance(
            users[table.user[i]], context.index.hashtags[table.hashtag[i]],
            context.topics.topics[table.topic[i]], direction, tuple(cands),
            frozenset(c for c, t in zip(cands, table.truth[rows].tolist()) if t),
        ))
    return out


def excluded_backbone_weights(hashtag, events, net, topics):
    """:func:`backbone_weights` over the hashtag's topic minus the hashtag."""
    others = [h for h in hashtags_for(topics, assignment(topics)[hashtag]) if h != hashtag]
    return backbone_weights(events.events, sorted(net.edges), others)


class PredictionOracleContext:
    """Per-user follow and activity counts and per-hashtag excluded PageRank dicts.

    Backbones come from :func:`excluded_backbone_weights`; PageRank is
    :func:`pagerank_loop` on the excluded backbone's graph.
    """

    def __init__(self, events, net, topics):
        self.events = events
        self.net = net
        self.topics = topics
        self.topic_of = assignment(topics).get
        self._excluded_pagerank = {}
        self._act_total = {}
        self._act_topic = {}
        self._act_hashtag = {}
        self.followee_count, self.follower_count = {}, {}
        for a, b in net.edges:
            self.followee_count[b] = self.followee_count.get(b, 0) + 1
            self.follower_count[a] = self.follower_count.get(a, 0) + 1
        for t, u, h in events.events:
            self._act_total[u] = self._act_total.get(u, 0) + 1
            self._act_hashtag[(u, h)] = self._act_hashtag.get((u, h), 0) + 1
            topic = self.topic_of(h)
            if topic is not None:
                self._act_topic[(u, topic)] = self._act_topic.get((u, topic), 0) + 1

    def excluded_pagerank(self, hashtag):
        from datasets import from_edges

        if hashtag not in self._excluded_pagerank:
            weights = excluded_backbone_weights(hashtag, self.events, self.net, self.topics)
            g = from_edges(weights)
            self._excluded_pagerank[hashtag] = pagerank_loop(g) if g.n else {}
        return self._excluded_pagerank[hashtag]

    def activity(self, user, exclude):
        return self._act_total.get(user, 0) - self._act_hashtag.get((user, exclude), 0)

    def topic_activity(self, user, topic, exclude):
        n = self._act_topic.get((user, topic), 0)
        if self.topic_of(exclude) == topic:
            n -= self._act_hashtag.get((user, exclude), 0)
        return n


def score_candidates(kind, inst, context):
    """Per-candidate scores of one instance, one predictor (a dict)."""
    from genonet.predict import PredictorKind

    net = context.net
    h = inst.hashtag
    if kind is PredictorKind.FOLLOWEES:
        return {c: float(context.followee_count.get(c, 0)) for c in inst.candidates}
    if kind is PredictorKind.FOLLOWERS:
        return {c: float(context.follower_count.get(c, 0)) for c in inst.candidates}
    if kind is PredictorKind.RECIPROCAL:
        return {
            c: float((c, inst.user) in net.edges and (inst.user, c) in net.edges)
            for c in inst.candidates
        }
    if kind is PredictorKind.ACT:
        return {c: float(context.activity(c, exclude=h)) for c in inst.candidates}
    if kind is PredictorKind.TOPIC_ACT:
        return {
            c: float(context.topic_activity(c, inst.topic, exclude=h))
            for c in inst.candidates
        }
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


def roc_auc(scores, truth):
    """Mann-Whitney AUC of one candidate ranking, midranks for ties."""
    positives = [s for c, s in scores.items() if c in truth]
    negatives = [s for c, s in scores.items() if c not in truth]
    if not positives or not negatives:
        raise ValueError("AUC undefined: needs at least one positive and one negative")
    values = sorted(positives + negatives)
    ranks = {}
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


def mean_auc_per_topic(kind, instances, context):
    """topic -> (mean AUC, instances), AUCs added one by one in instance order."""
    sums, counts = {}, {}
    for inst in instances:
        if not inst.truth or len(inst.truth) == len(inst.candidates):
            continue
        auc = roc_auc(score_candidates(kind, inst, context), inst.truth)
        sums[inst.topic] = sums.get(inst.topic, 0.0) + auc
        counts[inst.topic] = counts.get(inst.topic, 0) + 1
    return {t: (sums[t] / counts[t], counts[t]) for t in sorted(counts)}


def build_instances(direction, events, net, topics):
    """Prediction cases by direct enumeration, ordered by (topic, hashtag, user).

    A user qualifies with at least 10 followees.  Candidates
    are the sorted followees (influencer) or followers (adopter); the
    truth is the candidates whose first use is strictly before (after) the
    user's.  A case needs a non-empty truth and a candidate incident to an
    edge of :func:`excluded_backbone_weights`.
    """
    from genonet.predict import Direction

    first_use = {}
    for t, u, h in events.events:
        if (u, h) not in first_use or t < first_use[(u, h)]:
            first_use[(u, h)] = t
    followees, followers = {}, {}
    for a, b in net.edges:
        followees.setdefault(b, []).append(a)
        followers.setdefault(a, []).append(b)
    linked = {}
    out = []
    topic_of = assignment(topics).get
    for topic, h, u in sorted((topic_of(h), h, u) for (u, h) in first_use if topic_of(h)):
        if len(followees.get(u, ())) < 10:
            continue
        t_use = first_use[(u, h)]
        if direction is Direction.INFLUENCER:
            candidates = tuple(sorted(followees[u]))
            truth = {c for c in candidates if first_use.get((c, h), t_use) < t_use}
        else:
            candidates = tuple(sorted(followers.get(u, ())))
            truth = {c for c in candidates if first_use.get((c, h), t_use) > t_use}
        if not truth:
            continue
        if h not in linked:
            linked[h] = {n for e in excluded_backbone_weights(h, events, net, topics) for n in e}
        if linked[h] & set(candidates):
            out.append(PredictionInstance(u, h, topic, direction, candidates, frozenset(truth)))
    return out
