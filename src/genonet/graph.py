"""Directed-graph kernel: connectivity, centralities, rank statistics.

All operations are pure functions over an immutable :class:`DirectedGraph`.
Node identifiers must be mutually orderable (all str or all int); node
order inside a graph is the sorted identifier order, which fixes every
tie-break downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping

import numpy as np

from .errors import DataError
from .ingest import gather_rows, in_sorted, intern

Node = Hashable
# Most sources per block of the all-sources kernels (betweenness here,
# latmin's APSP).  A block of b sources keeps a few b x n arrays and up to
# b x the edge count in one APSP round or in betweenness's level lists,
# about _EDGE_BYTES each; source_block keeps those edges within
# BLOCK_PAIR_BYTES per node pair, a budget that callers count.
SOURCE_BLOCK = 16
BLOCK_PAIR_BYTES = 32
_EDGE_BYTES = 25

__all__ = [
    "DirectedGraph",
    "csr_rows",
    "source_block",
    "strongly_connected_components",
    "weakly_connected_components",
    "pagerank",
    "pagerank_arrays",
    "betweenness_centrality",
    "kendall_tau",
    "jaccard_keys",
]


@dataclass(frozen=True, eq=False)
class DirectedGraph:
    """CSR digraph: row i, ``indices[indptr[i]:indptr[i + 1]]``, holds node
    i's successor ids in ascending order."""

    nodes: tuple[Node, ...]
    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_keys(cls, keys: np.ndarray, keep: np.ndarray, labels) -> "DirectedGraph":
        """The graph of :func:`csr_rows`, its node i labelled by
        ``labels[nodes[i]]`` for the sorted ``labels`` of the ids."""
        nodes, indptr, indices = csr_rows(keys, keep, len(labels))
        return cls(tuple(labels[i] for i in nodes.tolist()), indptr, indices)

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[Node, Node]],
        nodes: Iterable[Node] = (),
    ) -> "DirectedGraph":
        """Build from (u, v) pairs plus extra nodes; duplicate pairs are rejected."""
        pairs, nodes = list(edges), list(nodes)
        order, ids = intern(nodes + [x for e in pairs for x in e])
        n, ids = len(order), ids[len(nodes):]
        keys, counts = np.unique(ids[::2] * n + ids[1::2], return_counts=True)
        if len(keys) < len(pairs):
            u, v = divmod(int(keys[np.argmax(counts > 1)]), n)
            raise DataError(f"duplicate edge ({order[u]!r}, {order[v]!r})")
        return cls.from_keys(keys, np.ones(n, bool), order)

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def keys(self) -> np.ndarray:
        """Every edge as the key ``u * n + v`` over node indices, ascending."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr)) * self.n + self.indices

    def out_edges(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Out-edges of the keys ``b * n + u``, node u in row b of a block of
        sources, in key order and then successor order: each key's
        out-degree and each edge's head key ``b * n + w``."""
        u = keys % self.n
        ptr, slots = gather_rows(self.indptr, u)
        deg, head = np.diff(ptr), self.indices[slots]
        del slots  # one edge-length temporary fewer at the peak
        head += np.repeat(keys - u, deg)
        return deg, head

    def adjacency(self) -> list[list[int]]:
        """Each node's successor ids as a Python list, for the loop kernels."""
        ptr, idx = self.indptr.tolist(), self.indices.tolist()
        return [idx[a:b] for a, b in zip(ptr, ptr[1:])]


def source_block(g: DirectedGraph) -> int:
    """Sources per block on ``g``: :data:`SOURCE_BLOCK`, or as many (at
    least one) as keep the block's edges within :data:`BLOCK_PAIR_BYTES`
    per node pair, which binds above about n^2 / 12 edges.  The block
    size moves no output bit."""
    cap = BLOCK_PAIR_BYTES * g.n * g.n // (_EDGE_BYTES * max(len(g.indices), 1))
    return max(1, min(SOURCE_BLOCK, cap))


def csr_rows(
    keys: np.ndarray, keep: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR rows of the graph on the ids flagged by ``keep``, a mask over
    ids ``0..n-1``, whose edges are those of the sorted distinct keys
    ``u * n + v`` with both ends kept.  Returns the kept ids, node i
    being the i-th of them, and the rows' ``indptr`` and ``indices``."""
    src, dst = np.divmod(keys, n)
    on = keep[src] & keep[dst]
    nodes = np.flatnonzero(keep)
    rank = np.cumsum(keep) - 1  # each kept id's node index
    indptr = np.searchsorted(rank[src[on]], np.arange(len(nodes) + 1))
    return nodes, indptr, rank[dst[on]]


def strongly_connected_components(g: DirectedGraph) -> list[frozenset]:
    """Tarjan's algorithm, iterative.  Components sorted by their members."""
    n = g.n
    adj = g.adjacency()
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[frozenset] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
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


def weakly_connected_components(g: DirectedGraph) -> list[frozenset]:
    """Connected components ignoring edge direction."""
    n = g.n
    undirected: list[list[int]] = [[] for _ in range(n)]
    for i, row in enumerate(g.adjacency()):
        for j in row:
            undirected[i].append(j)
            undirected[j].append(i)
    seen = [False] * n
    components: list[frozenset] = []
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


def pagerank(
    g: DirectedGraph,
    damping: float = 0.85,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> dict[Node, float]:
    """Power iteration on the unweighted structure.

    Dangling mass is redistributed uniformly; iteration stops when the
    L1 change drops below ``tol``.  Scores sum to 1.
    """
    scores = pagerank_arrays(g.indptr, g.indices, damping, tol, max_iter)
    return dict(zip(g.nodes, scores.tolist()))


def pagerank_arrays(
    indptr: np.ndarray, indices: np.ndarray, damping=0.85, tol=1e-10, max_iter=200
) -> np.ndarray:
    """:func:`pagerank` on nodes ``0..n-1`` with CSR rows of sorted successors.

    Each edge's share is scattered in edge order, and the dangling mass
    and the L1 change are running sums in node order, so every addition
    happens in the order of a node-by-node loop.
    """
    n = len(indptr) - 1
    if n == 0:
        raise DataError("pagerank undefined on an empty graph")
    if not (0.0 < damping < 1.0):
        raise DataError(f"damping must be in (0, 1), got {damping}")
    if tol <= 0:
        raise DataError("tol must be positive")
    out_deg = np.diff(indptr)
    dangling = out_deg == 0
    share, scores = np.zeros(n), np.full(n, 1.0 / n)
    for _ in range(max_iter):
        np.divide(scores, out_deg, out=share, where=~dangling)
        nxt = np.bincount(indices, weights=np.repeat(share, out_deg), minlength=n)
        mass = np.add.accumulate(np.append(0.0, scores[dangling]))[-1]
        nxt = (1.0 - damping) / n + damping * mass / n + damping * nxt
        delta = np.add.accumulate(np.abs(nxt - scores))[-1]
        scores = nxt
        if delta < tol:
            break
    return scores


def betweenness_centrality(g: DirectedGraph) -> dict[Node, float]:
    """Exact directed betweenness on hop-count shortest paths.

    Brandes accumulation; endpoints excluded, no normalization.  It runs
    level by level over blocks of :func:`source_block` sources, on keys
    ``b * n + v`` for node v in the block's row b, and makes every float
    add in the order of the per-source queue loop:

    - a level's edges run in (source, queue position, successor) order,
      and the next level's queue is the order in which its nodes first
      occur there, so ``sigma`` adds the parents in queue order;
    - each level's ``delta`` adds its children in descending queue
      position, as the loop's reversed queue does;
    - the sources' rows are added into ``bc`` in source order, each
      source's own entry zeroed first, which adds +0.0.
    """
    n = g.n
    bc = np.zeros(n)
    unseen = np.iinfo(np.int64).max
    per_block = source_block(g)
    for lo in range(0, n, per_block):
        size = min(per_block, n - lo) * n
        where = np.full(size, unseen)  # a reached key's position in its level
        sigma, delta = np.zeros(size), np.zeros(size)
        sources = level = np.arange(size // n) * (n + 1) + lo
        where[level] = np.arange(len(level))
        sigma[level] = 1.0
        levels = []
        while True:
            deg, head = g.out_edges(level)
            new = where[head] == unseen
            tail, head = np.repeat(level, deg)[new], head[new]
            if not len(head):
                break
            edge = np.arange(len(head))
            np.minimum.at(where, head, edge)
            nxt = head[where[head] == edge]  # first occurrences, in edge order
            where[nxt] = np.arange(len(nxt))
            pos = where[head]
            sigma[nxt] = np.bincount(pos, weights=sigma[tail], minlength=len(nxt))
            # edges that tie share a child and differ in parent, so their
            # order reaches no sum and the sort need not be stable
            back = np.argsort(-pos)
            levels.append((level, tail[back], head[back]))
            level = nxt
        for level, tail, head in reversed(levels):
            share = sigma[tail] / sigma[head] * (1.0 + delta[head])
            delta[level] = np.bincount(where[tail], weights=share, minlength=len(level))
        delta[sources] = 0.0
        for row in delta.reshape(-1, n):
            bc += row
    return dict(zip(g.nodes, bc.tolist()))


def kendall_tau(a: Mapping[Node, float], b: Mapping[Node, float]) -> float:
    """Tie-corrected Kendall tau-b between two score maps.

    Both maps must cover the same node set of size >= 2.  Returns NaN
    when either side is entirely tied (tau-b undefined) or holds a NaN.
    Bit-identical to ``scipy.stats.kendalltau(xs, ys, variant="b")``.
    """
    if set(a) != set(b):
        raise DataError("rank vectors cover different node sets")
    if len(a) < 2:
        raise DataError("kendall_tau needs at least 2 nodes")
    x, y = (np.array([float(m[k]) for k in a]) for m in (a, b))
    order = np.lexsort((y, x))
    x, y = x[order], y[order]
    tot = len(a) * (len(a) - 1) // 2
    xtie, ytie, ntie = _tied_pairs(x), _tied_pairs(np.sort(y)), _tied_pairs(x, y)
    if xtie == tot or ytie == tot or np.isnan(x).any() or np.isnan(y).any():
        return float("nan")
    dis = _inversions(np.unique(y, return_inverse=True)[1])
    tau = (tot - xtie - ytie + ntie - 2 * dis) / np.sqrt(tot - xtie) / np.sqrt(tot - ytie)
    return float(min(1.0, max(-1.0, tau)))


def _tied_pairs(*sorted_cols: np.ndarray) -> int:
    """Pairs equal on every column, the columns being sorted jointly."""
    change = np.r_[True, np.any([c[1:] != c[:-1] for c in sorted_cols], axis=0), True]
    counts = np.diff(np.flatnonzero(change))
    return int((counts * (counts - 1) // 2).sum())


def _inversions(ranks: np.ndarray) -> int:
    """Pairs i < j with ranks[i] > ranks[j]: per bit b, the 1s before each 0
    among the elements that share the bits above b, in O(n log^2 n)."""
    dis = 0
    for b in range(int(ranks.max()).bit_length()):
        order = np.argsort(ranks >> (b + 1), kind="stable")
        high, bit = ranks[order] >> (b + 1), (ranks[order] >> b) & 1
        ones_before = np.cumsum(bit) - bit
        group_start = np.r_[True, high[1:] != high[:-1]]
        in_group = ones_before - ones_before[group_start][np.cumsum(group_start) - 1]
        dis += int(in_group[bit == 0].sum())
    return dis


def jaccard_keys(a: np.ndarray, b: np.ndarray) -> float:
    """|A ∩ B| / |A ∪ B| over two sorted arrays of distinct edge keys."""
    if not len(a) and not len(b):
        raise DataError("jaccard undefined for two empty edge sets")
    shared = int(np.count_nonzero(in_sorted(a, b)))
    return shared / (len(a) + len(b) - shared)
