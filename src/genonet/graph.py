"""Directed-graph kernels: connectivity, centralities, rank statistics.

All operations are pure functions over an immutable CSR
:class:`DirectedGraph`, and each one takes and returns arrays in node
order.  A graph's labels, one per node, come in ascending order (user
names, or user ids in name order), so a tie broken on the node index is
broken on the label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .ingest import gather_rows, in_sorted, ordered_sum, run_starts

# Most sources per block of the all-sources kernels (betweenness here,
# latmin's APSP).  A block of b sources keeps a few b x n arrays and up to
# b x the edge count in one APSP round or in betweenness's level lists,
# about _EDGE_BYTES each; source_block keeps those edges within
# BLOCK_PAIR_BYTES per node pair, a budget that callers count.
SOURCE_BLOCK = 16
BLOCK_PAIR_BYTES = 24
_EDGE_BYTES = 25
# PageRank's damping factor, the L1 change it stops below and its cap on rounds
_DAMPING, _TOL, _MAX_ITER = 0.85, 1e-10, 200

__all__ = [
    "DirectedGraph",
    "csr_rows",
    "source_block",
    "strongly_connected_components",
    "weakly_connected_components",
    "pagerank",
    "betweenness_centrality",
    "kendall_tau",
    "jaccard_keys",
]


@dataclass(frozen=True, eq=False)
class DirectedGraph:
    """CSR digraph: row i, ``indices[indptr[i]:indptr[i + 1]]``, holds node
    i's successor ids in ascending order."""

    nodes: tuple
    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_keys(cls, keys: np.ndarray, keep: np.ndarray, labels) -> "DirectedGraph":
        """The graph of :func:`csr_rows`, its node i labelled by
        ``labels[nodes[i]]`` for the sorted ``labels`` of the ids."""
        nodes, indptr, indices = csr_rows(keys, keep, len(labels))
        return cls(tuple(labels[i] for i in nodes.tolist()), indptr, indices)

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


def source_block(g: DirectedGraph) -> int:
    """Sources per block on ``g``: :data:`SOURCE_BLOCK`, or as many (at
    least one) as keep the block's edges within :data:`BLOCK_PAIR_BYTES`
    per node pair, which binds above about n^2 / 16 edges.  The block
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


def strongly_connected_components(g: DirectedGraph) -> np.ndarray:
    """Tarjan's algorithm, iterative and linear: each node's label is the
    least node index in its strong component."""
    ptr, idx = g.indptr.tolist(), g.indices.tolist()
    index = [-1] * g.n
    low = [0] * g.n
    label = [-1] * g.n  # a visited node is on the stack until it has a label
    depth = [0] * g.n  # its position there, fixed while it stays on
    stack: list[int] = []
    counter = 0
    for root in range(g.n):
        if index[root] != -1:
            continue
        work = [(root, ptr[root])]  # (node, its next edge)
        while work:
            v, e = work[-1]
            if index[v] == -1:
                index[v] = low[v] = counter
                counter += 1
                depth[v] = len(stack)
                stack.append(v)
            while e < ptr[v + 1]:
                w = idx[e]
                e += 1
                if index[w] == -1:
                    work[-1] = (v, e)
                    work.append((w, ptr[w]))
                    break
                if label[w] == -1:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if low[v] == index[v]:  # v roots the component above it
                    members = stack[depth[v]:]
                    del stack[depth[v]:]
                    least = min(members)
                    for w in members:
                        label[w] = least
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
    return np.array(label, dtype=np.int64)


def weakly_connected_components(g: DirectedGraph) -> np.ndarray:
    """Each node's label is the least node index in its weak component.

    Each round hooks the labels of every edge's two ends, which are roots,
    onto the smaller one with ``np.minimum.at``, then jumps pointers
    (``label = label[label]``) until every label is a root again; the
    rounds stop when each edge's ends share a label.  A label never rises
    and stays inside its component, so the fixed point is the least
    member.
    """
    label = np.arange(g.n)
    tail, head = np.repeat(label, np.diff(g.indptr)), g.indices
    while True:
        a, b = label[tail], label[head]
        split = a != b
        if not split.any():
            return label
        tail, head, a, b = tail[split], head[split], a[split], b[split]
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
        while True:
            up = label[label]
            if (up == label).all():
                break
            label = up


def pagerank(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Power iteration on nodes ``0..n-1`` with CSR rows of sorted successors.

    Dangling mass is redistributed uniformly; iteration stops when the
    L1 change drops below ``_TOL``.  Scores sum to 1.  Each edge's share
    is scattered in edge order, and the dangling mass and the L1 change
    are running sums in node order, so every addition happens in the
    order of a node-by-node loop.
    """
    n = len(indptr) - 1
    if n == 0:
        raise DataError("pagerank undefined on an empty graph")
    out_deg = np.diff(indptr)
    dangling = out_deg == 0
    share, scores = np.zeros(n), np.full(n, 1.0 / n)
    for _ in range(_MAX_ITER):
        np.divide(scores, out_deg, out=share, where=~dangling)
        nxt = np.bincount(indices, weights=np.repeat(share, out_deg), minlength=n)
        mass = ordered_sum(scores[dangling])
        nxt = (1.0 - _DAMPING) / n + _DAMPING * mass / n + _DAMPING * nxt
        delta = ordered_sum(np.abs(nxt - scores))
        scores = nxt
        if delta < _TOL:
            break
    return scores


def betweenness_centrality(g: DirectedGraph) -> np.ndarray:
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
    return bc


def kendall_tau(x: np.ndarray, y: np.ndarray) -> float:
    """Tie-corrected Kendall tau-b between two equal-length score arrays.

    Both need at least 2 entries.  Returns NaN when either side is
    entirely tied (tau-b undefined) or holds a NaN.  Bit-identical to
    ``scipy.stats.kendalltau(x, y, variant="b")``.
    """
    x, y = np.asarray(x, float), np.asarray(y, float)
    if len(x) != len(y):
        raise DataError(f"rank vectors differ in length ({len(x)} and {len(y)})")
    if len(x) < 2:
        raise DataError("kendall_tau needs at least 2 entries")
    order = np.lexsort((y, x))
    x, y = x[order], y[order]
    tot = len(x) * (len(x) - 1) // 2
    xtie, ytie, ntie = _tied_pairs(x), _tied_pairs(np.sort(y)), _tied_pairs(x, y)
    if xtie == tot or ytie == tot or np.isnan(x).any() or np.isnan(y).any():
        return float("nan")
    dis = _inversions(np.unique(y, return_inverse=True)[1])
    tau = (tot - xtie - ytie + ntie - 2 * dis) / np.sqrt(tot - xtie) / np.sqrt(tot - ytie)
    return float(min(1.0, max(-1.0, tau)))


def _tied_pairs(*sorted_cols: np.ndarray) -> int:
    """Pairs equal on every column, the columns being sorted jointly."""
    counts = np.diff(np.flatnonzero(np.append(run_starts(*sorted_cols), True)))
    return int((counts * (counts - 1) // 2).sum())


def _inversions(ranks: np.ndarray) -> int:
    """Pairs i < j with ranks[i] > ranks[j]: per bit b, the 1s before each 0
    among the elements that share the bits above b, in O(n log^2 n)."""
    dis = 0
    for b in range(int(ranks.max()).bit_length()):
        order = np.argsort(ranks >> (b + 1), kind="stable")
        high, bit = ranks[order] >> (b + 1), (ranks[order] >> b) & 1
        ones_before = np.cumsum(bit) - bit
        group_start = run_starts(high)
        in_group = ones_before - ones_before[group_start][np.cumsum(group_start) - 1]
        dis += int(in_group[bit == 0].sum())
    return dis


def jaccard_keys(a: np.ndarray, b: np.ndarray) -> float:
    """|A ∩ B| / |A ∪ B| over two sorted arrays of distinct edge keys."""
    if not len(a) and not len(b):
        raise DataError("jaccard undefined for two empty edge sets")
    shared = int(np.count_nonzero(in_sorted(a, b)))
    return shared / (len(a) + len(b) - shared)
