"""Node-weighted latency computations and target selection heuristics.

Traversal cost lives on nodes: a path pays the latency of every node it
leaves, never the destination's.  Equivalently each edge (u, v) carries
weight latency(u), and pair latency is the least path cost under that
transform, each cost summed left to right along its path.  Targeting a
node sets its latency to 0, which can only shrink pair latencies.

Selecting k targets that minimize the average pair latency is NP-hard,
so three heuristics are provided: descending latency, descending
betweenness and greedy marginal improvement, which screens candidates in
float32 and scores the near-best exactly, as scoring all of them would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import DataError
from .graph import (
    DirectedGraph,
    betweenness_centrality,
    source_block,
    strongly_connected_components,
    weakly_connected_components,
)
from .ingest import in_sorted

__all__ = [
    "Heuristic",
    "MinimizationTrace",
    "LatencyState",
    "latency_component",
    "prepare",
    "minimize",
    "write_trace_tsv",
]

# Largest n x n working set one run may allocate.  Per node pair it holds
# the APSP matrix and a pick update's two matrices (8 B each), the mask
# (1 B) and a masked copy of the matrix (8 B); Greedy's float32 pair (8 B)
# is freed before each pick.  The APSP and betweenness run while only the
# matrix and the mask are held, their blocks of sources within
# graph.BLOCK_PAIR_BYTES (24 B) per pair, the 33 - 9 B left.
MEMORY_BUDGET_BYTES = 2 * 1024**3
_BYTES_PER_PAIR = 33
# Greedy screens candidates in float32 and rescores in float64 those
# within this share of the current latency sum of the best.  A screened
# entry is its float64 value, scaled by a power of two, after at most
# three float32 roundings (u = 2^-24; min keeps relative errors), and
# numpy's pairwise sum of n^2 non-negative terms adds at most (18 +
# log2(n^2 / 128)) u: 2.4e-6 in all at the guard's n ~ 8,000 (1e-8 was
# measured on such a sum).  The exact best is within twice that of the
# screened best, and a candidate skipped by its bound misses it by more.
_SCREEN_MARGIN = 1e-5


class Heuristic(Enum):
    MAX_LAT = "MaxLat"
    MAX_BC = "MaxBC"
    GREEDY = "Greedy"


@dataclass(frozen=True)
class MinimizationTrace:
    heuristic: Heuristic
    selected: tuple[int, ...]  # node indices, in pick order
    relative: tuple[float, ...]  # average latency after each pick / original


def _apsp_matrix(g: DirectedGraph, lat: np.ndarray) -> np.ndarray:
    """Pair latencies by node index: row s holds the least path costs from s.

    Label-correcting relaxation over blocks of :func:`source_block` source
    rows, written in place into the output.  Each round, every (source,
    node) key whose distance fell in the last round relaxes its CSR row
    with ``d + lat[node]``, and the improvements are scattered with
    ``np.minimum.at``.  ``fl(x + lat)`` is monotone in x and never below
    x, so the least fixed point is Dijkstra's result, bit for bit.
    """
    n, per_block = g.n, source_block(g)
    d = np.full((n, n), np.inf)
    fell = np.zeros(per_block * n, bool)
    for lo in range(0, n, per_block):
        block = d[lo:lo + per_block].reshape(-1)  # a view of the block's rows
        keys = np.arange(len(block) // n) * (n + 1) + lo
        block[keys] = 0.0
        while len(keys):
            deg, head = g.out_edges(keys)
            step = np.repeat(block[keys] + lat[keys % n], deg)
            better = step < block[head]
            head = head[better]
            np.minimum.at(block, head, step[better])
            fell[head] = True
            keys = np.flatnonzero(fell)
            fell[keys] = False
    return d


def _offdiag_finite_mask(d: np.ndarray) -> np.ndarray:
    mask = np.isfinite(d)
    np.fill_diagonal(mask, False)
    return mask


def latency_component(g: DirectedGraph, user: np.ndarray, mean: np.ndarray,
                      strict: bool = True) -> tuple[DirectedGraph, np.ndarray]:
    """The strong (weak unless ``strict``) component of ``g`` with the most
    members, ties to the greatest label, less its nodes outside ``user``:
    its graph and their latencies ``mean``.  ``g``'s labels and ``user``
    are ascending ids."""
    label = (strongly_connected_components if strict else weakly_connected_components)(g)
    size = np.bincount(label)
    keep = label == len(size) - 1 - np.argmax(size[::-1])
    graph = DirectedGraph.from_keys(g.keys, keep & in_sorted(np.array(g.nodes), user), g.nodes)
    return graph, mean[np.searchsorted(user, graph.nodes)]


@dataclass(frozen=True)
class LatencyState:
    """One graph's solved latency problem, shared by every heuristic.

    ``lat`` holds the node latencies in node order, ``d`` is the APSP
    matrix of ``g``, ``mask`` marks the reachable ordered pairs s != t,
    ``denom`` counts them (at least one) and ``base_avg`` is their mean
    latency.
    """

    g: DirectedGraph
    lat: np.ndarray
    d: np.ndarray
    mask: np.ndarray
    denom: float
    all_finite: bool
    base_avg: float


def prepare(g: DirectedGraph, lat: np.ndarray, strict: bool = True) -> LatencyState:
    """Check every precondition of a latency run, then solve the APSP once.

    ``lat`` holds one finite latency >= 0 per node, in node order.  Strict
    mode requires a strongly connected graph; permissive mode averages
    over the reachable pairs only.  Either way the n x n matrices must
    fit the memory budget and some ordered pair must be reachable.
    """
    n = g.n
    lat = np.asarray(lat, dtype=float)
    if lat.shape != (n,):
        raise DataError(f"{len(lat)} latencies for a graph of {n} nodes")
    bad = np.flatnonzero(~((lat >= 0) & (lat < math.inf)))  # NaN fails both
    if len(bad):
        i = int(bad[0])
        raise DataError(f"latency on {g.nodes[i]!r} is {float(lat[i])!r}, not finite and >= 0")
    if strict:
        label = strongly_connected_components(g)
        comps = np.count_nonzero(label == np.arange(n))
        if comps != 1:
            raise DataError(
                f"graph is not strongly connected ({comps} components); "
                "use permissive mode to average over reachable pairs"
            )
    need = _BYTES_PER_PAIR * n * n
    if need > MEMORY_BUDGET_BYTES:
        raise DataError(
            f"latency graph of n={n} nodes needs about {need:,} bytes for its "
            f"n x n matrices, over the budget of {MEMORY_BUDGET_BYTES:,} bytes"
        )
    d = _apsp_matrix(g, lat)
    mask = _offdiag_finite_mask(d)
    denom = float(mask.sum())
    if not denom:
        raise DataError("no reachable ordered pairs")
    return LatencyState(
        g, lat, d, mask, denom, int(denom) == n * (n - 1), float(d[mask].sum() / denom)
    )


def _zero_update(d: np.ndarray, idx: int, lat: float, out: np.ndarray,
                 row: np.ndarray) -> np.ndarray:
    """Exact APSP after zeroing node ``idx`` of latency ``lat``, into ``out``.

    Any path improved by the zeroing leaves the node at some point, so
    d'(s, t) = min(d(s, t), d(s, c) + (d(c, t) - latency(c))).  Distances
    INTO the node never pay its latency and stay as they were.  The
    result is written into ``out`` (n x n, must not alias ``d``); ``row``
    (n) is scratch.
    """
    np.subtract(d[idx], lat, out=row)
    # a two-operand broadcast pays iterator overhead on every row; adding
    # a contiguous column to the filled rows is one scalar add per row
    np.copyto(out, row)
    out += d[:, idx, None].copy()
    np.minimum(d, out, out=out)
    out[:, idx] = d[:, idx]
    np.fill_diagonal(out, 0.0)
    return out


def _screen_total(d: np.ndarray, i: int, lat: float, scale: float,
                  d32: np.ndarray, out32: np.ndarray) -> float:
    """The latency sum after zeroing node ``i``, screened in float32 on
    ``d32`` (``d * scale``, 0 outside the mask); ``out32`` is scratch.  The
    row, rounded once from float64, is inf at i, which keeps column i."""
    row = (d[i] - lat) * scale
    row[i] = np.inf
    np.copyto(out32, row.astype(np.float32))
    out32 += (d[:, i] * scale).astype(np.float32)[:, None]
    np.minimum(d32, out32, out=out32)
    return float(out32.sum()) / scale


def minimize(state: LatencyState, k: int, heuristic: Heuristic) -> MinimizationTrace:
    """Select k nodes to zero and trace the relative average latency.

    MaxLat and MaxBC fix their full ordering up front.  Greedy picks, at
    each step, the candidate whose zeroing leaves the lowest average.
    Zeroing c lowers a pair by at most lat(c), and only pairs from
    reach_in(c) + {c} to reach_out(c), so its savings are at most
    lat(c) * (|reach_in(c)| + 1) * |reach_out(c)|.  Candidates are
    screened (:func:`_screen_total`) in descending bound until the current
    latency sum minus the next bound exceeds the best screened total by
    ``_SCREEN_MARGIN`` of that sum; those within that margin of the best
    are scored exactly, so the picks and trace are those of scoring every
    candidate.  All ties break on the node index, the node label order.
    The trace is relative to ``state.base_avg``, which must be positive.
    """
    if k <= 0:
        raise DataError(f"k must be positive, got {k}")
    n = state.g.n
    if k > n:
        raise DataError(f"k={k} exceeds node count {n}")
    if state.base_avg == 0:
        raise DataError("original average latency is zero; relative trace undefined")

    lat = state.lat.copy()  # each pick zeroes its entry

    order: list[int] | None = None
    if heuristic is Heuristic.MAX_LAT:
        order = np.argsort(-lat, kind="stable")[:k].tolist()
    elif heuristic is Heuristic.MAX_BC:
        order = np.argsort(-betweenness_centrality(state.g), kind="stable")[:k].tolist()
    else:
        # reachability survives every zeroing, so the pair counts are fixed
        pairs = (state.mask.sum(axis=0) + 1.0) * state.mask.sum(axis=1)
        cur = state.base_avg * state.denom  # within 2 eps of the masked sum
    row = np.empty(n)

    d = state.d
    selected: list[int] = []
    relative: list[float] = []
    remaining = list(range(n))
    for step in range(k):
        if order is not None:
            near = [order[step]]
        else:
            # an exact power of two takes the largest entry into [0.5, 1)
            top = float(np.max(d, where=state.mask, initial=0.0))
            scale = math.ldexp(1.0, min(-math.frexp(top)[1], 1023))
            d32 = np.zeros((n, n), np.float32)
            np.multiply(d, scale, out=d32, where=state.mask)
            out32, margin = np.empty_like(d32), _SCREEN_MARGIN * cur
            bound = lat[remaining] * pairs[remaining]
            screened, best = [], math.inf
            for j in np.argsort(-bound, kind="stable"):
                if cur - bound[j] > best + margin:
                    break
                i = remaining[j]
                screened.append((_screen_total(d, i, lat[i], scale, d32, out32), i))
                best = min(best, screened[-1][0])
            del d32, out32
            near = [i for total, i in screened if total <= best + margin]
        out, scored = np.empty((n, n)), []
        for i in near:  # several only on a near-tie: score each exactly
            _zero_update(d, i, float(lat[i]), out, row)
            if len(near) > 1:
                # fully reachable case: diagonal zeros contribute nothing to the sum
                total = out.sum() if state.all_finite else out[state.mask].sum()
                scored.append((float(total / state.denom), i))
        pick = min(scored, default=(0.0, near[0]))[1]
        if pick != near[-1]:
            _zero_update(d, pick, float(lat[pick]), out, row)
        d = out
        lat[pick] = 0.0
        remaining.remove(pick)
        selected.append(pick)
        cur = float(d[state.mask].sum())
        relative.append(cur / state.denom / state.base_avg)
    return MinimizationTrace(
        heuristic=heuristic, selected=tuple(selected), relative=tuple(relative)
    )


def write_trace_tsv(traces: Sequence[MinimizationTrace], g: DirectedGraph, users, fh) -> None:
    """One row per pick; node i of ``g`` is named ``users[g.nodes[i]]``."""
    fh.write("heuristic\tstep\tnode\trelative_avg_latency\n")
    for trace in traces:
        for step, (i, rel) in enumerate(zip(trace.selected, trace.relative), 1):
            fh.write(f"{trace.heuristic.value}\t{step}\t{users[g.nodes[i]]}\t{rel!r}\n")
