"""Multilevel graph partitioning for mini-batch training.

Classic three-stage pipeline: coarsen by heavy-edge matching until the
graph is small, grow k regions by BFS from spread seeds, then project
back up refining with boundary moves that never increase the cut and
never violate the size bounds. Everything is deterministic under the
seed (the seed only permutes the matching visit order).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .sparse import Adjacency

_COARSE_FACTOR = 20  # stop coarsening at <= 20 * k nodes
_MAX_REFINE_PASSES = 8


@dataclass
class Partition:
    assignment: np.ndarray  # cluster id per node, in [0, k)
    k: int
    cut: int


def _weighted(adj: Adjacency) -> list[dict[int, float]]:
    """Unit edge weights per CSR row, neighbors in ascending order."""
    ptr = adj.indptr.tolist()
    cols = adj.indices.tolist()
    return [dict.fromkeys(cols[lo:hi], 1.0) for lo, hi in zip(ptr[:-1], ptr[1:])]


def cut_size(adj: Adjacency, assignment: np.ndarray) -> int:
    """Number of edges whose endpoints lie in different clusters."""
    assignment = np.asarray(assignment)
    return int(np.count_nonzero(assignment[adj.rows] != assignment[adj.indices])) // 2


def coarsen(
    wadj: list[dict[int, float]], node_w: np.ndarray, visit: np.ndarray
) -> tuple[list[dict[int, float]], np.ndarray, np.ndarray]:
    """One heavy-edge-matching level: returns (coarse adj, coarse weights,
    fine-to-coarse mapping). Matched pairs merge; parallel edges sum."""
    n = len(wadj)
    mate = np.full(n, -1, dtype=np.int64)
    for i in visit:
        i = int(i)
        if mate[i] >= 0:
            continue
        best, best_w = -1, -1.0
        for j, w in wadj[i].items():
            if mate[j] >= 0 or j == i:
                continue
            if w > best_w or (w == best_w and (best < 0 or j < best)):
                best, best_w = j, w
        if best >= 0:
            mate[i], mate[best] = best, i
    mapping = np.full(n, -1, dtype=np.int64)
    nc = 0
    for i in range(n):
        if mapping[i] >= 0:
            continue
        mapping[i] = nc
        if mate[i] >= 0:
            mapping[mate[i]] = nc
        nc += 1
    cadj: list[dict[int, float]] = [dict() for _ in range(nc)]
    cw = np.zeros(nc)
    for i in range(n):
        cw[mapping[i]] += node_w[i]
        ci = int(mapping[i])
        for j, w in wadj[i].items():
            cj = int(mapping[j])
            if ci != cj:
                cadj[ci][cj] = cadj[ci].get(cj, 0.0) + w
    # each fine edge was visited from both endpoints; halve the sums
    for d in cadj:
        for j in d:
            d[j] /= 2.0
    return cadj, cw, mapping


def _spread_seeds(wadj: list[dict[int, float]], k: int) -> list[int]:
    n = len(wadj)
    seeds = [0]
    dist = np.full(n, np.inf)
    for _ in range(k - 1):
        q = deque(seeds)
        dist[:] = np.inf
        dist[seeds] = 0.0
        while q:
            u = q.popleft()
            for v in wadj[u]:
                if dist[v] == np.inf:
                    dist[v] = dist[u] + 1
                    q.append(v)
        dist_for_pick = np.where(np.isinf(dist), n + 1.0, dist)
        dist_for_pick[seeds] = -1.0
        seeds.append(int(np.argmax(dist_for_pick)))
    return seeds


def initial_partition(wadj: list[dict[int, float]], node_w: np.ndarray, k: int) -> np.ndarray:
    """Grow k regions by BFS from spread seeds, always extending the
    lightest cluster; unreached nodes go round-robin to the lightest."""
    n = len(wadj)
    if k == 1:
        return np.zeros(n, dtype=np.int64)
    assignment = np.full(n, -1, dtype=np.int64)
    seeds = _spread_seeds(wadj, k)
    frontiers = [deque([s]) for s in seeds]
    weights = np.zeros(k)
    live = set(range(k))
    while live:
        c = min(live, key=lambda cc: (weights[cc], cc))
        q = frontiers[c]
        claimed = False
        while q:
            u = q.popleft()
            if assignment[u] < 0:
                assignment[u] = c
                weights[c] += node_w[u]
                for v in sorted(wadj[u]):
                    if assignment[v] < 0:
                        q.append(v)
                claimed = True
                break
        if not claimed:
            live.discard(c)
    for u in range(n):
        if assignment[u] < 0:
            c = int(np.argmin(weights))
            assignment[u] = c
            weights[c] += node_w[u]
    return assignment


def refine(
    wadj: list[dict[int, float]],
    node_w: np.ndarray,
    assignment: np.ndarray,
    k: int,
    min_size: float,
    max_size: float,
) -> np.ndarray:
    """Greedy boundary passes: move a node to the neighboring cluster with
    the largest positive cut gain, respecting the size bounds. The cut is
    strictly decreasing across accepted moves, so this terminates."""
    assignment = assignment.copy()
    weights = np.zeros(k)
    for u, c in enumerate(assignment):
        weights[c] += node_w[u]
    for _ in range(_MAX_REFINE_PASSES):
        moved = False
        for u in range(len(wadj)):
            c = int(assignment[u])
            ext: dict[int, float] = {}
            internal = 0.0
            for v, w in wadj[u].items():
                cv = int(assignment[v])
                if cv == c:
                    internal += w
                else:
                    ext[cv] = ext.get(cv, 0.0) + w
            if not ext:
                continue
            best_c, best_gain = -1, 0.0
            for cv in sorted(ext):
                gain = ext[cv] - internal
                if gain > best_gain:
                    best_c, best_gain = cv, gain
            if best_c < 0:
                continue
            if weights[c] - node_w[u] < min_size or weights[best_c] + node_w[u] > max_size:
                continue
            assignment[u] = best_c
            weights[c] -= node_w[u]
            weights[best_c] += node_w[u]
            moved = True
        if not moved:
            break
    return assignment


def partition_graph(graph, target_size: int, seed: int = 0) -> Partition:
    """Split a CircuitGraph into k = round(n / target_size) clusters (at
    least 1) of roughly equal size, minimizing cross-cluster edges."""
    adj = graph.adj
    n = adj.n
    if n < 1:
        raise ValueError("cannot partition an empty graph")
    if target_size < 1:
        raise ValueError(f"target_size must be >= 1, got {target_size}")
    k = max(1, int(np.floor(n / target_size + 0.5)))
    k = min(k, n)
    if k == 1:
        return Partition(np.zeros(n, dtype=np.int64), 1, 0)
    min_size = 0.5 * target_size
    max_size = 1.5 * target_size
    rng = np.random.default_rng(seed)

    levels = []
    wadj = _weighted(adj)
    node_w = np.ones(n)
    while len(wadj) > _COARSE_FACTOR * k:
        visit = rng.permutation(len(wadj))
        cadj, cw, mapping = coarsen(wadj, node_w, visit)
        if len(cadj) >= len(wadj):  # no progress; stop
            break
        levels.append((wadj, node_w, mapping))
        wadj, node_w = cadj, cw
    assignment = initial_partition(wadj, node_w, k)
    assignment = refine(wadj, node_w, assignment, k, min_size, max_size)
    while levels:
        fine_adj, fine_w, mapping = levels.pop()
        assignment = assignment[mapping]
        assignment = refine(fine_adj, fine_w, assignment, k, min_size, max_size)
        wadj, node_w = fine_adj, fine_w
    # every cluster must be non-empty: steal the lightest neighbors if needed
    counts = np.bincount(assignment, minlength=k)
    for c in range(k):
        if counts[c] == 0:
            donor = int(np.argmax(counts))
            victim = int(np.nonzero(assignment == donor)[0][0])
            assignment[victim] = c
            counts[c] += 1
            counts[donor] -= 1
    return Partition(assignment, k, cut_size(adj, assignment))
