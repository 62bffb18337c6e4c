import itertools

import numpy as np
import pytest

from imlg.graphs import CircuitGraph, build_graph
from imlg.partition import (
    Partition,
    coarsen,
    cut_size,
    initial_partition,
    partition_graph,
    refine,
)
from imlg.synth import GenConfig, generate_labeled


def _graph(n, edges):
    """CircuitGraph on n nodes with the undirected edges (i, j)."""
    i, j = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    return CircuitGraph.from_edges([str(k) for k in range(n)], i, j, np.zeros(len(i)))


def _adj(n, edges):
    return _graph(n, edges).adj


def _weighted(adj):
    ptr = adj.indptr
    return [{int(j): 1.0 for j in adj.indices[ptr[i] : ptr[i + 1]]} for i in range(adj.n)]


def _random_adj(rng, n, p):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return _adj(n, edges)


def _check_valid(part: Partition, n, target):
    assert len(part.assignment) == n
    assert part.assignment.min() >= 0 and part.assignment.max() < part.k
    counts = np.bincount(part.assignment, minlength=part.k)
    assert (counts > 0).all()
    out_of_band = np.sum((counts < 0.5 * target) | (counts > 1.5 * target))
    assert out_of_band <= 1  # at most one remainder cluster


def test_path_graph_matches_bruteforce_optimum():
    g = _graph(4, [(0, 1), (1, 2), (2, 3)])
    part = partition_graph(g, target_size=2)
    assert part.k == 2
    assert part.cut == 1
    groups = {tuple(sorted(np.flatnonzero(part.assignment == c))) for c in range(2)}
    assert groups == {(0, 1), (2, 3)}
    # brute force over all balanced 2-partitions
    best = min(
        cut_size(g.adj, np.array(a))
        for a in itertools.product((0, 1), repeat=4)
        if sum(a) == 2
    )
    assert part.cut == best


def test_single_cluster_when_target_covers_graph():
    g = _graph(10, [(i, i + 1) for i in range(9)])
    part = partition_graph(g, target_size=10)
    assert part.k == 1 and part.cut == 0


def test_target_one_gives_singletons():
    g = _graph(4, [(0, 1), (2, 3)])
    part = partition_graph(g, target_size=1)
    assert part.k == 4
    assert part.cut == 2


@pytest.fixture(scope="module")
def synthetic_graph():
    design, labels = generate_labeled(GenConfig(n_instances=5000, seed=13))
    return build_graph(design, labels)


def test_balance_and_beats_random_partitions(synthetic_graph):
    g = synthetic_graph
    part = partition_graph(g, target_size=1000, seed=0)
    assert part.k == 5
    _check_valid(part, g.n, 1000)
    counts = np.bincount(part.assignment, minlength=part.k)
    assert ((counts >= 500) & (counts <= 1500)).all()
    rng = np.random.default_rng(99)
    wins = 0
    for _ in range(100):
        perm = rng.permutation(g.n)
        rand_assign = np.zeros(g.n, dtype=np.int64)
        for c in range(5):
            rand_assign[perm[c * 1000 : (c + 1) * 1000]] = c
        if part.cut <= cut_size(g.adj, rand_assign):
            wins += 1
    assert wins >= 95


def test_partition_deterministic_under_seed(synthetic_graph):
    p1 = partition_graph(synthetic_graph, target_size=700, seed=5)
    p2 = partition_graph(synthetic_graph, target_size=700, seed=5)
    assert np.array_equal(p1.assignment, p2.assignment)
    assert p1.cut == p2.cut


def test_coarsen_perfect_matching_halves():
    for m in (3, 8):
        adj = _adj(2 * m, [(2 * i, 2 * i + 1) for i in range(m)])
        wadj = _weighted(adj)
        cadj, cw, mapping = coarsen(wadj, np.ones(2 * m), np.arange(2 * m))
        assert len(cadj) == m
        assert cw.sum() == 2 * m
        for i in range(m):
            assert mapping[2 * i] == mapping[2 * i + 1]


def test_refine_keeps_bruteforce_optimum():
    # the optimum is taken over the same size bounds refine is allowed to use
    rng = np.random.default_rng(7)
    for _trial in range(20):
        n = int(rng.integers(6, 13))
        adj = _random_adj(rng, n, 0.4)
        wadj = _weighted(adj)
        target = n / 2
        lo, hi = 0.5 * target, 1.5 * target
        best_cut, best_assign = None, None
        for bits in range(1, 2**n - 1):
            a = np.array([(bits >> i) & 1 for i in range(n)], dtype=np.int64)
            ones = int(a.sum())
            if not (lo <= ones <= hi and lo <= n - ones <= hi):
                continue
            c = cut_size(adj, a)
            if best_cut is None or c < best_cut:
                best_cut, best_assign = c, a
        out = refine(wadj, np.ones(n), best_assign, 2, min_size=lo, max_size=hi)
        assert cut_size(adj, out) == best_cut


def test_refine_never_increases_cut():
    rng = np.random.default_rng(21)
    for _trial in range(100):
        n = int(rng.integers(8, 40))
        adj = _random_adj(rng, n, 0.15)
        wadj = _weighted(adj)
        k = 3
        assignment = rng.integers(0, k, size=n).astype(np.int64)
        before = cut_size(adj, assignment)
        target = n / k
        out = refine(wadj, np.ones(n), assignment, k, 0.5 * target, 1.5 * target)
        assert cut_size(adj, out) <= before


def test_cut_size_counts_each_crossing_edge_once():
    rng = np.random.default_rng(12)
    for _trial in range(20):
        n = int(rng.integers(2, 30))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.2]
        assignment = rng.integers(0, 3, size=n)
        expected = sum(1 for i, j in edges if assignment[i] != assignment[j])
        assert cut_size(_adj(n, edges), assignment) == expected


def test_isolated_nodes_assigned_round_robin():
    g = _graph(9, [(0, 1), (1, 2), (3, 4), (4, 5)])  # 6,7,8 isolated
    part = partition_graph(g, target_size=3, seed=1)
    _check_valid(part, 9, 3)


def test_initial_partition_covers_all_nodes():
    rng = np.random.default_rng(4)
    adj = _random_adj(rng, 30, 0.1)
    assignment = initial_partition(_weighted(adj), np.ones(30), 4)
    assert (assignment >= 0).all()
    assert len(np.unique(assignment)) == 4
