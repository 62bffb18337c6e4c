"""Sparse batch adjacencies and the mean-aggregation operator over them.

`Adjacency` is a symmetric 0/1 adjacency in CSR form (`indptr`,
`indices`, `deg`): the storage of a circuit graph, and of each batch cut
out of it.
`AugmentedAdjacency` adds the decoder's synthetic nodes: the real CSR plus
the m x (n+m) bool rows of the synthetic nodes, whose transpose gives the
synthetic columns. `MeanAggregation` turns either into the row-normalized
neighbor mean as a constant linear operator for `autodiff.linear`; neither
ever holds an (n+m) x (n+m) array, and the synthetic rows become float64
only one block of `autodiff.ROW_BLOCK` rows at a time.
"""

from __future__ import annotations

import numpy as np

from .autodiff import row_blocks

# Neighbor sums gather at most this many rows of the input at a time, so a
# pass over all edges never holds an edges x features copy of its input.
GATHER_ROWS = 2048


class RepeatedEdge(ValueError):
    """An edge list names one edge twice; `at` is the position of the
    first edge that repeats an earlier one."""

    def __init__(self, at: int):
        super().__init__(f"edge {at} repeats an earlier edge")
        self.at = at


class Adjacency:
    """Symmetric 0/1 adjacency in CSR form, no self-loops, neighbor ids
    ascending within each row."""

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.deg = np.diff(self.indptr)
        self.n = len(self.deg)
        # the row of every stored entry, and the chunks neighbor_sum gathers:
        # (entry range, offsets of its row segments, the rows of those segments)
        self.rows = np.repeat(np.arange(self.n), self.deg)
        self._chunks = []
        for lo in range(0, len(self.indices), GATHER_ROWS):
            hi = min(lo + GATHER_ROWS, len(self.indices))
            r = self.rows[lo:hi]
            starts = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])
            self._chunks.append((lo, hi, starts, r[starts]))

    @classmethod
    def from_edges(cls, n: int, i: np.ndarray, j: np.ndarray) -> tuple[Adjacency, np.ndarray]:
        """Adjacency of the undirected edges (i[e], j[e]), i[e] != j[e], on n nodes.

        Also returns `order`: stored entry k is one of the two copies of
        edge order[k] // 2, so per-edge data `v` lines up with `indices` as
        np.repeat(v, 2)[order]. An edge given twice, either way round,
        raises RepeatedEdge."""
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        # both copies of each edge, interleaved: (i0, j0), (j0, i0), (i1, j1), ...
        rows = np.column_stack([i, j]).ravel()
        cols = np.column_stack([j, i]).ravel()
        # stable, so of equal entries the one of the earlier edge comes first
        order = np.argsort(rows * n + cols, kind="stable")
        rows, cols = rows[order], cols[order]
        same = np.flatnonzero((rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])) + 1
        if len(same):
            raise RepeatedEdge(int(order[same].min()) // 2)
        return cls(np.r_[0, np.cumsum(np.bincount(rows, minlength=n))], cols), order

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    def subgraph(self, nodes: np.ndarray) -> Adjacency:
        """Induced subgraph on `nodes` (ascending ids), renumbered 0..k-1."""
        nodes = np.asarray(nodes, dtype=np.int64)
        local = np.full(self.n, -1, dtype=np.int64)
        local[nodes] = np.arange(len(nodes))
        deg = self.deg[nodes]
        # position in `indices` of every stored entry of the chosen rows
        shift = np.repeat(self.indptr[nodes] - (np.cumsum(deg) - deg), deg)
        cols = local[self.indices[shift + np.arange(len(shift))]]
        keep = cols >= 0
        rows = np.repeat(np.arange(len(nodes)), deg)[keep]
        counts = np.bincount(rows, minlength=len(nodes))
        return Adjacency(np.r_[0, np.cumsum(counts)], cols[keep])

    def neighbor_sum(self, x: np.ndarray) -> np.ndarray:
        """Row i holds the sum of x over i's neighbors (zero if isolated)."""
        out = np.zeros((self.n, x.shape[1]))
        for lo, hi, starts, rows in self._chunks:
            out[rows] += np.add.reduceat(x[self.indices[lo:hi]], starts, axis=0)
        return out


class AugmentedAdjacency:
    """A real batch adjacency plus m synthetic nodes numbered n..n+m-1.

    `synthetic` holds the synthetic rows (m x (n+m), bool, zero diagonal);
    by symmetry its transpose is the synthetic columns. `self[n:]` returns
    those rows, so a caller can count synthetic edges without a dense
    matrix."""

    def __init__(self, real: Adjacency, synthetic: np.ndarray):
        self.real = real
        self.synthetic = synthetic
        n = real.n
        self.n = n + synthetic.shape[0]
        self.deg = np.concatenate(
            [real.deg + synthetic[:, :n].sum(axis=0), synthetic.sum(axis=1)]
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    def __getitem__(self, rows):
        if not (isinstance(rows, slice) and rows.start == self.real.n and rows.stop is None
                and rows.step is None):
            raise IndexError("only the synthetic rows [n:] are stored as a matrix")
        return self.synthetic

    def neighbor_sum(self, x: np.ndarray) -> np.ndarray:
        n, synthetic = self.real.n, self.synthetic
        out = np.empty((self.n, x.shape[1]))
        out[:n] = self.real.neighbor_sum(x[:n])
        for lo, hi in row_blocks(n):  # the synthetic columns of real rows
            out[lo:hi] += synthetic[:, lo:hi].T.astype(np.float64) @ x[n:]
        for lo, hi in row_blocks(len(synthetic)):
            out[n + lo : n + hi] = synthetic[lo:hi].astype(np.float64) @ x
        return out


class MeanAggregation:
    """Row-normalized adjacency as a constant linear operator: row i of
    apply(x) is the mean of x over i's neighbors, zero for an isolated i.
    A is symmetric, so the transpose is apply_t(g) = A (g / deg)."""

    def __init__(self, adj: Adjacency | AugmentedAdjacency):
        self.adj = adj
        self._deg = np.maximum(adj.deg, 1).astype(np.float64)[:, None]

    def apply(self, x: np.ndarray) -> np.ndarray:
        out = self.adj.neighbor_sum(x)
        out /= self._deg
        return out

    def apply_t(self, g: np.ndarray) -> np.ndarray:
        return self.adj.neighbor_sum(g / self._deg)
