"""Uniform-grid neighbor index shared by the generator and the graph builder.

Points are bucketed by integer grid cell ``floor(xy / cell)``. The buckets
are one id array sorted by cell key (x-major), so each column of a block of
cells is one slice, found with ``np.searchsorted``. Queries are answered per
query cell: every query point in a cell shares one candidate pool, the
points of that cell and its 8 neighbors. A first pass scans only the pool
points close to the cell, and rows it cannot settle are scanned against the
whole pool. Scans run in blocks of at most ``MAX_PAIRS`` query x candidate
pairs, so the temporaries stay under a MiB whatever the design size.

Every query ranks candidates by (squared distance, then id), with the
squared distance computed as ``(px - qx)**2 + (py - qy)**2``; the id
tie-break is what keeps generated designs reproducible when points
coincide (duplicates, or coordinates clipped to the layout edge).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

MAX_PAIRS = 1 << 15  # query x candidate pairs per scanned block


def radius_cell(radius: float) -> float:
    """Cell size for Euclidean queries of ``radius``.

    A hair wider than the radius, so that rounding in ``xy / cell`` can never
    put a point that is within the radius two cells away from the query.
    """
    return radius * (1.0 + 1e-9)


def by_distance(xy: np.ndarray, q: int, cand) -> np.ndarray:
    """Candidate ids sorted by (squared distance to point ``q``, id)."""
    cand = np.asarray(cand, dtype=np.int64)
    d2 = (xy[cand, 0] - xy[q, 0]) ** 2 + (xy[cand, 1] - xy[q, 1]) ** 2
    return cand[np.lexsort((cand, d2))]


def smallest(d2: np.ndarray, k: int, limit: float = np.inf) -> np.ndarray:
    """Column indices of the ``k`` smallest entries of each row of ``d2``
    that are finite and at most ``limit``, ordered by (value, column) and
    padded with -1.

    ``argpartition`` picks the ``k`` smallest values; only rows where an
    unpicked entry ties the k-th value are re-ranked exactly. Dropping
    entries above ``limit`` after the selection gives the same answer as
    dropping them first, since they sort after every entry that is kept.
    """
    rows, width = d2.shape
    out = np.full((rows, k), -1, dtype=np.int64)
    kk = min(k, width)
    if kk == 0:
        return out
    if kk < width:
        cols = np.argpartition(d2, kk - 1, axis=1)[:, :kk]
        kth = np.take_along_axis(d2, cols[:, -1:], axis=1)[:, 0]
        tied = (kth <= limit) & np.isfinite(kth)
        tied &= np.count_nonzero(d2 <= kth[:, None], axis=1) > kk
        for r in np.flatnonzero(tied):
            cols[r] = np.argsort(d2[r], kind="stable")[:kk]
    else:
        cols = np.broadcast_to(np.arange(width), (rows, width)).copy()
    vals = np.take_along_axis(d2, cols, axis=1)
    order = np.lexsort((cols, vals), axis=1)
    cols = np.take_along_axis(cols, order, axis=1)
    vals = np.take_along_axis(vals, order, axis=1)
    cols[np.isinf(vals) | (vals > limit)] = -1
    out[:, :kk] = cols
    return out


class GridIndex:
    """Points ``ids`` of the coordinate table ``xy`` bucketed into square
    cells of side ``cell``."""

    def __init__(self, xy: np.ndarray, cell: float, ids=None):
        self.xy = xy
        self.cell = float(cell)
        ids = np.arange(len(xy), dtype=np.int64) if ids is None else np.asarray(ids, np.int64)
        cx, cy = self._cells(ids)
        self._x0 = int(cx.min()) if len(ids) else 0
        self._x1 = int(cx.max()) if len(ids) else -1
        self._y0 = int(cy.min()) if len(ids) else 0
        self._ny = int(cy.max()) - self._y0 + 1 if len(ids) else 0
        key = (cx - self._x0) * self._ny + (cy - self._y0)
        order = np.argsort(key, kind="stable")
        self._key = key[order]
        self._ids = ids[order]

    def _cells(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        c = np.floor(self.xy[ids] / self.cell).astype(np.int64)
        return c[:, 0], c[:, 1]

    def _pool(self, cx: int, cy: int) -> np.ndarray:
        """Ids in cell (cx, cy) and its 8 neighbors, ascending."""
        y_lo = max(cy - 1 - self._y0, 0)
        y_hi = min(cy + 1 - self._y0, self._ny - 1)
        cols = np.arange(max(cx - 1, self._x0), min(cx + 1, self._x1) + 1) - self._x0
        if y_lo > y_hi or len(cols) == 0:
            return np.zeros(0, dtype=np.int64)
        lo = np.searchsorted(self._key, cols * self._ny + y_lo, side="left")
        hi = np.searchsorted(self._key, cols * self._ny + y_hi, side="right")
        return np.sort(np.concatenate([self._ids[a:b] for a, b in zip(lo, hi)]))

    def nearest(
        self,
        queries,
        k: int,
        *,
        radius: float | None = None,
        box: float | None = None,
        accept: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    ) -> np.ndarray:
        """Up to ``k`` indexed ids per query id, never the query itself,
        nearest first by (squared distance, id), as a (len(queries), k)
        array padded with -1.

        Candidates come from the query's cell and its 8 neighbors and must
        lie within Euclidean ``radius`` and Chebyshev ``box`` when
        given. ``accept(q, p)`` may filter further: it gets a column of
        query ids and a row of candidate ids and returns the broadcast
        boolean mask of the pairs to keep.
        """
        queries = np.asarray(queries, dtype=np.int64)
        out = np.full((len(queries), k), -1, dtype=np.int64)
        if len(queries) == 0 or len(self._ids) == 0 or k == 0:
            return out
        args = (k, np.inf if radius is None else radius * radius, box, accept)
        margin = self.cell / 4
        qx, qy = self._cells(queries)
        order = np.lexsort((qy, qx))
        starts = np.flatnonzero((np.diff(qx[order]) != 0) | (np.diff(qy[order]) != 0)) + 1
        for rows in np.split(order, starts):
            pool = self._pool(int(qx[rows[0]]), int(qy[rows[0]]))
            if len(pool) == 0:
                continue
            # When it is at most half the pool, first scan only the points
            # within `margin` (a quarter cell) of the cell's queries: every
            # point left out is farther than that from each query, so a row
            # whose k-th squared distance stays below margin**2 already
            # holds its exact answer.
            q_xy = self.xy[queries[rows]]
            p_xy = self.xy[pool]
            inner = ((p_xy >= q_xy.min(0) - margin) & (p_xy <= q_xy.max(0) + margin)).all(1)
            if 0 < 2 * np.count_nonzero(inner) <= len(pool):
                ids, kth = self._scan(queries[rows], pool[inner], *args)
                done = kth < (0.999 * margin) ** 2
                out[rows[done]] = ids[done]
                rows = rows[~done]
            if len(rows):
                out[rows] = self._scan(queries[rows], pool, *args)[0]
        return out

    def _scan(self, q, pool, k, limit, box, accept) -> tuple[np.ndarray, np.ndarray]:
        """Nearest ids per query against one candidate pool, in blocks of at
        most MAX_PAIRS pairs, plus each row's k-th squared distance (inf
        when fewer than k were found)."""
        ids = np.full((len(q), k), -1, dtype=np.int64)
        kth = np.full(len(q), np.inf)
        step = max(1, MAX_PAIRS // len(pool))
        for s in range(0, len(q), step):
            ids[s : s + step], kth[s : s + step] = self._block(
                q[s : s + step], pool, k, limit, box, accept
            )
        return ids, kth

    def _block(self, q, pool, k, limit, box, accept) -> tuple[np.ndarray, np.ndarray]:
        xy = self.xy
        qc = q[:, None]
        dx = xy[pool, 0] - xy[qc, 0]
        dy = xy[pool, 1] - xy[qc, 1]
        drop = None
        if box is not None:
            drop = np.abs(dx) > box
            drop |= np.abs(dy) > box
        d2 = np.square(dx, out=dx)
        d2 += np.square(dy, out=dy)
        if accept is not None:
            rejected = ~accept(qc, pool)
            drop = rejected if drop is None else (drop | rejected)
        if drop is not None:
            d2[drop] = np.inf
        at = np.minimum(np.searchsorted(pool, q), len(pool) - 1)  # pool is sorted
        own = np.flatnonzero(pool[at] == q)
        d2[own, at[own]] = np.inf
        cols = smallest(d2, k, limit)
        last = cols[:, -1]
        kth = np.where(last >= 0, d2[np.arange(len(q)), last], np.inf)
        return np.where(cols >= 0, pool[cols], -1), kth
