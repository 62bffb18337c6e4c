import numpy as np
import pytest

from imlg.spatial import GridIndex, by_distance, radius_cell, smallest


def _reference(xy, queries, pool, k, radius=None, box=None, accept=None):
    """Brute force: every pool member but the query itself, filtered, then
    the k smallest (squared distance, id) pairs."""
    out = []
    for q in queries:
        cand = []
        for p in pool:
            if p == q:
                continue
            dx, dy = xy[p, 0] - xy[q, 0], xy[p, 1] - xy[q, 1]
            d2 = dx**2 + dy**2
            if radius is not None and not d2 <= radius * radius:
                continue
            if box is not None and not (abs(dx) <= box and abs(dy) <= box):
                continue
            if accept is not None and not accept(q, p):
                continue
            cand.append((d2, p))
        out.append([p for _d2, p in sorted(cand)[:k]])
    return out


def _tied_points(seed, n=400, w=9.0, h=9.0):
    """Random points plus forced ties: exact duplicates, coordinates clipped
    to the layout edge, points on cell boundaries and mirror pairs at equal
    distance from a common point."""
    rng = np.random.default_rng(seed)
    xy = np.column_stack([rng.normal(w / 2, w / 3, n), rng.normal(h / 2, h / 3, n)])
    xy[: n // 10] = xy[n // 10 : 2 * (n // 10)]  # duplicates
    xy[:, 0] = np.clip(xy[:, 0], 0.0, w - 1e-6)  # many share the edge coordinate
    xy[:, 1] = np.clip(xy[:, 1], 0.0, h - 1e-6)
    xy[-20:] = rng.integers(0, 9, size=(20, 2)).astype(float)  # on grid lines
    c = xy[-21]
    xy[-30:-25] = c + [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 0.0]]
    return xy


def _rows(near):
    return [[int(j) for j in row if j >= 0] for row in near]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("k", [1, 3, 6])
def test_radius_query_matches_bruteforce_on_ties(seed, k):
    xy = _tied_points(seed)
    n = len(xy)
    pool = np.flatnonzero(np.arange(n) % 3 != 0)
    got = GridIndex(xy, radius_cell(1.5), pool).nearest(np.arange(n), k, radius=1.5)
    assert _rows(got) == _reference(xy, range(n), pool, k, radius=1.5)


@pytest.mark.parametrize("seed", [3, 4])
def test_box_query_with_filter_matches_bruteforce(seed):
    xy = _tied_points(seed)
    ids = np.arange(len(xy))
    group = ids % 4

    def accept(u, v):
        return group[u] == group[v]

    got = GridIndex(xy, 2.0, ids).nearest(ids, 16, box=2.0, accept=accept)
    expected = _reference(xy, ids, ids, 16, box=2.0, accept=lambda q, p: group[q] == group[p])
    assert _rows(got) == expected


def test_small_blocks_give_the_same_answer(monkeypatch):
    import imlg.spatial as spatial

    xy = _tied_points(5)
    ids = np.arange(len(xy))
    full = GridIndex(xy, radius_cell(2.0)).nearest(ids, 6, radius=2.0)
    monkeypatch.setattr(spatial, "MAX_PAIRS", 7)  # one query row per block
    assert np.array_equal(GridIndex(xy, radius_cell(2.0)).nearest(ids, 6, radius=2.0), full)


def test_k_beyond_candidates_pads_and_empty_inputs():
    xy = np.array([[0.5, 0.5], [0.5, 0.5], [3.0, 3.0]])
    got = GridIndex(xy, radius_cell(1.0)).nearest([0, 1, 2], 4, radius=1.0)
    assert got.tolist() == [[1, -1, -1, -1], [0, -1, -1, -1], [-1, -1, -1, -1]]
    assert GridIndex(xy, 1.0, []).nearest([0], 2).tolist() == [[-1, -1]]
    assert GridIndex(xy, 1.0).nearest([], 2).shape == (0, 2)


def test_smallest_breaks_ties_by_column():
    rng = np.random.default_rng(7)
    d2 = rng.integers(0, 4, size=(50, 30)).astype(float)
    d2[rng.random((50, 30)) < 0.3] = np.inf
    for k, limit in ((1, np.inf), (5, np.inf), (5, 1.0), (30, np.inf), (40, 2.0)):
        got = smallest(d2, k, limit)
        for r in range(len(d2)):
            keep = [c for c in np.argsort(d2[r], kind="stable") if d2[r, c] <= limit]
            keep = [c for c in keep if np.isfinite(d2[r, c])][:k]
            assert got[r].tolist() == keep + [-1] * (k - len(keep))


def test_by_distance_orders_by_distance_then_id():
    xy = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 0.5], [1.0, 0.0]])
    assert by_distance(xy, 0, [4, 2, 1, 3]).tolist() == [3, 1, 2, 4]
