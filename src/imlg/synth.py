"""Seeded synthetic placement designs with rule-based packing labels.

Instances are placed as a uniform background plus Gaussian hotspots;
overflowing hotspots are what produces unpacked elements. The labeling
oracle is a deterministic greedy legalizer over slice cells: each cell
holds 8 BLEs, a BLE holds at most two LUTs and two FFs that may share it
under the BLE rule of ``imlg.design.NodeTable``, the table the oracle
reads. An instance that fits neither its own cell nor any of the 8
surrounding cells is labeled unpacked (1).

The generator hits a requested minority fraction by bisecting the
hotspot intensity against the oracle, so the labels always come from the
oracle, never from the placement step itself.

Nets connect each sink to one of its nearest drivers; the neighbor
queries live in ``imlg.spatial`` (grid index, (distance, id) order), the
same index the graph builder uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import (
    LUT_TYPES,
    MAX_BLE_INPUTS,
    Instance,
    LabelSet,
    Net,
    NodeTable,
    PlacementDesign,
    lut_width,
)
from .spatial import GridIndex, by_distance, radius_cell

BLES_PER_CELL = 8
LUTS_PER_BLE = 2
FFS_PER_BLE = 2

# net-construction knobs (kept module-local; the rng makes them reproducible)
_LUT_SIZE_WEIGHTS = (0.10, 0.15, 0.20, 0.25, 0.30)  # LUT2..LUT6
_LUT_INPUT_CONNECT_PROB = 0.6
_SR_FRACTION = 0.3
_CLOCK_COUNT = 2
_NEAR_RADIUS = 4.0
_BISECT_TOL = 0.015
_MAX_ORACLE_EVALS = 12

_NEIGHBOR_OFFSETS = tuple(
    (dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if (dx, dy) != (0, 0)
)


@dataclass(frozen=True)
class GenConfig:
    n_instances: int
    lut_ff_mix: float = 0.5
    layout_w: int | None = None  # None = auto-size to ~50% average occupancy
    layout_h: int | None = None
    hotspot_count: int = 4
    hotspot_intensity: float = 1.0  # upper bound on the fraction placed in hotspots
    target_minority: float = 0.10
    seed: int = 0
    ff_driven_frac: float = 0.8  # fraction of FFs whose d pin gets a nearby LUT driver


def _resolve_layout(cfg: GenConfig) -> tuple[int, int]:
    if (cfg.layout_w is None) != (cfg.layout_h is None):
        raise ValueError("layout_w and layout_h must be given together")
    if cfg.layout_w is not None:
        return cfg.layout_w, cfg.layout_h
    side = max(2, math.ceil(math.sqrt(cfg.n_instances / 16.0)))
    return side, side


def _validate(cfg: GenConfig) -> tuple[int, int]:
    if cfg.n_instances < 10:
        raise ValueError(f"n_instances must be >= 10, got {cfg.n_instances}")
    if not (0.0 < cfg.target_minority < 0.5):
        raise ValueError(f"target_minority must be in (0, 0.5), got {cfg.target_minority}")
    if not (0.0 <= cfg.lut_ff_mix <= 1.0):
        raise ValueError(f"lut_ff_mix must be in [0, 1], got {cfg.lut_ff_mix}")
    if not (0.0 <= cfg.hotspot_intensity <= 1.0):
        raise ValueError(f"hotspot_intensity must be in [0, 1], got {cfg.hotspot_intensity}")
    if cfg.hotspot_count < 0:
        raise ValueError("hotspot_count must be >= 0")
    w, h = _resolve_layout(cfg)
    if w < 1 or h < 1:
        raise ValueError(f"layout extent must be >= 1, got {w} {h}")
    capacity = w * h * BLES_PER_CELL * 4  # 2 LUTs + 2 FFs per BLE
    if cfg.n_instances > capacity:
        raise ValueError(
            f"infeasible config: {cfg.n_instances} instances exceed layout capacity {capacity}"
        )
    return w, h


class _Skeleton:
    """All seed-dependent draws that do not depend on the hotspot intensity."""

    def __init__(self, cfg: GenConfig):
        w, h = _validate(cfg)
        self.w, self.h = w, h
        n = cfg.n_instances
        rng = np.random.default_rng([cfg.seed, 0])
        n_lut = int(round(n * cfg.lut_ff_mix))
        lut_sizes = rng.choice(5, size=n_lut, p=np.array(_LUT_SIZE_WEIGHTS))
        pad = len(str(max(n - 1, 1)))
        names = [f"l{idx:0{pad}d}" for idx in range(n_lut)]
        names += [f"f{idx:0{pad}d}" for idx in range(n - n_lut)]
        types = [LUT_TYPES[s] for s in lut_sizes] + ["FF"] * (n - n_lut)
        order = sorted(range(n), key=lambda i: names[i])
        self.names = [names[i] for i in order]
        self.types = [types[i] for i in order]
        # hotspot_count is a maximum: a hotspot only produces overflow once
        # a few hundred instances land in one 3x3 neighborhood, so small
        # designs get fewer, denser hotspots
        count = min(cfg.hotspot_count, max(1, n // 350))
        self.centers = np.column_stack(
            [rng.uniform(0.5, w - 0.5, size=max(count, 1)), rng.uniform(0.5, h - 0.5, size=max(count, 1))]
        )
        self.uniform_pos = np.column_stack(
            [rng.uniform(0.0, w, size=n), rng.uniform(0.0, h, size=n)]
        )
        sigma = min(0.8, max(0.35, 0.8 * math.sqrt(n / 5000.0)))
        which = rng.integers(0, max(count, 1), size=n)
        offsets = rng.normal(0.0, sigma, size=(n, 2))
        if count == 0:
            self.hotspot_pos = self.uniform_pos.copy()
        else:
            self.hotspot_pos = self.centers[which] + offsets
        self.hot_priority = rng.random(n)

    def positions(self, intensity: float) -> np.ndarray:
        pos = np.where(
            (self.hot_priority < intensity)[:, None], self.hotspot_pos, self.uniform_pos
        )
        eps = 1e-6
        pos[:, 0] = np.clip(pos[:, 0], 0.0, self.w - eps)
        pos[:, 1] = np.clip(pos[:, 1], 0.0, self.h - eps)
        return pos


def _rows(near: np.ndarray) -> list[list[int]]:
    """Per-query neighbor lists from a -1 padded GridIndex.nearest result."""
    return [[j for j in row if j >= 0] for row in near.tolist()]


def _build_nets(names, types, xy, cfg: GenConfig) -> list[Net]:
    rng = np.random.default_rng([cfg.seed, 1])
    n = len(names)
    lut_ids = np.array([i for i, t in enumerate(types) if t != "FF"], dtype=np.int64)
    ff_ids = np.array([i for i, t in enumerate(types) if t == "FF"], dtype=np.int64)
    out_pin = {i: ("q" if types[i] == "FF" else "o") for i in range(n)}

    sinks: dict[int, list[tuple[str, str]]] = {}  # driver id -> sink pins

    def attach(driver: int, inst: int, pin: str):
        sinks.setdefault(driver, []).append((names[inst], pin))

    # clock / set-reset groups
    ck_group = {int(f): int(g) for f, g in zip(ff_ids, rng.integers(0, _CLOCK_COUNT, len(ff_ids)))}
    sr_flags = rng.random(len(ff_ids)) < _SR_FRACTION
    sr_members = [int(f) for f, s in zip(ff_ids, sr_flags) if s]

    # LUT -> FF data connections (feeds the correlation rule)
    cell = radius_cell(_NEAR_RADIUS)
    ff_near = _rows(GridIndex(xy, cell, lut_ids).nearest(ff_ids, 3, radius=_NEAR_RADIUS))
    for f, near in zip(ff_ids.tolist(), ff_near):
        if rng.random() < cfg.ff_driven_frac:
            if near:
                attach(near[rng.integers(len(near))], f, "d")

    # random fan-in for LUT inputs from nearby outputs
    lut_near = _rows(GridIndex(xy, cell).nearest(lut_ids, 6, radius=_NEAR_RADIUS))
    for l, near in zip(lut_ids.tolist(), lut_near):
        for k in range(lut_width(types[l])):
            if rng.random() < _LUT_INPUT_CONNECT_PROB:
                if near:
                    attach(near[rng.integers(len(near))], l, f"i{k}")

    # every instance must share at least one net so the netlist has no orphans
    name_to_id = {nm: i for i, nm in enumerate(names)}
    connected = set(sinks)
    for pins in sinks.values():
        connected.update(name_to_id[nm] for nm, _pin in pins)
    ck_counts: dict[int, int] = {}
    for g in ck_group.values():
        ck_counts[g] = ck_counts.get(g, 0) + 1
    connected.update(f for f, g in ck_group.items() if ck_counts[g] >= 2)
    if len(sr_members) >= 2:
        connected.update(sr_members)
    all_ids = np.arange(n, dtype=np.int64)
    for i in range(n):
        if i in connected:
            continue
        drv = int(by_distance(xy, i, all_ids[all_ids != i])[0])
        attach(drv, i, "d" if types[i] == "FF" else "i0")
        connected.add(i)
        connected.add(drv)

    nets = []
    for driver in sorted(sinks):
        pins = [(names[driver], out_pin[driver])] + sinks[driver]
        nets.append(Net(f"n{names[driver]}", tuple(pins)))
    for g in sorted(set(ck_group.values())):
        members = sorted(f for f, gg in ck_group.items() if gg == g)
        if ck_counts.get(g, 0) >= 2:
            nets.append(Net(f"ck{g}", tuple((names[f], "ck") for f in members)))
    if len(sr_members) >= 2:
        nets.append(Net("sr0", tuple((names[f], "sr") for f in sorted(sr_members))))
    nets.sort(key=lambda net: net.name)  # canonical order, so write/parse round-trips
    return nets


def _design_at(skel: _Skeleton, cfg: GenConfig, intensity: float) -> PlacementDesign:
    xy = skel.positions(intensity)
    instances = [
        Instance(nm, t, x, y) for nm, t, (x, y) in zip(skel.names, skel.types, xy.tolist())
    ]
    nets = _build_nets(skel.names, skel.types, xy, cfg)
    return PlacementDesign(skel.w, skel.h, instances, nets)


def generate_labeled(cfg: GenConfig) -> tuple[PlacementDesign, LabelSet]:
    """Generate a design plus its oracle labels, bisecting hotspot intensity
    (at most 12 oracle evaluations) toward cfg.target_minority."""
    skel = _Skeleton(cfg)
    evals = 0

    def measure(intensity: float):
        nonlocal evals
        evals += 1
        design = _design_at(skel, cfg, intensity)
        labels = packing_oracle(design)
        return design, labels, labels.minority_fraction

    hi = cfg.hotspot_intensity
    best = measure(hi)
    if hi == 0.0 or best[2] <= cfg.target_minority + _BISECT_TOL:
        return best[0], best[1]
    lo_eval = measure(0.0)
    if lo_eval[2] >= cfg.target_minority - _BISECT_TOL:
        return lo_eval[0], lo_eval[1]
    lo = 0.0
    if abs(lo_eval[2] - cfg.target_minority) < abs(best[2] - cfg.target_minority):
        best = lo_eval
    while evals < _MAX_ORACLE_EVALS:
        mid = (lo + hi) / 2.0
        cur = measure(mid)
        if abs(cur[2] - cfg.target_minority) < abs(best[2] - cfg.target_minority):
            best = cur
        if abs(cur[2] - cfg.target_minority) <= _BISECT_TOL:
            break
        if cur[2] < cfg.target_minority:
            lo = mid
        else:
            hi = mid
    return best[0], best[1]


def generate_design(cfg: GenConfig) -> PlacementDesign:
    return generate_labeled(cfg)[0]


# ---------------------------------------------------------------------------
# packing oracle


class _Ble:
    __slots__ = ("luts", "ffs", "lut_inputs", "ck", "sr")

    def __init__(self):
        self.luts: list[str] = []
        self.ffs: list[str] = []
        self.lut_inputs: frozenset = frozenset()
        self.ck = None
        self.sr = None


def _lut_fits(table: NodeTable, ble: _Ble, i: int) -> bool:
    if len(ble.luts) >= LUTS_PER_BLE:
        return False
    if not ble.luts:
        return True
    return len(ble.lut_inputs | table.lut_inputs[i]) <= MAX_BLE_INPUTS


def _ff_fits(table: NodeTable, ble: _Ble, i: int) -> bool:
    if len(ble.ffs) >= FFS_PER_BLE:
        return False
    if not ble.ffs:
        return True
    return ble.ck == table.ck[i] and ble.sr == table.sr[i]


def _try_place(table: NodeTable, cells, placed_at, cell, i: int) -> bool:
    bles = cells.get(cell)
    if bles is None:
        bles = [_Ble() for _ in range(BLES_PER_CELL)]
        cells[cell] = bles
    order = range(BLES_PER_CELL)
    is_ff = table.is_ff[i]
    if is_ff:
        loc = placed_at.get(int(table.d_driver[i]))  # -1, no driver, is never placed
        if loc is not None and loc[0] == cell:
            order = [loc[1]] + [j for j in range(BLES_PER_CELL) if j != loc[1]]
    for j in order:
        ble = bles[j]
        if is_ff:
            if _ff_fits(table, ble, i):
                ble.ffs.append(table.names[i])
                ble.ck, ble.sr = table.ck[i], table.sr[i]
                placed_at[i] = (cell, j)
                return True
        else:
            if _lut_fits(table, ble, i):
                ble.luts.append(table.names[i])
                ble.lut_inputs = ble.lut_inputs | table.lut_inputs[i]
                placed_at[i] = (cell, j)
                return True
    return False


def _pack_design(design: PlacementDesign):
    """Greedy two-phase legalizer; returns (labels, final cell state).

    Phase 1 first-fits every instance into its own cell in (cell, type,
    name) order; phase 2 retries the leftovers against the 8 surrounding
    cells in the same order. Anything still unplaced is unpacked.
    """
    table = NodeTable(design)
    cx, cy = np.floor(table.xy).astype(np.int64).T
    order = np.lexsort((table.type_index, cy, cx))  # stable: ties stay in id (name) order
    cell_of = list(zip(cx.tolist(), cy.tolist()))
    cells: dict[tuple[int, int], list[_Ble]] = {}
    placed_at: dict[int, tuple[tuple[int, int], int]] = {}
    labels = dict.fromkeys(table.names, 0)
    deferred: list[int] = []
    for i in order.tolist():
        if not _try_place(table, cells, placed_at, cell_of[i], i):
            deferred.append(i)
    w, h = design.layout_w, design.layout_h
    for i in deferred:
        cx, cy = cell_of[i]
        for dx, dy in _NEIGHBOR_OFFSETS:
            nx, ny = cx + dx, cy + dy
            if 0 <= nx < w and 0 <= ny < h and _try_place(table, cells, placed_at, (nx, ny), i):
                break
        else:
            labels[table.names[i]] = 1
    return LabelSet(labels), cells


def packing_oracle(design: PlacementDesign) -> LabelSet:
    """Deterministic rule-based packing labels: 1 = cannot be accommodated
    in its own cell or any of the 8 surrounding cells."""
    return _pack_design(design)[0]
