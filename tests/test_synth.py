import hashlib

import numpy as np
import pytest

from imlg.design import (
    Instance,
    Net,
    NodeTable,
    PlacementDesign,
    parse_design,
    write_design,
    write_labels,
)
from imlg.synth import (
    GenConfig,
    _ff_fits,
    _lut_fits,
    _pack_design,
    generate_design,
    generate_labeled,
    packing_oracle,
)

CELL = 0.5  # offset placing an instance mid-cell


def _design(layout, instances, nets=()):
    d = PlacementDesign(layout, layout, list(instances), list(nets))
    parse_design(write_design(d))  # raises DesignError unless d is a valid design
    return d


# ---------------------------------------------------------------------------
# generator


def test_generation_is_deterministic():
    cfg = GenConfig(n_instances=100, seed=1)
    d1, l1 = generate_labeled(cfg)
    d2, l2 = generate_labeled(cfg)
    assert write_design(d1) == write_design(d2)
    assert write_labels(l1) == write_labels(l2)


def test_different_seeds_differ():
    a = generate_design(GenConfig(n_instances=100, seed=1))
    b = generate_design(GenConfig(n_instances=100, seed=2))
    assert write_design(a) != write_design(b)


def test_generated_designs_validate():
    for seed in range(5):
        d = generate_design(GenConfig(n_instances=150, seed=seed))
        parse_design(write_design(d))


def test_infeasible_config_rejected():
    with pytest.raises(ValueError, match="infeasible"):
        generate_design(GenConfig(n_instances=200, layout_w=2, layout_h=2, seed=0))


def test_bad_configs_rejected():
    with pytest.raises(ValueError, match="n_instances"):
        generate_design(GenConfig(n_instances=5, seed=0))
    with pytest.raises(ValueError, match="target_minority"):
        generate_design(GenConfig(n_instances=100, target_minority=0.6, seed=0))


def _cell_density_variance(design):
    counts = {}
    for inst in design.instances:
        key = (int(inst.x), int(inst.y))
        counts[key] = counts.get(key, 0) + 1
    per_cell = np.zeros(design.layout_w * design.layout_h)
    per_cell[: len(counts)] = sorted(counts.values())
    return float(np.var(per_cell))


def test_zero_intensity_is_flatter_than_any_hotspot_run():
    # target ~0.49 pushes the bisection to the intensity cap, so the cap is
    # what actually gets used
    def median_var(intensity):
        out = []
        for seed in range(20):
            cfg = GenConfig(
                n_instances=400, seed=seed, hotspot_intensity=intensity, target_minority=0.49
            )
            out.append(_cell_density_variance(generate_design(cfg)))
        return float(np.median(out))

    flat = median_var(0.0)
    for intensity in (0.5, 1.0):
        assert flat < median_var(intensity)


# sha256 of write_design + write_labels, recorded before neighbor queries
# moved to imlg.spatial: the generator's output must not change with it
GOLDEN_DESIGN_DIGESTS = {
    (300, 5): "f64555b041d4413e8b0fba331ca616be0aea8b60c9dfa8e5d85ab7b61ba46084",
    (600, 199): "ecebda11952de6476d25afba7315e914754193ba4906750344752be9b4d53ff6",
    (1250, 100): "92b116fdd58e81ecb326cd67d6e9c5699f58bf3dab3baca3311040c48ca205e9",
    (1250, 103): "3361b23094f39df2580815a04998659e178367f126d27a4deb950a682eb4b570",
    (2500, 100): "4886fbbbddd054f20322625cd9a30cebd8fb62bdb77e10232d2d290e9f7f310b",
}


@pytest.mark.parametrize("n,seed", sorted(GOLDEN_DESIGN_DIGESTS))
def test_generated_bytes_match_golden_digest(n, seed):
    design, labels = generate_labeled(GenConfig(n_instances=n, seed=seed))
    text = write_design(design) + write_labels(labels)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DESIGN_DIGESTS[(n, seed)]


def test_minority_targeting_at_scale():
    _d, labels = generate_labeled(GenConfig(n_instances=5000, target_minority=0.10, seed=7))
    assert abs(labels.minority_fraction - 0.10) <= 0.03


# ---------------------------------------------------------------------------
# packing oracle fixtures


def test_single_lut_is_packed():
    d = _design(3, [Instance("a", "LUT6", 1.5, 1.5)])
    assert packing_oracle(d).labels == {"a": 0}


def _disjoint_lut6_cluster(prefix, count, cx, cy, freshness):
    """`count` LUT6s mid-cell (cx, cy), each with 6 fresh single-sink nets.

    Drivers live two rings out so they never interact with the cluster.
    Returns (instances, nets, names).
    """
    far_cells = [
        (x, y)
        for x in range(5)
        for y in range(5)
        if max(abs(x - cx), abs(y - cy)) >= 2
    ]
    instances, nets, names = [], [], []
    for i in range(count):
        name = f"{prefix}{i:02d}"
        names.append(name)
        instances.append(Instance(name, "LUT6", cx + CELL, cy + CELL))
        for k in range(6):
            j = freshness[0]
            freshness[0] += 1
            fx, fy = far_cells[j % len(far_cells)]
            drv = f"zd{j:03d}"
            instances.append(Instance(drv, "LUT2", fx + CELL + (j // len(far_cells)) * 0.001, fy + CELL))
            nets.append(Net(f"zn{j:03d}", ((drv, "o"), (name, f"i{k}"))))
    return instances, nets, names


def _full_lut_cell(prefix, cx, cy):
    """16 input-free LUT2s: they pair freely and fill all 8 BLEs."""
    return [Instance(f"{prefix}{i:02d}", "LUT2", cx + CELL, cy + CELL) for i in range(16)]


def test_seventeen_disjoint_lut6s_spill_but_fit():
    fresh = [0]
    instances, nets, names = _disjoint_lut6_cluster("c", 17, 2, 2, fresh)
    labels = packing_oracle(_design(5, instances, nets))
    assert all(labels.labels[nm] == 0 for nm in names)
    assert labels.minority_fraction == 0.0


def test_seventeen_disjoint_lut6s_with_full_ring():
    fresh = [0]
    instances, nets, names = _disjoint_lut6_cluster("c", 17, 2, 2, fresh)
    ring = [(x, y) for x in (1, 2, 3) for y in (1, 2, 3) if (x, y) != (2, 2)]
    for r, (x, y) in enumerate(ring):
        instances += _full_lut_cell(f"r{r}", x, y)
    labels = packing_oracle(_design(5, instances, nets))
    unpacked = {nm for nm, v in labels.labels.items() if v == 1}
    assert len(unpacked) == 9
    assert unpacked <= set(names)


def _ff(name, x, y):
    return Instance(name, "FF", x + CELL, y + CELL)


def _ff_fixture(center_clocks):
    """Center cell FFs with the given clock ids; ring cells FF-full; each
    clock net is padded with a far partner FF so every net has >= 2 pins."""
    instances, nets = [], []
    names = []
    for i, clk in enumerate(center_clocks):
        nm = f"b{i:02d}" if i < 8 else f"x{i:02d}"
        names.append(nm)
        instances.append(_ff(nm, 2, 2))
    far_cells = [(x, y) for x in range(5) for y in range(5) if max(abs(x - 2), abs(y - 2)) >= 2]
    for clk in sorted(set(center_clocks)):
        partner = f"zp{clk:02d}"
        fx, fy = far_cells[clk % len(far_cells)]
        instances.append(_ff(partner, fx, fy))
        members = [nm for nm, c in zip(names, center_clocks) if c == clk] + [partner]
        nets.append(Net(f"ck{clk:02d}", tuple((m, "ck") for m in members)))
    ring = [(x, y) for x in (1, 2, 3) for y in (1, 2, 3) if (x, y) != (2, 2)]
    for r, (x, y) in enumerate(ring):
        cell_ffs = [f"q{r}{i:02d}" for i in range(16)]
        instances += [_ff(nm, x, y) for nm in cell_ffs]
        nets.append(Net(f"rc{r}", tuple((nm, "ck") for nm in cell_ffs)))
    return _design(5, instances, nets), names


def _max_packable_one_cell(items):
    """Backtracking optimum for one cell: items are ('lut', frozenset) or
    ('ff', (ck, sr)). Symmetry-broken over the 8 interchangeable BLEs."""
    best = [0]
    bles = []  # per BLE: [luts, inputs, ffs, key]

    def fits(ble, item):
        kind, info = item
        if kind == "lut":
            return len(ble[0]) < 2 and (not ble[0] or len(ble[1] | info) <= 6)
        return len(ble[2]) < 2 and (not ble[2] or ble[3] == info)

    def place(ble, item):
        kind, info = item
        if kind == "lut":
            ble[0].append(item)
            old = ble[1]
            ble[1] = ble[1] | info
            return ("lut", old)
        ble[2].append(item)
        old = ble[3]
        ble[3] = info
        return ("ff", old)

    def unplace(ble, undo):
        kind, old = undo
        if kind == "lut":
            ble[0].pop()
            ble[1] = old
        else:
            ble[2].pop()
            ble[3] = old

    def dfs(i, placed):
        best[0] = max(best[0], placed)
        if i == len(items) or placed + (len(items) - i) <= best[0]:
            return
        item = items[i]
        opened = False
        for ble in bles:
            if not ble[0] and not ble[2]:
                if opened:
                    continue  # all empty BLEs are interchangeable
                opened = True
            if fits(ble, item):
                undo = place(ble, item)
                dfs(i + 1, placed + 1)
                unplace(ble, undo)
        dfs(i + 1, placed)  # leave item unplaced

    for _ in range(8):
        bles.append([[], frozenset(), [], None])
    dfs(0, 0)
    return best[0]


def test_ff_pairing_blocked_matches_bruteforce():
    design, names = _ff_fixture(list(range(10)))  # 10 distinct clocks
    labels = packing_oracle(design)
    unpacked = [nm for nm in names if labels.labels[nm] == 1]
    items = [("ff", (f"ck{c:02d}", None)) for c in range(10)]
    assert len(unpacked) == len(names) - _max_packable_one_cell(items) == 2


def test_ff_pairing_allowed_matches_bruteforce():
    design, names = _ff_fixture([0] * 10)  # one shared clock
    labels = packing_oracle(design)
    unpacked = [nm for nm in names if labels.labels[nm] == 1]
    items = [("ff", ("ck00", None)) for _ in range(10)]
    assert _max_packable_one_cell(items) == 10
    assert unpacked == []


def test_ff_prefers_driving_lut_ble():
    # l0 and l1 are incompatible sixes, so they occupy BLE 0 and BLE 1;
    # f0 is driven by l1 and must land beside it
    fresh = [0]
    instances, nets, _names = _disjoint_lut6_cluster("l", 2, 2, 2, fresh)
    instances.append(_ff("f0", 2, 2))
    nets.append(Net("dnet", (("l01", "o"), ("f0", "d"))))
    design = _design(5, instances, nets)
    _labels, cells = _pack_design(design)
    assert cells[(2, 2)][1].luts == ["l01"]
    assert cells[(2, 2)][1].ffs == ["f0"]
    assert cells[(2, 2)][0].ffs == []


def test_sr_mismatch_blocks_pairing():
    instances = [_ff("a", 2, 2), _ff("b", 2, 2), _ff("zz", 4, 4)]
    nets = [
        Net("ck", (("a", "ck"), ("b", "ck"), ("zz", "ck"))),
        Net("sr", (("a", "sr"), ("zz", "sr"))),
    ]
    design = _design(5, instances, nets)
    _labels, cells = _pack_design(design)
    # same ck but a has an sr net and b does not: they must not share
    assert all(len(ble.ffs) <= 1 for ble in cells[(2, 2)])


def test_monotonicity_adding_instances_never_unpacks():
    # adding LUT6s with fresh disjoint inputs can consume capacity but can
    # never create a legal slot for anything else
    for seed in (0, 1, 2):
        design, labels = generate_labeled(GenConfig(n_instances=1200, seed=seed))
        unpacked = [nm for nm, v in labels.labels.items() if v == 1]
        if not unpacked:
            continue
        target = {inst.name: inst for inst in design.instances}[unpacked[0]]
        extra_inst, extra_nets = [], []
        far = design.layout_w - 0.5
        for i in range(5):
            nm = f"zzadd{i}"
            extra_inst.append(Instance(nm, "LUT6", int(target.x) + CELL, int(target.y) + CELL))
            for k in range(6):
                drv = f"zzdrv{i}{k}"
                extra_inst.append(Instance(drv, "LUT2", far, far))
                extra_nets.append(Net(f"zznet{i}{k}", ((drv, "o"), (nm, f"i{k}"))))
        grown = PlacementDesign(
            design.layout_w,
            design.layout_h,
            design.instances + extra_inst,
            design.nets + extra_nets,
        )
        new_labels = packing_oracle(grown)
        for nm in unpacked:
            assert new_labels.labels[nm] == 1


def test_label_locality_unpacked_neighborhood_is_saturated():
    design, labels = generate_labeled(GenConfig(n_instances=1500, seed=4))
    _labels2, cells = _pack_design(design)
    table = NodeTable(design)
    unpacked = [table.name_to_id[nm] for nm, v in labels.labels.items() if v == 1]
    assert unpacked, "fixture needs at least one unpacked instance"
    for i in unpacked:
        cx, cy = np.floor(table.xy[i]).astype(int).tolist()
        for x in range(cx - 1, cx + 2):
            for y in range(cy - 1, cy + 2):
                if not (0 <= x < design.layout_w and 0 <= y < design.layout_h):
                    continue
                for ble in cells.get((x, y), []):
                    if table.is_ff[i]:
                        assert not _ff_fits(table, ble, i)
                    else:
                        assert not _lut_fits(table, ble, i)
