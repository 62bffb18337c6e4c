import numpy as np
import pytest

from imlg.design import INSTANCE_TYPES, Instance, PlacementDesign
from imlg.features import build_feature_matrix, encode_region, encode_type, feature_dim
from imlg.graphs import BuildConfig


def test_type_one_hot_fixed_order():
    assert encode_type("LUT2").tolist() == [1, 0, 0, 0, 0, 0]
    assert encode_type("LUT4").tolist() == [0, 0, 1, 0, 0, 0]
    assert encode_type("FF").tolist() == [0, 0, 0, 0, 0, 1]


def test_region_code_16x16_depth2():
    code = encode_region(3, 3, 16, 16, 2)
    assert code.tolist() == [1, 0, 0, 0, 1, 0, 0, 0]


def test_nearby_points_share_code():
    a = encode_region(3.0, 3.0, 16, 16, 2)
    b = encode_region(3.9, 3.9, 16, 16, 2)
    assert np.array_equal(a, b)


def test_split_line_goes_to_lower_quadrant():
    # x = y = 8 sits exactly on the depth-1 split of a 16x16 layout
    assert encode_region(8, 8, 16, 16, 1).tolist() == [1, 0, 0, 0]
    assert encode_region(8.0001, 8, 16, 16, 1).tolist() == [0, 1, 0, 0]
    assert encode_region(8, 8.0001, 16, 16, 1).tolist() == [0, 0, 1, 0]


def test_out_of_extent_rejected():
    with pytest.raises(ValueError, match="outside layout"):
        encode_region(17, 3, 16, 16, 2)


def test_row_structure():
    design = PlacementDesign(
        4, 4, [Instance("a", "LUT3", 0.5, 0.5), Instance("b", "FF", 3.5, 3.5)], []
    )
    rows = build_feature_matrix(design, 1)
    assert rows.shape == (2, 10)
    assert (rows.sum(axis=1) == 2).all()  # one 1 per one-hot block


def test_every_row_has_depth_plus_one_ones():
    rng = np.random.default_rng(0)
    insts = [
        Instance(f"i{k}", INSTANCE_TYPES[rng.integers(6)], float(rng.uniform(0, 9)), float(rng.uniform(0, 7)))
        for k in range(50)
    ]
    design = PlacementDesign(9, 7, insts, [])
    for depth in (1, 3, 4):
        rows = build_feature_matrix(design, depth)
        assert rows.shape[1] == feature_dim(depth) == 6 + 4 * depth
        assert (rows.sum(axis=1) == depth + 1).all()
        assert ((rows == 0) | (rows == 1)).all()


def test_same_type_same_deep_cell_identical_rows():
    design = PlacementDesign(
        16, 16, [Instance("a", "FF", 3.0, 3.0), Instance("b", "FF", 3.9, 3.9)], []
    )
    rows = build_feature_matrix(design, 2)
    assert np.array_equal(rows[0], rows[1])


def test_prefix_locality_by_level():
    # same level-1 cell but different level-2 cell: first 4 region entries match
    a = encode_region(1.0, 1.0, 16, 16, 3)
    b = encode_region(7.0, 7.0, 16, 16, 3)
    assert np.array_equal(a[:4], b[:4])
    assert not np.array_equal(a[4:8], b[4:8])


def test_dimension_changes_by_four_per_level():
    assert feature_dim(4) - feature_dim(3) == 4


def test_non_power_of_two_layout_total():
    # splits at extent/2 in real coordinates keep the map total
    code = encode_region(2.49, 4.99, 5, 10, 3)
    assert code.sum() == 3


def test_bad_depth_rejected():
    with pytest.raises(ValueError, match="region_depth must be >= 1"):
        BuildConfig(region_depth=0)
