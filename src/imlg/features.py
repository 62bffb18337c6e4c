"""Per-node features: 6-way type one-hot plus a hierarchical region code.

The region code recursively splits the layout 2x2; at every level the
quadrant holding the instance is one-hot encoded in (SW, SE, NW, NE)
order and becomes the region for the next level. Nearby instances share
code prefixes, and the feature dimension is 6 + 4 * depth.
"""

from __future__ import annotations

import numpy as np

from .design import INSTANCE_TYPES, TYPE_INDEX, PlacementDesign


def feature_dim(region_depth: int) -> int:
    return 6 + 4 * region_depth


def encode_type(type_tag: str) -> np.ndarray:
    """One-hot over (LUT2, LUT3, LUT4, LUT5, LUT6, FF)."""
    vec = np.zeros(len(INSTANCE_TYPES))
    vec[TYPE_INDEX[type_tag]] = 1.0
    return vec


def encode_region(x: float, y: float, layout_w: float, layout_h: float, depth: int) -> np.ndarray:
    """Quadrant one-hot per level, concatenated over `depth` levels.

    A coordinate exactly on a split line goes to the lower-index (low)
    half, so the map is total over the closed extent.
    """
    if not (0.0 <= x <= layout_w and 0.0 <= y <= layout_h):
        raise ValueError(f"point ({x}, {y}) outside layout {layout_w} x {layout_h}")
    code = np.zeros(4 * depth)
    x0, x1, y0, y1 = 0.0, float(layout_w), 0.0, float(layout_h)
    for level in range(depth):
        mx, my = (x0 + x1) / 2.0, (y0 + y1) / 2.0
        high_x = x > mx
        high_y = y > my
        code[4 * level + int(high_x) + 2 * int(high_y)] = 1.0
        x0, x1 = (mx, x1) if high_x else (x0, mx)
        y0, y1 = (my, y1) if high_y else (y0, my)
    return code


def build_feature_matrix(design: PlacementDesign, depth: int) -> np.ndarray:
    """Feature rows in graph node order (instances sorted by name), with
    `depth` region levels."""
    rows = np.zeros((len(design.instances), feature_dim(depth)))
    for i, inst in enumerate(sorted(design.instances, key=lambda s: s.name)):
        rows[i, :6] = encode_type(inst.type)
        rows[i, 6:] = encode_region(inst.x, inst.y, design.layout_w, design.layout_h, depth)
    return rows
