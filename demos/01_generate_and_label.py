"""Generate a synthetic placed design and label it with the packing oracle.

Walks through the design text format, the imbalance targeting, and what
the rule-based legalizer considers a packing failure.
"""

import tempfile
from collections import Counter
from pathlib import Path

from imlg import GenConfig, generate_labeled, write_design, write_labels

cfg = GenConfig(n_instances=2000, target_minority=0.10, seed=42)
design, labels = generate_labeled(cfg)

print(f"layout: {design.layout_w} x {design.layout_h} slices")
print(f"instances: {len(design.instances)}, nets: {len(design.nets)}")
print("type mix:", dict(Counter(inst.type for inst in design.instances)))
print(f"minority (unpacked) fraction: {labels.minority_fraction:.4f} "
      f"(target was {cfg.target_minority})")

text = write_design(design)
print("\nfirst lines of the design document:")
for line in text.splitlines()[:6]:
    print("   ", line)
print("    ...")

# unpacked elements cluster where the placement overflows slice capacity
per_cell = Counter()
unpacked_cells = Counter()
for inst in design.instances:
    cell = (int(inst.x), int(inst.y))
    per_cell[cell] += 1
    if labels.labels[inst.name] == 1:
        unpacked_cells[cell] += 1

hottest = max(per_cell, key=per_cell.get)
print(f"\nhottest cell {hottest}: {per_cell[hottest]} instances, "
      f"{unpacked_cells.get(hottest, 0)} unpacked")
coolest = min(per_cell, key=per_cell.get)
print(f"a sparse cell {coolest}: {per_cell[coolest]} instances, "
      f"{unpacked_cells.get(coolest, 0)} unpacked")

with tempfile.TemporaryDirectory() as tmp:
    design_path, labels_path = Path(tmp, "demo01.design"), Path(tmp, "demo01.labels")
    design_path.write_text(text)
    labels_path.write_text(write_labels(labels))
    print(f"\nwrote {design_path} and {labels_path} (removed on exit)")
