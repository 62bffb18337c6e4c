"""Turn a placed design into a circuit graph with node features.

Shows the three connection rules at work, how sparse the result is next
to the naive per-net clique expansion, and the structure of the type +
region feature rows.
"""

import tempfile
from pathlib import Path

import numpy as np

from imlg import (
    BuildConfig,
    GenConfig,
    build_graph,
    clique_expansion_count,
    generate_labeled,
    read_graph,
    write_graph,
)
from imlg.graphs import EDGE_RULES

design, labels = generate_labeled(GenConfig(n_instances=2000, seed=42))
graph = build_graph(design, labels, cfg=BuildConfig(L=5.0, edge_cap=16, region_depth=4))

print(f"nodes: {graph.n}, edges: {graph.n_edges}, isolated: {len(graph.isolated)}")
_i, _j, codes = graph.upper_edges()
print("edges by rule:", dict(zip(EDGE_RULES, np.bincount(codes, minlength=3).tolist())))
print(f"clique expansion of the same netlist: {clique_expansion_count(design)} edges")

degrees = graph.adj.deg
print(f"degree: min {degrees.min()}, median {int(np.median(degrees))}, max {degrees.max()}")

d = graph.features.shape[1]
print(f"\nfeature rows are {d}-dimensional: 6 type bits + 4 bits per region level")
row = graph.features[0]
print(f"node '{graph.names[0]}': type one-hot {row[:6].astype(int).tolist()}")
print(f"                 region code    {row[6:].astype(int).tolist()}")
print("every row has region_depth + 1 ones:",
      bool((graph.features.sum(axis=1) == 5).all()))

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp, "demo02.graph")
    path.write_text(write_graph(graph))
    text = path.read_text()
    back = read_graph(text)
    print(f"\ngraph file round-trips: {write_graph(back) == text} "
          f"({len(text.splitlines())} lines, {path}, removed on exit)")
