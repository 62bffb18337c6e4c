"""Partition a circuit graph into balanced clusters for mini-batching.

Compares the multilevel partitioner's cut against random balanced
assignments and counts the edges each cluster keeps as its mini-batch.
"""

import numpy as np

from imlg import GenConfig, build_graph, generate_labeled, partition_graph
from imlg.partition import cut_size

design, labels = generate_labeled(GenConfig(n_instances=3000, seed=7))
graph = build_graph(design, labels)
part = partition_graph(graph, target_size=600, seed=0)

sizes = np.bincount(part.assignment, minlength=part.k)
print(f"{graph.n} nodes, {graph.n_edges} edges -> {part.k} clusters")
print(f"cluster sizes: {sizes.tolist()} (target 600, bounds [300, 900])")
print(f"cut: {part.cut} cross-cluster edges "
      f"({part.cut / graph.n_edges:.1%} of all edges)")

rng = np.random.default_rng(0)
random_cuts = []
for _ in range(20):
    perm = rng.permutation(graph.n)
    rand = np.zeros(graph.n, dtype=np.int64)
    for c in range(part.k):
        rand[perm[c::part.k]] = c
    random_cuts.append(cut_size(graph.adj, rand))
print(f"random balanced partitions cut {int(np.median(random_cuts))} edges (median of 20)")

# a batch is the subgraph induced by one cluster: cross-cluster edges drop out
home = part.assignment[graph.adj.rows]
inside = home == part.assignment[graph.adj.indices]
kept = np.bincount(home[inside], minlength=part.k) // 2
print(f"\nedges kept inside each cluster's batch: {kept.tolist()} "
      f"(sum {kept.sum()} = {graph.n_edges} - cut)")
