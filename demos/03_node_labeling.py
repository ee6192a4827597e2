"""
Structural node labels
======================

Records start from a per-node one-hot label describing each subgraph
node's position relative to the candidate link, optionally followed by
the node's raw features.
"""
import numpy as np

from difflink import (LabelScheme, build_graph, drnl_labels, hop_subgraphs,
                      label_dim_for, node_labels, zero_one_labels)

# a 5-path: 0 - 1 - 2 - 3 - 4, candidate link (1, 3)
graph = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
[sub] = hop_subgraphs(graph, [1], [3], h=2)
print("subgraph nodes:", sub.global_ids.tolist())

# zero-one: targets get 1, everyone else 0
print("zero-one:", zero_one_labels(sub).tolist())

# double-radius: distances to both targets, each measured with the other
# target blocked, folded into a single integer
print("double-radius:", drnl_labels(sub).tolist())

# a record row starts with the label one-hot, in a width fixed by the
# scheme; with no node features a constant ones column follows, so
# diffusion still counts walks
labels = node_labels(sub, LabelScheme.ZERO_ONE)
onehot = np.eye(label_dim_for(LabelScheme.ZERO_ONE, label_cap=100))[labels]
print("row layout (one-hot label | ones):")
print(np.hstack([onehot, np.ones((sub.num_nodes, 1))]))

# a leaf whose only route to one target runs through the other is
# unreachable under the double-radius masking and keeps label 0
star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
[sub2] = hop_subgraphs(star, [0], [1], h=1)
print("star nodes:", sub2.global_ids.tolist(),
      "labels:", drnl_labels(sub2).tolist())
