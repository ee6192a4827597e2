"""
Sampling the neighborhood of a candidate link
=============================================

Three ways to pick the nodes a link's record is computed from: the full
h-hop neighborhood, an endpoint's ball in the graph without the link (as
SoP sums it), and the union of short random walks.
"""
import numpy as np

from difflink import build_graph, hop_subgraphs, walk_subgraphs
from difflink.sampling import hop_distances

# two hubs joined by a bridge, plus a path hanging off one side
edges = [(0, 1), (0, 2), (0, 3), (1, 2), (4, 5), (4, 6), (5, 6),
         (3, 4), (6, 7), (7, 8), (8, 9)]
graph = build_graph(10, edges)

# the samplers take a chunk of links and return block-diagonal unions of
# their subgraphs; one link is a chunk of one, with one block
u, v = 3, 4
[sub] = hop_subgraphs(graph, [u], [v], h=1)
print("1-hop around the bridge:", sub.global_ids.tolist())
print("edges inside it:", sub.num_edges)

# the candidate link itself is never part of the extracted subgraph
# (``targets`` holds the local positions of u and v; nodes are listed by
# global id), so the subgraph looks the same whether or not the link is known
[(iu, iv)] = sub.targets
print("u and v sit at local positions", iu, "and", iv)
assert sub.adjacency().toarray()[iu, iv] == 0
[sub2] = hop_subgraphs(graph, [u], [v], h=2)
print("2-hop grows to:", sub2.global_ids.tolist())

# SoP's operator 2 at u sums the nodes within two hops of u in G - (u, v),
# v left out: the link is gone before anything is reached
without_link = build_graph(10, [e for e in edges if set(e) != {u, v}])
dist = hop_distances(without_link.indptr, without_link.indices, [u], max_depth=2)
print("SoP's 2-hop ball of u in G - (u, v):",
      [w for w in np.flatnonzero(dist > 0).tolist() if w != v])

# walk sampling: k walks of length l from each endpoint, at most
# 2*k*l + 2 distinct nodes, reproducible from the seed
[walk] = walk_subgraphs(graph, [u], [v], k=2, l=3, seeds=[11])
print("walk-sampled nodes:", walk.global_ids.tolist(),
      f"(bound {2 * 2 * 3 + 2})")
[same] = walk_subgraphs(graph, [u], [v], k=2, l=3, seeds=[11])
assert np.array_equal(walk.global_ids, same.global_ids)
print("same seed, same subgraph: True")

# a chunk of links is sampled in one call: each link gets its own block,
# with its own (u, v) edge removed
[both] = hop_subgraphs(graph, [u, 6], [v, 7], h=1)
print("two links, blocks start at:", both.starts.tolist())
