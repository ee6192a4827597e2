"""Per-link subgraph extraction: hop neighborhoods, graph powers, random walks.

All neighborhood work runs on one array primitive, ``hop_distances``: a
multi-source frontier expansion over a CSR neighbor gather. Every extractor
removes the target edge (u, v) from the returned subgraph, so positive and
negative links are structurally indistinguishable to downstream stages.
Node 0 of a subgraph is always u and node 1 is always v; remaining nodes
appear in ascending global id order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graphs import Graph, build_graph

UNREACHABLE = -1


@dataclass(frozen=True, eq=False)
class Subgraph:
    """Induced subgraph around a target link, in local CSR form.

    ``global_ids[i]`` maps local node i back to the parent graph;
    ``global_ids[0]`` and ``global_ids[1]`` are the link endpoints. Rows of
    ``indices`` are sorted and the (0, 1) target edge is absent.
    """

    global_ids: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray

    @property
    def num_nodes(self) -> int:
        return self.global_ids.shape[0]

    @property
    def num_edges(self) -> int:
        return self.indices.shape[0] // 2

    def adjacency(self, dtype=np.float64) -> sp.csr_matrix:
        data = np.ones(self.indices.shape[0], dtype=dtype)
        return sp.csr_matrix(
            (data, self.indices.astype(np.int64), self.indptr),
            shape=(self.num_nodes, self.num_nodes),
        )


def _gather(indptr: np.ndarray, indices: np.ndarray,
            nodes: np.ndarray) -> np.ndarray:
    """Concatenated neighbor lists of ``nodes``, in the order given."""
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    offsets = np.repeat(starts - np.cumsum(counts) + counts, counts)
    return indices[offsets + np.arange(offsets.shape[0])]


def hop_distances(indptr: np.ndarray, indices: np.ndarray, sources,
                  max_depth: int | None = None,
                  blocked: int | None = None) -> np.ndarray:
    """Hop distance from the nearest of ``sources`` for every node of a CSR graph.

    UNREACHABLE (-1) where no source is within ``max_depth`` hops (no limit
    when None). ``blocked`` removes one node entirely: it is never reached
    and never expanded, even when it is a source.
    """
    dist = np.full(indptr.shape[0] - 1, UNREACHABLE, dtype=np.int32)
    frontier = np.unique(np.asarray(sources, dtype=np.int64))
    if blocked is not None:
        frontier = frontier[frontier != blocked]
        dist[blocked] = 0  # counts as visited until the end
    dist[frontier] = 0
    depth = 0
    while frontier.shape[0] and (max_depth is None or depth < max_depth):
        depth += 1
        reached = _gather(indptr, indices, frontier)
        frontier = np.unique(reached[dist[reached] == UNREACHABLE])
        dist[frontier] = depth
    if blocked is not None:
        dist[blocked] = UNREACHABLE
    return dist


def _induced(graph: Graph, u: int, v: int, nodes: np.ndarray) -> Subgraph:
    """Induced subgraph on {u, v} and ``nodes``, minus the (u, v) edge."""
    ids = np.concatenate(([u, v], np.setdiff1d(nodes, (u, v)))).astype(np.int64)
    n_sub = ids.shape[0]
    order = np.argsort(ids)
    sorted_ids = ids[order]
    nb = _gather(graph.indptr, graph.indices, ids)
    src = np.repeat(np.arange(n_sub), graph.indptr[ids + 1] - graph.indptr[ids])
    pos = np.minimum(np.searchsorted(sorted_ids, nb), n_sub - 1)
    inside = sorted_ids[pos] == nb
    src, dst = src[inside], order[pos[inside]]
    # No self-loops, so src + dst == 1 exactly for the local (0, 1) edge.
    keep = src + dst != 1
    src, dst = src[keep], dst[keep]
    rows = np.lexsort((dst, src))
    indptr = np.zeros(n_sub + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n_sub), out=indptr[1:])
    return Subgraph(ids, indptr, dst[rows].astype(np.int32))


def extract_h_hop(graph: Graph, u: int, v: int, h: int) -> Subgraph:
    """Enclosing subgraph: nodes within h hops of u or v, (u, v) edge removed.

    One expansion starts from both endpoints at depth 0, so the (u, v)
    edge never pulls a node in: the hop limit holds on the graph without
    the target edge.
    """
    _check_link(graph, u, v)
    if h < 1:
        raise ValueError("h must be >= 1")
    dist = hop_distances(graph.indptr, graph.indices, (u, v), max_depth=h)
    return _induced(graph, u, v, np.flatnonzero(dist != UNREACHABLE))


def random_walk_subgraph(graph: Graph, u: int, v: int, k: int, l: int,
                         seed: int) -> Subgraph:
    """Union of k uniform random walks of length l from each endpoint.

    The (u, v) edge is removed before walking, so a walk at u never steps
    directly to v and vice versa. Walks from a dead end terminate in place.
    Node count is bounded by 2*k*l + 2.
    """
    _check_link(graph, u, v)
    if k < 1 or l < 1:
        raise ValueError("k and l must be >= 1")
    rng = np.random.default_rng(seed)
    visited = []
    for root in (u, v):
        for _ in range(k):
            x = root
            for _ in range(l):
                nbrs = graph.neighbors(x)
                if x == u:
                    nbrs = nbrs[nbrs != v]
                elif x == v:
                    nbrs = nbrs[nbrs != u]
                if nbrs.shape[0] == 0:
                    break
                x = int(nbrs[rng.integers(nbrs.shape[0])])
                visited.append(x)
    return _induced(graph, u, v, np.asarray(visited, dtype=np.int64))


def graph_power(graph: Graph, i: int) -> Graph:
    """Graph with an edge wherever the geodesic distance in ``graph`` is in [1, i].

    The reach sets are boolean sparse powers of A + I. Power 1 returns an
    identical copy. Features carry over unchanged.
    """
    if i < 1:
        raise ValueError("power must be >= 1")
    if i == 1:
        return Graph(graph.num_nodes, graph.indptr.copy(),
                     graph.indices.copy(), graph.features)
    step = graph.adjacency(bool) + sp.identity(graph.num_nodes, dtype=bool,
                                               format="csr")
    reach = step
    for _ in range(i - 1):
        reach = reach @ step
    reach = reach.tocoo()
    keep = reach.row < reach.col
    edges = np.stack([reach.row[keep], reach.col[keep]], axis=1)
    return build_graph(graph.num_nodes, edges, features=graph.features)


def sop_subgraph(graph: Graph, u: int, v: int, i: int, h: int,
                 power_graph: Graph | None = None) -> Subgraph:
    """h-hop enclosing subgraph of the i-th graph power around (u, v).

    Power 0 means the base graph itself. ``power_graph`` may supply a
    precomputed ``graph_power(graph, i)`` to avoid recomputation.
    """
    if i < 0:
        raise ValueError("power index must be >= 0")
    if i <= 1:
        g = graph
    elif power_graph is not None:
        g = power_graph
    else:
        g = graph_power(graph, i)
    return extract_h_hop(g, u, v, h)


def _check_link(graph: Graph, u: int, v: int) -> None:
    n = graph.num_nodes
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"node id out of range: ({u}, {v})")
    if u == v:
        raise ValueError("target link endpoints must differ")
