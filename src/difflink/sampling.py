"""Link subgraph extraction: hop neighborhoods and random walks.

Extraction works a chunk of links at a time. The node sets of all links
are found at once (h-hop reach as sorted ``link * num_nodes + node``
keys, grown a hop at a time, or each link's seeded random walks), and the
induced subgraphs are laid out as one disjoint-union (block-diagonal) CSR
graph, a ``Subgraph`` with one block per link. Every block has its target
edge (u, v) removed, so positive and negative links are structurally
indistinguishable to downstream stages. A block lists its nodes by global
id, as the keys do, and ``Subgraph.targets`` holds where u and v sit; a
one-link call is a chunk of one. ``hop_distances`` is the neighborhood
primitive for labeling: a multi-source frontier expansion over a CSR
neighbor gather.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import (Graph, _check_integer, _entries, _link_arrays, _neighbor_keys,
                     _row_offsets, _unique)

UNREACHABLE = -1


@dataclass(frozen=True, eq=False)
class Subgraph:
    """Link subgraphs as one disjoint-union graph in local CSR form.

    Block b holds the union nodes ``starts[b]:starts[b + 1]``, by ascending
    global id, and ``targets[b]`` are the union positions of its link
    endpoints u and v. ``global_ids[i]`` maps union node i back to the
    parent graph. Rows of ``indices`` are sorted, no edge leaves its block
    and no block holds its (u, v) edge. A one-link subgraph has
    ``starts == [0, num_nodes]``.
    """

    global_ids: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    starts: np.ndarray
    targets: np.ndarray

    @property
    def num_nodes(self) -> int:
        return self.global_ids.shape[0]

    @property
    def num_edges(self) -> int:
        return self.indices.shape[0] // 2

    def locate(self, blocks, nodes) -> np.ndarray:
        """Union position of global node ``nodes[i]`` in block ``blocks[i]``,
        or -1 where that block does not hold it."""
        nodes = np.asarray(nodes, dtype=np.int64)
        if self.num_nodes == 0:
            return np.full(nodes.shape[0], -1, dtype=np.int64)
        span = int(max(self.global_ids.max(), nodes.max(initial=0))) + 1
        block = np.repeat(np.arange(self.starts.shape[0] - 1), np.diff(self.starts))
        # ascending: blocks in turn, each by global id
        keys = block * span + self.global_ids
        want = np.asarray(blocks, dtype=np.int64) * span + nodes
        pos = np.minimum(np.searchsorted(keys, want), self.num_nodes - 1)
        return np.where((keys[pos] == want) & (nodes >= 0), pos, -1)

    # the union's block-diagonal adjacency matrix, as for a Graph
    adjacency = Graph.adjacency


def hop_distances(indptr: np.ndarray, indices: np.ndarray, sources,
                  max_depth: int | None = None,
                  blocked=None) -> np.ndarray:
    """Hop distance from the nearest of ``sources`` for every node of a CSR graph.

    UNREACHABLE (-1) where no source is within ``max_depth`` hops (no limit
    when None). ``blocked`` (one node id or an array of them) removes those
    nodes entirely: they are never reached and never expanded, even when
    they are sources.
    """
    dist = np.full(indptr.shape[0] - 1, UNREACHABLE, dtype=np.int32)
    frontier = _unique(np.asarray(sources, dtype=np.int64).reshape(-1))
    if blocked is not None:
        blocked = np.asarray(blocked, dtype=np.int64)
        dist[blocked] = 0  # counts as visited until the end
        frontier = frontier[dist[frontier] == UNREACHABLE]
    dist[frontier] = 0
    depth = 0
    while frontier.shape[0] and (max_depth is None or depth < max_depth):
        depth += 1
        reached = indices[_entries(indptr, frontier)[1]]
        frontier = _unique(reached[dist[reached] == UNREACHABLE])
        dist[frontier] = depth
    if blocked is not None:
        dist[blocked] = UNREACHABLE
    return dist


def _block_positions(graph: Graph, ids: np.ndarray, starts: np.ndarray,
                     table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each gathered neighbor of ``ids`` sits in its own block.

    Block b holds the nodes ``ids[starts[b]:starts[b + 1]]``. Returns each
    node's neighbor count and, per neighbor entry in gather order, the
    neighbor's position in ``ids`` when the node's block holds it, else -1.
    ``table`` is an all -1 int32 array over the graph's nodes. Block by
    block, it takes the block's positions, answers "is this neighbor in
    my block, and where?" in O(1) per entry, and is cleared again, so it
    is all -1 on return.
    """
    counts, at = _entries(graph.indptr, ids)
    entry_starts = np.zeros(ids.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=entry_starts[1:])
    nbr = graph.indices[at]
    position = np.arange(ids.shape[0], dtype=np.int32)
    dst = np.empty(nbr.shape[0], dtype=np.int32)
    node_at, entry_at = starts.tolist(), entry_starts[starts].tolist()
    for lo, hi, e_lo, e_hi in zip(node_at, node_at[1:], entry_at, entry_at[1:]):
        table[ids[lo:hi]] = position[lo:hi]
        dst[e_lo:e_hi] = table[nbr[e_lo:e_hi]]
        table[ids[lo:hi]] = -1
    return counts, dst


def _link_blocks(graph: Graph, u: np.ndarray, v: np.ndarray,
                 keys: np.ndarray, table: np.ndarray) -> Subgraph:
    """Union of the subgraphs induced on each link's node set, minus (u, v).

    ``keys`` are the sorted distinct ``b * num_nodes + node`` codes of the
    nodes of every link b, each set holding u[b] and v[b]. ``table`` is
    the all -1 position table of ``_block_positions``. A block lists its
    nodes and each row its neighbors by global id, so rows come out sorted.
    """
    n = graph.num_nodes
    blk, ids = np.divmod(keys, n)
    starts = np.searchsorted(blk, np.arange(u.shape[0] + 1))
    row = np.arange(u.shape[0]) * n
    targets = np.searchsorted(keys, np.stack([row + u, row + v], axis=1))
    counts, dst = _block_positions(graph, ids, starts, table)
    inside = dst >= 0
    src = np.repeat(np.arange(ids.shape[0]), counts)[inside]
    dst = dst[inside]
    # Role 1 is each block's u and role 2 its v. No edge leaves its block,
    # so roles sum to 3 exactly on a block's (u, v) edge.
    role = np.zeros(ids.shape[0], dtype=np.int8)
    role[targets[:, 0]], role[targets[:, 1]] = 1, 2
    keep = role[src] + role[dst] != 3
    return Subgraph(ids, _row_offsets(src[keep], ids.shape[0]), dst[keep],
                    starts, targets)


# Neighbor-list entries one union may gather. A chunk of links on a sparse
# graph fits in one union; where blocks are large (h=2 around hubs) it is
# split into runs of consecutive links, which bounds a union's memory.
UNION_ENTRIES = 1 << 18


def _runs(graph: Graph, ids: np.ndarray, key_starts: np.ndarray) -> np.ndarray:
    """Link bounds of the runs of consecutive links one union takes.

    Link b's nodes are ``ids[key_starts[b]:key_starts[b + 1]]``. A run
    starts wherever the neighbor entries gathered so far cross a multiple
    of UNION_ENTRIES, so a run gathers fewer than UNION_ENTRIES plus one
    link's entries.
    """
    degree = graph.indptr[ids + 1] - graph.indptr[ids]
    before = np.concatenate(([0], np.cumsum(degree)))[key_starts[:-1]]
    return np.concatenate(([0], np.flatnonzero(np.diff(before // UNION_ENTRIES)) + 1,
                           [key_starts.shape[0] - 1]))


def _unions(graph: Graph, u: np.ndarray, v: np.ndarray, keys: np.ndarray):
    """Link subgraphs over ``keys``, one union per run of consecutive links.

    Apart from one position table for the call, the work follows the
    links' node sets, not the graph's size.
    """
    n = graph.num_nodes
    blk, ids = np.divmod(keys, n)
    key_starts = np.searchsorted(blk, np.arange(u.shape[0] + 1))
    bounds = _runs(graph, ids, key_starts)
    table = np.full(n, -1, dtype=np.int32)
    for lo, hi in zip(bounds.tolist(), bounds[1:].tolist()):
        k_lo, k_hi = key_starts[lo], key_starts[hi]
        yield _link_blocks(graph, u[lo:hi], v[lo:hi], keys[k_lo:k_hi] - lo * n,
                           table)


def _reach(graph: Graph, keys: np.ndarray, hops: int, x=None, o=None) -> np.ndarray:
    """Sorted distinct keys ``b * num_nodes + node`` of the nodes within
    ``hops`` hops of row b's nodes in ``keys``, for every row b.

    Given per-row endpoints ``x`` and ``o``, row b takes no step along the
    edge (x[b], o[b]), in either direction: its reach is in G - (x[b], o[b]).
    """
    n = graph.num_nodes
    for _ in range(hops):
        step = _neighbor_keys(graph, keys)
        if x is not None:
            # the key each key may not step to: o from x, x from o, else -1
            row, node = np.divmod(keys, n)
            end = (node == x[row]) | (node == o[row])
            banned = np.where(end, keys - node + x[row] + o[row] - node, -1)
            step = step[step != np.repeat(banned, graph.indptr[node + 1]
                                          - graph.indptr[node])]
        keys = _unique(np.concatenate([keys, step]))
    return keys


def _hop_keys(graph: Graph, u: np.ndarray, v: np.ndarray, h: int) -> np.ndarray:
    """Sorted keys ``b * num_nodes + node`` of the nodes within h hops of
    u[b] or v[b].

    The reach starts from both endpoints at depth 0, so a target edge
    never pulls a node in: the hop limit holds on the graph without it.
    """
    row = np.arange(u.shape[0]) * graph.num_nodes
    return _reach(graph, _unique(np.concatenate([row + u, row + v])), h)


def hop_subgraphs(graph: Graph, u, v, h: int):
    """Enclosing subgraphs of links (u[b], v[b]): nodes within h hops of
    u[b] or v[b], each (u, v) edge removed; one block per link.

    Yields Subgraph unions of consecutive links, in link order; sparse
    graphs give one union for the lot (see UNION_ENTRIES). Links are
    checked before this returns.
    """
    u, v = _link_arrays(graph, u, v)
    _check_integer("h", h, 1)
    return _unions(graph, u, v, _hop_keys(graph, u, v, h))


def _hop_sizes(graph: Graph, u, v, h: int) -> tuple[int, int]:
    """Total nodes and edges of the blocks ``hop_subgraphs`` gives for
    links (u[b], v[b]), counted without building them.

    Nodes are the reach keys. Edges are the neighbor entries that stay
    inside their block, halved, less one for every adjacent (u, v).
    """
    u, v = _link_arrays(graph, u, v)
    blk, ids = np.divmod(_hop_keys(graph, u, v, h), graph.num_nodes)
    key_starts = np.searchsorted(blk, np.arange(u.shape[0] + 1))
    bounds = _runs(graph, ids, key_starts)
    table = np.full(graph.num_nodes, -1, dtype=np.int32)
    inside = 0
    for lo, hi in zip(bounds.tolist(), bounds[1:].tolist()):
        k_lo, k_hi = key_starts[lo], key_starts[hi]
        _, dst = _block_positions(graph, ids[k_lo:k_hi],
                                  key_starts[lo:hi + 1] - k_lo, table)
        inside += int(np.count_nonzero(dst >= 0))
    # u[b] and v[b] are adjacent where v's key is also a key of u's row
    row = np.arange(u.shape[0]) * graph.num_nodes
    keys = np.sort(np.concatenate([_neighbor_keys(graph, row + u), row + v]))
    adjacent = np.count_nonzero(keys[1:] == keys[:-1])
    return ids.shape[0], inside // 2 - int(adjacent)


def _walk_nodes(graph: Graph, u: int, v: int, k: int, l: int,
                seed: int) -> list:
    """Nodes visited by k uniform random walks of length l from each endpoint,
    never stepping along (u, v); a walk at a dead end stops in place."""
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
    return visited


def walk_subgraphs(graph: Graph, u, v, k: int, l: int, seeds):
    """Subgraphs induced on the union of k random walks of length l from
    each endpoint of every link (u[b], v[b]), walk b seeded by ``seeds[b]``;
    one block per link, each (u, v) edge removed.

    Yields Subgraph unions as ``hop_subgraphs`` does. Walks never step
    along their link's (u, v) edge, and a block holds at most 2*k*l + 2
    nodes.
    """
    u, v = _link_arrays(graph, u, v)
    _check_integer("k", k, 1)
    _check_integer("l", l, 1)
    if len(seeds) != u.shape[0]:
        raise ValueError("walk_subgraphs needs one seed per link")
    for seed in seeds:
        _check_integer("seeds", seed, 0)
    keys = [b * graph.num_nodes + np.asarray(
                [u[b], v[b], *_walk_nodes(graph, int(u[b]), int(v[b]), k, l, int(seed))],
                dtype=np.int64)
            for b, seed in enumerate(seeds)]
    keys = _unique(np.concatenate(keys)) if keys else np.zeros(0, dtype=np.int64)
    return _unions(graph, u, v, keys)

