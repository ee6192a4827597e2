import networkx as nx
import numpy as np
import pytest

from difflink import (UNREACHABLE, Graph, build_graph, graph_power,
                      hop_subgraphs, walk_subgraphs)
from difflink.sampling import hop_distances

from conftest import gnp_graph, hub_graph, hub_links, random_pair
from oracles import hop_nodes, induced_dense, power_edges, to_nx


def _local_dist(sub, src):
    return hop_distances(sub.indptr, sub.indices, [src]).tolist()


def test_extract_h_hop_path_graph():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    [sub] = hop_subgraphs(g, [1], [3], 1)
    assert sub.global_ids.tolist() == [0, 1, 2, 3, 4]
    assert sub.targets.tolist() == [[1, 3]]
    assert _local_dist(sub, 1) == [1, 0, 1, 2, 3]
    assert _local_dist(sub, 3) == [3, 2, 1, 0, 1]


def test_extract_removes_target_edge():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    [sub] = hop_subgraphs(g, [0], [1], 2)
    a = sub.adjacency().toarray()
    assert a[0, 1] == 0 and a[1, 0] == 0
    # endpoints still connected through the third node
    assert _local_dist(sub, 0)[1] == 2


def test_extract_isolated_pair():
    g = build_graph(4, [(0, 1), (2, 3)])
    [sub] = hop_subgraphs(g, [0], [1], 2)
    assert sub.global_ids.tolist() == [0, 1]
    assert sub.num_edges == 0
    assert _local_dist(sub, 0) == [0, UNREACHABLE]


def test_extract_hop_limit_excludes_far_nodes():
    # 0-1-2-3 chain: h=1 around (0, 3) must not include nodes at distance 2
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    [sub] = hop_subgraphs(g, [0], [3], 1)
    assert sub.global_ids.tolist() == [0, 1, 2, 3]
    assert sub.targets.tolist() == [[0, 3]]
    [sub_far] = hop_subgraphs(g, [0], [3], 2)
    assert sub_far.num_nodes == 4


def test_extract_matches_oracle_node_sets_and_structure():
    rng = np.random.default_rng(21)
    for trial in range(120):
        g = gnp_graph(rng)
        u, v = random_pair(rng, g.num_nodes)
        h = int(rng.integers(1, 4))
        [sub] = hop_subgraphs(g, [u], [v], h)
        nxg = to_nx(g)
        expected_nodes = hop_nodes(nxg, u, v, h)
        assert sub.global_ids.tolist() == expected_nodes
        assert sub.global_ids[sub.targets[0]].tolist() == [u, v]
        dense = induced_dense(nxg, sub.global_ids.tolist(), u, v)
        assert np.array_equal(sub.adjacency().toarray(), dense)
        # local distances agree with networkx on the link-removed subgraph
        sg = nx.from_numpy_array(dense)
        for src in sub.targets[0].tolist():
            dist = nx.single_source_shortest_path_length(sg, src)
            assert _local_dist(sub, src) == [dist.get(i, UNREACHABLE)
                                             for i in range(sub.num_nodes)]


def test_hop_distances_matches_networkx():
    # depth limits, several sources and blocked nodes, against networkx
    rng = np.random.default_rng(26)
    for trial in range(120):
        g = gnp_graph(rng)
        n = g.num_nodes
        sources = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
        depth = None if trial % 3 == 0 else int(rng.integers(0, 4))
        blocked = None
        if trial % 4 == 1:
            blocked = int(rng.integers(n))
        elif trial % 4 == 3:
            blocked = rng.choice(n, size=2, replace=False)
        nxg = to_nx(g)
        if blocked is not None:
            nxg.remove_nodes_from(np.atleast_1d(blocked).tolist())
        live = [int(s) for s in sources if s in nxg]
        want = (nx.multi_source_dijkstra_path_length(nxg, live, cutoff=depth)
                if live else {})
        got = hop_distances(g.indptr, g.indices, sources, max_depth=depth,
                            blocked=blocked)
        assert got.tolist() == [want.get(i, UNREACHABLE) for i in range(n)]


def test_hop_distances_small_cases():
    # path 0-1-2-3-4
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])

    def d(sources, **kw):
        return hop_distances(g.indptr, g.indices, sources, **kw).tolist()

    assert d([0]) == [0, 1, 2, 3, 4]
    assert d([0], max_depth=2) == [0, 1, 2, -1, -1]
    assert d([0], max_depth=0) == [0, -1, -1, -1, -1]
    assert d([0, 4]) == [0, 1, 2, 1, 0]
    assert d([0, 4], max_depth=1) == [0, 1, -1, 1, 0]
    assert d([0], blocked=2) == [0, 1, -1, -1, -1]
    assert d([0, 4], blocked=2) == [0, 1, -1, 1, 0]
    assert d([2], blocked=2) == [-1] * 5
    assert d([0, 4], blocked=[1, 3]) == [0, -1, -1, -1, 0]
    assert d([0, 2], blocked=[2, 4]) == [0, 1, -1, -1, -1]


def test_extract_validates_arguments():
    g = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        hop_subgraphs(g, [0], [0], 1)
    with pytest.raises(ValueError):
        hop_subgraphs(g, [0], [5], 1)
    with pytest.raises(ValueError):
        hop_subgraphs(g, [0], [1], 0)
    # a non-integer, bool or negative argument is named, never cast
    for h in (0, 1.5, 2.0, True):
        with pytest.raises(ValueError, match="^h: "):
            hop_subgraphs(g, [0], [1], h)
    for k, l, name in ((2.5, 1, "k"), (1, 2.0, "l"), (False, 1, "k"), (1, 0, "l")):
        with pytest.raises(ValueError, match=f"^{name}: "):
            walk_subgraphs(g, [0], [1], k, l, [0])
    for seed in (-1, 1.5, True):
        with pytest.raises(ValueError, match="^seeds: "):
            walk_subgraphs(g, [0], [1], 1, 1, [seed])
    for i in (0, 2.0, True):
        with pytest.raises(ValueError, match="^i: "):
            graph_power(g, i)


def test_random_walk_subgraph_deterministic():
    rng = np.random.default_rng(22)
    g = gnp_graph(rng, n_lo=10, n_hi=12, p=0.4)
    u, v = random_pair(rng, g.num_nodes)
    [a] = walk_subgraphs(g, [u], [v], 3, 3, [77])
    [b] = walk_subgraphs(g, [u], [v], 3, 3, [77])
    assert np.array_equal(a.global_ids, b.global_ids)
    assert np.array_equal(a.indices, b.indices)


def test_random_walk_subgraph_properties():
    rng = np.random.default_rng(23)
    for trial in range(60):
        g = gnp_graph(rng)
        u, v = random_pair(rng, g.num_nodes)
        k = int(rng.integers(1, 4))
        l = int(rng.integers(1, 4))
        [sub] = walk_subgraphs(g, [u], [v], k, l, [trial])
        assert sub.num_nodes <= 2 * k * l + 2
        assert np.all(np.diff(sub.global_ids) > 0)
        iu, iv = sub.targets[0]
        assert sub.global_ids[[iu, iv]].tolist() == [u, v]
        a = sub.adjacency().toarray()
        assert a[iu, iv] == 0 and a[iv, iu] == 0
        # every sampled node lies within walk range of a target in the
        # link-removed graph
        nxg = to_nx(g)
        if nxg.has_edge(u, v):
            nxg.remove_edge(u, v)
        du = nx.single_source_shortest_path_length(nxg, u, cutoff=l)
        dv = nx.single_source_shortest_path_length(nxg, v, cutoff=l)
        for node in sub.global_ids.tolist():
            assert node in du or node in dv


def test_random_walk_dead_end_targets():
    g = build_graph(4, [(0, 1), (2, 3)])
    [sub] = walk_subgraphs(g, [0], [1], 2, 5, [0])
    assert sub.global_ids.tolist() == [0, 1]
    with pytest.raises(ValueError):
        walk_subgraphs(g, [0], [1], 0, 2, [0])
    with pytest.raises(ValueError):
        walk_subgraphs(g, [0], [1], 1, 0, [0])


def test_graph_power_one_is_identical_copy():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    p1 = graph_power(g, 1)
    assert p1 is not g
    assert p1.same_structure(g)


def test_graph_power_path():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    p2 = graph_power(g, 2)
    assert p2.edge_array().tolist() == [[0, 1], [0, 2], [1, 2], [1, 3], [2, 3]]
    p3 = graph_power(g, 3)
    assert p3.num_edges == 6


def test_graph_power_matches_oracle():
    rng = np.random.default_rng(24)
    for trial in range(100):
        g = gnp_graph(rng)
        i = int(rng.integers(1, 4))
        got = {tuple(e) for e in graph_power(g, i).edge_array().tolist()}
        assert got == power_edges(to_nx(g), i)


def test_graph_power_carries_features():
    rng = np.random.default_rng(25)
    g = gnp_graph(rng, features=2)
    assert graph_power(g, 2).features is g.features
    with pytest.raises(ValueError):
        graph_power(g, 0)


def _blocks(sub):
    """(global ids, dense adjacency, positions of u and v) of every block
    of a union subgraph, positions counted from the block's start."""
    a = sub.adjacency().toarray()
    out = []
    for lo, hi, targets in zip(sub.starts[:-1], sub.starts[1:], sub.targets):
        # no edge leaves a block
        assert a[lo:hi].sum() == a[lo:hi, lo:hi].sum()
        out.append((sub.global_ids[lo:hi], a[lo:hi, lo:hi], targets - lo))
    return out


def test_hop_subgraphs_blocks_match_oracle():
    # a chunk with duplicate and reversed links; each block must be the
    # link's own enclosing subgraph
    rng = np.random.default_rng(27)
    for trial in range(40):
        g = gnp_graph(rng)
        pairs = [random_pair(rng, g.num_nodes) for _ in range(4)]
        pairs += [pairs[0], pairs[1][::-1]]
        u, v = np.asarray(pairs).T
        h = int(rng.integers(1, 4))
        [sub] = hop_subgraphs(g, u, v, h)
        for lo, hi in zip(sub.indptr[:-1], sub.indptr[1:]):
            assert np.all(np.diff(sub.indices[lo:hi]) > 0)
        nxg = to_nx(g)
        blocks = _blocks(sub)
        assert len(blocks) == len(pairs)
        for (ids, dense, targets), (a, b) in zip(blocks, pairs):
            assert ids[targets].tolist() == [a, b]
            assert ids.tolist() == hop_nodes(nxg, a, b, h)
            assert np.array_equal(dense, induced_dense(nxg, ids.tolist(), a, b))
            [one] = hop_subgraphs(g, [a], [b], h)
            assert np.array_equal(one.global_ids, ids)
            assert np.array_equal(one.targets[0], targets)
            assert np.array_equal(one.adjacency().toarray(), dense)
    [empty] = hop_subgraphs(g, [], [], 2)
    assert empty.num_nodes == 0 and empty.starts.tolist() == [0]
    assert empty.targets.shape == (0, 2)


def test_walk_subgraphs_blocks_match_one_link_walks():
    rng = np.random.default_rng(28)
    for trial in range(30):
        g = gnp_graph(rng)
        pairs = [random_pair(rng, g.num_nodes) for _ in range(3)]
        pairs.append(pairs[0])
        seeds = [11, 12, 13, 11 if trial % 2 else 14]
        u, v = np.asarray(pairs).T
        [sub] = walk_subgraphs(g, u, v, 2, 3, seeds)
        for (ids, dense, targets), (a, b), seed in zip(_blocks(sub), pairs, seeds):
            [one] = walk_subgraphs(g, [a], [b], 2, 3, [seed])
            assert np.array_equal(one.global_ids, ids)
            assert np.array_equal(one.targets[0], targets)
            assert np.array_equal(one.adjacency().toarray(), dense)
    with pytest.raises(ValueError, match="differ"):
        walk_subgraphs(g, [0, 1], [1, 1], 2, 3, [0, 0])
    with pytest.raises(ValueError, match="one seed per link"):
        walk_subgraphs(g, [0, 1], [1, 0], 2, 3, [0])


@pytest.mark.parametrize("union_entries", [None, 16])
def test_hop_subgraphs_hub_blocks_match_oracle(monkeypatch, union_entries):
    # Every block holds the hub, so most nodes sit in many blocks of one
    # union; with 16 entries per union the chunk also spans many unions.
    # A position left stamped by an earlier block would pull a foreign node
    # or edge into a later one.
    import difflink.sampling as sampling

    if union_entries is not None:
        monkeypatch.setattr(sampling, "UNION_ENTRIES", union_entries)
    rng = np.random.default_rng(29)
    for trial in range(12):
        g = hub_graph(rng)
        u, v = hub_links(rng, g.num_nodes)
        h = 1 + trial % 3
        subs = list(hop_subgraphs(g, u, v, h))
        assert (len(subs) > 1) == (union_entries is not None)
        blocks = [block for sub in subs for block in _blocks(sub)]
        assert len(blocks) == len(u)
        nxg = to_nx(g)
        for (ids, dense, targets), a, b in zip(blocks, u, v):
            assert ids[targets].tolist() == [a, b]
            assert ids.tolist() == hop_nodes(nxg, a, b, h)
            assert np.array_equal(dense, induced_dense(nxg, ids.tolist(), a, b))


def test_walk_subgraphs_hub_blocks_are_induced():
    rng = np.random.default_rng(31)
    for trial in range(12):
        g = hub_graph(rng)
        u, v = hub_links(rng, g.num_nodes)
        seeds = list(range(trial, trial + len(u)))
        [sub] = walk_subgraphs(g, u, v, 3, 2, seeds)
        nxg = to_nx(g)
        for (ids, dense, targets), a, b, seed in zip(_blocks(sub), u, v, seeds):
            assert ids[targets].tolist() == [a, b]
            assert np.all(np.diff(ids) > 0)
            assert np.array_equal(dense, induced_dense(nxg, ids.tolist(), a, b))
            [one] = walk_subgraphs(g, [a], [b], 3, 2, [seed])
            assert np.array_equal(one.global_ids, ids)


@pytest.mark.parametrize("union_entries", [None, 16])
@pytest.mark.parametrize("how", ["hop", "walk"])
def test_blocks_list_nodes_by_global_id(monkeypatch, how, union_entries):
    # One node order: every block lists its nodes by ascending global id,
    # ``targets`` finds u and v there, and no block holds its (u, v) edge.
    import difflink.sampling as sampling

    if union_entries is not None:
        monkeypatch.setattr(sampling, "UNION_ENTRIES", union_entries)
    rng = np.random.default_rng(33)
    for trial in range(8):
        g = hub_graph(rng)
        u, v = hub_links(rng, g.num_nodes)
        unions = (hop_subgraphs(g, u, v, 1 + trial % 2) if how == "hop"
                  else walk_subgraphs(g, u, v, 3, 2, list(range(len(u)))))
        blocks = [block for sub in unions for block in _blocks(sub)]
        assert len(blocks) == len(u)
        for (ids, dense, targets), a, b in zip(blocks, u, v):
            assert np.all(np.diff(ids) > 0)
            assert ids[targets].tolist() == [a, b]
            iu, iv = targets
            assert dense[iu, iv] == dense[iv, iu] == 0


def test_locate_finds_members_and_nothing_else():
    rng = np.random.default_rng(34)
    g = hub_graph(rng)
    n = g.num_nodes
    u, v = hub_links(rng, n)
    [sub] = hop_subgraphs(g, u, v, 1)
    blocks = len(u)
    member = np.repeat(np.arange(blocks), np.diff(sub.starts))
    assert sub.locate(member, sub.global_ids).tolist() == list(range(sub.num_nodes))
    # every (block, node) pair of the graph: absent nodes give -1
    block, node = np.divmod(np.arange(blocks * n), n)
    at = {(b, x): i for i, (b, x) in enumerate(zip(member.tolist(),
                                                   sub.global_ids.tolist()))}
    assert sub.locate(block, node).tolist() == [
        at.get((b, x), -1) for b, x in zip(block.tolist(), node.tolist())]
    # ids outside the graph, each asked of every block
    for bad in (-1, -n, n, 10 * n):
        assert sub.locate(np.arange(blocks), np.full(blocks, bad)).tolist() == [-1] * blocks


@pytest.mark.parametrize("how", ["hop", "walk"])
def test_link_sets_built_in_turn_match_sets_built_alone(monkeypatch, how):
    # One link set built right after another on the same graph, or with the
    # unions of two calls interleaved, gets the blocks it gets on its own.
    import difflink.sampling as sampling

    def build(graph, links):
        u, v = links
        if how == "hop":
            return hop_subgraphs(graph, u, v, 2)
        return walk_subgraphs(graph, u, v, 3, 2, list(range(len(u))))

    def blocks(unions):
        return [block for sub in unions for block in _blocks(sub)]

    def same(xs, ys):
        return len(xs) == len(ys) and all(
            all(map(np.array_equal, x, y)) for x, y in zip(xs, ys))

    rng = np.random.default_rng(32)
    for trial in range(6):
        g = hub_graph(rng)
        first, second = hub_links(rng, g.num_nodes), hub_links(rng, g.num_nodes)
        alone = blocks(build(Graph(g.num_nodes, g.indptr.copy(),
                                   g.indices.copy()), second))
        blocks(build(g, first))
        assert same(blocks(build(g, second)), alone)
        monkeypatch.setattr(sampling, "UNION_ENTRIES", 16)
        a, b = build(g, first), build(g, second)
        mixed = [(x, y) for x, y in zip(a, b)]
        interleaved = [y for _, y in mixed] + list(b)
        assert same(blocks(interleaved), alone)
        monkeypatch.undo()
