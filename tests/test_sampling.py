import networkx as nx
import numpy as np
import pytest

from difflink import (UNREACHABLE, build_graph, extract_h_hop, graph_power,
                      random_walk_subgraph, sop_subgraph)
from difflink.sampling import hop_distances

from conftest import gnp_graph, random_pair
from oracles import hop_nodes, induced_dense, power_edges, to_nx


def _local_dist(sub, src):
    return hop_distances(sub.indptr, sub.indices, [src]).tolist()


def test_extract_h_hop_path_graph():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    sub = extract_h_hop(g, 1, 3, 1)
    assert sub.global_ids.tolist() == [1, 3, 0, 2, 4]
    assert _local_dist(sub, 0) == [0, 2, 1, 1, 3]
    assert _local_dist(sub, 1) == [2, 0, 3, 1, 1]


def test_extract_removes_target_edge():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    sub = extract_h_hop(g, 0, 1, 2)
    a = sub.adjacency().toarray()
    assert a[0, 1] == 0 and a[1, 0] == 0
    # endpoints still connected through the third node
    assert _local_dist(sub, 0)[1] == 2


def test_extract_isolated_pair():
    g = build_graph(4, [(0, 1), (2, 3)])
    sub = extract_h_hop(g, 0, 1, 2)
    assert sub.global_ids.tolist() == [0, 1]
    assert sub.num_edges == 0
    assert _local_dist(sub, 0) == [0, UNREACHABLE]


def test_extract_hop_limit_excludes_far_nodes():
    # 0-1-2-3 chain: h=1 around (0, 3) must not include nodes at distance 2
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    sub = extract_h_hop(g, 0, 3, 1)
    assert sub.global_ids.tolist() == [0, 3, 1, 2]
    sub_far = extract_h_hop(g, 0, 3, 2)
    assert sub_far.num_nodes == 4


def test_extract_matches_oracle_node_sets_and_structure():
    rng = np.random.default_rng(21)
    for trial in range(120):
        g = gnp_graph(rng)
        u, v = random_pair(rng, g.num_nodes)
        h = int(rng.integers(1, 4))
        sub = extract_h_hop(g, u, v, h)
        nxg = to_nx(g)
        expected_nodes = hop_nodes(nxg, u, v, h)
        assert sorted(sub.global_ids.tolist()) == expected_nodes
        assert sub.global_ids[0] == u and sub.global_ids[1] == v
        assert np.all(np.diff(sub.global_ids[2:]) > 0)
        dense = induced_dense(nxg, sub.global_ids.tolist(), u, v)
        assert np.array_equal(sub.adjacency().toarray(), dense)
        # local distances agree with networkx on the link-removed subgraph
        sg = nx.from_numpy_array(dense)
        for src in (0, 1):
            dist = nx.single_source_shortest_path_length(sg, src)
            assert _local_dist(sub, src) == [dist.get(i, UNREACHABLE)
                                             for i in range(sub.num_nodes)]


def test_hop_distances_matches_networkx():
    # depth limits, several sources and a blocked node, against networkx
    rng = np.random.default_rng(26)
    for trial in range(120):
        g = gnp_graph(rng)
        n = g.num_nodes
        sources = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
        depth = None if trial % 3 == 0 else int(rng.integers(0, 4))
        blocked = int(rng.integers(n)) if trial % 2 else None
        nxg = to_nx(g)
        if blocked is not None:
            nxg.remove_node(blocked)
        live = [int(s) for s in sources if s != blocked]
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


def test_extract_validates_arguments():
    g = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        extract_h_hop(g, 0, 0, 1)
    with pytest.raises(ValueError):
        extract_h_hop(g, 0, 5, 1)
    with pytest.raises(ValueError):
        extract_h_hop(g, 0, 1, 0)


def test_random_walk_subgraph_deterministic():
    rng = np.random.default_rng(22)
    g = gnp_graph(rng, n_lo=10, n_hi=12, p=0.4)
    u, v = random_pair(rng, g.num_nodes)
    a = random_walk_subgraph(g, u, v, k=3, l=3, seed=77)
    b = random_walk_subgraph(g, u, v, k=3, l=3, seed=77)
    assert np.array_equal(a.global_ids, b.global_ids)
    assert np.array_equal(a.indices, b.indices)


def test_random_walk_subgraph_properties():
    rng = np.random.default_rng(23)
    for trial in range(60):
        g = gnp_graph(rng)
        u, v = random_pair(rng, g.num_nodes)
        k = int(rng.integers(1, 4))
        l = int(rng.integers(1, 4))
        sub = random_walk_subgraph(g, u, v, k, l, seed=trial)
        assert sub.num_nodes <= 2 * k * l + 2
        assert sub.global_ids[0] == u and sub.global_ids[1] == v
        a = sub.adjacency().toarray()
        assert a[0, 1] == 0
        # every sampled node lies within walk range of a target in the
        # link-removed graph
        nxg = to_nx(g)
        if nxg.has_edge(u, v):
            nxg.remove_edge(u, v)
        du = nx.single_source_shortest_path_length(nxg, u, cutoff=l)
        dv = nx.single_source_shortest_path_length(nxg, v, cutoff=l)
        for node in sub.global_ids.tolist()[2:]:
            assert node in du or node in dv


def test_random_walk_dead_end_targets():
    g = build_graph(4, [(0, 1), (2, 3)])
    sub = random_walk_subgraph(g, 0, 1, k=2, l=5, seed=0)
    assert sub.global_ids.tolist() == [0, 1]
    with pytest.raises(ValueError):
        random_walk_subgraph(g, 0, 1, k=0, l=2, seed=0)
    with pytest.raises(ValueError):
        random_walk_subgraph(g, 0, 1, k=1, l=0, seed=0)


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


def test_sop_subgraph():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    s0 = sop_subgraph(g, 0, 4, i=0, h=1)
    direct = extract_h_hop(g, 0, 4, 1)
    assert np.array_equal(s0.global_ids, direct.global_ids)
    p2 = graph_power(g, 2)
    s2 = sop_subgraph(g, 0, 4, i=2, h=1)
    via_power = extract_h_hop(p2, 0, 4, 1)
    assert np.array_equal(s2.global_ids, via_power.global_ids)
    assert np.array_equal(s2.indices, via_power.indices)
    # a precomputed power graph is used verbatim
    s2b = sop_subgraph(g, 0, 4, i=2, h=1, power_graph=p2)
    assert np.array_equal(s2b.global_ids, s2.global_ids)
    with pytest.raises(ValueError):
        sop_subgraph(g, 0, 4, i=-1, h=1)
