import numpy as np

from difflink import (LabelScheme, SamplingOperatorSet, build_graph,
                      drnl_labels, hop_subgraphs, label_dim_for,
                      zero_one_labels)
from difflink.records import _diffuse

from conftest import gnp_graph, random_pair
from oracles import drnl_from_dense


def _labeled_rows(graph, sub, scheme, label_cap=100):
    """Record rows of operator 0 for every node of a one-link subgraph: the
    [one-hot label | raw features] layout, as precompute builds it."""
    config = SamplingOperatorSet(variant="PoS", labeling=scheme, label_cap=label_cap)
    block = np.zeros(sub.num_nodes, dtype=np.int64)
    return _diffuse(sub, graph._feature_rows, block, sub.global_ids, config, 0)[0]


def test_zero_one_labels():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    [sub] = hop_subgraphs(g, [0], [2], 2)
    assert sub.global_ids.tolist() == [0, 1, 2, 3]
    assert sub.targets.tolist() == [[0, 2]]
    assert zero_one_labels(sub).tolist() == [1, 0, 1, 0]


def test_drnl_hand_cases():
    # u - x - v: the midpoint gets label 2
    g = build_graph(3, [(0, 1), (1, 2)])
    [sub] = hop_subgraphs(g, [0], [2], 2)
    assert sub.targets.tolist() == [[0, 2]]
    assert drnl_labels(sub).tolist() == [1, 2, 1]
    # u - a - b - v: both interior nodes get label 3; v sorts before u
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    [sub] = hop_subgraphs(g, [3], [0], 3)
    assert sub.global_ids.tolist() == [0, 1, 2, 3]
    assert sub.targets.tolist() == [[3, 0]]
    assert drnl_labels(sub).tolist() == [1, 3, 3, 1]


def test_drnl_unreachable_gets_zero():
    # x hangs off v only; with v masked it cannot reach u
    g = build_graph(3, [(0, 1), (1, 2)])
    [sub] = hop_subgraphs(g, [0], [1], 2)
    labels = drnl_labels(sub)
    assert sub.global_ids.tolist() == [0, 1, 2]
    assert labels.tolist() == [1, 1, 0]


def test_drnl_matches_dense_oracle():
    rng = np.random.default_rng(31)
    for trial in range(120):
        g = gnp_graph(rng)
        u, v = random_pair(rng, g.num_nodes)
        [sub] = hop_subgraphs(g, [u], [v], int(rng.integers(1, 4)))
        iu, iv = sub.targets[0]
        assert sub.global_ids[[iu, iv]].tolist() == [u, v]
        expected = drnl_from_dense(sub.adjacency().toarray(), iu, iv)
        assert drnl_labels(sub).tolist() == expected.tolist()


def test_augment_features_implicit_ones():
    g = build_graph(3, [(0, 1), (1, 2)])
    [sub] = hop_subgraphs(g, [0], [1], 1)
    rows = _labeled_rows(g, sub, LabelScheme.ZERO_ONE)
    assert rows.tolist() == [[0, 1, 1], [0, 1, 1], [1, 0, 1]]
    assert rows.dtype == np.float32


def test_augment_features_gathers_rows_by_global_id():
    g = build_graph(4, [(0, 2), (2, 3), (3, 1)],
                    features=np.arange(8, dtype=np.float32).reshape(4, 2))
    [sub] = hop_subgraphs(g, [0], [3], 2)
    rows = _labeled_rows(g, sub, "zero_one")
    for i, gid in enumerate(sub.global_ids):
        assert rows[i, 2:].tolist() == g.features.toarray()[gid].tolist()


def test_augment_features_one_hot_block():
    rng = np.random.default_rng(32)
    for trial in range(40):
        g = gnp_graph(rng)
        u, v = random_pair(rng, g.num_nodes)
        [sub] = hop_subgraphs(g, [u], [v], 2)
        scheme = LabelScheme.DRNL if trial % 2 else LabelScheme.ZERO_ONE
        block = _labeled_rows(g, sub, scheme)[:, :label_dim_for(scheme, 100)]
        assert np.array_equal(block.sum(axis=1), np.ones(sub.num_nodes))
        assert set(np.unique(block)) <= {0.0, 1.0}


def test_augment_features_label_cap_clamps():
    # a long path produces labels above a tiny cap
    g = build_graph(8, [(i, i + 1) for i in range(7)])
    [sub] = hop_subgraphs(g, [0], [7], 7)
    raw = drnl_labels(sub)
    assert raw.max() > 3
    rows = _labeled_rows(g, sub, LabelScheme.DRNL, label_cap=3)
    assert rows.shape == (sub.num_nodes, 4 + 1)
    clamped = np.argmax(rows[:, :4], axis=1)
    assert np.array_equal(clamped, np.minimum(raw, 3))


def test_augment_features_fixed_width():
    # the one-hot block is label_cap + 1 wide whatever labels occur: here
    # the largest is 2 (the midpoint), far below the cap
    g = build_graph(3, [(0, 1), (1, 2)])
    [sub] = hop_subgraphs(g, [0], [2], 2)
    rows = _labeled_rows(g, sub, LabelScheme.DRNL, label_cap=100)
    assert rows.shape == (3, 102)
    assert np.argmax(rows[:, :101], axis=1).tolist() == [1, 2, 1]


def test_label_dim_for():
    assert label_dim_for(LabelScheme.ZERO_ONE, 100) == 2
    assert label_dim_for("drnl", 100) == 101
    assert label_dim_for(LabelScheme.DRNL, 7) == 8
