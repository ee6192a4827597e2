import numpy as np
import pytest

from difflink import graph_power, save_edge_list, split_edges
from difflink.datasets import (DATASET_STATS, SYNTHETIC, binary_features,
                               cora_like, find_dataset, preferential_graph,
                               random_graph, resolve_dataset)

from oracles import dense_binary_features, random_graph_reference


def test_random_graph_exact_edge_count():
    g = random_graph(40, 100, seed=1)
    assert g.num_nodes == 40
    assert g.edge_array().shape[0] == 100
    with pytest.raises(ValueError):
        random_graph(4, 10)


@pytest.mark.parametrize("n,m,seed", [
    (40, 100, 1), (10, 15, 4), (60, 140, 0), (50, 110, 4), (2, 1, 0), (9, 0, 2),
    (30, 435, 3), (4941, 6594, 0),   # a complete graph, power_like's shape
])
def test_random_graph_matches_reference(n, m, seed):
    g = random_graph(n, m, seed=seed)
    indptr, indices = random_graph_reference(n, m, seed=seed)
    assert np.array_equal(g.indptr, indptr) and np.array_equal(g.indices, indices)


def test_random_graph_rejects_negative_m():
    with pytest.raises(ValueError, match="m: .* got -3"):
        random_graph(5, -3)


def test_preferential_graph_trims_to_target():
    g = preferential_graph(200, attach=3, seed=2, target_edges=500)
    assert g.edge_array().shape[0] == 500
    # hub-heavy profile: the top degree well above the attachment constant
    assert g.degrees().max() > 10
    with pytest.raises(ValueError):
        preferential_graph(5, attach=5)


def test_binary_features_row_sums():
    feats = binary_features(30, 50, ones_per_row=7, seed=3).toarray()
    assert feats.shape == (30, 50)
    assert np.all(feats.sum(axis=1) == 7)
    assert set(np.unique(feats)) <= {0.0, 1.0}


@pytest.mark.parametrize("n,dim,ones,seed", [(30, 50, 7, 0), (30, 50, 7, 1),
                                             (30, 50, 7, 2), (2708, 1433, 18, 1)])
def test_binary_features_match_dense_reference(n, dim, ones, seed):
    feats = binary_features(n, dim, ones_per_row=ones, seed=seed)
    assert feats.shape == (n, dim) and feats.data.dtype == np.float32
    assert np.array_equal(feats.toarray(), dense_binary_features(n, dim, ones, seed))
    assert np.all(np.diff(feats.indices.reshape(n, ones), axis=1) > 0)


def test_cora_like_holds_its_features_once_and_small():
    g = cora_like(seed=0)
    x = g.features
    assert x.indptr.nbytes + x.indices.nbytes + x.data.nbytes < 1 << 20
    assert split_edges(g, seed=0).observed_graph.features is x
    assert graph_power(g, 2).features is x


@pytest.mark.parametrize("name", sorted(SYNTHETIC))
def test_synthetic_standins_match_published_shapes(name):
    g = SYNTHETIC[name](seed=0)
    n, m, d = DATASET_STATS[name.removesuffix("_like")]
    assert g.num_nodes == n
    assert g.edge_array().shape[0] == m
    if d is None:
        assert g.features is None
    else:
        assert g.features.shape == (n, d)


def test_resolve_dataset_paths(tmp_path, monkeypatch):
    g = random_graph(10, 15, seed=4)
    base = tmp_path / "toy"
    base.mkdir()
    save_edge_list(g, base / "edges.txt")
    monkeypatch.setenv("DIFFLINK_DATA", str(tmp_path))
    found = find_dataset("toy")
    assert found is not None and found["features"] is None
    loaded = resolve_dataset({"name": "toy"})
    assert loaded.num_nodes == 10
    direct = resolve_dataset({"name": "x",
                              "edge_list": str(base / "edges.txt")})
    assert direct.edge_array().shape[0] == 15
    synth = resolve_dataset({"name": "ns_like", "seed": 1})
    assert synth.num_nodes == DATASET_STATS["ns"][0]
    with pytest.raises(FileNotFoundError, match="nowhere"):
        resolve_dataset({"name": "nowhere"})
