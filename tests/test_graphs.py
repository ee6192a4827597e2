import re

import numpy as np
import pytest

from difflink import (Graph, GraphFormatError, build_graph, load_edge_list,
                      load_features, load_split, normalized_adjacency,
                      sample_negatives, save_edge_list, save_split,
                      split_edges)
from difflink.datasets import binary_features, ns_like, power_like, random_graph
from difflink import graphs as graphs_module
from difflink.graphs import _common_neighbors

from conftest import gnp_graph, hub_graph, hub_links
from oracles import (build_graph_reference, normalized_dense,
                     random_graph_reference, sample_negatives_reference,
                     split_reference, to_nx)


def test_build_graph_dedupes_and_drops_self_loops():
    g = build_graph(4, [(0, 1), (1, 0), (0, 1), (2, 2), (2, 3)])
    assert g.num_edges == 2
    assert g.edge_array().tolist() == [[0, 1], [2, 3]]
    assert g.neighbors(0).tolist() == [1]
    assert g.degree(2) == 1


def test_build_graph_rejects_out_of_range():
    with pytest.raises(ValueError):
        build_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        build_graph(3, [(-1, 0)])


def test_has_edge_and_degrees():
    g = build_graph(5, [(0, 1), (1, 2), (3, 1)])
    assert g.has_edge(1, 0) and g.has_edge(1, 3)
    assert not g.has_edge(0, 2)
    assert g.degrees().tolist() == [1, 3, 1, 1, 0]


def test_adjacency_matches_edges():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    a = g.adjacency().toarray()
    assert a.tolist() == [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]]


def test_load_edge_list(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("# a comment\n\n0 1\n1 0\n2 2\n1 7\n")
    g = load_edge_list(path)
    assert g.num_nodes == 8
    assert g.num_edges == 2
    assert g.has_edge(1, 7)


def test_load_edge_list_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1 2\n")
    with pytest.raises(GraphFormatError, match="bad.txt:1"):
        load_edge_list(path)
    path.write_text("0 x\n")
    with pytest.raises(GraphFormatError, match="non-integer"):
        load_edge_list(path)
    path.write_text("# nothing\n3 3\n")
    with pytest.raises(GraphFormatError, match="empty edge set"):
        load_edge_list(path)
    path.write_text("0 1\n")
    with pytest.raises(GraphFormatError, match="num_nodes"):
        load_edge_list(path, num_nodes=1)


def test_edge_list_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    g = gnp_graph(rng, n_lo=8, n_hi=12)
    save_edge_list(g, tmp_path / "g.txt")
    back = load_edge_list(tmp_path / "g.txt", num_nodes=g.num_nodes)
    assert g.same_structure(back)


def test_load_features(tmp_path):
    g = build_graph(3, [(0, 1), (1, 2)])
    path = tmp_path / "feats.txt"
    path.write_text("1.0, 2.0\n3 4\n5.5,6.5\n")
    g2 = load_features(path, g)
    assert g2.feature_dim == 2
    assert np.allclose(g2.features.toarray(), [[1, 2], [3, 4], [5.5, 6.5]])


def test_load_features_errors(tmp_path):
    g = build_graph(3, [(0, 1), (1, 2)])
    path = tmp_path / "feats.txt"
    path.write_text("1 2\n3 4\n")
    with pytest.raises(GraphFormatError, match="3 nodes"):
        load_features(path, g)
    path.write_text("1 2\n3 4 5\n6 7\n")
    with pytest.raises(GraphFormatError, match=":2"):
        load_features(path, g)
    path.write_text("1 2\n3 oops\n5 6\n")
    with pytest.raises(GraphFormatError, match="non-numeric"):
        load_features(path, g)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e39"])
def test_load_features_rejects_non_finite_values(tmp_path, bad):
    g = build_graph(3, [(0, 1), (1, 2)])
    path = tmp_path / "feats.txt"
    path.write_text(f"1 2\n3 {bad}\n5 6\n")
    with pytest.raises(GraphFormatError, match=f"^{re.escape(str(path))}:2: .*finite"):
        load_features(path, g)


def test_load_features_keeps_nonzero_entries_as_sparse_rows(tmp_path):
    g = build_graph(3, [(0, 1), (1, 2)])
    path = tmp_path / "feats.txt"
    path.write_text("# three rows\n0 0 0\n0, -1.5, 0\n2 0 1e-50\n")
    x = load_features(path, g).features
    assert x.indptr.tolist() == [0, 0, 1, 2]
    assert x.indices.dtype == np.int32 and x.data.dtype == np.float32
    # 1e-50 is zero as a float32, so it is not stored
    assert x.toarray().tolist() == [[0, 0, 0], [0, -1.5, 0], [2, 0, 0]]


def test_build_graph_keeps_features_as_sparse_rows():
    rng = np.random.default_rng(6)
    dense = rng.random((5, 4)) * (rng.random((5, 4)) < 0.5)
    dense[2] = 0.0
    g = build_graph(5, [(0, 1), (3, 4)], features=dense)
    x = g.features
    assert x.data.dtype == np.float32 and x.indices.dtype == np.int32
    assert np.array_equal(x.toarray(), dense.astype(np.float32))
    assert x.indices.shape[0] == np.count_nonzero(dense)
    for i in range(5):
        row = x.indices[x.indptr[i]:x.indptr[i + 1]]
        assert np.all(np.diff(row) > 0)
    # sparse rows are kept as they are, not copied
    assert build_graph(5, [(0, 2)], features=x).features is x
    direct = Graph(g.num_nodes, g.indptr, g.indices, dense)
    assert np.array_equal(direct.features.toarray(), x.toarray())
    for bad in (dense[:4], dense[:, 0], binary_features(4, 3, 1)):
        with pytest.raises(ValueError, match="features must be"):
            build_graph(5, [(0, 1)], features=bad)


def test_sample_negatives_path_graph():
    g = build_graph(3, [(0, 1), (1, 2)])
    neg = sample_negatives(g, 1, seed=0)
    assert neg.tolist() == [[0, 2]]
    with pytest.raises(ValueError, match="only 1"):
        sample_negatives(g, 2, seed=0)


def test_sample_negatives_properties():
    rng = np.random.default_rng(11)
    for trial in range(25):
        g = gnp_graph(rng, n_lo=6, n_hi=14)
        n = g.num_nodes
        available = n * (n - 1) // 2 - g.num_edges
        count = min(available, max(1, g.num_edges))
        neg = sample_negatives(g, count, seed=trial)
        assert neg.shape == (count, 2)
        enc = set()
        for u, v in neg:
            assert u != v
            assert not g.has_edge(int(u), int(v))
            enc.add((min(u, v), max(u, v)))
        assert len(enc) == count
        again = sample_negatives(g, count, seed=trial)
        assert np.array_equal(neg, again)


def test_sample_negatives_exclude_and_exhaustion():
    g = build_graph(4, [(0, 1)])
    all_neg = sample_negatives(g, 5, seed=1)
    assert all_neg.shape[0] == 5
    ex = all_neg[:3]
    rest = sample_negatives(g, 2, seed=2, exclude=ex)
    taken = {tuple(sorted(p)) for p in ex.tolist()}
    for u, v in rest:
        assert tuple(sorted((int(u), int(v)))) not in taken
    with pytest.raises(ValueError):
        sample_negatives(g, 3, seed=3, exclude=ex)


def _same_negatives(graph, count, seed, exclude=None):
    got = sample_negatives(graph, count, seed, exclude=exclude)
    want = sample_negatives_reference(graph, count, seed, exclude=exclude)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    return got


@pytest.mark.parametrize("seed", range(4))
def test_sample_negatives_matches_reference_over_several_batches(seed):
    # 50 non-edges of 1770 pairs: a 1024-draw batch finds fewer than 25
    g = random_graph(60, 1720, seed=seed)
    forbidden = set(map(tuple, g.edge_array().tolist()))
    rng = np.random.default_rng(seed)
    u, v = rng.integers(0, 60, size=1024), rng.integers(0, 60, size=1024)
    first = {(min(a, b), max(a, b)) for a, b in zip(u.tolist(), v.tolist())
             if a != b} - forbidden
    assert len(first) < 25
    _same_negatives(g, 25, seed)


def test_sample_negatives_matches_reference_with_duplicate_draws():
    # 8 nodes: each 1024-draw batch repeats every pair many times
    g = build_graph(8, [(0, 1), (2, 5), (6, 7)])
    for seed in range(5):
        for count in (1, 7, 12):
            _same_negatives(g, count, seed)


def test_sample_negatives_matches_reference_with_exclude():
    g = ns_like(seed=0)
    ex = sample_negatives(g, 300, seed=9)
    ex = np.concatenate([ex, ex[:40, ::-1], ex[40:60], [[3, 3], [0, 0]],
                         g.edge_array()[:5, ::-1]])
    excluded = set(map(tuple, np.sort(ex, axis=1).tolist()))
    for seed in range(3):
        for count in (1, 137, 2000):
            got = _same_negatives(g, count, seed, exclude=ex)
            assert not excluded & set(map(tuple, np.sort(got, axis=1).tolist()))


def test_sample_negatives_matches_reference_count_zero_and_dense():
    g = random_graph(30, 400, seed=1)
    for seed in range(3):
        assert _same_negatives(g, 0, seed).shape == (0, 2)
        dense = _same_negatives(g, 30, seed)   # 35 non-edges: enumerated
        assert np.unique(np.sort(dense, axis=1), axis=0).shape[0] == 30


def test_sample_negatives_rejects_negative_count():
    g = build_graph(4, [(0, 1)])
    with pytest.raises(ValueError, match="count: .* got -1"):
        sample_negatives(g, -1, seed=0)


@pytest.mark.parametrize("pair,count", [
    ([0, 15], 1),      # would encode as the real pair (1, 5)
    ([9, 15], 40),     # in the dense branch, indexed past the candidates
    ([-1, 3], 1),
], ids=["past-n", "past-n-dense", "negative"])
def test_sample_negatives_rejects_exclude_out_of_range(pair, count):
    g = build_graph(10, [(0, 1), (2, 3)])
    message = re.escape(f"exclude: node id out of range: ({pair[0]}, {pair[1]})")
    with pytest.raises(ValueError, match=message):
        sample_negatives(g, count, seed=0, exclude=[[2, 4], pair])


def test_sample_negatives_ignores_self_pairs_in_exclude():
    g = build_graph(4, [(0, 1)])
    neg = sample_negatives(g, 5, seed=0, exclude=[[2, 2], [3, 3]])
    assert np.array_equal(neg, sample_negatives(g, 5, seed=0))


def test_build_graph_matches_reference():
    rng = np.random.default_rng(3)
    for n in (1, 2, 9, 40):
        e = rng.integers(0, n, size=(6 * n, 2))
        e = np.concatenate([e, e[: 2 * n, ::-1], e[:n], np.stack([e[:3, 0]] * 2, 1)])
        e = e[rng.permutation(e.shape[0])]
        g = build_graph(n, e)
        indptr, indices = build_graph_reference(n, e)
        assert np.array_equal(g.indptr, indptr) and np.array_equal(g.indices, indices)
        assert g.indices.dtype == indices.dtype
    empty = build_graph(5, np.zeros((0, 2), dtype=np.int64))
    assert np.array_equal(empty.indptr, build_graph_reference(5, [])[0])


@pytest.mark.parametrize("stand_in", [ns_like, power_like], ids=["ns", "power"])
@pytest.mark.parametrize("seed", [0, 1])
def test_split_edges_matches_reference(stand_in, seed):
    g = stand_in(seed=0)
    split = split_edges(g, seed=seed)
    want = split_reference(g, seed=seed)
    for name in ("train_pos", "valid_pos", "test_pos",
                 "train_neg", "valid_neg", "test_neg"):
        assert np.array_equal(getattr(split, name), want[name]), name
    assert np.array_equal(split.observed_graph.indptr, want["indptr"])
    assert np.array_equal(split.observed_graph.indices, want["indices"])


@pytest.mark.parametrize("draw_slice", [1, 7, 1000])
def test_sliced_draw_rounds_match_reference(monkeypatch, draw_slice):
    # a round is sorted and deduplicated a slice at a time, in draw order;
    # any slice length gives the set-based references' pairs and RNG use
    monkeypatch.setattr(graphs_module, "DRAW_SLICE", draw_slice)
    for seed in range(2):
        # every pair drawn many times, in many slices of a round
        _same_negatives(build_graph(8, [(0, 1), (2, 5), (6, 7)]), 12, seed)
        _same_negatives(random_graph(60, 1720, seed=seed), 25, seed)   # rounds
    g = ns_like(seed=0)
    _same_negatives(g, 137, 1, exclude=sample_negatives(g, 300, seed=9))
    for n, m, seed in ((2, 1, 0), (40, 100, 1), (30, 435, 3)):
        graph = random_graph(n, m, seed=seed)
        indptr, indices = random_graph_reference(n, m, seed=seed)
        assert np.array_equal(graph.indptr, indptr)
        assert np.array_equal(graph.indices, indices)
    split, want = split_edges(g, seed=1), split_reference(g, seed=1)
    for name in ("train_neg", "valid_neg", "test_neg"):
        assert np.array_equal(getattr(split, name), want[name]), name


def test_split_edges_counts_and_disjointness():
    rng = np.random.default_rng(5)
    g = gnp_graph(rng, n_lo=20, n_hi=20, p=0.4)
    m = g.num_edges
    split = split_edges(g, (0.70, 0.10, 0.20), seed=9)
    n_valid, n_test = int(0.10 * m), int(0.20 * m)
    assert split.valid_pos.shape[0] == n_valid
    assert split.test_pos.shape[0] == n_test
    assert split.train_pos.shape[0] == m - n_valid - n_test
    parts = [split.train_pos, split.valid_pos, split.test_pos]
    seen = set()
    for arr in parts:
        for u, v in arr:
            seen.add((min(u, v), max(u, v)))
    assert len(seen) == m
    # negatives mirror the counts, never hit an edge, stay disjoint
    negs = set()
    for arr, pos in zip([split.train_neg, split.valid_neg, split.test_neg], parts):
        assert arr.shape[0] == pos.shape[0]
        for u, v in arr:
            assert not g.has_edge(int(u), int(v))
            key = (min(u, v), max(u, v))
            assert key not in negs
            negs.add(key)
    # observed graph holds exactly the training positives
    assert split.observed_graph.num_edges == split.train_pos.shape[0]
    for u, v in split.valid_pos:
        assert not split.observed_graph.has_edge(int(u), int(v))


def test_split_edges_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(6)
    g = gnp_graph(rng, n_lo=18, n_hi=18, p=0.4)
    s1 = split_edges(g, seed=4)
    s2 = split_edges(g, seed=4)
    assert np.array_equal(s1.train_pos, s2.train_pos)
    assert np.array_equal(s1.test_neg, s2.test_neg)
    s3 = split_edges(g, seed=5)
    assert not np.array_equal(s1.train_pos, s3.train_pos)


def test_split_edges_errors():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError, match="empty"):
        split_edges(g, (0.85, 0.05, 0.10), seed=0)
    with pytest.raises(ValueError, match="ratios"):
        split_edges(g, (0.5, 0.5, 0.5), seed=0)


def test_split_preserves_features():
    rng = np.random.default_rng(8)
    g = gnp_graph(rng, n_lo=20, n_hi=20, p=0.3, features=3)
    split = split_edges(g, seed=1)
    assert split.observed_graph.features is g.features


def test_save_and_load_split(tmp_path):
    rng = np.random.default_rng(10)
    g = gnp_graph(rng, n_lo=20, n_hi=20, p=0.4)
    split = split_edges(g, seed=7)
    save_split(split, tmp_path / "sp")
    back = load_split(tmp_path / "sp")
    assert back.observed_graph.same_structure(split.observed_graph)
    assert np.array_equal(back.test_pos, split.test_pos)
    assert np.array_equal(back.train_neg, split.train_neg)
    assert back.seed == 7 and back.ratios == split.ratios
    assert back.observed_graph.features is None
    dense = rng.random((g.num_nodes, 2)).astype(np.float32)
    back = load_split(tmp_path / "sp", features=dense)
    assert np.array_equal(back.observed_graph.features.toarray(), dense)
    with pytest.raises(ValueError, match="features must be"):
        load_split(tmp_path / "sp", features=dense[1:])


@pytest.mark.parametrize("line, message", [
    ("1 2 3", "expected two node ids"),
    ("1 x", "non-integer node id"),
], ids=["three-ids", "non-integer"])
def test_load_split_names_a_malformed_part_line(tmp_path, line, message):
    rng = np.random.default_rng(11)
    save_split(split_edges(gnp_graph(rng, n_lo=20, n_hi=20, p=0.4), seed=7),
               tmp_path / "sp")
    part = tmp_path / "sp" / "test_pos.txt"
    lines = part.read_text().count("\n")
    with open(part, "a") as fh:
        fh.write(line + "\n")
    with pytest.raises(GraphFormatError,
                       match=re.escape(f"{part}:{lines + 1}: {message}")):
        load_split(tmp_path / "sp")


def test_normalized_adjacency_single_node_and_star():
    g = Graph(1, np.array([0, 0], dtype=np.int64),
              np.zeros(0, dtype=np.int32))
    assert normalized_adjacency(g).toarray().tolist() == [[1.0]]
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    nrm = normalized_adjacency(star).toarray()
    assert np.allclose(nrm, nrm.T)
    assert nrm[0, 0] == pytest.approx(1 / 4)
    assert nrm[0, 1] == pytest.approx(1 / np.sqrt(4 * 2))


def test_normalized_adjacency_matches_dense_oracle():
    rng = np.random.default_rng(12)
    for _ in range(20):
        g = gnp_graph(rng)
        dense = normalized_dense(g.adjacency().toarray())
        assert np.allclose(normalized_adjacency(g).toarray(), dense, atol=1e-12)


def test_common_neighbors():
    g = build_graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (1, 4)])
    pair, cn = _common_neighbors(g, [0, 0, 0], [1, 4, 3])
    assert pair.tolist() == [0, 1, 2] and cn.tolist() == [2, 1, 2]
    with pytest.raises(ValueError, match="differ"):
        _common_neighbors(g, [0, 2], [1, 2])
    with pytest.raises(ValueError, match="out of range"):
        _common_neighbors(g, [0], [9])


def test_common_neighbors_matches_networkx():
    # hub graphs give pairs with many common neighbours, adjacent pairs and
    # repeated and reversed pairs; output is sorted by pair, then id
    rng = np.random.default_rng(13)
    for trial in range(20):
        g = hub_graph(rng, isolated=True) if trial % 2 else gnp_graph(rng, 8, 20)
        nxg = to_nx(g)
        u, v = hub_links(rng, g.num_nodes)
        pair, cn = _common_neighbors(g, u, v)
        expected = [(b, w) for b in range(u.shape[0])
                    for w in sorted(set(nxg.neighbors(int(u[b])))
                                    & set(nxg.neighbors(int(v[b]))))]
        assert list(zip(pair.tolist(), cn.tolist())) == expected
