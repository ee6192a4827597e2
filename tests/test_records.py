import hashlib
import json

import numpy as np
import pytest

from difflink import (LabelScheme, LinkRecord, Pooling, RecordFile,
                      RecordFormatError, SamplingOperatorSet, Variant,
                      augment_features, build_graph, build_link_record,
                      extract_h_hop, pooled_power_series, precompute_dataset,
                      read_records, serialize_record, storage_comparison,
                      write_records)
from difflink.labeling import LabeledFeatures
from difflink.records import deserialize_record, manifest_path

from conftest import gnp_graph, random_pair
from oracles import dense_record_blocks


def _triangle():
    return build_graph(3, [(0, 1), (1, 2), (0, 2)])


def test_operator_set_validation():
    cfg = SamplingOperatorSet(variant="PoS", r=3, h=2)
    assert cfg.pooling is Pooling.CENTER
    assert cfg.num_operators == 4
    assert SamplingOperatorSet(variant="PoSPlus", h=1).pooling is Pooling.CCN
    assert SamplingOperatorSet(variant="PoSPlusScaLed", h=1, k=2,
                               l=3).pooling is Pooling.CCN
    with pytest.raises(ValueError):
        SamplingOperatorSet(variant="PoS", r=0, h=1)
    with pytest.raises(ValueError):
        SamplingOperatorSet(variant="PoS", h=0)
    with pytest.raises(ValueError, match="walk parameters"):
        SamplingOperatorSet(variant="PoSScaLed", h=1)
    with pytest.raises(ValueError, match="no walk parameters"):
        SamplingOperatorSet(variant="SoP", h=1, k=2, l=2)
    with pytest.raises(ValueError, match="implies"):
        SamplingOperatorSet(variant="PoS", h=1, pooling="CCN")
    with pytest.raises(ValueError):
        SamplingOperatorSet(variant="NotAVariant", h=1)
    # the record header stores r+1 and p as u16
    with pytest.raises(ValueError, match="r must be"):
        SamplingOperatorSet(variant="PoS", r=65535, h=1)
    with pytest.raises(ValueError, match="ccn_cap"):
        SamplingOperatorSet(variant="PoSPlus", h=1, ccn_cap=65534)


def test_operator_set_echo_round_trips():
    cfg = SamplingOperatorSet(variant="PoSPlus", r=2, h=2,
                              labeling="drnl", label_cap=10)
    echo = cfg.echo()
    assert echo["variant"] == "PoSPlus" and echo["pooling"] == "CCN"
    assert "ccn_rule" in echo
    assert json.loads(json.dumps(echo)) == echo


def test_pooled_rows_identity_power():
    g = _triangle()
    sub = extract_h_hop(g, 0, 1, 1)
    feats = augment_features(sub, None, LabelScheme.ZERO_ONE)
    series = pooled_power_series(sub, feats, 0, [0, 2])
    assert len(series) == 1
    assert np.array_equal(series[0], feats.matrix[[0, 2]].astype(np.float64))


def test_pooled_rows_triangle_two_walks():
    # triangle minus the target edge is a path; two 2-walks from each end
    g = _triangle()
    sub = extract_h_hop(g, 0, 1, 1)
    feats = LabeledFeatures(np.ones((3, 1), dtype=np.float32),
                            LabelScheme.ZERO_ONE, 0)
    series = pooled_power_series(sub, feats, 2, [0])
    assert [rows.tolist() for rows in series] == [[[1.0]], [[1.0]], [[2.0]]]


def test_pooled_rows_matches_dense_power():
    rng = np.random.default_rng(41)
    for trial in range(60):
        g = gnp_graph(rng)
        u, v = random_pair(rng, g.num_nodes)
        sub = extract_h_hop(g, u, v, 2)
        feats = augment_features(sub, None, LabelScheme.ZERO_ONE)
        r = int(rng.integers(1, 4))
        ids = list(range(sub.num_nodes))
        series = pooled_power_series(sub, feats, r, ids)
        assert len(series) == r + 1
        for power, got in enumerate(series):
            dense = np.linalg.matrix_power(sub.adjacency().toarray(), power)
            expected = dense @ feats.matrix.astype(np.float64)
            assert np.allclose(got, expected, rtol=1e-9, atol=1e-9)
    with pytest.raises(ValueError):
        pooled_power_series(sub, feats, -1, [0])
    with pytest.raises(ValueError):
        pooled_power_series(sub, feats, 1, [sub.num_nodes])


def test_center_record_shapes():
    g = gnp_graph(np.random.default_rng(42), n_lo=8, n_hi=8)
    cfg = SamplingOperatorSet(variant="PoS", r=3, h=2)
    rec = build_link_record(g, (0, 1, 1), cfg)
    w = cfg.block_width(g)
    assert rec.pooled_count == 2
    assert rec.blocks.shape == (4, 2, w)
    assert rec.blocks.dtype == np.float32
    assert rec.pooled_ids.tolist() == [0, 1]


def test_block_zero_equals_labeled_features():
    rng = np.random.default_rng(43)
    for variant in Variant:
        g = gnp_graph(rng, features=3)
        u, v = random_pair(rng, g.num_nodes)
        kwargs = {"k": 2, "l": 2} if "ScaLed" in variant.value else {}
        cfg = SamplingOperatorSet(variant=variant, r=2, h=2, **kwargs)
        rec = build_link_record(g, (u, v, 0), cfg, seed=5)
        label_dim = cfg.label_dim()
        # row for u: one-hot label 1, then u's raw features
        expected = np.zeros(cfg.block_width(g), dtype=np.float32)
        expected[1] = 1.0
        expected[label_dim:] = g.features[u]
        assert np.array_equal(rec.blocks[0, 0], expected)


def test_ccn_pooled_ids_order_and_cap():
    # hub-heavy graph: common neighbors sorted by degree desc, id asc
    edges = [(0, 1)]
    for w in (2, 3, 4):
        edges += [(0, w), (1, w)]
    edges += [(4, 5), (4, 6)]  # raise node 4's degree
    g = build_graph(7, edges)
    cfg = SamplingOperatorSet(variant="PoSPlus", r=1, h=1)
    rec = build_link_record(g, (0, 1, 1), cfg)
    assert rec.pooled_ids.tolist() == [0, 1, 4, 2, 3]
    capped = SamplingOperatorSet(variant="PoSPlus", r=1, h=1, ccn_cap=2)
    rec2 = build_link_record(g, (0, 1, 1), capped)
    assert rec2.pooled_ids.tolist() == [0, 1, 4, 2]


def test_scaled_absent_pooled_nodes_get_zero_rows():
    rng = np.random.default_rng(44)
    saw_absent = False
    for trial in range(80):
        g = gnp_graph(rng, n_lo=8, n_hi=12, p=0.4)
        u, v = random_pair(rng, g.num_nodes)
        cfg = SamplingOperatorSet(variant="PoSPlusScaLed", r=2, h=1, k=1, l=1)
        rec = build_link_record(g, (u, v, 1), cfg, seed=trial)
        from difflink.records import _walk_seed
        from difflink import random_walk_subgraph
        sub = random_walk_subgraph(g, u, v, 1, 1, _walk_seed(trial, u, v, 1))
        present = set(sub.global_ids.tolist())
        for j, gid in enumerate(rec.pooled_ids.tolist()):
            if gid not in present:
                saw_absent = True
                assert np.all(rec.blocks[:, j, :] == 0)
    assert saw_absent


def test_sop_blocks_use_power_subgraphs():
    rng = np.random.default_rng(45)
    g = gnp_graph(rng, n_lo=8, n_hi=10, p=0.3)
    u, v = random_pair(rng, g.num_nodes)
    cfg = SamplingOperatorSet(variant="SoP", r=2, h=1)
    rec = build_link_record(g, (u, v, 1), cfg)
    expected = dense_record_blocks(g, (u, v, 1), cfg)
    assert np.allclose(rec.blocks, expected, rtol=1e-5, atol=1e-5)


def _records_with_and_without_target(variant, labeling, trials=80):
    """Yield the record of a train positive on G and on G minus its edge."""
    rng = np.random.default_rng(48)
    walk = {"k": 3, "l": 3} if "ScaLed" in variant else {}
    for trial in range(trials):
        g = gnp_graph(rng, n_lo=6, n_hi=12, p=0.4,
                      features=3 if trial % 2 else None)
        edges = g.edge_array()
        u, v = (int(x) for x in edges[rng.integers(edges.shape[0])])
        rest = edges[~((edges[:, 0] == u) & (edges[:, 1] == v))]
        g_minus = build_graph(g.num_nodes, rest, features=g.features)
        cfg = SamplingOperatorSet(variant=variant, r=3,
                                  h=int(rng.integers(1, 3)),
                                  labeling=labeling, **walk)
        yield (build_link_record(g, (u, v, 1), cfg, seed=trial),
               build_link_record(g_minus, (u, v, 1), cfg, seed=trial))


@pytest.mark.parametrize("labeling", ["zero_one", "drnl"])
@pytest.mark.parametrize("variant", [
    "PoS", "PoSPlus", "PoSScaLed", "PoSPlusScaLed",
    pytest.param("SoP", marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 2: SoP graph powers are taken "
                            "on G, so the target edge leaks through G^i")),
])
def test_record_ignores_target_edge(variant, labeling):
    # README: the candidate link is removed before sampling, so a train
    # positive's record must not depend on whether its edge is in G.
    for on_g, on_g_minus in _records_with_and_without_target(variant,
                                                             labeling):
        assert np.array_equal(on_g.pooled_ids, on_g_minus.pooled_ids)
        assert np.array_equal(on_g.blocks, on_g_minus.blocks)


def test_build_link_record_rejects_bad_label():
    g = _triangle()
    cfg = SamplingOperatorSet(variant="PoS", r=1, h=1)
    with pytest.raises(ValueError):
        build_link_record(g, (0, 1, 2), cfg)


def test_record_byte_size_independent_of_h():
    rng = np.random.default_rng(46)
    g = gnp_graph(rng, n_lo=10, n_hi=12, p=0.4, features=4)
    u, v = random_pair(rng, g.num_nodes)
    sizes = set()
    payloads = []
    for h in (1, 2, 3):
        cfg = SamplingOperatorSet(variant="PoS", r=3, h=h)
        rec = build_link_record(g, (u, v, 1), cfg)
        blob = serialize_record(rec)
        assert len(blob) == rec.byte_size()
        sizes.add(len(blob))
        payloads.append(blob)
    assert len(sizes) == 1
    # sizes identical, payload contents legitimately differ
    assert rec.byte_size() == 17 + 4 * 2 + 4 * 4 * 2 * cfg.block_width(g)


def test_serialize_round_trip_bit_identical():
    rng = np.random.default_rng(47)
    g = gnp_graph(rng, n_lo=8, n_hi=12, features=3)
    cfg = SamplingOperatorSet(variant="PoSPlus", r=2, h=2, labeling="drnl")
    u, v = random_pair(rng, g.num_nodes)
    rec = build_link_record(g, (u, v, 1), cfg)
    blob = serialize_record(rec)
    back, offset = deserialize_record(blob)
    assert offset == len(blob)
    assert (back.u, back.v, back.label) == (rec.u, rec.v, rec.label)
    assert np.array_equal(back.pooled_ids, rec.pooled_ids)
    assert back.blocks.tobytes() == rec.blocks.tobytes()
    assert serialize_record(back) == blob


def test_write_and_read_records(tmp_path):
    rng = np.random.default_rng(48)
    g = gnp_graph(rng, n_lo=10, n_hi=10, p=0.4)
    cfg = SamplingOperatorSet(variant="PoS", r=1, h=2)
    links = [(0, 1, 1), (2, 3, 0), (4, 5, 1)]
    recs = [build_link_record(g, ln, cfg) for ln in links]
    path = tmp_path / "x.rec"
    assert write_records(path, recs) == 3
    rf = RecordFile(path)
    assert len(rf) == 3
    assert [r.u for r in rf] == [0, 2, 4]
    assert serialize_record(rf[1]) == serialize_record(recs[1])


def test_record_file_rejects_corruption(tmp_path):
    path = tmp_path / "bad.rec"
    path.write_bytes(b"NOPE\x01\x00")
    with pytest.raises(RecordFormatError, match="magic"):
        RecordFile(path)
    path.write_bytes(b"S3")
    with pytest.raises(RecordFormatError, match="truncated"):
        RecordFile(path)
    g = _triangle()
    cfg = SamplingOperatorSet(variant="PoS", r=1, h=1)
    rec = build_link_record(g, (0, 1, 1), cfg)
    good = tmp_path / "good.rec"
    write_records(good, [rec])
    data = good.read_bytes()
    good.write_bytes(data[:-2])
    with pytest.raises(RecordFormatError, match="truncated record"):
        RecordFile(good)


def test_precompute_empty_dataset(tmp_path):
    g = _triangle()
    cfg = SamplingOperatorSet(variant="PoS", r=1, h=1)
    stats = precompute_dataset(g, np.zeros((0, 3), dtype=np.int64), cfg,
                               tmp_path / "empty.rec")
    assert stats.record_count == 0
    assert stats.total_bytes == 6
    assert len(RecordFile(tmp_path / "empty.rec")) == 0


def test_precompute_total_bytes_formula(tmp_path):
    rng = np.random.default_rng(49)
    g = gnp_graph(rng, n_lo=10, n_hi=10, p=0.4, features=2)
    cfg = SamplingOperatorSet(variant="PoS", r=3, h=2)
    links = np.array([[0, 1, 1], [2, 3, 0], [4, 5, 0], [6, 7, 1]])
    stats = precompute_dataset(g, links, cfg, tmp_path / "d.rec")
    w = cfg.block_width(g)
    per_record = 17 + 4 * 2 + (cfg.r + 1) * 2 * w * 4
    assert stats.total_bytes == 6 + 4 * per_record
    assert stats.record_count == 4
    assert stats.wall_time_s > 0 and stats.records_per_sec > 0


def test_precompute_manifest(tmp_path):
    rng = np.random.default_rng(50)
    g = gnp_graph(rng, n_lo=10, n_hi=10, p=0.5)
    cfg = SamplingOperatorSet(variant="PoSPlus", r=1, h=2)
    links = np.array([[0, 1, 1], [2, 3, 0], [4, 5, 1]])
    path = tmp_path / "d.rec"
    precompute_dataset(g, links, cfg, path, seed=3)
    with open(manifest_path(path)) as fh:
        manifest = json.load(fh)
    assert manifest["counts"] == {"records": 3, "positives": 2, "negatives": 1}
    assert manifest["config"]["variant"] == "PoSPlus"
    assert manifest["config"]["seed"] == 3
    assert manifest["w"] == cfg.block_width(g)
    assert manifest["p_max"] >= 2
    digest = "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()
    assert manifest["checksum"] == digest
    # a reader notices a stale manifest
    manifest["counts"]["records"] = 5
    manifest_path(path).write_text(json.dumps(manifest))
    with pytest.raises(RecordFormatError, match="manifest"):
        RecordFile(path)


@pytest.mark.parametrize("variant,extra", [
    ("PoS", {}),
    ("PoSScaLed", {"k": 2, "l": 2}),
    ("SoP", {}),
])
def test_precompute_worker_count_invariance(tmp_path, variant, extra):
    rng = np.random.default_rng(51)
    g = gnp_graph(rng, n_lo=14, n_hi=14, p=0.3)
    cfg = SamplingOperatorSet(variant=variant, r=2, h=2, **extra)
    edges = g.edge_array()[:6]
    links = np.concatenate([edges, np.ones((6, 1), dtype=np.int64)], axis=1)
    p1 = tmp_path / "w1.rec"
    p4 = tmp_path / "w4.rec"
    precompute_dataset(g, links, cfg, p1, worker_count=1, seed=9)
    precompute_dataset(g, links, cfg, p4, worker_count=4, seed=9)
    assert p1.read_bytes() == p4.read_bytes()


def test_failed_precompute_leaves_target_untouched(tmp_path, monkeypatch):
    import difflink.records as records

    rng = np.random.default_rng(53)
    g = gnp_graph(rng, n_lo=20, n_hi=20, p=0.3)
    cfg = SamplingOperatorSet(variant="PoS", r=1, h=1)
    links = np.array([[i % 20, (i + 1) % 20, i % 2] for i in range(130)])
    kept = tmp_path / "kept.rec"
    precompute_dataset(g, links, cfg, kept)
    before = kept.read_bytes()

    real = records.build_link_record
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) > 70:  # partway through the second 64-link chunk
            raise RuntimeError("build failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(records, "build_link_record", failing)
    for target in (kept, tmp_path / "fresh.rec"):
        calls.clear()
        with pytest.raises(RuntimeError, match="build failed"):
            precompute_dataset(g, links, cfg, target)
    assert kept.read_bytes() == before
    assert len(RecordFile(kept)) == 130  # the old manifest still matches
    assert not (tmp_path / "fresh.rec").exists()

    def some_records():
        yield real(g, (0, 1, 1), cfg)
        raise RuntimeError("source failed")

    with pytest.raises(RuntimeError, match="source failed"):
        write_records(tmp_path / "w.rec", some_records())
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "kept.rec", "kept.rec.manifest.json"]


def test_storage_comparison_matches_actual_file(tmp_path):
    rng = np.random.default_rng(52)
    g = gnp_graph(rng, n_lo=12, n_hi=12, p=0.4, features=3)
    cfg = SamplingOperatorSet(variant="PoSPlus", r=2, h=2)
    edges = g.edge_array()[:5]
    links = np.concatenate([edges, np.ones((5, 1), dtype=np.int64)], axis=1)
    stats = precompute_dataset(g, links, cfg, tmp_path / "d.rec")
    report = storage_comparison(g, links, cfg)
    assert report.record_bytes == stats.total_bytes
    assert report.num_links == 5
    assert report.seal_bytes > 0


def test_storage_comparison_degenerate_not_clamped():
    # isolated endpoints: the h-hop subgraph is just {u, v}
    g = build_graph(4, [(2, 3)])
    cfg = SamplingOperatorSet(variant="PoS", r=3, h=2)
    report = storage_comparison(g, [(0, 1, 0)], cfg)
    assert report.seal_bytes == 2 * cfg.block_width(g) * 4
    assert report.reduction_pct < 0


def test_storage_reduction_grows_with_subgraph_size():
    rng = np.random.default_rng(53)
    g = gnp_graph(rng, n_lo=60, n_hi=60, p=0.15)
    cfg = SamplingOperatorSet(variant="PoS", r=3, h=2)
    edges = g.edge_array()[:20]
    links = np.concatenate([edges, np.ones((20, 1), dtype=np.int64)], axis=1)
    report = storage_comparison(g, links, cfg)
    assert report.reduction_pct > 50
