import hashlib
import json
from functools import cached_property

import numpy as np
import pytest

from difflink import (Graph, LinkRecord, Pooling, RecordFile,
                      RecordFormatError, SamplingOperatorSet, Variant,
                      build_graph, precompute_dataset, storage_comparison,
                      walk_subgraphs)
from difflink.model import TrainConfig, train
from difflink import store
from difflink.records import _link_records, _walk_seed
from difflink.store import CHUNK_LINKS, _encode, _record_buffer, manifest_path

from conftest import gnp_graph, hub_graph, hub_links, random_pair, same_record
from oracles import (dense_record_blocks, link_record, pack_batch, pad_batch,
                     seal_bytes, serialize_reference, sparse_chunk,
                     stack_reference, to_nx, write_reference)


def _triangle():
    return build_graph(3, [(0, 1), (1, 2), (0, 2)])


def _encoded(recs) -> bytes:
    """The bytes the chunk encoder gives ``recs``, encoded as one chunk."""
    links = np.array([(rec.u, rec.v, rec.label) for rec in recs], dtype=np.int64)
    starts = np.cumsum([0] + [rec.pooled_count for rec in recs])
    return _encode(links, np.concatenate([rec.pooled_ids for rec in recs]), starts,
                   np.concatenate([rec.blocks for rec in recs], axis=1))


def _read_back(tmp_path, blob: bytes) -> list:
    """The records of a file that holds the record bytes ``blob``, read
    without a manifest."""
    path = tmp_path / "read_back.rec"
    path.write_bytes(b"S3GR\x02\x00" + blob)
    with RecordFile(path, verify=False) as rf:
        return list(rf)


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
    with pytest.raises(ValueError):
        SamplingOperatorSet(variant="NotAVariant", h=1)
    # the record header stores r+1 and p as u16
    with pytest.raises(ValueError, match="^r: "):
        SamplingOperatorSet(variant="PoS", r=65535, h=1)
    with pytest.raises(ValueError, match="ccn_cap"):
        SamplingOperatorSet(variant="PoSPlus", h=1, ccn_cap=65534)
    # integer fields take no bool and no float, even 3.0; numpy ints pass
    for field, bad in [("r", 2.5), ("r", True), ("h", 2.0), ("h", np.True_),
                       ("k", 2.0), ("l", 1.5), ("label_cap", 10.0),
                       ("ccn_cap", 3.0), ("ccn_cap", False)]:
        with pytest.raises(ValueError, match=f"^{field}: "):
            SamplingOperatorSet(**{"variant": "PoSPlusScaLed", "h": 1, "k": 2,
                                   "l": 3, field: bad})
    SamplingOperatorSet(variant="PoSPlusScaLed", r=np.int64(2), h=np.int32(1),
                        k=np.int64(2), l=np.uint8(3), label_cap=np.int64(5),
                        ccn_cap=np.int16(4))
    # normalized takes a bool only: a truthy string must not switch it on
    for bad in ("no", None, 1):
        with pytest.raises(ValueError, match="^normalized: "):
            SamplingOperatorSet(variant="PoS", h=1, normalized=bad)
    assert SamplingOperatorSet(variant="PoS", h=1, normalized=np.True_).normalized is True
    # SoP sums plain adjacency rows, so it refuses degree-normalized ones
    with pytest.raises(ValueError, match="^normalized: "):
        SamplingOperatorSet(variant="SoP", normalized=True)


def test_operator_set_echo_round_trips():
    cfg = SamplingOperatorSet(variant="PoSPlus", r=2, h=2,
                              labeling="drnl", label_cap=10)
    echo = cfg.echo()
    assert echo["variant"] == "PoSPlus" and echo["pooling"] == "CCN"
    assert "ccn_rule" in echo
    assert json.loads(json.dumps(echo)) == echo
    # variant and labeling take any case; the echo stays canonical
    assert SamplingOperatorSet(variant="posplus", r=2, h=2, labeling="DRNL",
                               label_cap=10).echo() == echo


def test_record_identity_block():
    # operator 0 holds the labeled feature rows of the pooled nodes:
    # the targets (label 1) and, under CCN, common neighbor 2 (label 0)
    g = _triangle()
    for variant in ("PoS", "PoSPlus"):
        cfg = SamplingOperatorSet(variant=variant, r=1, h=1)
        rec = link_record(g, (0, 1, 1), cfg)
        expected = [[0.0, 1.0, 1.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]]
        assert rec.blocks[0].tolist() == expected[:rec.pooled_count]
        assert np.array_equal(rec.blocks, dense_record_blocks(g, (0, 1, 1), cfg))
    assert rec.pooled_ids.tolist() == [0, 1, 2]


def test_record_triangle_two_walks():
    # triangle minus the target edge is a path; two 2-walks from each end
    g = _triangle()
    cfg = SamplingOperatorSet(variant="PoS", r=2, h=1)
    rec = link_record(g, (0, 1, 1), cfg)
    # the raw (implicit all-ones) column counts walks of length 0, 1, 2
    assert rec.blocks[:, 0, -1].tolist() == [1.0, 1.0, 2.0]
    assert rec.blocks[:, 1, -1].tolist() == [1.0, 1.0, 2.0]
    assert np.array_equal(rec.blocks, dense_record_blocks(g, (0, 1, 1), cfg))


def test_record_blocks_match_dense_power():
    # every power of every pooled row (targets and common neighbors)
    # against dense matrix powers of the dense induced subgraph
    rng = np.random.default_rng(41)
    for trial in range(60):
        g = gnp_graph(rng, features=2 if trial % 2 else None)
        u, v = random_pair(rng, g.num_nodes)
        r = int(rng.integers(1, 4))
        variant = "PoSPlus" if trial % 3 else "PoS"
        cfg = SamplingOperatorSet(variant=variant, r=r, h=2)
        rec = link_record(g, (u, v, int(trial % 2)), cfg)
        assert rec.blocks.shape[0] == r + 1
        expected = dense_record_blocks(g, (u, v, 0), cfg)
        assert np.allclose(rec.blocks, expected, rtol=1e-6, atol=1e-6)
    with pytest.raises(ValueError, match="^r: "):
        SamplingOperatorSet(variant="PoS", r=-1, h=2)
    with pytest.raises(ValueError, match="out of range"):
        link_record(g, (0, g.num_nodes, 1), cfg)


def test_sop_operators_use_power_subgraphs():
    # path 0-1-2-3-4, link (0, 4), h=1: operator 1 works on the 1-hop
    # subgraph of G and operator 2 on the 1-hop subgraph of G^2
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    cfg = SamplingOperatorSet(variant="SoP", r=2, h=1, labeling="drnl")
    rec = link_record(g, (0, 4, 0), cfg)
    assert np.array_equal(rec.blocks, dense_record_blocks(g, (0, 4, 0), cfg))
    label_dim = cfg.label_dim()
    # in G, nodes 1 and 3 each see one target; in G^2, node 2 sees both
    # (distances 1 and 1, DRNL label 2), nodes 1 and 3 too (1 and 2: label 3)
    assert rec.blocks[1, 0, :label_dim].nonzero()[0].tolist() == [0]
    assert rec.blocks[2, 0, :label_dim].nonzero()[0].tolist() == [2, 3]
    assert rec.blocks[2, 0, -1] == 2.0  # u's neighbors in G^2 minus v
    with pytest.raises(ValueError, match="^r: "):
        SamplingOperatorSet(variant="SoP", r=0, h=1)


def test_center_record_shapes():
    g = gnp_graph(np.random.default_rng(42), n_lo=8, n_hi=8)
    cfg = SamplingOperatorSet(variant="PoS", r=3, h=2)
    rec = link_record(g, (0, 1, 1), cfg)
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
        rec = link_record(g, (u, v, 0), cfg, seed=5)
        label_dim = cfg.label_dim()
        # row for u: one-hot label 1, then u's raw features
        expected = np.zeros(cfg.block_width(g), dtype=np.float32)
        expected[1] = 1.0
        expected[label_dim:] = g.features.toarray()[u]
        assert np.array_equal(rec.blocks[0, 0], expected)


def test_ccn_pooled_ids_order_and_cap():
    # hub-heavy graph: common neighbors sorted by degree desc, id asc
    edges = [(0, 1)]
    for w in (2, 3, 4):
        edges += [(0, w), (1, w)]
    edges += [(4, 5), (4, 6)]  # raise node 4's degree
    g = build_graph(7, edges)
    cfg = SamplingOperatorSet(variant="PoSPlus", r=1, h=1)
    rec = link_record(g, (0, 1, 1), cfg)
    assert rec.pooled_ids.tolist() == [0, 1, 4, 2, 3]
    capped = SamplingOperatorSet(variant="PoSPlus", r=1, h=1, ccn_cap=2)
    rec2 = link_record(g, (0, 1, 1), capped)
    assert rec2.pooled_ids.tolist() == [0, 1, 4, 2]


def test_scaled_absent_pooled_nodes_get_zero_rows():
    rng = np.random.default_rng(44)
    saw_absent = False
    for trial in range(80):
        g = gnp_graph(rng, n_lo=8, n_hi=12, p=0.4)
        u, v = random_pair(rng, g.num_nodes)
        cfg = SamplingOperatorSet(variant="PoSPlusScaLed", r=2, h=1, k=1, l=1)
        rec = link_record(g, (u, v, 1), cfg, seed=trial)
        [sub] = walk_subgraphs(g, [u], [v], 1, 1, [_walk_seed(trial, u, v, 1)])
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
    rec = link_record(g, (u, v, 1), cfg)
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
        yield (link_record(g, (u, v, 1), cfg, seed=trial),
               link_record(g_minus, (u, v, 1), cfg, seed=trial))


@pytest.mark.parametrize("labeling", ["zero_one", "drnl"])
@pytest.mark.parametrize("variant", [v.value for v in Variant])
def test_record_ignores_target_edge(variant, labeling):
    # README: the candidate link is removed before sampling, so a train
    # positive's record must not depend on whether its edge is in G.
    for on_g, on_g_minus in _records_with_and_without_target(variant,
                                                             labeling):
        assert np.array_equal(on_g.pooled_ids, on_g_minus.pooled_ids)
        assert np.array_equal(on_g.blocks, on_g_minus.blocks)


@pytest.mark.parametrize("labeling", ["zero_one", "drnl"])
def test_sop_matches_oracle_on_hub_graphs(labeling):
    # Hub links, leaf pairs, duplicates and reversed copies, and negatives
    # whose other end is an isolated node. With the hub as x, o's BFS runs
    # over the sparse leaf edges, which gives DRNL distances deeper than
    # 2h. A chunk's records are the records built alone.
    rng = np.random.default_rng(61)
    deepest = 0
    for trial in range(12):
        g = hub_graph(rng, leaves=int(rng.integers(10, 31)), isolated=True)
        n = g.num_nodes
        u, v = hub_links(rng, n - 1)
        far = rng.choice(np.arange(n - 1), 3, replace=False)
        u, v = np.concatenate([u, far]), np.concatenate([v, np.full(3, n - 1)])
        pairs = {tuple(e) for e in g.edge_array().tolist()}
        links = np.column_stack([u, v, [int((min(a, b), max(a, b)) in pairs)
                                        for a, b in zip(u, v)]])
        h = int(rng.integers(1, 3))
        cfg = SamplingOperatorSet(variant="SoP", r=int(rng.integers(2, 5)), h=h,
                                  labeling=labeling)
        pooled, starts, blocks = _link_records(g, links, cfg, 0)
        for b, link in enumerate(links.tolist()):
            got = blocks[:, starts[b]:starts[b + 1]]
            assert np.array_equal(got, dense_record_blocks(g, link, cfg))
            assert got.tobytes() == link_record(g, link, cfg).blocks.tobytes()
            if link[1] == n - 1:
                # o is isolated: its balls are empty, and every node of x's
                # balls is labelled 0, as o is unreachable
                assert not got[1:, 1].any()
                assert not got[1:, 0, 1:cfg.label_dim()].any()
            labels = got[1:, :, :cfg.label_dim()].nonzero()[2]
            if labeling == "drnl" and labels.shape[0]:
                # column of d_x = 1, d_o: drnl(1, d) grows with d
                deepest = max(deepest, int(labels.max()) - _drnl_label(1, 2 * h))
    if labeling == "drnl":
        assert deepest > 0


def test_sop_h_sets_only_the_drnl_labels():
    # operator i sums each target's i-hop ball in G - (u, v), which no h
    # bounds; h sets only the blocks DRNL distances are measured in
    from difflink import labeled_links, split_edges
    from difflink.datasets import ns_like

    split = split_edges(ns_like(seed=0), seed=0)
    graph, links = split.observed_graph, labeled_links(split, "train")[:128]
    def built(labeling, h):
        config = SamplingOperatorSet(variant="SoP", r=3, h=h, labeling=labeling)
        return [a.tobytes() for a in _link_records(graph, links, config, 0)]

    assert built("zero_one", 1) == built("zero_one", 2) == built("zero_one", 3)
    assert built("drnl", 1) != built("drnl", 2)


def _drnl_label(du, dv):
    s = du + dv
    return 1 + min(du, dv) + (s // 2) * ((s // 2) + (s % 2) - 1)


def test_build_link_record_rejects_bad_label():
    g = _triangle()
    cfg = SamplingOperatorSet(variant="PoS", r=1, h=1)
    with pytest.raises(ValueError):
        link_record(g, (0, 1, 2), cfg)


def test_record_byte_size_independent_of_h(tmp_path):
    rng = np.random.default_rng(46)
    g = gnp_graph(rng, n_lo=10, n_hi=12, p=0.4, features=4)
    u, v = random_pair(rng, g.num_nodes)
    sizes = set()
    payloads = []
    for h in (1, 2, 3):
        cfg = SamplingOperatorSet(variant="PoS", r=3, h=h)
        rec = link_record(g, (u, v, 1), cfg)
        blob = _encoded([rec])
        assert blob == serialize_reference(rec)
        # the logical size is the dense form's; a sparse form is smaller
        assert len(serialize_reference(rec, sparse=False)) == rec.byte_size()
        assert len(blob) <= rec.byte_size()
        sizes.add(rec.byte_size())
        payloads.append(blob)
    assert len(sizes) == 1
    # sizes identical, payload contents legitimately differ
    assert rec.byte_size() == 21 + 4 * 2 + 4 * 4 * 2 * cfg.block_width(g)


def test_serialize_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(47)
    g = gnp_graph(rng, n_lo=8, n_hi=12, features=3)
    cfg = SamplingOperatorSet(variant="PoSPlus", r=2, h=2, labeling="drnl")
    u, v = random_pair(rng, g.num_nodes)
    rec = link_record(g, (u, v, 1), cfg)
    blob = _encoded([rec])
    assert blob == serialize_reference(rec)
    [back] = _read_back(tmp_path, blob)
    assert (back.u, back.v, back.label) == (rec.u, rec.v, rec.label)
    assert np.array_equal(back.pooled_ids, rec.pooled_ids)
    assert back.blocks.tobytes() == rec.blocks.tobytes()
    assert _encoded([back]) == blob


def _nnz_field(blob: bytes) -> int:
    return int.from_bytes(blob[17:21], "little")


def test_negative_zero_and_all_zero_records_round_trip(tmp_path):
    blocks = np.zeros((2, 3, 8), dtype=np.float32)
    blocks[0, 1, 2] = -0.0
    blocks[1, 2, 5] = 1.5
    signed = LinkRecord(3, 4, 1, np.array([3, 4, 9]), blocks)
    empty = LinkRecord(5, 6, 0, np.array([5, 6, 7]), np.zeros_like(blocks))
    for rec, nnz in ((signed, 2), (empty, 0)):     # -0.0 is a nonzero
        blob = _encoded([rec])
        assert blob == serialize_reference(rec)
        assert _nnz_field(blob) == nnz
        assert len(blob) == 21 + 4 * 3 + 8 * nnz
        [back] = _read_back(tmp_path, blob)
        assert back.blocks.tobytes() == rec.blocks.tobytes()
    path = tmp_path / "zeros.rec"
    write_reference(path, [signed, empty])
    z, mask, _ = pad_batch(RecordFile(path).batch([1, 0, 1]))
    assert z.tobytes() == stack_reference([empty, signed, empty])[0].tobytes()
    assert np.signbit(z[1, 1, 2]) and np.count_nonzero(z) == 1


def test_chunk_stays_dense_above_an_eighth_nonzero(tmp_path):
    # 8 bytes a stored nonzero against 4 a dense value: a chunk goes sparse
    # while its sparse payload is at most a quarter of its dense one
    for nonzero, sparse in ((8, True), (9, False), (64, False)):
        blocks = np.zeros((2, 2, 16), dtype=np.float32)
        blocks.reshape(-1)[:nonzero] = np.arange(1, nonzero + 1)
        rec = LinkRecord(0, 1, 1, np.arange(2), blocks)
        blob = _encoded([rec])
        assert blob == serialize_reference(rec, sparse)
        assert (_nnz_field(blob) == 0xFFFFFFFF) != sparse
        assert (len(blob) == rec.byte_size()) != sparse
        assert _read_back(tmp_path, blob)[0].blocks.tobytes() == blocks.tobytes()


@pytest.mark.parametrize("piece", [None, 97])      # held whole, streamed
def test_file_of_dense_and_sparse_chunks_batches_across_both(tmp_path,
                                                            monkeypatch, piece):
    rng = np.random.default_rng(62)
    dense = [LinkRecord(i, i + 1, 1, np.arange(3), rng.random((2, 3, 6), np.float32)
                        + 1) for i in range(CHUNK_LINKS)]
    sparse = [LinkRecord(i, i + 2, 0, np.arange(3), np.zeros((2, 3, 6), np.float32))
              for i in range(10)]
    for rec in sparse:
        rec.blocks[rng.integers(2), rng.integers(3), rng.integers(6)] = rng.random()
    recs = dense + sparse
    path = tmp_path / "mixed.rec"
    write_reference(path, recs)
    assert path.read_bytes()[6:] == b"".join(
        [serialize_reference(rec, False) for rec in dense]
        + [serialize_reference(rec, True) for rec in sparse])
    assert path.read_bytes()[6:] == _encoded(dense) + _encoded(sparse)
    if piece is not None:
        monkeypatch.setattr(store, "READ_PIECE", piece)
    with RecordFile(path) as rf:
        for index in (rng.permutation(len(recs)), np.array([70, 3, 70, 63, 64])):
            for dtype in (np.float32, np.float64):
                got = rf.batch(index, dtype)
                want = pack_batch(stack_reference([recs[i] for i in index], dtype))
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
        assert [r.blocks.tobytes() for r in rf] == [r.blocks.tobytes() for r in recs]


def _sparse_pair_file(tmp_path, edit):
    """A file of two sparse records, p = 2 then p = 3, whose first record's
    positions ``edit`` rewrites (bytes 35 to 43 of the file)."""
    rows = [np.zeros((1, p, 16), dtype=np.float32) for p in (2, 3)]
    rows[0][0, :, 1] = (1.0, 2.0)
    rows[1][0, 2, 9] = 3.0
    blob = bytearray(b"S3GR\x02\x00")
    for i, blocks in enumerate(rows):
        blob += serialize_reference(LinkRecord(i, i + 1, 1, np.arange(blocks.shape[1]),
                                               blocks))
    pos = np.frombuffer(bytes(blob[35:43]), "<u4").copy()
    assert pos.tolist() == [1, 17]                  # (node, column) (0, 1), (1, 1)
    blob[35:43] = edit(pos).astype("<u4").tobytes()
    path = tmp_path / "edited.rec"
    path.write_bytes(bytes(blob))
    return path


@pytest.mark.parametrize("edit", [
    lambda pos: np.array([1, 40]),     # in the batch row padded to p = 3,
                                       # past the record's own 2 * 16 values
    lambda pos: np.array([1, 60]),     # in the next record's batch row
    lambda pos: np.array([17, 1]),     # decreasing
    lambda pos: np.array([17, 17]),    # repeated
    lambda pos: np.array([1, 2**32 - 1]),
], ids=["out-of-range", "next-row", "decreasing", "repeated", "huge"])
def test_bad_sparse_positions_raise_without_verify(tmp_path, edit):
    # nothing but the decoder guards these: no manifest, no checksum
    path = _sparse_pair_file(tmp_path, edit)
    named = str(path).replace("\\", "\\\\") + ".*sparse positions"
    with RecordFile(path, verify=False) as rf:
        assert len(rf) == 2
        for read in (lambda: rf.batch([0, 1]), lambda: rf.batch([0]),
                     lambda: rf[0], lambda: list(rf)):
            with pytest.raises(RecordFormatError, match=named):
                read()
        assert rf[1].blocks[0, 2, 9] == 3.0
    good = _sparse_pair_file(tmp_path, lambda pos: pos)
    z = pad_batch(RecordFile(good, verify=False).batch([0, 1]))[0]
    assert z[0, :, 1].tolist() == [1, 2, 0] and np.count_nonzero(z[0]) == 2


def test_version_1_file_is_refused(tmp_path):
    path = tmp_path / "old.rec"
    path.write_bytes(b"S3GR\x01\x00" + bytes(40))
    for verify in (True, False):
        with pytest.raises(RecordFormatError, match=str(path) + ".*version 1.*version 2"):
            RecordFile(path, verify=verify)


def test_write_and_read_records(tmp_path):
    rng = np.random.default_rng(48)
    g = gnp_graph(rng, n_lo=10, n_hi=10, p=0.4)
    cfg = SamplingOperatorSet(variant="PoS", r=1, h=2)
    links = [(0, 1, 1), (2, 3, 0), (4, 5, 1)]
    recs = [link_record(g, ln, cfg) for ln in links]
    path = tmp_path / "x.rec"
    write_reference(path, recs)
    rf = RecordFile(path)
    assert len(rf) == 3
    assert [r.u for r in rf] == [0, 2, 4]
    assert serialize_reference(rf[1]) == serialize_reference(recs[1])


def _shaped_records(rng, shapes):
    return [LinkRecord(i, i + 1, i % 2, rng.permutation(9)[:p],
                       rng.random((r1, p, w), dtype=np.float32))
            for i, (r1, p, w) in enumerate(shapes)]


@pytest.mark.parametrize("at", [5, CHUNK_LINKS + 6])   # in the first chunk, after it
@pytest.mark.parametrize("shape", [(3, 2, 3), (2, 2, 5)], ids=["r1", "w"])
def test_write_records_refuses_a_second_shape(tmp_path, at, shape):
    # records of a second shape, as a list or as a file, are refused
    rng = np.random.default_rng(50)
    recs = _shaped_records(rng, [(2, 2, 3)] * at + [shape] + [(2, 2, 3)] * 3)
    with pytest.raises(ValueError, match="disagree on operator count or block width"):
        with _record_buffer(recs):                  # as predict takes a list
            pass
    path = tmp_path / "two_shapes.rec"
    write_reference(path, recs)
    with pytest.raises(RecordFormatError, match="disagree on operator count or block width"):
        with _record_buffer(path):                  # as predict takes a path
            pass


@pytest.mark.parametrize("piece", [None, 97])      # held whole, streamed
def test_record_file_refuses_a_second_shape(tmp_path, monkeypatch, piece):
    # two one-shape files' records behind one file header
    rng = np.random.default_rng(51)
    first, second = tmp_path / "first.rec", tmp_path / "second.rec"
    write_reference(first, _shaped_records(rng, [(2, 2, 3)] * (CHUNK_LINKS + 2)))
    write_reference(second, _shaped_records(rng, [(3, 2, 4)] * 3))
    path = tmp_path / "crafted.rec"
    path.write_bytes(first.read_bytes() + second.read_bytes()[6:])
    if piece is not None:
        monkeypatch.setattr(store, "READ_PIECE", piece)
    for verify in (True, False):
        with pytest.raises(RecordFormatError, match=str(path).replace("\\", "\\\\")
                           + ": records disagree on operator count or block width"):
            RecordFile(path, verify=verify)


@pytest.mark.parametrize("field, rec", [
    ("u", LinkRecord(-1, 1, 1, np.arange(2), np.zeros((2, 2, 3), np.float32))),
    ("v", LinkRecord(0, 2**32, 1, np.arange(2), np.zeros((2, 2, 3), np.float32))),
    ("label", LinkRecord(0, 1, 256, np.arange(2), np.zeros((2, 2, 3), np.float32))),
    ("p", LinkRecord(0, 1, 1, np.arange(2**16), np.zeros((1, 2**16, 1), np.float32))),
    ("r1", LinkRecord(0, 1, 1, np.arange(1), np.zeros((2**16, 1, 1), np.float32))),
], ids=["u", "v", "label", "p", "r1"])
def test_encoder_rejects_header_fields_out_of_range(field, rec):
    # the packed header would wrap these values and misalign later records
    r1, _, w = rec.blocks.shape
    good = LinkRecord(0, 1, 0, np.arange(2), np.zeros((r1, 2, w), np.float32))
    with pytest.raises(ValueError, match=f"record {field} outside"):
        _encoded([good, rec])


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
    rec = link_record(g, (0, 1, 1), cfg)
    good = tmp_path / "good.rec"
    write_reference(good, [rec])
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
    per_record = 21 + 4 * 2 + (cfg.r + 1) * 2 * w * 4
    manifest = json.loads(manifest_path(tmp_path / "d.rec").read_text())
    assert manifest["logical_bytes"] == 6 + 4 * per_record
    # random features leave these records dense: stored bytes are logical
    assert stats.total_bytes == manifest["total_bytes"] == 6 + 4 * per_record
    assert (tmp_path / "d.rec").stat().st_size == stats.total_bytes
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


def _mixed_links(rng, g, count):
    """``count`` links, positives (edges of g) and negatives interleaved."""
    edges = g.edge_array()
    pos = edges[rng.choice(edges.shape[0], count // 2, replace=False)]
    neg = np.asarray([random_pair(rng, g.num_nodes) for _ in range(count - count // 2)])
    links = np.concatenate([np.column_stack([pos, np.ones(len(pos), np.int64)]),
                            np.column_stack([neg, np.zeros(len(neg), np.int64)])])
    return links[rng.permutation(count)]


@pytest.mark.parametrize("variant,extra", [
    ("PoS", {}),
    ("PoSScaLed", {"k": 2, "l": 2}),
    ("SoP", {}),
    ("PoSPlus", {}),
    ("PoSPlusScaLed", {"k": 2, "l": 2}),
    ("PoS", {"labeling": "drnl"}),
    ("PoSPlus", {"labeling": "drnl"}),
    ("SoP", {"labeling": "drnl"}),
])
def test_precompute_worker_count_invariance(tmp_path, variant, extra):
    # 150 links span three chunks, so the pool splits the work
    rng = np.random.default_rng(51)
    g = gnp_graph(rng, n_lo=40, n_hi=40, p=0.12, features=2)
    cfg = SamplingOperatorSet(variant=variant, r=2, h=2, **extra)
    links = _mixed_links(rng, g, 150)
    assert links.shape[0] > 2 * CHUNK_LINKS
    p1 = tmp_path / "w1.rec"
    p4 = tmp_path / "w4.rec"
    precompute_dataset(g, links, cfg, p1, worker_count=1, seed=9)
    precompute_dataset(g, links, cfg, p4, worker_count=4, seed=9)
    assert p1.read_bytes() == p4.read_bytes()
    assert [[r.u, r.v, r.label] for r in RecordFile(p1)] == links.tolist()


@pytest.mark.parametrize("field,value", [
    ("worker_count", 2.5), ("worker_count", 0), ("worker_count", -1),
    ("worker_count", True), ("seed", 1.5), ("seed", -1)])
def test_precompute_rejects_bad_workers_and_seed(tmp_path, field, value):
    g = _triangle()
    cfg = SamplingOperatorSet(variant="PoSScaLed", r=1, h=1, k=2, l=2)
    path = tmp_path / "x.rec"
    with pytest.raises(ValueError, match=f"^{field}: "):
        precompute_dataset(g, [(0, 1, 1)], cfg, path, **{field: value})
    assert not path.exists()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("variant,graphs", [("PoS", 1), ("PoSPlus", 1),
                                            ("SoP", 1)])
def test_operands_are_built_once_per_graph(tmp_path, monkeypatch, workers,
                                           variant, graphs):
    # 150 links are three chunks. The column of ones every chunk's powers
    # are multiplied by on an unattributed graph is built once for G,
    # before the pool forks, never once per chunk. SoP sums the same
    # column over its balls in G - (u, v).
    rng = np.random.default_rng(57)
    g = gnp_graph(rng, n_lo=40, n_hi=40, p=0.12)
    links = _mixed_links(rng, g, 150)
    assert links.shape[0] > 2 * CHUNK_LINKS
    builds = []
    feature_rows = Graph.__dict__["_feature_rows"].func

    def counted(self):
        builds.append(self)
        return feature_rows(self)

    counted_property = cached_property(counted)
    counted_property.__set_name__(Graph, "_feature_rows")
    monkeypatch.setattr(Graph, "_feature_rows", counted_property)
    cfg = SamplingOperatorSet(variant=variant, r=3, h=1)
    precompute_dataset(g, links, cfg, tmp_path / "a.rec", worker_count=workers)
    assert len(builds) == graphs
    assert len({id(graph) for graph in builds}) == graphs
    assert builds[0] is g
    builds.clear()
    # storage sizes come from the reach alone
    storage_comparison(Graph(g.num_nodes, g.indptr, g.indices), links, cfg)
    assert builds == []


@pytest.mark.parametrize("workers", [1, 2])
def test_precompute_keeps_no_reference_to_its_inputs(tmp_path, workers):
    # once the call returns and the caller drops them, the graph and the
    # config are freed
    import gc
    import weakref

    rng = np.random.default_rng(62)
    g = gnp_graph(rng, n_lo=40, n_hi=40, p=0.12)
    cfg = SamplingOperatorSet(variant="SoP", r=3, h=1)
    precompute_dataset(g, _mixed_links(rng, g, 150), cfg, tmp_path / "a.rec",
                       worker_count=workers)
    refs = [weakref.ref(g), weakref.ref(cfg)]
    del g, cfg
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def _chunk_peak(variant: str, labeling: str) -> int:
    """The tracemalloc peak of building one ``CHUNK_LINKS`` chunk of
    yeast_like train links at r=3, h=2 (ScaLed: k=20, l=3)."""
    import tracemalloc

    from difflink import labeled_links, split_edges
    from difflink.datasets import yeast_like

    split = split_edges(yeast_like(seed=0), seed=0)
    links = labeled_links(split, "train")
    links = links[np.random.default_rng(0).choice(links.shape[0], CHUNK_LINKS,
                                                  replace=False)]
    graph = split.observed_graph
    walk = {"k": 20, "l": 3} if "ScaLed" in variant else {}
    cfg = SamplingOperatorSet(variant=variant, r=3, h=2, labeling=labeling, **walk)
    graph._feature_rows  # built once per graph, not part of a chunk
    tracemalloc.start()
    try:
        _link_records(graph, links, cfg, 0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("labeling", ["zero_one", "drnl"])
def test_sop_chunk_memory_is_bounded(labeling):
    # 3.04 GB of RSS when SoP sampled on whole-graph powers. Its balls in
    # G - (u, v) peak near 15 MB (zero_one) and 97 MB (drnl), and the peaks
    # vary a little between runs, so the bound keeps a wide margin.
    peak = _chunk_peak("SoP", labeling)
    assert peak < 256 << 20, peak


@pytest.mark.parametrize("labeling", ["zero_one", "drnl"])
@pytest.mark.parametrize("variant", [v.value for v in Variant if v is not Variant.SOP])
def test_chunk_memory_is_bounded(variant, labeling):
    # Peaks near 6 MB (PoS), 8 MB (PoSPlus) and 2 MB (ScaLed). The bound
    # is 4x the largest, and below the 45 MB of one dense float64 n x n
    # array of yeast_like's 2,375 nodes, so no whole-graph matrix fits.
    peak = _chunk_peak(variant, labeling)
    assert peak < 32 << 20, peak


def test_failed_precompute_leaves_target_untouched(tmp_path, monkeypatch):
    import difflink.records as records

    rng = np.random.default_rng(53)
    g = gnp_graph(rng, n_lo=20, n_hi=20, p=0.3)
    cfg = SamplingOperatorSet(variant="PoS", r=1, h=1)
    links = np.array([[i % 20, (i + 1) % 20, i % 2] for i in range(130)])
    kept = tmp_path / "kept.rec"
    precompute_dataset(g, links, cfg, kept)
    before = kept.read_bytes()

    real = records._link_records
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) > 1:  # the second 64-link chunk
            raise RuntimeError("build failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(records, "_link_records", failing)
    for target in (kept, tmp_path / "fresh.rec"):
        calls.clear()
        with pytest.raises(RuntimeError, match="build failed"):
            precompute_dataset(g, links, cfg, target)
    assert kept.read_bytes() == before
    assert len(RecordFile(kept)) == 130  # the old manifest still matches
    assert not (tmp_path / "fresh.rec").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "kept.rec", "kept.rec.manifest.json"]


def test_interrupted_manifest_write_keeps_the_previous_pair(tmp_path, monkeypatch):
    rng = np.random.default_rng(54)
    g = gnp_graph(rng, n_lo=20, n_hi=20, p=0.3)
    cfg = SamplingOperatorSet(variant="PoS", r=1, h=1)
    path = tmp_path / "x.rec"
    precompute_dataset(g, np.array([[i % 20, (i + 1) % 20, i % 2] for i in range(40)]),
                       cfg, path)
    before = [p.read_bytes() for p in (path, manifest_path(path))]

    def interrupted(obj, fh, **kwargs):
        fh.write('{"format": ')
        raise KeyboardInterrupt

    monkeypatch.setattr(json, "dump", interrupted)
    with pytest.raises(KeyboardInterrupt):
        precompute_dataset(g, np.array([[0, 1, 1], [2, 3, 0]]), cfg, path)
    monkeypatch.undo()
    assert [p.read_bytes() for p in (path, manifest_path(path))] == before
    assert len(RecordFile(path)) == 40
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.rec", "x.rec.manifest.json"]


@pytest.mark.parametrize("links, shape", [
    ([[0, 2], [1, 0], [23, 0]], r"\(3, 2\) of int"),    # read as 2 links before
    ([[0.0, 2.7, 1.0]], r"\(1, 3\) of float"),          # ids were truncated
    ([0, 1, 1], r"\(3,\) of int"),
    ([[[0, 1, 1]]], r"\(1, 1, 3\) of int"),
], ids=["two-columns", "float", "flat", "3-d"])
def test_links_must_be_an_n_by_3_integer_array(tmp_path, links, shape):
    g = hub_graph(np.random.default_rng(55))
    cfg = SamplingOperatorSet(variant="PoS", r=1, h=1)
    match = r"^links: expected an \(n, 3\) integer array .*got shape " + shape
    with pytest.raises(ValueError, match=match):
        precompute_dataset(g, links, cfg, tmp_path / "x.rec")
    with pytest.raises(ValueError, match=match):
        storage_comparison(g, links, cfg)
    assert list(tmp_path.iterdir()) == []


def test_storage_comparison_matches_actual_file(tmp_path):
    rng = np.random.default_rng(52)
    g = gnp_graph(rng, n_lo=12, n_hi=12, p=0.4, features=3)
    cfg = SamplingOperatorSet(variant="PoSPlus", r=2, h=2)
    edges = g.edge_array()[:5]
    links = np.concatenate([edges, np.ones((5, 1), dtype=np.int64)], axis=1)
    stats = precompute_dataset(g, links, cfg, tmp_path / "d.rec")
    report = storage_comparison(g, links, cfg)
    # the report counts records dense; these are stored dense too
    manifest = json.loads(manifest_path(tmp_path / "d.rec").read_text())
    assert report.record_bytes == manifest["logical_bytes"] == stats.total_bytes
    assert report.num_links == 5
    assert report.seal_bytes > 0


def test_storage_comparison_degenerate_not_clamped():
    # isolated endpoints: the h-hop subgraph is just {u, v}
    g = build_graph(4, [(2, 3)])
    cfg = SamplingOperatorSet(variant="PoS", r=3, h=2)
    report = storage_comparison(g, [(0, 1, 0)], cfg)
    assert report.seal_bytes == 2 * cfg.block_width(g) * 4
    assert report.reduction_pct < 0


@pytest.mark.parametrize("union_entries", [None, 16])
def test_storage_comparison_matches_networkx_oracle(monkeypatch, union_entries):
    # seal_bytes is counted from reach rows and the position table, without
    # building any union; it must match per-link networkx subgraphs
    import difflink.sampling as sampling

    if union_entries is not None:
        monkeypatch.setattr(sampling, "UNION_ENTRIES", union_entries)
    rng = np.random.default_rng(58)
    for trial in range(9):
        g = hub_graph(rng, isolated=True)
        n = g.num_nodes
        pairs = list(zip(*hub_links(rng, n - 1)))
        pairs += [(n - 1, 0), (3, n - 1)]          # an isolated endpoint
        links = np.asarray([(a, b, i % 2) for i, (a, b) in enumerate(pairs)])
        h = 1 + trial % 3
        cfg = SamplingOperatorSet(variant="PoS", r=2, h=h)
        w = cfg.block_width(g)
        report = storage_comparison(g, links, cfg)
        assert report.seal_bytes == seal_bytes(to_nx(g), pairs, h, w)


def test_storage_reduction_grows_with_subgraph_size():
    rng = np.random.default_rng(53)
    g = gnp_graph(rng, n_lo=60, n_hi=60, p=0.15)
    cfg = SamplingOperatorSet(variant="PoS", r=3, h=2)
    edges = g.edge_array()[:20]
    links = np.concatenate([edges, np.ones((20, 1), dtype=np.int64)], axis=1)
    report = storage_comparison(g, links, cfg)
    assert report.reduction_pct > 50


def _one_hot_features(g, rng, width=100):
    """``g`` with ``width`` features a node, one of them nonzero: records
    sparse enough to be stored sparse."""
    feats = np.eye(width, dtype=np.float32)[rng.integers(width, size=g.num_nodes)]
    return build_graph(g.num_nodes, g.edge_array(), features=feats)


def _edge_case_chunk(rng):
    """A graph with an isolated node and one chunk of awkward links."""
    g0 = gnp_graph(rng, n_lo=16, n_hi=16, p=0.35, features=2)
    n = g0.num_nodes + 1                       # node n - 1 is isolated
    feats = np.concatenate([g0.features.toarray(), rng.random((1, 2), dtype=np.float32)])
    g = build_graph(n, g0.edge_array(), features=feats)
    a, b = (int(x) for x in g.edge_array()[0])
    c, d = random_pair(rng, n - 1)
    links = [(a, b, 1), (a, b, 1),             # duplicate link
             (b, a, 1),                        # (v, u) next to (u, v)
             (a, b, 0),                        # same pair as a negative
             (c, n - 1, 0), (n - 1, d, 1),     # an isolated endpoint
             (c, d, 0), (c, d, 1)]
    links += [(*random_pair(rng, n), int(rng.integers(2))) for _ in range(40)]
    return g, np.asarray(links, dtype=np.int64)


@pytest.mark.parametrize("labeling", ["zero_one", "drnl"])
@pytest.mark.parametrize("variant", [v.value for v in Variant])
def test_chunk_record_equals_record_built_alone(tmp_path, variant, labeling):
    rng = np.random.default_rng(54)
    g, links = _edge_case_chunk(rng)
    walk = {"k": 1, "l": 1} if "ScaLed" in variant else {}
    cfg = SamplingOperatorSet(variant=variant, r=3, h=2, labeling=labeling,
                              **walk)
    path = tmp_path / "chunk.rec"
    precompute_dataset(g, links, cfg, path, seed=4)
    recs = list(RecordFile(path))
    assert len(recs) == links.shape[0] <= CHUNK_LINKS
    absent_rows = 0
    for rec, link in zip(recs, links.tolist()):
        alone = link_record(g, link, cfg, seed=4)
        assert same_record(rec, alone)
        if walk:
            [sub] = walk_subgraphs(g, [link[0]], [link[1]], 1, 1,
                                    [_walk_seed(4, *link)])
            absent = ~np.isin(rec.pooled_ids, sub.global_ids)
            assert not rec.blocks[:, absent].any()
            absent_rows += int(absent.sum())
    if variant == "PoSPlusScaLed":
        assert absent_rows > 0  # a pooled node missed by the walks
    # the isolated endpoint's record: only u and v, no diffusion mass
    # between them
    iso = recs[4]
    assert iso.pooled_count == 2 and not iso.blocks[1:, 1].any()


@pytest.mark.parametrize("variant", [v.value for v in Variant])
def test_chunk_engine_on_empty_link_list(tmp_path, variant):
    g = _triangle()
    walk = {"k": 1, "l": 1} if "ScaLed" in variant else {}
    cfg = SamplingOperatorSet(variant=variant, r=2, h=1, **walk)
    empty = np.zeros((0, 3), dtype=np.int64)
    stats = precompute_dataset(g, empty, cfg, tmp_path / "e.rec")
    assert (stats.record_count, stats.total_bytes) == (0, 6)
    report = storage_comparison(g, empty, cfg)
    assert (report.num_links, report.record_bytes, report.seal_bytes) == (0, 6, 0)
    assert np.isnan(report.reduction_pct)


@pytest.mark.parametrize("variant", [v.value for v in Variant])
def test_records_do_not_depend_on_how_a_chunk_is_split(tmp_path, monkeypatch,
                                                       variant):
    # dense graphs split a chunk into several unions, which may not change
    # a byte
    import difflink.sampling as sampling

    rng = np.random.default_rng(55)
    g, links = _edge_case_chunk(rng)
    walk = {"k": 2, "l": 2} if "ScaLed" in variant else {}
    cfg = SamplingOperatorSet(variant=variant, r=3, h=2, labeling="drnl",
                              **walk)
    whole = tmp_path / "whole.rec"
    precompute_dataset(g, links, cfg, whole, seed=2)
    monkeypatch.setattr(sampling, "UNION_ENTRIES", 16)
    unions = list(sampling.hop_subgraphs(g, links[:, 0], links[:, 1], 2))
    assert len(unions) > 1
    assert sum(len(sub.starts) - 1 for sub in unions) == links.shape[0]
    split = tmp_path / "split.rec"
    precompute_dataset(g, links, cfg, split, seed=2)
    assert split.read_bytes() == whole.read_bytes()


@pytest.mark.parametrize("labeling", ["zero_one", "drnl"])
@pytest.mark.parametrize("variant", [v.value for v in Variant])
def test_chunk_encoder_matches_serialize_record(tmp_path, variant, labeling):
    rng = np.random.default_rng(59)
    g, links = _edge_case_chunk(rng)
    walk = {"k": 2, "l": 2} if "ScaLed" in variant else {}
    cfg = SamplingOperatorSet(variant=variant, r=3, h=2, labeling=labeling,
                              **walk)
    forms = set()
    for graph in (g, _one_hot_features(g, rng)):
        pooled, starts, blocks = _link_records(graph, links, cfg, 4)
        recs = [LinkRecord(u, v, label, pooled[lo:hi], blocks[:, lo:hi])
                for (u, v, label), lo, hi in zip(links.tolist(), starts, starts[1:])]
        # the chunk picks one form for all its records
        sparse = sparse_chunk(recs)
        forms.add(sparse)
        blob = _encode(links, pooled, starts, blocks)
        assert blob == b"".join(serialize_reference(rec, sparse) for rec in recs)
        # a record decoded from the chunk is bit for bit the record alone
        back = _read_back(tmp_path, blob)
        assert len(back) == len(recs)
        for got, rec in zip(back, recs):
            assert got.blocks.tobytes() == rec.blocks.tobytes()
            assert got.pooled_ids.tolist() == rec.pooled_ids.tolist()
    # drnl's 101 one-hot label columns leave both chunks sparse
    assert forms == ({True} if labeling == "drnl" else {False, True})
    empty = np.zeros((0, 3), dtype=np.int64)
    assert _encode(empty, pooled[:0], starts[:1], blocks[:, :0]) == b""


@pytest.mark.parametrize("variant", ["PoS", "PoSPlus"])
def test_record_file_batch_matches_stack_records(tmp_path, variant):
    # Center files have one stride and are indexed as one strided view;
    # CCN files with mixed pooled counts are indexed by a header pass
    rng = np.random.default_rng(60)
    g, links = _edge_case_chunk(rng)
    links = np.concatenate([links, links[:30]])    # two chunks
    cfg = SamplingOperatorSet(variant=variant, r=2, h=2, labeling="drnl")
    path = tmp_path / "d.rec"
    precompute_dataset(g, links, cfg, path)
    rf = RecordFile(path)
    recs = list(rf)
    assert (len(set(rf.p.tolist())) > 1) == (variant == "PoSPlus")
    sizes = [len(serialize_reference(rec)) for rec in recs]
    assert rf.offsets.tolist() == (6 + np.cumsum([0] + sizes[:-1])).tolist()
    assert rf.p.tolist() == [rec.pooled_count for rec in recs]
    assert rf.labels.tolist() == links[:, 2].tolist()
    for index in (rng.permutation(len(rf)), rng.integers(len(rf), size=40),
                  np.array([5]), np.array([7, 7, 7])):
        picked = [recs[i] for i in index]
        for dtype in (np.float32, np.float64):
            got = rf.batch(index, dtype)
            with _record_buffer(picked) as listed:      # as predict batches a list
                in_memory = listed.batch(np.arange(len(picked)), dtype)
            for want in (pack_batch(stack_reference(picked, dtype)), in_memory):
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and np.array_equal(a, b)


def test_flipped_payload_byte_fails_checksum(tmp_path):
    rng = np.random.default_rng(61)
    g = gnp_graph(rng, n_lo=14, n_hi=14, p=0.3, features=2)
    cfg = SamplingOperatorSet(variant="PoS", r=2, h=1)
    links = _mixed_links(rng, g, 20)
    for name in ("train.rec", "valid.rec"):
        precompute_dataset(g, links, cfg, tmp_path / name)
    path = tmp_path / "train.rec"
    assert len(RecordFile(path)) == 20            # verified once already
    data = bytearray(path.read_bytes())
    data[-3] ^= 0x10                              # a payload float's bits
    path.write_bytes(bytes(data))
    assert len(RecordFile(path, verify=False)) == 20
    with pytest.raises(RecordFormatError, match="checksum mismatch"):
        RecordFile(path)
    with pytest.raises(RecordFormatError, match="checksum mismatch"):
        train(path, tmp_path / "valid.rec", TrainConfig(d_prime=4, epochs=1))


def test_flipped_position_byte_fails_checksum(tmp_path):
    rng = np.random.default_rng(63)
    g = _one_hot_features(gnp_graph(rng, n_lo=14, n_hi=14, p=0.3), rng)
    cfg = SamplingOperatorSet(variant="PoS", r=2, h=1)
    path = tmp_path / "sparse.rec"
    precompute_dataset(g, _mixed_links(rng, g, 20), cfg, path)
    data = bytearray(path.read_bytes())
    first = 6 + 21 + 4 * 2                          # the first record's positions
    assert _nnz_field(bytes(data[6:])) < 0xFFFFFFFF
    assert RecordFile(path).batch(np.arange(20))[0].any()
    data[first + 1] ^= 0x10                         # a position's bits
    path.write_bytes(bytes(data))
    with pytest.raises(RecordFormatError, match="checksum mismatch"):
        RecordFile(path)
