"""RecordFile: one verify-and-index pass in pieces of ``store.READ_PIECE``
bytes, then positional reads of the records asked for."""
import hashlib
import json
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

from difflink import (LinkRecord, Pooling, RecordFile, RecordFormatError,
                      SamplingOperatorSet, build_graph, precompute_dataset)
from difflink import store
from difflink.model import TrainConfig, init_params, predict, train
from difflink.store import manifest_path

from conftest import gnp_graph, random_pair, same_record
from oracles import pack_batch, stack_reference, write_reference

# pieces that cut record headers (21 bytes) and payloads at many places
SMALL_PIECES = [17, 40, 97, 1000]


def _links(rng, g, count):
    """``count`` links: edges of ``g`` labeled 1 and random pairs labeled 0."""
    edges = g.edge_array()
    pos = edges[rng.choice(edges.shape[0], count // 2)]
    neg = np.asarray([random_pair(rng, g.num_nodes) for _ in range(count - count // 2)])
    return np.concatenate([np.column_stack([pos, np.ones(len(pos), np.int64)]),
                           np.column_stack([neg, np.zeros(len(neg), np.int64)])])


def _ccn_file(tmp_path, seed=70, count=60, sparse=False):
    """A CCN file of dense records or, with ``sparse``, of sparse ones: its
    nodes then have 100 features, one of them nonzero."""
    rng = np.random.default_rng(seed)
    g = gnp_graph(rng, n_lo=14, n_hi=14, p=0.45, features=3)
    if sparse:
        feats = np.eye(100, dtype=np.float32)[rng.integers(100, size=g.num_nodes)]
        g = build_graph(g.num_nodes, g.edge_array(), feats)
    cfg = SamplingOperatorSet(variant="PoSPlus", r=2, h=1, labeling="drnl",
                              label_cap=4)
    path = tmp_path / f"ccn-{'sparse' if sparse else 'dense'}.rec"
    precompute_dataset(g, _links(rng, g, count), cfg, path)
    return path


def _header_walk(data: bytes):
    """(offsets, p, labels, nnz) of every record, walking the headers of
    the whole file one at a time."""
    offsets, ps, labels, nnzs = [], [], [], []
    off = 6
    while off < len(data):
        _, _, label, p, r1, w, nnz = struct.unpack_from("<IIBHHII", data, off)
        offsets.append(off)
        ps.append(p)
        labels.append(label)
        nnzs.append(nnz)
        off += 21 + 4 * p + (4 * r1 * p * w if nnz == 0xFFFFFFFF else 8 * nnz)
    assert off == len(data)
    return offsets, ps, labels, nnzs


def _fd_count() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("piece", SMALL_PIECES)
def test_streamed_ccn_index_equals_header_walk(tmp_path, monkeypatch, piece):
    for sparse in (False, True):
        _check_streamed_index(_ccn_file(tmp_path, sparse=sparse), sparse,
                              monkeypatch, piece)


def _check_streamed_index(path, sparse, monkeypatch, piece):
    data = path.read_bytes()
    offsets, ps, labels, nnzs = _header_walk(data)
    assert len(set(ps)) > 1                         # mixed pooled counts
    assert (0xFFFFFFFF not in nnzs) == sparse       # every chunk one form
    assert len(data) > 4 * piece                    # several pieces
    want = list(RecordFile(path))                   # read as one piece
    monkeypatch.setattr(store, "READ_PIECE", piece)
    with RecordFile(path) as rf:
        assert rf.offsets.tolist() == offsets
        assert rf.p.tolist() == ps
        assert rf.labels.tolist() == labels
        assert len(rf) == len(want) and all(map(same_record, rf, want))
        assert same_record(rf[-1], want[-1])
        rng = np.random.default_rng(piece)
        for index in (rng.permutation(len(rf)), np.array([3, 3, 0])):
            for dtype in (np.float32, np.float64):
                got = rf.batch(index, dtype)
                ref = pack_batch(stack_reference([want[i] for i in index], dtype))
                for a, b in zip(got, ref):
                    assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("piece", SMALL_PIECES + [None])
def test_short_runs_of_one_shape_index_like_a_header_walk(tmp_path, monkeypatch,
                                                          piece):
    # runs of 1-3 records of one pooled count, alternating between counts
    rng = np.random.default_rng(74)
    ps = [p for i, run in enumerate(rng.integers(1, 4, 40))
          for p in [2 + i % 2] * int(run)]
    path = tmp_path / "runs.rec"
    write_reference(path, (LinkRecord(i, i + 1, i % 2, np.arange(p),
                                      rng.random((3, p, 2), dtype=np.float32))
                           for i, p in enumerate(ps)))
    offsets, walked_ps, labels, _ = _header_walk(path.read_bytes())
    assert walked_ps == ps
    held = RecordFile(path)                         # the default piece holds it
    if piece is not None:
        monkeypatch.setattr(store, "READ_PIECE", piece)
    with RecordFile(path) as rf, held:
        for index in (rf, held):
            assert index.offsets.tolist() == offsets
            assert index.p.tolist() == ps
            assert index.labels.tolist() == labels
        assert len(rf) == len(held) and all(map(same_record, rf, held))


@pytest.mark.parametrize("piece", SMALL_PIECES)
def test_streamed_open_rejects_corruption_naming_the_file(tmp_path, monkeypatch,
                                                          piece):
    data = _ccn_file(tmp_path).read_bytes()
    last = _header_walk(data)[0][-1]
    monkeypatch.setattr(store, "READ_PIECE", piece)
    cases = {"cut_header.rec": (data[:last + 9], "truncated record header"),
             "cut_payload.rec": (data[:-2], "truncated record payload"),
             "bad_magic.rec": (b"S3GX" + data[4:], "bad magic")}
    for name, (blob, message) in cases.items():
        path = tmp_path / name
        path.write_bytes(blob)
        with pytest.raises(RecordFormatError,
                           match=re.escape(str(path)) + ".*" + message):
            RecordFile(path)


@pytest.mark.parametrize("piece", [64, None])      # streamed, kept whole
def test_reads_come_from_the_verified_file(tmp_path, monkeypatch, piece):
    if piece is not None:
        monkeypatch.setattr(store, "READ_PIECE", piece)
    rng = np.random.default_rng(71)
    g = gnp_graph(rng, n_lo=12, n_hi=12, p=0.4, features=3)
    cfg = SamplingOperatorSet(variant="PoS", r=2, h=1)
    old_links, new_links = _links(rng, g, 20), _links(rng, g, 30)
    path = tmp_path / "d.rec"
    precompute_dataset(g, old_links, cfg, path)
    want = list(RecordFile(path))
    with RecordFile(path) as rf:
        # written beside the path and renamed over it: a new file there
        precompute_dataset(g, new_links, cfg, path)
        assert [[r.u, r.v, r.label] for r in rf] == old_links.tolist()
        assert len(rf) == len(want) and all(map(same_record, rf, want))
        assert same_record(rf[7], want[7])
        index = rng.permutation(len(rf))
        for a, b in zip(rf.batch(index),
                        pack_batch(stack_reference([want[i] for i in index]))):
            assert np.array_equal(a, b)
    assert [[r.u, r.v, r.label] for r in RecordFile(path)] == new_links.tolist()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd to count descriptors")
def test_descriptors_are_released(tmp_path, monkeypatch):
    rng = np.random.default_rng(72)
    g = gnp_graph(rng, n_lo=12, n_hi=12, p=0.4, features=3)
    cfg = SamplingOperatorSet(variant="PoS", r=2, h=1)
    path = tmp_path / "d.rec"
    precompute_dataset(g, _links(rng, g, 20), cfg, path)
    params = init_params(np.random.default_rng(0), 3 * cfg.block_width(g), 4,
                         cfg.pooling)
    before = _fd_count()
    # a file that fits in one piece is kept whole and holds no descriptor
    kept = RecordFile(path)
    assert _fd_count() == before
    kept.close()
    with pytest.raises(ValueError, match="closed"):
        kept[0]
    monkeypatch.setattr(store, "READ_PIECE", 64)
    rf = RecordFile(path)
    assert _fd_count() == before + 1
    rf.close()
    rf.close()
    assert _fd_count() == before
    assert len(rf) == 20                            # the index stays
    with pytest.raises(ValueError, match="closed"):
        rf.batch([0])
    with RecordFile(path) as rf:
        assert _fd_count() == before + 1
        assert rf[0].label in (0, 1)
    assert _fd_count() == before
    for _ in range(1000):
        assert RecordFile(path)[0].pooled_count == 2
    list(RecordFile(path))
    predict(path, params)
    assert _fd_count() == before


def test_open_and_batch_memory_is_bounded_by_a_piece_and_a_batch(tmp_path):
    piece = store.READ_PIECE
    rng = np.random.default_rng(73)
    r1, p, w, batch = 4, 2, 1024, 32
    size = 21 + 4 * p + 4 * r1 * p * w
    bound = None
    peaks = {}
    for pieces in (4, 8):
        path = tmp_path / f"{pieces}.rec"
        n = pieces * piece // size + 1
        write_reference(path, (LinkRecord(i, i + 1, i % 2, np.arange(p),
                                          rng.random((r1, p, w), dtype=np.float32))
                               for i in range(n)))
        # a manifest, so the open hashes every byte
        manifest = {"counts": {"records": n}, "checksum": "sha256:"
                    + hashlib.sha256(path.read_bytes()).hexdigest()}
        manifest_path(path).write_text(json.dumps(manifest))
        index = rng.permutation(n)[:batch]
        tracemalloc.start()
        try:
            with RecordFile(path) as rf:
                rows, mask, labels = rf.batch(index)
            peaks[pieces] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == (batch * p, r1 * w) and labels.shape == (batch,)
        # one piece being read, one batch and its last record read, plus a
        # fixed allowance for the index and small objects
        batch_bytes = rows.nbytes + mask.nbytes + labels.nbytes + size
        bound = piece + batch_bytes + (256 << 10)
        assert path.stat().st_size > 2 * bound
    assert all(peak <= bound for peak in peaks.values()), (peaks, bound)


def _without_pooling(manifest):
    del manifest["config"]["pooling"]
    return json.dumps(manifest)


def _unknown_pooling(manifest):
    manifest["config"]["pooling"] = "Mean"
    return json.dumps(manifest)


@pytest.mark.parametrize("bad_manifest,opens", [
    (lambda m: "", False),                          # not JSON
    (lambda m: "[]", False),                        # not an object
    (lambda m: json.dumps({**m, "counts": 3}), False),
    (lambda m: json.dumps({k: x for k, x in m.items() if k != "counts"}), False),
    (_without_pooling, True),                       # enough to read, not to train
    (_unknown_pooling, True),
], ids=["empty", "list", "counts-not-object", "no-counts", "no-pooling",
        "unknown-pooling"])
def test_bad_manifest_is_named_by_every_reader(tmp_path, bad_manifest, opens):
    path = _ccn_file(tmp_path)
    mpath = manifest_path(path)
    mpath.write_text(bad_manifest(json.loads(mpath.read_text())))
    named = re.escape(str(mpath))
    if opens:
        with RecordFile(path) as rf:
            assert len(rf) == 60
    else:
        with pytest.raises(RecordFormatError, match=named):
            RecordFile(path)
    with pytest.raises(RecordFormatError, match=named):
        train(path, path, TrainConfig(d_prime=4, epochs=1))
    # a reader that does not verify ignores the manifest
    with RecordFile(path, verify=False) as rf:
        assert len(rf) == 60


def test_train_takes_pooling_from_the_manifest_it_verified(tmp_path, monkeypatch):
    # with ccn_cap 0 a PoSPlus file pools only the targets (every p == 2),
    # so only its manifest says CCN; a path and an open verified reader
    # both get it, and each manifest is parsed once
    rng = np.random.default_rng(74)
    g = gnp_graph(rng, n_lo=14, n_hi=14, p=0.45)
    cfg = SamplingOperatorSet(variant="PoSPlus", r=1, h=1, ccn_cap=0)
    path = tmp_path / "capped.rec"
    precompute_dataset(g, _links(rng, g, 30), cfg, path)
    reads = []
    real = store._read_manifest
    monkeypatch.setattr(store, "_read_manifest",
                        lambda *args: reads.append(args) or real(*args))
    tc = TrainConfig(d_prime=4, epochs=1)
    with RecordFile(path) as rf:
        assert (rf.p == 2).all()
        assert train(rf, rf, tc)[0].pooling is Pooling.CCN
    assert len(reads) == 1
    assert train(path, path, tc)[0].pooling is Pooling.CCN
    assert len(reads) == 3                          # train and valid, once each
    with RecordFile(path, verify=False) as rf:      # no manifest: a guess from p
        assert train(rf, rf, tc)[0].pooling is Pooling.CENTER


def _owner(a: np.ndarray) -> np.ndarray:
    """The array that owns ``a``'s memory."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


@pytest.mark.parametrize("piece", [None, 4096, 1000, 17])
def test_iteration_equals_indexing(tmp_path, monkeypatch, piece):
    rng = np.random.default_rng(75)
    dense = tmp_path / "dense.rec"                  # one stride: a strided view
    write_reference(dense, (LinkRecord(i, i + 1, i % 2, np.arange(2),
                                       rng.random((3, 2, 5), dtype=np.float32))
                            for i in range(40)))
    mixed = tmp_path / "mixed.rec"                  # mixed pooled counts
    write_reference(mixed, (LinkRecord(i, i + 1, i % 2, np.arange(2 + i % 3),
                                       rng.random((3, 2 + i % 3, 5), dtype=np.float32))
                            for i in range(30)))
    paths = [dense, mixed, _ccn_file(tmp_path), _ccn_file(tmp_path, sparse=True)]
    if piece is not None:
        monkeypatch.setattr(store, "READ_PIECE", piece)
    for path in paths:
        with RecordFile(path) as rf:
            got = list(rf)
            assert len(got) == len(rf)
            assert all(same_record(a, rf[i]) for i, a in enumerate(got))
            want = list(RecordFile(path))
            assert len(got) == len(want) and all(map(same_record, got, want))
            # the records decoded by one batch call share its rows
            owners = {id(_owner(r.blocks)) for r in got}
            sizes = np.array([4 * r.blocks.size for r in got])
            if piece is None:
                assert len(owners) == 1
            else:
                assert len(owners) >= max(1, sizes.sum() / max(piece, sizes.max()))


@pytest.mark.parametrize("piece", [None, 97])
def test_iteration_over_a_malformed_sparse_payload_names_the_file(tmp_path,
                                                                   monkeypatch, piece):
    path = _ccn_file(tmp_path, sparse=True)
    data = bytearray(path.read_bytes())
    p = struct.unpack_from("<H", data, 6 + 9)[0]
    first = 6 + 21 + 4 * p                          # the first record's positions
    data[first:first + 4] = struct.pack("<I", 2**32 - 1)
    path.write_bytes(bytes(data))
    if piece is not None:
        monkeypatch.setattr(store, "READ_PIECE", piece)
    with RecordFile(path, verify=False) as rf:
        with pytest.raises(RecordFormatError,
                           match=re.escape(str(path)) + ".*sparse positions"):
            list(rf)
        assert rf[1].pooled_count == rf.p[1]        # other records still read


def test_iteration_memory_is_bounded_by_a_piece(tmp_path):
    # each record dropped once yielded: one piece of decoded rows at a
    # time, plus the record being read
    piece = store.READ_PIECE
    rng = np.random.default_rng(76)
    r1, p, w = 4, 2, 1024
    size = 21 + 4 * p + 4 * r1 * p * w
    peaks = {}
    for pieces in (4, 8):
        path = tmp_path / f"{pieces}.rec"
        n = pieces * piece // size + 1
        write_reference(path, (LinkRecord(i, i + 1, i % 2, np.arange(p),
                                          rng.random((r1, p, w), dtype=np.float32))
                               for i in range(n)))
        with RecordFile(path) as rf:
            tracemalloc.start()
            try:
                count = 0
                for rec in rf:
                    count += 1
                    del rec
                peaks[pieces] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert count == n
    bound = piece + size + (256 << 10)
    assert all(peak <= bound for peak in peaks.values()), (peaks, bound)


def test_batch_rejects_a_non_integer_or_out_of_range_index(tmp_path):
    path = _ccn_file(tmp_path, count=10)
    named = re.escape(str(path))
    with RecordFile(path) as rf:
        assert len(rf) == 10
        for bad, message in (([1.5], r"\[1\.5\] is not integer"),
                             (np.array([2.0]), r"\[2\.0\] is not integer"),
                             (np.array([True, False]), r"\[True, False\] is not integer"),
                             ([3, 10], "10 outside 0..9"),
                             ([-1], "-1 outside 0..9")):
            with pytest.raises(ValueError, match=named + ": record index " + message):
                rf.batch(bad)
        assert rf.batch(np.array([9], dtype=np.uint8))[1].shape[0] == 1
    with pytest.raises(ValueError, match="no records"):
        RecordFile(path).batch([])
