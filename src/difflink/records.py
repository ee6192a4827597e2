"""Per-link diffusion features restricted to pooled nodes, plus binary storage.

For each candidate link this module builds the operator-level rows
Z^(i) = M^(i) X at the pooled nodes only (targets, optionally common
neighbors), zero-filling rows of pooled nodes absent from an operator's
subgraph. The result is a LinkRecord whose byte size depends only on
(operator count, pooled count, feature width), never on subgraph size.

Record file layout (little-endian):
    magic "S3GR", version u16
    per record: u u32, v u32, label u8, p u16, r_plus_1 u16, w u32,
                p global node ids u32, r_plus_1 * p * w float32 values
"""
from __future__ import annotations

import hashlib
import json
import multiprocessing as mp
import os
import struct
import time
import uuid
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .graphs import Graph, common_neighbors, normalized_adjacency
from .labeling import LabeledFeatures, LabelScheme, augment_features, label_dim_for
from .sampling import (Subgraph, extract_h_hop, graph_power,
                       random_walk_subgraph, sop_subgraph)

_MAGIC = b"S3GR"
_VERSION = 1
_FILE_HEADER = struct.Struct("<4sH")
_REC_HEADER = struct.Struct("<IIBHHI")


class _CaseInsensitiveEnum(str, Enum):
    @classmethod
    def _missing_(cls, value):
        if isinstance(value, str):
            folded = value.lower()
            for member in cls:
                if member.value.lower() == folded:
                    return member
        return None


class Variant(_CaseInsensitiveEnum):
    POS = "PoS"
    POS_PLUS = "PoSPlus"
    SOP = "SoP"
    POS_SCALED = "PoSScaLed"
    POS_PLUS_SCALED = "PoSPlusScaLed"


class Pooling(_CaseInsensitiveEnum):
    CENTER = "Center"
    CCN = "CCN"


_CCN_VARIANTS = (Variant.POS_PLUS, Variant.POS_PLUS_SCALED)
_SCALED_VARIANTS = (Variant.POS_SCALED, Variant.POS_PLUS_SCALED)

# Pooled-node budget for CCN: targets plus at most this many common
# neighbors, kept highest-degree-first. Logged in the manifest.
CCN_CAP = 128

# The record header stores r+1 and p as u16, so r and ccn_cap are bounded.
MAX_R = 0xFFFF - 1
MAX_CCN_CAP = 0xFFFF - 2


@dataclass(frozen=True)
class SamplingOperatorSet:
    """Which subgraphs to sample and which diffusion operators to apply.

    ``r`` is the operator count (powers 1..r; the identity operator is
    always prepended, so records hold r+1 blocks). ``pooling`` is derived
    from the variant when omitted. ``normalized`` switches the adjacency
    powers to the degree-normalized form, for ablation only.
    """

    variant: Variant
    r: int = 3
    h: int = 2
    k: int | None = None
    l: int | None = None
    labeling: LabelScheme = LabelScheme.ZERO_ONE
    pooling: Pooling | None = None
    label_cap: int = 100
    normalized: bool = False
    ccn_cap: int = CCN_CAP

    def __post_init__(self):
        object.__setattr__(self, "variant", Variant(self.variant))
        object.__setattr__(self, "labeling", LabelScheme(self.labeling))
        derived = Pooling.CCN if self.variant in _CCN_VARIANTS else Pooling.CENTER
        if self.pooling is None:
            object.__setattr__(self, "pooling", derived)
        else:
            object.__setattr__(self, "pooling", Pooling(self.pooling))
            if self.pooling is not derived:
                raise ValueError(
                    f"variant {self.variant.value} implies {derived.value} pooling")
        if not 1 <= self.r <= MAX_R:
            raise ValueError(f"r must be in 1..{MAX_R}")
        if self.h < 1:
            raise ValueError("h must be >= 1")
        if self.variant in _SCALED_VARIANTS:
            if self.k is None or self.l is None or self.k < 1 or self.l < 1:
                raise ValueError("ScaLed variants require walk parameters k, l >= 1")
        elif self.k is not None or self.l is not None:
            raise ValueError(f"variant {self.variant.value} takes no walk parameters")
        if self.label_cap < 1:
            raise ValueError("label_cap must be >= 1")
        if not 0 <= self.ccn_cap <= MAX_CCN_CAP:
            raise ValueError(f"ccn_cap must be in 0..{MAX_CCN_CAP}")

    @property
    def num_operators(self) -> int:
        return self.r + 1

    def label_dim(self) -> int:
        return label_dim_for(self.labeling, self.label_cap)

    def block_width(self, graph: Graph) -> int:
        """Record row width for ``graph``: one-hot labels + raw features."""
        raw = graph.feature_dim if graph.features is not None else 1
        return self.label_dim() + raw

    def echo(self) -> dict:
        """JSON-serializable config echo, logged in manifests and reports."""
        out = {
            "variant": self.variant.value,
            "r": self.r,
            "h": self.h,
            "k": self.k,
            "l": self.l,
            "labeling": self.labeling.value,
            "pooling": self.pooling.value,
            "label_cap": self.label_cap,
            "normalized": self.normalized,
            "ccn_cap": self.ccn_cap,
        }
        if self.pooling is Pooling.CCN:
            out["ccn_rule"] = "highest-degree-first truncation"
        return out


@dataclass(frozen=True, eq=False)
class LinkRecord:
    """Precomputed diffusion rows for one candidate link.

    ``blocks`` has shape (r+1, p, w) float32: operator 0 is the identity
    (labeled features of the pooled nodes), operator i >= 1 the i-step
    diffusion. ``pooled_ids`` holds global node ids, targets first.
    """

    u: int
    v: int
    label: int
    pooled_ids: np.ndarray
    blocks: np.ndarray

    @property
    def num_operators(self) -> int:
        return self.blocks.shape[0]

    @property
    def pooled_count(self) -> int:
        return self.blocks.shape[1]

    @property
    def block_width(self) -> int:
        return self.blocks.shape[2]

    def byte_size(self) -> int:
        """Serialized size in bytes; a function of (r, p, w) only."""
        r1, p, w = self.blocks.shape
        return _REC_HEADER.size + 4 * p + 4 * r1 * p * w


def pooled_power_series(subgraph: Subgraph, features: LabeledFeatures,
                        r: int, pooled_local_ids,
                        normalized: bool = False) -> list:
    """Rows of A^i @ X at the given local positions, for every i in 0..r.

    Each row is obtained by repeated sparse matrix-vector products starting
    from the node's indicator vector, one dense dot with X per power;
    A^i itself is never materialized. Entry 0 is the raw feature rows.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    ids = np.asarray(pooled_local_ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= subgraph.num_nodes):
        raise ValueError("pooled local id out of range")
    x = features.matrix.astype(np.float64)
    out = [x[ids]]
    if r == 0:
        return out
    a = (normalized_adjacency(subgraph) if normalized
         else subgraph.adjacency(np.float64))
    vec = np.zeros((ids.shape[0], subgraph.num_nodes), dtype=np.float64)
    vec[np.arange(ids.shape[0]), ids] = 1.0
    for _ in range(r):
        # A is symmetric, so left multiplication is one SpMV per row.
        vec = (a @ vec.T).T
        out.append(vec @ x)
    return out


def _walk_seed(seed: int, u: int, v: int, label: int) -> int:
    # Stable per-link stream so output is identical for any worker layout.
    return int(np.random.SeedSequence([seed, u, v, label]).generate_state(1)[0])


def _pooled_global_ids(graph: Graph, u: int, v: int,
                       config: SamplingOperatorSet) -> np.ndarray:
    ids = [u, v]
    if config.pooling is Pooling.CCN:
        cn = common_neighbors(graph, u, v)
        if cn.shape[0]:
            deg = graph.degrees()[cn]
            order = np.lexsort((cn, -deg))
            ids.extend(int(x) for x in cn[order][:config.ccn_cap])
    return np.asarray(ids, dtype=np.int64)


def build_link_record(graph: Graph, link, config: SamplingOperatorSet,
                      seed: int = 0, power_cache: dict | None = None) -> LinkRecord:
    """Build one LinkRecord: sample subgraph(s), diffuse, slice pooled rows.

    ``link`` is (u, v, label) with label in {0, 1}. ``seed`` feeds the
    per-link walk stream for ScaLed variants. ``power_cache`` may map
    power index -> graph_power(graph, i) to share work across links.
    """
    u, v, label = (int(x) for x in link)
    if label not in (0, 1):
        raise ValueError("link label must be 0 or 1")
    pooled = _pooled_global_ids(graph, u, v, config)
    w = config.block_width(graph)
    label_dim = config.label_dim()
    r1 = config.num_operators
    blocks = np.zeros((r1, pooled.shape[0], w), dtype=np.float32)

    if config.variant is Variant.SOP:
        # Per-operator subgraphs on graph powers; diffusion is the identity
        # function, so each block is one adjacency application (power 1).
        for i in range(r1):
            sub = sop_subgraph(graph, u, v, i, config.h,
                               power_graph=(power_cache or {}).get(i))
            feats = augment_features(sub, graph.features, config.labeling,
                                     config.label_cap, label_dim=label_dim)
            present, local = _locate(sub, pooled)
            rows = pooled_power_series(sub, feats, min(i, 1), local,
                                       normalized=config.normalized)[-1]
            blocks[i, present] = rows.astype(np.float32)
    else:
        if config.variant in _SCALED_VARIANTS:
            sub = random_walk_subgraph(graph, u, v, config.k, config.l,
                                       _walk_seed(seed, u, v, label))
        else:
            sub = extract_h_hop(graph, u, v, config.h)
        feats = augment_features(sub, graph.features, config.labeling,
                                 config.label_cap, label_dim=label_dim)
        present, local = _locate(sub, pooled)
        series = pooled_power_series(sub, feats, config.r, local,
                                     normalized=config.normalized)
        for i, rows in enumerate(series):
            blocks[i, present] = rows.astype(np.float32)
    return LinkRecord(u, v, label, pooled, blocks)


def _locate(sub: Subgraph, pooled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of pooled ids present in ``sub``: (pooled index, local id)."""
    order = np.argsort(sub.global_ids)
    pos = np.searchsorted(sub.global_ids, pooled, sorter=order)
    local = order[np.minimum(pos, sub.num_nodes - 1)]
    present = np.flatnonzero(sub.global_ids[local] == pooled)
    return present, local[present]


def serialize_record(rec: LinkRecord) -> bytes:
    r1, p, w = rec.blocks.shape
    head = _REC_HEADER.pack(rec.u, rec.v, rec.label, p, r1, w)
    ids = rec.pooled_ids.astype("<u4").tobytes()
    payload = np.ascontiguousarray(rec.blocks, dtype="<f4").tobytes()
    return head + ids + payload


def deserialize_record(buf: bytes, offset: int = 0) -> tuple[LinkRecord, int]:
    u, v, label, p, r1, w = _REC_HEADER.unpack_from(buf, offset)
    offset += _REC_HEADER.size
    ids = np.frombuffer(buf, dtype="<u4", count=p, offset=offset).astype(np.int64)
    offset += 4 * p
    blocks = np.frombuffer(buf, dtype="<f4", count=r1 * p * w, offset=offset)
    offset += 4 * r1 * p * w
    blocks = blocks.reshape(r1, p, w).copy()
    return LinkRecord(u, v, label, ids, blocks), offset


class _RecordWriter:
    """Writes a record file beside ``path``, hashing as it goes, and moves
    it into place only if the ``with`` block exits cleanly; otherwise
    ``path`` keeps its previous state (absent or the old bytes)."""

    def __init__(self, path):
        self.path = Path(path)
        self._tmp = self.path.with_name(
            f".{self.path.name}.{uuid.uuid4().hex}.tmp")
        self.sha256 = hashlib.sha256()
        self.total_bytes = 0

    def __enter__(self):
        self._fh = open(self._tmp, "xb")
        self.write(_FILE_HEADER.pack(_MAGIC, _VERSION))
        return self

    def write(self, blob: bytes) -> None:
        self._fh.write(blob)
        self.sha256.update(blob)
        self.total_bytes += len(blob)

    def __exit__(self, exc_type, exc, tb):
        try:
            self._fh.close()
            if exc_type is None:
                os.replace(self._tmp, self.path)
        finally:
            self._tmp.unlink(missing_ok=True)


def write_records(path, records) -> int:
    """Write records to ``path`` in iteration order; returns count."""
    count = 0
    with _RecordWriter(path) as out:
        for rec in records:
            out.write(serialize_record(rec))
            count += 1
    return count


class RecordFormatError(ValueError):
    """Bad magic, version, truncation, or manifest mismatch."""


class RecordFile:
    """Sequential and random-access reader for a record file.

    Opens the file, verifies magic/version, and indexes record offsets.
    When a sibling manifest exists its record count and checksum are
    verified unless ``verify=False``. Safe for concurrent readers.
    """

    def __init__(self, path, verify: bool = True):
        self.path = Path(path)
        with open(self.path, "rb") as fh:
            self._buf = fh.read()
        if len(self._buf) < _FILE_HEADER.size:
            raise RecordFormatError(f"{self.path}: truncated header")
        magic, version = _FILE_HEADER.unpack_from(self._buf, 0)
        if magic != _MAGIC:
            raise RecordFormatError(f"{self.path}: bad magic {magic!r}")
        if version != _VERSION:
            raise RecordFormatError(f"{self.path}: unsupported version {version}")
        self._offsets = self._scan()
        if verify:
            self._check_manifest()

    def _scan(self) -> list:
        offsets = []
        off = _FILE_HEADER.size
        total = len(self._buf)
        while off < total:
            if off + _REC_HEADER.size > total:
                raise RecordFormatError(f"{self.path}: truncated record header")
            _, _, _, p, r1, w = _REC_HEADER.unpack_from(self._buf, off)
            size = _REC_HEADER.size + 4 * p + 4 * r1 * p * w
            if off + size > total:
                raise RecordFormatError(f"{self.path}: truncated record payload")
            offsets.append(off)
            off += size
        return offsets

    def _check_manifest(self) -> None:
        mpath = manifest_path(self.path)
        if not mpath.exists():
            return
        with open(mpath) as fh:
            manifest = json.load(fh)
        if manifest.get("counts", {}).get("records") != len(self._offsets):
            raise RecordFormatError(
                f"{self.path}: manifest record count mismatch")
        digest = "sha256:" + hashlib.sha256(self._buf).hexdigest()
        if manifest.get("checksum") not in (None, digest):
            raise RecordFormatError(f"{self.path}: manifest checksum mismatch")

    def __len__(self) -> int:
        return len(self._offsets)

    def __getitem__(self, i: int) -> LinkRecord:
        rec, _ = deserialize_record(self._buf, self._offsets[i])
        return rec

    def __iter__(self):
        for off in self._offsets:
            rec, _ = deserialize_record(self._buf, off)
            yield rec


def read_records(path, verify: bool = True) -> list:
    """All records of a file as a list, in file order."""
    return list(RecordFile(path, verify=verify))


def manifest_path(record_path) -> Path:
    return Path(str(record_path) + ".manifest.json")


@dataclass(frozen=True)
class DatasetStats:
    """Outcome of one precompute run."""

    record_count: int
    total_bytes: int
    wall_time_s: float
    records_per_sec: float


_WORKER = {}


def _init_worker(graph, config, seed, power_cache):
    _WORKER["args"] = (graph, config, seed, power_cache)


def _build_chunk(links) -> tuple[bytes, int]:
    """Serialized records of ``links`` and their largest pooled count."""
    graph, config, seed, power_cache = _WORKER["args"]
    recs = [build_link_record(graph, link, config, seed=seed,
                              power_cache=power_cache) for link in links]
    return (b"".join(serialize_record(rec) for rec in recs),
            max(rec.pooled_count for rec in recs))


def _built_chunks(graph, config, seed, chunks, worker_count):
    """_build_chunk over ``chunks`` in input order, on a pool if asked."""
    args = (graph, config, seed, _power_cache_for(graph, config))
    if worker_count > 1 and chunks:
        ctx = mp.get_context("fork")
        with ctx.Pool(worker_count, initializer=_init_worker,
                      initargs=args) as pool:
            yield from pool.imap(_build_chunk, chunks)
    else:
        _init_worker(*args)
        yield from map(_build_chunk, chunks)


def _power_cache_for(graph: Graph, config: SamplingOperatorSet) -> dict:
    if config.variant is not Variant.SOP:
        return {}
    return {i: graph_power(graph, i) for i in range(2, config.num_operators)}


def precompute_dataset(graph: Graph, links, config: SamplingOperatorSet,
                       out_path, worker_count: int = 1,
                       seed: int = 0) -> DatasetStats:
    """Build and store LinkRecords for every (u, v, label) in ``links``.

    Records are written in input order and the output is byte-identical
    for any ``worker_count``. A JSON manifest is written next to the file.
    """
    links = np.asarray(links, dtype=np.int64).reshape(-1, 3)
    out_path = Path(out_path)
    t0 = time.monotonic()
    chunks = [links[i:i + 64] for i in range(0, links.shape[0], 64)]
    p_max = 0
    with _RecordWriter(out_path) as out:
        for blob, chunk_p_max in _built_chunks(graph, config, seed, chunks,
                                               worker_count):
            out.write(blob)
            p_max = max(p_max, chunk_p_max)
    elapsed = time.monotonic() - t0
    n = int(links.shape[0])
    positives = int((links[:, 2] == 1).sum())
    manifest = {
        "format": {"magic": _MAGIC.decode("ascii"), "version": _VERSION},
        "config": {**config.echo(), "seed": seed},
        "counts": {"records": n, "positives": positives,
                   "negatives": n - positives},
        "w": config.block_width(graph),
        "p_max": p_max,
        "total_bytes": out.total_bytes,
        "checksum": "sha256:" + out.sha256.hexdigest(),
    }
    with open(manifest_path(out_path), "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return DatasetStats(n, out.total_bytes, elapsed,
                        n / elapsed if elapsed > 0 else float("inf"))


@dataclass(frozen=True)
class StorageReport:
    """Actual record bytes vs an analytic SEAL-style store for one link set."""

    num_links: int
    record_bytes: int
    seal_bytes: int
    reduction_pct: float
    block_width: int


def storage_comparison(graph: Graph, links, config: SamplingOperatorSet) -> StorageReport:
    """Compare record storage against storing full h-hop subgraphs per link.

    The baseline stores, per link, the h-hop subgraph's edge list (two u32
    ids per edge) plus all node feature rows (w float32 each); ours stores
    the fixed-size record. Reduction may be negative and is not clamped.
    """
    links = np.asarray(links, dtype=np.int64).reshape(-1, 3)
    w = config.block_width(graph)
    r1 = config.num_operators
    record_bytes = _FILE_HEADER.size
    seal_bytes = 0
    for u, v, label in links:
        u, v = int(u), int(v)
        p = _pooled_global_ids(graph, u, v, config).shape[0]
        record_bytes += _REC_HEADER.size + 4 * p + 4 * r1 * p * w
        sub = extract_h_hop(graph, u, v, config.h)
        seal_bytes += sub.num_edges * 2 * 4 + sub.num_nodes * w * 4
    reduction = ((seal_bytes - record_bytes) / seal_bytes * 100.0
                 if seal_bytes else float("nan"))
    return StorageReport(int(links.shape[0]), record_bytes, seal_bytes,
                         reduction, w)
