"""Diffusion features restricted to pooled nodes, plus binary storage.

For each candidate link this module builds the operator-level rows
Z^(i) = M^(i) X at the pooled nodes only (targets, optionally common
neighbors), zero-filling rows of pooled nodes absent from an operator's
subgraph. The result is a LinkRecord whose byte size depends only on
(operator count, pooled count, feature width), never on subgraph size.

Records are built a fixed-size chunk of links at a time: the chunk's link
subgraphs form one block-diagonal graph, labeled in one pass, and every
diffusion power is one sparse product over all of its pooled rows; one
link is a chunk of one.

Record file layout (little-endian):
    magic "S3GR", version u16
    per record: u u32, v u32, label u8, p u16, r_plus_1 u16, w u32, nnz u32,
                p global node ids u32, then the (p, r_plus_1, w) float32
                blocks in batch-row order: all p * r_plus_1 * w values when
                nnz is 0xFFFFFFFF, else the nnz nonzero ones (bits other
                than +0.0's) as u32 positions, strictly increasing, then
                float32 values; a chunk's records are all one or the other
"""
from __future__ import annotations

import hashlib
import itertools
import json
import os
import struct
import time
import uuid
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .graphs import (CSRMatrix, Graph, _common_neighbors, _entries,
                     _row_offsets, normalized_adjacency)
from .labeling import LabelScheme, label_dim_for, node_labels
from .sampling import (Subgraph, _hop_sizes, graph_power, hop_subgraphs,
                       walk_subgraphs)

_MAGIC = b"S3GR"
_VERSION = 2
_FILE_HEADER = struct.Struct("<4sH")
# The record header, a packed numpy record; the file layout above.
_HEADER = np.dtype([("u", "<u4"), ("v", "<u4"), ("label", "u1"), ("p", "<u2"),
                    ("r1", "<u2"), ("w", "<u4"), ("nnz", "<u4")])
# The same header as a struct, derived from ``_HEADER``, to read one at a time.
_HEADER_STRUCT = struct.Struct("<" + "".join(_HEADER[name].char for name in _HEADER.names))
_DENSE = 0xFFFFFFFF       # the nnz of a record stored dense


def _record_bytes(p, r1, w, nnz=_DENSE):
    """Bytes of a record of p pooled rows, r1 operators and width w, stored
    dense (its logical size) or as nnz positions and values."""
    return (_HEADER.itemsize + 4 * p + 4 * r1 * p * w * (nnz == _DENSE)
            + 8 * nnz * (nnz != _DENSE))


class _CaseInsensitiveEnum(str, Enum):
    @classmethod
    def _missing_(cls, value):
        folded = value.lower() if isinstance(value, str) else None
        return next((member for member in cls if member.value.lower() == folded), None)


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

# Links built together by the chunk engine; bounds its memory.
CHUNK_LINKS = 64
# Bytes a RecordFile reads at a time while it verifies and indexes a file;
# a file that fits in one piece is kept whole. Iteration decodes at most
# this many bytes of float32 rows at a time. Bounds a reader's memory.
READ_PIECE = 2 << 20
# A chunk is stored sparse only if that takes at most this share of its dense
# bytes (8 bytes a nonzero against 4 a value): a sparse value decodes by a
# dearer scatter, so PoS h=3 blocks on cora_like (25% nonzero) stay dense and
# read as fast as h=1. Per chunk, not per record: a dense file keeps one stride.
SPARSE_SHARE = 0.25


def _is_integer(value) -> bool:
    """True for a Python or numpy integer; False for a bool and for every
    float, even an integral one such as 3.0."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class SamplingOperatorSet:
    """Which subgraphs to sample and which diffusion operators to apply.

    ``r`` is the operator count (powers 1..r; the identity operator is
    always prepended, so records hold r+1 blocks). ``pooling`` follows from
    the variant. ``normalized`` switches the adjacency
    powers to the degree-normalized form, for ablation only.
    """

    variant: Variant
    r: int = 3
    h: int = 2
    k: int | None = None
    l: int | None = None
    labeling: LabelScheme = LabelScheme.ZERO_ONE
    label_cap: int = 100
    normalized: bool = False
    ccn_cap: int = CCN_CAP

    def __post_init__(self):
        # every message starts with the field name, so config parsing can
        # report it as ``sampling.<field>``
        for name, kind in (("variant", Variant), ("labeling", LabelScheme)):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, kind(value))
            except ValueError:
                raise ValueError(f"{name}: {value!r} is not one of "
                                 f"{[m.value for m in kind]}") from None
        if not (_is_integer(self.r) and 1 <= self.r <= MAX_R):
            raise ValueError(f"r: expected an integer in 1..{MAX_R}, got {self.r!r}")
        if not (_is_integer(self.h) and self.h >= 1):
            raise ValueError(f"h: expected an integer >= 1, got {self.h!r}")
        scaled = self.variant in _SCALED_VARIANTS
        for name in ("k", "l"):
            value = getattr(self, name)
            if not scaled and value is not None:
                raise ValueError(f"{name}: variant {self.variant.value} takes no "
                                 f"walk parameters")
            if scaled and not (_is_integer(value) and value >= 1):
                raise ValueError(f"{name}: ScaLed variants require integer walk parameters "
                                 f"k, l >= 1, got {value!r}")
        if not (_is_integer(self.label_cap) and self.label_cap >= 1):
            raise ValueError(f"label_cap: expected an integer >= 1, got {self.label_cap!r}")
        if not (_is_integer(self.ccn_cap) and 0 <= self.ccn_cap <= MAX_CCN_CAP):
            raise ValueError(f"ccn_cap: expected an integer in 0..{MAX_CCN_CAP}, "
                             f"got {self.ccn_cap!r}")

    @property
    def pooling(self) -> Pooling:
        return Pooling.CCN if self.variant in _CCN_VARIANTS else Pooling.CENTER

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
        """Logical (dense) size in bytes; a function of (r, p, w) only."""
        r1, p, w = self.blocks.shape
        return _record_bytes(p, r1, w)


def _walk_seed(seed: int, u: int, v: int, label: int) -> int:
    # Stable per-link stream so output is identical for any worker layout.
    return int(np.random.SeedSequence([seed, u, v, label]).generate_state(1)[0])


def _pooled_ids(graph: Graph, u: np.ndarray, v: np.ndarray,
                config: SamplingOperatorSet) -> tuple[np.ndarray, np.ndarray]:
    """Pooled global ids of every link, concatenated, and their block starts.

    Link b pools u[b], v[b] and, under CCN pooling, the common neighbors of
    the two, highest-degree-first with ties by id, at most ``ccn_cap``.
    """
    links = np.arange(u.shape[0])
    cn_link = cn = np.zeros(0, dtype=np.int64)
    if config.pooling is Pooling.CCN:
        cn_link, cn = _common_neighbors(graph, u, v)
        degree = graph.indptr[cn + 1] - graph.indptr[cn]
        order = np.lexsort((cn, -degree, cn_link))
        cn_link, cn = cn_link[order], cn[order]
        rank = np.arange(cn.shape[0]) - np.searchsorted(cn_link, cn_link)
        cn_link, cn = cn_link[rank < config.ccn_cap], cn[rank < config.ccn_cap]
    order = np.argsort(np.concatenate([3 * links, 3 * links + 1, 3 * cn_link + 2]),
                       kind="stable")
    ids = np.concatenate([u, v, cn])[order]
    return ids, _starts(2 + np.bincount(cn_link, minlength=links.shape[0]))


def _block_product(y: CSRMatrix, a: CSRMatrix, lo: np.ndarray,
                   size: np.ndarray) -> CSRMatrix:
    """``y @ a`` for rows that stay in their link's block: row i of y and of
    the product lies in the columns ``lo[i]:lo[i] + size[i]``.

    The entries come out as the classic row-by-row sparse product loop
    gives them: each sum is added up in y's stored order, exact-zero sums
    are dropped and each row lists its columns in reverse order of first
    touch. That order is the next power's summation order, so keeping it
    keeps normalized records bit for bit equal to that loop's. The sums sit
    in one dense accumulator over the rows' blocks, row i's at
    ``start[i] + column - lo[i]``.
    """
    counts, at = _entries(a.indptr, y.indices)
    start = np.zeros(y.shape[0] + 1, dtype=np.int64)
    np.cumsum(size, out=start[1:])
    key = np.repeat((start[:-1] - lo)[y._rows()], counts) + a.indices[at]
    sums = np.bincount(key, weights=np.repeat(y.data, counts) * a.data[at],
                       minlength=start[-1])
    first = np.full(start[-1], key.shape[0])
    np.minimum.at(first, key, np.arange(key.shape[0]))
    # The first touches of the nonzero sums, row by row, each row's in
    # reverse: row r's products are entries e[r]:e[r + 1].
    touch = np.zeros(key.shape[0], dtype=bool)
    touch[first[sums != 0]] = True
    touch = np.flatnonzero(touch)
    e = np.concatenate(([0], np.cumsum(counts)))[y.indptr]
    row = np.searchsorted(e, touch, side="right") - 1
    indptr = _row_offsets(row, y.shape[0])
    key = key[touch[indptr[row] + indptr[row + 1] - 1 - np.arange(touch.shape[0])]]
    return CSRMatrix(indptr, key - start[row] + lo[row], sums[key], y.shape)


def _diffuse(sub: Subgraph, features: CSRMatrix, pooled_link: np.ndarray,
             pooled: np.ndarray, config: SamplingOperatorSet, r: int) -> np.ndarray:
    """Rows of A^i [one-hot labels | X] at the pooled nodes, for i in 0..r.

    ``pooled[j]`` is a global id looked up in block ``pooled_link[j]`` of
    ``sub``; a node the block lacks gets zero rows. A is the block-diagonal
    adjacency (degree-normalized when the config asks), so each power is one
    sparse product for every link at once. ``features`` are the graph's
    sparse feature rows (``Graph._feature_rows``). Returns
    (r+1, len(pooled), w) float32.
    """
    labels = node_labels(sub, config.labeling, config.label_cap)
    label_dim = config.label_dim()
    at = sub.locate(pooled_link, pooled)
    p = pooled.shape[0]
    found = at >= 0
    indptr = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(found, out=indptr[1:])
    y = CSRMatrix(indptr, at[found], np.ones(indptr[-1]), (p, sub.num_nodes))
    a = normalized_adjacency(sub) if config.normalized else sub.adjacency()
    lo = sub.starts[pooled_link]
    size = sub.starts[pooled_link + 1] - lo
    width = features.shape[1]
    out = np.empty((r + 1, p, label_dim + width), dtype=np.float32)
    for i in range(r + 1):
        if i:
            # A is symmetric, so y A gives the pooled rows of the next power.
            y = _block_product(y, a, lo, size)
        row = y._rows()
        out[i, :, :label_dim] = np.bincount(
            row * label_dim + labels[y.indices], weights=y.data,
            minlength=p * label_dim).reshape(p, label_dim)
        # y X, each (row, feature) sum taken over the row's entries by
        # global id
        ids = sub.global_ids[y.indices]
        order = np.argsort(row * features.shape[0] + ids)
        counts, at = _entries(features.indptr, ids[order])
        out[i, :, label_dim:] = np.bincount(
            np.repeat(row[order] * width, counts) + features.indices[at],
            weights=np.repeat(y.data[order], counts) * features.data[at],
            minlength=p * width).reshape(p, width)
    return out


def _link_records(graph: Graph, links: np.ndarray, config: SamplingOperatorSet,
                  seed: int, power_cache: dict | None):
    """Records of every (u, v, label) row of ``links``, built together, as
    arrays: (pooled ids, block starts, blocks).

    Link b pools ``pooled[starts[b]:starts[b + 1]]`` and its rows are
    ``blocks[:, starts[b]:starts[b + 1]]`` of the (r+1, P, w) float32
    ``blocks``.
    """
    if not np.isin(links[:, 2], (0, 1)).all():
        raise ValueError("link label must be 0 or 1")
    u, v = links[:, 0], links[:, 1]
    features = graph._feature_rows
    if config.variant in _SCALED_VARIANTS:
        seeds = [_walk_seed(seed, *map(int, link)) for link in links]
        unions = walk_subgraphs(graph, u, v, config.k, config.l, seeds)
    else:
        unions = hop_subgraphs(graph, u, v, config.h)
    pooled, starts = _pooled_ids(graph, u, v, config)

    def rows(unions, r):
        """Pooled rows of every link, one union of consecutive links at a time."""
        out, lo = [], 0
        for sub in unions:
            hi = lo + sub.starts.shape[0] - 1
            at = slice(starts[lo], starts[hi])
            link = np.repeat(np.arange(hi - lo), np.diff(starts[lo:hi + 1]))
            out.append(_diffuse(sub, features, link, pooled[at], config, r))
            lo = hi
        return np.concatenate(out, axis=1)

    if config.variant is Variant.SOP:
        # One subgraph per operator on the graph powers; diffusion is the
        # identity function, so operator i >= 1 is one adjacency application
        # on its own power's subgraph.
        blocks = [rows(unions, 1)]
        for i in range(2, config.num_operators):
            power = (power_cache or {}).get(i) or graph_power(graph, i)
            blocks.append(rows(hop_subgraphs(power, u, v, config.h), 1)[1:])
        blocks = np.concatenate(blocks)
    else:
        blocks = rows(unions, config.r)
    return pooled, starts, blocks


def serialize_record(rec: LinkRecord) -> bytes:
    """One record's bytes: ``_encode`` of a one-record chunk."""
    return _encode(*_record_arrays([rec]))


def deserialize_record(buf: bytes, offset: int = 0,
                       name: str = "record") -> tuple[LinkRecord, int]:
    """The record at ``offset`` of ``buf`` (named ``name``), and the offset
    after it; decoded as a one-record file would be."""
    end = offset + _record_bytes(*_HEADER_STRUCT.unpack_from(buf, offset)[3:])
    one = _RecordBuffer(_FILE_HEADER.pack(_MAGIC, _VERSION) + bytes(buf[offset:end]),
                        name)
    return one[0], end


def _scatter(out, bases, payloads, counts, limits, name) -> None:
    """Write sparse payload j (counts[j] positions, then values) into the
    zeroed flat array ``out`` from ``out[bases[j]]`` on, bases ascending;
    RecordFormatError naming ``name`` if positions leave [0, limits[j]) or
    do not increase, so no value lands in another record's rows."""
    counts = np.asarray(counts, dtype=np.int64)
    pos = np.concatenate([np.frombuffer(b, "<u4", n) for b, n in
                          zip(payloads, counts.tolist())]).astype(np.int64)
    values = np.concatenate([np.frombuffer(b, "<f4", n, 4 * n) for b, n in
                             zip(payloads, counts.tolist())])
    base = np.asarray(bases, dtype=np.int64)
    pos += np.repeat(base, counts)
    last = (np.cumsum(counts) - 1)[counts > 0]
    if (np.diff(pos) <= 0).any() or (pos[last] >= (base + limits)[counts > 0]).any():
        raise RecordFormatError(f"{name}: sparse positions not increasing "
                                f"or out of range")
    out[pos] = values


def _record_arrays(records: list):
    """LinkRecords as the arrays ``_encode`` takes: (links, pooled ids, block
    starts, blocks); ValueError if they disagree on operator count or width."""
    if len({(rec.blocks.shape[0], rec.blocks.shape[2]) for rec in records}) > 1:
        raise ValueError("records disagree on operator count or block width")
    links = np.array([(rec.u, rec.v, rec.label) for rec in records], dtype=np.int64)
    starts = _starts(np.array([rec.pooled_count for rec in records], dtype=np.int64))
    return (links, np.concatenate([rec.pooled_ids for rec in records]), starts,
            np.concatenate([rec.blocks for rec in records], axis=1))


def _encode(links: np.ndarray, pooled: np.ndarray, starts: np.ndarray,
            blocks: np.ndarray) -> bytes:
    """Record bytes of a chunk in the file layout, straight from its arrays
    (as ``_link_records`` returns them): header, ids and payload of each link
    in turn, all dense or all sparse (``SPARSE_SHARE``). ValueError if a
    header field falls outside its type."""
    b = links.shape[0]
    r1, _, w = blocks.shape
    p = np.diff(starts)
    # the chunk's batch rows, flat (link b's a slice); u32 positions reach 2**32
    rows = np.ascontiguousarray(blocks.transpose(1, 0, 2), dtype="<f4").reshape(-1)
    bits = rows.view("<u4")
    if (8 * np.count_nonzero(bits) <= SPARSE_SHARE * 4 * bits.size
            and r1 * w * p.max(initial=0) <= 2**32):
        at = np.flatnonzero(bits != 0)
        cut = np.searchsorted(at, r1 * w * starts)
        nnz = np.diff(cut)
        payload = ((at - np.repeat(r1 * w * starts[:-1], nnz)).astype("<u4"), rows[at])
    else:
        cut, nnz, payload = r1 * w * starts, _DENSE, (rows,)
    head = np.empty(b, dtype=_HEADER)
    for name, values in zip(_HEADER.names, (*links.T, p, r1, w, nnz)):
        bound = np.iinfo(_HEADER[name])
        if np.any(values < bound.min) or np.any(values > bound.max):
            raise ValueError(f"record {name} outside {bound.min}..{bound.max}")
        head[name] = values
    ids = pooled.astype("<u4")
    head, ids, *payload = (memoryview(a.view(np.uint8).reshape(-1))
                           for a in (head, ids, *payload))
    id_at = (4 * starts).tolist()
    pay_at = (4 * cut).tolist()
    parts = []
    for i in range(b):
        parts += (head[_HEADER.itemsize * i:_HEADER.itemsize * (i + 1)],
                  ids[id_at[i]:id_at[i + 1]],
                  *(part[pay_at[i]:pay_at[i + 1]] for part in payload))
    return b"".join(parts)


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
        for _, run in itertools.groupby(records, lambda rec: rec.blocks.shape[::2]):
            while chunk := list(itertools.islice(run, CHUNK_LINKS)):
                out.write(_encode(*_record_arrays(chunk)))
                count += len(chunk)
    return count


class RecordFormatError(ValueError):
    """Bad magic, version, truncation, or manifest mismatch."""


def _check_file_header(buf, name) -> None:
    if len(buf) < _FILE_HEADER.size:
        raise RecordFormatError(f"{name}: truncated header")
    magic, version = _FILE_HEADER.unpack_from(buf, 0)
    if magic != _MAGIC:
        raise RecordFormatError(f"{name}: bad magic {magic!r}")
    if version != _VERSION:
        raise RecordFormatError(f"{name}: version {version}, expected version {_VERSION}")


def _scan(buf, base: int, off: int):
    """Headers of the records whose header lies wholly in ``buf``, which
    holds the file bytes from offset ``base`` on, from the record at file
    offset ``off`` on.

    Returns the headers (a ``_HEADER`` array), their offsets (int64) and
    the offset of the record after them, which may lie past ``buf``. When
    every header in ``buf`` has the first one's shape and nnz, as in a
    dense Center file, they are one strided view; otherwise one at a time.
    """
    last = base + len(buf) - _HEADER.itemsize      # the last offset a header fits at
    if off > last:
        return np.zeros(0, dtype=_HEADER), np.zeros(0, dtype=np.int64), off
    # The header at every byte of ``buf`` that can hold one.
    head_at = np.ndarray((last - base + 1,), _HEADER, buf, 0, (1,))
    p, r1, w, nnz = _HEADER_STRUCT.unpack_from(buf, off - base)[3:]
    stride = _record_bytes(p, r1, w, nnz)
    n = (last - off) // stride + 1
    run = head_at[off - base::stride]
    if ((run["p"] == p) & (run["r1"] == r1) & (run["w"] == w)
            & (run["nnz"] == nnz)).all():
        return run.copy(), off + stride * np.arange(n, dtype=np.int64), off + stride * n
    offsets = []
    while off <= last:
        offsets.append(off)
        off += _record_bytes(*_HEADER_STRUCT.unpack_from(buf, off - base)[3:])
    offsets = np.array(offsets, dtype=np.int64)
    return head_at[offsets - base], offsets, off


def _starts(p: np.ndarray) -> np.ndarray:
    """Row offsets of records that pool ``p`` rows each: record i's rows
    are ``starts[i]:starts[i + 1]``."""
    starts = np.zeros(p.shape[0] + 1, dtype=np.int64)
    np.cumsum(p, out=starts[1:])
    return starts


class _Records:
    """Records indexed by arrays, batched into model inputs.

    ``p`` and ``labels`` give each record's pooled count and label, ``_r1``
    and ``_w`` its operator count and block width. A subclass writes the
    rows of the records asked for (``_fill``). ``manifest`` is the parsed
    manifest the records were verified against, or None.
    """

    manifest = None

    def __len__(self) -> int:
        return self.p.shape[0]

    @property
    def row_width(self) -> int:
        """(r+1) * w of the first record: the width of a batch row."""
        return int(self._r1[0] * self._w[0]) if len(self) else 0

    def batch(self, index, dtype=np.float32):
        """Model inputs (rows, mask, labels) of the records at ``index``.

        rows is (sum of p, (r+1)*w): every pooled row of the records, in
        batch-row order (record by record, its rows in pooled order), each
        pooled node's blocks concatenated operator-major. mask is
        (B, p_max), True at a record's real rows, so a padded (B, p_max,
        (r+1)*w) batch ``z`` would have ``z[mask] == rows``; labels is float
        (B,). ValueError naming the records if ``index`` holds a
        non-integer or a number outside 0..len-1.
        """
        index = np.asarray(index).reshape(-1)
        if index.shape[0] == 0:
            raise ValueError("no records to batch")
        if index.dtype.kind not in "iu":
            raise ValueError(f"{self._name}: record index {index[:8].tolist()} "
                             f"is not integer (dtype {index.dtype})")
        if index.min() < 0 or index.max() >= len(self):
            bad = index[(index < 0) | (index >= len(self))][0]
            raise ValueError(f"{self._name}: record index {bad} outside "
                             f"0..{len(self) - 1}")
        index = index.astype(np.int64, copy=False)
        r1, w = self._r1[index], self._w[index]
        if (r1 != r1[0]).any() or (w != w[0]).any():
            raise ValueError("records disagree on operator count or block width")
        p = self.p[index]
        rows = self._fill(index, p, int(r1[0] * w[0]), dtype)
        mask = np.arange(p.max()) < p[:, None]
        return rows, mask, self.labels[index].astype(dtype)


class _RecordList(_Records):
    """A LinkRecord sequence, batched by stacking the records' rows."""

    _name = "<records>"

    def __init__(self, records):
        self._records = list(records)
        if len({(rec.blocks.shape[0], rec.blocks.shape[2])
                for rec in self._records}) > 1:
            raise ValueError("records disagree on operator count or block width")
        self.p = np.array([rec.pooled_count for rec in self._records], dtype=np.int64)
        self.labels = np.array([rec.label for rec in self._records], dtype=np.int64)
        self._r1, self._w = (np.array([rec.blocks.shape[k] for rec in self._records],
                                      dtype=np.int64) for k in (0, 2))

    def _fill(self, index, p, row, dtype):
        starts = _starts(p)
        rows = np.empty((starts[-1], row), dtype)
        for i, lo, hi in zip(index.tolist(), starts[:-1].tolist(), starts[1:].tolist()):
            blocks = self._records[i].blocks
            # rounded to float32 first, as a record file holds them
            rows[lo:hi].reshape(hi - lo, blocks.shape[0], -1)[...] = (
                blocks.transpose(1, 0, 2).astype(np.float32, copy=False))
        return rows


class _RecordBuffer(_Records):
    """Records in the file layout, indexed by arrays and read through one
    primitive, ``_read(offset, size)``: the bytes at an offset.

    ``offsets`` gives each record's byte offset. This class holds the bytes
    in memory; when every record is dense with the same (p, r+1, w), all
    blocks are also one strided array view. Iteration decodes a piece of
    records at a time with one ``batch`` call (``_pieces``).
    """

    def __init__(self, buf, name):
        self._buf, self._name = buf, name
        _check_file_header(buf, name)
        heads, offsets, end = _scan(buf, 0, _FILE_HEADER.size)
        self._set_index([heads], [offsets], end, len(buf))

    def _set_index(self, heads, offsets, end: int, total: int) -> None:
        """Index from the headers and offsets ``_scan`` found in each piece
        of a file of ``total`` bytes whose last record ends at ``end``;
        also the strided block view of held bytes, when there is one."""
        if end < total:
            raise RecordFormatError(f"{self._name}: truncated record header")
        if end > total:
            raise RecordFormatError(f"{self._name}: truncated record payload")
        head = np.concatenate(heads)
        self.offsets = np.concatenate(offsets)
        self.p = head["p"].astype(np.int64)
        self.labels = head["label"].copy()
        self._r1, self._w, self._nnz = (head[name].astype(np.int64)
                                        for name in ("r1", "w", "nnz"))
        self._size = _record_bytes(self.p, self._r1, self._w, self._nnz)
        self._payload = None
        if self._buf is not None and len(self) and self._nnz[0] == _DENSE and all(
                (a == a[0]).all() for a in (self.p, self._r1, self._w, self._nnz)):
            p, row = int(self.p[0]), int(self._r1[0] * self._w[0])
            self._payload = np.ndarray(
                (len(self), p * row), "<f4", self._buf,
                int(self.offsets[0]) + _HEADER.itemsize + 4 * p,
                (int(self._size[0]), 4))

    def _read(self, offset: int, size: int):
        """The ``size`` bytes at file offset ``offset``."""
        return memoryview(self._buf)[offset:offset + size]

    def __getitem__(self, i: int) -> LinkRecord:
        i = range(len(self))[i]
        return next(self._decoded(i, i + 1))

    def __iter__(self):
        for lo, hi in self._pieces():
            yield from self._decoded(lo, hi)

    def _pieces(self):
        """Runs [lo, hi) of consecutive records of one (r+1, w) that decode
        to at most ``READ_PIECE`` bytes of float32 rows (or one record)."""
        end = np.cumsum(4 * self.p * self._r1 * self._w)
        cuts = np.flatnonzero(np.diff(self._r1) | np.diff(self._w)) + 1
        lo = 0
        for stop in [*cuts.tolist(), len(self)]:
            while lo < stop:
                done = int(end[lo - 1]) if lo else 0
                hi = int(np.searchsorted(end, done + READ_PIECE, side="right"))
                hi = min(stop, max(hi, lo + 1))
                yield lo, hi
                lo = hi

    def _decoded(self, lo: int, hi: int):
        """LinkRecords lo..hi-1, decoded by one ``batch`` call; each one's
        blocks are a view of that batch's rows."""
        rows = self.batch(np.arange(lo, hi))[0]
        at = 0
        for off, p in zip(self.offsets[lo:hi].tolist(), self.p[lo:hi].tolist()):
            head = self._read(off, _HEADER.itemsize + 4 * p)
            u, v, label, _, r1, w, _ = _HEADER_STRUCT.unpack_from(head)
            ids = np.frombuffer(head, "<u4", p, _HEADER.itemsize).astype(np.int64)
            blocks = rows[at:at + p].reshape(p, r1, w).transpose(1, 0, 2)
            at += p
            yield LinkRecord(u, v, label, ids, blocks)

    def _fill(self, index, p, row, dtype):
        """The batch rows of the records at ``index``, which pool ``p`` rows
        each, ``row`` values a row."""
        if self._payload is not None:
            return self._payload[index].reshape(-1, row).astype(dtype, copy=False)
        starts = _starts(p)
        nnz = self._nnz[index]
        sparse = nnz != _DENSE
        rows = (np.zeros if sparse.any() else np.empty)((starts[-1], row), dtype)
        flat = rows.reshape(-1)
        size = row * np.diff(starts)
        at = self.offsets[index] + _HEADER.itemsize + 4 * self.p[index]
        for lo, off, n in zip((row * starts[:-1])[~sparse].tolist(),
                              at[~sparse].tolist(), size[~sparse].tolist()):
            flat[lo:lo + n] = np.frombuffer(self._read(off, 4 * n), "<f4")
        if sparse.any():
            _scatter(flat, row * starts[:-1][sparse],
                     [self._read(off, 8 * n) for off, n in
                      zip(at[sparse].tolist(), nnz[sparse].tolist())],
                     nnz[sparse], size[sparse], self._name)
        return rows


class RecordFile(_RecordBuffer):
    """Sequential, random-access and batch reader for a record file.

    Opening makes one pass over the file in pieces of at most
    ``READ_PIECE`` bytes. The pass checks magic and version, indexes the
    records as arrays and, when a sibling manifest exists, checks its
    record count and hashes every byte against its checksum (on every
    open, unless ``verify=False``). A file that fits in one piece is kept
    as that piece and its descriptor closed. A larger file keeps its
    descriptor, and records are read from it by position, so memory stays
    bounded by a piece and a batch, and reads come from the verified inode
    even after its path is replaced. Only replacing the path is guarded
    against: an in-place edit of the file after open is not detected, and
    such reads return bytes that were never hashed. ``close()`` or a ``with``
    block releases the descriptor; an unclosed one is closed when the
    reader is collected. Safe for concurrent readers.
    """

    def __init__(self, path, verify: bool = True):
        self.path = Path(path)
        self._name, self._buf, self._fd, self._closer = self.path, None, None, None
        self.manifest = manifest = (_read_manifest(self.path, "counts.records")
                                    if verify else None)
        checksum = manifest.get("checksum") if manifest is not None else None
        sha = hashlib.sha256() if checksum is not None else None
        fd = os.open(self.path, os.O_RDONLY)
        try:
            whole = self._read_pass(fd, sha)
            if manifest is not None and manifest["counts"]["records"] != len(self):
                raise RecordFormatError(f"{self.path}: manifest record count mismatch")
            if sha is not None and checksum != "sha256:" + sha.hexdigest():
                raise RecordFormatError(f"{self.path}: manifest checksum mismatch")
        except BaseException:
            os.close(fd)
            raise
        if whole:
            os.close(fd)
        else:
            self._fd = fd
            self._closer = weakref.finalize(self, os.close, fd)

    def _read_pass(self, fd: int, sha) -> bool:
        """One pass over ``fd`` in pieces: hash into ``sha`` (when given),
        check the file header and index every record. Returns whether the
        file came in one piece, which is then kept as ``_buf``."""
        size = os.fstat(fd).st_size
        piece = np.empty(_HEADER.itemsize + min(size, READ_PIECE), dtype=np.uint8)
        heads, offsets = [], []
        base = pos = pieces = 0       # piece[0] is at file offset base
        off = _FILE_HEADER.size
        while True:
            # piece[:pos - base] holds a header the last piece cut short
            n = os.preadv(fd, [piece[pos - base:]], pos)
            if n == 0:
                break
            if sha is not None:
                sha.update(piece[pos - base:pos - base + n])
            pos += n
            pieces += 1
            data = piece[:pos - base]
            if pieces == 1:
                _check_file_header(data, self.path)
            more_heads, more_offsets, off = _scan(data, base, off)
            heads.append(more_heads)
            offsets.append(more_offsets)
            if off < pos:
                piece[:pos - off] = data[off - base:].copy()
            base = min(off, pos)
        if pos < _FILE_HEADER.size:
            raise RecordFormatError(f"{self.path}: truncated header")
        whole = pieces == 1
        if whole:
            self._buf = piece[:pos]
        self._set_index(heads, offsets, off, pos)
        return whole

    def _read(self, offset: int, size: int):
        if self._buf is not None:
            return super()._read(offset, size)
        if self._fd is None:
            raise ValueError(f"{self.path}: record file is closed")
        out = np.empty(size, dtype=np.uint8)
        if os.preadv(self._fd, [out], offset) != size:
            raise RecordFormatError(f"{self.path}: file ends inside the record "
                                    f"at byte {offset}")
        return out

    def close(self) -> None:
        """Release the descriptor and any held bytes; the index stays, and
        later reads raise ValueError."""
        self._buf = self._payload = self._fd = None
        if self._closer is not None:
            self._closer()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()


@contextmanager
def _record_buffer(records):
    """``records`` as batchable records for a ``with`` block: a _Records is
    used as it is, a record file path is opened (and verified) and closed
    after the block, and a LinkRecord sequence is batched from its records'
    own rows."""
    if isinstance(records, _Records):
        yield records
    elif isinstance(records, (str, Path)):
        with RecordFile(records) as opened:
            yield opened
    else:
        yield _RecordList(records)


def read_records(path, verify: bool = True) -> list:
    """All records of a file as a list, in file order."""
    with RecordFile(path, verify=verify) as records:
        return list(records)


def manifest_path(record_path) -> Path:
    return Path(str(record_path) + ".manifest.json")


def _read_manifest(record_path, *required: str) -> dict | None:
    """The JSON manifest beside ``record_path``, or None when there is none.
    Raises RecordFormatError naming the manifest unless it is JSON with
    each ``required`` dotted key, such as ``"counts.records"``."""
    mpath = manifest_path(record_path)
    if not mpath.exists():
        return None
    try:
        manifest = json.loads(mpath.read_text())
        for key in required:
            node = manifest
            for part in key.split("."):
                node = node[part]
    except (ValueError, TypeError, KeyError, IndexError) as exc:
        raise RecordFormatError(f"{mpath}: bad manifest ({exc!r})") from None
    return manifest


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


def _build_chunk(links) -> tuple[bytes, np.ndarray]:
    """Record bytes of ``links`` and their pooled counts."""
    graph, config, seed, power_cache = _WORKER["args"]
    pooled, starts, blocks = _link_records(graph, links, config, seed, power_cache)
    return _encode(links, pooled, starts, blocks), np.diff(starts)


def _built_chunks(graph, config, seed, chunks, worker_count):
    """_build_chunk over ``chunks`` in input order, on a pool if asked."""
    power_cache = _power_cache_for(graph, config)
    args = (graph, config, seed, power_cache)
    if worker_count > 1 and chunks:
        # An unattributed graph's column of ones is built before the fork,
        # so the workers share one copy instead of each building its own.
        graph._feature_rows
        # imported here, so a process that runs no pool never loads it
        import multiprocessing as mp
        ctx = mp.get_context("fork")
        with ctx.Pool(worker_count, initializer=_init_worker,
                      initargs=args) as pool:
            yield from pool.imap(_build_chunk, chunks)
    else:
        _init_worker(*args)
        yield from map(_build_chunk, chunks)


def _chunks(links: np.ndarray) -> list:
    return [links[i:i + CHUNK_LINKS]
            for i in range(0, links.shape[0], CHUNK_LINKS)]


def _power_cache_for(graph: Graph, config: SamplingOperatorSet) -> dict:
    if config.variant is not Variant.SOP:
        return {}
    return {i: graph_power(graph, i) for i in range(2, config.num_operators)}


def precompute_dataset(graph: Graph, links, config: SamplingOperatorSet,
                       out_path, worker_count: int = 1,
                       seed: int = 0) -> DatasetStats:
    """Build and store LinkRecords for every (u, v, label) in ``links``.

    Records are written in input order and the output is byte-identical
    for any ``worker_count``. A JSON manifest is written next to the file,
    with its stored ``total_bytes`` and the dense ``logical_bytes``.
    """
    links = np.asarray(links, dtype=np.int64).reshape(-1, 3)
    out_path = Path(out_path)
    w = config.block_width(graph)
    t0 = time.monotonic()
    p_max, logical = 0, _FILE_HEADER.size
    with _RecordWriter(out_path) as out:
        for blob, p in _built_chunks(graph, config, seed, _chunks(links),
                                     worker_count):
            out.write(blob)
            p_max = max(p_max, int(p.max()))
            logical += int(_record_bytes(p, config.num_operators, w).sum())
    elapsed = time.monotonic() - t0
    n = int(links.shape[0])
    positives = int((links[:, 2] == 1).sum())
    manifest = {
        "format": {"magic": _MAGIC.decode("ascii"), "version": _VERSION},
        "config": {**config.echo(), "seed": seed},
        "counts": {"records": n, "positives": positives,
                   "negatives": n - positives},
        "w": w,
        "p_max": p_max,
        "total_bytes": out.total_bytes,
        "logical_bytes": logical,
        "checksum": "sha256:" + out.sha256.hexdigest(),
    }
    with open(manifest_path(out_path), "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return DatasetStats(n, out.total_bytes, elapsed,
                        n / elapsed if elapsed > 0 else float("inf"))


@dataclass(frozen=True)
class StorageReport:
    """Logical (dense) record bytes vs a SEAL-style store for one link set."""

    num_links: int
    record_bytes: int
    seal_bytes: int
    reduction_pct: float
    block_width: int


def storage_comparison(graph: Graph, links, config: SamplingOperatorSet) -> StorageReport:
    """Compare record storage against storing full h-hop subgraphs per link.

    The baseline stores, per link, the h-hop subgraph's edge list (two u32
    ids per edge) plus all node feature rows (w float32 each); ours stores
    the fixed-size record, counted dense. Reduction may be negative and is
    not clamped.
    """
    links = np.asarray(links, dtype=np.int64).reshape(-1, 3)
    w = config.block_width(graph)
    r1 = config.num_operators
    record_bytes = _FILE_HEADER.size
    seal_bytes = 0
    for chunk in _chunks(links):
        nodes, edges = _hop_sizes(graph, chunk[:, 0], chunk[:, 1], config.h)
        seal_bytes += edges * 2 * 4 + nodes * w * 4
        p = np.diff(_pooled_ids(graph, chunk[:, 0], chunk[:, 1], config)[1])
        record_bytes += int(_record_bytes(p, r1, w).sum())
    reduction = ((seal_bytes - record_bytes) / seal_bytes * 100.0
                 if seal_bytes else float("nan"))
    return StorageReport(int(links.shape[0]), record_bytes, seal_bytes,
                         reduction, w)
