"""Record files: the stored form of precomputed link records.

This module writes records, verifies and reads them back and batches them
into model inputs; ``records`` builds them. It imports no sampler, so a
process that only scores stored records loads none.

Record file layout (little-endian):
    magic "S3GR", version u16
    per record: u u32, v u32, label u8, p u16, r_plus_1 u16, w u32, nnz u32,
                p global node ids u32, then the (p, r_plus_1, w) float32
                blocks in batch-row order: all p * r_plus_1 * w values when
                nnz is 0xFFFFFFFF, else the nnz nonzero ones (bits other
                than +0.0's) as u32 positions, strictly increasing, then
                float32 values; a chunk's records are all one or the other
Every record of a file has the same r_plus_1 and w; a JSON manifest beside
it (``manifest_path``) logs its config, counts and checksum.
"""
from __future__ import annotations

import hashlib
import json
import os
import struct
import uuid
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graphs import _CaseInsensitiveEnum

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


# The record header stores r+1 and p as u16, so r and ccn_cap are bounded.
MAX_R = 0xFFFF - 1
MAX_CCN_CAP = 0xFFFF - 2

# Links the chunk engine (``records``) builds and encodes together, so a
# chunk's records are all dense or all sparse; bounds the engine's memory.
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


class Pooling(_CaseInsensitiveEnum):
    CENTER = "Center"
    CCN = "CCN"


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
    def pooled_count(self) -> int:
        return self.blocks.shape[1]

    def byte_size(self) -> int:
        """Logical (dense) size in bytes; a function of (r, p, w) only."""
        r1, p, w = self.blocks.shape
        return _record_bytes(p, r1, w)


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


def _temp_beside(path: Path) -> Path:
    return path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")


class _RecordWriter:
    """Writes a record file beside ``path``, hashing as it goes, and, when
    ``manifest`` is set by the end of the ``with`` block, the file's format
    and that manifest beside it too. Both move into place only if the block
    exits cleanly, and only once both are complete; otherwise ``path`` and
    its manifest keep their previous state (absent or the old bytes)."""

    manifest = None

    def __init__(self, path):
        self.path = Path(path)
        self._tmp = _temp_beside(self.path)
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
        mpath = manifest_path(self.path)
        tmp_manifest = _temp_beside(mpath)
        try:
            self._fh.close()
            if exc_type is None:
                if self.manifest is not None:
                    with open(tmp_manifest, "x") as fh:
                        json.dump({"format": {"magic": _MAGIC.decode("ascii"),
                                              "version": _VERSION},
                                   **self.manifest}, fh, indent=2)
                        fh.write("\n")
                os.replace(self._tmp, self.path)
                if self.manifest is not None:
                    os.replace(tmp_manifest, mpath)
        finally:
            self._tmp.unlink(missing_ok=True)
            tmp_manifest.unlink(missing_ok=True)


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

    ``p`` and ``labels`` give each record's pooled count and label; every
    record has ``_r1`` operators of block width ``_w``. A subclass writes
    the rows of the records asked for (``_fill``). ``manifest`` is the
    parsed manifest the records were verified against, or None.
    """

    manifest = None

    def __len__(self) -> int:
        return self.p.shape[0]

    @property
    def row_width(self) -> int:
        """(r+1) * w: the width of a batch row."""
        return self._r1 * self._w

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
        p = self.p[index]
        rows = self._fill(index, p, self.row_width, dtype)
        mask = np.arange(p.max()) < p[:, None]
        return rows, mask, self.labels[index].astype(dtype)


class _RecordList(_Records):
    """A LinkRecord sequence, batched by stacking the records' rows."""

    _name = "<records>"

    def __init__(self, records):
        self._records = list(records)
        shapes = {rec.blocks.shape[::2] for rec in self._records}
        if len(shapes) > 1:
            raise ValueError("records disagree on operator count or block width")
        self._r1, self._w = shapes.pop() if shapes else (0, 0)
        self.p = np.array([rec.pooled_count for rec in self._records], dtype=np.int64)
        self.labels = np.array([rec.label for rec in self._records], dtype=np.int64)

    def _fill(self, index, p, row, dtype):
        starts = _starts(p)
        rows = np.empty((starts[-1], row), dtype)
        for i, lo, hi in zip(index.tolist(), starts[:-1].tolist(), starts[1:].tolist()):
            blocks = self._records[i].blocks
            # rounded to float32 first, as a record file holds them
            rows[lo:hi].reshape(hi - lo, blocks.shape[0], -1)[...] = (
                blocks.transpose(1, 0, 2).astype(np.float32, copy=False))
        return rows


class RecordFile(_Records):
    """Sequential, random-access and batch reader for a record file.

    Opening makes one pass over the file in pieces of at most
    ``READ_PIECE`` bytes. The pass checks magic and version, indexes the
    records as arrays (``offsets``, ``p``, ``labels``), checks that they
    share one (r+1, w) and, when a sibling manifest exists, checks its
    record count and hashes every byte against its checksum (on every
    open, unless ``verify=False``). A file that fits in one piece is kept
    as that piece and its descriptor closed; when every record is dense
    with one p, all blocks are also one strided array view. A larger file
    keeps its descriptor, and records are read from it by position, so
    memory stays bounded by a piece and a batch, and reads come from the
    verified inode even after its path is replaced. Only replacing the
    path is guarded against: an in-place edit of the file after open is
    not detected, and such reads return bytes that were never hashed.
    Iteration decodes a piece of records at a time with one ``batch`` call
    (``_pieces``). ``close()`` or a ``with`` block releases the descriptor;
    an unclosed one is closed when the reader is collected. Safe for
    concurrent readers.
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
        self._set_index(np.concatenate(heads), np.concatenate(offsets), off, pos)
        return whole

    def _set_index(self, head, offsets, end: int, total: int) -> None:
        """Index from the headers ``head`` and their ``offsets`` in a file
        of ``total`` bytes whose last record ends at ``end``; also the
        strided block view of held bytes, when there is one."""
        if end < total:
            raise RecordFormatError(f"{self._name}: truncated record header")
        if end > total:
            raise RecordFormatError(f"{self._name}: truncated record payload")
        r1, w = head["r1"].astype(np.int64), head["w"].astype(np.int64)
        if len(head) and ((r1 != r1[0]).any() or (w != w[0]).any()):
            raise RecordFormatError(f"{self._name}: records disagree on operator "
                                    f"count or block width")
        self._r1, self._w = (int(r1[0]), int(w[0])) if len(head) else (0, 0)
        self.offsets = offsets
        self.p = head["p"].astype(np.int64)
        self.labels = head["label"].copy()
        self._nnz = head["nnz"].astype(np.int64)
        self._size = _record_bytes(self.p, self._r1, self._w, self._nnz)
        self._payload = None
        if self._buf is not None and len(self) and self._nnz[0] == _DENSE and all(
                (a == a[0]).all() for a in (self.p, self._nnz)):
            p = int(self.p[0])
            self._payload = np.ndarray(
                (len(self), p * self.row_width), "<f4", self._buf,
                int(self.offsets[0]) + _HEADER.itemsize + 4 * p,
                (int(self._size[0]), 4))

    def _read(self, offset: int, size: int):
        """The ``size`` bytes at file offset ``offset``: a slice of the held
        piece, or a positional read on the kept descriptor."""
        if self._buf is not None:
            return memoryview(self._buf)[offset:offset + size]
        if self._fd is None:
            raise ValueError(f"{self.path}: record file is closed")
        out = np.empty(size, dtype=np.uint8)
        if os.preadv(self._fd, [out], offset) != size:
            raise RecordFormatError(f"{self.path}: file ends inside the record "
                                    f"at byte {offset}")
        return out

    def __getitem__(self, i: int) -> LinkRecord:
        i = range(len(self))[i]
        return next(self._decoded(i, i + 1))

    def __iter__(self):
        for lo, hi in self._pieces():
            yield from self._decoded(lo, hi)

    def _pieces(self):
        """Runs [lo, hi) of consecutive records that decode to at most
        ``READ_PIECE`` bytes of float32 rows (or one record)."""
        end = np.cumsum(4 * self.row_width * self.p)
        lo = 0
        while lo < len(self):
            done = int(end[lo - 1]) if lo else 0
            hi = int(np.searchsorted(end, done + READ_PIECE, side="right"))
            hi = max(hi, lo + 1)
            yield lo, hi
            lo = hi

    def _decoded(self, lo: int, hi: int):
        """LinkRecords lo..hi-1, decoded by one ``batch`` call; each one's
        blocks are a view of that batch's rows."""
        rows = self.batch(np.arange(lo, hi))[0]
        at = 0
        for off, p in zip(self.offsets[lo:hi].tolist(), self.p[lo:hi].tolist()):
            head = self._read(off, _HEADER.itemsize + 4 * p)
            u, v, label = _HEADER_STRUCT.unpack_from(head)[:3]
            ids = np.frombuffer(head, "<u4", p, _HEADER.itemsize).astype(np.int64)
            blocks = rows[at:at + p].reshape(p, self._r1, self._w).transpose(1, 0, 2)
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
