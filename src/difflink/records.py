"""Diffusion features restricted to pooled nodes: the chunk engine.

For each candidate link this module builds the operator-level rows
Z^(i) = M^(i) X at the pooled nodes only (targets, optionally common
neighbors), zero-filling rows of pooled nodes absent from an operator's
subgraph. The result is a LinkRecord (stored by ``store``) whose byte
size depends only on (operator count, pooled count, feature width).

Records are built a fixed-size chunk of links at a time: the chunk's link
subgraphs form one block-diagonal graph, labeled in one pass, and every
diffusion power is one sparse product over all of its pooled rows; one
link is a chunk of one.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .graphs import (CSRMatrix, Graph, _as_member, _CaseInsensitiveEnum,
                     _check_integer, _common_neighbors, _entries, _is_integer,
                     _link_arrays, _row_offsets, _unique, normalized_adjacency)
from .labeling import LabelScheme, _drnl, label_dim_for, node_labels
from .sampling import (UNREACHABLE, Subgraph, _hop_sizes, _reach, hop_subgraphs,
                       walk_subgraphs)
from .store import (_FILE_HEADER, CHUNK_LINKS, MAX_CCN_CAP, MAX_R, Pooling,
                    _encode, _record_bytes, _RecordWriter, _starts)
# The benchmark's checks read ``difflink.records.RecordFile``.
from .store import RecordFile  # noqa: F401


class Variant(_CaseInsensitiveEnum):
    POS = "PoS"
    POS_PLUS = "PoSPlus"
    SOP = "SoP"
    POS_SCALED = "PoSScaLed"
    POS_PLUS_SCALED = "PoSPlusScaLed"


_CCN_VARIANTS = (Variant.POS_PLUS, Variant.POS_PLUS_SCALED)
_SCALED_VARIANTS = (Variant.POS_SCALED, Variant.POS_PLUS_SCALED)

# Pooled-node budget for CCN: targets plus at most this many common
# neighbors, kept highest-degree-first. Logged in the manifest.
CCN_CAP = 128


@dataclass(frozen=True)
class SamplingOperatorSet:
    """Which subgraphs to sample and which diffusion operators to apply.

    ``r`` is the operator count (powers 1..r; the identity operator is
    always prepended, so records hold r+1 blocks). ``h`` is the hop count
    of PoS and PoSPlus subgraphs; the ScaLed variants sample ``k`` walks of
    length ``l`` instead. SoP samples no subgraph: operator i sums each
    target's i-hop ball in G - (u, v), so ``h`` sets only the blocks its
    DRNL labels are measured in. ``pooling`` follows from the variant.
    ``normalized`` switches the adjacency powers to the degree-normalized
    form, for ablation only; SoP refuses it.
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
            object.__setattr__(self, name, _as_member(kind, name, getattr(self, name)))
        _check_integer("r", self.r, 1, MAX_R)
        _check_integer("h", self.h, 1)
        scaled = self.variant in _SCALED_VARIANTS
        for name in ("k", "l"):
            value = getattr(self, name)
            if not scaled and value is not None:
                raise ValueError(f"{name}: variant {self.variant.value} takes no "
                                 f"walk parameters")
            if scaled and not (_is_integer(value) and value >= 1):
                raise ValueError(f"{name}: ScaLed variants require integer walk parameters "
                                 f"k, l >= 1, got {value!r}")
        _check_integer("label_cap", self.label_cap, 1)
        _check_integer("ccn_cap", self.ccn_cap, 0, MAX_CCN_CAP)
        if not isinstance(self.normalized, (bool, np.bool_)):
            raise ValueError(f"normalized: expected a bool, got {self.normalized!r}")
        object.__setattr__(self, "normalized", bool(self.normalized))
        if self.normalized and self.variant is Variant.SOP:
            raise ValueError("normalized: variant SoP sums plain adjacency rows only")

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

    Each sum is added up in y's stored order, exact-zero sums are dropped
    and each row lists its columns in ascending order, as a sorted CSR
    product gives them. The sums sit in one dense accumulator over the
    rows' blocks, row i's at ``start[i] + column - lo[i]``.
    """
    counts, at = _entries(a.indptr, y.indices)
    start = np.zeros(y.shape[0] + 1, dtype=np.int64)
    np.cumsum(size, out=start[1:])
    key = np.repeat((start[:-1] - lo)[y._rows()], counts) + a.indices[at]
    sums = np.bincount(key, weights=np.repeat(y.data, counts) * a.data[at],
                       minlength=start[-1])
    key = np.flatnonzero(sums)
    row = np.searchsorted(start, key, side="right") - 1
    return CSRMatrix(_row_offsets(row, y.shape[0]), key - start[row] + lo[row],
                     sums[key], y.shape)


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
    out = np.empty((r + 1, p, label_dim + features.shape[1]), dtype=np.float32)
    for i in range(r + 1):
        if i:
            # A is symmetric, so y A gives the pooled rows of the next power.
            y = _block_product(y, a, lo, size)
        _pooled_sums(out[i], y._rows(), sub.global_ids[y.indices], y.data,
                     labels[y.indices], features)
    return out


def _pooled_sums(out: np.ndarray, row: np.ndarray, ids: np.ndarray,
                 weights: np.ndarray, labels: np.ndarray, features: CSRMatrix):
    """Fill ``out`` (p, label_dim + width): row j sums weights[k] * [one-hot
    labels[k] | feature row of node ids[k]] over the k with row[k] == j."""
    p, width = out.shape[0], features.shape[1]
    label_dim = out.shape[1] - width
    out[:, :label_dim] = np.bincount(row * label_dim + labels, weights=weights,
                                     minlength=p * label_dim).reshape(p, label_dim)
    # each (row, feature) sum taken over the row's entries in the given order
    counts, at = _entries(features.indptr, ids)
    out[:, label_dim:] = np.bincount(
        np.repeat(row * width, counts) + features.indices[at],
        weights=np.repeat(weights, counts) * features.data[at],
        minlength=p * width).reshape(p, width)


def _in_sorted(keys: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``np.isin(keys, table)`` for a sorted, distinct ``table``, looked up
    by binary search instead of sorting ``table`` again."""
    if table.shape[0] == 0:
        return np.zeros(keys.shape[0], dtype=bool)
    return table[np.minimum(np.searchsorted(table, keys), table.shape[0] - 1)] == keys


def _sop_distances(graph: Graph, x: np.ndarray, o: np.ndarray, block: np.ndarray,
                   targets: np.ndarray, i: int) -> np.ndarray:
    """d_o(w) in row j's block of G'^i, x[j] removed, for each key
    ``j * num_nodes + w`` of ``targets``; ``block`` holds the keys of every
    row's block. A BFS from o[j]: each round an i-hop reach in G' from the
    frontier, landing on unvisited block nodes only. A row stops once its
    targets are all found or its frontier is empty."""
    n = graph.num_nodes
    rows = np.arange(x.shape[0]) * n
    visited, frontier = _unique(np.concatenate([rows + x, rows + o])), rows + o
    dist = np.full(targets.shape[0], UNREACHABLE, dtype=np.int64)
    depth = 0
    while frontier.shape[0]:
        depth += 1
        reached = _reach(graph, frontier, i, x, o)
        reached = reached[_in_sorted(reached, block) & ~_in_sorted(reached, visited)]
        dist[_in_sorted(targets, reached)] = depth
        visited = _unique(np.concatenate([visited, reached]))
        open_rows = np.bincount(targets[dist == UNREACHABLE] // n,
                                minlength=x.shape[0]) > 0
        frontier = reached[open_rows[reached // n]]
    return dist


def _sop_rows(graph: Graph, u: np.ndarray, v: np.ndarray,
              config: SamplingOperatorSet) -> np.ndarray:
    """SoP's (r+1, 2B, w) rows at the pooled u[0], v[0], u[1], ...: operator
    i applies one adjacency of the h-hop block of G'^i, G' = G - (u[b], v[b]).
    So its row at pooled node x sums [one-hot label | X] over the nodes
    w != x, o within i hops of x in G', o the other target, labelled 0 or by
    DRNL from d_x(w) = 1 and d_o(w). Operator 0 is x itself, labelled 1."""
    n = graph.num_nodes
    x, o = np.stack([u, v], axis=1).ravel(), np.stack([v, u], axis=1).ravel()
    ball = np.arange(x.shape[0]) * n + x
    block = _unique(np.concatenate([ball, ball - x + o]))
    features = graph._feature_rows
    out = np.empty((config.num_operators, x.shape[0],
                    config.label_dim() + features.shape[1]), dtype=np.float32)
    _pooled_sums(out[0], ball // n, x, np.ones(x.shape[0]), np.ones_like(x), features)
    for i in range(1, config.num_operators):
        ball = _reach(graph, ball, 1, x, o)
        row, w = np.divmod(ball, n)
        keep = (w != x[row]) & (w != o[row])
        labels = np.zeros(np.count_nonzero(keep), dtype=np.int64)
        if config.labeling is LabelScheme.DRNL:
            # a reach from both ends never steps along (x, o): no filter
            block = _reach(graph, block, config.h)
            d_o = _sop_distances(graph, x, o, block, ball[keep], i)
            labels = np.minimum(_drnl(np.ones_like(d_o), d_o), config.label_cap)
        _pooled_sums(out[i], row[keep], w[keep], np.ones(labels.shape[0]), labels,
                     features)
    return out


def _link_records(graph: Graph, links: np.ndarray, config: SamplingOperatorSet,
                  seed: int):
    """Records of every (u, v, label) row of ``links``, built together, as
    arrays: (pooled ids, block starts, blocks).

    Link b pools ``pooled[starts[b]:starts[b + 1]]`` and its rows are
    ``blocks[:, starts[b]:starts[b + 1]]`` of the (r+1, P, w) float32
    ``blocks``.
    """
    if not np.isin(links[:, 2], (0, 1)).all():
        raise ValueError("link label must be 0 or 1")
    u, v = _link_arrays(graph, links[:, 0], links[:, 1])
    pooled, starts = _pooled_ids(graph, u, v, config)
    if config.variant is Variant.SOP:
        return pooled, starts, _sop_rows(graph, u, v, config)
    features = graph._feature_rows
    if config.variant in _SCALED_VARIANTS:
        seeds = [_walk_seed(seed, *map(int, link)) for link in links]
        unions = walk_subgraphs(graph, u, v, config.k, config.l, seeds)
    else:
        unions = hop_subgraphs(graph, u, v, config.h)
    # pooled rows of every link, one union of consecutive links at a time
    out, lo = [], 0
    for sub in unions:
        hi = lo + sub.starts.shape[0] - 1
        at = slice(starts[lo], starts[hi])
        link = np.repeat(np.arange(hi - lo), np.diff(starts[lo:hi + 1]))
        out.append(_diffuse(sub, features, link, pooled[at], config, config.r))
        lo = hi
    return pooled, starts, np.concatenate(out, axis=1)


@dataclass(frozen=True)
class DatasetStats:
    """Outcome of one precompute run."""

    record_count: int
    total_bytes: int
    wall_time_s: float
    records_per_sec: float


_WORKER = {}


def _build_chunk(links) -> tuple[bytes, np.ndarray]:
    """Record bytes of ``links`` and their pooled counts."""
    graph, config, seed = _WORKER["args"]
    pooled, starts, blocks = _link_records(graph, links, config, seed)
    return _encode(links, pooled, starts, blocks), np.diff(starts)


def _built_chunks(graph, config, seed, chunks, worker_count):
    """_build_chunk over ``chunks`` in input order, on a pool if asked."""
    # set before the pool forks, so its workers inherit it; cleared after
    _WORKER["args"] = (graph, config, seed)
    try:
        if worker_count > 1 and chunks:
            # An unattributed graph's column of ones is built before the fork,
            # so the workers share one copy instead of each building its own.
            graph._feature_rows
            # imported here, so a process that runs no pool never loads it
            import multiprocessing as mp
            ctx = mp.get_context("fork")
            with ctx.Pool(worker_count) as pool:
                yield from pool.imap(_build_chunk, chunks)
        else:
            yield from map(_build_chunk, chunks)
    finally:
        _WORKER.clear()


def _link_rows(links) -> np.ndarray:
    """``links`` as int64 (u, v, label) rows; ValueError naming what it got
    unless it is an (n, 3) integer array."""
    array = np.asarray(links)
    if array.ndim != 2 or array.shape[1] != 3 or (
            array.size and array.dtype.kind not in "iu"):
        raise ValueError(f"links: expected an (n, 3) integer array of (u, v, label) "
                         f"rows, got shape {array.shape} of {array.dtype}")
    return array.astype(np.int64, copy=False)


def _chunks(links: np.ndarray) -> list:
    return [links[i:i + CHUNK_LINKS]
            for i in range(0, links.shape[0], CHUNK_LINKS)]


def precompute_dataset(graph: Graph, links, config: SamplingOperatorSet,
                       out_path, worker_count: int = 1,
                       seed: int = 0) -> DatasetStats:
    """Build and store LinkRecords for every (u, v, label) in ``links``.

    Records are written in input order and the output is byte-identical
    for any ``worker_count``. A JSON manifest is written next to the file,
    with its stored ``total_bytes`` and the dense ``logical_bytes``; the
    pair replaces the previous one only once both are complete.
    """
    _check_integer("worker_count", worker_count, 1)
    _check_integer("seed", seed, 0)
    links = _link_rows(links)
    w = config.block_width(graph)
    n = int(links.shape[0])
    positives = int((links[:, 2] == 1).sum())
    t0 = time.monotonic()
    p_max, logical = 0, _FILE_HEADER.size
    with _RecordWriter(out_path) as out:
        for blob, p in _built_chunks(graph, config, seed, _chunks(links),
                                     worker_count):
            out.write(blob)
            p_max = max(p_max, int(p.max()))
            logical += int(_record_bytes(p, config.num_operators, w).sum())
        out.manifest = {
            "config": {**config.echo(), "seed": seed},
            "counts": {"records": n, "positives": positives,
                       "negatives": n - positives},
            "w": w,
            "p_max": p_max,
            "total_bytes": out.total_bytes,
            "logical_bytes": logical,
            "checksum": "sha256:" + out.sha256.hexdigest(),
        }
    elapsed = time.monotonic() - t0
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
    links = _link_rows(links)
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
