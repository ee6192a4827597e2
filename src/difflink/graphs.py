"""Sparse undirected graphs: construction, file IO, splits, neighborhood queries.

Graphs are immutable and stored in compressed sparse row form with sorted
neighbor lists, no self-loops and no duplicate edges. Node ids are dense
0-based integers. All randomized operations take an explicit integer seed
and are deterministic given that seed.

An unordered node pair is the int64 key ``lo * n + hi``. ``build_graph``
deduplicates edges as sorted keys, and ``sample_negatives`` and
``datasets.random_graph`` draw distinct pairs in batches against a sorted
array of forbidden keys (``_draw_pairs``), with no Python set or loop over
candidates.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np


class GraphFormatError(ValueError):
    """Malformed edge-list or feature file."""


@dataclass(frozen=True, eq=False)
class CSRMatrix:
    """A sparse matrix in compressed sparse row form.

    Row i holds the values ``data[indptr[i]:indptr[i + 1]]`` at the columns
    ``indices[indptr[i]:indptr[i + 1]]``, each column at most once. ``@``
    with a dense vector or matrix adds each output entry's products to
    zero one at a time in stored order, the order of the usual CSR
    product loop, so the two agree bit for bit.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def _rows(self) -> np.ndarray:
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x)
        if x.shape[:1] != self.shape[1:]:
            raise ValueError(f"shapes {self.shape} and {x.shape} do not align")
        cols = x.reshape(self.shape[1], -1)
        width = cols.shape[1]
        slot = self._rows()[:, None] * width + np.arange(width)
        product = self.data[:, None] * cols[self.indices]
        out = np.bincount(slot.ravel(), weights=product.ravel(),
                          minlength=self.shape[0] * width)
        return out.reshape(self.shape[0], *x.shape[1:])

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.data.dtype)
        out[self._rows(), self.indices] = self.data
        return out


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected graph in CSR form, optionally with sparse node features.

    ``indices[indptr[u]:indptr[u + 1]]`` is the sorted neighbor list of
    node ``u``. ``features`` is None or a ``(num_nodes, d)`` CSRMatrix of
    the nonzero feature values: float32 data, int32 columns, ascending in
    every row. ``toarray()`` gives the dense matrix. A CSRMatrix passed in
    is kept as it is; a dense array is converted to its nonzero entries.
    """

    num_nodes: int
    indptr: np.ndarray
    indices: np.ndarray
    features: CSRMatrix | None = None

    def __post_init__(self):
        object.__setattr__(self, "features",
                           _sparse_features(self.features, self.num_nodes))

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self.indices.shape[0] // 2

    @property
    def feature_dim(self) -> int:
        """Width of the feature matrix, 0 if the graph is unattributed."""
        return 0 if self.features is None else self.features.shape[1]

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted neighbor ids of ``u`` (a view, do not mutate)."""
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def degree(self, u: int) -> int:
        return int(self.indptr[u + 1] - self.indptr[u])

    def degrees(self) -> np.ndarray:
        """All node degrees as an int64 array."""
        return np.diff(self.indptr)

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.neighbors(u)
        k = np.searchsorted(nbrs, v)
        return bool(k < nbrs.shape[0] and nbrs[k] == v)

    def edge_array(self) -> np.ndarray:
        """All edges as an (m, 2) int64 array with u < v, lexicographically sorted."""
        src = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degrees())
        dst = self.indices.astype(np.int64)
        keep = src < dst
        return np.stack([src[keep], dst[keep]], axis=1)

    def adjacency(self, dtype=np.float64) -> CSRMatrix:
        """Adjacency matrix with unit weights, sharing the graph's CSR arrays."""
        return CSRMatrix(self.indptr, self.indices,
                         np.ones(self.indices.shape[0], dtype=dtype),
                         (self.num_nodes, self.num_nodes))

    @cached_property
    def _feature_rows(self) -> CSRMatrix:
        """The feature rows diffusion multiplies by: ``features`` itself, or
        one column of ones when the graph is unattributed, built on first
        use and kept with the graph, not rebuilt once per chunk."""
        if self.features is not None:
            return self.features
        n = self.num_nodes
        return CSRMatrix(np.arange(n + 1), np.zeros(n, dtype=np.int32),
                         np.ones(n, dtype=np.float32), (n, 1))

    def same_structure(self, other: "Graph") -> bool:
        """True if both graphs have identical node count and adjacency."""
        return (
            self.num_nodes == other.num_nodes
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )


def _sparse_features(features, num_nodes: int) -> CSRMatrix | None:
    """``features`` as a Graph holds them: None, or float32 CSR rows.

    A CSRMatrix is shape-checked and kept as it is. Anything else is read
    as a dense ``(num_nodes, d)`` array and only its nonzero entries kept.
    """
    if features is None:
        return None
    x = (features if isinstance(features, CSRMatrix)
         else np.asarray(features, dtype=np.float32))
    if len(x.shape) != 2 or x.shape[0] != num_nodes:
        raise ValueError(f"features must be (num_nodes, d), got {x.shape} "
                         f"for {num_nodes} nodes")
    if isinstance(x, CSRMatrix):
        return x
    row, col = np.nonzero(x)
    return CSRMatrix(_row_offsets(row, num_nodes), col.astype(np.int32),
                     x[row, col], x.shape)


def _row_offsets(row: np.ndarray, num_rows: int) -> np.ndarray:
    """CSR ``indptr`` of entries whose ascending row ids are ``row``."""
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=num_rows), out=indptr[1:])
    return indptr


def _unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a 1-D array, as ``np.unique`` gives them.

    A sort and one comparison, faster than the hash table numpy 2.4's
    ``np.unique`` uses: about 8x on a chunk's few thousand keys and 60x on
    two million int64 keys.
    """
    values = np.sort(values)
    if values.shape[0] < 2:
        return values
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def _pair_keys(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Key ``lo * n + hi`` of each unordered node pair, lo = min, hi = max."""
    return np.minimum(u, v) * n + np.maximum(u, v)


def build_graph(num_nodes: int, edges, features=None) -> Graph:
    """Build a Graph from an iterable of (u, v) pairs.

    Self-loops are dropped, duplicates and orientation collapse to a single
    undirected edge. Ids must lie in [0, num_nodes). ``features`` is None,
    a CSRMatrix or a dense ``(num_nodes, d)`` array, as Graph takes them.
    """
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    e = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                   dtype=np.int64).reshape(-1, 2)
    if e.size and (e.min() < 0 or e.max() >= num_nodes):
        raise ValueError("edge endpoint out of range")
    keys = _unique(_pair_keys(e[:, 0], e[:, 1], num_nodes)[e[:, 0] != e[:, 1]])
    lo, hi = np.divmod(keys, num_nodes)
    # both orientations' keys are distinct, so sorting them orders the
    # entries by (src, dst)
    src, dst = np.divmod(np.sort(np.concatenate([keys, hi * num_nodes + lo])),
                         num_nodes)
    return Graph(num_nodes, _row_offsets(src, num_nodes), dst.astype(np.int32),
                 features)


def load_edge_list(path, comment_prefix: str = "#",
                   num_nodes: int | None = None) -> Graph:
    """Parse a whitespace-separated edge list file into a Graph.

    Blank lines and lines starting with ``comment_prefix`` are skipped.
    Node count defaults to max id + 1; ``num_nodes`` may widen it (useful
    when trailing nodes are isolated).
    """
    path = Path(path)
    pairs = _read_pairs(path, comment_prefix)
    edges = pairs[pairs[:, 0] != pairs[:, 1]]
    if edges.shape[0] == 0:
        raise GraphFormatError(f"{path}: empty edge set")
    max_id = int(pairs.max())
    n = max_id + 1
    if num_nodes is not None:
        if num_nodes < n:
            raise GraphFormatError(
                f"{path}: num_nodes={num_nodes} smaller than max id {max_id}")
        n = num_nodes
    return build_graph(n, edges)


def save_edge_list(graph: Graph, path) -> None:
    """Write one 'u v' line per undirected edge; round-trips with load_edge_list."""
    edges = graph.edge_array()
    with open(path, "w") as fh:
        fh.write(f"# undirected edge list: {graph.num_nodes} nodes, {len(edges)} edges\n")
        for u, v in edges:
            fh.write(f"{u} {v}\n")


def load_features(path, graph: Graph) -> Graph:
    """Attach node features read from a text file, kept as sparse rows.

    One row per node, values separated by commas or whitespace. Row count
    must equal ``graph.num_nodes``, all rows must have equal width and
    every value must be finite as a float32.
    """
    path = Path(path)
    cols, vals = [], []
    width = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                row = np.array([float(x) for x in line.replace(",", " ").split()])
            except ValueError:
                raise GraphFormatError(
                    f"{path}:{lineno}: non-numeric feature value") from None
            if width is None:
                width = row.shape[0]
            elif row.shape[0] != width:
                raise GraphFormatError(
                    f"{path}:{lineno}: row has {row.shape[0]} values, expected {width}")
            with np.errstate(over="ignore"):
                row = row.astype(np.float32)
            if not np.isfinite(row).all():
                raise GraphFormatError(
                    f"{path}:{lineno}: feature value is not a finite float32")
            cols.append(np.flatnonzero(row).astype(np.int32))
            vals.append(row[cols[-1]])
    if len(cols) != graph.num_nodes:
        raise GraphFormatError(
            f"{path}: {len(cols)} feature rows for {graph.num_nodes} nodes")
    feats = CSRMatrix(np.cumsum([0] + [c.shape[0] for c in cols]),
                      np.concatenate(cols), np.concatenate(vals), (len(cols), width))
    return Graph(graph.num_nodes, graph.indptr, graph.indices, feats)


# Draws of a round that ``_draw_pairs`` sorts and deduplicates at a time. A
# round draws twice the pairs still wanted, millions on a large graph, so
# this bounds the split layer's memory to the round's ids and one slice.
DRAW_SLICE = 1 << 20


def _draw_pairs(rng: np.random.Generator, n: int, count: int,
                forbidden: np.ndarray, batch) -> np.ndarray:
    """Keys of ``count`` distinct node pairs drawn uniformly, in draw order,
    none of them in the sorted key array ``forbidden``.

    Each round draws ``batch(remaining)`` ids u, then as many ids v, and
    goes through them in slices of ``DRAW_SLICE`` draws, in draw order. A
    slice drops self pairs, keeps the first draw of each key that is not
    forbidden and takes as many of those as are still wanted; taken keys
    are forbidden from then on. Draws past the last one taken are discarded.
    """
    taken = [np.zeros(0, dtype=np.int64)]
    while count > 0:
        size = batch(count)
        u = rng.integers(0, n, size=size)
        v = rng.integers(0, n, size=size)
        for lo in range(0, size, DRAW_SLICE):
            su, sv = u[lo:lo + DRAW_SLICE], v[lo:lo + DRAW_SLICE]
            keys = _pair_keys(su, sv, n)[su != sv]
            order = np.argsort(keys, kind="stable")
            ranked = keys[order]
            first = np.ones(ranked.shape[0], dtype=bool)
            first[1:] = ranked[1:] != ranked[:-1]
            ranked, order = ranked[first], order[first]
            at = np.searchsorted(forbidden, ranked)
            fresh = at == forbidden.shape[0]
            fresh[~fresh] = forbidden[at[~fresh]] != ranked[~fresh]
            new = keys[np.sort(order[fresh])[:count]]
            taken.append(new)
            count -= new.shape[0]
            if count == 0:
                break
            new = np.sort(new)
            forbidden = np.insert(forbidden, np.searchsorted(forbidden, new), new)
    return np.concatenate(taken)


def _edge_keys(graph: Graph) -> np.ndarray:
    """Keys u * n + v (u < v) of the graph's edges, one an edge, sorted
    and distinct: ``edge_array()``'s rows in its order."""
    n = graph.num_nodes
    rows = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
    upper = rows < graph.indices
    return rows[upper] * n + graph.indices[upper]


def sample_negatives(graph: Graph, count: int, seed: int, exclude=None) -> np.ndarray:
    """Sample ``count`` distinct non-edges of ``graph`` uniformly at random.

    ``exclude`` is an optional (k, 2) array of extra forbidden pairs, in
    either orientation; its self pairs are ignored. Deterministic given
    ``seed``. Raises ValueError for a negative ``count``, an ``exclude`` id
    outside [0, num_nodes), or fewer than ``count`` candidate pairs.
    """
    n = graph.num_nodes
    if count < 0:
        raise ValueError(f"count: expected an integer >= 0, got {count}")
    forbidden = _edge_keys(graph)
    if exclude is not None:
        ex = np.asarray(exclude, dtype=np.int64).reshape(-1, 2)
        bad = np.flatnonzero(((ex < 0) | (ex >= n)).any(axis=1))
        if bad.shape[0]:
            raise ValueError(f"exclude: node id out of range: "
                             f"({ex[bad[0], 0]}, {ex[bad[0], 1]})")
        ex = ex[ex[:, 0] != ex[:, 1]]
        forbidden = _unique(np.concatenate([forbidden,
                                            _pair_keys(ex[:, 0], ex[:, 1], n)]))
    total_pairs = n * (n - 1) // 2
    available = total_pairs - forbidden.shape[0]
    if count > available:
        raise ValueError(
            f"requested {count} negatives but only {available} non-edges available")
    rng = np.random.default_rng(seed)

    # Dense enumeration when rejection would stall (graph nearly complete).
    if count > available // 2 and total_pairs <= 20_000_000:
        enc = _pair_keys(*np.triu_indices(n, k=1), n)
        mask = np.ones(enc.shape[0], dtype=bool)
        mask[np.searchsorted(enc, forbidden)] = False
        keys = rng.choice(enc[mask], size=count, replace=False)
    else:
        keys = _draw_pairs(rng, n, count, forbidden,
                           lambda remaining: max(1024, 2 * remaining))
    return np.stack(np.divmod(keys, n), axis=1)


@dataclass(frozen=True, eq=False)
class EdgeSplit:
    """Train/valid/test partition of a graph's edges plus sampled negatives.

    ``observed_graph`` is the input graph with validation and test positives
    removed; it is the only graph later stages are allowed to read.
    """

    observed_graph: Graph
    train_pos: np.ndarray
    valid_pos: np.ndarray
    test_pos: np.ndarray
    train_neg: np.ndarray
    valid_neg: np.ndarray
    test_neg: np.ndarray
    seed: int
    ratios: tuple[float, float, float]

    def positives(self, name: str) -> np.ndarray:
        return {"train": self.train_pos, "valid": self.valid_pos,
                "test": self.test_pos}[name]

    def negatives(self, name: str) -> np.ndarray:
        return {"train": self.train_neg, "valid": self.valid_neg,
                "test": self.test_neg}[name]


def labeled_links(split: EdgeSplit, part: str) -> np.ndarray:
    """(u, v, label) rows for one split part: positives first, then negatives."""
    pos = split.positives(part)
    neg = split.negatives(part)
    out = np.zeros((pos.shape[0] + neg.shape[0], 3), dtype=np.int64)
    out[:pos.shape[0], :2] = pos
    out[:pos.shape[0], 2] = 1
    out[pos.shape[0]:, :2] = neg
    return out


def split_edges(graph: Graph, ratios=(0.85, 0.05, 0.10), seed: int = 0) -> EdgeSplit:
    """Shuffle edges with ``seed`` and partition into train/valid/test.

    Valid and test receive floor(ratio * m) edges, train the remainder.
    An equal number of negatives is sampled per split; negative sets are
    disjoint across splits and never coincide with an edge of the full
    graph. Raises ValueError if any part would be empty.
    """
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or any(r <= 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must be three positive fractions summing to 1, got {ratios}")
    keys = _edge_keys(graph)
    m = keys.shape[0]
    n_valid = int(ratios[1] * m)
    n_test = int(ratios[2] * m)
    n_train = m - n_valid - n_test
    if min(n_train, n_valid, n_test) == 0:
        raise ValueError(f"split of {m} edges with ratios {ratios} leaves an empty part")
    # shuffling the keys in place draws as ``permutation(m)`` does and
    # orders them as indexing by that permutation would
    np.random.default_rng(seed).shuffle(keys)
    train_pos, valid_pos, test_pos = (
        np.stack(np.divmod(part, graph.num_nodes), axis=1)
        for part in np.split(keys, [n_train, n_train + n_valid]))
    del keys   # the negatives below set the peak: hold only the parts
    observed = build_graph(graph.num_nodes, train_pos, features=graph.features)
    s0, s1, s2 = (int(x) for x in np.random.SeedSequence(seed).generate_state(3))
    train_neg = sample_negatives(graph, n_train, s0)
    valid_neg = sample_negatives(graph, n_valid, s1, exclude=train_neg)
    test_neg = sample_negatives(graph, n_test, s2,
                                exclude=np.concatenate([train_neg, valid_neg]))
    return EdgeSplit(observed, train_pos, valid_pos, test_pos,
                     train_neg, valid_neg, test_neg, seed, ratios)


_SPLIT_PARTS = ("train_pos", "valid_pos", "test_pos",
                "train_neg", "valid_neg", "test_neg")


def save_split(split: EdgeSplit, out_dir) -> None:
    """Write a split to a directory: edge lists per part plus a JSON manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_edge_list(split.observed_graph, out_dir / "observed.txt")
    counts = {}
    for name in _SPLIT_PARTS:
        arr = getattr(split, name)
        counts[name] = int(arr.shape[0])
        with open(out_dir / f"{name}.txt", "w") as fh:
            for u, v in arr:
                fh.write(f"{u} {v}\n")
    manifest = {
        "seed": split.seed,
        "ratios": list(split.ratios),
        "num_nodes": split.observed_graph.num_nodes,
        "counts": counts,
    }
    with open(out_dir / "split.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _read_pairs(path, comment_prefix: str = "#") -> np.ndarray:
    """The (n, 2) int64 node id pairs of a file, one a line; GraphFormatError
    names ``path:line`` of a malformed one."""
    pairs = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith(comment_prefix):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphFormatError(
                    f"{path}:{lineno}: expected two node ids, got {raw.rstrip()!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError(
                    f"{path}:{lineno}: non-integer node id in {raw.rstrip()!r}") from None
            if u < 0 or v < 0:
                raise GraphFormatError(f"{path}:{lineno}: negative node id")
            pairs.append((u, v))
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


def load_split(in_dir, features=None) -> EdgeSplit:
    """Read back a split written by save_split; optionally reattach node
    features, a CSRMatrix or a dense array as Graph takes them."""
    in_dir = Path(in_dir)
    path = in_dir / "split.json"
    try:
        manifest = json.loads(path.read_text())
        num_nodes, seed = int(manifest["num_nodes"]), int(manifest["seed"])
        ratios = tuple(manifest["ratios"])
        counts = [manifest["counts"][name] for name in _SPLIT_PARTS]
    except (ValueError, TypeError, KeyError, IndexError) as exc:
        raise GraphFormatError(f"{path}: bad split manifest ({exc!r})") from None
    observed = load_edge_list(in_dir / "observed.txt", num_nodes=num_nodes)
    if features is not None:
        observed = Graph(observed.num_nodes, observed.indptr, observed.indices,
                         features)
    parts = {}
    for name, count in zip(_SPLIT_PARTS, counts):
        arr = _read_pairs(in_dir / f"{name}.txt")
        if arr.shape[0] != count:
            raise GraphFormatError(f"{in_dir}: {name} count mismatch with split.json")
        parts[name] = arr
    return EdgeSplit(observed, seed=seed, ratios=ratios, **parts)


def normalized_adjacency(graph: Graph) -> CSRMatrix:
    """Symmetric degree-normalized adjacency with self-loops.

    Returns D^{-1/2} (A + I) D^{-1/2} where D is the degree matrix of A + I,
    with every row's columns ascending. Rows of the result sum to at most 1
    and the matrix stays symmetric. Accepts any object with ``num_nodes``
    and ``adjacency()``, such as a sampled ``Subgraph``.
    """
    n = graph.num_nodes
    a = graph.adjacency()
    keys = np.sort(np.concatenate([a._rows() * n + a.indices,
                                   np.arange(n) * (n + 1)]))
    row, col = np.divmod(keys, n)
    deg = np.bincount(row, minlength=n)
    dinv = 1.0 / np.sqrt(deg)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    return CSRMatrix(indptr, col, dinv[row] * dinv[col], (n, n))


def _is_integer(value) -> bool:
    """True for a Python or numpy integer; False for a bool and for every
    float, even an integral one such as 3.0."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_integer(name: str, value, low: int, high: int | None = None) -> None:
    """ValueError "<name>: ..." unless ``value`` is an integer (as ``_is_integer``
    counts them) in low..high, or >= low when ``high`` is None."""
    if not (_is_integer(value) and low <= value and (high is None or value <= high)):
        bound = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{name}: expected an integer {bound}, got {value!r}")


class _CaseInsensitiveEnum(str, Enum):
    @classmethod
    def _missing_(cls, value):
        folded = value.lower() if isinstance(value, str) else None
        return next((member for member in cls if member.value.lower() == folded), None)


def _as_member(kind, name: str, value):
    """``kind(value)`` for an enum ``kind``; the ValueError names ``name``."""
    try:
        return kind(value)
    except ValueError:
        raise ValueError(f"{name}: {value!r} is not one of "
                         f"{[m.value for m in kind]}") from None


def _link_arrays(graph: Graph, u, v) -> tuple[np.ndarray, np.ndarray]:
    """Flat int64 pair arrays; ValueError for an id out of range or u == v."""
    u = np.asarray(u, dtype=np.int64).reshape(-1)
    v = np.asarray(v, dtype=np.int64).reshape(-1)
    n = graph.num_nodes
    bad = np.flatnonzero((u < 0) | (u >= n) | (v < 0) | (v >= n))
    if bad.shape[0]:
        raise ValueError(f"node id out of range: ({u[bad[0]]}, {v[bad[0]]})")
    if (u == v).any():
        raise ValueError("target link endpoints must differ")
    return u, v


def _entries(indptr: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row lengths of ``nodes`` in a CSR ``indptr`` and the positions of
    their entries, row after row in the order given."""
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    return counts, (np.repeat(starts - np.cumsum(counts) + counts, counts)
                    + np.arange(counts.sum()))


def _neighbor_keys(graph: Graph, keys: np.ndarray) -> np.ndarray:
    """Key ``b * num_nodes + w`` of every neighbor w of node x, for every
    key ``b * num_nodes + x`` of ``keys``, in the order of ``keys``."""
    nodes = keys % graph.num_nodes
    counts, at = _entries(graph.indptr, nodes)
    return np.repeat(keys - nodes, counts) + graph.indices[at]


def _common_neighbors(graph: Graph, u, v) -> tuple[np.ndarray, np.ndarray]:
    """Common neighbours of every pair (u[b], v[b]), as (pair index, node id)
    int64 arrays sorted by pair, then id: the keys that both endpoints'
    neighbor rows hold, found as adjacent duplicates of their sorted union."""
    u, v = _link_arrays(graph, u, v)
    row = np.arange(u.shape[0]) * graph.num_nodes
    keys = np.sort(np.concatenate([_neighbor_keys(graph, row + u),
                                   _neighbor_keys(graph, row + v)]))
    common = keys[:-1][keys[1:] == keys[:-1]]
    return np.divmod(common, graph.num_nodes)
