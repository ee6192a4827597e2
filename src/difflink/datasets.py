"""Dataset location, loading, and synthetic stand-in generators.

Real datasets are plain edge-list files (plus an optional feature matrix)
under a data directory: <data_dir>/<name>/edges.txt and features.txt.
The synthetic generators produce graphs matched to the benchmark datasets'
published node/edge/feature counts, for pipeline exercises and scale tests
on machines that do not have the real files.
"""
from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .graphs import (CSRMatrix, Graph, _draw_pairs, build_graph, load_edge_list,
                     load_features)

DATA_ENV = "DIFFLINK_DATA"

# Published statistics (nodes, edges, feature dim) used to sanity-check
# real files and to size the synthetic stand-ins.
DATASET_STATS = {
    "ns": (1461, 2742, None),
    "power": (4941, 6594, None),
    "yeast": (2375, 11693, None),
    "pb": (1222, 16714, None),
    "cora": (2708, 4488, 1433),
}


def data_dir(override=None) -> Path:
    return Path(override or os.environ.get(DATA_ENV, "data"))


def find_dataset(name: str, root=None) -> dict | None:
    """Locate a real dataset directory; None when the files are absent."""
    base = data_dir(root) / name
    edges = base / "edges.txt"
    if not edges.exists():
        return None
    feats = base / "features.txt"
    return {"name": name, "edge_list": str(edges),
            "features": str(feats) if feats.exists() else None}


def load_dataset(edge_list, features=None) -> Graph:
    graph = load_edge_list(edge_list)
    if features:
        graph = load_features(features, graph)
    return graph


def random_graph(n: int, m: int, seed: int = 0) -> Graph:
    """Uniform random simple graph with exactly m edges."""
    if m < 0:
        raise ValueError(f"m: expected an integer >= 0, got {m}")
    if m > n * (n - 1) // 2:
        raise ValueError(f"cannot place {m} edges on {n} nodes")
    keys = _draw_pairs(np.random.default_rng(seed), n, m, np.zeros(0, dtype=np.int64),
                       lambda remaining: 2 * remaining + 16)
    return build_graph(n, np.stack(np.divmod(keys, n), axis=1))


def preferential_graph(n: int, attach: int, seed: int = 0,
                       target_edges: int | None = None) -> Graph:
    """Preferential-attachment graph; optionally trimmed to an exact edge count.

    Each new node links to ``attach`` distinct existing nodes chosen
    proportionally to degree, yielding the hub-heavy degree profile of
    citation and web graphs.
    """
    if attach < 1 or n <= attach:
        raise ValueError("need n > attach >= 1")
    rng = np.random.default_rng(seed)
    edges = []
    repeated = []
    targets = list(range(attach))
    for source in range(attach, n):
        edges.extend((source, t) for t in targets)
        repeated.extend(targets)
        repeated.extend([source] * attach)
        picked = set()
        while len(picked) < attach:
            picked.add(repeated[rng.integers(len(repeated))])
        targets = sorted(picked)
    edges = np.asarray(edges, dtype=np.int64)
    if target_edges is not None:
        if target_edges > edges.shape[0]:
            raise ValueError("target_edges exceeds generated edge count")
        keep = rng.permutation(edges.shape[0])[:target_edges]
        edges = edges[np.sort(keep)]
    return build_graph(n, edges)


def binary_features(n: int, dim: int, ones_per_row: int, seed: int = 0) -> CSRMatrix:
    """Sparse 0/1 feature rows like bag-of-words document vectors: an
    ``(n, dim)`` CSRMatrix with ``ones_per_row`` distinct columns a row."""
    rng = np.random.default_rng(seed)
    cols = np.array([rng.choice(dim, size=ones_per_row, replace=False)
                     for _ in range(n)], dtype=np.int32).reshape(n, ones_per_row)
    return CSRMatrix(np.arange(n + 1, dtype=np.int64) * ones_per_row,
                     np.sort(cols, axis=1).ravel(),
                     np.ones(n * ones_per_row, dtype=np.float32), (n, dim))


def cora_like(seed: int = 0) -> Graph:
    """Attributed citation-style stand-in: 2708 nodes, 4488 edges, 1433 features."""
    n, m, d = DATASET_STATS["cora"]
    graph = preferential_graph(n, attach=2, seed=seed, target_edges=m)
    feats = binary_features(n, d, ones_per_row=18, seed=seed + 1)
    return Graph(graph.num_nodes, graph.indptr, graph.indices, feats)


def pb_like(seed: int = 0) -> Graph:
    """Dense hub-heavy stand-in: 1222 nodes, 16714 edges, no features."""
    n, m, _ = DATASET_STATS["pb"]
    return preferential_graph(n, attach=14, seed=seed, target_edges=m)


def ns_like(seed: int = 0) -> Graph:
    """Sparse collaboration-scale stand-in: 1461 nodes, 2742 edges."""
    n, m, _ = DATASET_STATS["ns"]
    return preferential_graph(n, attach=2, seed=seed, target_edges=m)


def power_like(seed: int = 0) -> Graph:
    """Near-tree infrastructure-scale stand-in: 4941 nodes, 6594 edges."""
    n, m, _ = DATASET_STATS["power"]
    return random_graph(n, m, seed=seed)


def yeast_like(seed: int = 0) -> Graph:
    """Mid-density interaction-scale stand-in: 2375 nodes, 11693 edges."""
    n, m, _ = DATASET_STATS["yeast"]
    return preferential_graph(n, attach=5, seed=seed, target_edges=m)


SYNTHETIC = {
    "cora_like": cora_like,
    "pb_like": pb_like,
    "ns_like": ns_like,
    "power_like": power_like,
    "yeast_like": yeast_like,
}


def resolve_dataset(spec: dict, root=None) -> Graph:
    """Materialize the graph named by a config's dataset section.

    Accepts either explicit file paths ({"edge_list": ..., "features": ...}),
    a known dataset name found under the data directory, or a synthetic
    stand-in name with an optional "seed".
    """
    name = spec.get("name", "")
    if spec.get("edge_list"):
        return load_dataset(spec["edge_list"], spec.get("features"))
    if name in SYNTHETIC:
        return SYNTHETIC[name](seed=int(spec.get("seed", 0)))
    found = find_dataset(name, root)
    if found is None:
        raise FileNotFoundError(
            f"dataset {name!r}: no edge_list given, not a synthetic name, and "
            f"{data_dir(root) / name / 'edges.txt'} does not exist")
    return load_dataset(found["edge_list"], found["features"])
