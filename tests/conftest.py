import numpy as np
import pytest

from difflink import build_graph
from difflink.datasets import find_dataset


def gnp_graph(rng, n_lo=4, n_hi=12, p=0.35, features=None):
    """Small Erdos-Renyi graph for randomized trials; guaranteed >= 1 edge."""
    while True:
        n = int(rng.integers(n_lo, n_hi + 1))
        mask = rng.random((n, n)) < p
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]]
        if edges:
            feats = None
            if features:
                feats = rng.random((n, features)).astype(np.float32)
            return build_graph(n, np.asarray(edges, dtype=np.int64), feats)


def same_record(a, b) -> bool:
    """Whether two LinkRecords hold the same link, ids and float bits."""
    return ((a.u, a.v, a.label) == (b.u, b.v, b.label)
            and a.pooled_ids.dtype == b.pooled_ids.dtype
            and np.array_equal(a.pooled_ids, b.pooled_ids)
            and a.blocks.shape == b.blocks.shape
            and a.blocks.tobytes() == b.blocks.tobytes())


def hub_graph(rng, leaves=30, isolated=False):
    """A star on node 0 plus as many random edges among its leaves; with
    ``isolated``, one more node (the last) that has no edge."""
    ends = rng.integers(1, leaves + 1, size=(leaves, 2))
    edges = np.concatenate([np.column_stack([np.zeros(leaves, np.int64),
                                             np.arange(1, leaves + 1)]), ends])
    return build_graph(leaves + 1 + int(isolated), edges)


def hub_links(rng, n):
    """(u, v) arrays: hub links, leaf pairs, and duplicate and reversed
    copies of both."""
    pairs = [(0, int(x)) for x in rng.choice(np.arange(1, n), 4, replace=False)]
    pairs += [random_pair(rng, n) for _ in range(4)]
    pairs += [pairs[0], pairs[1][::-1], pairs[4][::-1], pairs[4]]
    return tuple(np.asarray(pairs).T)


def random_pair(rng, n):
    u = int(rng.integers(n))
    v = int(rng.integers(n))
    while v == u:
        v = int(rng.integers(n))
    return u, v


def require_dataset(name: str) -> dict:
    """Locate a real dataset or skip with fetch instructions."""
    found = find_dataset(name)
    if found is None:
        pytest.skip(
            f"real dataset {name!r} not present (looked under the data "
            f"directory; set DIFFLINK_DATA or run scripts/fetch_datasets.py "
            f"on a machine with network access)")
    return found
