"""
Link records and what they cost on disk
=======================================

A record stores, for one candidate link, the diffusion rows of just the
pooled nodes: r+1 blocks of shape (p, w). Its size does not depend on
how big the sampled subgraph was, which is the whole point.
"""
import json
import tempfile
from pathlib import Path

import numpy as np

from difflink import (RecordFile, SamplingOperatorSet, build_graph,
                      precompute_dataset, storage_comparison)
from difflink.store import manifest_path

rng = np.random.default_rng(3)
n = 200
pairs = rng.integers(0, n, size=(700, 2))
pairs = pairs[pairs[:, 0] != pairs[:, 1]]
graph = build_graph(n, pairs)

config = SamplingOperatorSet(variant="PoS", r=3, h=2)
u, v = map(int, graph.edge_array()[0])


def one_record(cfg, tmp):
    """The record of link (u, v) alone: a one-link record file, read back."""
    path = Path(tmp) / "one.rec"
    precompute_dataset(graph, [(u, v, 1)], cfg, path)
    with RecordFile(path) as records:
        return records[0]


with tempfile.TemporaryDirectory() as tmp:
    record = one_record(config, tmp)
    print(f"blocks shape (operators, pooled, width): {record.blocks.shape}")
    print(f"pooled ids: {record.pooled_ids.tolist()}")
    print(f"serialized size: {record.byte_size()} bytes")

    # same link, three different hop radii: the record never changes size
    for h in (1, 2, 3):
        rec_h = one_record(SamplingOperatorSet(variant="PoS", r=3, h=h), tmp)
        print(f"h={h}: subgraph-independent record size {rec_h.byte_size()}")

# a record file plus its manifest
links = np.concatenate([graph.edge_array()[:50],
                        np.ones((50, 1), dtype=np.int64)], axis=1)
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo.rec"
    stats = precompute_dataset(graph, links, config, path)
    print(f"\nwrote {stats.record_count} records, {stats.total_bytes} bytes, "
          f"{stats.records_per_sec:.0f} records/s")
    manifest = json.loads(manifest_path(path).read_text())
    print("manifest checksum:", manifest["checksum"][:23], "...")
    reloaded = RecordFile(path)
    print("reload and spot-check:", reloaded[7].u, reloaded[7].v)

# versus keeping each subgraph: edges + a full feature matrix per link
report = storage_comparison(graph, links, config)
print(f"\nrecord bytes {report.record_bytes} vs per-subgraph "
      f"{report.seal_bytes} -> {report.reduction_pct:.1f}% smaller")
