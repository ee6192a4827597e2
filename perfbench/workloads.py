"""The workloads: seeded inputs and one timed pipeline iteration each.

Every workload is a closed-loop batch job in one process: the next
iteration starts only after the previous one has produced its final test
metric. Inputs (graph, split, link subsamples) are built by
this module from the workload seed; the library only ever receives those
generated objects. All library calls go through module attributes
(``dl.records``, ``dl.model``, ...), so the tracer's patches see them.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import difflink as dl

RATIOS = (0.85, 0.05, 0.10)
D_PRIME = 256
# The synthetic stand-in plays the role of a fixed dataset, as in the
# package's own per-seed protocol (run_experiment splits one graph per
# seed). Across graph seeds the h-hop work of the same link counts varies
# by a quartile spread of about a fifth; across split seeds, by a twentieth.
DATASET_SEED = 0


@dataclass(frozen=True)
class ModelWorkload:
    """Split, precompute records, train, score the test part, AUC.

    ``pairs`` is how many positives and as many negatives each split part
    keeps, drawn from the full part with the workload seed, so one
    iteration stays a few seconds long.
    """

    name: str
    why: str
    dataset: str
    operators: dict
    pairs: tuple
    epochs: int
    storage: bool = False


WORKLOADS = {w.name: w for w in (
    ModelWorkload(
        name="ns_pos",
        why="tiny 121 B PoS records: sampling and diffusion do ~90% of the "
            "work, record IO and the model idle (batched-engine target)",
        dataset="ns_like",
        operators={"variant": "PoS", "r": 3, "h": 2, "labeling": "zero_one"},
        pairs=(300, 50, 100), epochs=3, storage=True),
    ModelWorkload(
        name="cora_plus",
        why="widest records (~49 KB, 1433 features, drnl, CCN): record "
            "write/read and the model dominate, sampling is light at h=1",
        dataset="cora_like",
        operators={"variant": "PoSPlus", "r": 3, "h": 1, "labeling": "drnl"},
        pairs=(300, 30, 60), epochs=1),
)}


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _stratified(pairs: np.ndarray, count: int, rng, reach: np.ndarray) -> np.ndarray:
    """``count`` pairs, one drawn from each of ``count`` equal strata of the
    pairs sorted by ``reach[u] + reach[v]``.

    A link's cost grows with its endpoints' neighbourhoods and a few hub
    links dominate a plain random sample. Across ten seeds, stratifying cut
    the quartile spread of the sampled h-hop work from 0.076 to 0.010 of
    its median on cora_plus and from 0.044 to 0.034 on ns_pos.
    """
    if count >= pairs.shape[0]:
        return pairs
    order = np.argsort(reach[pairs[:, 0]] + reach[pairs[:, 1]], kind="stable")
    cuts = np.linspace(0, pairs.shape[0], count + 1).astype(np.int64)
    pick = cuts[:-1] + (rng.random(count) * np.diff(cuts)).astype(np.int64)
    return pairs[np.sort(order[pick])]


def _reach(graph, hops: int) -> np.ndarray:
    """Per node, the number of walks of length ``hops`` from it: a cheap
    estimate of its h-hop neighbourhood size."""
    reach = graph.degrees().astype(np.float64)
    adjacency = graph.adjacency()
    for _ in range(hops - 1):
        reach = adjacency @ reach
    return reach


@dataclass
class Inputs:
    split: object               # EdgeSplit handed to the library
    links: dict                 # part -> (n, 3) labeled links, file order


def make_inputs(w, seed: int) -> Inputs:
    """Everything the workload feeds the library, from the seed alone."""
    graph = getattr(dl.datasets, w.dataset)(seed=DATASET_SEED)
    split = dl.split_edges(graph, RATIOS, seed)
    reach = _reach(split.observed_graph, w.operators["h"])
    parts = {}
    for salt, (part, count) in enumerate(zip(("train", "valid", "test"), w.pairs)):
        rng = _rng(seed, 10 + salt)
        parts[part] = (_stratified(split.positives(part), count, rng, reach),
                       _stratified(split.negatives(part), count, rng, reach))
    sub = dl.EdgeSplit(split.observed_graph,
                       parts["train"][0], parts["valid"][0], parts["test"][0],
                       parts["train"][1], parts["valid"][1], parts["test"][1],
                       split.seed, split.ratios)
    links = {part: dl.labeled_links(sub, part) for part in parts}
    return Inputs(sub, links)


def operator_set(w: ModelWorkload):
    return dl.SamplingOperatorSet(**w.operators)


@dataclass
class Iteration:
    """Phase timings (seconds) and the outputs the correctness gate checks."""

    phases: dict
    counts: dict
    outputs: dict


def run_iteration(w: ModelWorkload, inputs: Inputs, seed: int, workdir: Path,
                  phase) -> Iteration:
    """One pipeline: precompute, [storage], train, open+predict test, AUC.

    ``phase(name)`` is a context manager marking the benchmark's phases
    (a no-op when untraced).
    """
    config = operator_set(w)
    clock = time.perf_counter
    t0 = clock()
    with phase("precompute"):
        stats = dl.bench.precompute_split(inputs.split, config, workdir,
                                          workers=1, seed=seed)
    t1 = clock()
    storage = None
    if w.storage:
        with phase("storage"):
            storage = dl.records.storage_comparison(
                inputs.split.observed_graph, inputs.links["train"], config)
    t2 = clock()
    with phase("train"):
        tc = dl.TrainConfig(d_prime=D_PRIME, epochs=w.epochs, seed=seed,
                            pooling=config.pooling)
        params, _ = dl.model.train(workdir / "train.rec",
                                   workdir / "valid.rec", tc)
    t3 = clock()
    with phase("score"):
        test = list(dl.records.RecordFile(workdir / "test.rec", verify=True))
        scores = dl.model.predict(test, params, agg=tc.agg)
    t4 = clock()
    with phase("evaluate"):
        labels = np.asarray([rec.label for rec in test])
        test_auc = dl.metrics.auc(dl.ScoredPairs(scores[labels == 1],
                                                 scores[labels == 0]))
    t5 = clock()
    built = sum(s.record_count for s in stats.values())
    counts = {"records_built": built, "records_read": len(test),
              "bytes_written": sum(s.total_bytes for s in stats.values()),
              "storage_links": storage.num_links if storage else 0}
    phases = {"pipeline": t5 - t0, "precompute": t1 - t0, "storage": t2 - t1,
              "train": t3 - t2, "score": t4 - t3, "evaluate": t5 - t4}
    outputs = {"workdir": workdir, "scores": scores, "labels": labels,
               "test_auc": test_auc, "storage": storage}
    return Iteration(phases, counts, outputs)
