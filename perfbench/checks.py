"""Correctness gate, run outside the timed spans.

Every check is one attempted operation; a mismatch or an exception is one
failed operation. Cheap checks (checksums, counts, finite scores) run after
every iteration; oracle checks against ``tests/oracles.py`` run once per
process on a seeded sample of the last iteration's outputs.
"""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np

import difflink as dl

RECORD_TOL = 1e-5     # float32 records against the float64 dense oracle


class Gate:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.notes) < 20:
            self.notes.append(f"{what}: {failed} of {attempted} failed")

    def check(self, ok: bool, what: str) -> None:
        self.record(1, 0 if ok else 1, what)

    @contextmanager
    def guard(self, attempted: int, what: str):
        """Count ``attempted`` operations as failed if the body raises."""
        try:
            yield
        except Exception as exc:   # a crash in a checked op is a failed op
            self.record(attempted, attempted, f"{what} raised {exc!r}")


def _record_rows(path, verify: bool = True):
    recs = list(dl.records.RecordFile(path, verify=verify))
    return recs, np.asarray([(r.u, r.v, r.label) for r in recs],
                            dtype=np.int64).reshape(-1, 3)


def check_model_iteration(gate: Gate, inputs, it) -> None:
    """Checksums verified, one record per link in order, finite scores."""
    workdir = it.outputs["workdir"]
    for part, links in inputs.links.items():
        with gate.guard(len(links), f"{part}.rec"):
            recs, rows = _record_rows(workdir / f"{part}.rec")
            if rows.shape != links.shape:
                gate.record(len(links), len(links), f"{part}.rec record count")
                continue
            bad = (rows != links).any(axis=1)
            bad |= np.asarray([not np.isfinite(r.blocks).all() for r in recs],
                              dtype=bool)
            gate.record(len(links), int(bad.sum()), f"{part}.rec records")
    scores = it.outputs["scores"]
    n_test = len(inputs.links["test"])
    ok = (scores.shape == (n_test,)) and np.isfinite(scores).all() \
        and np.array_equal(it.outputs["labels"], inputs.links["test"][:, 2])
    gate.record(n_test, 0 if ok else n_test, "test scores")
    storage = it.outputs["storage"]
    if storage is not None:
        gate.check(storage.num_links == len(inputs.links["train"])
                   and storage.record_bytes > 0 and storage.seal_bytes > 0,
                   "storage_comparison")


def _auc_sample(gate: Gate, oracles, scores, labels, rng, size=150) -> None:
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    pos = pos[rng.choice(pos.size, min(size, pos.size), replace=False)]
    neg = neg[rng.choice(neg.size, min(size, neg.size), replace=False)]
    got = dl.metrics.auc(dl.ScoredPairs(pos, neg))
    gate.check(abs(got - oracles.auc_pairwise(pos, neg)) < 1e-12, "auc oracle")


def check_model_oracles(gate: Gate, oracles, config, inputs, it, rng,
                        per_part: int = 4) -> None:
    """A seeded sample of records per part against the dense oracle."""
    graph = inputs.split.observed_graph
    workdir = it.outputs["workdir"]
    for part in inputs.links:
        with gate.guard(1, f"{part}.rec oracle"):
            recs, _ = _record_rows(workdir / f"{part}.rec")
            for i in rng.choice(len(recs), min(per_part, len(recs)), replace=False):
                rec = recs[int(i)]
                want = oracles.dense_record_blocks(graph, (rec.u, rec.v, rec.label),
                                                   config)
                gate.check(want.shape == rec.blocks.shape and np.allclose(
                    rec.blocks, want, rtol=RECORD_TOL, atol=RECORD_TOL),
                    f"{part}.rec dense oracle")
    with gate.guard(1, "auc oracle"):
        _auc_sample(gate, oracles, it.outputs["scores"], it.outputs["labels"], rng)

