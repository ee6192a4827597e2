"""Config-driven experiment runner: split, precompute, train, evaluate, report.

Configs are JSON with sections {dataset, split, variant, sampling, training,
eval, runs}; defaults reproduce the benchmark setup (SamplingOperatorSet's and
TrainConfig's, h=3 attributed / h=2 non-attributed, seeds 0..9), so a minimal
config is just a dataset and a variant. Reports keep every wall-clock
measurement under "timings" and the BLAS facts under "blas"; everything else
is a pure function of the config and seeds.
"""
from __future__ import annotations

import copy
import csv
import io
import json
import os
import tempfile
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .datasets import resolve_dataset
from .graphs import EdgeSplit, Graph, _is_integer, labeled_links, split_edges
from .metrics import Heuristic, ScoredPairs, auc, hits_at_k, mrr, score_pairs
from .model import ModelParams, TrainConfig, predict, train
from .records import (SamplingOperatorSet, Variant, precompute_dataset,
                      storage_comparison)
from .store import RecordFile


class ConfigError(ValueError):
    """Config validation failure; message names the offending field."""


_DEFAULT_SEEDS = list(range(10))
_SECTIONS = ("dataset", "split", "variant", "sampling", "training", "eval",
             "runs", "mode", "heuristics", "workers", "storage")
# Settable fields of the config objects, which own their defaults and checks
_SAMPLING_KEYS = tuple(f.name for f in fields(SamplingOperatorSet) if f.name != "variant")
_TRAINING_KEYS = ("d_prime", "dropout", "epochs", "batch_size", "lr", "agg")


def _section(cfg: dict, name: str, keys: tuple) -> dict:
    """Section ``name`` of ``cfg`` (empty when absent); it may hold only ``keys``."""
    val = cfg.get(name, {})
    if not isinstance(val, dict):
        raise ConfigError(f"{name}: expected dict")
    for key in val:
        if key not in keys:
            raise ConfigError(f"{name}.{key}: unknown key, expected one of {list(keys)}")
    return val


def _build(kind, section: str, **kwargs):
    """``kind(**kwargs)``; its ValueError "<field>: ..." becomes a ConfigError
    "<section>.<field>: ..."."""
    try:
        return kind(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}.{exc}") from None


@dataclass(frozen=True)
class ExperimentSpec:
    """Validated, fully-defaulted experiment description."""

    dataset: dict
    ratios: tuple
    variant: str
    sampling: dict
    training: dict
    eval_opts: dict
    seeds: tuple
    mode: str
    heuristics: tuple
    workers: int
    storage: bool


def parse_config(cfg: dict) -> ExperimentSpec:
    """Validate a config dict, filling defaults. Raises ConfigError."""
    if not isinstance(cfg, dict):
        raise ConfigError("config: expected a JSON object")
    unknown = set(cfg) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    dataset = cfg.get("dataset", {})
    if not isinstance(dataset, dict) or not dataset.get("name"):
        raise ConfigError("dataset.name: required")
    if not isinstance(dataset["name"], str):
        raise ConfigError(f"dataset.name: expected a string, got {dataset['name']!r}")
    dataset = dict(dataset)
    if "seed" in dataset and not (_is_integer(dataset["seed"]) and dataset["seed"] >= 0):
        raise ConfigError(f"dataset.seed: expected an integer >= 0, got {dataset['seed']!r}")

    split = _section(cfg, "split", ("ratios",))
    ratios = split.get("ratios", [0.85, 0.05, 0.10])
    if (not isinstance(ratios, (list, tuple)) or len(ratios) != 3
            or not all(isinstance(r, (int, float)) and not isinstance(r, bool)
                       and r > 0 for r in ratios)
            or abs(sum(ratios) - 1.0) > 1e-9):
        raise ConfigError(f"split.ratios: expected three positive fractions "
                          f"summing to 1, got {ratios!r}")

    variant = cfg.get("variant", "PoS")
    try:
        Variant(variant)
    except ValueError:
        raise ConfigError(
            f"variant: {variant!r} is not one of "
            f"{[v.value for v in Variant]}") from None

    s = _section(cfg, "sampling", _SAMPLING_KEYS)
    # an unset (or null) h is resolved against the graph later; 1 stands in here
    h = s.get("h")
    ops = _build(SamplingOperatorSet, "sampling", variant=variant,
                 **{**s, "h": 1 if h is None else h})
    sampling = {**{k: getattr(ops, k) for k in _SAMPLING_KEYS}, "h": h}
    tc = _build(TrainConfig, "training", **_section(cfg, "training", _TRAINING_KEYS))
    training = {k: getattr(tc, k) for k in _TRAINING_KEYS}

    e = _section(cfg, "eval", ("hits_k", "mrr"))
    hits_k = e.get("hits_k", [])
    if not isinstance(hits_k, list) or not all(
            type(k) is int and k >= 1 for k in hits_k):
        raise ConfigError("eval.hits_k: expected a list of positive integers")
    eval_opts = {"hits_k": list(hits_k), "mrr": e.get("mrr", False)}
    if not isinstance(eval_opts["mrr"], bool):
        raise ConfigError(f"eval.mrr: expected true or false, got {eval_opts['mrr']!r}")

    runs = _section(cfg, "runs", ("seeds",))
    seeds = runs.get("seeds", _DEFAULT_SEEDS)
    if not isinstance(seeds, list) or not seeds or not all(
            type(x) is int and x >= 0 for x in seeds):
        raise ConfigError("runs.seeds: expected a nonempty list of integers >= 0")

    mode = cfg.get("mode", "full")
    if mode not in ("full", "heuristics"):
        raise ConfigError(f"mode: {mode!r} is not 'full' or 'heuristics'")

    heuristics = cfg.get("heuristics", ["CN", "AA", "PPR"])
    try:
        if not isinstance(heuristics, list):
            raise ValueError
        heuristics = [Heuristic(hx).value for hx in heuristics]
    except ValueError:
        raise ConfigError(f"heuristics: expected a list of entries in "
                          f"{[hx.value for hx in Heuristic]}, got {heuristics!r}") from None

    workers = cfg.get("workers", 1)
    if type(workers) is not int or workers < 1:
        raise ConfigError("workers: expected a positive integer")
    storage = cfg.get("storage", True)
    if not isinstance(storage, bool):
        raise ConfigError("storage: expected true or false")

    return ExperimentSpec(dataset=dataset, ratios=tuple(float(r) for r in ratios),
                          variant=variant, sampling=sampling, training=training,
                          eval_opts=eval_opts, seeds=tuple(seeds), mode=mode,
                          heuristics=tuple(heuristics), workers=workers,
                          storage=storage)


def read_config(path):
    """The raw JSON value of a config file, before validation."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON ({exc})") from None


def load_config(path) -> ExperimentSpec:
    return parse_config(read_config(path))


def _as_spec(config) -> ExperimentSpec:
    return (load_config(config) if isinstance(config, (str, Path))
            else parse_config(config))


def operator_config(spec: ExperimentSpec, graph: Graph) -> SamplingOperatorSet:
    """Resolve the sampling section against the graph (default h by class)."""
    h = spec.sampling["h"] or (3 if graph.features is not None else 2)
    return SamplingOperatorSet(variant=spec.variant, **{**spec.sampling, "h": h})


def precompute_split(split: EdgeSplit, config: SamplingOperatorSet,
                     out_dir, workers: int = 1, seed: int = 0) -> dict:
    """Write train/valid/test record files for a split; returns stats per part.

    Records are always built on the observed (training-only) graph so no
    evaluation edge leaks into the diffusion.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stats = {}
    for part in ("train", "valid", "test"):
        links = labeled_links(split, part)
        stats[part] = precompute_dataset(split.observed_graph, links, config,
                                         out_dir / f"{part}.rec",
                                         worker_count=workers, seed=seed)
    return stats


def _eval_scores(scores: np.ndarray, labels: np.ndarray, eval_opts: dict) -> dict:
    sc = ScoredPairs(scores[labels == 1], scores[labels == 0])
    out = {"test_auc": auc(sc)}
    for k in eval_opts["hits_k"]:
        out[f"hits@{k}"] = hits_at_k(sc, k)
    if eval_opts["mrr"]:
        negs = sc.neg_scores
        out["mrr"] = mrr([(p, negs) for p in sc.pos_scores])
    return out


def storage_summary(split: EdgeSplit, config: SamplingOperatorSet) -> dict:
    """Record vs SEAL-style storage for each split part, JSON-ready."""
    out = {}
    for part in ("train", "valid", "test"):
        rep = storage_comparison(split.observed_graph,
                                 labeled_links(split, part), config)
        out[part] = {"record_bytes": rep.record_bytes,
                     "seal_bytes": rep.seal_bytes,
                     "reduction_pct": rep.reduction_pct,
                     "num_links": rep.num_links}
    return out


def train_run(spec: ExperimentSpec, config: SamplingOperatorSet, seed: int,
              run_dir, epoch_times: list | None = None):
    """Train on ``run_dir``'s train/valid records; returns (params, history)."""
    tc = TrainConfig(seed=seed, pooling=config.pooling, **spec.training)
    return train(Path(run_dir) / "train.rec", Path(run_dir) / "valid.rec", tc,
                 epoch_times=epoch_times)


def evaluate_run(spec: ExperimentSpec, params: ModelParams,
                 run_dir) -> tuple[dict, float]:
    """Score ``run_dir``'s test records; returns (metrics, predict seconds)."""
    with RecordFile(Path(run_dir) / "test.rec") as records:
        t0 = time.monotonic()
        scores = predict(records, params, agg=spec.training["agg"])
        inference_s = time.monotonic() - t0
    return _eval_scores(scores, records.labels, spec.eval_opts), inference_s


@dataclass
class SeedRun:
    """One seed's outcome: its report row, wall-clock timings, and the
    split and trained parameters (``None`` in heuristics mode)."""

    row: dict
    timings: dict
    split: EdgeSplit
    params: ModelParams | None


def run_seed(spec: ExperimentSpec, graph: Graph, config: SamplingOperatorSet,
             seed: int, run_dir) -> SeedRun:
    """The per-seed pipeline: split, then precompute, train, score and
    evaluate, with record files in ``run_dir``.

    In heuristics mode the test links are scored by each heuristic on the
    observed graph instead, giving ``<H>_<metric>`` columns in the row.
    """
    split = split_edges(graph, spec.ratios, seed)
    row = {"seed": seed}
    if spec.mode == "heuristics":
        links = labeled_links(split, "test")
        for name in spec.heuristics:
            scores = score_pairs(split.observed_graph, links[:, :2],
                                 Heuristic(name))
            for key, val in _eval_scores(scores, links[:, 2],
                                         spec.eval_opts).items():
                row[f"{name}_{key}"] = val
        return SeedRun(row, {}, split, None)
    t0 = time.monotonic()
    precompute_split(split, config, run_dir, workers=spec.workers, seed=seed)
    preprocess_s = time.monotonic() - t0
    epoch_times: list = []
    params, history = train_run(spec, config, seed, run_dir, epoch_times)
    metrics, inference_s = evaluate_run(spec, params, run_dir)
    row.update(metrics)
    row["best_epoch"] = int(max(
        range(len(history)), key=lambda i: (history[i]["valid_auc"], -i)) + 1)
    steady = epoch_times[1:] if len(epoch_times) > 1 else epoch_times
    timings = {"preprocess_s": preprocess_s,
               "train_s_per_epoch": float(np.mean(steady)),
               "inference_s": inference_s}
    return SeedRun(row, timings, split, params)


def _metric_keys(row: dict) -> list:
    return [k for k in row if k not in ("seed", "best_epoch")]


def _aggregate(runs: list) -> dict:
    out = {}
    for key in _metric_keys(runs[0]):
        vals = np.asarray([r[key] for r in runs], dtype=np.float64)
        out[key] = {"mean": float(vals.mean()), "std": float(vals.std())}
    return out


@dataclass
class ExperimentReport:
    """Everything one experiment produced; JSON/table/CSV renderable."""

    config: dict
    runs: list
    aggregate: dict
    timings: dict
    storage: dict | None
    blas: dict

    def to_dict(self) -> dict:
        """A snapshot: later edits to the report do not reach it."""
        return copy.deepcopy({"config": self.config, "runs": self.runs,
                              "aggregate": self.aggregate,
                              "timings": self.timings,
                              "storage": self.storage, "blas": self.blas})

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def _rows(self):
        if not self.runs:
            return [], []
        first = self.runs[0]
        header = (["seed"] + _metric_keys(first)
                  + (["best_epoch"] if "best_epoch" in first else []))
        return header, [[r[k] for k in header] for r in self.runs]

    def text_table(self) -> str:
        header, rows = self._rows()
        if not rows:
            return "(no runs)\n"
        display = [header] + [
            [f"{x:.4f}" if isinstance(x, float) else str(x) for x in row]
            for row in rows]
        mean_row = ["mean"]
        for name in header[1:]:
            if name in self.aggregate:
                agg = self.aggregate[name]
                mean_row.append(f"{agg['mean']:.4f}+/-{agg['std']:.4f}")
            else:
                mean_row.append("")
        display.append(mean_row)
        widths = [max(len(row[j]) for row in display) for j in range(len(header))]
        lines = []
        for i, row in enumerate(display):
            lines.append("  ".join(cell.ljust(widths[j])
                                   for j, cell in enumerate(row)).rstrip())
            if i == 0:
                lines.append("  ".join("-" * widths[j]
                                       for j in range(len(header))))
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        header, rows = self._rows()
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()

    def save(self, out_dir) -> None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.json").write_text(self.to_json())
        (out_dir / "report.txt").write_text(self.text_table())
        (out_dir / "report.csv").write_text(self.to_csv())


def _config_echo(spec: ExperimentSpec, config: SamplingOperatorSet) -> dict:
    return {
        "dataset": spec.dataset,
        "split": {"ratios": list(spec.ratios)},
        "sampling": config.echo(),
        "training": spec.training,
        "eval": spec.eval_opts,
        "runs": {"seeds": list(spec.seeds)},
        "mode": spec.mode,
        "heuristics": list(spec.heuristics),
        "workers": spec.workers,
        "storage": spec.storage,
    }


def _blas_facts() -> dict:
    """numpy's BLAS, whose thread count (OPENBLAS_NUM_THREADS when set, else
    one a CPU) changes the last bits of scores."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name"), "cpu_count": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def run_experiment(config_path, out_dir=None) -> ExperimentReport:
    """Run the per-seed pipeline for every seed of a config file or dict.

    Each seed's record files live in a scratch directory. Reports are also
    written to ``out_dir`` when given.
    """
    spec = _as_spec(config_path)
    graph = resolve_dataset(spec.dataset)
    config = operator_config(spec, graph)
    runs = []
    timings: dict = {}
    storage = None
    for seed in spec.seeds:
        with tempfile.TemporaryDirectory(prefix="difflink-run-") as tmp:
            run = run_seed(spec, graph, config, seed, tmp)
        if spec.storage and storage is None:
            storage = storage_summary(run.split, config)
        runs.append(run.row)
        for key, val in run.timings.items():
            timings.setdefault(key, []).append(val)

    timing_summary = {key: {"mean": float(np.mean(vals)),
                            "per_run": [float(x) for x in vals]}
                      for key, vals in timings.items()}
    report = ExperimentReport(config=_config_echo(spec, config), runs=runs,
                              aggregate=_aggregate(runs),
                              timings=timing_summary, storage=storage,
                              blas=_blas_facts())
    if out_dir is not None:
        report.save(out_dir)
    return report


def _per_record_inference_s(records, params, agg: str, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.monotonic()
        predict(records, params, agg=agg)
        best = min(best, time.monotonic() - t0)
    return best / len(records)


def timing_probe(config_path, max_links: int = 512) -> dict:
    """Timing summary plus the subgraph-size-independence probe.

    Runs one seed's pipeline for wall-clock numbers, then rebuilds the same
    links at h=1 and h=3 and times eval-mode inference per record on both.
    Records have identical sizes by construction, so the two per-record
    times should agree; the ratio and a 20% flag are reported.
    """
    spec = replace(_as_spec(config_path), mode="full")
    graph = resolve_dataset(spec.dataset)
    config = operator_config(spec, graph)
    seed = spec.seeds[0]
    with tempfile.TemporaryDirectory(prefix="difflink-probe-") as tmp:
        run = run_seed(spec, graph, config, seed, tmp)
        links = labeled_links(run.split, "test")[:max_links]
        report: dict = {"seed": seed, "num_probe_links": int(links.shape[0]),
                        **run.timings}
        probe = {}
        for h in (1, 3):
            path = Path(tmp) / f"probe_h{h}.rec"
            t0 = time.monotonic()
            precompute_dataset(run.split.observed_graph, links,
                               replace(config, h=h), path,
                               worker_count=spec.workers, seed=seed)
            probe[f"preprocess_s_h{h}"] = time.monotonic() - t0
            with RecordFile(path) as recs:
                probe[f"per_record_inference_s_h{h}"] = _per_record_inference_s(
                    recs, run.params, spec.training["agg"])
        ratio = (probe["per_record_inference_s_h3"]
                 / probe["per_record_inference_s_h1"])
        probe["inference_ratio_h3_vs_h1"] = ratio
        probe["within_20pct"] = bool(0.8 <= ratio <= 1.25)
        report["independence_probe"] = probe
    return report
