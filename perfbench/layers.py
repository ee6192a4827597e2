"""Per-layer metrics derived from the tracer's spans.

Each traced unit (one set-up or one pipeline iteration) yields one value
per metric; the benchmark reports the median over units of the same kind.
A layer the workload does not call reads 0; a name difflink no longer
exports is listed as absent in the report.
"""
from __future__ import annotations

import numpy as np

import difflink as dl

from tracer import Tracer, self_times

# Metric name -> unit, in BENCHMARK.json order. Set-up metrics come from
# traced set-ups, the rest from traced pipeline iterations.
SETUP_METRICS = {
    "datasets.generate_s": "s",
    "graphs.split_edges_s": "s",
    "graphs.sample_negatives_s": "s",
}
ITERATION_METRICS = {
    "sampling.extract_h_hop_s": "s",
    "sampling.extract_h_hop_calls": "count",
    "sampling.subgraph_nodes_p50": "count",
    "sampling.subgraph_nodes_p99": "count",
    "sampling.subgraph_edges_p50": "count",
    "labeling.augment_features_s": "s",
    "records.build_link_record_self_s": "s",
    "records.precompute_dataset_self_s": "s",
    "records.bytes_written": "B",
    "records.open_s": "s",
    "records.bytes_read": "B",
    "records.pooled_p_mean": "count",
    "records.ccn_truncated_links": "count",
    "records.zero_filled_rows": "count",
    "records.storage_comparison_self_s": "s",
    "model.stack_records_s": "s",
    "model.loss_and_gradients_self_s": "s",
    "model.adam_step_s": "s",
    "model.batches": "count",
    "model.padded_row_share": "ratio",
    "model.predict_s": "s",
    "metrics.auc_s": "s",
    "bench.precompute_split_s": "s",
}
OVERHEAD_METRIC = {"trace.overhead_pct": "%"}
PER_LAYER = {**SETUP_METRICS, **ITERATION_METRICS, **OVERHEAD_METRIC}

# Wrapped beyond the functions in difflink.__all__.
DATASET_GENERATORS = ("ns_like", "cora_like")

# The ``*_self_s`` metrics: span name -> the span-name prefixes of the
# children its self time leaves out. Other wrapped children stay in, so
# build_link_record keeps its pooled ids (common_neighbors, label_dim_for)
# and precompute_dataset keeps serialize_record and _max_pooled.
SELF_EXCLUDES = {
    "records.build_link_record": ("sampling.", "labeling."),
    "records.precompute_dataset": ("records.build_link_record",),
    "records.storage_comparison": ("sampling.",),
    "model.loss_and_gradients": ("model.stack_records",),
}


def _observe_subgraph(args, kwargs, sub):
    return {"nodes": sub.num_nodes, "edges": sub.num_edges}


def _observe_record(args, kwargs, rec):
    return {"p": rec.pooled_count,
            "zero_rows": int((~rec.blocks.any(axis=2)).sum())}


def _observe_common(args, kwargs, cn):
    return {"n": int(cn.shape[0])}


def _observe_stack(args, kwargs, result):
    mask = result[1]
    return {"rows": int(mask.size), "padded": int(mask.size - mask.sum())}


def _observe_open(args, kwargs, result):
    return {"bytes": args[0].path.stat().st_size}


def _observe_precompute(args, kwargs, stats):
    return {"bytes": stats.total_bytes}


_OBSERVERS = {
    "extract_h_hop": _observe_subgraph,
    "build_link_record": _observe_record,
    "common_neighbors": _observe_common,
    "stack_records": _observe_stack,
    "precompute_dataset": _observe_precompute,
}


def make_tracer() -> Tracer:
    """Wrap every function in difflink.__all__ plus the named methods."""
    tracer = Tracer()
    for name in dl.__all__:
        obj = getattr(dl, name, None)
        if isinstance(obj, type) or not callable(obj):
            continue
        tracer.add_function(dl, name, _OBSERVERS.get(name))
    for name in DATASET_GENERATORS:
        tracer.add_function(dl.datasets, name)
    tracer.add_method(getattr(dl, "RecordFile", None), "__init__",
                      "records.RecordFile.open", _observe_open)
    tracer.add_method(getattr(dl, "Adam", None), "step", "model.Adam.step")
    return tracer


def own_times(spans) -> list[float]:
    """Per span, its self time under SELF_EXCLUDES (0 for other names)."""
    own = [0.0] * len(spans)
    for name, prefixes in SELF_EXCLUDES.items():
        times = self_times(spans, lambda n, p=prefixes: n.startswith(p))
        for i, span in enumerate(spans):
            if span.name == name:
                own[i] = times[i]
    return own


def _units(tracer: Tracer, run_ids) -> dict:
    """run_id -> list of (span, own seconds) for that unit."""
    out = {rid: [] for rid in run_ids}
    for span, own_s in zip(tracer.spans, own_times(tracer.spans)):
        if span.run_id in out:
            out[span.run_id].append((span, own_s))
    return out


def _unit_setup(items) -> dict:
    def total(names):
        return sum(s.duration for s, _ in items if s.name in names)

    return {"datasets.generate_s": total({f"datasets.{g}" for g in DATASET_GENERATORS}),
            "graphs.split_edges_s": total({"graphs.split_edges"}),
            "graphs.sample_negatives_s": total({"graphs.sample_negatives"})}


def _unit_iteration(items, spans, ccn_cap: int) -> dict:
    def total(name):
        return sum(s.duration for s, _ in items if s.name == name)

    def own(name):
        return sum(x for s, x in items if s.name == name)

    def calls(name):
        return sum(1 for s, _ in items if s.name == name)

    subs = [s.attrs for s, _ in items if s.name == "sampling.extract_h_hop" and s.attrs]
    nodes = np.asarray([a["nodes"] for a in subs], dtype=np.float64)
    edges = np.asarray([a["edges"] for a in subs], dtype=np.float64)
    recs = [s.attrs for s, _ in items if s.name == "records.build_link_record" and s.attrs]
    truncated = sum(
        1 for s, _ in items
        if s.name == "graphs.common_neighbors" and s.parent is not None
        and spans[s.parent].name == "records.build_link_record"
        and s.attrs.get("n", 0) > ccn_cap)
    stacked = [s.attrs for s, _ in items if s.name == "model.stack_records" and s.attrs]
    rows = sum(a["rows"] for a in stacked)
    top_predict = sum(s.duration for s, _ in items if s.name == "model.predict"
                      and s.parent is not None
                      and spans[s.parent].name.startswith("phase."))
    return {
        "sampling.extract_h_hop_s": total("sampling.extract_h_hop"),
        "sampling.extract_h_hop_calls": calls("sampling.extract_h_hop"),
        "sampling.subgraph_nodes_p50": float(np.percentile(nodes, 50)) if nodes.size else 0.0,
        "sampling.subgraph_nodes_p99": float(np.percentile(nodes, 99)) if nodes.size else 0.0,
        "sampling.subgraph_edges_p50": float(np.percentile(edges, 50)) if edges.size else 0.0,
        "labeling.augment_features_s": total("labeling.augment_features"),
        "records.build_link_record_self_s": own("records.build_link_record"),
        "records.precompute_dataset_self_s": own("records.precompute_dataset"),
        "records.bytes_written": sum(s.attrs.get("bytes", 0) for s, _ in items
                                     if s.name == "records.precompute_dataset"),
        "records.open_s": total("records.RecordFile.open"),
        "records.bytes_read": sum(s.attrs.get("bytes", 0) for s, _ in items
                                  if s.name == "records.RecordFile.open"),
        "records.pooled_p_mean": (sum(a["p"] for a in recs) / len(recs)) if recs else 0.0,
        "records.ccn_truncated_links": truncated,
        "records.zero_filled_rows": sum(a["zero_rows"] for a in recs),
        "records.storage_comparison_self_s": own("records.storage_comparison"),
        "model.stack_records_s": total("model.stack_records"),
        "model.loss_and_gradients_self_s": own("model.loss_and_gradients"),
        "model.adam_step_s": total("model.Adam.step"),
        "model.batches": calls("model.loss_and_gradients"),
        "model.padded_row_share": (sum(a["padded"] for a in stacked) / rows) if rows else 0.0,
        "model.predict_s": top_predict,
        "metrics.auc_s": total("metrics.auc"),
        "bench.precompute_split_s": total("bench.precompute_split"),
    }


def _median_by_key(rows: list[dict], keys) -> dict:
    return {k: float(np.median([r[k] for r in rows])) if rows else 0.0 for k in keys}


def layer_metrics(tracer: Tracer, setup_ids, iteration_ids, ccn_cap: int) -> dict:
    """Medians over traced units of every set-up and iteration metric."""
    units = _units(tracer, list(setup_ids) + list(iteration_ids))
    setup_rows = [_unit_setup(units[rid]) for rid in setup_ids]
    iter_rows = [_unit_iteration(units[rid], tracer.spans, ccn_cap)
                 for rid in iteration_ids]
    return {**_median_by_key(setup_rows, SETUP_METRICS),
            **_median_by_key(iter_rows, ITERATION_METRICS)}


def span_table(tracer: Tracer, run_ids) -> dict:
    """Per span name over the given units: calls, inclusive and self seconds."""
    wanted = set(run_ids)
    out: dict = {}
    for span, self_s in zip(tracer.spans, self_times(tracer.spans)):
        if span.run_id not in wanted:
            continue
        entry = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += span.duration
        entry["self_s"] += self_s
    return dict(sorted(out.items()))
