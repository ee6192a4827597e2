"""Scalable link prediction from precomputed subgraph-diffusion features.

The pipeline: split a graph's edges, sample an enclosing subgraph per
candidate link, diffuse labeled node features over it, store only the rows
of the pooled nodes in fixed-size binary records, and train a shallow
pooled head on those records. Sampling, labeling and diffusion run on a
chunk of links at a time, as one block-diagonal graph. Heuristic baselines, ranking metrics, and a
config-driven benchmark harness round out the package.

Each public name is imported from its submodule on first use (PEP 562), so
a process that only builds and splits graphs loads ``graphs`` and
``datasets``, not the records, model and benchmark layers.
"""
import importlib

__version__ = "0.1.0"

# Submodule -> the public names it exports. ``datasets`` is exported as a
# module; every submodule here is also reachable as ``difflink.<module>``.
_EXPORTS = {
    "graphs": ("EdgeSplit", "Graph", "GraphFormatError", "build_graph",
               "labeled_links", "load_edge_list", "load_features",
               "normalized_adjacency", "sample_negatives", "save_edge_list",
               "save_split", "split_edges"),
    "sampling": ("Subgraph", "UNREACHABLE", "hop_subgraphs", "walk_subgraphs"),
    "labeling": ("LabelScheme", "drnl_labels", "label_dim_for", "node_labels",
                 "zero_one_labels"),
    "records": ("CCN_CAP", "DatasetStats", "SamplingOperatorSet", "StorageReport",
                "Variant", "precompute_dataset", "storage_comparison"),
    "store": ("LinkRecord", "Pooling", "RecordFile", "RecordFormatError"),
    "model": ("Adam", "ModelParams", "TrainConfig", "init_params", "load_params",
              "loss_and_gradients", "predict", "save_params", "train"),
    "metrics": ("Heuristic", "ScoredPairs", "auc", "hits_at_k", "mrr",
                "score_pairs"),
    "bench": ("ConfigError", "ExperimentReport", "ExperimentSpec", "load_config",
              "operator_config", "parse_config", "precompute_split",
              "run_experiment", "run_seed", "storage_summary", "timing_probe"),
    "datasets": (),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

# Sorted, so a caller that resolves the names in order (perfbench's tracer
# does) has loaded every layer, through "Adam" and "ConfigError", before it
# reaches the first function.
__all__ = sorted([*_OWNER, "datasets"])


def __getattr__(name: str):
    if name in _EXPORTS:
        # importing a submodule binds it on the package, so this runs once
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
