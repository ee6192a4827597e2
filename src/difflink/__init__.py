"""Scalable link prediction from precomputed subgraph-diffusion features.

The pipeline: split a graph's edges, sample an enclosing subgraph per
candidate link, diffuse labeled node features over it, store only the rows
of the pooled nodes in fixed-size binary records, and train a shallow
pooled head on those records. Sampling, labeling and diffusion run on a
chunk of links at a time, as one block-diagonal graph. Heuristic baselines, ranking metrics, and a
config-driven benchmark harness round out the package.
"""

from .graphs import (EdgeSplit, Graph, GraphFormatError, build_graph,
                     load_edge_list, load_features, load_split,
                     normalized_adjacency, sample_negatives, save_edge_list,
                     save_split, split_edges)
from .sampling import (Subgraph, UNREACHABLE, graph_power, hop_subgraphs,
                       walk_subgraphs)
from .labeling import (LabelScheme, drnl_labels, label_dim_for, node_labels,
                       zero_one_labels)
from .records import (CCN_CAP, DatasetStats, LinkRecord, Pooling, RecordFile,
                      RecordFormatError, SamplingOperatorSet, StorageReport,
                      Variant, precompute_dataset, read_records,
                      serialize_record, storage_comparison, write_records)
from .model import (Adam, ModelParams, TrainConfig, init_params, load_params,
                    loss_and_gradients, predict, save_params, train)
from .metrics import (Heuristic, ScoredPairs, auc, hits_at_k, mrr, ppr_vector,
                      score_pairs)
from .bench import (ConfigError, ExperimentReport, ExperimentSpec,
                    labeled_links, load_config, operator_config, parse_config,
                    precompute_split, run_experiment, run_seed,
                    storage_summary, timing_probe)
from . import datasets

__version__ = "0.1.0"

__all__ = [
    "Adam", "CCN_CAP", "ConfigError", "DatasetStats", "EdgeSplit",
    "ExperimentReport", "ExperimentSpec", "Graph", "GraphFormatError",
    "Heuristic", "LabelScheme", "LinkRecord", "ModelParams", "Pooling",
    "RecordFile", "RecordFormatError", "SamplingOperatorSet", "ScoredPairs",
    "StorageReport", "Subgraph", "TrainConfig", "UNREACHABLE", "Variant",
    "auc", "build_graph", "datasets", "drnl_labels", "graph_power",
    "hits_at_k", "hop_subgraphs", "init_params", "label_dim_for",
    "labeled_links", "load_config", "load_edge_list", "load_features",
    "load_params", "load_split", "loss_and_gradients", "mrr", "node_labels",
    "normalized_adjacency", "operator_config", "parse_config", "ppr_vector",
    "precompute_dataset", "precompute_split", "predict", "read_records",
    "run_experiment", "run_seed", "sample_negatives", "save_edge_list",
    "save_params", "save_split", "score_pairs", "serialize_record",
    "split_edges", "storage_comparison", "storage_summary", "timing_probe",
    "train", "walk_subgraphs", "write_records", "zero_one_labels",
]
