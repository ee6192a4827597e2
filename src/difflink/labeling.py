"""Structural node labels for link subgraphs.

Labels mark each subgraph node's role relative to its block's target link.
They are computed for every block of a ``Subgraph`` at once, so a chunk of
links is labeled in one pass and a one-link subgraph is the same call.
Records one-hot encode the label ahead of the raw node features (an
implicit all-ones column when the graph is unattributed), giving every
record row the layout [one-hot label | raw features]; ``label_dim_for``
fixes the one-hot width.
"""
from __future__ import annotations

import numpy as np

from .graphs import _CaseInsensitiveEnum
from .sampling import UNREACHABLE, Subgraph, hop_distances


class LabelScheme(_CaseInsensitiveEnum):
    ZERO_ONE = "zero_one"
    DRNL = "drnl"


def zero_one_labels(subgraph: Subgraph) -> np.ndarray:
    """Label 1 for the two target nodes of every block, 0 for everyone else."""
    labels = np.zeros(subgraph.num_nodes, dtype=np.int64)
    labels[subgraph.targets] = 1
    return labels


def drnl_labels(subgraph: Subgraph) -> np.ndarray:
    """Double-radius labels from hop distances to the two target nodes.

    Distances are taken inside each link-removed block with the opposite
    target masked out; one expansion covers every block. With du, dv the
    two distances and s = du + dv:

        label = 1 + min(du, dv) + (s // 2) * ((s // 2) + (s % 2) - 1)

    Targets get label 1; nodes unreachable from either target get 0.
    """
    n = subgraph.num_nodes
    us, vs = subgraph.targets.T
    du = hop_distances(subgraph.indptr, subgraph.indices, us, blocked=vs)
    dv = hop_distances(subgraph.indptr, subgraph.indices, vs, blocked=us)
    labels = np.zeros(n, dtype=np.int64)
    ok = (du != UNREACHABLE) & (dv != UNREACHABLE)
    d_min = np.minimum(du, dv).astype(np.int64)
    s = (du + dv).astype(np.int64)
    half = s // 2
    z = 1 + d_min + half * (half + s % 2 - 1)
    labels[ok] = z[ok]
    labels[us] = labels[vs] = 1
    return labels


def node_labels(subgraph: Subgraph, scheme: LabelScheme = LabelScheme.ZERO_ONE,
                label_cap: int = 100) -> np.ndarray:
    """Labels of ``scheme`` for every subgraph node, clamped to ``label_cap``."""
    if LabelScheme(scheme) is LabelScheme.ZERO_ONE:
        labels = zero_one_labels(subgraph)
    else:
        labels = drnl_labels(subgraph)
    return np.minimum(labels, label_cap)


def label_dim_for(scheme: LabelScheme, label_cap: int) -> int:
    """Fixed one-hot width used by the record pipeline for a scheme.

    Zero-one always occupies two columns; double-radius occupies
    label_cap + 1 so every record in a dataset shares one row width.
    """
    scheme = LabelScheme(scheme)
    if scheme is LabelScheme.ZERO_ONE:
        return 2
    return label_cap + 1
