"""Ranking metrics and parameter-free heuristic link scorers.

AUC uses the Mann-Whitney identity over a single sort; Hits@K and MRR
follow the usual leaderboard conventions (strictly-above threshold,
pessimistic tie ranks). Heuristics are computed on whatever graph is
passed in, which should be the observed training graph so they see the
same information as a trained model.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, _CaseInsensitiveEnum, _common_neighbors, _link_arrays


@dataclass(frozen=True)
class ScoredPairs:
    """Scores for known-positive and known-negative pairs."""

    pos_scores: np.ndarray
    neg_scores: np.ndarray

    def __post_init__(self):
        for name in ("pos_scores", "neg_scores"):
            scores = np.asarray(getattr(self, name), dtype=np.float64).ravel()
            if not np.isfinite(scores).all():
                raise ValueError("scores must be finite")
            object.__setattr__(self, name, scores)


def auc(scored: ScoredPairs) -> float:
    """Probability a random positive outscores a random negative, ties 1/2.

    Computed via midranks of the pooled sort (Mann-Whitney U), O(N log N).
    """
    pos, neg = scored.pos_scores, scored.neg_scores
    if pos.size == 0 or neg.size == 0:
        raise ValueError("auc needs at least one positive and one negative score")
    allscores = np.concatenate([pos, neg])
    _, group, counts = np.unique(allscores, return_inverse=True,
                                 return_counts=True)
    # Midranks: tied scores share the mean of their 1-based rank range.
    ranks = (np.cumsum(counts) - 0.5 * (counts - 1))[group]
    r_pos = ranks[:pos.size].sum()
    u = r_pos - pos.size * (pos.size + 1) / 2.0
    return float(u / (pos.size * neg.size))


def hits_at_k(scored: ScoredPairs, k: int) -> float:
    """Fraction of positives scoring strictly above the k-th highest negative."""
    pos, neg = scored.pos_scores, scored.neg_scores
    if k < 1 or neg.size < k:
        raise ValueError(f"hits_at_k needs at least k={k} negatives, got {neg.size}")
    threshold = np.sort(neg)[-k]
    if pos.size == 0:
        raise ValueError("hits_at_k needs at least one positive")
    return float((pos > threshold).mean())


def mrr(per_pos_neg_scores) -> float:
    """Mean reciprocal rank, rank = 1 + #{negatives scoring >= positive}."""
    entries = list(per_pos_neg_scores)
    if not entries:
        raise ValueError("mrr needs at least one entry")
    total = 0.0
    for pos, negs in entries:
        negs = np.asarray(negs, dtype=np.float64)
        if negs.size == 0:
            raise ValueError("each mrr entry needs at least one negative score")
        rank = 1 + int((negs >= pos).sum())
        total += 1.0 / rank
    return total / len(entries)


class Heuristic(_CaseInsensitiveEnum):
    CN = "CN"
    AA = "AA"
    PPR = "PPR"


def ppr_vector(graph: Graph, src: int, alpha: float = 0.15,
               tol: float = 1e-6, max_iter: int = 1000) -> np.ndarray:
    """Personalized PageRank from ``src`` by power iteration.

    pi = alpha * e_src + (1 - alpha) * P^T pi, with P the uniform random
    walk; mass at dangling nodes returns to the source. Iterates until the
    L1 change is below ``tol``. The result is nonnegative and sums to 1.
    """
    if not 0 <= src < graph.num_nodes:
        raise ValueError(f"node id out of range: {src}")
    return next(_ppr_vectors(graph, [src], alpha, tol, max_iter))


def _ppr_vectors(graph: Graph, sources, alpha=0.15, tol=1e-6, max_iter=1000):
    """``ppr_vector`` of each source in turn, over one walk operator."""
    n = graph.num_nodes
    # A^T w adds w[x] into each neighbor of x, x ascending, by one bincount
    # over the neighbor lists in row order
    degree = graph.degrees()
    target = graph.indices.astype(np.intp)
    deg = degree.astype(np.float64)
    nonzero = deg > 0
    inv_deg = np.divide(1.0, deg, out=np.zeros(n), where=nonzero)
    for src in sources:
        pi = np.zeros(n)
        pi[src] = 1.0
        for _ in range(max_iter):
            spread = np.bincount(target, weights=np.repeat(pi * inv_deg, degree),
                                 minlength=n)
            spread[src] += pi[~nonzero].sum()   # dangling mass back to source
            new = (1.0 - alpha) * spread
            new[src] += alpha
            pi, old = new, pi
            if np.abs(pi - old).sum() < tol:
                break
        yield pi


def score_pairs(graph: Graph, pairs, method: Heuristic) -> np.ndarray:
    """Float64 heuristic scores of an (n, 2) pair array; ValueError for an
    id out of range or a pair with u == v.

    CN counts common neighbors (one batched product for all pairs) and AA
    weights each by 1/ln(degree). PPR sums pi_u[v] + pi_v[u], with one
    vector per distinct endpoint, read in both directions.
    """
    method = Heuristic(method)
    u, v = _link_arrays(graph, *np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T)
    if method is Heuristic.PPR:
        sources = np.unique(np.concatenate([u, v])).tolist()
        score = np.zeros(u.shape[0])
        for src, pi in zip(sources, _ppr_vectors(graph, sources)):
            at_u, at_v = u == src, v == src
            score[at_u] += pi[v[at_u]]
            score[at_v] += pi[u[at_v]]
        return score
    pair, cn = _common_neighbors(graph, u, v)
    if method is Heuristic.CN:
        return np.bincount(pair, minlength=u.shape[0]).astype(np.float64)
    # a common neighbor has degree >= 2, so the log never vanishes
    return np.bincount(pair, weights=1.0 / np.log(graph.degrees()[cn]),
                       minlength=u.shape[0])
