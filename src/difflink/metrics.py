"""Ranking metrics and parameter-free heuristic link scorers.

AUC uses the Mann-Whitney identity over a single sort; Hits@K and MRR
follow the usual leaderboard conventions (strictly-above threshold,
pessimistic tie ranks). Heuristics are computed on whatever graph is
passed in, which should be the observed training graph so they see the
same information as a trained model.
"""
from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .graphs import Graph, common_neighbors


@dataclass(frozen=True)
class ScoredPairs:
    """Scores for known-positive and known-negative pairs."""

    pos_scores: np.ndarray
    neg_scores: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pos_scores",
                           np.asarray(self.pos_scores, dtype=np.float64).ravel())
        object.__setattr__(self, "neg_scores",
                           np.asarray(self.neg_scores, dtype=np.float64).ravel())
        if not (np.isfinite(self.pos_scores).all()
                and np.isfinite(self.neg_scores).all()):
            raise ValueError("scores must be finite")


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


class Heuristic(str, Enum):
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
    n = graph.num_nodes
    if not 0 <= src < n:
        raise ValueError(f"node id out of range: {src}")
    a = graph.adjacency(np.float64)
    deg = graph.degrees().astype(np.float64)
    nonzero = deg > 0
    inv_deg = np.zeros(n)
    inv_deg[nonzero] = 1.0 / deg[nonzero]
    pi = np.zeros(n)
    pi[src] = 1.0
    for _ in range(max_iter):
        spread = a.T @ (pi * inv_deg)
        spread[src] += pi[~nonzero].sum()   # dangling mass back to source
        new = (1.0 - alpha) * spread
        new[src] += alpha
        if np.abs(new - pi).sum() < tol:
            return new
        pi = new
    return pi


class PPRScorer:
    """PPR vectors with a bounded per-source memo (insertion-order eviction)."""

    def __init__(self, graph: Graph, alpha: float = 0.15, tol: float = 1e-6,
                 max_cached: int = 1024):
        self.graph = graph
        self.alpha = alpha
        self.tol = tol
        self.max_cached = max_cached
        self._cache: OrderedDict = OrderedDict()

    def vector(self, src: int) -> np.ndarray:
        hit = self._cache.get(src)
        if hit is not None:
            self._cache.move_to_end(src)
            return hit
        vec = ppr_vector(self.graph, src, self.alpha, self.tol)
        self._cache[src] = vec
        if len(self._cache) > self.max_cached:
            self._cache.popitem(last=False)
        return vec

    def score(self, u: int, v: int) -> float:
        return float(self.vector(u)[v] + self.vector(v)[u])


def heuristic_score(graph: Graph, u: int, v: int, method: Heuristic,
                    ppr_params: tuple = (0.15, 1e-6),
                    scorer: PPRScorer | None = None) -> float:
    """Score one candidate pair with a parameter-free heuristic.

    CN counts common neighbors; AA weights each by 1/ln(degree); PPR sums
    the two personalized PageRank masses. Pass a shared PPRScorer to reuse
    vectors across many pairs.
    """
    method = Heuristic(method)
    if method is Heuristic.PPR:
        if scorer is None:
            scorer = PPRScorer(graph, *ppr_params)
        return scorer.score(u, v)
    cn = common_neighbors(graph, u, v)
    if method is Heuristic.CN:
        return float(cn.shape[0])
    degs = graph.degrees()[cn]
    # A common neighbor is adjacent to both endpoints, so degree >= 2 and
    # the log never vanishes.
    assert (degs >= 2).all()
    return float(np.sum(1.0 / np.log(degs)))


def score_pairs(graph: Graph, pairs: np.ndarray, method: Heuristic,
                ppr_params: tuple = (0.15, 1e-6)) -> np.ndarray:
    """Vector of heuristic scores for an (n, 2) pair array."""
    method = Heuristic(method)
    scorer = PPRScorer(graph, *ppr_params) if method is Heuristic.PPR else None
    return np.asarray([heuristic_score(graph, int(u), int(v), method,
                                       ppr_params, scorer=scorer)
                       for u, v in np.asarray(pairs).reshape(-1, 2)])
