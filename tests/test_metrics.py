import networkx as nx
import numpy as np
import pytest

from difflink import (Heuristic, ScoredPairs, auc, build_graph, hits_at_k,
                      mrr, score_pairs)
from difflink.metrics import _ppr_vectors

from conftest import gnp_graph
from oracles import auc_pairwise, hits_count, mrr_direct, ppr_solve, to_nx


def test_auc_hand_examples():
    assert auc(ScoredPairs([0.9], [0.1])) == 1.0
    assert auc(ScoredPairs([0.1], [0.9])) == 0.0
    assert auc(ScoredPairs([0.5], [0.5])) == 0.5
    assert auc(ScoredPairs([0.8, 0.4], [0.6])) == 0.5
    # all scores equal: pure chance
    assert auc(ScoredPairs([1.0, 1.0, 1.0], [1.0, 1.0])) == 0.5


def test_auc_matches_pairwise_oracle():
    rng = np.random.default_rng(20)
    for trial in range(20):
        # quantized scores force plenty of ties
        pos = rng.integers(0, 6, size=50) / 5.0
        neg = rng.integers(0, 6, size=50) / 5.0
        got = auc(ScoredPairs(pos, neg))
        assert got == pytest.approx(auc_pairwise(pos, neg), abs=1e-12)


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(21)
    pos = rng.normal(size=40)
    neg = rng.normal(size=30)
    base = auc(ScoredPairs(pos, neg))
    warped = auc(ScoredPairs(np.exp(pos), np.exp(neg)))
    assert warped == pytest.approx(base, abs=1e-12)


def test_auc_input_validation():
    with pytest.raises(ValueError):
        auc(ScoredPairs([], [0.5]))
    with pytest.raises(ValueError):
        auc(ScoredPairs([0.5], []))
    with pytest.raises(ValueError):
        ScoredPairs([np.nan], [0.5])
    with pytest.raises(ValueError):
        ScoredPairs([np.inf], [0.5])


def test_hits_hand_examples():
    sp = ScoredPairs([0.9, 0.5, 0.2], [0.6, 0.4, 0.1])
    assert hits_at_k(sp, 1) == pytest.approx(1 / 3)
    assert hits_at_k(sp, 2) == pytest.approx(2 / 3)
    assert hits_at_k(sp, 3) == 1.0  # every positive clears the 0.1 cutoff
    # ties with the threshold do not count
    tied = ScoredPairs([0.5, 0.7], [0.5])
    assert hits_at_k(tied, 1) == 0.5


def test_hits_matches_oracle_and_is_monotone_in_k():
    rng = np.random.default_rng(22)
    for trial in range(20):
        pos = rng.integers(0, 8, size=30) / 7.0
        neg = rng.integers(0, 8, size=40) / 7.0
        sp = ScoredPairs(pos, neg)
        values = []
        for k in (1, 5, 20, 40):
            got = hits_at_k(sp, k)
            assert got == pytest.approx(hits_count(pos, neg, k), abs=1e-12)
            values.append(got)
        assert values == sorted(values)


def test_hits_validation():
    sp = ScoredPairs([0.5], [0.4, 0.3])
    with pytest.raises(ValueError):
        hits_at_k(sp, 0)
    with pytest.raises(ValueError):
        hits_at_k(sp, 3)


def test_mrr_hand_examples():
    # positive above every negative: rank 1
    assert mrr([(0.9, [0.1, 0.2])]) == 1.0
    # one negative ties: rank 2 (ties count against the positive)
    assert mrr([(0.5, [0.5, 0.1])]) == 0.5
    assert mrr([(0.9, [0.1]), (0.1, [0.5, 0.6, 0.7])]) == pytest.approx(
        (1.0 + 1 / 4) / 2)


def test_mrr_matches_oracle():
    rng = np.random.default_rng(23)
    for trial in range(20):
        entries = [(float(rng.integers(0, 5)) / 4,
                    rng.integers(0, 5, size=int(rng.integers(1, 30))) / 4.0)
                   for _ in range(12)]
        assert mrr(entries) == pytest.approx(mrr_direct(entries), abs=1e-12)


def test_mrr_validation():
    with pytest.raises(ValueError):
        mrr([])
    with pytest.raises(ValueError):
        mrr([(0.5, [])])


def test_cn_and_aa_on_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert score_pairs(g, [[0, 1]], Heuristic.CN).tolist() == [1.0]
    assert score_pairs(g, [[0, 1]], Heuristic.AA)[0] == pytest.approx(
        1.0 / np.log(2))
    assert score_pairs(g, [[0, 1]], "CN").tolist() == [1.0]  # plain strings accepted


def test_cn_aa_match_brute_force():
    rng = np.random.default_rng(24)
    g = gnp_graph(rng, n_lo=30, n_hi=30, p=0.2)
    degs = g.degrees()
    pairs = np.asarray([rng.choice(g.num_nodes, size=2, replace=False)
                        for _ in range(40)])
    cn_scores = score_pairs(g, pairs, Heuristic.CN)
    aa_scores = score_pairs(g, pairs, Heuristic.AA)
    for (u, v), cn_score, aa_score in zip(pairs, cn_scores, aa_scores):
        cn = [w for w in range(g.num_nodes)
              if w not in (u, v) and w in g.neighbors(u) and w in g.neighbors(v)]
        assert cn_score == len(cn)
        aa = sum(1.0 / np.log(degs[w]) for w in cn)
        assert aa_score == pytest.approx(aa, abs=1e-12)


def test_ppr_distribution_properties():
    rng = np.random.default_rng(25)
    g = gnp_graph(rng, n_lo=20, n_hi=20, p=0.2)
    [pi] = _ppr_vectors(g, [3])
    assert pi.sum() == pytest.approx(1.0, abs=1e-5)
    assert (pi >= 0).all()
    assert pi[3] >= 0.15  # teleport keeps at least alpha at the source


def test_ppr_matches_linear_solve():
    rng = np.random.default_rng(26)
    g = gnp_graph(rng, n_lo=25, n_hi=25, p=0.15)
    sources = [0, 7, 19]
    for src, got in zip(sources, _ppr_vectors(g, sources, tol=1e-10)):
        want = ppr_solve(g, src)
        assert np.allclose(got, want, atol=1e-4)


def test_ppr_isolated_source_is_delta():
    g = build_graph(4, [(1, 2)])
    [pi] = _ppr_vectors(g, [0])
    expected = np.zeros(4)
    expected[0] = 1.0
    assert np.allclose(pi, expected, atol=1e-9)


def test_ppr_disconnected_components_get_zero():
    g = build_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    [pi] = _ppr_vectors(g, [0])
    assert np.allclose(pi[3:], 0.0)
    assert score_pairs(g, [[0, 4]], Heuristic.PPR)[0] == pytest.approx(0.0)


def test_ppr_score_is_symmetric():
    rng = np.random.default_rng(27)
    g = gnp_graph(rng, n_lo=15, n_hi=15, p=0.25)
    pairs = np.asarray([rng.choice(g.num_nodes, size=2, replace=False)
                        for _ in range(10)])
    forward = score_pairs(g, pairs, Heuristic.PPR)
    assert np.array_equal(forward, score_pairs(g, pairs[:, ::-1], Heuristic.PPR))
    # scored alone or among other pairs, a pair's score is the same
    assert forward.tolist() == [score_pairs(g, [pair], Heuristic.PPR)[0]
                                for pair in pairs]


def test_heuristic_invalid_inputs():
    g = build_graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        score_pairs(g, [[0, 3]], Heuristic.CN)
    with pytest.raises(ValueError):
        score_pairs(g, [[1, 1]], Heuristic.CN)
    with pytest.raises(ValueError):
        score_pairs(g, [[0, 5]], Heuristic.PPR)
    with pytest.raises(ValueError):
        score_pairs(g, [[0, 1]], "Katz")


def _oracle_scores(g, pairs, method):
    """CN and AA from networkx, PPR from dense linear solves."""
    nxg = to_nx(g)
    if method is Heuristic.CN:
        return [len(list(nx.common_neighbors(nxg, u, v))) for u, v in pairs]
    if method is Heuristic.AA:
        return [s for _, _, s in nx.adamic_adar_index(nxg, [tuple(p) for p in pairs])]
    pi = {src: ppr_solve(g, src) for src in np.unique(pairs).tolist()}
    return [pi[u][v] + pi[v][u] for u, v in pairs]


def test_score_pairs_matches_single_calls():
    rng = np.random.default_rng(29)
    g = gnp_graph(rng, n_lo=18, n_hi=18, p=0.25)
    pairs = np.array([[0, 5], [3, 9], [1, 2], [0, 5]])
    for method in Heuristic:
        vec = score_pairs(g, pairs, method)
        assert np.allclose(vec, _oracle_scores(g, pairs.tolist(), method),
                           rtol=0, atol=1e-12 if method is not Heuristic.PPR else 1e-4)
        assert vec[0] == vec[3]


def test_score_pairs_match_oracles_on_random_graphs():
    rng = np.random.default_rng(30)
    for trial in range(6):
        base = gnp_graph(rng, n_lo=12, n_hi=20, p=0.3)
        n = base.num_nodes + 1                  # node n - 1 is isolated
        g = build_graph(n, base.edge_array())
        edges = g.edge_array()
        adjacent = edges[rng.choice(edges.shape[0], 4)]
        apart = [(u, v) for u, v in rng.integers(n, size=(40, 2))
                 if u != v and v not in g.neighbors(u)][:4]
        repeated = [(0, w) for w in range(1, 4)] + [(0, n - 1)]
        pairs = np.concatenate([adjacent, np.asarray(apart).reshape(-1, 2),
                                repeated])
        pairs = np.concatenate([pairs, pairs[:, ::-1]])     # both orientations
        for method in Heuristic:
            got = score_pairs(g, pairs, method)
            assert got.dtype == np.float64 and got.shape == (pairs.shape[0],)
            want = _oracle_scores(g, pairs.tolist(), method)
            atol = 1e-4 if method is Heuristic.PPR else 1e-12
            assert np.allclose(got, want, rtol=0, atol=atol), (trial, method)
            half = pairs.shape[0] // 2
            assert np.array_equal(got[:half], got[half:])


@pytest.mark.parametrize("method", list(Heuristic))
@pytest.mark.parametrize("pair", [(0, 3), (-1, 1), (1, 1), (2, 2)])
def test_score_pairs_rejects_invalid_pairs(method, pair):
    g = build_graph(3, [(0, 1), (1, 2)])
    for pairs in ([[0, 1], pair], [pair]):      # among valid pairs, and alone
        with pytest.raises(ValueError):
            score_pairs(g, np.array(pairs), method)
