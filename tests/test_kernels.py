"""The package's own sparse kernels, checked against scipy.sparse and
``hop_distances``. The tests may use scipy as a reference; the package never
loads it."""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import difflink.records as records
from difflink import (SamplingOperatorSet, build_graph, hop_subgraphs,
                      normalized_adjacency, precompute_dataset)
from difflink.graphs import CSRMatrix
from difflink.sampling import _hop_keys, hop_distances

from conftest import gnp_graph, hub_graph, hub_links

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def sp():
    return pytest.importorskip("scipy.sparse")


def _scipy(csr, sp):
    return sp.csr_matrix((csr.data, csr.indices, csr.indptr), shape=csr.shape)


def _scipy_normalized(graph, sp):
    """D^{-1/2} (A + I) D^{-1/2} as scipy.sparse computes it."""
    at = _scipy(graph.adjacency(), sp) + sp.identity(graph.num_nodes, format="csr")
    dinv = 1.0 / np.sqrt(np.asarray(at.sum(axis=1)).ravel())
    return sp.csr_matrix(at.multiply(dinv[:, None]).multiply(dinv[None, :]))


def test_pipeline_never_loads_scipy(tmp_path):
    script = textwrap.dedent(f"""
        import sys
        from pathlib import Path
        import numpy as np
        import difflink as dl

        rng = np.random.default_rng(0)
        graph = dl.build_graph(40, rng.integers(40, size=(120, 2)),
                               rng.random((40, 3)).astype(np.float32))
        split = dl.split_edges(graph, seed=0)
        out = Path({str(tmp_path)!r})
        links = {{part: dl.labeled_links(split, part)
                  for part in ("train", "valid", "test")}}
        for variant in ("PoS", "PoSPlus", "SoP"):
            config = dl.SamplingOperatorSet(variant=variant, r=2, h=1)
            for part, part_links in links.items():
                dl.precompute_dataset(split.observed_graph, part_links, config,
                                      out / f"{{variant}}-{{part}}.rec")
        params, _ = dl.train(out / "PoS-train.rec", out / "PoS-valid.rec",
                             dl.TrainConfig(d_prime=8, epochs=1))
        dl.predict(dl.read_records(out / "PoS-test.rec"), params)
        pairs = np.concatenate([split.test_pos, split.test_neg])
        for method in ("CN", "AA", "PPR"):
            dl.score_pairs(split.observed_graph, pairs, method)
        print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
    """)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_matvec_and_toarray_match_scipy(sp):
    rng = np.random.default_rng(71)
    for _ in range(10):
        g = gnp_graph(rng, n_lo=20, n_hi=60, p=0.2)
        for a in (g.adjacency(), normalized_adjacency(g)):
            ref = _scipy(a, sp)
            assert np.array_equal(a.toarray(), ref.toarray())
            x = rng.standard_normal(g.num_nodes)
            assert np.array_equal(a @ x, ref @ x)
            x = rng.standard_normal((g.num_nodes, 3))
            assert np.array_equal(a @ x, ref @ x)
        with pytest.raises(ValueError, match="align"):
            g.adjacency() @ np.ones(g.num_nodes + 1)


def test_normalized_adjacency_matches_scipy(sp):
    rng = np.random.default_rng(72)
    for _ in range(10):
        g = gnp_graph(rng, n_lo=20, n_hi=60, p=0.2)
        ref = _scipy_normalized(g, sp)
        got = normalized_adjacency(g)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name


def test_hop_reach_matches_hop_distances():
    rng = np.random.default_rng(73)
    for trial in range(20):
        g = hub_graph(rng, isolated=True) if trial % 2 else gnp_graph(rng, 8, 20, 0.2)
        u, v = hub_links(rng, g.num_nodes)
        h = int(rng.integers(1, 4))
        rows, nodes = np.divmod(_hop_keys(g, u, v, h), g.num_nodes)
        for b in range(u.shape[0]):
            dist = hop_distances(g.indptr, g.indices, [u[b], v[b]], max_depth=h)
            assert nodes[rows == b].tolist() == np.flatnonzero(dist >= 0).tolist()


def _scipy_diffuse(sp):
    """``records._diffuse`` with every product taken by scipy.sparse."""
    def diffuse(sub, features, pooled_link, pooled, config, r):
        labels = records.node_labels(sub, config.labeling, config.label_cap)
        label_dim = config.label_dim()
        at = sub.locate(pooled_link, pooled)
        p = pooled.shape[0]
        found = at >= 0
        indptr = np.concatenate(([0], np.cumsum(found)))
        y = sp.csr_matrix((np.ones(indptr[-1]), at[found], indptr),
                          shape=(p, sub.num_nodes))
        a = (_scipy_normalized(sub, sp) if config.normalized
             else _scipy(sub.adjacency(), sp))
        series = [y]
        for _ in range(r):
            series.append(series[-1] @ a)
            series[-1].sort_indices()
        x = features.toarray()
        out = np.empty((r + 1, p, label_dim + x.shape[1]), dtype=np.float32)
        for i, y in enumerate(series):
            row = np.repeat(np.arange(p), np.diff(y.indptr))
            out[i, :, :label_dim] = np.bincount(
                row * label_dim + labels[y.indices], weights=y.data,
                minlength=p * label_dim).reshape(p, label_dim)
            by_id = sp.csr_matrix((y.data, sub.global_ids[y.indices], y.indptr),
                                  shape=(p, x.shape[0]))
            by_id.sort_indices()
            out[i, :, label_dim:] = by_id @ x
        return out
    return diffuse


@pytest.mark.parametrize("normalized", [False, True])
@pytest.mark.parametrize("variant", ["PoS", "PoSPlus"])
def test_records_match_scipy_products_bit_for_bit(tmp_path, monkeypatch, sp,
                                                  variant, normalized):
    # Features of +-2^60 and 1 make a feature sum that cancels depend on its
    # order: a 1 added to a nonzero partial sum is lost. Hubs make many rows
    # share columns.
    # The float32 records hide last-bit changes of the normalized powers,
    # which test_block_product_matches_sorted_scipy checks itself.
    rng = np.random.default_rng(75)
    cfg = SamplingOperatorSet(variant=variant, r=4, h=2, labeling="drnl",
                              normalized=normalized)
    for trial in range(6):
        g = hub_graph(rng, leaves=60) if trial % 2 else gnp_graph(rng, 30, 60, 0.08)
        x = rng.choice([-2.0 ** 60, 2.0 ** 60, 1.0], size=(g.num_nodes, 4))
        g = build_graph(g.num_nodes, g.edge_array(), x.astype(np.float32))
        u, v = hub_links(rng, g.num_nodes)
        links = np.column_stack([u, v, np.arange(u.shape[0]) % 2])
        ours, theirs = tmp_path / f"ours{trial}.rec", tmp_path / f"scipy{trial}.rec"
        precompute_dataset(g, links, cfg, ours)
        with monkeypatch.context() as patch:
            patch.setattr(records, "_diffuse", _scipy_diffuse(sp))
            precompute_dataset(g, links, cfg, theirs)
        assert ours.read_bytes() == theirs.read_bytes(), trial


def test_block_product_matches_sorted_scipy(sp):
    # scipy's product with sorted rows, then sorted: the same entries in the
    # same order, each sum added up in the same order, bit for bit.
    rng = np.random.default_rng(76)
    g = hub_graph(rng, leaves=40)
    u, v = hub_links(rng, g.num_nodes)
    [sub] = hop_subgraphs(g, u, v, 2)
    a = normalized_adjacency(sub)
    lo, size = sub.starts[:-1], np.diff(sub.starts)
    y = CSRMatrix(np.arange(u.shape[0] + 1), sub.targets[:, 0], np.ones(u.shape[0]),
                  (u.shape[0], sub.num_nodes))
    ref = _scipy(y, sp)
    for _ in range(3):
        y = records._block_product(y, a, lo, size)
        ref = ref @ _scipy(a, sp)
        ref.sort_indices()
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(y, name), getattr(ref, name)), name


def test_block_product_rows_list_columns_ascending():
    rng = np.random.default_rng(77)
    for trial in range(6):
        g = hub_graph(rng) if trial % 2 else gnp_graph(rng, 20, 40, 0.15)
        u, v = hub_links(rng, g.num_nodes)
        [sub] = hop_subgraphs(g, u, v, 2)
        a = normalized_adjacency(sub) if trial % 3 else sub.adjacency()
        lo, size = sub.starts[:-1], np.diff(sub.starts)
        y = CSRMatrix(np.arange(u.shape[0] + 1), sub.targets[:, 1],
                      np.ones(u.shape[0]), (u.shape[0], sub.num_nodes))
        for _ in range(3):
            y = records._block_product(y, a, lo, size)
            row = y._rows()
            assert np.all(np.diff(row * sub.num_nodes + y.indices) > 0)
            assert np.all((y.indices >= lo[row]) & (y.indices < lo[row] + size[row]))
