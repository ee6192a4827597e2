import dataclasses
import tracemalloc

import numpy as np
import pytest

from difflink import (Adam, LinkRecord, ModelParams, Pooling,
                      SamplingOperatorSet, TrainConfig, auc, build_graph,
                      datasets, init_params, labeled_links, load_params,
                      loss_and_gradients, precompute_dataset, predict,
                      save_params, split_edges, train)
from difflink.metrics import ScoredPairs
from difflink.model import ADAM_BLOCK, _forward_batch
from difflink import store
from difflink.store import RecordFile, _record_buffer

from oracles import (adam_reference, init_params_reference, link_record,
                     pack_batch, predict_reference, scalar_forward,
                     stack_reference, train_reference, write_reference)


def _random_record(rng, r1=3, p=4, w=5, label=1):
    blocks = rng.normal(size=(r1, p, w)).astype(np.float32)
    ids = np.arange(p, dtype=np.uint32)
    return LinkRecord(0, 1, label, ids, blocks)


def _random_params(rng, in_dim, d_prime, pooling, dtype=np.float32):
    params = init_params(rng, in_dim, d_prime, pooling, dtype=dtype)
    # nonzero biases exercise every gradient path
    params.hidden_b[...] = rng.normal(size=d_prime).astype(dtype) * 0.1
    params.out_b[...] = rng.normal() * 0.1
    return params


def test_init_param_shapes():
    rng = np.random.default_rng(0)
    params = init_params(rng, 20, 8, Pooling.CENTER)
    assert params.W.shape == (20, 8)
    assert params.hidden_w.shape == (8, 8)
    assert params.out_w.shape == (8,)
    assert params.out_b.shape == ()
    assert params.pooling is Pooling.CENTER
    ccn = init_params(rng, 20, 8, Pooling.CCN)
    assert ccn.hidden_w.shape == (16, 8)
    assert ccn.pooling is Pooling.CCN
    assert ccn.pool_dim == 16


@pytest.mark.parametrize("pooling,in_dim,d_prime,dtype", [
    (Pooling.CCN, 1000, 256, np.float32),      # W in 8 row blocks, the last partial
    (Pooling.CENTER, 7, 3, np.float32),
    (Pooling.CCN, 300, 64, np.float64),
])
def test_init_params_matches_whole_array_draws(pooling, in_dim, d_prime, dtype):
    params = init_params(np.random.default_rng(5), in_dim, d_prime, pooling, dtype)
    want = init_params_reference(np.random.default_rng(5), in_dim, d_prime,
                                 pooling is Pooling.CCN, dtype)
    for k, t in params.tensors().items():
        assert t.dtype == dtype and t.shape == want[k].shape, k
        assert np.array_equal(t, want[k]), k


def test_init_params_memory_is_the_parameters_and_a_block():
    # cora_plus's shapes: W is 6136 x 256
    tracemalloc.start()
    try:
        params = init_params(np.random.default_rng(0), 6136, 256, Pooling.CCN)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = params.flat.nbytes
    # a block of float64 draws and its cast, plus small objects
    assert peak <= held + 16 * ADAM_BLOCK + (64 << 10), (peak, held)


def test_zero_params_give_half():
    rng = np.random.default_rng(1)
    rec = _random_record(rng)
    params = init_params(rng, 15, 6, Pooling.CCN)
    for k, t in params.tensors().items():
        t[...] = 0.0
    assert predict([rec], params)[0] == 0.5


def test_forward_symmetric_in_target_order():
    rng = np.random.default_rng(2)
    rec = _random_record(rng, p=2)
    params = _random_params(rng, 15, 6, Pooling.CENTER)
    swapped = LinkRecord(rec.v, rec.u, rec.label, rec.pooled_ids[[1, 0]],
                         rec.blocks[:, [1, 0], :])
    p1, p2 = predict([rec, swapped], params)
    assert p1 == pytest.approx(p2, rel=1e-6)


@pytest.mark.parametrize("pooling,p,agg", [
    (Pooling.CENTER, 2, "mean"),
    (Pooling.CCN, 2, "mean"),
    (Pooling.CCN, 5, "mean"),
    (Pooling.CCN, 5, "sum"),
    (Pooling.CCN, 5, "max"),
])
def test_forward_matches_scalar_oracle(pooling, p, agg):
    rng = np.random.default_rng(3)
    for trial in range(5):
        rec = _random_record(rng, r1=2, p=p, w=4)
        params = _random_params(rng, 8, 5, pooling)
        prob = predict([rec], params, agg=agg)[0]
        assert prob == pytest.approx(scalar_forward(rec, params, agg), abs=1e-6)


def test_forward_rejects_width_mismatch():
    rng = np.random.default_rng(4)
    rec = _random_record(rng, r1=2, p=2, w=4)
    params = init_params(rng, 9, 5, Pooling.CENTER)
    with pytest.raises(ValueError, match="width"):
        predict([rec], params)


def test_eval_equals_train_without_dropout():
    # the training loss at dropout 0 is the BCE of predict's probabilities
    rng = np.random.default_rng(5)
    batch = [_random_record(rng, label=i % 2) for i in range(4)]
    params = _random_params(rng, 15, 6, Pooling.CCN)
    prob = predict(batch, params)
    y = np.array([rec.label for rec in batch])
    bce = -np.mean(y * np.log(prob) + (1 - y) * np.log(1 - prob))
    cfg = TrainConfig(d_prime=6, dropout=0.0, epochs=1)
    loss, _ = loss_and_gradients(pack_batch(stack_reference(batch)), params, cfg)
    assert loss == pytest.approx(bce, rel=1e-5)


def test_loss_is_ln2_at_zero_params():
    rng = np.random.default_rng(6)
    batch = [_random_record(rng, label=i % 2) for i in range(4)]
    params = init_params(rng, 15, 6, Pooling.CCN)
    for k, t in params.tensors().items():
        t[...] = 0.0
    cfg = TrainConfig(d_prime=6, dropout=0.0, epochs=1)
    loss, grads = loss_and_gradients(pack_batch(stack_reference(batch)), params, cfg)
    assert loss == pytest.approx(np.log(2.0), abs=1e-7)


def test_duplicated_batch_keeps_mean_loss_and_grads():
    rng = np.random.default_rng(7)
    batch = [_random_record(rng, label=i % 2) for i in range(3)]
    params = _random_params(rng, 15, 6, Pooling.CCN)
    cfg = TrainConfig(d_prime=6, dropout=0.0, epochs=1)
    loss1, g1 = loss_and_gradients(pack_batch(stack_reference(batch)), params, cfg)
    loss2, g2 = loss_and_gradients(pack_batch(stack_reference(batch + batch)), params,
                                  cfg)
    assert loss1 == pytest.approx(loss2, rel=1e-6)
    for k, t in g1.tensors().items():
        assert np.allclose(t, g2.tensors()[k], rtol=1e-5, atol=1e-7)


def test_gradients_written_into_out_match_a_new_buffer():
    # train writes every step's gradients into one kept buffer
    rng = np.random.default_rng(8)
    batch = pack_batch(stack_reference([_random_record(rng, label=i % 2)
                                        for i in range(3)]))
    params = _random_params(rng, 15, 6, Pooling.CCN)
    cfg = TrainConfig(d_prime=6, dropout=0.0, epochs=1)
    _, fresh = loss_and_gradients(batch, params, cfg)
    out = fresh.copy()
    for t in out.tensors().values():
        t[...] = np.nan
    _, written = loss_and_gradients(batch, params, cfg, out=out)
    assert written is out
    for k, t in fresh.tensors().items():
        assert np.array_equal(t, out.tensors()[k])


def _relative_grad_error(batch, params, cfg, seed, samples=10):
    """Max relative error between analytic and central-difference gradients."""
    rng = np.random.default_rng(seed)
    _, grads = loss_and_gradients(batch, params, cfg,
                                  np.random.default_rng(seed))
    eps = 1e-6
    worst = 0.0
    check_rng = np.random.default_rng(99)
    for k, tensor in params.tensors().items():
        flat = tensor.reshape(-1)
        gflat = grads.tensors()[k].reshape(-1)
        idxs = check_rng.choice(flat.size, size=min(samples, flat.size),
                                replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + eps
            lo_plus, _ = loss_and_gradients(batch, params, cfg,
                                            np.random.default_rng(seed))
            flat[i] = orig - eps
            lo_minus, _ = loss_and_gradients(batch, params, cfg,
                                             np.random.default_rng(seed))
            flat[i] = orig
            fd = (lo_plus - lo_minus) / (2 * eps)
            denom = max(abs(fd), abs(gflat[i]), 1e-8)
            worst = max(worst, abs(fd - gflat[i]) / denom)
    return worst


@pytest.mark.parametrize("pooling,agg,dropout", [
    (Pooling.CENTER, "mean", 0.0),
    (Pooling.CCN, "mean", 0.0),
    (Pooling.CCN, "sum", 0.0),
    (Pooling.CCN, "max", 0.0),
    (Pooling.CCN, "mean", 0.4),
])
def test_gradients_match_finite_differences(pooling, agg, dropout):
    rng = np.random.default_rng(8)
    p = 2 if pooling is Pooling.CENTER else 5
    batch = pack_batch(stack_reference([_random_record(rng, r1=2, p=p, w=4,
                                                       label=i % 2)
                                        for i in range(3)], np.float64))
    params = _random_params(rng, 8, 5, pooling, dtype=np.float64)
    cfg = TrainConfig(d_prime=5, dropout=dropout, epochs=1, agg=agg)
    assert _relative_grad_error(batch, params, cfg, seed=13) < 1e-6


def test_adam_hand_trace():
    # constant unit gradient, lr 0.1, eps 0.5: bias correction makes
    # m_hat = v_hat = 1 every step, so each step subtracts 0.1 / 1.5
    tensors = {
        "W": np.ones((2, 2), dtype=np.float32),
        "hidden_w": np.ones((2, 2), dtype=np.float32),
        "hidden_b": np.ones(2, dtype=np.float32),
        "out_w": np.ones(2, dtype=np.float32),
        "out_b": np.asarray(1.0, dtype=np.float32),
    }
    params = ModelParams(**tensors)
    grads = ModelParams(**{k: np.ones_like(v) for k, v in tensors.items()})
    opt = Adam(params, lr=0.1, eps=0.5)
    for _ in range(3):
        opt.step(params, grads)
    expected = 1.0 - 3 * (0.1 / 1.5)
    for k, t in params.tensors().items():
        assert np.allclose(t, expected, atol=1e-6), k


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_matches_whole_array_reference(dtype):
    # W spans two full blocks and a partial one; out_b is 0-d. Tensors are
    # views of one flat buffer, where a block straddles tensor boundaries.
    rows = 2 * ADAM_BLOCK // 64 + 3
    shapes = {"W": (rows, 64), "hidden_w": (6, 5), "hidden_b": (5,),
              "out_w": (5,), "out_b": ()}
    assert (rows * 64) % ADAM_BLOCK != 0
    rng = np.random.default_rng(17)

    def draw():
        return ModelParams(**{k: np.asarray(rng.normal(size=s), dtype=dtype)
                              for k, s in shapes.items()})

    params = draw()
    buffer = params.flat
    ref_p = {k: t.copy() for k, t in params.tensors().items()}
    ref_m = {k: np.zeros(s, dtype) for k, s in shapes.items()}
    ref_v = {k: np.zeros(s, dtype) for k, s in shapes.items()}
    opt = Adam(params, lr=0.01, beta1=0.8, beta2=0.95, eps=1e-7)
    for t in range(1, 5):
        grads = draw()
        before = {k: g.copy() for k, g in grads.tensors().items()}
        opt.step(params, grads)
        ref_p, ref_m, ref_v = adam_reference(ref_p, ref_m, ref_v, before, t,
                                             0.01, 0.8, 0.95, 1e-7)
        for k, g in grads.tensors().items():
            assert np.array_equal(g, before[k]), k
        for k, tensor in params.tensors().items():
            assert tensor.dtype == dtype and tensor.shape == shapes[k], k
            assert np.array_equal(tensor, ref_p[k]), (t, k)
            assert np.array_equal(opt.m[k], ref_m[k]), (t, k)
            assert np.array_equal(opt.v[k], ref_v[k]), (t, k)
    assert params.flat is buffer


def test_params_and_gradients_are_flat_buffers():
    rng = np.random.default_rng(20)
    records = [_random_record(rng, r1=2, p=p, w=4, label=i % 2)
               for i, p in enumerate((2, 5, 3))]
    params = _random_params(rng, 8, 5, Pooling.CCN)
    cfg = TrainConfig(d_prime=5, dropout=0.0, epochs=1)
    _, grads = loss_and_gradients(pack_batch(stack_reference(records)), params, cfg)
    for p in (params, params.copy(), init_params(rng, 8, 5, Pooling.CCN), grads):
        assert p.flat.size == sum(t.size for t in p.tensors().values())
        assert all(t.base is p.flat for t in p.tensors().values())
    with _record_buffer(records) as listed:
        _, same = loss_and_gradients(listed.batch([0, 1, 2]), params, cfg)
    for k, g in grads.tensors().items():
        assert np.array_equal(g, same.tensors()[k])


def test_adam_updates_non_contiguous_params():
    # ModelParams copies Fortran-ordered and strided inputs into one new
    # C-contiguous buffer, and its fields cannot be replaced, so Adam steps
    # that buffer and never the caller's arrays
    rng = np.random.default_rng(18)
    tensors = {"W": np.asfortranarray(rng.normal(size=(7, 3))),
               "hidden_w": rng.normal(size=(3, 3)), "hidden_b": np.zeros(3),
               "out_w": rng.normal(size=(6,))[::2], "out_b": np.asarray(0.5)}
    given = {k: t.copy() for k, t in tensors.items()}
    params = ModelParams(**tensors)
    grads = ModelParams(**{k: rng.normal(size=t.shape)
                           for k, t in tensors.items()})
    for t in tensors.values():
        t += 1.0
    for k, t in params.tensors().items():
        assert np.array_equal(t, given[k]), k
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.hidden_b = np.ones(3)
    assert params.flat.flags.c_contiguous and params.flat.dtype == np.float64
    assert params.flat.size == sum(t.size for t in given.values())
    for k, t in params.tensors().items():
        assert t.base is params.flat and t.flags.c_contiguous, k
    zeros = {k: np.zeros(t.shape) for k, t in tensors.items()}
    expected, _, _ = adam_reference(given, zeros, zeros, grads.tensors(), 1,
                                    0.1, 0.9, 0.999, 1e-8)
    Adam(params, lr=0.1).step(params, grads)
    for k, t in params.tensors().items():
        assert np.array_equal(t, expected[k]), k
        assert np.array_equal(tensors[k], given[k] + 1.0), k


@pytest.mark.parametrize("pooling,agg", [
    (Pooling.CENTER, "mean"),
    (Pooling.CCN, "mean"),
    (Pooling.CCN, "sum"),
    (Pooling.CCN, "max"),
])
def test_logit_does_not_depend_on_batch_padding(pooling, agg):
    rng = np.random.default_rng(19)
    small = _random_record(rng, r1=3, p=2 if pooling is Pooling.CENTER else 3, w=7)
    larger = [_random_record(rng, r1=3, p=p, w=7, label=0) for p in (6, 9, 4)]
    params = _random_params(rng, 21, 16, pooling)
    rows, mask, _ = pack_batch(stack_reference([small]))
    alone, _ = _forward_batch(rows, mask, params, None, agg)
    rows, mask, _ = pack_batch(stack_reference([larger[0], small] + larger[1:]))
    padded, _ = _forward_batch(rows, mask, params, None, agg)
    assert mask.shape[1] == 9 and not mask[1, small.pooled_count:].any()
    np.testing.assert_allclose(padded[1], alone[0], rtol=1e-6)


def _toy_dataset(n_links, seed, separation=3.0):
    """Records whose block values carry the label directly."""
    rng = np.random.default_rng(seed)
    recs = []
    for i in range(n_links):
        label = i % 2
        blocks = rng.normal(size=(2, 2, 3)).astype(np.float32)
        blocks += np.float32(separation * label)
        recs.append(LinkRecord(2 * i, 2 * i + 1, label,
                               np.arange(2, dtype=np.uint32), blocks))
    return recs


def test_train_separates_toy_data():
    recs = _toy_dataset(40, seed=9)
    cfg = TrainConfig(d_prime=8, dropout=0.0, epochs=30, batch_size=8,
                      lr=0.01, seed=0, pooling="center")
    params, history = train(recs[:30], recs[30:], cfg)
    scores = predict(recs[30:], params)
    labels = np.array([r.label for r in recs[30:]])
    final = auc(ScoredPairs(scores[labels == 1], scores[labels == 0]))
    assert final == 1.0
    assert history[-1]["train_loss"] < history[0]["train_loss"]


def test_train_same_seed_same_history():
    recs = _toy_dataset(24, seed=10)
    cfg = TrainConfig(d_prime=6, dropout=0.5, epochs=4, batch_size=8,
                      lr=0.01, seed=7, pooling="center")
    p1, h1 = train(recs[:16], recs[16:], cfg)
    p2, h2 = train(recs[:16], recs[16:], cfg)
    assert h1 == h2
    for k, t in p1.tensors().items():
        assert np.array_equal(t, p2.tensors()[k])
    p3, h3 = train(recs[:16], recs[16:],
                   TrainConfig(d_prime=6, dropout=0.5, epochs=4, batch_size=8,
                               lr=0.01, seed=8, pooling="center"))
    assert h3 != h1


def test_train_zero_lr_keeps_init():
    recs = _toy_dataset(16, seed=11)
    cfg = TrainConfig(d_prime=6, dropout=0.0, epochs=3, batch_size=8,
                      lr=0.0, seed=3, pooling="center")
    params, history = train(recs[:12], recs[12:], cfg)
    rng = np.random.default_rng(3)
    fresh = init_params(rng, recs[0].blocks.shape[0] * recs[0].blocks.shape[2],
                        6, Pooling.CENTER)
    for k, t in params.tensors().items():
        assert np.array_equal(t, fresh.tensors()[k])
    aucs = [h["valid_auc"] for h in history]
    assert len(set(aucs)) == 1


def test_train_returns_best_epoch_params():
    recs = _toy_dataset(30, seed=12)
    cfg = TrainConfig(d_prime=6, dropout=0.3, epochs=6, batch_size=8,
                      lr=0.05, seed=1, pooling="center")
    params, history = train(recs[:20], recs[20:], cfg)
    scores = predict(recs[20:], params)
    labels = np.array([r.label for r in recs[20:]])
    got = auc(ScoredPairs(scores[labels == 1], scores[labels == 0]))
    assert got == pytest.approx(max(h["valid_auc"] for h in history))


def test_train_best_epoch_before_the_last_returns_that_epochs_params():
    recs = _toy_dataset(30, seed=12, separation=0.5)
    cfg = TrainConfig(d_prime=6, dropout=0.3, epochs=6, batch_size=8,
                      lr=0.05, seed=3, pooling="center")
    params, history = train(recs[:20], recs[20:], cfg)
    aucs = [h["valid_auc"] for h in history]
    best = int(np.argmax(aucs)) + 1
    assert best < cfg.epochs and aucs[-1] < aucs[best - 1]
    # the first ``best`` epochs of a run are a run of ``best`` epochs
    at_best, _ = train(recs[:20], recs[20:], dataclasses.replace(cfg, epochs=best))
    for k, t in params.tensors().items():
        assert np.array_equal(t, at_best.tensors()[k])


def test_train_keeps_no_copy_when_the_last_epoch_is_best(monkeypatch):
    recs = _toy_dataset(16, seed=14)
    cfg = TrainConfig(d_prime=6, dropout=0.0, epochs=1, batch_size=8,
                      lr=0.01, seed=2, pooling="center")
    copies = []
    real_copy = ModelParams.copy

    def counted(self):
        copies.append(self)
        return real_copy(self)

    monkeypatch.setattr(ModelParams, "copy", counted)
    params, history = train(recs[:12], recs[12:], cfg)
    assert copies == []
    scores = predict(recs[12:], params)
    labels = np.array([r.label for r in recs[12:]])
    assert auc(ScoredPairs(scores[labels == 1], scores[labels == 0])) == (
        history[0]["valid_auc"])


def test_train_epoch_times_out_param():
    recs = _toy_dataset(16, seed=13)
    cfg = TrainConfig(d_prime=4, dropout=0.0, epochs=3, batch_size=8,
                      lr=0.01, seed=0, pooling="center")
    times = []
    _, history = train(recs[:12], recs[12:], cfg, epoch_times=times)
    assert len(times) == 3 and all(t >= 0 for t in times)
    assert all("time" not in h for h in history)


@pytest.mark.parametrize("variant", ["PoS", "PoSPlus"])
def test_train_from_file_equals_train_from_records(tmp_path, variant):
    rng = np.random.default_rng(21)
    g = build_graph(30, rng.integers(30, size=(90, 2)))
    cfg = SamplingOperatorSet(variant=variant, r=2, h=1, labeling="drnl")
    edges = g.edge_array()
    paths = []
    for name, lo in (("train", 0), ("valid", 24)):
        pos = edges[lo:lo + 12]
        neg = rng.integers(30, size=(12, 2))
        neg = neg[neg[:, 0] != neg[:, 1]]
        links = np.concatenate([np.column_stack([pos, np.ones(len(pos), int)]),
                                np.column_stack([neg, np.zeros(len(neg), int)])])
        paths.append(tmp_path / f"{name}.rec")
        precompute_dataset(g, links, cfg, paths[-1])
    tc = TrainConfig(d_prime=8, dropout=0.5, epochs=3, batch_size=5, lr=0.01,
                     seed=4, pooling=cfg.pooling)
    p1, h1 = train(*paths, tc)
    p2, h2 = train(*(list(RecordFile(p)) for p in paths), tc)
    assert h1 == h2
    for k, t in p1.tensors().items():
        assert np.array_equal(t, p2.tensors()[k]), k


def test_predict_from_file_matches_records(tmp_path):
    g = build_graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
                        (6, 7), (0, 7)])
    cfg = SamplingOperatorSet(variant="PoS", r=2, h=2)
    links = [(0, 1, 1), (2, 5, 0), (3, 4, 1)]
    recs = [link_record(g, ln, cfg) for ln in links]
    path = tmp_path / "d.rec"
    write_reference(path, recs)
    rng = np.random.default_rng(14)
    params = _random_params(rng, recs[0].blocks.shape[0] * recs[0].blocks.shape[2],
                            5, Pooling.CENTER)
    from_file = predict(path, params)
    from_list = predict(recs, params)
    assert np.array_equal(from_file, from_list)
    assert np.all((from_file > 0) & (from_file < 1))
    assert from_file[0] == pytest.approx(scalar_forward(recs[0], params), abs=1e-6)
    assert np.array_equal(predict(recs, params, batch_size=1), from_list)
    for bad in (0, -1):
        with pytest.raises(ValueError, match="batch_size"):
            predict(recs, params, batch_size=bad)


def test_record_list_is_batched_from_its_own_rows(monkeypatch):
    # train and predict stack a list's rows; nothing is encoded to file bytes
    def refuse(*args):
        raise AssertionError("a record list was encoded")

    monkeypatch.setattr(store, "_encode", refuse)
    rng = np.random.default_rng(22)
    recs = [_random_record(rng, r1=2, p=p, w=4, label=i % 2)
            for i, p in enumerate((2, 5, 3, 2))]
    params = _random_params(rng, 8, 5, Pooling.CCN)
    with _record_buffer(recs) as listed:
        rows, mask, labels = listed.batch([2, 0, 2])
    want = pack_batch(stack_reference([recs[2], recs[0], recs[2]]))
    for a, b in zip((rows, mask, labels), want):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert np.array_equal(predict(recs, params),
                          predict_reference(recs, params))
    train(recs, recs, TrainConfig(d_prime=5, epochs=1, batch_size=2, seed=1))


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(15)
    params = _random_params(rng, 12, 6, Pooling.CCN)
    path = tmp_path / "model.ckpt"
    save_params(path, params, extra={"best_epoch": 4})
    loaded, extra = load_params(path)
    assert extra == {"best_epoch": 4}
    for k, t in params.tensors().items():
        assert np.array_equal(t, loaded.tensors()[k])
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_params(path)


@pytest.mark.parametrize("header", [b"[1, 2]", b'"x"', b"{}", b'{"tensors": {}}',
                                    b'{"tensors": {"W": 5}}', b"{not json"])
def test_load_params_names_the_checkpoint(tmp_path, header):
    path = tmp_path / "model.ckpt"
    path.write_bytes(header + b"\n" + bytes(64))
    with pytest.raises(ValueError, match="model.ckpt: bad checkpoint header"):
        load_params(path)


def test_stack_records_rejects_width_mismatch():
    # a record list must agree on one shape before its rows are stacked
    rng = np.random.default_rng(16)
    params = init_params(rng, 8, 5, Pooling.CENTER)
    a = _random_record(rng, r1=2, p=2, w=4)
    b = _random_record(rng, r1=2, p=2, w=5)
    with pytest.raises(ValueError, match="width"):
        predict([a, b], params)
    c = _random_record(rng, r1=3, p=2, w=4)
    with pytest.raises(ValueError, match="operator"):
        predict([a, c], params)


def test_train_config_validation():
    # each message starts with the field name (config parsing relies on it)
    for field, bad in [("d_prime", 0), ("d_prime", -4), ("epochs", 0),
                       ("batch_size", 0), ("dropout", 1.0), ("dropout", -0.1),
                       ("dropout", float("nan")), ("lr", -1e-3),
                       ("lr", float("inf")), ("lr", float("nan")),
                       ("beta1", 1.0), ("beta1", -0.1), ("beta2", 1.0),
                       ("eps", 0.0), ("eps", -1e-8), ("eps", float("nan")),
                       ("agg", "median"),
                       # integer fields take no bool and no float, even 3.0
                       ("d_prime", True), ("d_prime", 3.0), ("epochs", 2.5),
                       ("epochs", np.float64(2.0)), ("batch_size", 2.5),
                       ("batch_size", np.True_),
                       # real fields take numbers only, and no bool
                       ("lr", "x"), ("dropout", "0.5"), ("beta1", None),
                       ("lr", True), ("eps", None),
                       ("seed", 1.5), ("seed", "a"), ("seed", -1),
                       ("pooling", "bad")]:
        with pytest.raises(ValueError, match=f"^{field}: "):
            TrainConfig(**{field: bad})
    TrainConfig(lr=0.0, beta1=0.0, beta2=0.0, dropout=0.0, d_prime=1)
    TrainConfig(d_prime=np.int64(4), epochs=np.int32(2), batch_size=np.uint8(8),
                dropout=np.float32(0.25), lr=np.float64(0.01), seed=np.int64(3))
    cfg = TrainConfig(pooling="ccn")
    assert cfg.pooling is Pooling.CCN


def _standin_files(tmp_path, dataset, operators, counts=(600, 60)):
    """Train and valid record files of ``counts`` links on a stand-in, half
    positives, and their config."""
    split = split_edges(getattr(datasets, dataset)(seed=0), (0.85, 0.05, 0.10), seed=0)
    cfg = SamplingOperatorSet(**operators)
    rng = np.random.default_rng(0)
    paths = []
    for part, count in zip(("train", "valid"), counts):
        links = labeled_links(split, part)
        picked = [rows[rng.choice(rows.shape[0], count // 2, replace=False)]
                  for rows in (links[links[:, 2] == 1], links[links[:, 2] == 0])]
        paths.append(tmp_path / f"{part}.rec")
        precompute_dataset(split.observed_graph, np.concatenate(picked), cfg,
                           paths[-1])
    return cfg, paths


@pytest.mark.parametrize("dataset,operators,epochs", [
    ("cora_like", {"variant": "PoSPlus", "r": 3, "h": 1, "labeling": "drnl"}, 1),
    ("ns_like", {"variant": "PoS", "r": 3, "h": 2}, 3),
], ids=["cora_like-PoSPlus-drnl-h1", "ns_like-PoS-h2"])
def test_packed_training_matches_the_padded_reference_bit_for_bit(
        tmp_path, dataset, operators, epochs):
    # the benchmark's shapes: no padded training batch here exceeds the
    # BLAS's K block, so dropping the zero rows leaves every sum as it was
    cfg, paths = _standin_files(tmp_path, dataset, operators)
    tc = TrainConfig(d_prime=256, epochs=epochs, seed=3, pooling=cfg.pooling)
    params, history = train(*paths, tc)
    train_recs, valid_recs = (list(RecordFile(path)) for path in paths)
    ref, ref_history = train_reference(train_recs, valid_recs, tc)
    assert history == ref_history
    for k, t in params.tensors().items():
        assert np.array_equal(t, ref.tensors()[k]), k
    assert np.array_equal(predict(paths[1], params),
                          predict_reference(valid_recs, ref))


def test_packed_training_matches_the_padded_reference_at_a_wide_p_max(tmp_path):
    # pb_like pools up to 30 rows a link, so a padded batch of 32 has up to
    # 960 rows: past the BLAS's K block, dropping the zero rows regroups
    # dW's float32 partial sums, and bits may differ in the last places
    cfg, paths = _standin_files(tmp_path, "pb_like",
                                {"variant": "PoSPlus", "r": 3, "h": 1})
    train_recs, valid_recs = (list(RecordFile(path)) for path in paths)
    assert max(rec.pooled_count for rec in train_recs) == 30
    tc = TrainConfig(d_prime=256, epochs=1, seed=3, pooling=cfg.pooling)
    params, _ = train(*paths, tc)
    ref, _ = train_reference(train_recs, valid_recs, tc)
    for k, t in params.tensors().items():
        np.testing.assert_allclose(t, ref.tensors()[k], rtol=0, atol=1e-6, err_msg=k)
    np.testing.assert_allclose(predict(paths[1], params),
                               predict_reference(valid_recs, ref), rtol=0, atol=1e-6)
