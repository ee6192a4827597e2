"""Shallow trainable head over precomputed link records.

Per pooled node the r+1 operator blocks are concatenated and reduced by one
learned matrix with ReLU; pooling collapses node rows to a single vector
(Hadamard of the two target rows, optionally concatenated with an aggregate
over common-neighbor rows); a one-hidden-layer MLP with sigmoid output maps
that vector to a link probability. Gradients are exact reverse-mode,
written out by hand; the optimizer is Adam. All training math is float32,
float64 parameters are supported for gradient checking only.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .metrics import ScoredPairs, auc
from .records import (Pooling, RecordFormatError, _is_integer, _record_buffer,
                      manifest_path)

_ORDER = ("W", "hidden_w", "hidden_b", "out_w", "out_b")


@dataclass
class ModelParams:
    """Learnable tensors. pool_dim = d' (Center) or 2 d' (CCN).

    The model's own parameters and gradients are consecutive views of one
    flat buffer, in ``W, hidden_w, hidden_b, out_w, out_b`` order, so the
    optimizer makes one pass over them. Tensors set by hand may be
    separate arrays.
    """

    W: np.ndarray          # ((r+1)*w, d') reduction matrix
    hidden_w: np.ndarray   # (pool_dim, d')
    hidden_b: np.ndarray   # (d',)
    out_w: np.ndarray      # (d',)
    out_b: np.ndarray      # scalar, shape ()

    @property
    def d_prime(self) -> int:
        return self.W.shape[1]

    @property
    def pool_dim(self) -> int:
        return self.hidden_w.shape[0]

    @property
    def pooling(self) -> Pooling:
        return Pooling.CCN if self.pool_dim == 2 * self.d_prime else Pooling.CENTER

    def tensors(self) -> dict:
        return {"W": self.W, "hidden_w": self.hidden_w, "hidden_b": self.hidden_b,
                "out_w": self.out_w, "out_b": self.out_b}

    def copy(self) -> "ModelParams":
        return _flat_params(self.tensors())

    def astype(self, dtype) -> "ModelParams":
        return _flat_params(self.tensors(), dtype)


def _flat_params(tensors: dict, dtype=None, copy: bool = True) -> ModelParams:
    """ModelParams over one new flat buffer, shaped like ``tensors`` and
    holding a copy of them (uninitialised when ``copy`` is False). The
    buffer's dtype is ``dtype``, else the tensors' common one."""
    if dtype is None:
        dtype = np.result_type(*tensors.values())
    flat = np.empty(sum(tensors[k].size for k in _ORDER), dtype=dtype)
    views, lo = [], 0
    for k in _ORDER:
        t = tensors[k]
        views.append(flat[lo:lo + t.size].reshape(t.shape))
        if copy:
            views[-1][...] = t
        lo += t.size
    params = ModelParams(*views)
    params._buffer = (flat, views)
    return params


def _flat(params: ModelParams) -> np.ndarray | None:
    """The flat buffer ``params`` were made over, while every tensor is
    still a view of it as made; else None (tensors set by hand, or a copy
    that no longer shares the buffer)."""
    flat, views = getattr(params, "_buffer", (None, ()))
    if flat is None or any(getattr(params, k) is not t or t.base is not flat
                           for k, t in zip(_ORDER, views)):
        return None
    return flat


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters; defaults follow the benchmark setup."""

    d_prime: int = 256
    dropout: float = 0.5
    epochs: int = 50
    batch_size: int = 32
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    agg: str = "mean"
    pooling: Pooling | None = None

    def __post_init__(self):
        # every message starts with the field name, so config parsing can
        # report it as ``training.<field>``
        for name in ("d_prime", "epochs", "batch_size"):
            value = getattr(self, name)
            if not (_is_integer(value) and value >= 1):
                raise ValueError(f"{name}: expected an integer >= 1, got {value!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout: expected a value in [0, 1), got {self.dropout!r}")
        if not (math.isfinite(self.lr) and self.lr >= 0.0):
            raise ValueError(f"lr: expected a finite value >= 0, got {self.lr!r}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name}: expected a value in [0, 1), "
                                 f"got {getattr(self, name)!r}")
        if not self.eps > 0.0:
            raise ValueError(f"eps: expected a value > 0, got {self.eps!r}")
        if self.agg not in ("mean", "sum", "max"):
            raise ValueError(f"agg: unknown aggregation {self.agg!r}")
        if self.pooling is not None:
            object.__setattr__(self, "pooling", Pooling(self.pooling))


def init_params(rng: np.random.Generator, in_dim: int, d_prime: int,
                pooling: Pooling, dtype=np.float32) -> ModelParams:
    """Glorot-uniform weights, zero biases.

    Each weight's float64 draws are written into the flat buffer a block of
    about ``ADAM_BLOCK`` values at a time; the stream and the rounding are
    those of one whole-array draw cast to ``dtype``.
    """
    pool_dim = 2 * d_prime if Pooling(pooling) is Pooling.CCN else d_prime
    shapes = {"W": (in_dim, d_prime), "hidden_w": (pool_dim, d_prime),
              "hidden_b": (d_prime,), "out_w": (d_prime,), "out_b": ()}
    params = _flat_params({k: np.broadcast_to(np.zeros((), dtype), shape)
                           for k, shape in shapes.items()}, dtype, copy=False)
    for out in (params.W, params.hidden_w, params.out_w[:, None]):
        fan_in, fan_out = out.shape
        lim = np.sqrt(6.0 / (fan_in + fan_out))
        step = max(1, ADAM_BLOCK // fan_out)
        for lo in range(0, fan_in, step):
            block = out[lo:lo + step]
            block[...] = rng.uniform(-lim, lim, size=block.shape)
    params.hidden_b[...] = 0.0
    params.out_b[...] = 0.0
    return params


def _forward_batch(rows, mask, params: ModelParams, dropout_mask, agg: str):
    """Logits plus every intermediate needed for the backward pass.

    ``rows`` holds the batch's real pooled rows, (sum of p, (r+1)*w), in
    batch-row order: the rows of ``mask``'s True entries, in C order.
    """
    ccn = params.pooling is Pooling.CCN
    b, p_max = mask.shape
    # one GEMM over the real rows only: a 3-D ``z @ W`` runs one small GEMM
    # per record, each streaming the whole of W again
    real = np.maximum(rows @ params.W, 0.0)
    if real.shape[0] == b * p_max:
        h = real.reshape(b, p_max, -1)
    else:
        # pooled counts differ: hidden rows go into (B, p_max, d') for pooling
        h = np.zeros((b, p_max, real.shape[1]), dtype=real.dtype)
        h[mask] = real
    qc = h[:, 0] * h[:, 1]                     # Hadamard of target rows
    cn_idx = None
    if ccn:
        hn = h[:, 2:]
        if hn.shape[1] == 0:
            qn = np.zeros_like(qc)
            cnt = np.zeros(b, dtype=rows.dtype)
        else:
            cnt = mask[:, 2:].sum(axis=1).astype(rows.dtype)
            if agg == "mean":
                qn = hn.sum(axis=1) / np.maximum(cnt, 1.0)[:, None]
            elif agg == "sum":
                qn = hn.sum(axis=1)
            else:
                qn = hn.max(axis=1)
                cn_idx = hn.argmax(axis=1)     # (B, d'), routes max gradient
        q = np.concatenate([qc, qn], axis=1)
    else:
        q = qc
        cnt = None
    hid_pre = q @ params.hidden_w + params.hidden_b
    hid = np.maximum(hid_pre, 0.0)
    hid_d = hid if dropout_mask is None else hid * dropout_mask
    logit = hid_d @ params.out_w + params.out_b
    cache = {"rows": rows, "mask": mask, "h": h, "q": q, "hid": hid,
             "hid_d": hid_d, "dropout_mask": dropout_mask, "cnt": cnt,
             "cn_idx": cn_idx, "agg": agg, "ccn": ccn, "logit": logit}
    return logit, cache


def _backward_batch(dlogit, cache, params: ModelParams, out=None) -> ModelParams:
    """Exact gradients, written into ``out``, else into one new flat buffer."""
    rows, mask, h = cache["rows"], cache["mask"], cache["h"]
    d_prime = params.d_prime
    dhid_d = dlogit[:, None] * params.out_w[None, :]
    dhid = dhid_d if cache["dropout_mask"] is None else dhid_d * cache["dropout_mask"]
    dhid_pre = dhid * (cache["hid"] > 0)
    dq = dhid_pre @ params.hidden_w.T
    dh = np.zeros_like(h)
    dqc = dq[:, :d_prime]
    dh[:, 0] = dqc * h[:, 1]
    dh[:, 1] = dqc * h[:, 0]
    if cache["ccn"] and h.shape[1] > 2:
        dqn = dq[:, d_prime:]
        agg, cnt = cache["agg"], cache["cnt"]
        if agg == "mean":
            share = dqn / np.maximum(cnt, 1.0)[:, None]
            dh[:, 2:] += share[:, None, :] * mask[:, 2:, None]
        elif agg == "sum":
            dh[:, 2:] += dqn[:, None, :] * mask[:, 2:, None]
        else:
            # each (b, 2 + cn_idx[b, f], f) target is distinct, since f is
            b_idx = np.arange(mask.shape[0])[:, None]
            f_idx = np.arange(d_prime)[None, :]
            dh[b_idx, 2 + cache["cn_idx"], f_idx] += dqn
    dh_pre = dh * (h > 0)
    # dW over the real rows only
    dh_pre = (dh_pre.reshape(-1, d_prime) if rows.shape[0] == mask.size
              else dh_pre[mask])
    grads = _flat_params(params.tensors(), rows.dtype, copy=False) if out is None else out
    np.matmul(rows.T, dh_pre, out=grads.W)
    np.matmul(cache["q"].T, dhid_pre, out=grads.hidden_w)
    grads.hidden_b[...] = dhid_pre.sum(axis=0)
    np.matmul(cache["hid_d"].T, dlogit, out=grads.out_w)
    grads.out_b[...] = dlogit.sum()
    return grads


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def loss_and_gradients(batch, params: ModelParams, config: TrainConfig,
                       rng: np.random.Generator | None = None, out=None):
    """Mean binary cross-entropy over a batch and exact gradients.

    ``batch`` is the (rows, mask, labels) arrays of ``RecordFile.batch``. The
    sigmoid and BCE are fused in log space (softplus form), so extreme
    logits cannot overflow. The dropout mask is drawn once and shared
    between forward and backward. The gradients are written into ``out``
    (ModelParams over one flat buffer of the batch's dtype) when given,
    else into a new buffer.
    """
    rows, mask, y = batch
    b = mask.shape[0]
    if b == 0:
        raise ValueError("batch must be nonempty")
    dtype = params.W.dtype
    dmask = None
    if config.dropout > 0.0:
        if rng is None:
            raise ValueError("dropout > 0 needs an rng")
        dmask = ((rng.random((b, params.d_prime)) >= config.dropout)
                 .astype(dtype) / (1.0 - config.dropout)).astype(dtype)
    logit, cache = _forward_batch(rows, mask, params, dmask, config.agg)
    # loss_i = softplus(logit) - y * logit;  dloss/dlogit = sigmoid(logit) - y
    loss = float(np.mean(np.logaddexp(0.0, logit) - y * logit))
    dlogit = (_sigmoid(logit) - y) / b
    grads = _backward_batch(dlogit, cache, params, out)
    return loss, grads


ADAM_BLOCK = 32768   # elements per in-place Adam update block


class Adam:
    """Adam with bias correction: theta -= lr * m_hat / (sqrt(v_hat) + eps).

    The moments live in one flat buffer each (``m`` and ``v`` map tensor
    names to views of them). A step is one pass over the flat parameters
    and gradients, in place, in blocks of ``ADAM_BLOCK`` elements through
    two block-sized scratch buffers, so it allocates no full-size
    temporaries. Parameters or gradients that are not one flat buffer are
    gathered into one and the parameters written back. The operation
    order is the textbook one, so results are bit-identical to the
    whole-array form.
    """

    def __init__(self, params: ModelParams, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        moments = [_flat_params(params.tensors(), copy=False) for _ in range(2)]
        self._m, self._v = (_flat(x) for x in moments)
        self._m[...] = 0.0
        self._v[...] = 0.0
        self.m, self.v = (x.tensors() for x in moments)
        self._scratch = np.empty((2, ADAM_BLOCK), self._m.dtype)

    def step(self, params: ModelParams, grads: ModelParams) -> None:
        self.t += 1
        b1, b2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        work = params
        flat = _flat(params)
        if flat is None or flat.dtype != self._m.dtype:
            work = _flat_params(params.tensors(), self._m.dtype)
            flat = _flat(work)
        g = _flat(grads)
        if g is None:
            g = _flat(_flat_params(grads.tensors()))
        m, v, buf = self._m, self._v, self._scratch
        for lo in range(0, flat.size, ADAM_BLOCK):
            hi = min(lo + ADAM_BLOCK, flat.size)
            gb, mb, vb, pb = g[lo:hi], m[lo:hi], v[lo:hi], flat[lo:hi]
            s1, s2 = buf[0, :hi - lo], buf[1, :hi - lo]
            # m = b1 * m + (1 - b1) * g
            np.multiply(mb, b1, out=mb)
            np.multiply(gb, 1.0 - b1, out=s1)
            np.add(mb, s1, out=mb)
            # v = b2 * v + ((1 - b2) * g) * g
            np.multiply(vb, b2, out=vb)
            np.multiply(gb, 1.0 - b2, out=s1)
            np.multiply(s1, gb, out=s1)
            np.add(vb, s1, out=vb)
            # p -= ((m / bc1) * lr) / (sqrt(v / bc2) + eps)
            np.divide(mb, bc1, out=s1)
            np.multiply(s1, lr, out=s1)
            np.divide(vb, bc2, out=s2)
            np.sqrt(s2, out=s2)
            np.add(s2, eps, out=s2)
            np.divide(s1, s2, out=s1)
            np.subtract(pb, s1, out=pb)
        if work is not params:
            for t, updated in zip(params.tensors().values(), work.tensors().values()):
                t[...] = updated


def _pooling_hint(config: TrainConfig, records) -> Pooling:
    """The config's pooling, else the one in the manifest ``records`` were
    verified against, else CCN exactly when some record pools more than
    its two targets."""
    if config.pooling is not None:
        return config.pooling
    if records.manifest is None:
        return Pooling.CCN if (records.p > 2).any() else Pooling.CENTER
    try:
        return Pooling(records.manifest["config"]["pooling"])
    except (KeyError, TypeError, ValueError) as exc:
        raise RecordFormatError(f"{manifest_path(records.path)}: bad manifest "
                                f"config.pooling ({exc!r})") from None


def train(dataset, valid, config: TrainConfig, epoch_times: list | None = None):
    """Fit the head; returns (best params, per-epoch history).

    ``dataset`` and ``valid`` are record file paths, RecordFiles or record
    sequences; batches come from ``RecordFile.batch`` either way. One
    seeded rng drives init, shuffling and dropout, so runs are exactly
    repeatable. The returned parameters are those of the epoch with the
    highest validation AUC (earliest epoch on ties). ``epoch_times``, when
    given, collects per-epoch wall seconds without touching the history.
    """
    with _record_buffer(dataset) as records, _record_buffer(valid) as valid_records:
        if not len(records) or not len(valid_records):
            raise ValueError("train and valid record sets must be nonempty")
        pooling = _pooling_hint(config, records)
        rng = np.random.default_rng(config.seed)
        params = init_params(rng, records.row_width, config.d_prime, pooling,
                             dtype=np.float32)
        opt = Adam(params, config.lr, config.beta1, config.beta2, config.eps)
        n = len(records)
        labels = valid_records.labels
        best_auc, best_params = -1.0, None
        # one kept buffer that every step's gradients are written into: a
        # new one per step made the allocator give the heap top back to the
        # system and fault it in again at every step
        grads = _flat_params(params.tensors(), copy=False)
        history = []
        for epoch in range(1, config.epochs + 1):
            t0 = time.monotonic()
            perm = rng.permutation(n)
            total = 0.0
            for start in range(0, n, config.batch_size):
                index = perm[start:start + config.batch_size]
                # no name keeps the batch past the step, so the next one is
                # built after it is freed
                loss, _ = loss_and_gradients(records.batch(index, params.W.dtype),
                                             params, config, rng, grads)
                opt.step(params, grads)
                total += loss * index.shape[0]
            if epoch_times is not None:
                epoch_times.append(time.monotonic() - t0)
            scores = predict(valid_records, params, agg=config.agg)
            val_auc = auc(ScoredPairs(scores[labels == 1], scores[labels == 0]))
            history.append({"epoch": epoch, "train_loss": total / n,
                            "valid_auc": val_auc})
            if val_auc > best_auc:
                best_auc = val_auc
                # a best last epoch needs no copy, as nothing trains its
                # parameters further; an earlier best is copied into one
                # kept buffer
                if epoch == config.epochs:
                    best_params = params
                elif best_params is None:
                    best_params = params.copy()
                else:
                    np.copyto(_flat(best_params), _flat(params))
    return best_params, history


def predict(dataset, params: ModelParams, agg: str = "mean",
            batch_size: int = 256) -> np.ndarray:
    """Eval-mode probabilities for every record, in file order."""
    if batch_size < 1:
        raise ValueError(f"batch_size: expected an integer >= 1, got {batch_size!r}")
    dtype = params.W.dtype
    with _record_buffer(dataset) as records:
        n = len(records)
        scores = np.zeros(n, dtype=np.float64)
        for start in range(0, n, batch_size):
            stop = min(start + batch_size, n)
            rows, mask, _ = records.batch(np.arange(start, stop), dtype)
            if rows.shape[1] != params.W.shape[0]:
                raise ValueError(f"record width {rows.shape[1]} does not match "
                                 f"W rows {params.W.shape[0]}")
            logit = _forward_batch(rows, mask, params, None, agg)[0]
            del rows, mask          # freed before the next batch is built
            scores[start:stop] = _sigmoid(logit.astype(np.float64))
    return scores


def save_params(path, params: ModelParams, extra: dict | None = None) -> None:
    """Checkpoint: one JSON header line, then little-endian float32 tensors."""
    tensors = params.tensors()
    header = {
        "tensors": {k: list(tensors[k].shape) for k in _ORDER},
        "dtype": "float32",
        "d_prime": params.d_prime,
        "pool_dim": params.pool_dim,
        "extra": extra or {},
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        for k in _ORDER:
            fh.write(np.ascontiguousarray(tensors[k], dtype="<f4").tobytes())


def load_params(path):
    """Read a checkpoint; returns (ModelParams, extra dict)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        loaded = {}
        for k in _ORDER:
            shape = tuple(header["tensors"][k])
            count = int(np.prod(shape)) if shape else 1
            buf = fh.read(4 * count)
            if len(buf) != 4 * count:
                raise ValueError(f"{path}: truncated checkpoint tensor {k}")
            loaded[k] = np.frombuffer(buf, dtype="<f4").reshape(shape)
    return _flat_params(loaded, np.float32), header.get("extra", {})
