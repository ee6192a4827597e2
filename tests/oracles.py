"""Independent reference implementations used to pin expected test values.

Everything here is deliberately naive: networkx for graph traversal, dense
numpy matrix powers for diffusion, O(N^2) loops for metrics, linear solves
for PageRank, straight-line scalar math for the model forward pass, and
struct packing for record bytes, dense or sparse, and the pair samplers
and ``build_graph`` as first written (Python sets, per-candidate loops,
``np.unique`` and ``np.lexsort``), which the sorted-key versions must match
bit for bit. The model head's padded layout is kept too: batches padded to
their largest pooled count, and the forward and backward passes over every
padded row, as the head first ran them. None of it shares code with the
package under test, except ``link_record``, which is not a reference: it
hands tests one link's record from the package's own chunk engine; and
``train_reference``, which runs the padded passes inside the package's own
``init_params``, ``Adam`` and ``auc``, each tested on its own.
"""
from __future__ import annotations

import math
import struct

import networkx as nx
import numpy as np


def dense_binary_features(n: int, dim: int, ones_per_row: int,
                          seed: int = 0) -> np.ndarray:
    """``datasets.binary_features`` as a dense float32 array, one row at a
    time from the same ``rng.choice`` draws."""
    rng = np.random.default_rng(seed)
    out = np.zeros((n, dim), dtype=np.float32)
    for i in range(n):
        cols = rng.choice(dim, size=ones_per_row, replace=False)
        out[i, cols] = 1.0
    return out


def link_record(graph, link, config, seed: int = 0):
    """The LinkRecord of one (u, v, label) link: the package's chunk engine
    (``records._link_records``) run on a chunk of one."""
    from difflink.records import _link_records
    from difflink.store import LinkRecord

    links = np.asarray([link], dtype=np.int64).reshape(1, 3)
    pooled, _, blocks = _link_records(graph, links, config, seed, None)
    u, v, label = links[0].tolist()
    return LinkRecord(u, v, label, pooled, blocks)


def to_nx(graph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(graph.num_nodes))
    g.add_edges_from(map(tuple, graph.edge_array()))
    return g


def hop_nodes(g: nx.Graph, u: int, v: int, h: int) -> list:
    """Sorted node set of the h-hop neighborhood of {u, v}, link removed."""
    work = g.copy()
    if work.has_edge(u, v):
        work.remove_edge(u, v)
    keep = {u, v}
    for root in (u, v):
        lengths = nx.single_source_shortest_path_length(work, root, cutoff=h)
        keep.update(lengths)
    return sorted(keep)


def power_edges(g: nx.Graph, i: int) -> set:
    """Edge set of the i-th graph power (geodesic distance in [1, i])."""
    out = set()
    for src, lengths in nx.all_pairs_shortest_path_length(g, cutoff=i):
        for dst, dist in lengths.items():
            if 1 <= dist and src < dst:
                out.add((src, dst))
    return out


def induced_dense(g: nx.Graph, nodes: list, u: int, v: int) -> np.ndarray:
    """Dense adjacency of the induced subgraph with the (u, v) edge removed."""
    sub = g.subgraph(nodes).copy()
    if sub.has_edge(u, v):
        sub.remove_edge(u, v)
    idx = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    a = np.zeros((n, n))
    for x, y in sub.edges():
        a[idx[x], idx[y]] = 1.0
        a[idx[y], idx[x]] = 1.0
    return a


def drnl_from_dense(a: np.ndarray, iu: int, iv: int) -> np.ndarray:
    """Double-radius labels on a dense subgraph adjacency."""
    g = nx.from_numpy_array(a)
    n = a.shape[0]

    def masked_dist(src, blocked):
        work = g.copy()
        work.remove_node(blocked)
        if src not in work:
            return {}
        return nx.single_source_shortest_path_length(work, src)

    du = masked_dist(iu, iv)
    dv = masked_dist(iv, iu)
    labels = np.zeros(n, dtype=np.int64)
    for x in range(n):
        if x in (iu, iv):
            labels[x] = 1
            continue
        if x not in du or x not in dv:
            continue
        a_, b_ = du[x], dv[x]
        s = a_ + b_
        labels[x] = 1 + min(a_, b_) + (s // 2) * ((s // 2) + (s % 2) - 1)
    return labels


def onehot_features(labels: np.ndarray, label_dim: int,
                    raw: np.ndarray) -> np.ndarray:
    n = labels.shape[0]
    out = np.zeros((n, label_dim + raw.shape[1]))
    for i, lab in enumerate(labels):
        out[i, int(lab)] = 1.0
    out[:, label_dim:] = raw
    return out


def normalized_dense(a: np.ndarray) -> np.ndarray:
    at = a + np.eye(a.shape[0])
    d = at.sum(axis=1)
    dinv = np.diag(1.0 / np.sqrt(d))
    return dinv @ at @ dinv


def dense_record_blocks(graph, link, config, node_sets=None) -> np.ndarray:
    """Brute-force record blocks: dense matrix powers on dense subgraphs.

    ``node_sets`` optionally fixes the subgraph node sets (needed for the
    randomized walk variant, where only the sampled set is taken from the
    implementation; everything downstream is recomputed densely here).
    Returns an array shaped like LinkRecord.blocks.
    """
    u, v, _ = link
    g = to_nx(graph)
    variant = config.variant.value
    r1 = config.r + 1
    label_dim = config.label_dim()
    raw_all = (graph.features.toarray() if graph.features is not None
               else np.ones((graph.num_nodes, 1)))

    pooled = [u, v]
    if config.pooling.value == "CCN":
        cn = sorted(set(g.neighbors(u)) & set(g.neighbors(v)))
        cn.sort(key=lambda x: (-g.degree(x), x))
        pooled += cn[:config.ccn_cap]

    def block_rows(nodes, a_sub, power):
        idx = {node: i for i, node in enumerate(nodes)}
        iu, iv = idx[u], idx[v]
        if config.labeling.value == "drnl":
            labels = drnl_from_dense(a_sub, iu, iv)
            labels = np.minimum(labels, config.label_cap)
        else:
            labels = np.zeros(len(nodes), dtype=np.int64)
            labels[iu] = labels[iv] = 1
        x = onehot_features(labels, label_dim,
                            np.asarray(raw_all)[np.asarray(nodes)])
        base = normalized_dense(a_sub) if config.normalized else a_sub
        z = np.linalg.matrix_power(base, power) @ x if power else x
        rows = np.zeros((len(pooled), z.shape[1]))
        for j, node in enumerate(pooled):
            if node in idx:
                rows[j] = z[idx[node]]
        return rows

    blocks = []
    if variant == "SoP":
        for i in range(r1):
            if i <= 1:
                gi = g
            else:
                gi = nx.Graph()
                gi.add_nodes_from(range(graph.num_nodes))
                gi.add_edges_from(power_edges(g, i))
            nodes = hop_nodes(gi, u, v, config.h)
            a_sub = induced_dense(gi, nodes, u, v)
            blocks.append(block_rows(nodes, a_sub, min(i, 1)))
    else:
        if node_sets is not None:
            nodes = sorted(node_sets)
        else:
            nodes = hop_nodes(g, u, v, config.h)
        a_sub = induced_dense(g, nodes, u, v)
        for i in range(r1):
            blocks.append(block_rows(nodes, a_sub, i))
    return np.stack(blocks)


def auc_pairwise(pos, neg) -> float:
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def hits_count(pos, neg, k: int) -> float:
    kth = sorted(neg, reverse=True)[k - 1]
    return sum(1 for p in pos if p > kth) / len(pos)


def mrr_direct(entries) -> float:
    total = 0.0
    for p, negs in entries:
        rank = 1 + sum(1 for q in negs if q >= p)
        total += 1.0 / rank
    return total / len(entries)


def ppr_solve(graph, src: int, alpha: float = 0.15) -> np.ndarray:
    """Personalized PageRank by dense linear solve, dangling mass to source."""
    n = graph.num_nodes
    a = np.zeros((n, n))
    for x, y in graph.edge_array():
        a[x, y] = a[y, x] = 1.0
    p = np.zeros((n, n))
    for x in range(n):
        deg = a[x].sum()
        if deg > 0:
            p[x] = a[x] / deg
        else:
            p[x, src] = 1.0
    e = np.zeros(n)
    e[src] = 1.0
    return np.linalg.solve(np.eye(n) - (1 - alpha) * p.T, alpha * e)


def _batch_order_words(rec) -> list:
    """A record's float32 values as little-endian 4-byte words, in a batch
    row's order: pooled node, then operator, then column."""
    r1, p, w = rec.blocks.shape
    return [struct.pack("<f", rec.blocks[op, node, col])
            for node in range(p) for op in range(r1) for col in range(w)]


def sparse_chunk(records) -> bool:
    """Whether a chunk of ``records`` is stored sparse: its nonzero words
    (any bits but +0.0's), at 8 bytes each, take at most a quarter of its
    4 bytes a value."""
    words = [word for rec in records for word in _batch_order_words(rec)]
    nonzero = sum(word != bytes(4) for word in words)
    return 8 * nonzero <= len(words)


def serialize_reference(rec, sparse: bool | None = None) -> bytes:
    """One record's bytes in the file layout, packed field by field: header
    (u u32, v u32, label u8, p u16, r+1 u16, w u32, nnz u32), ids, then its
    values in batch-row order, dense (nnz 0xFFFFFFFF) or as the positions
    and words of the nonzero ones. ``sparse`` picks the form; by default
    the record decides as a chunk of one (``sparse_chunk``)."""
    r1, p, w = rec.blocks.shape
    if sparse is None:
        sparse = sparse_chunk([rec])
    words = _batch_order_words(rec)
    kept = [(i, word) for i, word in enumerate(words) if word != bytes(4)]
    nnz = len(kept) if sparse else 0xFFFFFFFF
    head = struct.pack("<IIBHHII", rec.u, rec.v, rec.label, p, r1, w, nnz)
    ids = b"".join(struct.pack("<I", int(i)) for i in rec.pooled_ids)
    if not sparse:
        return head + ids + b"".join(words)
    return (head + ids + b"".join(struct.pack("<I", i) for i, _ in kept)
            + b"".join(word for _, word in kept))


def scalar_forward(record, params, agg: str = "mean") -> float:
    """Plain-python forward pass: loops and math.exp, no numpy broadcasting."""
    r1, p, w = record.blocks.shape
    d_prime = params.W.shape[1]
    h_rows = []
    for node in range(p):
        zrow = []
        for op in range(r1):
            zrow.extend(float(x) for x in record.blocks[op, node])
        h = []
        for j in range(d_prime):
            acc = 0.0
            for i, zi in enumerate(zrow):
                acc += zi * float(params.W[i, j])
            h.append(max(acc, 0.0))
        h_rows.append(h)
    q = [h_rows[0][j] * h_rows[1][j] for j in range(d_prime)]
    if params.hidden_w.shape[0] == 2 * d_prime:
        cn_rows = h_rows[2:]
        if not cn_rows:
            q = q + [0.0] * d_prime
        elif agg == "mean":
            q = q + [sum(row[j] for row in cn_rows) / len(cn_rows)
                     for j in range(d_prime)]
        elif agg == "sum":
            q = q + [sum(row[j] for row in cn_rows) for j in range(d_prime)]
        else:
            q = q + [max(row[j] for row in cn_rows) for j in range(d_prime)]
    hid = []
    for j in range(d_prime):
        acc = float(params.hidden_b[j])
        for i, qi in enumerate(q):
            acc += qi * float(params.hidden_w[i, j])
        hid.append(max(acc, 0.0))
    logit = float(params.out_b)
    for j in range(d_prime):
        logit += hid[j] * float(params.out_w[j])
    return 1.0 / (1.0 + math.exp(-logit))


def adam_reference(params: dict, m: dict, v: dict, grads: dict, t: int,
                   lr: float, beta1: float, beta2: float, eps: float):
    """One whole-array Adam step in the textbook form; returns new
    (params, m, v) dicts and leaves its inputs untouched."""
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    new_p, new_m, new_v = {}, {}, {}
    for k, g in grads.items():
        new_m[k] = beta1 * m[k] + (1.0 - beta1) * g
        new_v[k] = beta2 * v[k] + (1.0 - beta2) * g * g
        update = lr * (new_m[k] / bc1) / (np.sqrt(new_v[k] / bc2) + eps)
        new_p[k] = params[k] - update.astype(params[k].dtype)
    return new_p, new_m, new_v


def init_params_reference(rng, in_dim: int, d_prime: int, ccn: bool,
                          dtype=np.float32) -> dict:
    """Glorot-uniform weights drawn as one whole float64 array each (W,
    hidden_w, out_w in turn) and cast to ``dtype``; zero biases."""
    def glorot(fan_in, fan_out):
        lim = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-lim, lim, size=(fan_in, fan_out)).astype(dtype)

    return {"W": glorot(in_dim, d_prime),
            "hidden_w": glorot(2 * d_prime if ccn else d_prime, d_prime),
            "hidden_b": np.zeros(d_prime, dtype=dtype),
            "out_w": glorot(d_prime, 1)[:, 0],
            "out_b": np.zeros((), dtype=dtype)}


def stack_reference(records, dtype=np.float32):
    """Model inputs (z, mask, labels) of a LinkRecord list, one record at
    a time: rows padded to the largest pooled count, each pooled node's
    blocks concatenated operator-major."""
    p_max = max(rec.pooled_count for rec in records)
    r1, _, w = records[0].blocks.shape
    z = np.zeros((len(records), p_max, r1 * w), dtype=dtype)
    mask = np.zeros((len(records), p_max), dtype=bool)
    labels = np.zeros(len(records), dtype=dtype)
    for i, rec in enumerate(records):
        p = rec.pooled_count
        z[i, :p] = rec.blocks.transpose(1, 0, 2).reshape(p, r1 * w)
        mask[i, :p] = True
        labels[i] = rec.label
    return z, mask, labels


def pack_batch(batch):
    """A padded (z, mask, labels) batch in the packed layout
    ``RecordFile.batch`` returns: only the real rows, ``z[mask]``."""
    z, mask, labels = batch
    return z[mask], mask, labels


def pad_batch(batch):
    """A packed (rows, mask, labels) batch padded back to (z, mask, labels):
    z is (B, p_max, width), zero past each record's pooled count."""
    rows, mask, labels = batch
    z = np.zeros(mask.shape + rows.shape[1:], dtype=rows.dtype)
    z[mask] = rows
    return z, mask, labels


def forward_reference(z, mask, params, dropout_mask, agg: str):
    """The head's forward pass over a padded batch, every padded row
    included: (logit, cache for ``backward_reference``)."""
    ccn = params.hidden_w.shape[0] == 2 * params.W.shape[1]
    b, p, width = z.shape
    h = np.maximum(z.reshape(b * p, width) @ params.W, 0.0).reshape(b, p, -1)
    qc = h[:, 0] * h[:, 1]
    cn_idx = cnt = None
    if ccn:
        hn = h[:, 2:]
        if hn.shape[1] == 0:
            qn = np.zeros_like(qc)
            cnt = np.zeros(b, dtype=z.dtype)
        else:
            cnt = mask[:, 2:].sum(axis=1).astype(z.dtype)
            if agg == "mean":
                qn = hn.sum(axis=1) / np.maximum(cnt, 1.0)[:, None]
            elif agg == "sum":
                qn = hn.sum(axis=1)
            else:
                qn = hn.max(axis=1)
                cn_idx = hn.argmax(axis=1)
        q = np.concatenate([qc, qn], axis=1)
    else:
        q = qc
    hid = np.maximum(q @ params.hidden_w + params.hidden_b, 0.0)
    hid_d = hid if dropout_mask is None else hid * dropout_mask
    logit = hid_d @ params.out_w + params.out_b
    cache = {"z": z, "mask": mask, "h": h, "q": q, "hid": hid, "hid_d": hid_d,
             "dropout_mask": dropout_mask, "cnt": cnt, "cn_idx": cn_idx,
             "agg": agg, "ccn": ccn}
    return logit, cache


def backward_reference(dlogit, cache, params, grads) -> None:
    """Exact gradients of a padded batch written into ``grads``; dW sums
    over every padded row."""
    z, mask, h = cache["z"], cache["mask"], cache["h"]
    d_prime = params.W.shape[1]
    dhid = dlogit[:, None] * params.out_w[None, :]
    if cache["dropout_mask"] is not None:
        dhid = dhid * cache["dropout_mask"]
    dhid_pre = dhid * (cache["hid"] > 0)
    dq = dhid_pre @ params.hidden_w.T
    dh = np.zeros_like(h)
    dqc = dq[:, :d_prime]
    dh[:, 0] = dqc * h[:, 1]
    dh[:, 1] = dqc * h[:, 0]
    if cache["ccn"] and h.shape[1] > 2:
        dqn = dq[:, d_prime:]
        if cache["agg"] == "mean":
            share = dqn / np.maximum(cache["cnt"], 1.0)[:, None]
            dh[:, 2:] += share[:, None, :] * mask[:, 2:, None]
        elif cache["agg"] == "sum":
            dh[:, 2:] += dqn[:, None, :] * mask[:, 2:, None]
        else:
            b_idx = np.arange(z.shape[0])[:, None]
            f_idx = np.arange(d_prime)[None, :]
            dh[b_idx, 2 + cache["cn_idx"], f_idx] += dqn
    dh_pre = dh * (h > 0)
    bp = z.shape[0] * z.shape[1]
    np.matmul(z.reshape(bp, -1).T, dh_pre.reshape(bp, d_prime), out=grads.W)
    np.matmul(cache["q"].T, dhid_pre, out=grads.hidden_w)
    grads.hidden_b[...] = dhid_pre.sum(axis=0)
    np.matmul(cache["hid_d"].T, dlogit, out=grads.out_w)
    grads.out_b[...] = dlogit.sum()


def _sigmoid_reference(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def predict_reference(records, params, agg: str = "mean", batch_size: int = 256):
    """``model.predict`` on a LinkRecord list through padded batches."""
    return np.concatenate([
        _sigmoid_reference(forward_reference(
            *stack_reference(records[i:i + batch_size])[:2], params, None,
            agg)[0].astype(np.float64))
        for i in range(0, len(records), batch_size)])


def train_reference(train_records, valid_records, config, predict_batch=256):
    """``model.train`` on LinkRecord lists with padded batches
    (``stack_reference``) through the padded forward and backward passes:
    (params of the best validation epoch, history)."""
    from difflink import Adam, init_params
    from difflink.metrics import ScoredPairs, auc
    from difflink.model import _flat, _flat_params

    rng = np.random.default_rng(config.seed)
    first = train_records[0]
    params = init_params(rng, first.num_operators * first.block_width,
                         config.d_prime, config.pooling)
    opt = Adam(params, config.lr, config.beta1, config.beta2, config.eps)
    grads = _flat_params(params.tensors(), copy=False)
    n = len(train_records)
    labels = np.array([rec.label for rec in valid_records])
    best_auc, best, history = -1.0, None, []
    for epoch in range(1, config.epochs + 1):
        perm = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            index = perm[start:start + config.batch_size]
            z, mask, y = stack_reference([train_records[i] for i in index])
            dmask = None
            if config.dropout > 0.0:
                dmask = ((rng.random((z.shape[0], config.d_prime)) >= config.dropout)
                         .astype(np.float32) / (1.0 - config.dropout)).astype(np.float32)
            logit, cache = forward_reference(z, mask, params, dmask, config.agg)
            loss = float(np.mean(np.logaddexp(0.0, logit) - y * logit))
            backward_reference((_sigmoid_reference(logit) - y) / z.shape[0], cache,
                               params, grads)
            opt.step(params, grads)
            total += loss * index.shape[0]
        scores = predict_reference(valid_records, params, config.agg, predict_batch)
        val_auc = auc(ScoredPairs(scores[labels == 1], scores[labels == 0]))
        history.append({"epoch": epoch, "train_loss": total / n, "valid_auc": val_auc})
        if val_auc > best_auc:
            best_auc, best = val_auc, params.copy()
    assert _flat(best) is not None
    return best, history


def seal_bytes(g: nx.Graph, links, h: int, w: int) -> int:
    """SEAL-style storage of each link's h-hop subgraph: two u32 ids per
    edge, the (u, v) edge left out, plus w float32 values per node."""
    total = 0
    for u, v in links:
        nodes = hop_nodes(g, u, v, h)
        edges = g.subgraph(nodes).number_of_edges() - int(g.has_edge(u, v))
        total += edges * 2 * 4 + len(nodes) * w * 4
    return total


def build_graph_reference(num_nodes: int, edges) -> tuple:
    """``(indptr, indices)`` of ``build_graph(num_nodes, edges)``: hash-based
    ``np.unique`` of the pair keys, then a ``np.lexsort`` of both
    orientations by (src, dst)."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if e.size:
        lo = np.minimum(e[:, 0], e[:, 1])
        hi = np.maximum(e[:, 0], e[:, 1])
        keep = lo != hi
        lo, hi = lo[keep], hi[keep]
        enc = np.unique(lo * num_nodes + hi)
        lo, hi = enc // num_nodes, enc % num_nodes
    else:
        lo = hi = np.zeros(0, dtype=np.int64)
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_nodes), out=indptr[1:])
    return indptr, dst.astype(np.int32)


def _encode_pairs(pairs: np.ndarray, n: int) -> np.ndarray:
    lo = np.minimum(pairs[:, 0], pairs[:, 1]).astype(np.int64)
    hi = np.maximum(pairs[:, 0], pairs[:, 1]).astype(np.int64)
    return lo * n + hi


def sample_negatives_reference(graph, count: int, seed: int,
                               exclude=None) -> np.ndarray:
    """``sample_negatives``: a Python set of the forbidden pair keys, then
    batches of ``max(1024, 2 * remaining)`` draws deduplicated one
    candidate at a time; dense enumeration when the graph is near-complete."""
    n = graph.num_nodes
    total_pairs = n * (n - 1) // 2
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    dst = graph.indices.astype(np.int64)
    forbidden = set(_encode_pairs(np.stack([src, dst], axis=1)[src < dst],
                                  n).tolist())
    if exclude is not None:
        ex = np.asarray(exclude, dtype=np.int64).reshape(-1, 2)
        if ex.size:
            ex = ex[ex[:, 0] != ex[:, 1]]
            forbidden.update(_encode_pairs(ex, n).tolist())
    available = total_pairs - len(forbidden)
    if count > available:
        raise ValueError(
            f"requested {count} negatives but only {available} non-edges available")
    if count == 0:
        return np.zeros((0, 2), dtype=np.int64)
    rng = np.random.default_rng(seed)
    forbidden_sorted = np.fromiter(forbidden, dtype=np.int64, count=len(forbidden))
    forbidden_sorted.sort()

    if count > available // 2 and total_pairs <= 20_000_000:
        iu, ju = np.triu_indices(n, k=1)
        enc = iu.astype(np.int64) * n + ju
        mask = np.ones(enc.shape[0], dtype=bool)
        pos = np.searchsorted(enc, forbidden_sorted)
        mask[pos] = False
        cands = enc[mask]
        chosen = rng.choice(cands, size=count, replace=False)
        return np.stack([chosen // n, chosen % n], axis=1)

    out = []
    seen = set()
    while len(out) < count:
        batch = max(1024, 2 * (count - len(out)))
        u = rng.integers(0, n, size=batch)
        v = rng.integers(0, n, size=batch)
        ok = u != v
        u, v = u[ok], v[ok]
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        enc = lo * n + hi
        if forbidden_sorted.size:
            idx = np.minimum(np.searchsorted(forbidden_sorted, enc),
                             forbidden_sorted.shape[0] - 1)
            is_edge = forbidden_sorted[idx] == enc
        else:
            is_edge = np.zeros(enc.shape[0], dtype=bool)
        for e in enc[~is_edge]:
            e = int(e)
            if e in seen:
                continue
            seen.add(e)
            out.append(e)
            if len(out) == count:
                break
    out = np.asarray(out, dtype=np.int64)
    return np.stack([out // n, out % n], axis=1)


def random_graph_reference(n: int, m: int, seed: int = 0) -> tuple:
    """``(indptr, indices)`` of ``datasets.random_graph(n, m, seed)``:
    batches of ``2 * remaining + 16`` draws, kept one candidate at a time
    unless a Python set already holds its pair."""
    rng = np.random.default_rng(seed)
    chosen = set()
    out = []
    while len(out) < m:
        u = rng.integers(0, n, size=2 * (m - len(out)) + 16)
        v = rng.integers(0, n, size=u.shape[0])
        for a, b in zip(u, v):
            if a == b:
                continue
            key = (min(a, b) * n + max(a, b))
            if key in chosen:
                continue
            chosen.add(key)
            out.append((int(min(a, b)), int(max(a, b))))
            if len(out) == m:
                break
    return build_graph_reference(n, np.asarray(out, dtype=np.int64))


def split_reference(graph, ratios=(0.85, 0.05, 0.10), seed: int = 0) -> dict:
    """``split_edges``' six arrays, and the observed graph's ``indptr`` and
    ``indices``, from the reference ``build_graph`` and sampler above."""
    src = np.repeat(np.arange(graph.num_nodes, dtype=np.int64),
                    np.diff(graph.indptr))
    dst = graph.indices.astype(np.int64)
    edges = np.stack([src, dst], axis=1)[src < dst]
    m = edges.shape[0]
    n_valid, n_test = int(ratios[1] * m), int(ratios[2] * m)
    n_train = m - n_valid - n_test
    perm = np.random.default_rng(seed).permutation(m)
    out = {"train_pos": edges[perm[:n_train]],
           "valid_pos": edges[perm[n_train:n_train + n_valid]],
           "test_pos": edges[perm[n_train + n_valid:]]}
    out["indptr"], out["indices"] = build_graph_reference(graph.num_nodes,
                                                          out["train_pos"])
    s0, s1, s2 = (int(x) for x in np.random.SeedSequence(seed).generate_state(3))
    out["train_neg"] = sample_negatives_reference(graph, n_train, s0)
    out["valid_neg"] = sample_negatives_reference(graph, n_valid, s1,
                                                  exclude=out["train_neg"])
    out["test_neg"] = sample_negatives_reference(
        graph, n_test, s2, exclude=np.concatenate([out["train_neg"],
                                                   out["valid_neg"]]))
    return out
