"""
Training the pooled head end to end
===================================

Split a graph, precompute records for every part, fit the shallow head,
and score the held-out links. Everything downstream of the record files
is a few dense matrix products.
"""
import tempfile
from pathlib import Path

from difflink import (RecordFile, SamplingOperatorSet, ScoredPairs, TrainConfig,
                      auc, hits_at_k, predict, split_edges, train)
from difflink.bench import precompute_split
from difflink.datasets import preferential_graph

graph = preferential_graph(300, attach=3, seed=5)
print(f"graph: {graph.num_nodes} nodes, {graph.edge_array().shape[0]} edges")

split = split_edges(graph, (0.8, 0.1, 0.1), seed=0)
config = SamplingOperatorSet(variant="PoSPlus", r=2, h=2, labeling="drnl")

with tempfile.TemporaryDirectory() as tmp:
    stats = precompute_split(split, config, tmp, seed=0)
    for part, st in stats.items():
        print(f"{part}: {st.record_count} records in {st.wall_time_s:.2f}s")

    # small head, few epochs; dropout and shuffling come from the one seed
    tc = TrainConfig(d_prime=32, dropout=0.3, epochs=8, batch_size=32,
                     lr=0.005, seed=0, pooling=config.pooling)
    params, history = train(Path(tmp) / "train.rec", Path(tmp) / "valid.rec",
                            tc)
    for hrec in history:
        print(f"epoch {hrec['epoch']}: loss {hrec['train_loss']:.4f} "
              f"valid AUC {hrec['valid_auc']:.3f}")

    with RecordFile(Path(tmp) / "test.rec") as test:
        scores = predict(test, params, agg=tc.agg)
        labels = test.labels
    sc = ScoredPairs(scores[labels == 1], scores[labels == 0])
    print(f"\ntest AUC {auc(sc):.3f}, hits@10 {hits_at_k(sc, 10):.3f}")
