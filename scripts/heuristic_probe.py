"""Time the CN, AA and PPR heuristics on fixed test pairs and digest their scores.

For each dataset (synthetic stand-ins at graph seed 0), the edges are split
with seed 0 and the test pairs (positives, then negatives) are scored by each
heuristic on the observed graph through ``score_pairs``. Prints one JSON
object: per dataset the pair count and, per heuristic, the median wall time
over ``REPEATS`` runs and a sha256 digest of the float64 scores. Two
checkouts that score the same print the same digests:

    PYTHONPATH=src python scripts/heuristic_probe.py > after.json
    (cd ../other-checkout && PYTHONPATH=src python <this script>) > before.json

The script imports whichever ``difflink`` is on the path, so it can time an
older checkout that does not have it.
"""
import hashlib
import json
import time

import numpy as np

import difflink as dl

DATASETS = ("ns_like", "yeast_like")
METHODS = ("CN", "AA", "PPR")
REPEATS = 5


def probe(dataset: str, methods, repeats: int) -> dict:
    """Pair count, and median seconds and score digest per heuristic."""
    split = dl.split_edges(getattr(dl.datasets, dataset)(seed=0), seed=0)
    pairs = np.concatenate([split.test_pos, split.test_neg])
    out = {"pairs": int(pairs.shape[0])}
    for method in methods:
        times, digests = [], set()
        for _ in range(repeats):
            t0 = time.perf_counter()
            scores = dl.score_pairs(split.observed_graph, pairs, method)
            times.append(time.perf_counter() - t0)
            digests.add(hashlib.sha256(
                np.ascontiguousarray(scores, dtype=np.float64).tobytes()).hexdigest())
        if len(digests) != 1:
            raise RuntimeError(f"{dataset} {method}: scores differ across repeats")
        out[method] = {"seconds": round(float(np.median(times)), 4),
                       "sha256": digests.pop()}
    return out


def main() -> int:
    print(json.dumps({name: probe(name, METHODS, REPEATS) for name in DATASETS},
                     indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
