"""Peak resident memory after each phase of the benchmark pipelines, as JSON.

Each workload (perfbench's ``ns_pos`` and ``cora_plus``) runs in a fresh
spawned process: it builds the workload's inputs with seed 0, then runs
the pipeline ``--iterations`` times (3 by default). After the inputs and
after every phase of every iteration (precompute, storage, train, score,
evaluate) the process records its peak RSS so far (``ru_maxrss``), so the
first phase whose row rises is the one that set the peak. As in the benchmark, each iteration
ends with perfbench's output checks, which read every record file back
(the ``check`` row). The ``inputs`` row also gives ``features_mb``, the
bytes the observed graph's node features hold. BLAS threads are capped as
the benchmark caps them.

    PYTHONPATH=src python scripts/memory_probe.py --out memory.json

``--pairs`` shrinks every split part to that many positives and as many
negatives, for a quick smoke run; by default the workloads keep their own
sizes.
"""
import argparse
import dataclasses
import json
import multiprocessing as mp
import resource
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from run import WORKLOAD_NAMES, cap_blas_threads  # noqa: E402  (perfbench/run.py)

SEED = 0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def features_mb(graph) -> float:
    """MB held by ``graph``'s node features (0 when it has none)."""
    x = graph.features
    if x is None:
        return 0.0
    return (x.indptr.nbytes + x.indices.nbytes + x.data.nbytes) / 2**20


def probe(name: str, iterations: int, pairs: int | None) -> list:
    """(phase, iteration, peak RSS in MB) rows of one workload, in order."""
    import checks
    from workloads import WORKLOADS as DEFINED, make_inputs, run_iteration

    w = DEFINED[name]
    if pairs is not None:
        w = dataclasses.replace(w, pairs=(pairs,) * len(w.pairs))
    rows = []
    inputs = make_inputs(w, SEED)
    rows.append({"phase": "inputs", "iteration": 0, "peak_rss_mb": peak_rss_mb(),
                 "features_mb": features_mb(inputs.split.observed_graph)})
    with tempfile.TemporaryDirectory(prefix=f"{name}-") as tmp:
        for i in range(iterations):

            @contextmanager
            def phase(label, i=i):
                yield
                rows.append({"phase": label, "iteration": i,
                             "peak_rss_mb": peak_rss_mb()})

            workdir = Path(tmp) / f"it{i}"
            workdir.mkdir()
            it = run_iteration(w, inputs, SEED, workdir, phase)
            with phase("check"):
                checks.check_model_iteration(checks.Gate(), inputs, it)
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--iterations", type=int, default=3)
    ap.add_argument("--pairs", type=int, default=None)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    if args.iterations < 1:
        ap.error("--iterations must be >= 1")
    if args.pairs is not None and args.pairs < 1:
        ap.error("--pairs must be >= 1")

    cap_blas_threads()
    result = {"seed": SEED, "iterations": args.iterations,
              "pairs": args.pairs, "workloads": {}}
    ctx = mp.get_context("spawn")
    for name in WORKLOAD_NAMES:
        # a new process per workload, so each peak is that workload's own
        with ctx.Pool(1) as pool:
            rows = pool.apply(probe, (name, args.iterations, args.pairs))
        result["workloads"][name] = rows
        for row in rows:
            extra = (f"  (features {row['features_mb']:.2f} MB)"
                     if "features_mb" in row else "")
            print(f"{name:10s} it{row['iteration']} {row['phase']:10s} "
                  f"{row['peak_rss_mb']:8.1f} MB{extra}")
    text = json.dumps(result, indent=1)
    if args.out is not None:
        args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
