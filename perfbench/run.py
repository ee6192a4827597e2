#!/usr/bin/env python3
"""difflink benchmark: run one workload for a fixed time, check, report.

    python3 perfbench/run.py --workload ns_pos --seed 0 --seconds 20 --trace 0

Runs from the root of a difflink checkout and imports the package from
``src/``. The workload repeats its pipeline (closed loop, one process,
workers=1) until ``--seconds`` have passed, checks every iteration's
outputs, and prints as its last stdout line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A full report and, when traced, every span go to ``.perfbench/results/``.
"""
import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("ns_pos", "cora_plus")
SETUP_REPEATS = 3     # traced in-process set-ups, for the per-layer medians
SETUP_PROCESSES = 5   # fewest fresh processes timed for setup_s

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}


def cap_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not (cur.isdigit() and 1 <= int(cur) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs and exit (times set-up in a fresh process)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def run_facts(nproc: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "platform": platform.platform()}


def time_setup(args) -> float:
    """Wall seconds from process start to inputs ready, in a fresh process:
    interpreter start, imports, graph, split and link subsamples."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-only"]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, cwd=ROOT)
    return time.perf_counter() - t0


def median(values) -> float:
    return float(statistics.median(values))


def measure(args, w, inputs, tracer, gate, workroot):
    """Repeat the pipeline until ``args.seconds`` have passed.

    With a tracer, every second iteration runs traced, so untraced and
    traced pipeline times come from the same process. After each iteration
    one fresh set-up process is timed, so the set-up samples spread over
    the whole run like the pipelines do. Returns the iterations and the
    set-up times.
    """
    import checks
    from workloads import run_iteration

    iterations = []          # (run_id or None, Iteration)
    setups = []
    seed = args.seed
    min_iterations = 2 if tracer else 1
    deadline = time.perf_counter() + args.seconds
    previous = None
    i = 0
    while i < min_iterations or time.perf_counter() < deadline:
        traced = tracer is not None and i % 2 == 1
        run_id = f"it{i}" if traced else None
        workdir = workroot / f"it{i}"
        workdir.mkdir()
        planned = (sum(len(x) for x in inputs.links.values())
                   + len(inputs.links["test"]))
        with gate.guard(planned, f"iteration {i}"):
            if traced:
                with tracer.installed(run_id):
                    it = run_iteration(w, inputs, seed, workdir,
                                       lambda n: tracer.span("phase." + n))
            else:
                it = run_iteration(w, inputs, seed, workdir,
                                   lambda n: nullcontext())
            checks.check_model_iteration(gate, inputs, it)
            iterations.append((run_id, it))
        if previous is not None:
            shutil.rmtree(previous, ignore_errors=True)
        previous = workdir
        setups.append(time_setup(args))
        i += 1
    while len(setups) < SETUP_PROCESSES:
        setups.append(time_setup(args))
    return iterations, setups


def end_to_end(w, iterations, setup_s, peak_rss_mb) -> tuple[dict, dict]:
    """Gated metrics (every workload) and the per-workload detail table.

    Every timing is a throughput over the whole run: work done in the
    run's untraced iterations divided by the time they took. On a shared
    machine whose speed drifts for seconds to minutes, this varied less
    between runs than the median iteration did (see README.md).
    """
    its = [it for rid, it in iterations if rid is None]

    def seconds(phase):
        return sum(it.phases[phase] for it in its)

    def rate(count, phase):
        return sum(it.counts[count] for it in its) / seconds(phase)

    last = its[-1]
    detail = {
        "precompute_rec_per_s": (rate("records_built", "precompute"), "rec/s"),
        "train_s_per_epoch": (seconds("train") / (w.epochs * len(its)), "s"),
        "score_rec_per_s": (rate("records_read", "score"), "rec/s"),
        "test_auc": (last.outputs["test_auc"], "1"),
        "record_bytes_per_link": (last.counts["bytes_written"]
                                  / last.counts["records_built"], "B"),
    }
    if w.storage:
        detail["storage_links_per_s"] = (rate("storage_links", "storage"), "links/s")
    pipelines = [it.phases["pipeline"] for it in its]
    detail["pipeline_s_median"] = (median(pipelines), "s")
    detail["pipeline_s_max"] = (max(pipelines), "s")
    gated = {"setup_s": setup_s, "pipeline_s": seconds("pipeline") / len(its),
             "peak_rss_mb": peak_rss_mb}
    return gated, dict(sorted(detail.items()))


def main(argv=None) -> int:
    args = parse_args(argv)
    needed = [ROOT / "src" / "difflink" / "__init__.py", ROOT / "tests" / "oracles.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: run from a difflink checkout; missing {missing}",
              file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np
    import checks
    import layers
    from workloads import WORKLOADS, make_inputs, operator_set

    w = WORKLOADS[args.workload]
    if args.setup_only:
        make_inputs(w, args.seed)
        return 0
    tracer = layers.make_tracer() if args.trace else None
    setup_ids = []
    for k in range(SETUP_REPEATS if tracer else 1):
        run_id = f"setup{k}"
        with tracer.installed(run_id) if tracer else nullcontext():
            inputs = make_inputs(w, args.seed)
        setup_ids.append(run_id)

    gate = checks.Gate()
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    workroot = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=OUT / "work"))
    try:
        iterations, setup_times = measure(args, w, inputs, tracer, gate, workroot)
        setup_s = median(setup_times)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if iterations:
            sys.path.insert(0, str(ROOT / "tests"))
            import oracles
            rng = np.random.default_rng([args.seed, 99])
            last = iterations[-1][1]
            with gate.guard(1, "oracle checks"):
                checks.check_model_oracles(gate, oracles, operator_set(w),
                                           inputs, last, rng)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)

    untraced = [it for rid, it in iterations if rid is None]
    traced_ids = [rid for rid, _ in iterations if rid is not None]
    report = {"workload": w.name, "why": w.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "facts": run_facts(nproc),
              "setup_process_s": setup_times,
              "samples": {"setup_processes": len(setup_times),
                          "traced_setups": len(setup_ids) if tracer else 0,
                          "untraced_iterations": len(untraced),
                          "traced_iterations": len(traced_ids)},
              "iterations": [{"traced": rid is not None, **it.phases}
                             for rid, it in iterations],
              "failed_share": gate.failed / max(gate.attempted, 1),
              "failures": gate.notes}
    metrics = {}
    if untraced:
        gated, detail = end_to_end(w, iterations, setup_s, peak_rss_mb)
        report["end_to_end"] = {k: {"value": v, "unit": END_TO_END[k]}
                                for k, v in gated.items()}
        report["detail"] = {k: {"value": v, "unit": u} for k, (v, u) in detail.items()}
        if not args.trace:
            metrics = report["end_to_end"]
    if tracer is not None and traced_ids and untraced:
        values = layers.layer_metrics(tracer, setup_ids, traced_ids,
                                      operator_set(w).ccn_cap)
        traced = [it.phases["pipeline"] for rid, it in iterations if rid]
        traced_pipe = sum(traced) / len(traced)
        values["trace.overhead_pct"] = 100.0 * (traced_pipe / gated["pipeline_s"] - 1.0)
        metrics = {k: {"value": values[k], "unit": u} for k, u in layers.PER_LAYER.items()}
        report["per_layer"] = metrics
        report["spans"] = layers.span_table(tracer, traced_ids)
        report["absent"] = tracer.absent

    (OUT / "results").mkdir(parents=True, exist_ok=True)
    stem = OUT / "results" / f"{w.name}-seed{args.seed}-trace{args.trace}"
    Path(f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    if tracer is not None:
        tracer.write(f"{stem}.spans.jsonl")

    print(f"# {w.name} seed={args.seed}: {w.why}")
    print(f"# facts {json.dumps(report['facts'])}")
    print(f"# samples {json.dumps(report['samples'])}")
    for section in ("end_to_end", "detail", "per_layer"):
        for name, m in report.get(section, {}).items():
            print(f"{section:10s} {name:36s} {m['value']:>16.6g} {m['unit']}")
    print(f"failed_share {report['failed_share']:.6g} "
          f"({gate.failed} of {gate.attempted} ops)")
    for note in gate.notes:
        print(f"# failure: {note}")
    print(json.dumps({"correct": gate.failed == 0 and bool(metrics),
                      "attempted": max(gate.attempted, 1), "failed": gate.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
