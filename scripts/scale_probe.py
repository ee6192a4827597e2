"""Measure how precompute speed holds up as the graph grows, as one JSON object.

For each graph family (uniform random "er" and preferential-attachment
"preferential", mean degree about 10) at each size, the probe builds
records for the same number of seeded links (half edges of the graph, half
sampled non-edges) with each configuration, and reports records per second
and the peak RSS of the process that ran it. rec/s is the median over
timed repeats that follow one untimed first run, whose seconds are
reported apart: it also pays for what a graph builds once. Each graph is
generated in a forked child and each configuration runs in a child of
that one, so a peak RSS counts the interpreter, its own graph and its own
work, and nothing from another graph or configuration. Every row also
gives its graph's ``generate_s``, ``split_s`` (``split_edges`` with seed 0)
and ``graph_peak_rss_mb``, the peak RSS of generating and splitting it.
``ratio`` is rec/s at the largest size over rec/s at the smallest, per
family and configuration: 1.0 means the cost of a link does not depend on
the size of the graph around it.

    PYTHONPATH=src python scripts/scale_probe.py --out scale.json

The defaults (n = 10k, 50k and 200k, 1280 links, 3 timed repeats) take a
few minutes. On a 1M-edge graph, generating and splitting take about a
second each for "er"; the sequential preferential generator takes several.
"""
import argparse
import json
import multiprocessing as mp
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import difflink as dl  # noqa: E402

SIZES = (10_000, 50_000, 200_000)
LINKS = 1280
REPEATS = 3
MEAN_DEGREE = 10
FAMILIES = ("er", "preferential")
CONFIGS = {
    "PoS h=1": {"variant": "PoS", "h": 1},
    "PoS h=2": {"variant": "PoS", "h": 2},
    "PoSPlus h=1": {"variant": "PoSPlus", "h": 1},
    "PoSScaLed k=20 l=3": {"variant": "PoSScaLed", "k": 20, "l": 3},
    "SoP h=1": {"variant": "SoP", "h": 1},
}


def make_graph(family: str, n: int, seed: int = 0) -> dl.Graph:
    if family == "er":
        return dl.datasets.random_graph(n, n * MEAN_DEGREE // 2, seed=seed)
    if family == "preferential":
        return dl.datasets.preferential_graph(n, MEAN_DEGREE // 2, seed=seed)
    raise ValueError(f"unknown graph family {family!r}")


def seeded_links(graph: dl.Graph, count: int, seed: int = 0) -> np.ndarray:
    """``count // 2`` edges of ``graph`` labeled 1, the rest non-edges labeled 0."""
    rng = np.random.default_rng(seed)
    edges = graph.edge_array()
    pos = edges[np.sort(rng.choice(edges.shape[0], count // 2, replace=False))]
    neg = dl.sample_negatives(graph, count - count // 2, seed)
    return np.concatenate([
        np.column_stack([pos, np.ones(pos.shape[0], dtype=np.int64)]),
        np.column_stack([neg, np.zeros(neg.shape[0], dtype=np.int64)])])


def _timed(graph, links, config, repeats) -> tuple:
    """Seconds of a first precompute, the median seconds of ``repeats``
    more, and this process's peak RSS in MB."""
    seconds = []
    with tempfile.TemporaryDirectory(prefix="scale-probe-") as out_dir:
        for i in range(repeats + 1):
            start = time.perf_counter()
            dl.precompute_dataset(graph, links, config, Path(out_dir) / f"{i}.rec")
            seconds.append(time.perf_counter() - start)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return seconds[0], float(np.median(seconds[1:])), peak_mb


def _send_result(send, fn, args):
    send.send(fn(*args))
    send.close()


def in_child(fn, *args):
    """``fn(*args)`` run in a forked child process, which sees the caller's
    objects without a copy and whose peak RSS starts at the caller's."""
    # fork, not spawn: the child shares the generated graph instead of
    # unpickling a copy, and the probe starts no threads of its own.
    ctx = mp.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_result, args=(send, fn, args))
    child.start()
    send.close()
    try:
        return recv.recv()
    except EOFError:
        raise RuntimeError(f"{fn.__name__} failed in its child process") from None
    finally:
        child.join()


def _graph_rows(family, n, links, repeats) -> list:
    """Rows of every configuration on one generated graph. Each runs in a
    child of its own, so its peak RSS holds this graph and no other. The
    graph is then split here, after the configurations, so that their
    peaks do not hold the split's."""
    start = time.perf_counter()
    graph = make_graph(family, n)
    generate_s = time.perf_counter() - start
    sample = seeded_links(graph, links)
    rows = []
    for name, operators in CONFIGS.items():
        config = dl.SamplingOperatorSet(r=3, **operators)
        first_s, seconds, peak_mb = in_child(_timed, graph, sample, config, repeats)
        rows.append({"family": family, "n": n, "edges": graph.num_edges,
                     "config": name, "links": int(sample.shape[0]),
                     "rec_per_s": round(sample.shape[0] / seconds, 1),
                     "first_run_s": round(first_s, 4),
                     "peak_rss_mb": round(peak_mb, 1),
                     "generate_s": round(generate_s, 2)})
    start = time.perf_counter()
    dl.split_edges(graph, seed=0)
    split_s = time.perf_counter() - start
    graph_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for row in rows:
        row.update(split_s=round(split_s, 4),
                   graph_peak_rss_mb=round(graph_peak_mb, 1))
    return rows


def probe(sizes=SIZES, links: int = LINKS, repeats: int = REPEATS) -> dict:
    rows = [row for family in FAMILIES for n in sizes
            for row in in_child(_graph_rows, family, n, links, repeats)]
    ratio = {}
    for family in FAMILIES:
        for name in CONFIGS:
            rate = {r["n"]: r["rec_per_s"] for r in rows
                    if r["family"] == family and r["config"] == name}
            ratio[f"{family}/{name}"] = round(rate[max(sizes)] / rate[min(sizes)], 3)
    return {"sizes": list(sizes), "links": links, "repeats": repeats,
            "mean_degree": MEAN_DEGREE, "rows": rows,
            f"ratio_{max(sizes)}_over_{min(sizes)}": ratio}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    parser.add_argument("--links", type=int, default=LINKS)
    parser.add_argument("--repeats", type=int, default=REPEATS)
    parser.add_argument("--out", type=Path, default=None,
                        help="write the JSON here instead of stdout")
    args = parser.parse_args(argv)
    if args.links < 2 or args.repeats < 1:
        parser.error("--links must be >= 2 and --repeats >= 1")
    result = probe(args.sizes, args.links, args.repeats)
    text = json.dumps(result, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
