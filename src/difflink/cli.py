"""Command-line entry points over the library pipeline.

Subcommands: split, precompute, train, eval, bench, heuristics, storage.
All take --config (a JSON experiment file) and --out; --seed N (run seed N
alone) and --workers go into the config before it is validated.
precompute/train/eval run the per-seed pipeline's stages in one --out
directory: precompute writes {train,valid,test}.rec there, train adds
model.ckpt and history.json, eval reads both and writes eval.json.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bench import (evaluate_run, operator_config, parse_config,
                    precompute_split, read_config, run_experiment,
                    storage_summary, timing_probe, train_run)
from .datasets import resolve_dataset
from .graphs import save_split, split_edges
from .model import load_params, save_params


def _config(args, mode=None):
    """The config file's JSON with the command-line overrides applied."""
    cfg = read_config(args.config)
    if isinstance(cfg, dict):
        runs = cfg.get("runs", {})
        if args.seed is not None and isinstance(runs, dict):
            cfg["runs"] = {**runs, "seeds": [args.seed]}
        if args.workers is not None:
            cfg["workers"] = args.workers
        if mode is not None:
            cfg["mode"] = mode
    return cfg


def _setup(args):
    spec = parse_config(_config(args))
    graph = resolve_dataset(spec.dataset)
    return spec, graph, operator_config(spec, graph), spec.seeds[0]


def _write_json(out, name, result) -> None:
    text = json.dumps(result, indent=2, sort_keys=True)
    if out:
        Path(out).mkdir(parents=True, exist_ok=True)
        (Path(out) / name).write_text(text + "\n")
    print(text)


def _cmd_split(args) -> int:
    spec, graph, _, seed = _setup(args)
    split = split_edges(graph, spec.ratios, seed)
    save_split(split, args.out)
    print(f"wrote split (seed {seed}) to {args.out}")
    return 0


def _cmd_precompute(args) -> int:
    spec, graph, config, seed = _setup(args)
    split = split_edges(graph, spec.ratios, seed)
    stats = precompute_split(split, config, args.out, workers=spec.workers,
                             seed=seed)
    for part, st in stats.items():
        print(f"{part}: {st.record_count} records, {st.total_bytes} bytes, "
              f"{st.records_per_sec:.1f} rec/s")
    return 0


def _cmd_train(args) -> int:
    spec, _, config, seed = _setup(args)
    out = Path(args.out)
    params, history = train_run(spec, config, seed, out)
    save_params(out / "model.ckpt", params,
                extra={"seed": seed, "sampling": config.echo()})
    (out / "history.json").write_text(json.dumps(history, indent=2) + "\n")
    best = max(history, key=lambda hrec: hrec["valid_auc"])
    print(f"trained {spec.training['epochs']} epochs; best valid AUC "
          f"{best['valid_auc']:.4f} at epoch {best['epoch']}")
    return 0


def _cmd_eval(args) -> int:
    spec, _, _, _ = _setup(args)
    params, _ = load_params(Path(args.out) / "model.ckpt")
    result, _ = evaluate_run(spec, params, args.out)
    _write_json(args.out, "eval.json", result)
    return 0


def _cmd_bench(args) -> int:
    if args.timing_probe:
        _write_json(args.out, "timing.json", timing_probe(_config(args)))
    else:
        print(run_experiment(_config(args), out_dir=args.out).text_table())
    return 0


def _cmd_heuristics(args) -> int:
    cfg = _config(args, mode="heuristics")
    print(run_experiment(cfg, out_dir=args.out).text_table())
    return 0


def _cmd_storage(args) -> int:
    spec, graph, config, seed = _setup(args)
    split = split_edges(graph, spec.ratios, seed)
    _write_json(args.out, "storage.json", storage_summary(split, config))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="difflink",
        description="Precomputed subgraph-diffusion link prediction pipeline")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text in (
            ("split", _cmd_split, "write a train/valid/test edge split"),
            ("precompute", _cmd_precompute, "build record files for one seed"),
            ("train", _cmd_train, "train on precomputed records"),
            ("eval", _cmd_eval, "score test records with a checkpoint"),
            ("bench", _cmd_bench, "full multi-seed experiment"),
            ("heuristics", _cmd_heuristics, "heuristic baselines only"),
            ("storage", _cmd_storage, "record vs subgraph storage comparison")):
        sp = subs.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="experiment JSON file")
        sp.add_argument("--seed", type=int, default=None,
                        help="run this seed only, in place of the config's")
        sp.add_argument("--workers", type=int, default=None)
        out = "run" if name in ("precompute", "train", "eval") else name
        sp.add_argument("--out", default=f"out/{out}")
        sp.set_defaults(func=func)
        if name == "bench":
            sp.add_argument("--timing-probe", action="store_true",
                            help="run the timing/independence probe instead")

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
