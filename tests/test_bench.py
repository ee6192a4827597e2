import json
import os

import numpy as np
import pytest

from difflink import (ConfigError, ExperimentReport, load_config,
                      operator_config, parse_config, run_experiment,
                      save_edge_list, split_edges, timing_probe)
from difflink.bench import labeled_links, precompute_split
from difflink.datasets import random_graph

from conftest import gnp_graph


def _toy_dataset_file(tmp_path, n=60, m=140, seed=0):
    g = random_graph(n, m, seed=seed)
    path = tmp_path / "edges.txt"
    save_edge_list(g, path)
    return path


def _toy_config(tmp_path, **overrides):
    cfg = {
        "dataset": {"name": "toy", "edge_list": str(_toy_dataset_file(tmp_path))},
        "split": {"ratios": [0.7, 0.1, 0.2]},
        "variant": "PoS",
        "sampling": {"r": 2, "h": 1},
        "training": {"d_prime": 8, "epochs": 3, "batch_size": 16,
                     "dropout": 0.25, "lr": 0.005},
        "eval": {"hits_k": [5], "mrr": True},
        "runs": {"seeds": [0, 1]},
    }
    cfg.update(overrides)
    return cfg


def test_parse_config_fills_defaults():
    spec = parse_config({"dataset": {"name": "cora_like"}})
    assert spec.variant == "PoS"
    assert spec.ratios == (0.85, 0.05, 0.10)
    assert spec.sampling["r"] == 3 and spec.sampling["h"] is None
    assert spec.training["d_prime"] == 256
    assert spec.training["dropout"] == 0.5
    assert spec.training["epochs"] == 50
    assert spec.training["batch_size"] == 32
    assert spec.training["lr"] == 1e-3
    assert spec.seeds == tuple(range(10))
    assert spec.mode == "full"
    assert spec.heuristics == ("CN", "AA", "PPR")
    assert spec.workers == 1 and spec.storage is True


def test_parse_config_takes_enum_values_in_any_case():
    spec = parse_config({"dataset": {"name": "x"}, "heuristics": ["cn", "Ppr"],
                         "sampling": {"labeling": "DRNL"}})
    assert spec.heuristics == ("CN", "PPR")
    assert spec.sampling["labeling"].value == "drnl"


@pytest.mark.parametrize("cfg,needle", [
    ({"dataset": {"name": "x"}, "nonsense": 1}, "unknown config keys"),
    ({}, "dataset.name"),
    ({"dataset": {"name": "x"}, "variant": "SEAL"}, "variant"),
    ({"dataset": {"name": "x"}, "split": {"ratios": [0.5, 0.5]}}, "split.ratios"),
    ({"dataset": {"name": "x"}, "sampling": {"r": "three"}}, "sampling.r"),
    ({"dataset": {"name": "x"}, "training": {"lr": "fast"}}, "training.lr"),
    ({"dataset": {"name": "x"}, "eval": {"hits_k": [0]}}, "eval.hits_k"),
    ({"dataset": {"name": "x"}, "runs": {"seeds": []}}, "runs.seeds"),
    ({"dataset": {"name": "x"}, "mode": "fast"}, "mode"),
    ({"dataset": {"name": "x"}, "heuristics": ["Katz"]}, "heuristics"),
    ({"dataset": {"name": "x"}, "workers": 0}, "workers"),
    ({"dataset": {"name": "x"}, "storage": "yes"}, "storage"),
    ({"dataset": {"name": "x"}, "sampling": {"r": 65535}}, "sampling.r"),
    ({"dataset": {"name": "x"}, "sampling": {"ccn_cap": 65534}},
     "sampling.ccn_cap"),
    ({"dataset": {"name": "x"}, "training": {"d_prime": 0}}, "training.d_prime"),
    ({"dataset": {"name": "x"}, "training": {"dropout": 1.0}}, "training.dropout"),
    ({"dataset": {"name": "x"}, "training": {"epochs": 0}}, "training.epochs"),
    ({"dataset": {"name": "x"}, "training": {"batch_size": 0}},
     "training.batch_size"),
    ({"dataset": {"name": "x"}, "training": {"lr": -0.1}}, "training.lr"),
    ({"dataset": {"name": "x"}, "training": {"agg": "median"}}, "training.agg"),
    ({"dataset": {"name": "x"}, "training": {"epoch": 5}}, r"training\.epoch: unknown"),
    ({"dataset": {"name": "x"}, "sampling": {"hh": 2}}, r"sampling\.hh: unknown"),
    ({"dataset": {"name": "x"}, "split": {"ratio": [0.8, 0.1, 0.1]}},
     r"split\.ratio: unknown"),
    ({"dataset": {"name": "x"}, "eval": {"hits": [10]}}, r"eval\.hits: unknown"),
    ({"dataset": {"name": "x"}, "runs": {"seed": [0]}}, r"runs\.seed: unknown"),
    ({"dataset": {"name": "x"}, "sampling": []}, "sampling: expected dict"),
    # the sampling section is checked by SamplingOperatorSet at parse time
    ({"dataset": {"name": "x"}, "variant": "PoSScaLed"}, r"^sampling\.k: "),
    ({"dataset": {"name": "x"}, "variant": "PoSScaLed", "sampling": {"k": 2}},
     r"^sampling\.l: "),
    ({"dataset": {"name": "x"}, "sampling": {"h": 0}}, r"^sampling\.h: "),
    ({"dataset": {"name": "x"}, "sampling": {"labeling": "foo"}},
     r"^sampling\.labeling: "),
    ({"dataset": {"name": "x"}, "sampling": {"label_cap": 0}},
     r"^sampling\.label_cap: "),
    ({"dataset": {"name": "x"}, "sampling": {"k": 2}}, r"^sampling\.k: "),
    ({"dataset": {"name": "x"}, "sampling": {"r": 0}}, r"^sampling\.r: "),
    ({"dataset": {"name": "x"}, "sampling": {"ccn_cap": -1}},
     r"^sampling\.ccn_cap: "),
    # JSON booleans are not numbers
    ({"dataset": {"name": "x"}, "sampling": {"h": True}}, r"^sampling\.h: "),
    ({"dataset": {"name": "x"}, "sampling": {"r": True}}, r"^sampling\.r: "),
    ({"dataset": {"name": "x"}, "training": {"epochs": True}},
     r"^training\.epochs: "),
    ({"dataset": {"name": "x"}, "training": {"dropout": True}},
     r"^training\.dropout: "),
    ({"dataset": {"name": "x"}, "training": {"lr": False}}, r"^training\.lr: "),
    ({"dataset": {"name": "x"}, "workers": True}, "^workers: "),
    ({"dataset": {"name": "x"}, "runs": {"seeds": [True]}}, r"^runs\.seeds: "),
    ({"dataset": {"name": "x"}, "eval": {"hits_k": [True]}}, r"^eval\.hits_k: "),
    # null stands for "unset" only in sampling.h, k and l
    ({"dataset": {"name": "x"}, "training": {"lr": None}}, r"^training\.lr: "),
    ({"dataset": {"name": "x"}, "training": {"dropout": None}},
     r"^training\.dropout: "),
    ({"dataset": {"name": "x"}, "sampling": {"normalized": None}},
     r"^sampling\.normalized: "),
    ({"dataset": {"name": "x"}, "eval": {"mrr": None}}, r"^eval\.mrr: "),
    # the dataset section is open, but a seed must be an integer
    ({"dataset": {"name": "x", "seed": 1.7}}, r"^dataset\.seed: "),
    ({"dataset": {"name": "x", "seed": True}}, r"^dataset\.seed: "),
    ({"dataset": {"name": "x", "seed": "x"}}, r"^dataset\.seed: "),
    ({"dataset": {"name": 5}}, r"^dataset\.name: "),
    ({"dataset": {"name": "x"}, "heuristics": 5}, "^heuristics: "),
    ({"dataset": {"name": "x"}, "heuristics": None}, "^heuristics: "),
    ({"dataset": {"name": "x"}, "runs": {"seeds": [-1]}}, r"^runs\.seeds: "),
    ({"dataset": {"name": "x"}, "split": {"ratios": [0.5, 0.5, 0.5]}},
     r"^split\.ratios: "),
    ({"dataset": {"name": "x"}, "split": {"ratios": [True, True, True]}},
     r"^split\.ratios: "),
    # SoP refuses degree-normalized rows
    ({"dataset": {"name": "x"}, "variant": "SoP", "sampling": {"normalized": True}},
     r"^sampling\.normalized: "),
])
def test_parse_config_names_offending_field(cfg, needle):
    with pytest.raises(ConfigError, match=needle):
        parse_config(cfg)


def test_parse_config_keeps_dataset_keys_open():
    # dataset keys depend on the dataset, so they are passed through as given
    spec = parse_config({"dataset": {"name": "x", "edge_list": "e.txt",
                                     "anything": 1}})
    assert spec.dataset == {"name": "x", "edge_list": "e.txt", "anything": 1}


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(path)
    path.write_text(json.dumps({"dataset": {"name": "cora_like"},
                                "variant": "SoP"}))
    assert load_config(path).variant == "SoP"


def test_operator_config_h_defaults():
    rng = np.random.default_rng(30)
    plain = gnp_graph(rng, n_lo=10, n_hi=10)
    attributed = gnp_graph(rng, n_lo=10, n_hi=10, features=4)
    spec = parse_config({"dataset": {"name": "x"}})
    assert operator_config(spec, plain).h == 2
    assert operator_config(spec, attributed).h == 3
    fixed = parse_config({"dataset": {"name": "x"}, "sampling": {"h": 5}})
    assert operator_config(fixed, plain).h == 5


def test_labeled_links_layout():
    rng = np.random.default_rng(31)
    g = gnp_graph(rng, n_lo=30, n_hi=30, p=0.2)
    split = split_edges(g, (0.7, 0.1, 0.2), seed=0)
    links = labeled_links(split, "test")
    n_pos = split.test_pos.shape[0]
    assert np.array_equal(links[:n_pos, :2], split.test_pos)
    assert np.array_equal(links[:n_pos, 2], np.ones(n_pos))
    assert np.array_equal(links[n_pos:, :2], split.test_neg)
    assert np.all(links[n_pos:, 2] == 0)


def test_precompute_split_writes_all_parts(tmp_path):
    rng = np.random.default_rng(32)
    g = gnp_graph(rng, n_lo=30, n_hi=30, p=0.2)
    split = split_edges(g, (0.7, 0.1, 0.2), seed=0)
    spec = parse_config({"dataset": {"name": "x"}, "sampling": {"h": 1, "r": 1}})
    config = operator_config(spec, g)
    stats = precompute_split(split, config, tmp_path / "recs")
    for part in ("train", "valid", "test"):
        assert (tmp_path / "recs" / f"{part}.rec").exists()
        expected = labeled_links(split, part).shape[0]
        assert stats[part].record_count == expected


def test_run_experiment_full_pipeline(tmp_path):
    report = run_experiment(_toy_config(tmp_path), out_dir=tmp_path / "out")
    assert [r["seed"] for r in report.runs] == [0, 1]
    for r in report.runs:
        assert 0.0 <= r["test_auc"] <= 1.0
        assert 0.0 <= r["hits@5"] <= 1.0
        assert 0.0 <= r["mrr"] <= 1.0
        assert 1 <= r["best_epoch"] <= 3
    # aggregate is recomputable from the per-run rows
    aucs = [r["test_auc"] for r in report.runs]
    assert report.aggregate["test_auc"]["mean"] == pytest.approx(np.mean(aucs))
    assert report.aggregate["test_auc"]["std"] == pytest.approx(np.std(aucs))
    # timings live only under the timings subtree
    assert set(report.timings) == {"preprocess_s", "train_s_per_epoch",
                                   "inference_s"}
    for entry in report.timings.values():
        assert entry["mean"] > 0
        assert len(entry["per_run"]) == 2
    assert report.storage is not None
    assert report.storage["train"]["record_bytes"] > 0
    for name in ("report.json", "report.txt", "report.csv"):
        assert (tmp_path / "out" / name).exists()
    table = report.text_table()
    assert "seed" in table and "mean" in table and "+/-" in table


def test_run_experiment_repeats_identically_modulo_timings(tmp_path):
    cfg = _toy_config(tmp_path)
    a = run_experiment(cfg).to_dict()
    b = run_experiment(cfg).to_dict()
    a.pop("timings")
    b.pop("timings")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_report_names_the_blas_outside_timings(tmp_path, monkeypatch):
    # the last bits of scores depend on the BLAS and its thread count
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    report = run_experiment(_toy_config(tmp_path, runs={"seeds": [0]})).to_dict()
    blas = report["blas"]
    assert blas["OPENBLAS_NUM_THREADS"] == "1"
    assert blas["cpu_count"] == os.cpu_count()
    assert blas["name"] == np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    assert "blas" not in report["timings"]


def test_report_config_is_not_the_callers_config(tmp_path):
    cfg = _toy_config(tmp_path, runs={"seeds": [0]})
    before = json.dumps(cfg, sort_keys=True)
    report = run_experiment(cfg)
    first = report.to_dict()
    first.pop("timings")
    first = json.dumps(first, sort_keys=True)
    report.config["dataset"].pop("edge_list")
    report.config["eval"]["hits_k"].append(1)
    assert json.dumps(cfg, sort_keys=True) == before
    again = run_experiment(cfg).to_dict()
    again.pop("timings")
    assert json.dumps(again, sort_keys=True) == first


def test_report_to_dict_is_a_snapshot(tmp_path):
    report = run_experiment(_toy_config(tmp_path, runs={"seeds": [0]}))
    snapshot = report.to_dict()
    frozen = json.dumps(snapshot, sort_keys=True)
    report.config["dataset"]["name"] = "edited"
    report.config["eval"]["hits_k"].append(1)
    report.runs[0]["seed"] = 99
    report.runs[0]["extra"] = 1.0
    report.aggregate.clear()
    assert json.dumps(snapshot, sort_keys=True) == frozen


def test_run_experiment_heuristics_mode(tmp_path):
    cfg = _toy_config(tmp_path, mode="heuristics",
                      heuristics=["CN", "AA"])
    report = run_experiment(cfg)
    columns = [f"{h}_{m}" for h in ("CN", "AA")
               for m in ("test_auc", "hits@5", "mrr")]
    for r in report.runs:
        assert list(r) == ["seed"] + columns
        for col in columns:
            assert 0.0 <= r[col] <= 1.0
    assert list(report.aggregate) == columns
    aucs = [r["CN_test_auc"] for r in report.runs]
    assert report.aggregate["CN_test_auc"]["mean"] == pytest.approx(np.mean(aucs))
    assert report.timings == {}
    table = report.text_table()
    assert "CN_test_auc" in table and "AA_mrr" in table and "+/-" in table


def test_run_experiment_storage_flag(tmp_path):
    cfg = _toy_config(tmp_path, storage=False, mode="heuristics")
    report = run_experiment(cfg)
    assert report.storage is None


def test_report_csv_round_trips(tmp_path):
    cfg = _toy_config(tmp_path, mode="heuristics", heuristics=["CN"])
    report = run_experiment(cfg)
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == "seed,CN_test_auc,CN_hits@5,CN_mrr"
    assert len(lines) == 3
    row = report.runs[1]
    assert lines[2].split(",") == [str(row[k]) for k in
                                   ("seed", "CN_test_auc", "CN_hits@5",
                                    "CN_mrr")]


def test_run_experiment_missing_dataset():
    with pytest.raises(FileNotFoundError, match="no_such_dataset"):
        run_experiment({"dataset": {"name": "no_such_dataset"},
                        "runs": {"seeds": [0]}})


def test_timing_probe_structure(tmp_path):
    cfg = _toy_config(tmp_path, sampling={"r": 1, "h": 1},
                      runs={"seeds": [0]})
    report = timing_probe(cfg, max_links=16)
    assert report["seed"] == 0
    assert report["num_probe_links"] == 16
    assert report["preprocess_s"] > 0
    assert report["train_s_per_epoch"] > 0
    probe = report["independence_probe"]
    for key in ("per_record_inference_s_h1", "per_record_inference_s_h3",
                "inference_ratio_h3_vs_h1", "within_20pct"):
        assert key in probe
    assert probe["per_record_inference_s_h1"] > 0
    assert isinstance(probe["within_20pct"], bool)
    assert json.dumps(report)  # plain JSON-serializable types throughout


def test_report_json_parses_back(tmp_path):
    cfg = _toy_config(tmp_path)
    report = run_experiment(cfg, out_dir=tmp_path / "o")
    loaded = json.loads((tmp_path / "o" / "report.json").read_text())
    assert loaded == report.to_dict()
    assert isinstance(report, ExperimentReport)
