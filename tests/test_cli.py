import hashlib
import json

import pytest

from difflink import run_experiment, save_edge_list
from difflink.cli import main
from difflink.datasets import random_graph


@pytest.fixture
def workspace(tmp_path):
    g = random_graph(50, 110, seed=4)
    edges = tmp_path / "edges.txt"
    save_edge_list(g, edges)
    cfg = {
        "dataset": {"name": "toy", "edge_list": str(edges)},
        "split": {"ratios": [0.7, 0.1, 0.2]},
        "variant": "PoS",
        "sampling": {"r": 1, "h": 1},
        "training": {"d_prime": 6, "epochs": 2, "batch_size": 16,
                     "dropout": 0.0, "lr": 0.01},
        "eval": {"hits_k": [3]},
        "runs": {"seeds": [0]},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    return tmp_path, cfg_path, edges


def test_split_command(workspace, capsys):
    tmp, cfg, _ = workspace
    out = tmp / "split"
    assert main(["split", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "split.json").exists()
    assert "wrote split" in capsys.readouterr().out


def test_precompute_train_eval_chain(workspace, capsys):
    tmp, cfg, _ = workspace
    run = tmp / "run"
    assert main(["precompute", "--config", str(cfg), "--out", str(run)]) == 0
    for part in ("train", "valid", "test"):
        assert (run / f"{part}.rec").exists()
    assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
    assert (run / "model.ckpt").exists()
    history = json.loads((run / "history.json").read_text())
    assert len(history) == 2
    assert main(["eval", "--config", str(cfg), "--out", str(run)]) == 0
    result = json.loads((run / "eval.json").read_text())
    assert 0.0 <= result["test_auc"] <= 1.0
    assert "hits@3" in result
    out = capsys.readouterr().out
    assert "best valid AUC" in out and "test_auc" in out


def test_bench_command(workspace, capsys):
    tmp, cfg, _ = workspace
    out = tmp / "bench"
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "report.json").exists()
    assert "mean" in capsys.readouterr().out


def test_bench_timing_probe(workspace, capsys):
    tmp, cfg, _ = workspace
    out = tmp / "probe"
    assert main(["bench", "--config", str(cfg), "--out", str(out),
                 "--timing-probe"]) == 0
    report = json.loads((out / "timing.json").read_text())
    assert "independence_probe" in report
    assert "inference_ratio_h3_vs_h1" in capsys.readouterr().out


def test_heuristics_command(workspace, capsys):
    tmp, cfg, _ = workspace
    out_dir = tmp / "heuristics"
    assert main(["heuristics", "--config", str(cfg),
                 "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "CN_test_auc" in out and "PPR_test_auc" in out
    assert "PPR_hits@3" in out
    report = json.loads((out_dir / "report.json").read_text())
    assert "CN_hits@3" in report["aggregate"]


def test_storage_command(workspace, capsys):
    tmp, cfg, _ = workspace
    out = tmp / "storage"
    assert main(["storage", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "storage.json").read_text())
    assert set(report) == {"train", "valid", "test"}
    assert report["train"]["record_bytes"] > 0


def test_cli_and_run_experiment_agree(workspace):
    tmp, cfg, _ = workspace
    run = tmp / "run"
    for cmd in ("precompute", "train", "eval"):
        assert main([cmd, "--config", str(cfg), "--out", str(run)]) == 0
    result = json.loads((run / "eval.json").read_text())
    row = run_experiment(cfg).runs[0]
    assert row["seed"] == 0
    assert result["test_auc"] == row["test_auc"]
    assert result["hits@3"] == row["hits@3"]


@pytest.mark.parametrize("command,report_name", [
    (["bench"], "report.json"),
    (["bench", "--timing-probe"], "timing.json"),
    (["heuristics"], "report.json"),
])
def test_seed_override_reaches_every_runner(workspace, command, report_name):
    tmp, cfg, _ = workspace
    out = tmp / "out"
    assert main(command + ["--config", str(cfg), "--seed", "5",
                           "--out", str(out)]) == 0
    report = json.loads((out / report_name).read_text())
    if report_name == "timing.json":
        assert report["seed"] == 5
    else:
        assert [r["seed"] for r in report["runs"]] == [5]
        assert report["config"]["runs"]["seeds"] == [5]


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_override_is_validated(workspace, capsys, workers):
    tmp, cfg, _ = workspace
    run = tmp / "run"
    assert main(["precompute", "--config", str(cfg), "--workers", workers,
                 "--out", str(run)]) == 2
    assert "workers" in capsys.readouterr().err
    assert not run.exists()


def test_seed_override(workspace):
    tmp, cfg, _ = workspace
    a = tmp / "a"
    b = tmp / "b"
    assert main(["split", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["split", "--config", str(cfg), "--seed", "5",
                 "--out", str(b)]) == 0
    sa = json.loads((a / "split.json").read_text())
    sb = json.loads((b / "split.json").read_text())
    assert sa["seed"] == 0 and sb["seed"] == 5


def test_cli_reports_config_errors(workspace, capsys):
    tmp, _, _ = workspace
    bad = tmp / "bad.json"
    bad.write_text(json.dumps({"dataset": {"name": "x"}, "variant": "SEAL"}))
    assert main(["split", "--config", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    missing = tmp / "missing.json"
    assert main(["split", "--config", str(missing)]) == 2


@pytest.mark.parametrize("cfg, field", [
    ({"dataset": {"name": "x"}, "heuristics": 5}, "heuristics"),
    ({"dataset": {"name": "x"}, "runs": {"seeds": [-1]}}, "runs.seeds"),
    ({"dataset": {"name": "x"}, "split": {"ratios": [0.5, 0.5, 0.5]}}, "split.ratios"),
    ({"dataset": {"name": 5}}, "dataset.name"),
], ids=["heuristics", "seeds", "ratios", "name"])
def test_cli_reports_a_bad_field_without_a_traceback(workspace, capsys, cfg, field):
    tmp, _, _ = workspace
    bad = tmp / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert main(["split", "--config", str(bad), "--out", str(tmp / "s")]) == 2
    err = capsys.readouterr().err
    assert f"error: {field}:" in err and "Traceback" not in err


def test_cli_reports_null_training_field(workspace, capsys):
    tmp, _, _ = workspace
    bad = tmp / "bad.json"
    bad.write_text(json.dumps({"dataset": {"name": "x"}, "training": {"lr": None}}))
    assert main(["bench", "--config", str(bad), "--out", str(tmp / "b")]) == 2
    err = capsys.readouterr().err
    assert "error: training.lr" in err and "Traceback" not in err


def test_cli_never_mutates_inputs(workspace):
    tmp, cfg, edges = workspace
    before = hashlib.sha256(edges.read_bytes()).hexdigest()
    run = tmp / "r"
    main(["precompute", "--config", str(cfg), "--out", str(run)])
    main(["train", "--config", str(cfg), "--out", str(run)])
    main(["eval", "--config", str(cfg), "--out", str(run)])
    main(["heuristics", "--config", str(cfg), "--out", str(tmp / "h")])
    assert hashlib.sha256(edges.read_bytes()).hexdigest() == before
