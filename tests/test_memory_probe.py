"""scripts/memory_probe.py at tiny sizes, so the script keeps running."""
import importlib
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "memory_probe.py"
PHASES = {"ns_pos": ["precompute", "storage", "train", "score", "evaluate", "check"],
          "cora_plus": ["precompute", "train", "score", "evaluate", "check"]}


def test_memory_probe_runs_at_tiny_sizes(tmp_path, monkeypatch):
    # imported by name, as the spawned workers import it
    monkeypatch.syspath_prepend(str(SCRIPT.parent))
    probe = importlib.import_module("memory_probe")
    out = tmp_path / "memory.json"
    assert probe.main(["--pairs", "8", "--iterations", "2", "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert set(result["workloads"]) == set(PHASES)
    for name, rows in result["workloads"].items():
        assert [(r["phase"], r["iteration"]) for r in rows] == (
            [("inputs", 0)] + [(p, i) for i in range(2) for p in PHASES[name]])
        peaks = [r["peak_rss_mb"] for r in rows]
        assert peaks[0] > 0
        assert peaks == sorted(peaks)           # a running peak never falls
        assert all("features_mb" not in r for r in rows[1:])
    # ns_like is unattributed; cora_like's 2708 x 1433 features, 18 nonzeros
    # a row, hold 8 bytes a nonzero plus the row offsets
    assert result["workloads"]["ns_pos"][0]["features_mb"] == 0.0
    want = (2708 * 18 * 8 + 2709 * 8) / 2**20
    assert result["workloads"]["cora_plus"][0]["features_mb"] == want
