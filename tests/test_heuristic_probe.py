"""scripts/heuristic_probe.py on the small dataset, so the script keeps running."""
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "heuristic_probe.py"


def test_heuristic_probe_times_and_digests_scores():
    spec = importlib.util.spec_from_file_location("heuristic_probe", SCRIPT)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    out = probe.probe("ns_like", ["CN", "AA"], 2)
    assert out["pairs"] == 548
    for method in ("CN", "AA"):
        assert out[method]["seconds"] >= 0
        assert len(out[method]["sha256"]) == 64
