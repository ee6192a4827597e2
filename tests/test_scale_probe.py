"""scripts/scale_probe.py at toy sizes, so the script keeps running."""
import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "scale_probe.py"


def _load_probe():
    spec = importlib.util.spec_from_file_location("scale_probe", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scale_probe_runs_at_toy_sizes(tmp_path):
    probe = _load_probe()
    out = tmp_path / "probe.json"
    assert probe.main(["--sizes", "300", "500", "--links", "64",
                       "--repeats", "1", "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    rows = result["rows"]
    assert len(rows) == 2 * 2 * len(probe.CONFIGS)
    assert {(r["family"], r["n"], r["config"]) for r in rows} == {
        (f, n, c) for f in ("er", "preferential") for n in (300, 500)
        for c in probe.CONFIGS}
    for row in rows:
        assert row["links"] == 64 and row["edges"] > 0
        assert row["rec_per_s"] > 0 and row["first_run_s"] > 0
        assert row["peak_rss_mb"] > 0
        assert row["generate_s"] >= 0 and row["split_s"] > 0
        assert row["graph_peak_rss_mb"] > 0
    ratios = result["ratio_500_over_300"]
    assert set(ratios) == {f"{f}/{c}" for f in ("er", "preferential")
                           for c in probe.CONFIGS}
    assert all(r > 0 for r in ratios.values())
