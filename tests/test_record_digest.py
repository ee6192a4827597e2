"""scripts/record_digest.py on one case and a few links, in both modes, so
the script keeps running."""
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "record_digest.py"


def test_record_digest_files_and_decoded(tmp_path):
    spec = importlib.util.spec_from_file_location("record_digest", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    kw = {"samples": [("ns_like", 1)], "count": 12, "only": {"PoSPlus-drnl"}}
    files = script.digest(tmp_path, **kw)["ns_like/h1"]
    decoded = script.digest(tmp_path, decoded=True, **kw)["ns_like/h1"]
    assert set(files["records"]) == set(decoded["records"]) == {
        "PoSPlus-drnl/w1", "PoSPlus-drnl/w2"}
    assert files["storage"]["PoSPlus-drnl"]["num_links"] == 12
    assert "storage" not in decoded
    for mode, keys in ((files, {"rec", "manifest"}),
                       (decoded, {"z", "mask", "labels", "records"})):
        w1, w2 = (mode["records"][f"PoSPlus-drnl/w{w}"] for w in (1, 2))
        assert set(w1) == keys and w1 == w2     # workers change no byte
        assert all(len(h) == 64 for h in w1.values())
