"""scripts/record_digest.py on one case and a few links, in both modes, so
the script keeps running; and the record bytes of two fixed samples, and
what a reader decodes from them, against the digests committed in
record_digest_golden.json (the decoded ones under its "decoded" key).

A change that alters record bytes on purpose regenerates that file, and
names the entries that change, by running this module:

    PYTHONPATH=src python tests/test_record_digest.py
"""
import importlib.util
import json
import tempfile
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "record_digest.py"
GOLDEN = Path(__file__).resolve().parent / "record_digest_golden.json"
SAMPLES = [("ns_like", 2), ("cora_like", 1)]


def _script():
    spec = importlib.util.spec_from_file_location("record_digest", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_record_digest_files_and_decoded(tmp_path):
    script = _script()
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


def test_record_bytes_match_golden_digest(tmp_path):
    # Every variant, both labelings, normalized PoS and worker counts 1 and
    # 2, on 24 links of ns_like at h=2 and of cora_like at h=1.
    got = _script().digest(tmp_path, samples=SAMPLES, count=24)
    golden = json.loads(GOLDEN.read_text())
    del golden["decoded"]
    assert got == golden


def test_decoded_records_match_golden_digest(tmp_path):
    # The batches and records a reader gets from the same files.
    got = _script().digest(tmp_path, decoded=True, samples=SAMPLES, count=24)
    assert got == json.loads(GOLDEN.read_text())["decoded"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        result = _script().digest(Path(tmp), samples=SAMPLES, count=24)
        result["decoded"] = _script().digest(Path(tmp), decoded=True,
                                             samples=SAMPLES, count=24)
    GOLDEN.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
