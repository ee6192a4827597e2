"""Self-tests for the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
import dataclasses
import json
import re
import sys
import types
from contextlib import nullcontext
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402


@pytest.fixture
def fake_package(monkeypatch):
    """A package whose submodule calls a leaf through its module globals."""
    pkg = types.ModuleType("fakepkg")
    inner = types.ModuleType("fakepkg.inner")

    def leaf():
        return "leaf"

    def outer():
        return [inner.leaf(), inner.leaf()]

    leaf.__module__ = outer.__module__ = "fakepkg.inner"
    inner.leaf, inner.outer = leaf, outer
    pkg.leaf, pkg.outer, pkg.inner = leaf, outer, inner
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.inner", inner)
    return pkg


def test_self_time_of_nested_calls(fake_package):
    ticks = iter([0.0, 1.0, 2.0, 5.0, 6.0, 7.0, 10.0, 11.0])
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.add_function(fake_package, "outer")
    tracer.add_function(fake_package, "leaf")
    with tracer.installed("u0"):
        assert fake_package.outer() == ["leaf", "leaf"]
    names = [s.name for s in tracer.spans]
    assert names == ["unit", "inner.outer", "inner.leaf", "inner.leaf"]
    # unit 0..11 holds outer 1..10, which holds leaves 2..5 and 6..7.
    assert self_times(tracer.spans) == [2.0, 5.0, 3.0, 1.0]
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 1]
    assert {s.run_id for s in tracer.spans} == {"u0"}


def test_self_metrics_leave_out_only_the_named_children():
    tracer = Tracer()
    tree = [  # name, start, end, parent
        ("unit", 0, 100, None),
        ("records.precompute_dataset", 1, 90, 0),
        ("records.build_link_record", 2, 40, 1),
        ("graphs.common_neighbors", 3, 5, 2),       # pooled ids: kept
        ("sampling.extract_h_hop", 6, 16, 2),
        ("labeling.augment_features", 17, 27, 2),
        ("labeling.drnl_labels", 18, 22, 5),        # inside a left-out child
        ("records.serialize_record", 41, 45, 1),    # kept
        ("graphs.common_neighbors", 50, 60, 1),     # _max_pooled: kept
        ("model.loss_and_gradients", 91, 99, 0),
        ("model.stack_records", 92, 95, 9),
    ]
    tracer.spans = [Span(n, float(a), float(b), p, "it1") for n, a, b, p in tree]
    values = layers.layer_metrics(tracer, [], ["it1"], ccn_cap=0)
    assert values["records.build_link_record_self_s"] == 38 - 10 - 10
    assert values["records.precompute_dataset_self_s"] == 89 - 38
    assert values["model.loss_and_gradients_self_s"] == 8 - 3
    # The span table's self time subtracts every direct child.
    assert self_times(tracer.spans)[1] == 89 - 38 - 4 - 10


def test_patches_are_removed_and_missing_names_are_absent(fake_package):
    original = fake_package.inner.leaf
    tracer = Tracer()
    tracer.add_function(fake_package, "leaf")
    tracer.add_function(fake_package, "gone")
    with tracer.installed("u0"):
        assert fake_package.inner.leaf is not original
    assert fake_package.inner.leaf is original and fake_package.leaf is original
    assert tracer.absent == ["gone"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert per_layer == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [w["why"] for w in spec["workloads"]] == [
        workloads.WORKLOADS[n].why for n in run.WORKLOAD_NAMES]
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    for name in list(e2e) + list(per_layer) + list(run.WORKLOAD_NAMES):
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name


def test_flipped_payload_byte_makes_failed_share_positive(tmp_path):
    w = dataclasses.replace(workloads.WORKLOADS["ns_pos"], pairs=(4, 2, 3),
                            epochs=1)
    inputs = workloads.make_inputs(w, seed=0)
    it = workloads.run_iteration(w, inputs, 0, tmp_path, lambda n: nullcontext())

    clean = checks.Gate()
    checks.check_model_iteration(clean, inputs, it)
    assert clean.attempted > 0 and clean.failed == 0

    path = tmp_path / "train.rec"
    data = bytearray(path.read_bytes())
    data[-1] ^= 0x01                         # last byte is float payload
    path.write_bytes(bytes(data))
    gate = checks.Gate()
    checks.check_model_iteration(gate, inputs, it)
    assert gate.failed / gate.attempted > 0

