"""The package's public names: listed once each, all importable, and each
submodule loaded only when one of its names is first used."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import difflink


def test_all_names_are_distinct_and_resolve():
    names = difflink.__all__
    assert len(names) == len(set(names)), sorted(
        name for name in set(names) if names.count(name) > 1)
    assert [name for name in names if not hasattr(difflink, name)] == []
    assert set(names) <= set(dir(difflink))


def test_star_import_binds_every_name():
    scope = {}
    exec("from difflink import *", scope)
    assert set(difflink.__all__) <= set(scope)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        difflink.no_such_name


def test_labeled_links_lives_in_graphs_and_bench_reads_it():
    assert difflink.bench.labeled_links is difflink.labeled_links
    assert difflink.labeled_links is difflink.graphs.labeled_links


# Builds a stand-in, splits it and labels a part, as a set-up process does.
_SPLIT_ONLY = """
import sys
import difflink as dl
split = dl.split_edges(dl.datasets.ns_like(seed=0), seed=0)
assert isinstance(split, dl.EdgeSplit)
dl.labeled_links(split, "train")
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "difflink")))
print("multiprocessing" in sys.modules)
"""


def test_building_a_split_loads_only_graphs_and_datasets():
    src = str(Path(difflink.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", _SPLIT_ONLY], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120).stdout.split("\n")
    assert out[0].split() == ["difflink", "difflink.datasets", "difflink.graphs"]
    assert out[1] == "False"
