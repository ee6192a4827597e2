"""The package's public names: listed once each, all importable, each
submodule loaded only when one of its names is first used, every name the
benchmark and the scripts read present, and every name used by code
outside the tests. The record store stays apart from the chunk engine, so
scoring stored records loads no sampler."""
import ast
import functools
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
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


# Opens stored records and scores them with a saved head, as a scoring
# process does.
_SCORE_ONLY = """
import sys
import difflink as dl
with dl.RecordFile(sys.argv[1]) as records:
    params, _ = dl.load_params(sys.argv[2])
    assert dl.predict(records, params).shape == (len(records),)
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "difflink")))
print("multiprocessing" in sys.modules)
"""


def test_scoring_stored_records_loads_no_engine(tmp_path):
    graph = difflink.datasets.ns_like(seed=0)
    links = difflink.labeled_links(difflink.split_edges(graph, seed=0), "test")
    config = difflink.SamplingOperatorSet(variant="PoS", r=2, h=1)
    difflink.precompute_dataset(graph, links[:20], config, tmp_path / "t.rec")
    with difflink.RecordFile(tmp_path / "t.rec") as records:
        width = records.row_width
    params = difflink.init_params(np.random.default_rng(0), width, 4,
                                  difflink.Pooling.CENTER)
    difflink.save_params(tmp_path / "head.bin", params)
    src = str(Path(difflink.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", _SCORE_ONLY, str(tmp_path / "t.rec"),
                          str(tmp_path / "head.bin")], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout.split("\n")
    assert out[0].split() == ["difflink", "difflink.graphs", "difflink.metrics",
                              "difflink.model", "difflink.store"]
    assert out[1] == "False"


ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "difflink"


def _top_level(module: str) -> tuple[set, set]:
    """The difflink modules ``module`` imports, and the names its top level
    defines (imports aside)."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    imported, defined = set(), set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported.add(node.module)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return imported, defined


def test_the_store_imports_no_engine_and_shares_no_definition():
    store_imports, store_defines = _top_level("store")
    assert store_imports.isdisjoint({"records", "sampling", "labeling"})
    records_imports, records_defines = _top_level("records")
    assert "store" in records_imports
    assert store_defines & records_defines == set()
    assert {"_HEADER", "_encode", "_scatter", "_RecordWriter", "_Records",
            "RecordFile", "_read_manifest"} <= store_defines


def test_engine_spans_keep_the_records_name():
    # perfbench names a span after the module that defines the function
    assert difflink.precompute_dataset.__module__ == "difflink.records"
    assert difflink.storage_comparison.__module__ == "difflink.records"


def _package_chains(tree) -> set:
    """Dotted names a module reads from difflink: each static attribute
    chain on a name that an import binds to difflink or to something in it
    (``dl.records.RecordFile``), and each name a ``from`` import takes."""
    roots, chains = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "difflink":
                    if alias.asname:
                        roots[alias.asname] = alias.name
                    else:
                        roots["difflink"] = "difflink"
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module.split(".")[0] == "difflink"):
            for alias in node.names:
                roots[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                chains.add(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in roots:
            chains.add(".".join([roots[node.id], *reversed(parts)]))
    return chains


def _resolves(chain: str) -> bool:
    try:
        functools.reduce(getattr, chain.split(".")[1:], difflink)
    except AttributeError:
        return False
    return True


def test_names_the_benchmark_and_scripts_use_resolve():
    callers = sorted([*(ROOT / "perfbench").glob("*.py"), *(ROOT / "scripts").glob("*.py")])
    used = {f"{path.relative_to(ROOT)}: {chain}"
            for path in callers
            for chain in _package_chains(ast.parse(path.read_text(), str(path)))}
    for known in ("perfbench/workloads.py: difflink.records.storage_comparison",
                  "perfbench/workloads.py: difflink.bench.precompute_split",
                  "perfbench/checks.py: difflink.records.RecordFile",
                  "scripts/fetch_datasets.py: difflink.datasets.data_dir"):
        assert known in used
    assert sorted(entry for entry in used
                  if not _resolves(entry.split(": ")[1])) == []


# Public names that no code outside the tests uses, each with the reason it
# stays public. Every other name in ``__all__`` needs a caller.
UNCALLED = {}


def _src_references() -> set:
    """Names the package's modules read, each outside the top-level
    statement that defines it, so a definition is not its own caller.
    Imports, attributes, strings and comments do not count."""
    used = set()
    for path in SRC.glob("*.py"):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined = {stmt.name}
            elif isinstance(stmt, ast.Assign):
                defined = {t.id for t in stmt.targets if isinstance(t, ast.Name)}
            else:
                defined = set()
            used |= {node.id for node in ast.walk(stmt)
                     if isinstance(node, ast.Name)} - defined
    return used


CALLERS = (ROOT / "scripts", ROOT / "demos", ROOT / "perfbench")


def _sources(*folders) -> list:
    """The Python files in ``folders``, test modules left out."""
    return sorted(path for folder in folders for path in folder.glob("*.py")
                  if not path.name.startswith("test_"))


def _caller_references() -> set:
    """Public names the scripts, demos and benchmark read from difflink:
    ``difflink.<name>`` or ``difflink.<module>.<name>``, by attribute or
    by a ``from`` import."""
    used = set()
    for path in _sources(*CALLERS):
        for chain in _package_chains(ast.parse(path.read_text(), str(path))):
            parts = chain.split(".")[1:]
            used.update(parts[:1])
            if parts[0] in difflink._EXPORTS:
                used.update(parts[1:2])
    return used


def test_every_public_name_has_a_caller():
    used = _src_references() | _caller_references()
    assert sorted(set(difflink.__all__) - used - set(UNCALLED)) == []
    assert sorted(set(UNCALLED) - set(difflink.__all__)) == []


# Public methods and properties of the exported classes that no code
# outside the tests reads, each with the reason it stays. Every other one
# needs a reader.
UNREAD_METHODS = {}


def _attribute_reads() -> set:
    """Attribute names that the package, scripts, demos and benchmark read
    (``obj.name``, loaded, not assigned), each outside any function of
    that name, so a method's own body is not its caller."""
    reads = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and node.attr not in enclosing):
            reads.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for path in _sources(SRC, *CALLERS):
        visit(ast.parse(path.read_text(), str(path)), frozenset())
    return reads


def _public_methods() -> dict:
    """``Class.name`` -> name for each public method and property that an
    exported class defines or inherits from a difflink class."""
    methods = {}
    for name in difflink.__all__:
        cls = getattr(difflink, name)
        if not isinstance(cls, type):
            continue
        for base in cls.__mro__:
            if not base.__module__.startswith("difflink"):
                continue
            for attr, value in vars(base).items():
                if not attr.startswith("_") and isinstance(value, (
                        types.FunctionType, property, functools.cached_property,
                        staticmethod, classmethod)):
                    methods[f"{name}.{attr}"] = attr
    return methods


def test_every_public_method_has_a_reader():
    """A public method or property of an exported class needs a reader
    outside the tests: some non-test code reads its name as an attribute.
    The reads are matched by name alone, whatever object they are read
    off, so the guard is conservative: a name that another object also
    carries passes on that object's reads (``astype`` is read off numpy
    arrays, ``num_operators`` off the sampling config)."""
    methods = _public_methods()
    reads = _attribute_reads()
    assert sorted(qualified for qualified, attr in methods.items()
                  if attr not in reads and qualified not in UNREAD_METHODS) == []
    assert sorted(set(UNREAD_METHODS) - set(methods)) == []
