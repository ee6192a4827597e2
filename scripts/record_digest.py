"""Print sha256 digests of record files built on fixed samples, as one JSON object.

Two builds that should write the same bytes (before and after a refactor of
the precompute path, say) print the same JSON, so comparing the output of two
checkouts is a repeatable byte-identity check:

    PYTHONPATH=src python scripts/record_digest.py > after.json
    (cd ../other-checkout && PYTHONPATH=src python scripts/record_digest.py) > before.json
    diff before.json after.json

Samples: ns_like at h=2 and cora_like at h=1 (synthetic stand-ins at graph
seed 0, split seed 0), 160 seeded train links each, the first 12 of them for
SoP. Every variant is built with both labelings, plus PoS with
``normalized=True``, at worker counts 1 and 2. ``storage_comparison`` is
reported for every variant and labeling on the same links. ``--out DIR``
keeps the record files (named by dataset, case and worker count) for a
closer look; otherwise they go to a temporary directory.

``--decoded`` digests what a reader gets instead of the file bytes: every
case's ``RecordFile.batch`` arrays over the whole file, in batches of 8
records in a seeded order, and the ids and blocks of its ``read_records``.
A batch is digested as the padded arrays (z, mask, labels), z of shape
(B, p_max, (r+1)*w) rebuilt from the packed rows and the mask, so the JSON
does not depend on the batch layout either. Two builds that store the same
records in different file layouts print the same decoded JSON.
"""
import argparse
import hashlib
import json
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import difflink as dl  # noqa: E402

SAMPLES = (("ns_like", 2), ("cora_like", 1))
LINKS = 160
SOP_LINKS = 12
WORKERS = (1, 2)
WALK = {"k": 20, "l": 3}
BATCH = 8


def cases(h: int):
    """(name, SamplingOperatorSet) for every variant x labeling, plus
    PoS with normalized powers."""
    for variant in dl.Variant:
        walk = WALK if "ScaLed" in variant.value else {}
        for labeling in dl.LabelScheme:
            yield (f"{variant.value}-{labeling.value}",
                   dl.SamplingOperatorSet(variant=variant, r=3, h=h,
                                          labeling=labeling, **walk))
    yield ("PoS-zero_one-normalized",
           dl.SamplingOperatorSet(variant="PoS", r=3, h=h, normalized=True))


def sample_links(name: str, count: int = LINKS) -> tuple:
    graph = getattr(dl.datasets, name)(seed=0)
    split = dl.split_edges(graph, (0.85, 0.05, 0.10), seed=0)
    links = dl.labeled_links(split, "train")
    rng = np.random.default_rng(0)
    pick = np.sort(rng.choice(links.shape[0], count, replace=False))
    return split.observed_graph, links[pick]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def decoded_digest(path: Path) -> dict:
    """sha256 of the batch arrays and of the decoded records of a file."""
    batch = {key: hashlib.sha256() for key in ("z", "mask", "labels")}
    records = hashlib.sha256()
    with dl.RecordFile(path) as rf:
        order = np.random.default_rng(0).permutation(len(rf))
        for start in range(0, len(rf), BATCH):
            rows, mask, labels = rf.batch(order[start:start + BATCH])
            z = np.zeros(mask.shape + rows.shape[1:], dtype=rows.dtype)
            z[mask] = rows
            for key, array in zip(batch, (z, mask, labels)):
                batch[key].update(array.tobytes())
    for rec in dl.read_records(path):
        for array in (np.array([rec.u, rec.v, rec.label]), rec.pooled_ids,
                      rec.blocks):
            records.update(array.tobytes())
    return {**{key: h.hexdigest() for key, h in batch.items()},
            "records": records.hexdigest()}


def digest(out_dir: Path, decoded: bool = False, samples=SAMPLES,
           count: int = LINKS, only=None) -> dict:
    """The digests of every sample and case, or of the cases named in
    ``only``, built on ``count`` links a sample."""
    result = {}
    for name, h in samples:
        graph, links = sample_links(name, count)
        records, storage = {}, {}
        for case, config in cases(h):
            if only is not None and case not in only:
                continue
            subset = links[:SOP_LINKS] if config.variant is dl.Variant.SOP else links
            for workers in WORKERS:
                path = out_dir / f"{name}-{case}-w{workers}.rec"
                dl.precompute_dataset(graph, subset, config, path,
                                      worker_count=workers, seed=7)
                records[f"{case}/w{workers}"] = decoded_digest(path) if decoded else {
                    "rec": sha256(path),
                    "manifest": sha256(dl.store.manifest_path(path))}
            if not config.normalized and not decoded:
                storage[case] = asdict(dl.storage_comparison(graph, subset, config))
        result[f"{name}/h{h}"] = ({"records": records} if decoded
                                  else {"records": records, "storage": storage})
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None,
                        help="keep the record files in this directory")
    parser.add_argument("--decoded", action="store_true",
                        help="digest the decoded batches and records, not the files")
    args = parser.parse_args(argv)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        result = digest(args.out, args.decoded)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            result = digest(Path(tmp), args.decoded)
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
