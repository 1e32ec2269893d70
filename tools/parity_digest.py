"""Print a sha256 per output of the lhc package on PYTHONPATH, then a combined one.

A change that must leave every number bitwise as it was prints the same
combined digest as its parent. Run it once per tree, each in its own
process, and compare:

    git archive HEAD~1 | tar -x -C /tmp/parent
    PYTHONPATH=/tmp/parent/src python tools/parity_digest.py > parent.txt
    PYTHONPATH=src python tools/parity_digest.py > change.txt
    diff parent.txt change.txt

It covers the rows, parameters and strings of train_base, train_lh and
train_fixed_embedding at the bench's train-d3 and train-d5-L8 shapes (fewer
rows and epochs), seeds 1-2; predict_bits; evaluate; feature_matrix,
predict_classes, predict_bits and evaluate over 8800 held-out rows, calls
that run on the row-block threads where the tree has them (see below);
gradcheck_report at seeds 0-2; load_mnist of a synthetic IDX pair, plain
and gzipped; the stdout, stderr and written files of the lhc commands
synth-gen, train-base, train-lh, eval, export-tree, gradcheck, sweep-l and
ablate (report.json without its wall-clock field); and the exit code and
stderr of two synth-gen runs it rejects, one with a test fraction of 1.5
and one of depth 16, past LHF1's class limit. gamma decays every 2
phase-2 epochs of 4, so the schedule is covered too. Only APIs that have
not changed in a long while are called, so that a parent tree runs it as
well.

An LH checkpoint round trip (save_lh_result, then load_lh_result) of a
train_lh run with one string per class digests what eval and export-tree
read back: the table's strings and class names, the loaded extractor's and
LH classifier's bytes, and evaluate on the loaded model. It stays equal
where a change alters the file's bytes but not what is read from them.

The row-block pool runs only while numpy's OpenBLAS runs one thread per
product, and OpenBLAS otherwise starts one thread per CPU. So, as
bench/run.py does, the script sets OPENBLAS_NUM_THREADS=1 before numpy
loads, unless the environment already sets it; without that the pooled
calls above would run on the calling thread alone on any machine of two or
more CPUs. Run it once more with OPENBLAS_NUM_THREADS set to the CPU count
to digest the serial path under a threaded BLAS; both runs print the same
combined digest.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import os
import struct
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads: see the docstring

import numpy as np

import lhc
from lhc import cli, data, training

# (name, depth, feature_dim, samples_per_class, extractor_dims, L, batch_size)
SHAPES = (("train-d3", 3, 32, 60, [32, 64, 16], 4, 64),
          ("train-d5-L8", 5, 64, 30, [64, 64, 16], 8, 256))
SEEDS = (1, 2)
# held-out rows per class that pooled_inference scores: 8 x 1100 = 8800 rows,
# evaluate's two 4096-row chunks and a 608-row tail
BULK_PER_CLASS = 1100
GRADCHECK_SEEDS = (0, 1, 2)
# gamma decays at phase-2 epoch 3; patience 2 lets early stopping restore an epoch
SCHEDULE = {"epochs": 3, "lh_epochs": 4, "gamma_decay": 0.5, "gamma_decay_every": 2,
            "early_stop_patience": 2, "val_size": 40}

digests: list[str] = []


def emit(name: str, *parts) -> None:
    """Print and keep the sha256 of parts, each bytes or a value whose repr is exact."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\0")
    line = f"{h.hexdigest()}  {name}"
    digests.append(line)
    print(line)


def report_parts(report: training.TrainReport) -> tuple:
    return (report.rows, report.final_train_accuracy, report.final_test_accuracy,
            sorted(report.extras.items()))


def lh_bytes(lh) -> bytes:
    return b"".join(t.data.tobytes() for t in (
        lh.projection.weight, lh.projection.bias, lh.cell.w_x, lh.cell.w_h, lh.cell.bias,
        lh.head.weight, lh.head.bias))


def extractor_bytes(extractor) -> bytes:
    """The extractor's tensors in ParameterSet.tobytes' sorted-name order (up to 10 layers)."""
    return b"".join(t.data.tobytes() for layer in extractor.layers
                    for t in (layer.bias, layer.weight))


def trainers():
    """Digest each shape's and seed's runs; return the first run's (base, result, table)."""
    first = None
    for name, depth, dim, per_class, dims, length, batch in SHAPES:
        for seed in SEEDS:
            tag = f"{name} seed {seed}"
            spec = data.PlantedHierarchySpec(depth=depth, feature_dim=dim,
                                             samples_per_class=per_class, seed=seed)
            dataset, _ = data.generate_planted(spec)
            train, test = data.train_test_split(dataset, 0.2, seed)
            config = training.RunConfig(seed=seed, extractor_dims=dims, L=length,
                                        batch_size=batch, **SCHEDULE)
            base, report = training.train_base(train, config, test_ds=test)
            emit(f"{tag} train_base", *report_parts(report), base.params.tobytes())
            result = training.train_lh(base, train, config, test_ds=test)
            emit(f"{tag} train_lh", *report_parts(result.report), result.params.tobytes(),
                 sorted(result.strings.items()))
            feats = result.extractor.feature_matrix(test.features)
            emit(f"{tag} predict_bits", result.lh.predict_bits(feats).tobytes())
            table = (result.table if result.table is not None
                     else training.random_lookup_table(train.num_classes, length, seed))
            emit(f"{tag} evaluate", training.evaluate(table, result.lh, result.extractor, test))
            first = first or (base, result, table)
            lh, fixed = training.train_fixed_embedding(base, train, table, config, test_ds=test)
            emit(f"{tag} train_fixed_embedding", *report_parts(fixed), lh_bytes(lh),
                 lh.predict_bits(feats).tobytes())
    return first


def pooled_inference(base, result, table) -> None:
    """A train-d3 run's inference over 8800 and 8795 rows, and evaluate over the 8800.

    feature_matrix, predict_classes and predict_bits run on both row counts.
    """
    name, depth, dim, *_ = SHAPES[0]
    spec = data.PlantedHierarchySpec(depth=depth, feature_dim=dim,
                                     samples_per_class=BULK_PER_CLASS, seed=3)
    bulk, _ = data.generate_planted(spec)
    feats = result.extractor.feature_matrix(bulk.features)
    emit(f"{name} seed {SEEDS[0]} predict_bits and evaluate over {len(bulk)} rows",
         result.lh.predict_bits(feats).tobytes(), result.lh.predict_bits(feats[:-5]).tobytes(),
         training.evaluate(table, result.lh, result.extractor, bulk))
    emit(f"{name} seed {SEEDS[0]} feature_matrix and predict_classes over {len(bulk)} rows",
         feats.tobytes(), result.extractor.feature_matrix(bulk.features[:-5]).tobytes(),
         base.predict_classes(bulk.features).tobytes(),
         base.predict_classes(bulk.features[:-5]).tobytes())


def lh_round_trip(root: Path) -> None:
    name, depth, dim, per_class, dims, _, batch = SHAPES[0]
    seed, length = 1, 10  # one string per class at this seed
    spec = data.PlantedHierarchySpec(depth=depth, feature_dim=dim, samples_per_class=per_class,
                                     seed=seed)
    train, test = data.train_test_split(data.generate_planted(spec)[0], 0.2, seed)
    config = training.RunConfig(seed=seed, extractor_dims=dims, L=length, batch_size=batch,
                                **SCHEDULE)
    result = training.train_lh(training.train_base(train, config)[0], train, config)
    if result.table is None:
        raise RuntimeError("the round-trip run collided; pick a seed with one string per class")
    path = root / "round-trip.lhc1"
    training.save_lh_result(path, result, config)
    loaded = training.load_lh_result(path)
    emit(f"{name} L={length} lh checkpoint round trip",
         sorted(loaded.table.class_to_string.items()), loaded.table.class_names,
         extractor_bytes(loaded.extractor),
         lh_bytes(loaded.lh), training.evaluate(loaded.table, loaded.lh, loaded.extractor, test))


def gradchecks() -> None:
    for seed in GRADCHECK_SEEDS:
        emit(f"gradcheck_report seed {seed}", sorted(training.gradcheck_report(seed).items()))


def mnist(root: Path) -> None:
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(30, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, size=30, dtype=np.uint8)
    files = {"train-images-idx3-ubyte": struct.pack(">IIII", 0x803, 30, 28, 28) + images.tobytes(),
             "train-labels-idx1-ubyte": struct.pack(">II", 0x801, 30) + labels.tobytes()}
    for gz in (False, True):
        directory = root / ("mnist-gz" if gz else "mnist")
        directory.mkdir()
        for name, body in files.items():
            if gz:
                (directory / f"{name}.gz").write_bytes(gzip.compress(body, mtime=0))
            else:
                (directory / name).write_bytes(body)
        ds = data.load_mnist(directory, "train")
        emit(f"load_mnist {directory.name}", ds.features.tobytes(), ds.labels.tobytes(),
             ds.num_classes, ds.class_names)


def run_cli(root: Path, tag: str, *argv: str) -> None:
    """One lhc command: its exit code, stdout and stderr, with root written as <root>."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    emit(f"lhc {tag}", code, out.getvalue().replace(str(root), "<root>"),
         err.getvalue().replace(str(root), "<root>"))


def commands(root: Path) -> None:
    config = root / "config.json"
    config.write_text(json.dumps({"extractor_dims": [6, 8, 4], "L": 6, "batch_size": 16,
                                  "c2s_hidden": 8, "s2c_hidden": 8, "lstm_hidden": 5,
                                  **SCHEDULE}))
    run_cli(root, "synth-gen", "synth-gen", "--depth", "2", "--feature-dim", "6",
            "--samples-per-class", "30", "--seed", "3", "--out", str(root / "synth"))
    common = ["--config", str(config), "--data-dir", str(root / "synth")]
    base = ["--checkpoint", str(root / "base" / "model.lhc1")]
    run_cli(root, "train-base", "train-base", *common, "--out", str(root / "base"))
    run_cli(root, "train-lh", "train-lh", *common, *base, "--out", str(root / "lh"))
    checkpoint = str(root / "lh" / "model.lhc1")
    run_cli(root, "eval", "eval", "--checkpoint", checkpoint, "--data-dir", str(root / "synth"))
    for fmt in ("dot", "json"):
        run_cli(root, f"export-tree {fmt}", "export-tree", "--checkpoint", checkpoint,
                "--format", fmt)
    run_cli(root, "gradcheck", "gradcheck", "--seed", "1")
    run_cli(root, "sweep-l", "sweep-l", *common, *base, "--l-values", "2,3",
            "--out", str(root / "sweep"))
    run_cli(root, "ablate", "ablate", *common, *base, "--out", str(root / "ablate"))
    for tag, flags in (("test fraction 1.5", ("--depth", "2", "--test-fraction", "1.5")),
                       ("depth 16", ("--depth", "16"))):
        run_cli(root, f"synth-gen rejects {tag}", "synth-gen", *flags, "--feature-dim", "6",
                "--out", str(root / "rejected"))
    for sub in ("synth", "base", "lh", "sweep", "ablate"):
        for path in sorted((root / sub).iterdir()):
            body = path.read_bytes()
            if path.name == "report.json":
                report = json.loads(body)
                del report["wall_clock_seconds"]
                body = json.dumps(report, sort_keys=True).encode()
            emit(f"file {sub}/{path.name}", body)


def main() -> int:
    print(f"lhc from {Path(lhc.__file__).parent}", file=sys.stderr)
    pooled_inference(*trainers())
    gradchecks()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(os.path.realpath(tmp))
        mnist(root)
        lh_round_trip(root)
        commands(root)
    combined = hashlib.sha256("\n".join(digests).encode()).hexdigest()
    print(f"{combined}  combined")
    return 0


if __name__ == "__main__":
    sys.exit(main())
