"""The benchmark's workloads and the pipeline one run drives through `lhc`.

Every workload draws a planted hierarchy from `generate_planted` with the
run's seed, round-trips it through LHF1 feature files, and runs the paper's
two-phase pipeline: `train_base` -> base checkpoint save/load -> `train_lh`
-> prefix-tree comparison with the planted tree. `evaluate` needs a
bijective string table and the learned encoding collides today, so each
run also trains an LH classifier against a `random_lookup_table` with
`train_fixed_embedding` during set-up, and `evaluate` scores that one.

Every workload repeats the same pass in its timed loop (the pipeline, then
`evaluate`), so every end-to-end metric is measured on every workload from
calls spread over the whole run; the workloads differ in the sizes that
decide which layer dominates a pass.

Each `train_base`, `train_lh` and `evaluate` call is one operation. An
operation fails when it raises or when its output check fails:

- every loss in its report is finite;
- the frozen extractor's bytes are unchanged by `train_lh` (checked here,
  since the in-program `assert` is stripped under `python -O`);
- the last-epoch mean loss of `train_base` and `train_lh` is bitwise equal
  across calls with the same seed and settings;
- a base checkpoint reloads to the same bytes;
- `EvalResult` equals a numpy recomputation from `predict_bits` and the table.
"""

from __future__ import annotations

import contextlib
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from lhc import data, training, tree

import tracer as tracing

TEST_FRACTION = 0.2
SETUP_REPEATS = 3      # setup_s is the median of this many full set-ups
MIN_ITERATIONS = 2     # timed-loop passes run even when --seconds has run out
PREDICT_CHUNK = 4096   # rows per predict_bits call in the benchmark's own checks


@dataclass(frozen=True)
class Workload:
    """One benchmark input: data shape, model shape and a fixed run length.

    `early_stop_patience` is set to the epoch count, so every call trains
    for exactly `epochs` / `lh_epochs` epochs whatever validation does.
    """

    name: str
    why: str
    depth: int
    feature_dim: int
    samples_per_class: int         # train + test rows per class
    extractor_dims: tuple[int, ...]
    L: int
    batch_size: int
    epochs: int = 10               # phase 1
    lh_epochs: int = 4             # phase 2: train_lh and train_fixed_embedding
    bulk_rows_per_class: int = 0   # > 0: evaluate scores these held-out rows, not the test split
    eval_repeats: int = 1          # evaluate calls per loop pass

    @property
    def num_classes(self) -> int:
        return 2 ** self.depth

    def config(self, seed: int) -> training.RunConfig:
        """The paper's default objective and optimiser, at this workload's sizes."""
        return training.RunConfig(
            seed=seed, dataset="features", extractor_dims=list(self.extractor_dims),
            L=self.L, batch_size=self.batch_size, epochs=self.epochs,
            lh_epochs=self.lh_epochs, early_stop_patience=max(self.epochs, self.lh_epochs))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="train-d3",
        why=("ROADMAP reference run: 8 classes, batch 64; small batches make per-op "
             "dispatch, tape length, Adam and L2 dominate a phase-2 step"),
        depth=3, feature_dim=32, samples_per_class=500, extractor_dims=(32, 64, 16),
        L=4, batch_size=64, eval_repeats=10),
    Workload(
        name="train-d5-L8",
        why=("32 classes, L=8, batch 256: twice the unroll and per-bit loops and 4x the "
             "rows per op, so array work and per-class code outweigh per-step costs"),
        depth=5, feature_dim=64, samples_per_class=300, extractor_dims=(64, 64, 16),
        L=8, batch_size=256, eval_repeats=4),
    Workload(
        name="eval-bulk",
        why=("train-d3's pipeline, then evaluate over 200k held-out rows: large-array "
             "forward and lookup without tape, backward or Adam, so training-only changes "
             "leave eval_rows_per_s alone"),
        depth=3, feature_dim=32, samples_per_class=500, extractor_dims=(32, 64, 16),
        L=4, batch_size=64, bulk_rows_per_class=25_000),
)}


END_TO_END_UNITS = {
    "base_samples_per_s": "samples/s",
    "lh_samples_per_s": "samples/s",
    "eval_rows_per_s": "rows/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "base_test_acc": "fraction",
    "lh_test_bit_acc": "fraction",
}


class CheckFailed(RuntimeError):
    """An operation's output failed the benchmark's check."""


# ------------------------------------------------------------------ ledger

@dataclass
class Record:
    """One timed operation."""

    kind: str            # "train_base", "train_lh" or "evaluate"
    phase: str           # "setup" or "loop"
    seconds: float = 0.0
    rows: int = 0        # samples trained on (rows x epochs) or rows evaluated
    ok: bool = True
    report: object = None
    quality: dict = field(default_factory=dict)


class Ledger:
    """Times operations, runs their checks and counts failures."""

    def __init__(self, log=sys.stderr):
        self.records: list[Record] = []
        self.log = log
        self._first_loss: dict[tuple, float] = {}

    def timed(self, kind: str, phase: str, fn):
        rec = Record(kind, phase)
        self.records.append(rec)
        start = time.perf_counter()
        try:
            result = fn()
        except Exception:
            rec.ok = False
            self.log.write(f"{kind} ({phase}) raised:\n{traceback.format_exc()}")
            return rec, None
        rec.seconds = time.perf_counter() - start
        return rec, result

    @contextlib.contextmanager
    def checking(self, rec: Record):
        """Mark the operation failed if anything in the block raises."""
        try:
            yield
        except Exception:
            rec.ok = False
            self.log.write(f"{rec.kind} ({rec.phase}) failed its check:\n"
                           f"{traceback.format_exc()}")

    def repeatable(self, key: tuple, value: float) -> None:
        """Same seed and settings must give a bitwise-equal loss."""
        first = self._first_loss.setdefault(key, value)
        if np.float64(first).tobytes() != np.float64(value).tobytes():
            raise CheckFailed(f"{key}: final loss {value!r} differs from {first!r} "
                              f"of an earlier call with the same seed")

    def measured(self, kind: str) -> list[Record]:
        """Successful calls of a kind made by the timed loop."""
        picked = [r for r in self.records if r.kind == kind and r.ok and r.phase == "loop"]
        if not picked:
            raise CheckFailed(f"no successful {kind} call to measure")
        return picked

    @property
    def failed(self) -> int:
        return sum(not r.ok for r in self.records)


# ------------------------------------------------------------------ checks

def _check_finite(rows: list[dict]) -> None:
    for row in rows:
        for key, value in row.items():
            if key != "val_acc" and not math.isfinite(value):
                raise CheckFailed(f"epoch {row['epoch']}: {key} = {value}")


def _fit_rows(train: data.LabeledDataset, config: training.RunConfig) -> int:
    """Rows a training call fits on: the train split less the validation hold-out."""
    return len(train) - min(config.val_size, len(train) // 5)


def _predict_bits(lh, feats: np.ndarray) -> np.ndarray:
    return np.vstack([lh.predict_bits(feats[lo:lo + PREDICT_CHUNK])
                      for lo in range(0, feats.shape[0], PREDICT_CHUNK)])


def _bits_by_class(strings: dict[int, str], num_classes: int) -> np.ndarray:
    return np.array([[int(b) for b in strings[c]] for c in range(num_classes)], dtype=np.int64)


def reference_eval(table, lh, extractor, ds: data.LabeledDataset) -> dict:
    """What `evaluate` must return, recomputed from predict_bits and the table."""
    predicted = _predict_bits(lh, extractor.feature_matrix(ds.features))
    bits = _bits_by_class(table.class_to_string, table.num_classes)
    weights = 1 << np.arange(bits.shape[1])
    codes = bits @ weights
    predicted_codes = predicted @ weights
    hits = predicted == bits[ds.labels]
    return {
        "num_samples": len(ds),
        "correct": int((predicted_codes == codes[ds.labels]).sum()),
        "bit_hits": hits.sum(axis=0).tolist(),
        "num_no_match": int((~np.isin(predicted_codes, codes)).sum()),
    }


def check_eval(result, ref: dict) -> None:
    n = ref["num_samples"]
    got = {
        "num_samples": result.num_samples,
        "correct": round(result.accuracy * n),
        "bit_hits": [round(a * n) for a in result.per_bit_accuracy],
        "num_no_match": result.num_no_match,
    }
    if got != ref:
        raise CheckFailed(f"evaluate returned {got}, recomputation gives {ref}")
    if abs(result.accuracy - ref["correct"] / n) > 1e-12:
        raise CheckFailed(f"accuracy {result.accuracy} is not {ref['correct']}/{n}")


# ---------------------------------------------------------------- pipeline

@dataclass
class Fixture:
    """What set-up leaves for the timed loop."""

    workload: Workload
    config: training.RunConfig
    workdir: Path
    train: data.LabeledDataset
    test: data.LabeledDataset
    bulk: data.LabeledDataset | None
    truth: tree.PrefixTree
    base: training.BaseModel | None = None
    table: object = None
    lh_fixed: object = None
    reference: dict | None = None  # reference_eval of eval_set, computed once

    @property
    def eval_set(self) -> data.LabeledDataset:
        return self.bulk if self.bulk is not None else self.test

    def compute_reference(self) -> None:
        self.reference = reference_eval(self.table, self.lh_fixed, self.base.extractor,
                                        self.eval_set)


def _round_trip(ds: data.LabeledDataset, path: Path) -> data.LabeledDataset:
    data.save_features(path, ds)
    loaded = data.load_features(path)
    if not (np.array_equal(loaded.features, ds.features)
            and np.array_equal(loaded.labels, ds.labels)
            and loaded.num_classes == ds.num_classes):
        raise CheckFailed(f"{path.name}: LHF1 round trip changed the data")
    return loaded


def make_data(w: Workload, seed: int, workdir: Path):
    """Seeded planted data, split and passed through LHF1 files."""
    spec = data.PlantedHierarchySpec(depth=w.depth, feature_dim=w.feature_dim,
                                     samples_per_class=w.samples_per_class + w.bulk_rows_per_class,
                                     seed=seed)
    dataset, truth = data.generate_planted(spec)
    per_class = [np.flatnonzero(dataset.labels == c) for c in range(w.num_classes)]
    pool = dataset.subset(np.concatenate([rows[:w.samples_per_class] for rows in per_class]))
    train, test = data.train_test_split(pool, TEST_FRACTION, seed)
    train = _round_trip(train, workdir / "train.lhf1")
    test = _round_trip(test, workdir / "test.lhf1")
    bulk = None
    if w.bulk_rows_per_class:
        bulk = _round_trip(dataset.subset(np.concatenate(
            [rows[w.samples_per_class:] for rows in per_class])), workdir / "bulk.lhf1")
    return train, test, bulk, truth


def compare_tree(result, truth: tree.PrefixTree) -> float:
    """Shared-cluster fraction against the planted tree; 0 when the encoding collides."""
    canon_truth = tree.canonicalize(truth)
    if result.table is None:
        return 0.0
    learned = tree.canonicalize(tree.build_tree(result.table))
    return tree.tree_distance(learned, canon_truth).shared_fraction


def train_pass(fx: Fixture, lh_config: training.RunConfig, phase: str, ledger: Ledger,
               tr: tracing.Tracer):
    """train_base -> checkpoint round trip -> train_lh -> tree comparison.

    Returns the reloaded base model, or None when an operation failed.
    """
    config = fx.config
    fit = _fit_rows(fx.train, config)
    rec, out = ledger.timed("train_base", phase,
                            lambda: training.train_base(fx.train, config, test_ds=fx.test))
    if out is None:
        return None
    model, report = out
    with ledger.checking(rec):
        rec.rows = fit * len(report.rows)
        rec.report = report
        _check_finite(report.rows)
        ledger.repeatable(("train_base", config.epochs), report.rows[-1]["total"])
        path = fx.workdir / "base.lhc1"
        training.save_base_model(path, model, config, None)
        loaded, _ = training.load_base_model(path)
        if loaded.params.tobytes() != model.params.tobytes():
            raise CheckFailed("base checkpoint reloaded to different bytes")
        rec.quality["base_test_acc"] = report.final_test_accuracy
    if not rec.ok:
        return None

    rec, result = ledger.timed("train_lh", phase,
                               lambda: training.train_lh(loaded, fx.train, lh_config,
                                                         test_ds=fx.test))
    if result is None:
        return None
    with ledger.checking(rec):
        rows = result.report.rows
        rec.rows = fit * len(rows)
        rec.report = result.report
        _check_finite(rows)
        frozen = loaded.params.names_with_prefix("extractor.")
        if result.params.tobytes(frozen) != loaded.params.tobytes(frozen):
            raise CheckFailed("train_lh changed the frozen extractor")
        ledger.repeatable(("train_lh", lh_config.lh_epochs), rows[-1]["total"])
        with tr.span(tracing.TREE_COMPARE):
            shared = compare_tree(result, fx.truth)
        with tr.paused():
            predicted = _predict_bits(result.lh, result.extractor.feature_matrix(fx.test.features))
        learned = _bits_by_class(result.strings, fx.workload.num_classes)
        rec.quality.update(
            lh_test_string_acc=result.report.final_test_accuracy,
            lh_test_bit_acc=float((predicted == learned[fx.test.labels]).mean()),
            lh_distinct_fraction=len(set(result.strings.values())) / fx.workload.num_classes,
            tree_shared_fraction=shared)
    return loaded if rec.ok else None


def evaluate_pass(fx: Fixture, ledger: Ledger) -> None:
    rec, result = ledger.timed("evaluate", "loop", lambda: training.evaluate(
        fx.table, fx.lh_fixed, fx.base, fx.eval_set))
    if result is None:
        return
    with ledger.checking(rec):
        rec.rows = len(fx.eval_set)
        check_eval(result, fx.reference)
        rec.quality["eval_accuracy"] = result.accuracy


def set_up(w: Workload, seed: int, workdir: Path, ledger: Ledger,
           tr: tracing.Tracer) -> Fixture:
    """Data, LHF1 files, one training pass and the fixed-table LH for evaluate.

    The set-up pass trains phase 2 for one epoch only: it is the warm-up,
    since the first calls in a process run slower.
    """
    config = w.config(seed)
    train, test, bulk, truth = make_data(w, seed, workdir)
    fx = Fixture(w, config, workdir, train, test, bulk, truth)
    fx.base = train_pass(fx, replace(config, lh_epochs=1), "setup", ledger, tr)
    if fx.base is None:
        raise CheckFailed("set-up training pass failed")
    fx.table = training.random_lookup_table(w.num_classes, w.L, seed)
    fx.lh_fixed, report = training.train_fixed_embedding(fx.base, train, fx.table, config)
    _check_finite(report.rows)
    return fx


def loop_pass(fx: Fixture, ledger: Ledger, tr: tracing.Tracer) -> None:
    with tr.span(tracing.ITERATION):
        if train_pass(fx, fx.config, "loop", ledger, tr) is None:
            return
        for _ in range(fx.workload.eval_repeats):
            evaluate_pass(fx, ledger)


def timed_loop(fx: Fixture, seconds: float, ledger: Ledger, tr: tracing.Tracer) -> list[float]:
    """Repeat loop passes for `seconds` (at least MIN_ITERATIONS); return pass times."""
    times = []
    start = time.perf_counter()
    while len(times) < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        loop_pass(fx, ledger, tr)
        times.append(time.perf_counter() - t0)
    return times


# ------------------------------------------------------------------- runs

def _throughput(records: list[Record]) -> float:
    return statistics.median(r.rows / r.seconds for r in records)


def end_to_end(ledger: Ledger, setup_seconds: list[float]) -> dict[str, float]:
    return {
        "base_samples_per_s": _throughput(ledger.measured("train_base")),
        "lh_samples_per_s": _throughput(ledger.measured("train_lh")),
        "eval_rows_per_s": _throughput(ledger.measured("evaluate")),
        "setup_s": statistics.median(setup_seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "base_test_acc": ledger.measured("train_base")[-1].quality["base_test_acc"],
        "lh_test_bit_acc": ledger.measured("train_lh")[-1].quality["lh_test_bit_acc"],
    }


def per_layer(ledger: Ledger, tr: tracing.Tracer, untraced: list[float],
              traced: list[float]) -> dict[str, float]:
    lh = ledger.measured("train_lh")[-1]
    base = ledger.measured("train_base")[-1]
    out = tracing.summarise(tr, lh.report, base.report)
    out["trace.overhead_fraction"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    for key in ("lh_test_string_acc", "lh_distinct_fraction", "tree_shared_fraction"):
        out[f"quality.{key}"] = lh.quality[key]
    out["quality.eval_accuracy"] = ledger.measured("evaluate")[-1].quality["eval_accuracy"]
    return out


def run(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path, lhc,
        log=sys.stderr) -> dict:
    """One benchmark run; returns the result object the driver reads."""
    ledger = Ledger(log)
    off = tracing.Tracer(enabled=False)
    if not trace:
        setup_seconds = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            fx = set_up(w, seed, workdir, ledger, off)
            setup_seconds.append(time.perf_counter() - start)
        fx.compute_reference()
        timed_loop(fx, seconds, ledger, off)
        metrics = end_to_end(ledger, setup_seconds)
        units = END_TO_END_UNITS
    else:
        # Untraced first (which also warms the process), then the same work
        # traced; the ratio of their loop-pass times is the tracing overhead.
        fx = set_up(w, seed, workdir, ledger, off)
        fx.compute_reference()
        untraced = timed_loop(fx, seconds / 2, ledger, off)
        tr = tracing.Tracer()
        with tr.installed(lhc) as missing:
            if missing:
                log.write(f"not traced, absent from this lhc: {', '.join(missing)}\n")
            traced_fx = set_up(w, seed, workdir, ledger, tr)
            # same seed, same outputs: the untraced recomputation must hold here too
            traced_fx.reference = fx.reference
            traced = timed_loop(traced_fx, seconds / 2, ledger, tr)
        metrics = per_layer(ledger, tr, untraced, traced)
        units = tracing.PER_LAYER_UNITS
    if set(metrics) != set(units):
        raise CheckFailed(f"metrics {sorted(set(metrics) ^ set(units))} are not declared")
    return {"correct": ledger.failed == 0, "attempted": len(ledger.records),
            "failed": ledger.failed,
            "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units}}
