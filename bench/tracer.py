"""In-memory span tracing of the `lhc` layers, installed from outside the program.

The tracer replaces public functions and methods of the `lhc` modules with
wrappers that record a span (name, start, end, parent) per call, plus a few
counters (tape entries per autodiff op, gradient accumulations). Nothing in
`src/` is changed: every wrapper is put back when `Tracer.installed()` exits.

`summarise` turns the recorded spans into the per-layer metrics listed in
BENCHMARK.json. A span's self time is its duration minus the durations of
its direct children; spans of one thread nest, so the self times of a
subtree add up to the duration of its root.
"""

from __future__ import annotations

import contextlib
import functools
import time
import types
from collections import Counter

# Spans opened by the benchmark itself, not by a wrapped function.
ITERATION = "bench.iteration"
TREE_COMPARE = "tree.compare"
STEP_FORWARD = "training.step_forward"

# Operations whose subtree defines a phase: spans are attributed to the
# nearest enclosing one of these.
TRAIN_BASE = "training.train_base"
TRAIN_LH = "training.train_lh"
EVALUATE = "training.evaluate"
OPERATIONS = (TRAIN_BASE, TRAIN_LH, "training.train_fixed_embedding", EVALUATE)

# The public autodiff ops; a tape entry is keyed on the op whose closure it holds.
AUTODIFF_OPS = ("matmul", "transpose", "add", "mul", "scale", "add_bias", "sigmoid",
                "tanh", "square", "concat", "slice_", "reshape", "sum_", "softmax",
                "cross_entropy")
# reshape is recorded by no code path the workloads run, so its backward time
# would be a constant 0; only its entry count is reported.
TIMED_OPS = tuple(op for op in AUTODIFF_OPS if op != "reshape")

# (module, attribute path) of every wrapped callable. Module-level functions
# are replaced in every `lhc` namespace that imported them by name.
FUNCTIONS = [
    ("data", "generate_planted"), ("data", "save_features"), ("data", "load_features"),
    ("data", "train_test_split"),
    ("autodiff", "Tape.backward"),
    ("nn", "LstmCell.step"), ("nn", "Adam.step"), ("nn", "Adam.zero_grad"),
    ("nn", "save_checkpoint"), ("nn", "load_checkpoint"),
    ("networks", "LhClassifierNet.forward"), ("networks", "LhClassifierNet.predict_bits"),
    ("networks", "Class2StrNet.forward"), ("networks", "Class2StrNet.encode"),
    ("networks", "Str2ClassNet.forward"), ("networks", "freeze_lookup"),
    ("losses", "total_loss"), ("losses", "l2_penalty"), ("losses", "class_loss"),
    ("losses", "structured_string_loss"), ("losses", "bias_regularizer"),
    ("losses", "string_target_loss"),
    ("training", "train_base"), ("training", "train_lh"),
    ("training", "train_fixed_embedding"), ("training", "evaluate"),
    ("training", "save_base_model"), ("training", "load_base_model"),
    ("training", "random_lookup_table"), ("training", "MlpExtractor.feature_matrix"),
    ("training", "BaseModel.predict_classes"),
    # validation helpers of train_lh: the only way to time validation from outside
    ("training", "_string_match"), ("training", "_encoding_bits"),
    ("tree", "build_tree"), ("tree", "canonicalize"), ("tree", "tree_distance"),
]
GENERATORS = [("data", "BatchIterator.epoch")]
# Wrapped by hand in Tracer._install_autodiff and _count_predict_rows:
# Tape.record (entries counted per op, their closures timed), Tape.__enter__
# and __exit__ (a tape's with-block is a step's forward span),
# Tensor.accumulate_grad and LhClassifierNet.predict_bits (counted).


def _unit(name: str) -> str:
    if "_ms" in name:
        return "ms"
    if name.endswith("_per_s"):
        return "rows/s"
    if name.endswith("_final_total"):
        return "loss"
    if name.startswith(("quality.", "trace.")):
        return "fraction"
    if name.endswith("_epoch"):
        return "epoch"
    return "count"


PER_LAYER = (
    ["autodiff.tape_entries_per_step", "autodiff.accumulate_grad_per_step",
     "autodiff.backward_ms_per_step"]
    + [f"autodiff.entries.{op}" for op in AUTODIFF_OPS]
    + [f"autodiff.backward_ms.{op}" for op in TIMED_OPS]
    + ["nn.lstm_step_ms", "nn.adam_step_ms", "nn.checkpoint_save_ms", "nn.checkpoint_load_ms",
       "networks.lh_forward_ms", "networks.class2str_forward_ms",
       "networks.str2class_forward_ms", "networks.predict_bits_calls",
       "networks.predict_bits_rows_per_s",
       "losses.total_loss_ms", "losses.l2_penalty_ms", "losses.lh_final_total",
       "losses.base_final_total",
       "training.step_forward_ms", "training.step_optimizer_ms",
       "training.validation_ms_per_epoch", "training.loop_self_ms_per_step",
       "training.feature_matrix_ms", "training.evaluate_self_ms", "training.restored_epoch",
       "training.steps",
       "data.batch_ms_per_epoch", "data.load_features_ms", "data.generate_ms",
       "tree.compare_ms", "trace.overhead_fraction",
       "quality.lh_test_string_acc", "quality.lh_distinct_fraction",
       "quality.tree_shared_fraction", "quality.eval_accuracy"])
PER_LAYER_UNITS = {name: _unit(name) for name in PER_LAYER}


def span_name(module: str, path: str) -> str:
    return f"{module}.{path}"


class Tracer:
    """Records spans as [name, start, end, parent index] lists, in start order."""

    def __init__(self, clock=time.perf_counter, enabled: bool = True):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()  # (counter name, parent span index) -> n
        self.enabled = enabled
        self._stack: list[int] = []
        self._restore: list = []

    # ----------------------------------------------------------- recording

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.clock(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.spans[idx][0]!r} closed out of order")
        self.spans[idx][2] = self.clock()

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[(name, self._stack[-1] if self._stack else -1)] += n

    @contextlib.contextmanager
    def paused(self):
        """Leave the benchmark's own checks out of the trace."""
        before = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = before

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    def wrap_generator(self, name: str, fn):
        """Time each resumption of a generator, not the caller's loop body."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            tracer.count(name + ".calls")
            while True:
                with tracer.span(name):
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                yield item

        return traced

    # ------------------------------------------------------------- patching

    def _set(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._restore.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def _patch_function(self, lhc, module: str, path: str, wrapper_factory) -> None:
        mod = getattr(lhc, module)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name)
            original = vars(owner)[attr]
            self._set(owner, attr, wrapper_factory(span_name(module, path), original))
            return
        original = getattr(mod, attr)
        wrapped = wrapper_factory(span_name(module, path), original)
        for ns in [lhc] + [m for m in vars(lhc).values() if isinstance(m, types.ModuleType)]:
            if vars(ns).get(attr) is original:
                self._set(ns, attr, wrapped)

    def install(self, lhc) -> list[str]:
        """Wrap every target; return the targets this build of lhc lacks."""
        missing = []
        for module, path in FUNCTIONS + GENERATORS:
            factory = self.wrap_generator if (module, path) in GENERATORS else self.wrap
            try:
                self._patch_function(lhc, module, path, factory)
            except (AttributeError, KeyError):
                missing.append(span_name(module, path))
        for name, install in (("autodiff hooks", lambda: self._install_autodiff(lhc.autodiff)),
                              ("predict_bits rows", lambda: self._count_predict_rows(
                                  lhc.networks.LhClassifierNet))):
            try:
                install()
            except (AttributeError, KeyError):
                missing.append(name)
        return missing

    def _count_predict_rows(self, cls) -> None:
        tracer = self
        inner = vars(cls)["predict_bits"]

        @functools.wraps(inner)
        def predict_bits(self, features):
            tracer.count("networks.predict_bits_rows", len(features))
            return inner(self, features)

        self._set(cls, "predict_bits", predict_bits)

    def _install_autodiff(self, autodiff) -> None:
        tracer = self
        tape_cls = autodiff.Tape
        tensor_cls = autodiff.Tensor
        orig_record = vars(tape_cls)["record"]
        orig_enter = vars(tape_cls)["__enter__"]
        orig_exit = vars(tape_cls)["__exit__"]
        orig_accumulate = vars(tensor_cls)["accumulate_grad"]

        def record(self, backward_fn):
            if not tracer.enabled:
                return orig_record(self, backward_fn)
            op = backward_fn.__qualname__.split(".", 1)[0]
            tracer.count("autodiff.entries." + op)
            return orig_record(self, tracer.wrap("autodiff.backward." + op, backward_fn))

        # The with-block of a tape is the forward half of one training step.
        open_steps: list[int | None] = []

        def enter(self):
            out = orig_enter(self)
            open_steps.append(tracer.open(STEP_FORWARD) if tracer.enabled else None)
            return out

        def exit_(self, exc_type, exc, tb):
            idx = open_steps.pop()
            if idx is not None:
                tracer.close(idx)
            return orig_exit(self, exc_type, exc, tb)

        def accumulate_grad(self, g):
            tracer.count("autodiff.accumulate_grad")
            return orig_accumulate(self, g)

        for name, fn in (("record", record), ("__enter__", enter), ("__exit__", exit_)):
            self._set(tape_cls, name, functools.wraps(vars(tape_cls)[name])(fn))
        self._set(tensor_cls, "accumulate_grad",
                  functools.wraps(orig_accumulate)(accumulate_grad))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value, had = self._restore.pop()
            if had:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    @contextlib.contextmanager
    def installed(self, lhc):
        try:
            yield self.install(lhc)
        finally:
            self.uninstall()


# ------------------------------------------------------------------ analysis

class SpanIndex:
    """Per-span duration, self time, enclosing operation and step membership."""

    def __init__(self, spans: list[list], counts: Counter | None = None):
        n = len(spans)
        self.spans = spans
        self.duration = [0.0] * n
        self.self_time = [0.0] * n
        self.operation: list[int] = [-1] * n  # index of the nearest enclosing operation
        self.in_step = [False] * n
        self.iteration: list[int] = [-1] * n  # index of the enclosing loop iteration
        self.children: list[list[int]] = [[] for _ in range(n)]
        self.by_name: dict[str, list[int]] = {}
        for i, (name, start, end, parent) in enumerate(spans):
            self.by_name.setdefault(name, []).append(i)
            if end is None:
                raise ValueError(f"span {name!r} was never closed")
            d = end - start
            self.duration[i] = d
            self.self_time[i] += d
            if parent >= 0:
                self.self_time[parent] -= d
                self.children[parent].append(i)
                self.operation[i] = self.operation[parent]
                self.in_step[i] = self.in_step[parent]
                self.iteration[i] = self.iteration[parent]
            if name in OPERATIONS:
                self.operation[i] = i
            if name == STEP_FORWARD:
                self.in_step[i] = True
            if name == ITERATION:
                self.iteration[i] = i
        # counter totals keyed by (counter name, enclosing operation name)
        self.op_counts: Counter = Counter()
        for (counter, parent), k in (counts or {}).items():
            self.op_counts[(counter, self.op_name(parent) if parent >= 0 else None)] += k

    def name(self, i: int) -> str:
        return self.spans[i][0]

    def op_name(self, i: int) -> str | None:
        op = self.operation[i]
        return self.spans[op][0] if op >= 0 else None

    def select(self, name: str, op: str | None = None, in_step: bool | None = None,
               in_iteration: bool | None = None) -> list[int]:
        out = []
        for i in self.by_name.get(name, ()):
            if op is not None and self.op_name(i) != op:
                continue
            if in_step is not None and self.in_step[i] != in_step:
                continue
            if in_iteration is not None and (self.iteration[i] >= 0) != in_iteration:
                continue
            out.append(i)
        return out

    def total(self, indices: list[int]) -> float:
        return sum(self.duration[i] for i in indices)

    def count(self, name: str, op: str | None = None) -> int:
        if op is not None:
            return self.op_counts[(name, op)]
        return sum(k for (counter, _), k in self.op_counts.items() if counter == name)


def _per(value: float, denom: float) -> float:
    return value / denom if denom else 0.0


def _ms(seconds: float) -> float:
    return seconds * 1e3


def summarise(tracer: Tracer, lh_report, base_report) -> dict[str, float]:
    """Per-layer metrics from a finished trace.

    Phase-2 per-step values are averaged over every traced `train_lh` step;
    feature_matrix_ms over every traced timed-loop iteration; predict_bits
    calls and evaluate self time over every timed-loop `evaluate` call; other
    per-call values over every traced call. `lh_report`/`base_report` are the
    TrainReports of the last traced full-length calls.
    """
    ix = SpanIndex(tracer.spans, tracer.counts)
    out: dict[str, float] = {}

    lh_spans = ix.select(TRAIN_LH)
    steps = ix.select(STEP_FORWARD, op=TRAIN_LH)
    n_steps = len(steps)

    def step_ms(name: str, in_step: bool | None = None) -> float:
        return _ms(_per(ix.total(ix.select(name, op=TRAIN_LH, in_step=in_step)), n_steps))

    # autodiff
    out["autodiff.tape_entries_per_step"] = _per(
        sum(ix.count("autodiff.entries." + op, TRAIN_LH) for op in AUTODIFF_OPS), n_steps)
    out["autodiff.accumulate_grad_per_step"] = _per(
        ix.count("autodiff.accumulate_grad", TRAIN_LH), n_steps)
    out["autodiff.backward_ms_per_step"] = step_ms("autodiff.Tape.backward")
    for op in AUTODIFF_OPS:
        out[f"autodiff.entries.{op}"] = _per(
            ix.count("autodiff.entries." + op, TRAIN_LH), n_steps)
    for op in TIMED_OPS:
        out[f"autodiff.backward_ms.{op}"] = step_ms("autodiff.backward." + op)

    # nn
    out["nn.lstm_step_ms"] = step_ms("nn.LstmCell.step", in_step=True)
    out["nn.adam_step_ms"] = step_ms("nn.Adam.step")
    for key, name in (("save", "nn.save_checkpoint"), ("load", "nn.load_checkpoint")):
        calls = ix.select(name)
        out[f"nn.checkpoint_{key}_ms"] = _ms(_per(ix.total(calls), len(calls)))

    # networks
    out["networks.lh_forward_ms"] = step_ms("networks.LhClassifierNet.forward", in_step=True)
    out["networks.class2str_forward_ms"] = step_ms("networks.Class2StrNet.forward", in_step=True)
    out["networks.str2class_forward_ms"] = step_ms("networks.Str2ClassNet.forward", in_step=True)
    iterations = ix.select(ITERATION)
    evals = ix.select(EVALUATE, in_iteration=True)
    out["networks.predict_bits_calls"] = _per(
        len(ix.select("networks.LhClassifierNet.predict_bits", op=EVALUATE, in_iteration=True)),
        len(evals))
    predict = ix.select("networks.LhClassifierNet.predict_bits")
    out["networks.predict_bits_rows_per_s"] = _per(ix.count("networks.predict_bits_rows"),
                                                   ix.total(predict))

    # losses
    out["losses.total_loss_ms"] = step_ms("losses.total_loss", in_step=True)
    out["losses.l2_penalty_ms"] = step_ms("losses.l2_penalty", in_step=True)
    out["losses.lh_final_total"] = lh_report.rows[-1]["total"]
    out["losses.base_final_total"] = base_report.rows[-1]["total"]

    # training
    out["training.step_forward_ms"] = step_ms(STEP_FORWARD)
    out["training.step_optimizer_ms"] = _ms(_per(
        ix.total(ix.select("nn.Adam.step", op=TRAIN_LH))
        + ix.total(ix.select("nn.Adam.zero_grad", op=TRAIN_LH)), n_steps))
    validation = 0.0
    epochs = 0
    for lh in lh_spans:
        kids = ix.children[lh]
        encodes = [k for k in kids if ix.name(k) == "training._encoding_bits"]
        matches = [k for k in kids if ix.name(k) == "training._string_match"]
        # one (_encoding_bits, _string_match) pair per epoch; the last
        # _string_match scores the test split after the loop
        validation += ix.total(encodes) + ix.total(matches[:len(encodes)])
        epochs += len(encodes)
    out["training.validation_ms_per_epoch"] = _ms(_per(validation, epochs))
    out["training.loop_self_ms_per_step"] = _ms(_per(sum(ix.self_time[i] for i in lh_spans),
                                                     n_steps))
    out["training.feature_matrix_ms"] = _ms(_per(
        ix.total(ix.select("training.MlpExtractor.feature_matrix", in_iteration=True)),
        len(iterations)))
    out["training.evaluate_self_ms"] = _ms(_per(sum(ix.self_time[i] for i in evals), len(evals)))
    best = max(row["val_acc"] for row in lh_report.rows)
    out["training.restored_epoch"] = next(row["epoch"] for row in lh_report.rows
                                          if row["val_acc"] == best)
    last_lh = lh_spans[-1]
    out["training.steps"] = sum(1 for i in steps if ix.operation[i] == last_lh)

    # data
    batch_epochs = ix.count("data.BatchIterator.epoch.calls")
    out["data.batch_ms_per_epoch"] = _ms(_per(ix.total(ix.select("data.BatchIterator.epoch")),
                                              batch_epochs))
    for key, name in (("load_features", "data.load_features"), ("generate", "data.generate_planted")):
        calls = ix.select(name)
        out[f"data.{key}_ms"] = _ms(_per(ix.total(calls), len(calls)))

    # tree
    compares = ix.select(TREE_COMPARE)
    out["tree.compare_ms"] = _ms(_per(ix.total(compares), len(compares)))
    return out

