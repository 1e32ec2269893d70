"""Tests of the benchmark itself, at sizes that run in well under a second."""

import io
import json
import math
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import lhc
import tracer as tracing
import workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def tiny(name: str) -> workloads.Workload:
    w = workloads.WORKLOADS[name]
    return replace(w, samples_per_class=20, epochs=1, lh_epochs=1, eval_repeats=1,
                   bulk_rows_per_class=min(w.bulk_rows_per_class, 1100))


def namespaces():
    """Every module and class namespace of lhc, for before/after comparison."""
    mods = [lhc] + [m for m in vars(lhc).values() if isinstance(m, types.ModuleType)]
    out = {}
    for mod in mods:
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("lhc"):
                for name, member in vars(value).items():
                    out[(mod.__name__, attr, name)] = member
    return out


def test_declared_metrics_match_benchmark_json():
    assert list(workloads.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]
    for w in SPEC["workloads"]:
        assert workloads.WORKLOADS[w["name"]].why == w["why"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.PER_LAYER_UNITS


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric(name, trace, tmp_path):
    log = io.StringIO()
    result = workloads.run(tiny(name), seed=3, seconds=0, trace=trace, workdir=tmp_path,
                           lhc=lhc, log=log)
    assert log.getvalue() == ""
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for value in result["metrics"].values():
        assert np.isfinite(value["value"])
    if trace:
        # evaluate calls predict_bits twice on each 4096-row chunk
        w = tiny(name)
        rows = w.bulk_rows_per_class * w.num_classes or math.ceil(
            workloads.TEST_FRACTION * w.samples_per_class) * w.num_classes
        calls = result["metrics"]["networks.predict_bits_calls"]["value"]
        assert calls == 2 * math.ceil(rows / 4096)


def test_same_seed_gives_bitwise_equal_losses(tmp_path):
    runs = [workloads.run(tiny("train-d3"), seed=5, seconds=0, trace=True, workdir=tmp_path,
                          lhc=lhc, log=io.StringIO())["metrics"] for _ in range(2)]
    for key in ("losses.lh_final_total", "losses.base_final_total"):
        assert runs[0][key]["value"] == runs[1][key]["value"]


def test_traced_run_restores_every_wrapped_function(tmp_path):
    before = namespaces()
    workloads.run(tiny("train-d3"), seed=1, seconds=0, trace=True, workdir=tmp_path,
                  lhc=lhc, log=io.StringIO())
    after = namespaces()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert lhc.autodiff.Tape.record.__qualname__ == "Tape.record"
    assert lhc.autodiff.Tensor.accumulate_grad.__qualname__ == "Tensor.accumulate_grad"
    assert lhc.nn.LstmCell.step.__qualname__ == "LstmCell.step"


def test_tracer_restores_after_an_exception():
    before = namespaces()
    tr = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tr.installed(lhc):
            raise RuntimeError("boom")
    after = namespaces()
    assert all(after[key] is before[key] for key in before)


def test_self_time_arithmetic():
    # op [0, 10] with children a [1, 4] and b [5, 9]; a has child c [2, 3]
    spans = [
        ["training.train_lh", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
    ]
    ix = tracing.SpanIndex(spans)
    assert ix.duration == [10.0, 3.0, 1.0, 4.0]
    assert ix.self_time == [3.0, 2.0, 1.0, 4.0]
    assert sum(ix.self_time) == ix.duration[0]
    assert [ix.op_name(i) for i in range(4)] == ["training.train_lh"] * 4
    assert ix.children[0] == [1, 3]


def test_recorded_spans_nest_and_self_times_cover_the_root():
    ticks = iter(range(100))
    tr = tracing.Tracer(clock=lambda: float(next(ticks)))
    outer = tr.wrap("training.train_lh", lambda f: f())
    inner = tr.wrap("inner", lambda: None)
    outer(lambda: [inner(), inner()])
    ix = tracing.SpanIndex(tr.spans)
    assert [s[0] for s in tr.spans] == ["training.train_lh", "inner", "inner"]
    assert [s[3] for s in tr.spans] == [-1, 0, 0]
    assert sum(ix.self_time) == pytest.approx(ix.duration[0])


def test_seed_changes_data_and_same_seed_repeats_it(tmp_path):
    w = tiny("train-d3")
    a = workloads.make_data(w, 1, tmp_path)
    b = workloads.make_data(w, 1, tmp_path)
    c = workloads.make_data(w, 2, tmp_path)
    assert np.array_equal(a[0].features, b[0].features)
    assert not np.array_equal(a[0].features, c[0].features)
    assert not np.array_equal(a[1].features, c[1].features)


def test_eval_check_rejects_a_wrong_result(tmp_path):
    ledger = workloads.Ledger(io.StringIO())
    fx = workloads.set_up(tiny("train-d3"), 0, tmp_path, ledger,
                          tracing.Tracer(enabled=False))
    result = lhc.training.evaluate(fx.table, fx.lh_fixed, fx.base, fx.test)
    fx.compute_reference()
    ref = fx.reference
    workloads.check_eval(result, ref)
    for bad in (replace(result, num_no_match=result.num_no_match + 1),
                replace(result, accuracy=result.accuracy + 1.0 / result.num_samples)):
        with pytest.raises(workloads.CheckFailed):
            workloads.check_eval(bad, ref)


def test_repeatable_loss_check_is_bitwise():
    ledger = workloads.Ledger(io.StringIO())
    ledger.repeatable(("train_lh", 4), 0.5)
    ledger.repeatable(("train_lh", 4), 0.5)
    with pytest.raises(workloads.CheckFailed):
        ledger.repeatable(("train_lh", 4), np.nextafter(0.5, 1.0))
