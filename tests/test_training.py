import json
import math
import os
import re
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lhc import networks, training
from lhc.autodiff import ShapeError, Tape, Tensor, sum_squares
from lhc.data import (DataFormatError, LabeledDataset, PlantedHierarchySpec, generate_planted,
                      one_hot)
from lhc.losses import total_loss
from lhc.networks import Class2StrNet, LhClassifierNet, Str2ClassNet, StringLookupTable
from lhc.nn import (Adam, CheckpointError, ParameterSet, load_checkpoint, save_checkpoint,
                    xavier_uniform)
from lhc.tree import export_tree, tree_obj
from test_networks import BLOCK_CASES, assert_caller_and_at_most_one_worker, needs_pool

STRINGS = ["011", "100", "110", "001"]


def rigged_lh_params(config: training.RunConfig) -> ParameterSet:
    """An lh parameter set, built as load_lh_result builds it; lh_tree() holds its table."""
    rng = np.random.default_rng(3)
    params = ParameterSet()
    training.MlpExtractor(params, config.extractor_dims, rng)
    params.freeze(params.names_with_prefix("extractor."))
    LhClassifierNet(params, config.extractor_dims[-1], config.lstm_hidden, config.L, rng)
    return params


def lh_tree(names: list[str] | None = None, strings: list[str] = STRINGS) -> dict:
    """An lh checkpoint's leaf list, encoding class c as strings[c]."""
    return tree_obj(StringLookupTable(dict(enumerate(strings)), class_names=names))


def loaded_tensors(loaded: training.LhArtifacts) -> dict[str, Tensor]:
    """The loaded extractor's and LH classifier's tensors, by their checkpoint names."""
    lh = loaded.lh
    linears = {f"extractor.{i}": layer for i, layer in enumerate(loaded.extractor.layers)}
    linears.update({"lh.projection": lh.projection, "lh.head": lh.head})
    tensors = {f"{name}.{part}": getattr(layer, part)
               for name, layer in linears.items() for part in ("weight", "bias")}
    tensors.update({f"lh.lstm0.{part}": getattr(lh.cell, part) for part in ("w_x", "w_h", "bias")})
    return tensors


def assert_loaded_from(loaded: training.LhArtifacts, params: ParameterSet) -> None:
    """loaded holds params' extractor and lh.* tensors: the same names, bytes and frozen flags."""
    tensors = loaded_tensors(loaded)
    assert sorted(tensors) == sorted(params.names_with_prefix("extractor.")
                                     + params.names_with_prefix("lh."))
    for name, t in tensors.items():
        assert t.data.tobytes() == params[name].data.tobytes()
        assert t.requires_grad == params[name].requires_grad


def test_rigged_lh_checkpoint_loads_to_its_strings_and_other_versions_are_rejected(tmp_path):
    config = training.RunConfig(extractor_dims=[6, 5, 4], L=3, lstm_hidden=5, c2s_hidden=4,
                                s2c_hidden=8)
    params = rigged_lh_params(config)
    # older lh checkpoints also record the sizes that config holds; the loader ignores them
    meta = {"kind": "lh", "config": config.to_dict(), "tree": lh_tree(),
            "feature_dim": 4, "extractor_dims": config.extractor_dims}
    save_checkpoint(tmp_path / "v2.lhc1", params, meta)
    loaded = training.load_lh_result(tmp_path / "v2.lhc1")
    assert loaded.table.class_to_string == dict(enumerate(STRINGS))
    assert_loaded_from(loaded, params)

    raw = (tmp_path / "v2.lhc1").read_bytes()
    assert raw.count(b'"format_version": 2') == 1
    for version in (b"1", b"3"):
        path = tmp_path / f"v{version.decode()}.lhc1"
        path.write_bytes(raw.replace(b'"format_version": 2', b'"format_version": ' + version))
        with pytest.raises(CheckpointError, match="version"):
            training.load_lh_result(path)


@pytest.mark.parametrize("legacy_sizes", [
    pytest.param({"feature_dim": "x", "extractor_dims": "x"}, id="ill-typed"),
    pytest.param({"feature_dim": 9, "extractor_dims": [6, 32, 32, 9]}, id="contradicting")])
def test_an_lh_checkpoint_s_old_size_keys_are_ignored(tmp_path, legacy_sizes):
    config = training.RunConfig(extractor_dims=[6, 5, 4], L=3, lstm_hidden=5, c2s_hidden=4,
                                s2c_hidden=8)
    meta = {"kind": "lh", "config": config.to_dict(), "tree": lh_tree(), **legacy_sizes}
    save_checkpoint(tmp_path / "model.lhc1", rigged_lh_params(config), meta)
    loaded = training.load_lh_result(tmp_path / "model.lhc1")
    assert loaded.extractor.dims == config.extractor_dims
    assert loaded.table.class_to_string == dict(enumerate(STRINGS))


@pytest.fixture(scope="module")
def planted():
    ds, _ = generate_planted(PlantedHierarchySpec(depth=2, feature_dim=6, samples_per_class=30,
                                                  seed=0))
    config = training.RunConfig(extractor_dims=[6, 8, 4], L=3, batch_size=16, epochs=1,
                                lh_epochs=1, c2s_hidden=8, s2c_hidden=8, lstm_hidden=5)
    base, _ = training.train_base(ds, config)
    return ds, config, base


def phase2_trainers(ds, config):
    """Each phase-2 trainer as a function of (base, config)."""
    table = training.random_lookup_table(ds.num_classes, config.L, seed=0)
    return {"train_lh": lambda base, config: training.train_lh(base, ds, config),
            "train_fixed_embedding": lambda base, config: training.train_fixed_embedding(
                base, ds, table, config)}


@pytest.mark.parametrize("trainer", ["train_lh", "train_fixed_embedding"])
def test_train_lh_raises_when_the_frozen_extractor_changes(planted, monkeypatch, trainer):
    ds, config, base = planted

    class TamperingAdam(Adam):
        def __init__(self, params, lr):
            super().__init__(params, lr)
            self.frozen = params["extractor.0.weight"]

        def step(self):
            super().step()
            self.frozen.data[0, 0] += 1.0

    monkeypatch.setattr(training, "Adam", TamperingAdam)
    with pytest.raises(training.FrozenExtractorChanged):
        phase2_trainers(ds, config)[trainer](base, config)


@pytest.mark.parametrize("trainer", ["train_lh", "train_fixed_embedding"])
def test_phase2_trains_the_base_extractor_frozen_under_its_names(planted, monkeypatch, trainer):
    ds, config, base = planted
    fit, trained = training.fit, []

    def recording_fit(params, *args):
        trained.append(params)
        return fit(params, *args)

    monkeypatch.setattr(training, "fit", recording_fit)
    phase2_trainers(ds, config)[trainer](base, config)
    (params,) = trained
    names = base.params.names_with_prefix("extractor.")
    assert names and params.names_with_prefix("extractor.") == names
    assert params.frozen_names() == frozenset(names)
    assert params.tobytes(names) == base.params.tobytes(names)


@pytest.mark.parametrize("trainer", ["train_lh", "train_fixed_embedding"])
@pytest.mark.parametrize("dims", [[6, 32, 32, 9], [6, 8, 5]])
def test_extractor_dims_other_than_the_base_model_s_are_rejected_before_any_work(
        planted, monkeypatch, trainer, dims):
    ds, config, base = planted

    def no_work(*args, **kwargs):
        raise AssertionError("training ran before extractor_dims was checked")

    monkeypatch.setattr(training, "fit", no_work)
    with pytest.raises(ValueError, match=r"extractor_dims .* do not match .*\[6, 8, 4\]"):
        phase2_trainers(ds, config)[trainer](base, replace(config, extractor_dims=dims))


@pytest.fixture(scope="module")
def lh_run(planted):
    """(base, config, result) of a train_lh run whose strings are one per class."""
    ds, config, base = planted
    config = replace(config, L=8)  # one string per class at this seed
    return base, config, training.train_lh(base, ds, config)


def test_an_lh_checkpoint_records_its_sizes_in_its_config_only(lh_run, tmp_path):
    base, config, result = lh_run
    training.save_lh_result(tmp_path / "model.lhc1", result, config)
    _, meta = load_checkpoint(tmp_path / "model.lhc1")
    assert set(meta) == {"kind", "config", "tree"}
    loaded = training.load_lh_result(tmp_path / "model.lhc1")
    assert loaded.config == config
    assert loaded.extractor.dims == config.extractor_dims == base.extractor.dims
    assert_loaded_from(loaded, result.params)
    assert loaded.table.class_to_string == result.table.class_to_string


def test_an_lh_checkpoint_holds_the_extractor_the_lh_classifier_and_the_leaves_only(lh_run,
                                                                                   tmp_path):
    # Class2Str and Str2Class only train: eval and export-tree read the other two modules,
    # and the table as tree.json's leaf list
    _, config, result = lh_run
    training.save_lh_result(tmp_path / "model.lhc1", result, config)
    saved, meta = load_checkpoint(tmp_path / "model.lhc1")
    names = [n for n in result.params.names() if n.startswith(("extractor.", "lh."))]
    assert saved.names() == names
    assert {n.split(".")[0] for n in result.params.names()} - {"extractor", "lh"} == {
        "class2str", "str2class"}
    assert saved.tobytes() == result.params.tobytes(names)
    assert saved.frozen_names() == frozenset(result.params.names_with_prefix("extractor."))
    assert meta["tree"] == json.loads(export_tree(result.table, "json"))


def test_an_lh_checkpoint_in_the_layout_that_kept_str2class_is_rejected(lh_run, tmp_path):
    _, config, result = lh_run
    old_meta = {"kind": "lh", "config": config.to_dict(), "num_classes": len(result.strings),
                "class_names": None}
    # as save_lh_result wrote them before the leaves replaced Class2Str, and before that,
    # with Str2Class's tensors too
    layouts = {"class2str": (r"\['class2str\.heads\.bias', ", False),
               "str2class": (r"\['class2str\.heads\.bias', .*'str2class\.fc1\.bias'", True)}
    for name, (listed, keeps_str2class) in layouts.items():
        path = tmp_path / f"{name}.lhc1"
        save_checkpoint(path, {n: t for n, t in result.params.items()
                               if keeps_str2class or not n.startswith("str2class.")}, old_meta)
        with pytest.raises(CheckpointError,
                           match=rf"^{re.escape(str(path))}: parameter name mismatch: {listed}"):
            training.load_lh_result(path)


def test_load_lh_result_builds_no_class2str(lh_run, tmp_path, monkeypatch):
    _, config, result = lh_run
    named = StringLookupTable(result.table.class_to_string, class_names=["w", "x", "y", "z"])
    training.save_lh_result(tmp_path / "model.lhc1", replace(result, table=named), config)

    def no_class2str(*args, **kwargs):
        raise AssertionError("load_lh_result built a Class2StrNet")

    monkeypatch.setattr(Class2StrNet, "__init__", no_class2str)
    loaded = training.load_lh_result(tmp_path / "model.lhc1")
    assert loaded.table.class_to_string == result.table.class_to_string
    assert loaded.table.class_names == ["w", "x", "y", "z"]
    assert_loaded_from(loaded, result.params)


def test_a_collided_result_is_not_saved(lh_run, tmp_path):
    _, config, result = lh_run
    with pytest.raises(ValueError, match="collide"):
        training.save_lh_result(tmp_path / "model.lhc1", replace(result, table=None), config)
    assert not (tmp_path / "model.lhc1").exists()


def test_evaluate_counts_strings_missing_from_the_table(planted):
    ds, config, base = planted
    rng = np.random.default_rng(5)
    params = ParameterSet()
    lh = LhClassifierNet(params, 4, 5, config.L, rng)
    for _, t in params.items():
        t.data *= 4.0  # spread the predicted strings over many of the 2^L values
    table = StringLookupTable({0: "000", 1: "011", 2: "101", 3: "110"})
    result = training.evaluate(table, lh, base, ds)

    # reference: the per-row string lookup
    predicted = lh.predict_bits(base.extractor.feature_matrix(ds.features))
    strings = set(table.class_to_string.values())
    expected = sum(1 for row in predicted if "".join(map(str, row)) not in strings)
    assert 0 < expected < len(ds)
    assert result.num_no_match == expected


@pytest.mark.parametrize("mapping, length, match", [
    ({0: "00", 1: "01", 2: "10"}, 2, r"C=3 classes.* C=4 classes"),        # 4-class data
    ({0: "000", 1: "001", 2: "010", 3: "011"}, 2, r"L=3 bits.* L=2 bits"),  # net emits L=2
])
def test_a_table_that_does_not_fit_is_rejected_before_any_work(planted, monkeypatch, mapping,
                                                               length, match):
    ds, config, base = planted
    config = replace(config, L=length)
    table = StringLookupTable(mapping)
    lh = LhClassifierNet(ParameterSet(), 4, 5, length, np.random.default_rng(0))

    def no_work(*args, **kwargs):
        raise AssertionError("features were computed before the table was checked")

    monkeypatch.setattr(training.MlpExtractor, "feature_matrix", no_work)
    with pytest.raises(ValueError, match=match):
        training.train_fixed_embedding(base, ds, table, config)
    with pytest.raises(ValueError, match=match):
        training.evaluate(table, lh, base, ds)


@pytest.mark.parametrize("num_classes, width", [(8, 6), (4, 5)])
def test_a_test_split_that_does_not_match_is_rejected_before_any_work(planted, monkeypatch,
                                                                     num_classes, width):
    ds, config, base = planted
    test_ds = LabeledDataset(ds.features[:, :width], ds.labels, num_classes)

    def no_work(*args, **kwargs):
        raise AssertionError("training ran before the test split was checked")

    monkeypatch.setattr(training, "fit", no_work)
    match = rf"C={num_classes} classes and D={width} features.* C=4 and D=6"
    with pytest.raises(ValueError, match=match):
        training.train_base(ds, config, test_ds=test_ds)
    with pytest.raises(ValueError, match=match):
        training.train_lh(base, ds, config, test_ds=test_ds)


@pytest.mark.parametrize("names", [[1, 2, 3, None], ["a", "b", "c", b"d"]])
def test_class_names_that_are_not_strings_are_rejected_before_any_training(planted, monkeypatch,
                                                                           names):
    ds, config, base = planted

    def no_work(*args, **kwargs):
        raise AssertionError("training ran before the class names were checked")

    monkeypatch.setattr(training, "fit", no_work)
    with pytest.raises(DataFormatError, match="class names must be str"):
        named = LabeledDataset(ds.features, ds.labels, ds.num_classes, class_names=names)
        training.train_lh(base, named, config)


@pytest.mark.parametrize("names", [None, ["a", "b"], ("a", "b"), "ab"],
                         ids=["none", "list", "tuple", "str"])
def test_a_base_checkpoint_reloads_the_class_names_its_dataset_accepted(tmp_path, names):
    # one rule says what a list of class names is: the dataset rejects the names, or the
    # base checkpoint saved from it reloads with the same parameters and names
    rng = np.random.default_rng(0)
    try:
        ds = LabeledDataset(rng.standard_normal((20, 6)), np.arange(20) % 2, 2,
                            class_names=names)
    except DataFormatError:
        return
    config = training.RunConfig(extractor_dims=[6, 4], batch_size=8, epochs=1)
    model, _ = training.train_base(ds, config)
    training.save_base_model(tmp_path / "model.lhc1", model, config, ds.class_names)
    loaded, meta = training.load_base_model(tmp_path / "model.lhc1")
    assert loaded.params.tobytes() == model.params.tobytes()
    assert meta["class_names"] == (None if names is None else list(names))


DROP = object()
# (field, new value or DROP); a dotted field is a path into config or the tree. "sizes" is
# fc_dims; it, num_classes and class_names are base metadata, and the tree is lh metadata
META_EDITS = {
    "no config": ("config", DROP),
    "list config": ("config", []),
    "no num_classes": ("num_classes", DROP),
    "str num_classes": ("num_classes", "x"),
    "float num_classes": ("num_classes", 2.5),
    "int class_names": ("class_names", 3),
    "str class_names": ("class_names", "abcd"),
    "no sizes": ("fc_dims", DROP),
    "null sizes": ("fc_dims", None),
    "str sizes": ("fc_dims", "x"),
    "sizes past num_classes": ("fc_dims", [4, 7]),
    "config with mu 1.5": ("config.mu", 1.5),
    "config with lstm_layers 2": ("config.lstm_layers", 2),
    "no leaves": ("tree", DROP),
    "tree version 1": ("tree.version", 1),
    "a leaf with no string": ("tree.leaves.2.string", DROP),
    "a class_id at two leaves": ("tree.leaves.2.class_id", 1),
    "two classes with one string": ("tree.leaves.2.string", STRINGS[1]),
    "class ids 0, 1, 2, 4": ("tree.leaves.3.class_id", 4),
    "strings one bit past L": ("tree", lh_tree(strings=[s + "0" for s in STRINGS])),
}
META_KINDS = {"config": ("base", "lh"), "tree": ("lh",)}  # all other fields: ("base",)


def checkpoint_parts(kind: str):
    """Loadable (params, metadata) of a base or an lh checkpoint with four classes."""
    config = training.RunConfig(extractor_dims=[6, 5, 4], L=3, lstm_hidden=5, c2s_hidden=4,
                                s2c_hidden=8)
    meta = {"kind": kind, "config": config.to_dict()}
    names = ["a", "b", "c", "d"]
    if kind == "base":
        params = ParameterSet()
        training.BaseModel(params, config.extractor_dims, len(STRINGS), np.random.default_rng(0))
        return params, {**meta, "num_classes": len(STRINGS), "class_names": names,
                        "fc_dims": [4, len(STRINGS)]}
    return rigged_lh_params(config), {**meta, "tree": lh_tree(names)}


@pytest.mark.parametrize("kind, edit", [
    pytest.param(kind, edit, id=f"{edit}-{kind}") for edit in sorted(META_EDITS)
    for kind in META_KINDS.get(META_EDITS[edit][0].split(".")[0], ("base",))])
def test_missing_or_ill_typed_checkpoint_metadata_raises_checkpoint_error(tmp_path, kind, edit):
    params, meta = checkpoint_parts(kind)
    field, value = META_EDITS[edit]
    *keys, last = field.split(".")
    target = meta
    for key in keys:
        target = target[int(key) if isinstance(target, list) else key]
    if value is DROP:
        del target[last]
    else:
        target[last] = value
    path = tmp_path / "model.lhc1"
    save_checkpoint(path, params, meta)
    load = training.load_base_model if kind == "base" else training.load_lh_result
    # never a bare ValueError or CollisionError: the file's own typed error, naming it
    match = rf"^{re.escape(str(path))}: bad checkpoint metadata"
    with pytest.raises(CheckpointError, match=match):
        load(path)


def test_a_base_checkpoint_whose_fc_head_does_not_start_at_the_extractor_width_is_rejected(
        tmp_path):
    # fc.0.weight is (4, 5), as fc_dims [5, 4] says, so only the widths disagree; BaseModel
    # rejects that head, so the file is built from the two MLPs
    config = training.RunConfig(extractor_dims=[6, 8, 4])
    params, rng = ParameterSet(), np.random.default_rng(0)
    training.MlpExtractor(params, config.extractor_dims, rng)
    training.MlpExtractor(params, [5, 4], rng, "fc")
    assert params["fc.0.weight"].data.shape == (4, 5)
    save_checkpoint(tmp_path / "model.lhc1", params, {
        "kind": "base", "config": config.to_dict(), "num_classes": 4, "fc_dims": [5, 4],
        "class_names": None})
    with pytest.raises(CheckpointError, match=r"fc_dims \[5, 4\] do not start at .* 4"):
        training.load_base_model(tmp_path / "model.lhc1")


@pytest.mark.parametrize("fc_dims", [[4, 7], [5, 4], [4], [4, 0, 4], [4, 2.5, 4], [4, True, 4],
                                     "44"])
def test_base_model_rejects_a_head_that_does_not_run_from_the_extractor_to_the_classes(fc_dims):
    # at [4, 7] the head would predict class ids up to 6 of a 4-class model
    with pytest.raises(ValueError, match="fc_dims"):
        training.BaseModel(ParameterSet(), [6, 8, 4], 4, np.random.default_rng(0),
                           fc_dims=fc_dims)


def step_gradients(forward, labels: np.ndarray, feats: np.ndarray, seed: int = 7):
    """Total loss and trainable gradients of one phase-2 step whose forward is forward(nets)."""
    rng = np.random.default_rng(seed)
    num_classes = labels.shape[1]
    params = ParameterSet()
    nets = (Class2StrNet(params, num_classes, 3, rng, hidden_dim=12),
            Str2ClassNet(params, num_classes, 3, rng, hidden_dim=10),
            LhClassifierNet(params, feats.shape[1], 5, 3, rng))
    with Tape() as tape:
        loss, _ = total_loss(Tensor(labels), *forward(nets), params, training.RunConfig(L=3),
                             1)
    tape.backward(loss)
    return loss.item(), {name: t.grad for name, t in params.trainable()}


@pytest.mark.parametrize("num_classes, label_ids", [
    (4, [0, 1, 2, 3, 3, 1, 0, 2, 2, 1]),   # every class present, most repeated
    (6, [5, 0, 5, 2, 0, 0, 5]),            # classes 1, 3 and 4 missing
    (8, [6, 1, 6]),                        # fewer samples than classes
])
def test_distinct_class_step_matches_the_per_sample_step(num_classes, label_ids):
    labels = one_hot(np.array(label_ids), num_classes)
    feats = np.random.default_rng(1).standard_normal((len(label_ids), 4))

    def per_sample(nets):
        # the reference: Class2Str and Str2Class on every sample's one-hot row
        c2s, s2c, lh = nets
        q = c2s.forward(Tensor(labels))
        return s2c.forward(q), lh.forward(Tensor(feats)), q

    loss, grads = step_gradients(lambda nets: training.phase2_forward(*nets, labels, feats),
                                 labels, feats)
    ref_loss, ref_grads = step_gradients(per_sample, labels, feats)
    assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0)
    assert grads.keys() == ref_grads.keys()
    for name, g in grads.items():
        assert np.abs(g - ref_grads[name]).max() <= 1e-12 * np.abs(ref_grads[name]).max(), name


def test_gradcheck_report_sums_gradients_over_repeated_classes():
    # its six samples over four classes repeat at least one label, so the gather's
    # backward adds several samples' gradients into one class row
    errors = training.gradcheck_report(seed=0)
    assert set(errors) == {"term_class", "term_string", "term_bias", "term_l2", "total"}
    assert max(errors.values()) < 1e-5


def test_train_lh_reports_the_classifier_sizes(planted):
    ds, config, base = planted
    extras = training.train_lh(base, ds, config).report.extras
    f, c, h = config.extractor_dims[-1], ds.num_classes, config.lstm_hidden
    base_fc = f * c + c
    # projection, LSTM (w_x, w_h, bias) and the 2-way bit head
    lh = (f * h + h) + (4 * h * h + 4 * h * h + 4 * h) + (2 * h + 2)
    assert extras["base_fc_params"] == base_fc == training.count_params(base.params, "fc.")
    assert extras["lh_classifier_params"] == lh
    assert extras["parameter_reduction"] == 1.0 - lh / base_fc


# ----------------------------------------------------------------------- fit

def toy_fit(scores, epochs=5, patience=2, validation=True, total=None):
    """fit on sum(w^2) over 6 rows in batches of 4 and 2, one hit per batch.

    validate returns the next of `scores` and records w at the end of each
    epoch. Returns fit's (rows, best_epoch, stop_reason), w after fit and
    the recorded ws.
    """
    params = ParameterSet()
    w = params.add("w", np.linspace(1.0, 2.0, 3))
    ds = LabeledDataset(np.arange(12.0).reshape(6, 2), np.array([0, 1] * 3), 2)
    config = training.RunConfig(batch_size=4, early_stop_patience=patience, lr=0.1)
    script = iter(scores)
    seen = []

    def step(x, y, epoch):
        loss = sum_squares([w])
        return loss, {"term_l2": loss.item(), "total": loss.item() if total is None else total}, 1

    def validate(val_ds):
        seen.append(w.data.copy())
        return next(script)

    out = training.fit(params, ds, ds if validation else None, config, epochs, step, validate)
    return out, w.data, seen


def test_fit_stops_after_patience_stale_epochs_and_restores_the_best():
    (rows, best, reason), w, seen = toy_fit([0.3, 0.5, 0.4, 0.5, 0.9], epochs=5, patience=2)
    assert [row["epoch"] for row in rows] == [1, 2, 3, 4]
    assert (best, reason) == (2, "patience")
    assert w.tobytes() == seen[1].tobytes()
    assert not np.array_equal(w, seen[3])
    assert list(rows[0]) == training.CSV_COLUMNS
    assert rows[0]["term_class"] == rows[0]["term_string"] == rows[0]["term_bias"] == 0.0
    assert rows[0]["term_l2"] == rows[0]["total"] > 0.0
    assert rows[0]["train_acc"] == 2 / 6
    assert [row["val_acc"] for row in rows] == [0.3, 0.5, 0.4, 0.5]


def test_fit_keeps_the_earlier_epoch_on_a_tie():
    (rows, best, reason), w, seen = toy_fit([0.2, 0.5, 0.5, 0.1], epochs=4, patience=5)
    assert (len(rows), best, reason) == (4, 2, "epochs")
    assert w.tobytes() == seen[1].tobytes()


def test_fit_without_validation_runs_every_epoch_and_keeps_the_last():
    (rows, best, reason), w, seen = toy_fit([], epochs=4, patience=1, validation=False)
    assert seen == []
    assert (len(rows), best, reason) == (4, 4, "epochs")
    assert all(math.isnan(row["val_acc"]) for row in rows)
    _, _, every_epoch = toy_fit([1.0, 2.0, 3.0, 4.0], epochs=4, patience=1)
    assert w.tobytes() == every_epoch[-1].tobytes()


def test_a_report_without_validation_is_strict_json_with_a_null_val_acc(planted, tmp_path):
    ds, config, _ = planted
    _, report = training.train_base(ds, replace(config, val_size=0))

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    rows = json.loads(report.to_json(), parse_constant=reject)["rows"]
    assert [row["val_acc"] for row in rows] == [None]
    # the in-memory rows and metrics.csv keep NaN
    assert math.isnan(report.rows[0]["val_acc"])
    report.write_csv(tmp_path / "metrics.csv")
    assert (tmp_path / "metrics.csv").read_text().splitlines()[1].endswith(",nan")


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_fit_raises_on_a_non_finite_total_before_any_adam_step(monkeypatch, bad):
    steps = []

    class CountingAdam(Adam):
        def step(self):
            steps.append(self.t)
            super().step()

    monkeypatch.setattr(training, "Adam", CountingAdam)
    with pytest.raises(training.TrainingDivergence, match="at epoch 1"):
        toy_fit([0.5], total=bad)
    assert steps == []


def test_every_trainer_reports_the_epoch_it_returns(planted):
    ds, config, base = planted
    _, base_report = training.train_base(ds, replace(config, epochs=3))
    # at this rate both phase-2 runs restore epoch 1 and stop at epoch 3
    config = replace(config, lh_epochs=6, early_stop_patience=2, lr=0.03)
    lh_report = training.train_lh(base, ds, config).report
    table = training.random_lookup_table(ds.num_classes, config.L, seed=0)
    _, fixed_report = training.train_fixed_embedding(base, ds, table, config)
    for report, epochs in ((base_report, 3), (lh_report, 6), (fixed_report, 6)):
        rows, best = report.rows, report.extras["best_epoch"]
        top = max(row["val_acc"] for row in rows)
        assert best == next(row["epoch"] for row in rows if row["val_acc"] == top)
        assert report.extras["stop_reason"] == ("epochs" if len(rows) == epochs else "patience")
    for report in (lh_report, fixed_report):
        assert (report.extras["best_epoch"], report.extras["stop_reason"]) == (1, "patience")
        assert report.final_train_accuracy == report.rows[0]["train_acc"]
        assert report.final_train_accuracy != report.rows[-1]["train_acc"]


# ----------------------------------------------------------------- RunConfig

@pytest.mark.parametrize("name, value", [
    ("epochs", 0), ("lh_epochs", 0), ("batch_size", 0), ("early_stop_patience", 0),
    ("gamma_decay_every", 0), ("val_size", -5), ("epochs", 2.0), ("lh_epochs", True),
    ("L", 4.5), ("L", 0), ("L", 64), ("seed", 1.5), ("seed", -1),
    ("lstm_hidden", 0), ("c2s_hidden", 0), ("s2c_hidden", 2.0), ("lr", "x"), ("lr", 0.0),
    ("mu", float("nan")), ("alpha", True), ("beta", None), ("gamma", float("inf")),
    ("delta", "1e-4"), ("gamma_decay", [0.5]), ("extractor_dims", [784]),
    ("extractor_dims", [784, 0]), ("dataset", None), ("string_ce_order", 1),
    ("mu", 1.0), ("mu", 0.0), ("mu", -0.1), ("mu", 1.5), ("alpha", -1.0), ("gamma", -1.0),
    ("delta", -1e-4), ("string_ce_order", "xx"), ("dataset", "foo"), ("dataset", "MNIST")])
def test_run_config_rejects_out_of_range_counts(name, value):
    with pytest.raises(ValueError, match=name):
        training.RunConfig(**{name: value})
    with pytest.raises(ValueError, match=name):
        training.RunConfig.from_dict({name: value})
    with pytest.raises(ValueError, match=name):
        replace(training.RunConfig(), **{name: value})


@pytest.mark.parametrize("value", [1.0, True, 0, 2, 3, None])
def test_run_config_from_dict_drops_a_recorded_single_lstm_layer_and_rejects_other_depths(
        value):
    # configs and checkpoints written while the LSTM depth was a setting carry "lstm_layers"
    obj = {**training.RunConfig(L=3).to_dict(), "lstm_layers": 1}
    config = training.RunConfig.from_dict(obj)
    assert config == training.RunConfig(L=3) and "lstm_layers" not in config.to_dict()
    with pytest.raises(ValueError, match="lstm_layers"):
        training.RunConfig.from_dict({**obj, "lstm_layers": value})


@pytest.mark.parametrize("kind", ["base", "lh"])
def test_a_checkpoint_that_records_one_lstm_layer_loads(tmp_path, kind):
    params, meta = checkpoint_parts(kind)
    save_checkpoint(tmp_path / "new.lhc1", params, meta)
    meta["config"]["lstm_layers"] = 1
    save_checkpoint(tmp_path / "old.lhc1", params, meta)
    load = training.load_base_model if kind == "base" else training.load_lh_result
    new, old = load(tmp_path / "new.lhc1"), load(tmp_path / "old.lhc1")
    if kind == "base":
        assert old[0].params.tobytes() == new[0].params.tobytes()
    else:
        assert old.config == new.config
        assert_loaded_from(old, params)
        assert_loaded_from(new, params)
        assert old.table.class_to_string == new.table.class_to_string


def test_run_config_accepts_the_smallest_counts():
    config = training.RunConfig(epochs=1, lh_epochs=1, batch_size=1, early_stop_patience=1,
                                gamma_decay_every=1, val_size=0)
    assert training.RunConfig.from_dict(config.to_dict()) == config
    config = training.RunConfig(seed=0, L=1, lstm_hidden=1, c2s_hidden=1,
                                s2c_hidden=1, lr=5e-324, mu=5e-324, alpha=0, beta=0, gamma=0,
                                delta=0, string_ce_order="qp", gamma_decay=0)
    assert training.RunConfig.from_dict(config.to_dict()) == config


@pytest.mark.parametrize("num_classes, length", [(10, 3), (1, 1), (1, 4)])
def test_random_lookup_table_needs_two_classes_and_a_string_each(num_classes, length):
    with pytest.raises(ValueError, match="classes"):
        training.random_lookup_table(num_classes, length, seed=0)


def test_strings_are_at_most_63_bits_long():
    # evaluate and _string_match score a string as an int64 code, one bit per power of 2
    assert training.RunConfig(L=63).L == 63
    assert training.random_lookup_table(4, 63, seed=0).string_length == 63
    with pytest.raises(ValueError, match="L=64"):
        training.random_lookup_table(4, 64, seed=0)
    rng = np.random.default_rng(0)
    lh = LhClassifierNet(ParameterSet(), 4, 3, 64, rng)
    extractor = training.MlpExtractor(ParameterSet(), [4, 4], rng)
    table = StringLookupTable({0: "0" * 64, 1: "0" * 63 + "1"})
    ds = LabeledDataset(np.zeros((2, 4)), np.array([0, 1]), 2)
    with pytest.raises(ValueError, match="L=64"):
        training.evaluate(table, lh, extractor, ds)


@pytest.mark.parametrize("num_classes, length", [(10, 4), (2, 1), (4, 2)])
def test_random_lookup_table_is_one_to_one_at_the_shortest_length(num_classes, length):
    table = training.random_lookup_table(num_classes, length, seed=0)
    assert (table.num_classes, table.string_length) == (num_classes, length)
    assert len(set(table.class_to_string.values())) == num_classes


# -------------------------------------------------------------------- models

def test_base_model_keeps_its_parameter_layout_and_forward():
    params = ParameterSet()
    model = training.BaseModel(params, [6, 5, 4], 3, np.random.default_rng(0), fc_dims=[4, 7, 3])
    assert model.fc.dims == [4, 7, 3]
    # one Xavier weight draw per layer, extractor first; biases start at zero
    rng = np.random.default_rng(0)
    layers = [(f"{part}.{i}", xavier_uniform(rng, dims[i + 1], dims[i]))
              for part, dims in (("extractor", [6, 5, 4]), ("fc", [4, 7, 3]))
              for i in range(len(dims) - 1)]
    assert params.names() == [f"{n}.{k}" for n, _ in layers for k in ("weight", "bias")]
    for name, weight in layers:
        assert params[f"{name}.weight"].data.tobytes() == weight.tobytes()
        assert not params[f"{name}.bias"].data.any()

    x = np.random.default_rng(1).standard_normal((5, 6))
    h = x
    for i, (_, weight) in enumerate(layers):
        h = h @ weight.T
        if i not in (1, 3):  # tanh between layers, not after the extractor or head output
            h = np.tanh(h)
    expected = np.exp(h - h.max(axis=1, keepdims=True))
    expected /= expected.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(model.forward(Tensor(x)).data, expected, rtol=1e-13)


@pytest.mark.parametrize("case", list(BLOCK_CASES))
def test_feature_matrix_and_predict_classes_in_blocks_equal_one_whole_forward(monkeypatch,
                                                                              case):
    model = training.BaseModel(ParameterSet(), [6, 64, 4], 8, np.random.default_rng(0),
                               fc_dims=[4, 32, 8])
    expected_calls = BLOCK_CASES[case](networks.INFERENCE_BLOCK_BYTES // (8 * 64))  # widest: 64
    x = np.random.default_rng(1).standard_normal((sum(expected_calls), 6)) * 3.0
    whole_feats = model.extractor.forward(Tensor(x)).data
    whole_classes = model.forward(Tensor(x)).data.argmax(axis=1)

    for cls, run, whole in ((training.MlpExtractor, model.extractor.feature_matrix, whole_feats),
                            (training.BaseModel, model.predict_classes, whole_classes)):
        calls = []
        forward = cls.forward
        with monkeypatch.context() as patch:
            patch.setattr(cls, "forward", lambda net, t, f=forward: calls.append(t.shape[0])
                          or f(net, t))
            out = run(x)
        assert calls == expected_calls
        assert out.dtype == whole.dtype and out.tobytes() == whole.tobytes()


@needs_pool
@pytest.mark.parametrize("rows", [4096, 4103, 10_000])
def test_pooled_feature_matrix_and_predict_classes_equal_their_serial_blocks(monkeypatch, rows):
    model = training.BaseModel(ParameterSet(), [6, 64, 4], 8, np.random.default_rng(0),
                               fc_dims=[4, 32, 8])
    x = np.random.default_rng(1).standard_normal((rows, 6)) * 3.0
    for cls, run in ((training.MlpExtractor, model.extractor.feature_matrix),
                     (training.BaseModel, model.predict_classes)):
        blocks = []
        forward = cls.forward

        def recorded(net, t, f=forward):
            blocks.append(((t.data.ctypes.data - x.ctypes.data) // x.strides[0],
                           t.shape[0], threading.current_thread()))
            return f(net, t)

        with monkeypatch.context() as patch:
            patch.setattr(cls, "forward", recorded)
            pooled = run(x)
            pooled_blocks, blocks[:] = sorted(blocks, key=lambda b: b[0]), []
            patch.setattr(networks, "POOL_MIN_ROWS", rows + 1)
            serial = run(x)
        # the pooled blocks are the serial ones
        assert [b[:2] for b in pooled_blocks] == [b[:2] for b in blocks]
        assert_caller_and_at_most_one_worker({thread for _, _, thread in pooled_blocks})
        assert pooled.dtype == serial.dtype and pooled.tobytes() == serial.tobytes()


@pytest.mark.usefixtures("one_blas_thread")
@pytest.mark.parametrize("rows", [1000, 4103])
def test_inference_records_nothing_on_an_active_tape(rows):
    model = training.BaseModel(ParameterSet(), [6, 64, 4], 8, np.random.default_rng(0),
                               fc_dims=[4, 32, 8])
    lh = LhClassifierNet(model.params, 4, 32, 4, np.random.default_rng(1))
    x = np.random.default_rng(2).standard_normal((rows, 6)) * 3.0
    feats = model.extractor.feature_matrix(x)
    calls = [(model.extractor.feature_matrix, x), (model.predict_classes, x),
             (lh.predict_bits, feats)]
    untaped = [run(arg) for run, arg in calls]
    with Tape() as tape:
        taped = [run(arg) for run, arg in calls]
        assert len(tape) == 0
    assert [t.tobytes() for t in taped] == [u.tobytes() for u in untaped]


def test_feature_matrix_of_no_rows_is_an_empty_feature_matrix():
    extractor = training.MlpExtractor(ParameterSet(), [6, 5, 4], np.random.default_rng(0))
    feats = extractor.feature_matrix(np.empty((0, 6)))
    assert feats.shape == (0, 4) and feats.dtype == np.float64
    with pytest.raises(ShapeError):
        extractor.feature_matrix(np.empty((0, 5)))


def test_predict_classes_of_no_rows_is_an_empty_class_vector():
    model = training.BaseModel(ParameterSet(), [6, 5, 4], 3, np.random.default_rng(0))
    classes = model.predict_classes(np.empty((0, 6)))
    assert classes.shape == (0,) and classes.dtype == np.intp
    with pytest.raises(ShapeError):
        model.predict_classes(np.empty((0, 5)))


TRAIN_D3_RUN = """
import threading
import numpy as np
from lhc import data, networks, training
spec = data.PlantedHierarchySpec(depth=3, feature_dim=32, samples_per_class=500, seed=1)
train, test = data.train_test_split(data.generate_planted(spec)[0], 0.2, 1)
config = training.RunConfig(seed=1, extractor_dims=[32, 64, 16], L=4, batch_size=64, epochs=1,
                            lh_epochs=1)
base, _ = training.train_base(train, config)
result = training.train_lh(base, train, config, test_ds=test)
table = training.random_lookup_table(train.num_classes, config.L, 1)
training.evaluate(table, result.lh, result.extractor, test)
print(threading.active_count())
result.lh.predict_bits(np.zeros((4096, 16)))
print(threading.active_count(), networks._row_block_pool() is not None)
"""


def test_a_train_d3_sized_run_starts_no_thread():
    # its calls stay under 4096 rows, so the row-block pool is never made; the
    # 4096-row call after the count shows that the count would see the pool.
    # One BLAS thread, as the bench runs it, lets the pool be made.
    src = str(Path(training.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", TRAIN_D3_RUN], capture_output=True, text=True,
                         timeout=300,
                         env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"})
    assert run.returncode == 0, run.stderr
    before, after, pooled = run.stdout.split()
    assert int(before) == 1
    assert (int(after) > 1) == (pooled == "True")
    makes_pool = networks._usable_cpus() > 1 and networks._blas_thread_getter() is not None
    assert pooled == str(makes_pool)
