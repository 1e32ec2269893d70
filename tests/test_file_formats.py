"""Property tests of every reader: exact round trips, and typed errors on damage.

Each reader is fed its writer's output, and that output with one bit
flipped or cut short. A damaged file may load (a flipped payload bit is
still a number), but any failure must be the reader's own typed error.
The examples are derandomized, so every run checks the same inputs.
"""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lhc import training
from lhc.data import DataFormatError, LabeledDataset, load_features, save_features
from lhc.networks import StringLookupTable
from lhc.nn import CheckpointError, ParameterSet, load_checkpoint, save_checkpoint
from lhc.tree import export_tree, tree_from_json

from test_training import checkpoint_parts

SETTINGS = dict(derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def flip(raw: bytes, bit: int) -> bytes:
    out = bytearray(raw)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def damaged(data, raw: bytes, flip_below: int | None = None) -> bytes:
    """raw with one bit flipped (in its first flip_below bytes, if given), or a strict prefix."""
    if data.draw(st.booleans(), label="truncate"):
        return raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    limit = len(raw) if flip_below is None else flip_below
    return flip(raw, data.draw(st.integers(0, 8 * limit - 1), label="bit"))


# -------------------------------------------------------------------- LHF1

@st.composite
def datasets(draw):
    rows = draw(st.integers(1, 5))
    dim = draw(st.integers(1, 4))
    classes = draw(st.integers(1, 5))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=rows * dim, max_size=rows * dim))
    labels = draw(st.lists(st.integers(0, classes - 1), min_size=rows, max_size=rows))
    return LabeledDataset(np.array(values).reshape(rows, dim), np.array(labels), classes)


def lhf1_fields(ds: LabeledDataset):
    return ds.features.tobytes(), ds.labels.tolist(), ds.num_classes


@settings(max_examples=30, **SETTINGS)
@given(ds=datasets())
def test_lhf1_round_trip_is_exact(tmp_path, ds):
    save_features(tmp_path / "d.lhf1", ds)
    assert lhf1_fields(load_features(tmp_path / "d.lhf1")) == lhf1_fields(ds)


@settings(max_examples=80, **SETTINGS)
@given(ds=datasets(), data=st.data())
def test_damaged_lhf1_raises_data_format_error_or_loads_something_else(tmp_path, ds, data):
    save_features(tmp_path / "d.lhf1", ds)
    raw = (tmp_path / "d.lhf1").read_bytes()
    bad = damaged(data, raw)
    (tmp_path / "d.lhf1").write_bytes(bad)
    try:
        loaded = load_features(tmp_path / "d.lhf1")
    except DataFormatError:
        return
    # every byte of the layout means something, so a damaged file never reads as the original
    assert len(bad) == len(raw)
    assert lhf1_fields(loaded) != lhf1_fields(ds)


# -------------------------------------------------------------------- LHC1

json_scalars = st.one_of(st.none(), st.booleans(), st.integers(-10**6, 10**6),
                         st.floats(allow_nan=False), st.text(max_size=4))


@st.composite
def parameter_sets(draw):
    names = draw(st.lists(st.text(min_size=1, max_size=6), max_size=3, unique=True))
    params = ParameterSet()
    for name in names:
        shape = draw(st.lists(st.integers(0, 3), max_size=2))
        size = int(np.prod(shape, dtype=np.int64))
        # any float64 bit pattern, NaNs included, must come back unchanged
        words = draw(st.lists(st.integers(0, 2**64 - 1), min_size=size, max_size=size))
        params.add(name, np.array(words, dtype=np.uint64).view(np.float64).reshape(shape))
    params.freeze([n for n in names if draw(st.booleans())])
    return params, draw(st.dictionaries(st.text(max_size=4), json_scalars, max_size=3))


def lhc1_fields(params: ParameterSet, hyperparams: dict):
    return ([(n, t.data.shape, t.data.tobytes()) for n, t in params.items()],
            params.frozen_names(), hyperparams)


@settings(max_examples=30, **SETTINGS)
@given(saved=parameter_sets())
def test_lhc1_round_trip_is_exact(tmp_path, saved):
    save_checkpoint(tmp_path / "m.lhc1", *saved)
    assert lhc1_fields(*load_checkpoint(tmp_path / "m.lhc1")) == lhc1_fields(*saved)


@settings(max_examples=80, **SETTINGS)
@given(saved=parameter_sets(), data=st.data())
def test_damaged_lhc1_raises_checkpoint_error_or_loads(tmp_path, saved, data):
    save_checkpoint(tmp_path / "m.lhc1", *saved)
    raw = (tmp_path / "m.lhc1").read_bytes()
    bad = damaged(data, raw)
    (tmp_path / "m.lhc1").write_bytes(bad)
    try:
        load_checkpoint(tmp_path / "m.lhc1")
    except CheckpointError:
        return
    assert len(bad) == len(raw)  # a cut-short file never loads


MODEL_LOADERS = {"base": training.load_base_model, "lh": training.load_lh_result}


@pytest.fixture(scope="module")
def model_checkpoints(tmp_path_factory):
    """The bytes of a base and an lh checkpoint, and the parameters and metadata saved."""
    out = {}
    for kind in MODEL_LOADERS:
        params, meta = checkpoint_parts(kind)
        path = tmp_path_factory.mktemp(kind) / "model.lhc1"
        save_checkpoint(path, params, meta)
        out[kind] = path.read_bytes(), params, meta
    return out


@pytest.mark.parametrize("kind", sorted(MODEL_LOADERS))
def test_model_checkpoints_round_trip_exactly(tmp_path, model_checkpoints, kind):
    raw, params, meta = model_checkpoints[kind]
    (tmp_path / "model.lhc1").write_bytes(raw)
    loaded = MODEL_LOADERS[kind](tmp_path / "model.lhc1")
    if kind == "base":
        loaded_params = loaded[0].params
        assert loaded[1] == meta
    else:
        # an lh checkpoint's metadata lives on as its config and its table's classes
        loaded_params = loaded.params
        assert loaded.config.to_dict() == meta["config"]
        assert (loaded.table.num_classes, loaded.table.class_names) == (meta["num_classes"],
                                                                        meta["class_names"])
    assert loaded_params.names() == params.names()
    assert loaded_params.tobytes() == params.tobytes()
    assert loaded_params.frozen_names() == params.frozen_names()


@pytest.mark.parametrize("kind", sorted(MODEL_LOADERS))
@settings(max_examples=60, **SETTINGS)
@given(data=st.data())
def test_damaged_model_metadata_raises_checkpoint_error_or_loads(tmp_path, model_checkpoints,
                                                                 kind, data):
    # flips stay in the header and manifest: payload bits are parameter values,
    # which load_checkpoint's own test already damages
    raw = model_checkpoints[kind][0]
    (manifest_len,) = struct.unpack("<I", raw[4:8])
    bad = damaged(data, raw, flip_below=8 + manifest_len)
    (tmp_path / "model.lhc1").write_bytes(bad)
    try:
        MODEL_LOADERS[kind](tmp_path / "model.lhc1")
    except CheckpointError:
        return
    assert len(bad) == len(raw)


# --------------------------------------------------------------------- tree JSON

@st.composite
def tables(draw):
    length = draw(st.integers(1, 5))
    codes = draw(st.lists(st.integers(0, 2**length - 1), min_size=1, max_size=6, unique=True))
    ids = sorted(draw(st.lists(st.integers(-3, 40), min_size=len(codes), max_size=len(codes),
                               unique=True)))
    names = draw(st.lists(st.text(max_size=4), min_size=len(codes), max_size=len(codes)))
    return StringLookupTable({c: format(v, f"0{length}b") for c, v in zip(ids, codes)},
                             class_names=names)


def damaged_text(data, text: str) -> str:
    # every byte stands for one character, so a flipped high bit is a character too
    return damaged(data, text.encode("utf-8")).decode("latin-1")


@settings(max_examples=30, **SETTINGS)
@given(table=tables())
def test_tree_json_round_trip_is_exact(table):
    text = export_tree(table, "json")
    clone = tree_from_json(text)
    assert clone.class_to_string == table.class_to_string
    assert clone.class_names == table.class_names
    assert export_tree(clone, "json") == text


@settings(max_examples=80, **SETTINGS)
@given(table=tables(), data=st.data())
def test_damaged_tree_json_raises_value_error_or_loads(table, data):
    try:
        tree_from_json(damaged_text(data, export_tree(table, "json")))
    except ValueError:
        pass
