import numpy as np
import pytest

from lhc import training
from lhc.data import PlantedHierarchySpec, generate_planted
from lhc.networks import Class2StrNet, LhClassifierNet, Str2ClassNet, StringLookupTable
from lhc.nn import Adam, CheckpointError, ParameterSet, save_checkpoint

STRINGS = ["011", "100", "110", "001"]


def rigged_lh_params(config: training.RunConfig) -> ParameterSet:
    """An lh parameter set, built as load_lh_result builds it, encoding class c as STRINGS[c]."""
    rng = np.random.default_rng(3)
    params = ParameterSet()
    training.MlpExtractor(params, config.extractor_dims, rng)
    params.freeze_prefix("extractor.")
    c2s = Class2StrNet(params, len(STRINGS), config.L, rng, hidden_dim=config.c2s_hidden)
    Str2ClassNet(params, len(STRINGS), config.L, rng, hidden_dim=config.s2c_hidden)
    LhClassifierNet(params, config.extractor_dims[-1], config.lstm_hidden, config.L, rng)
    c2s.trunk.weight.data[...] = 3.0 * np.eye(len(STRINGS))
    w = c2s.heads.weight.data
    w[0::2] = rng.uniform(-0.2, 0.2, size=w[0::2].shape)  # P(bit = 0) logits
    w[1::2] = np.array([[1.0 if s[i] == "1" else -1.0 for s in STRINGS]
                        for i in range(config.L)]) * rng.uniform(0.5, 2.0, size=w[1::2].shape)
    c2s.heads.bias.data[...] = rng.uniform(-0.1, 0.1, size=2 * config.L)
    return params


def as_v1(params: ParameterSet, length: int) -> ParameterSet:
    """The same values under the version-1 names: one class2str.head{i} layer per bit."""
    out = ParameterSet()
    for name, t in params.items():
        if name == "class2str.heads.weight":
            bias = params["class2str.heads.bias"].data
            for i in range(length):
                out.add(f"class2str.head{i}.weight", t.data[2 * i:2 * i + 2])
                out.add(f"class2str.head{i}.bias", bias[2 * i:2 * i + 2])
        elif name != "class2str.heads.bias":
            out.add(name, t.data)
    out.freeze(params.frozen_names())
    return out


def test_version_1_lh_checkpoint_loads_to_the_same_strings(tmp_path):
    config = training.RunConfig(extractor_dims=[6, 5, 4], L=3, lstm_hidden=5, c2s_hidden=4,
                                s2c_hidden=8)
    params = rigged_lh_params(config)
    meta = {"kind": "lh", "config": config.to_dict(), "num_classes": len(STRINGS),
            "feature_dim": 4, "extractor_dims": config.extractor_dims, "class_names": None}
    save_checkpoint(tmp_path / "v2.lhc1", params, meta)
    save_checkpoint(tmp_path / "v1.lhc1", as_v1(params, config.L), meta)
    raw = (tmp_path / "v1.lhc1").read_bytes()
    assert raw.count(b'"format_version": 2') == 1
    (tmp_path / "v1.lhc1").write_bytes(raw.replace(b'"format_version": 2', b'"format_version": 1'))

    new = training.load_lh_result(tmp_path / "v2.lhc1")
    old = training.load_lh_result(tmp_path / "v1.lhc1")
    assert new.table.class_to_string == dict(enumerate(STRINGS))
    assert old.table.class_to_string == new.table.class_to_string
    assert old.params.names() == new.params.names()
    assert old.params.tobytes() == new.params.tobytes()
    assert old.params.frozen_names() == new.params.frozen_names()

    (tmp_path / "v3.lhc1").write_bytes(raw.replace(b'"format_version": 2', b'"format_version": 3'))
    with pytest.raises(CheckpointError, match="version"):
        training.load_lh_result(tmp_path / "v3.lhc1")


@pytest.fixture(scope="module")
def planted():
    ds, _ = generate_planted(PlantedHierarchySpec(depth=2, feature_dim=6, samples_per_class=30,
                                                  seed=0))
    config = training.RunConfig(extractor_dims=[6, 8, 4], L=3, batch_size=16, epochs=1,
                                lh_epochs=1, c2s_hidden=8, s2c_hidden=8, lstm_hidden=5)
    base, _ = training.train_base(ds, config)
    return ds, config, base


def test_train_lh_raises_when_the_frozen_extractor_changes(planted, monkeypatch):
    ds, config, base = planted

    class TamperingAdam(Adam):
        def step(self):
            super().step()
            self.params["extractor.0.weight"].data[0, 0] += 1.0

    monkeypatch.setattr(training, "Adam", TamperingAdam)
    with pytest.raises(training.FrozenExtractorChanged):
        training.train_lh(base, ds, config)


def test_evaluate_counts_strings_missing_from_the_table(planted):
    ds, config, base = planted
    rng = np.random.default_rng(5)
    lh = LhClassifierNet(ParameterSet(), 4, 5, config.L, rng)
    for t in lh.tensors():
        t.data *= 4.0  # spread the predicted strings over many of the 2^L values
    table = StringLookupTable({0: "000", 1: "011", 2: "101", 3: "110"})
    result = training.evaluate(table, lh, base, ds)

    # reference: the per-row string lookup
    predicted = lh.predict_bits(base.extractor.feature_matrix(ds.features))
    expected = sum(1 for row in predicted if "".join(map(str, row)) not in table.string_to_class)
    assert 0 < expected < len(ds)
    assert result.num_no_match == expected
