import json

import pytest

from lhc.cli import main
from lhc.tree import tree_from_json

# 4 classes, 1 epoch per phase: with L=2 the learned encoding collides, with
# L=8 it is one-to-one, so both outcomes of train-lh are exercised
CONFIG = {"extractor_dims": [6, 8, 4], "L": 3, "batch_size": 16, "epochs": 1, "lh_epochs": 1,
          "c2s_hidden": 8, "s2c_hidden": 8, "lstm_hidden": 5, "val_size": 20}


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG))
    data = root / "data"
    codes = {"synth-gen": main(["synth-gen", "--depth", "2", "--feature-dim", "6",
                                "--samples-per-class", "30", "--seed", "0", "--out", str(data)]),
             "train-base": main(["train-base", "--config", str(config), "--data-dir", str(data),
                                 "--out", str(root / "base")])}
    for length in (2, 8):
        codes[f"train-lh L={length}"] = main([
            "train-lh", "--config", str(config), "--data-dir", str(data),
            "--checkpoint", str(root / "base" / "model.lhc1"), "--out", str(root / f"lh{length}"),
            "--L", str(length)])
    return root, codes


def test_synth_gen_and_train_base_succeed(run):
    root, codes = run
    assert codes["synth-gen"] == 0 and codes["train-base"] == 0
    for name in ("train.lhf1", "test.lhf1", "tree.json"):
        assert (root / "data" / name).is_file()
    assert tree_from_json((root / "data" / "tree.json").read_text()).to_table() == {
        0: "00", 1: "01", 2: "10", 3: "11"}
    for name in ("model.lhc1", "report.json", "metrics.csv", "config.json"):
        assert (root / "base" / name).is_file()


@pytest.mark.parametrize("length, collides", [(2, True), (8, False)])
def test_train_lh_exit_code_and_lookup_follow_the_collision(run, length, collides):
    root, codes = run
    out = root / f"lh{length}"
    collision = json.loads((out / "report.json").read_text())["extras"]["collision"]
    assert (collision is not None) == collides
    assert codes[f"train-lh L={length}"] == (1 if collides else 0)
    assert (out / "lookup.json").is_file() == (not collides)


@pytest.mark.parametrize("length, expected", [(2, 1), (8, 0)])
def test_eval_and_export_tree_exit_codes(run, capsys, length, expected):
    root, _ = run
    checkpoint = str(root / f"lh{length}" / "model.lhc1")
    capsys.readouterr()
    assert main(["eval", "--checkpoint", checkpoint, "--data-dir", str(root / "data")]) == expected
    capsys.readouterr()
    assert main(["export-tree", "--checkpoint", checkpoint, "--format", "json"]) == expected
    exported = capsys.readouterr().out
    if expected == 0:
        lookup = json.loads((root / f"lh{length}" / "lookup.json").read_text())
        tree = tree_from_json(exported)
        assert tree.string_length == length
        assert tree.to_table() == {e["class_id"]: e["string"] for e in lookup["entries"]}


def test_eval_on_data_with_more_classes_exits_1(run, capsys):
    root, _ = run
    assert main(["synth-gen", "--depth", "3", "--feature-dim", "6", "--samples-per-class", "5",
                 "--seed", "0", "--out", str(root / "data8")]) == 0
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(root / "lh8" / "model.lhc1"),
                 "--data-dir", str(root / "data8")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "C=4 classes" in err and "C=8 classes" in err


def test_gradcheck_passes():
    assert main(["gradcheck", "--seed", "0"]) == 0


@pytest.mark.parametrize("argv", [
    ["train-base", "--data-dir", "data"],                   # no --out
    ["synth-gen", "--feature-dim", "4", "--out", "data"],   # no --depth
    ["eval", "--data-dir", "data"],                         # no --checkpoint
    [],                                                     # no subcommand
])
def test_missing_required_argument_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_out_of_range_config_exits_1_before_training(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**CONFIG, "gamma_decay_every": 0}))
    code = main(["train-lh", "--config", str(config), "--data-dir", str(tmp_path),
                 "--checkpoint", str(tmp_path / "model.lhc1"), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "gamma_decay_every" in err
    assert not (tmp_path / "out").exists()
