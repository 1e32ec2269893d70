import csv
import gzip
import json
import re
import shutil
import struct

import numpy as np
import pytest

from lhc import data, training
from lhc.cli import main
from lhc.networks import Class2StrNet, Str2ClassNet
from lhc.nn import load_checkpoint, save_checkpoint
from lhc.tree import tree_from_json
from test_data import GZ_DAMAGE, mnist_dir  # noqa: F401 (a fixture)

# 4 classes, 1 epoch per phase: with L=2 the learned encoding collides, with
# L=8 it is one-to-one, so both outcomes of train-lh are exercised
CONFIG = {"extractor_dims": [6, 8, 4], "L": 3, "batch_size": 16, "epochs": 1, "lh_epochs": 1,
          "c2s_hidden": 8, "s2c_hidden": 8, "lstm_hidden": 5, "val_size": 20}
# the config is config.json's alone; report.json holds only what the run measured
REPORT_KEYS = {"extras", "final_test_accuracy", "final_train_accuracy", "rows",
               "wall_clock_seconds"}


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
    assert tree_from_json((root / "data" / "tree.json").read_text()).class_to_string == {
        0: "00", 1: "01", 2: "10", 3: "11"}
    for name in ("model.lhc1", "report.json", "metrics.csv", "config.json"):
        assert (root / "base" / name).is_file()
    assert set(json.loads((root / "base" / "report.json").read_text())) == REPORT_KEYS


@pytest.mark.parametrize("length, collides", [(2, True), (8, False)])
def test_train_lh_exit_code_and_lookup_follow_the_collision(run, length, collides):
    root, codes = run
    out = root / f"lh{length}"
    report = json.loads((out / "report.json").read_text())
    assert set(report) == REPORT_KEYS
    assert (report["extras"]["collision"] is not None) == collides
    assert codes[f"train-lh L={length}"] == (1 if collides else 0)
    # tree.json is the run's one record of the learned class-to-string mapping, and the
    # checkpoint holds its leaves: a collided run has neither
    for name in ("tree.json", "tree.dot", "model.lhc1"):
        assert (out / name).is_file() == (not collides)
    assert not (out / "lookup.json").exists()


@pytest.mark.parametrize("length, collides", [(2, True), (8, False)])
def test_train_lh_prints_the_restored_epoch_and_the_count_of_distinct_strings(run, tmp_path,
                                                                              capsys, length,
                                                                              collides):
    root, _ = run
    capsys.readouterr()
    main(["train-lh", "--config", str(root / "config.json"), "--data-dir", str(root / "data"),
          "--checkpoint", str(root / "base" / "model.lhc1"), "--out", str(tmp_path),
          "--L", str(length)])
    printed = capsys.readouterr().out
    extras = json.loads((tmp_path / "report.json").read_text())["extras"]
    if collides:
        # a pair (a, b), a < b, says class b repeats the string of a class before it
        pairs = re.findall(r"classes (\d+) and (\d+)", extras["collision"])
        distinct = 4 - len({b for _, b in pairs})
    else:
        distinct = len(set(tree_from_json((tmp_path / "tree.json").read_text())
                           .class_to_string.values()))
    assert (distinct < 4) == collides
    assert printed.startswith("string-match test accuracy ") and printed.count("\n") == 1
    assert printed.endswith(f", restored epoch {extras['best_epoch']}, "
                            f"{distinct} distinct strings for 4 classes\n")


@pytest.mark.parametrize("length, expected", [(2, 1), (8, 0)])
def test_eval_and_export_tree_exit_codes(run, capsys, length, expected):
    root, _ = run
    checkpoint = str(root / f"lh{length}" / "model.lhc1")
    capsys.readouterr()
    assert main(["eval", "--checkpoint", checkpoint, "--data-dir", str(root / "data")]) == expected
    eval_err = capsys.readouterr().err
    assert main(["export-tree", "--checkpoint", checkpoint, "--format", "json"]) == expected
    exported, export_err = capsys.readouterr()
    if expected == 1:
        # the collided run wrote no checkpoint: one error line names the missing file
        for err in (eval_err, export_err):
            assert err.startswith("error:") and err.count("\n") == 1 and checkpoint in err
            assert "Traceback" not in err
    else:
        # the checkpoint rebuilds the mapping that train-lh wrote
        assert exported + "\n" == (root / f"lh{length}" / "tree.json").read_text()
        tree = tree_from_json(exported)
        assert tree.string_length == length and sorted(tree.class_to_string) == [0, 1, 2, 3]


def test_train_base_train_lh_and_eval_read_mnist(mnist_dir, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**CONFIG, "dataset": "mnist", "extractor_dims": [784, 8, 4],
                                  "L": 8}))
    data_dir = str(mnist_dir)
    base, lh = tmp_path / "base", tmp_path / "lh"
    assert main(["train-base", "--config", str(config), "--data-dir", data_dir,
                 "--out", str(base)]) == 0
    lh_code = main(["train-lh", "--config", str(config), "--data-dir", data_dir,
                    "--checkpoint", str(base / "model.lhc1"), "--out", str(lh)])
    for path in mnist_dir.glob("train-*"):  # eval reads only the t10k files
        path.unlink()
    eval_code = main(["eval", "--checkpoint", str(lh / "model.lhc1"), "--data-dir", data_dir])
    collides = json.loads((lh / "report.json").read_text())["extras"]["collision"] is not None
    assert lh_code == eval_code == (1 if collides else 0)
    assert (lh / "tree.json").is_file() == (not collides)
    if not collides:
        tree = tree_from_json((lh / "tree.json").read_text())
        assert tree.class_names == [str(d) for d in range(10)]
        assert "over 12 samples" in capsys.readouterr().out


def test_a_damaged_mnist_header_exits_1_with_an_error_line(mnist_dir, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**CONFIG, "dataset": "mnist", "extractor_dims": [784, 8, 4]}))
    images = mnist_dir / "train-images-idx3-ubyte"
    raw = images.read_bytes()
    images.write_bytes(raw[:4] + struct.pack(">III", 60000, 65536, 65536) + raw[16:])
    code = main(["train-base", "--config", str(config), "--data-dir", str(mnist_dir),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "train-images-idx3-ubyte" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


@pytest.mark.parametrize("damage", sorted(GZ_DAMAGE))
def test_a_damaged_gz_mnist_file_exits_1_with_an_error_line(mnist_dir, tmp_path, capsys,
                                                            damage):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**CONFIG, "dataset": "mnist", "extractor_dims": [784, 8, 4]}))
    images = mnist_dir / "train-images-idx3-ubyte"
    (mnist_dir / (images.name + ".gz")).write_bytes(GZ_DAMAGE[damage](gzip.compress(
        images.read_bytes())))
    images.unlink()
    code = main(["train-base", "--config", str(config), "--data-dir", str(mnist_dir),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "train-images-idx3-ubyte.gz: damaged gzip data" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


def test_eval_of_an_lh_checkpoint_that_keeps_str2class_exits_1(run, tmp_path, capsys):
    # the layouts train-lh wrote before the table's leaves replaced Class2Str in the
    # checkpoint, and before that, before Str2Class left it
    root, _ = run
    params, meta = load_checkpoint(root / "lh8" / "model.lhc1")
    old_meta = {"kind": "lh", "config": meta["config"], "num_classes": 4, "class_names": None}
    rng = np.random.default_rng(0)
    Class2StrNet(params, 4, 8, rng, hidden_dim=CONFIG["c2s_hidden"])
    save_checkpoint(tmp_path / "class2str.lhc1", params, old_meta)
    Str2ClassNet(params, 4, 8, rng, hidden_dim=CONFIG["s2c_hidden"])
    save_checkpoint(tmp_path / "str2class.lhc1", params, old_meta)
    for name, extra in [("class2str", []), ("str2class", ["str2class.fc1.weight"])]:
        path = tmp_path / f"{name}.lhc1"
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(path), "--data-dir", str(root / "data")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert f"{path}: parameter name mismatch" in err.splitlines()[0]
        assert all(n in err for n in ["class2str.heads.weight", "class2str.trunk.bias", *extra])


def test_eval_reads_only_the_test_split(run, capsys):
    root, _ = run
    checkpoint = str(root / "lh8" / "model.lhc1")
    only_test = root / "test-only"
    only_test.mkdir()
    shutil.copy(root / "data" / "test.lhf1", only_test)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", checkpoint, "--data-dir", str(root / "data")]) == 0
    full = capsys.readouterr().out
    assert main(["eval", "--checkpoint", checkpoint, "--data-dir", str(only_test)]) == 0
    assert capsys.readouterr().out == full


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


@pytest.mark.parametrize("command, edit, flags, field", [
    ("train-lh", {"gamma_decay_every": 0}, [], "gamma_decay_every"),
    ("train-base", {"delta": -1}, [], "delta"),
    ("train-base", {"mu": 1.5}, [], "mu"),
    ("train-lh", {}, ["--mu", "1.5"], "mu"),
    ("train-lh", {"lstm_layers": 3}, [], "lstm_layers"),
    ("train-lh", {"lstm_layers": 2}, [], "lstm_layers"),
], ids=["train-lh gamma_decay_every 0", "train-base delta -1", "train-base mu 1.5",
        "train-lh --mu 1.5", "train-lh lstm_layers 3", "train-lh lstm_layers 2"])
def test_out_of_range_config_exits_1_before_training(tmp_path, capsys, command, edit, flags,
                                                     field):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**CONFIG, **edit}))
    checkpoint = ["--checkpoint", str(tmp_path / "model.lhc1")] if command == "train-lh" else []
    code = main([command, "--config", str(config), "--data-dir", str(tmp_path), *checkpoint,
                 "--out", str(tmp_path / "out"), *flags])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, edit, flags, message", [
    ("train-base", {"extractor_dims": [5, 8, 4]}, [], "does not match data dim 6"),
    ("train-lh", {"extractor_dims": [6, 32, 32, 9]}, [], "do not match the base model"),
    ("train-lh", {}, ["--L", "1"], "L=1 cannot embed 4 classes"),
], ids=["train-base extractor [5, 8, 4]", "train-lh extractor [6, 32, 32, 9]", "train-lh L 1"])
def test_a_rejected_run_leaves_no_output_directory(run, tmp_path, capsys, command, edit, flags,
                                                   message):
    root, _ = run
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**CONFIG, **edit}))
    out = tmp_path / "out"
    checkpoint = (["--checkpoint", str(root / "base" / "model.lhc1")]
                  if command == "train-lh" else [])
    capsys.readouterr()
    code = main([command, "--config", str(config), "--data-dir", str(root / "data"),
                 *checkpoint, "--out", str(out), *flags])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


def test_synth_gen_rejects_more_classes_than_lhf1_holds_before_generating(tmp_path, capsys,
                                                                          monkeypatch):
    def no_work(spec):
        raise AssertionError("generate_planted ran for a dataset LHF1 cannot store")

    monkeypatch.setattr(data, "generate_planted", no_work)
    code = main(["synth-gen", "--depth", "16", "--feature-dim", "2", "--out",
                 str(tmp_path / "data")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "65536 classes" in err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("flag, value", [("--sigma-within", "nan"), ("--sigma-level", "inf")])
def test_synth_gen_rejects_a_non_finite_sigma_before_generating(tmp_path, capsys, monkeypatch,
                                                                 flag, value):
    def no_work(spec):
        raise AssertionError("generate_planted ran for a spec with a non-finite sigma")

    monkeypatch.setattr(data, "generate_planted", no_work)
    code = main(["synth-gen", "--depth", "2", "--feature-dim", "2", flag, value, "--out",
                 str(tmp_path / "data")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag[2:].replace("-", "_") in err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("fraction", ["1.5", "nan", "0"])
def test_synth_gen_rejects_a_test_fraction_outside_0_1_before_generating(tmp_path, capsys,
                                                                         monkeypatch, fraction):
    def no_work(spec):
        raise AssertionError("generate_planted ran for a test fraction that cannot split it")

    monkeypatch.setattr(data, "generate_planted", no_work)
    code = main(["synth-gen", "--depth", "2", "--feature-dim", "2", "--test-fraction", fraction,
                 "--out", str(tmp_path / "data")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "test_fraction" in err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("document", ["[]", "3", "null", '"ab"'])
def test_config_that_is_not_an_object_exits_1(tmp_path, capsys, document):
    config = tmp_path / "config.json"
    config.write_text(document)
    code = main(["train-base", "--config", str(config), "--data-dir", str(tmp_path),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "config must be a JSON object" in err
    assert not (tmp_path / "out").exists()


def test_sweep_l_writes_one_row_per_length(run):
    root, _ = run
    code = main(["sweep-l", "--config", str(root / "config.json"), "--data-dir",
                 str(root / "data"), "--checkpoint", str(root / "base" / "model.lhc1"),
                 "--out", str(root / "sweep"), "--l-values", "2,3"])
    assert code == 0
    with open(root / "sweep" / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["L"] for row in rows] == ["2", "3"]
    assert all(0.0 <= float(row["accuracy"]) <= 1.0 and row["collision"] in "01"
               for row in rows)


def test_sweep_l_rejects_a_too_short_length_before_any_training(run, monkeypatch, capsys):
    root, _ = run

    def no_work(*args, **kwargs):
        raise AssertionError("train_lh ran before every length was checked")

    monkeypatch.setattr(training, "train_lh", no_work)
    capsys.readouterr()
    code = main(["sweep-l", "--config", str(root / "config.json"), "--data-dir",
                 str(root / "data"), "--checkpoint", str(root / "base" / "model.lhc1"),
                 "--out", str(root / "sweep-short"), "--l-values", "1,3"])
    assert code == 1
    assert "L=1 cannot embed 4 classes" in capsys.readouterr().err
    assert not (root / "sweep-short").exists()


def test_ablate_writes_learned_minus_random(run):
    root, _ = run
    code = main(["ablate", "--config", str(root / "config.json"), "--data-dir",
                 str(root / "data"), "--checkpoint", str(root / "base" / "model.lhc1"),
                 "--out", str(root / "ablate")])
    assert code == 0
    result = json.loads((root / "ablate" / "ablation.json").read_text())
    assert result["delta"] == result["learned_accuracy"] - result["random_accuracy"]
