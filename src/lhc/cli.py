"""Command-line entry point: synth-gen, train-base, train-lh, eval, export-tree, study, gradcheck.

Exit codes: 0 success, 1 validation or acceptance failure (e.g. a string
collision in train-lh, gradcheck above tolerance, a model too large to
allocate), 2 usage error. study records a collided run in its rows instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import data as dataio
from . import training
from .tree import export_tree

GRADCHECK_TOL = 1e-5


def _load_inputs(args):
    """--config's RunConfig with the --seed, --L and --mu overrides, and its two splits."""
    obj = {}
    if args.config:
        with open(args.config) as fh:
            obj = json.load(fh)
    config = training.RunConfig.from_dict(obj)
    for flag in ("seed", "L", "mu"):
        value = getattr(args, flag, None)
        if value is not None:
            config = replace(config, **{flag: value})
    return (config, dataio.load_split(config.dataset, args.data_dir, "train"),
            dataio.load_split(config.dataset, args.data_dir, "test"))


def _load_base_for(path, train: dataio.LabeledDataset) -> training.BaseModel:
    """The base checkpoint's model; ValueError unless it was trained on train's classes."""
    base, meta = training.load_base_model(path)
    trained = (meta["num_classes"], meta.get("class_names"))
    split = (train.num_classes, train.class_names)
    if trained != split:
        raise ValueError(f"{path} was trained on {trained[0]} classes (names {trained[1]}), "
                         f"but the training split has {split[0]} (names {split[1]})")
    return base


def _phase2_inputs(args):
    """A phase-2 command's _load_inputs, and its base model (_load_base_for)."""
    config, train, test = _load_inputs(args)
    return config, train, test, _load_base_for(args.checkpoint, train)


def _prepare_out(args, config: training.RunConfig,
                 report: training.TrainReport | None = None) -> Path:
    """The output directory with config.json, and a run's metrics.csv and report.json."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "config.json", "w") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if report is not None:
        report.write_csv(out / "metrics.csv")
        (out / "report.json").write_text(report.to_json() + "\n")
    return out


def cmd_train_base(args) -> int:
    config, train, test = _load_inputs(args)
    model, report = training.train_base(train, config, test_ds=test)
    out = _prepare_out(args, config, report)
    training.save_base_model(out / "model.lhc1", model, config, train.class_names)
    print(f"train accuracy {report.final_train_accuracy:.4f}, "
          f"test accuracy {report.final_test_accuracy:.4f}")
    return 0


def cmd_train_lh(args) -> int:
    config, train, test, base = _phase2_inputs(args)
    result = training.train_lh(base, train, config, test_ds=test)
    out = _prepare_out(args, config, result.report)
    extras = result.report.extras
    print(f"string-match test accuracy {result.report.final_test_accuracy:.4f}, "
          f"mean bit bias {extras['mean_bit_bias']:.4f}, restored epoch {extras['best_epoch']}, "
          f"{len(set(result.strings.values()))} distinct strings for {len(result.strings)} classes")
    if result.table is None:  # so no checkpoint or tree for eval and export-tree to read
        print(f"warning: {extras['collision']}", file=sys.stderr)
        return 1
    training.save_lh_result(out / "model.lhc1", result, config)
    (out / "tree.json").write_text(export_tree(result.table, "json") + "\n")
    (out / "tree.dot").write_text(export_tree(result.table, "dot"))
    return 0


def cmd_eval(args) -> int:
    artifacts = training.load_lh_result(args.checkpoint)
    test = dataio.load_split(artifacts.config.dataset, args.data_dir, "test")
    result = training.evaluate(artifacts.table, artifacts.lh, artifacts.extractor, test)
    print(f"accuracy {result.accuracy:.4f} over {result.num_samples} samples "
          f"({result.num_no_match} with no matching string)")
    for i, acc in enumerate(result.per_bit_accuracy, start=1):
        print(f"bit {i} accuracy {acc:.4f}")
    return 0


def cmd_export_tree(args) -> int:
    artifacts = training.load_lh_result(args.checkpoint)
    sys.stdout.write(export_tree(artifacts.table, args.format))
    return 0


def cmd_study(args) -> int:
    config, train, test, base = _phase2_inputs(args)
    lengths = [config.L] if args.l_values is None else [int(v) for v in args.l_values.split(",")]
    rows = training.study(base, train, test, config, lengths)
    out = _prepare_out(args, config)
    (out / "study.json").write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
    for learned, random in zip(rows[0::2], rows[1::2]):  # study's rows pair up by L
        acc, chance = learned["test_accuracy"], random["test_accuracy"]
        print(f"L={learned['L']}: learned accuracy {acc:.4f}"
              + (" (collision)" if learned["collision"] else "")
              + f", random accuracy {chance:.4f}, delta {acc - chance:+.4f}")
    return 0


def cmd_gradcheck(args) -> int:
    seed = args.seed if args.seed is not None else 0
    errors = training.gradcheck_report(seed)
    worst = max(errors.values())
    for name, err in errors.items():
        print(f"{name}: max relative error {err:.3e}")
    print(f"worst {worst:.3e} ({'ok' if worst < GRADCHECK_TOL else 'FAIL'} "
          f"at tolerance {GRADCHECK_TOL:g})")
    return 0 if worst < GRADCHECK_TOL else 1


def cmd_synth_gen(args) -> int:
    spec = dataio.PlantedHierarchySpec(
        depth=args.depth, feature_dim=args.feature_dim, sigma_level=args.sigma_level,
        sigma_within=args.sigma_within, samples_per_class=args.samples_per_class,
        seed=args.seed if args.seed is not None else 0)
    if spec.num_classes > dataio.LHF1_MAX_CLASSES:
        raise ValueError(f"depth {spec.depth} gives {spec.num_classes} classes, but LHF1 "
                         f"holds at most {dataio.LHF1_MAX_CLASSES}")
    dataio.check_test_fraction(args.test_fraction)
    dataset, truth = dataio.generate_planted(spec)
    train, test = dataio.train_test_split(dataset, args.test_fraction, spec.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataio.save_features(out / "train.lhf1", train)
    dataio.save_features(out / "test.lhf1", test)
    (out / "tree.json").write_text(export_tree(truth, "json") + "\n")
    print(f"wrote {len(train)} train / {len(test)} test rows for "
          f"{spec.num_classes} classes to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lhc",
                                     description="Latent-hierarchy classifier toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True, data=True, out=True, checkpoint=False):
        if config:
            p.add_argument("--config", help="run config JSON path")
            p.add_argument("--seed", type=int, help="override config seed")
        if data:
            p.add_argument("--data-dir", required=True, help="dataset directory")
        if out:
            p.add_argument("--out", required=True, help="run output directory")
        if checkpoint:
            p.add_argument("--checkpoint", required=True, help="model checkpoint path")

    p = sub.add_parser("train-base", help="phase 1: train extractor + FC classifier")
    common(p)
    p.set_defaults(func=cmd_train_base)

    p = sub.add_parser("train-lh", help="phase 2: train the string classifier trio")
    common(p, checkpoint=True)
    p.add_argument("--L", type=int, help="override string length")
    p.add_argument("--mu", type=float, help="override position decay")
    p.set_defaults(func=cmd_train_lh)

    p = sub.add_parser("eval", help="evaluate a phase-2 checkpoint on the test split")
    common(p, config=False, out=False, checkpoint=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-tree", help="print the learned hierarchy")
    common(p, config=False, data=False, out=False, checkpoint=True)
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.set_defaults(func=cmd_export_tree)

    p = sub.add_parser("study", help="learned vs random table accuracy at each string length")
    common(p, checkpoint=True)
    p.add_argument("--l-values", help="comma-separated lengths, e.g. 4,6,8 (default: config L)")
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("gradcheck", help="finite-difference check of every loss term")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("synth-gen", help="generate a planted-hierarchy dataset")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--feature-dim", type=int, required=True)
    p.add_argument("--sigma-level", type=float, default=1.0)
    p.add_argument("--sigma-within", type=float, default=0.1)
    p.add_argument("--samples-per-class", type=int, default=200)
    p.add_argument("--test-fraction", type=float, default=0.25)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
