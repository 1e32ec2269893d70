"""Command-line entry point.

Exit codes: 0 success, 1 validation or acceptance failure (e.g. a string
collision, gradcheck above tolerance), 2 usage error.
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


def _load_config(args) -> training.RunConfig:
    obj = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            obj = json.load(fh)
    config = training.RunConfig.from_dict(obj)
    for flag in ("seed", "L", "mu"):
        value = getattr(args, flag, None)
        if value is not None:
            config = replace(config, **{flag: value})
    return config


def _load_split_datasets(config: training.RunConfig, data_dir: str):
    return (dataio.load_split(config.dataset, data_dir, "train"),
            dataio.load_split(config.dataset, data_dir, "test"))


def _prepare_out(args, config: training.RunConfig) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "config.json", "w") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out


def cmd_train_base(args) -> int:
    config = _load_config(args)
    train, test = _load_split_datasets(config, args.data_dir)
    model, report = training.train_base(train, config, test_ds=test)
    out = _prepare_out(args, config)
    training.save_base_model(out / "model.lhc1", model, config, train.class_names)
    report.write_csv(out / "metrics.csv")
    (out / "report.json").write_text(report.to_json() + "\n")
    print(f"train accuracy {report.final_train_accuracy:.4f}, "
          f"test accuracy {report.final_test_accuracy:.4f}")
    return 0


def cmd_train_lh(args) -> int:
    config = _load_config(args)
    train, test = _load_split_datasets(config, args.data_dir)
    base, _ = training.load_base_model(args.checkpoint)
    result = training.train_lh(base, train, config, test_ds=test)
    out = _prepare_out(args, config)
    result.report.write_csv(out / "metrics.csv")
    (out / "report.json").write_text(result.report.to_json() + "\n")
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


def cmd_ablate(args) -> int:
    config = _load_config(args)
    train, test = _load_split_datasets(config, args.data_dir)
    base, _ = training.load_base_model(args.checkpoint)
    learned = training.train_lh(base, train, config, test_ds=test).report.final_test_accuracy
    table = training.random_lookup_table(train.num_classes, config.L, config.seed,
                                         class_names=train.class_names)
    random = training.train_fixed_embedding(base, train, table, config,
                                            test_ds=test)[1].final_test_accuracy
    print(f"learned embedding accuracy {learned:.4f}, random embedding accuracy {random:.4f}, "
          f"delta {learned - random:+.4f}")
    if args.out:
        out = _prepare_out(args, config)
        with open(out / "ablation.json", "w") as fh:
            json.dump({"learned_accuracy": learned, "random_accuracy": random,
                       "delta": learned - random}, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def cmd_sweep_l(args) -> int:
    config = _load_config(args)
    train, test = _load_split_datasets(config, args.data_dir)
    base, _ = training.load_base_model(args.checkpoint)
    l_values = [int(v) for v in args.l_values.split(",")]
    points = training.sweep_string_length(base, train, test, l_values, config)
    out = _prepare_out(args, config)
    with open(out / "sweep.csv", "w") as fh:
        fh.write("L,accuracy,collision\n")
        for point in points:
            fh.write(f"{point['L']},{point['accuracy']!r},{int(point['collision'])}\n")
    for point in points:
        print(f"L={point['L']}: accuracy {point['accuracy']:.4f}"
              + (" (collision)" if point["collision"] else ""))
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
    if not 0 < args.test_fraction < 1:  # False for NaN too
        raise ValueError(f"test_fraction must lie in (0, 1), got {args.test_fraction}")
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

    p = sub.add_parser("ablate", help="learned vs random embedding accuracy")
    common(p, out=False, checkpoint=True)
    p.add_argument("--out", help="optional output directory")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep-l", help="accuracy across string lengths")
    common(p, checkpoint=True)
    p.add_argument("--l-values", required=True, help="comma-separated lengths, e.g. 4,6,8")
    p.set_defaults(func=cmd_sweep_l)

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
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
