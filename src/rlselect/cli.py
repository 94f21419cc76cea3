"""Command-line front end.

Subcommands: train, evaluate, compare, stability, curves, timing, featurize.
Precedence for settings is flag > config file > built-in default. Exit codes:
0 success, 1 usage or config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import featurize, harness
from .baselines import random_subset
from .classifiers import ClassifierKind
from .dataset import SampleMatrix
from .harness import COMPARE_METHODS, ConfigError, RunConfig, load_matrix, sub_seed


class _UsageExit(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is exit code 1
    def error(self, message):
        raise _UsageExit(message)


def _int_list(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _at_least(minimum: int, parse=int):
    """argparse type: ``parse(text)``, an int or a nonempty list of ints, with every value >= ``minimum``."""

    def checked(text: str):
        try:
            value = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value == []:
            raise argparse.ArgumentTypeError("expected at least one integer")
        for v in value if isinstance(value, list) else [value]:
            if v < minimum:
                raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {v}")
        return value

    return checked


def _subset(text: str) -> list[int]:
    """argparse type for --subset: nonempty, distinct, 0-based column indices."""
    subset = _at_least(0, _int_list)(text)
    if len(set(subset)) != len(subset):
        raise argparse.ArgumentTypeError(f"duplicate index in {text!r}")
    return subset


def _classifiers(text: str) -> list[ClassifierKind]:
    """argparse type for --classifiers: comma-separated classifier names."""
    try:
        return [ClassifierKind(token.strip().lower()) for token in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _methods(text: str) -> list[str]:
    """argparse type for --methods: a nonempty comma-separated list of compare methods."""
    methods = [m.strip() for m in text.split(",") if m.strip()]
    if not methods:
        raise argparse.ArgumentTypeError("expected at least one method")
    for m in methods:
        if m not in COMPARE_METHODS:
            raise argparse.ArgumentTypeError(f"unknown method {m!r} (use {', '.join(COMPARE_METHODS)})")
    return methods


def _check_against_matrix(args, matrix: SampleMatrix) -> None:
    """The flags whose bounds come from the data, checked once the matrix is loaded.

    Column indices and subset sizes must fit the matrix width; a fold count
    must not exceed the smaller class.
    """
    width = matrix.n_features
    if getattr(args, "subset", None) and max(args.subset) >= width:
        raise ConfigError(f"argument --subset: index {max(args.subset)} outside 0..{width - 1}")
    if getattr(args, "sizes", None) and max(args.sizes) > width:
        raise ConfigError(f"argument --sizes: size {max(args.sizes)} exceeds feature count {width}")
    smaller = min(matrix.class_counts())
    if getattr(args, "folds", None) is not None and args.folds > smaller:
        raise ConfigError(f"argument --folds: {args.folds} exceeds the smaller class ({smaller} samples)")


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", help="JSON run-config file")
    common.add_argument("--seed", type=int, help="override the root seed")
    common.add_argument("--out", help="override the output directory")
    common.add_argument(
        "--paper-scale", action="store_true",
        help="use the published operating point (large replay/warm-up, lr 3e-4)",
    )

    parser = _Parser(prog="rlselect", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("train", parents=[common], help="train the selector and write report + checkpoint")

    p_eval = sub.add_parser("evaluate", parents=[common], help="k-fold CV accuracy of a feature subset")
    p_eval.add_argument("--subset", type=_subset, required=True,
                        help="comma-separated 0-based feature indices")
    p_eval.add_argument("--classifiers", type=_classifiers, default="dt,rf,knn,svm")
    p_eval.add_argument("--folds", type=_at_least(2), default=10)

    p_cmp = sub.add_parser("compare", parents=[common], help="compare selection methods across sizes")
    p_cmp.add_argument("--sizes", type=_at_least(1, _int_list), required=True)
    p_cmp.add_argument("--methods", type=_methods, default="rl,information_gain,chi_square,random")
    p_cmp.add_argument("--random-draws", type=_at_least(1), default=20)
    p_cmp.add_argument("--folds", type=_at_least(2), default=10)

    p_stab = sub.add_parser("stability", parents=[common], help="repeat training with fresh seeds")
    p_stab.add_argument("--runs", type=_at_least(1), default=5)
    p_stab.add_argument("--folds", type=_at_least(2), default=10)

    p_curv = sub.add_parser("curves", parents=[common], help="learning-curve data during training")
    p_curv.add_argument("--period", type=_at_least(1), default=50)

    p_time = sub.add_parser("timing", parents=[common], help="fit-time ratios of subsets vs all features")
    p_time.add_argument("--sizes", type=_at_least(1, _int_list), default=[24])
    p_time.add_argument("--classifiers", type=_classifiers, default="dt,rf,svm")

    p_feat = sub.add_parser("featurize", parents=[common], help="build a matrix CSV from disassembled samples")
    p_feat.add_argument("--inputs", required=True, help="directory with malware/ and benign/ sample files")
    p_feat.add_argument("--ngram-n", type=_at_least(1), default=3)
    p_feat.add_argument("--ngram-k", type=_at_least(1), default=500)
    p_feat.add_argument("--out-csv", required=True)

    return parser


def _load_config(args) -> RunConfig:
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    if args.paper_scale:
        config = config.paper_scale()
    if args.seed is not None:
        config = config.with_seed(args.seed)
    if args.out is not None:
        config = replace(config, out_dir=args.out)
    return config


def _dispatch(args) -> None:
    if args.command == "featurize":
        matrix = featurize.cmd_featurize(args.inputs, args.ngram_n, args.ngram_k, args.out_csv)
        print(f"wrote {matrix.n_samples} samples x {matrix.n_features} features to {args.out_csv}")
        return

    config = _load_config(args)
    matrix = None
    if args.command in ("evaluate", "compare", "stability", "timing"):
        matrix = load_matrix(config)
        _check_against_matrix(args, matrix)
    if args.command == "train":
        report = harness.cmd_train(config)
        print(f"final subset: {report.final_subset}")
        print(f"final reward: {report.final_reward:.4f}")
        print(f"outputs in {config.out_dir}")
    elif args.command == "evaluate":
        rows = harness.cmd_evaluate(config, args.subset, args.classifiers, folds=args.folds, matrix=matrix)
        for row in rows:
            print(f"{row['classifier']:>14s}  {row['mean_accuracy']:.4f}")
    elif args.command == "compare":
        rows = harness.cmd_compare(config, args.sizes, args.methods, random_draws=args.random_draws,
                                   folds=args.folds, matrix=matrix)
        for row in rows:
            std = f" +/- {row['accuracy_std']:.4f}" if row["method"] == "random" else ""
            print(f"{row['method']:>16s}  size {row['size']:>3d}  acc {row['accuracy']:.4f}{std}")
    elif args.command == "stability":
        payload = harness.cmd_stability(config, args.runs, folds=args.folds, matrix=matrix)
        last = payload["summary"][-1]
        print(f"final-size accuracy over {args.runs} runs: "
              f"mean {last['mean']:.4f}, range {last['range']:.4f}")
    elif args.command == "curves":
        payload = harness.cmd_curves(config, period=args.period)
        first, final = payload["periods"][0], payload["periods"][-1]
        print(f"period-mean reward: first {first['mean_final_reward']:.4f}, "
              f"last {final['mean_final_reward']:.4f}")
    elif args.command == "timing":
        subsets = [
            random_subset(matrix.n_features, size, sub_seed(config.seed, f"timing-{size}"))
            for size in args.sizes
        ]
        rows = harness.cmd_timing(config, subsets, args.classifiers, matrix=matrix)
        for row in rows:
            print(f"{row['classifier']:>14s}  size {row['subset_size']:>3d}  "
                  f"ratio {row['ratio_pct']:.2f}%")
    else:  # pragma: no cover - argparse guards the command set
        raise ConfigError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageExit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        _dispatch(args)
    except (ConfigError, argparse.ArgumentTypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
