"""Command-line interface.

Subcommands: generate-data, train, eval, gradcheck, histogram.
Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import data_io, evaluation, experiments, trainer, verify


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


def _flag(kind, ok, rule: str):
    """An argparse type: kind(text), refused as a usage error naming the
    flag unless ok holds for the value."""

    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid float value"
    return parse


_BINS = _flag(int, lambda v: v >= 1, "must be >= 1")
# the generate-data flag that sets each SyntheticSpec field
_SPEC_FLAGS = {"num_labels": "--num-labels", "num_train_queries": "--num-queries", "seed": "--seed"}


def _build_parser() -> _Parser:
    parser = _Parser(prog="xmcreg")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate-data", help="write a synthetic dataset")
    gen.add_argument("--out", required=True)
    gen.add_argument("--spec", help="key = value file with SyntheticSpec fields")
    gen.add_argument("--num-labels", type=int)
    gen.add_argument("--num-queries", type=int)
    gen.add_argument("--seed", type=int)

    tr = sub.add_parser("train", help="train a model")
    tr.add_argument("--config", help="key = value file with TrainConfig fields")
    tr.add_argument("--data", required=True)
    tr.add_argument("--out", required=True)

    ev = sub.add_parser("eval", help="evaluate a checkpoint")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--target-precision", type=_flag(float, lambda v: 0.0 < v <= 1.0, "must be in (0, 1]"),
                    default=0.85)
    ev.add_argument("--report", required=True)
    ev.add_argument("--scores")
    ev.add_argument("--bins", type=_BINS, default=50)
    ev.add_argument("--calibration-split", help="pick the threshold on this split instead of the evaluated set")

    gc = sub.add_parser("gradcheck", help="verify gradients against finite differences")
    gc.add_argument("--seed", type=_flag(int, lambda v: v >= 0, "must be >= 0"), default=0)
    gc.add_argument("--tol", type=_flag(float, lambda v: math.isfinite(v) and v > 0.0, "must be finite and > 0"),
                    default=1e-4)

    hist = sub.add_parser("histogram", help="bin a scores file by correctness")
    hist.add_argument("--scores", required=True)
    hist.add_argument("--bins", type=_BINS, default=50)
    hist.add_argument("--out", required=True)

    return parser


def _cmd_generate(args) -> int:
    if args.spec:
        for flag in _SPEC_FLAGS.values():
            if getattr(args, flag[2:].replace("-", "_")) is not None:
                raise UsageError(f"argument {flag}: not allowed with argument --spec")
        spec = data_io.load_key_values(args.spec, data_io.SyntheticSpec)
    else:
        if args.num_labels is None or args.num_queries is None:
            raise UsageError("generate-data needs --spec or both --num-labels and --num-queries")
        try:
            spec = data_io.SyntheticSpec(
                num_labels=args.num_labels,
                num_train_queries=args.num_queries,
                num_test_queries=max(1, args.num_queries // 4),
                seed=0 if args.seed is None else args.seed,
            )
        except data_io.InvalidSpec as e:
            if e.field not in _SPEC_FLAGS:  # the title cap stays a runtime error
                raise
            raise UsageError(f"argument {_SPEC_FLAGS[e.field]}: {e}") from None
    data_io.generate(spec, args.out)
    print(f"wrote dataset under {args.out}")
    return 0


def _cmd_train(args) -> int:
    if args.config:
        config = data_io.load_key_values(args.config, trainer.TrainConfig)
    else:
        config = trainer.TrainConfig()
    dataset = data_io.load_dataset(args.data)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt, log = trainer.train(dataset, config, log_path=out_dir / "train_log.jsonl")
    ckpt.save(out_dir / "checkpoint.bin")
    final = log[-1]
    print(f"trained {config.epochs} epochs; final total loss {final['total']:.6f}")
    print(f"checkpoint: {out_dir / 'checkpoint.bin'}")
    return 0


def _cmd_eval(args) -> int:
    ckpt = trainer.Checkpoint.load(args.checkpoint)
    preds = experiments.predict(ckpt, data_io.load_dataset(args.data))
    calibration = None
    if args.calibration_split:
        calibration = experiments.predict(ckpt, data_io.load_dataset(args.calibration_split))
    report = evaluation.evaluate(preds, args.target_precision, bins=args.bins, calibration=calibration)
    evaluation.write_report(args.report, report)
    if args.scores:
        evaluation.write_scores(args.scores, preds)
    print(f"P@1 {report.p_at_1:.4f}  C@1 {report.c_at_1:.4f}  threshold {report.threshold}")
    return 0


def _cmd_gradcheck(args) -> int:
    report = verify.full_suite(args.seed, tol=args.tol)
    print(f"max relative error {report.max_relative_error:.3e} (worst: {report.worst_case})")
    if not report.passed:
        print(f"FAIL: exceeds tolerance {args.tol:g}", file=sys.stderr)
        return 2
    print("PASS")
    return 0


def _cmd_histogram(args) -> int:
    preds = evaluation.read_scores(args.scores)
    hist = evaluation.score_histogram(preds, bins=args.bins)
    evaluation.write_report(args.out, hist)
    print(f"overlap coefficient {hist.overlap:.4f}")
    return 0


_COMMANDS = {
    "generate-data": _cmd_generate,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "histogram": _cmd_histogram,
}


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as e:
        print(str(e), file=sys.stderr)
        return 1
    except Exception as e:  # runtime failure
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
