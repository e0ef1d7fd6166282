"""Command-line interface.

Subcommands: train, eval, score, params, gradcheck, synth, doctor.
Config files are flat key=value text; CLI flags override file values and
the SCATTERNET_SEED environment variable overrides both. Exit codes:
0 success, 1 usage error, 2 data error, 3 numerical abort.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import engine
from .engine import ConfigError, DataError, NumericalAbort, ShapeError
from .loss import (discrete_challenge_score, load_weight_matrix,
                   merged_class_table, predict, read_csv_table, write_csv_table)
from .model import PRESETS, VARIANTS, build_model, layer_table, parameter_count
from .pipeline import (filter_and_split, load_dataset, make_synthetic_dataset,
                       synthetic_weight_matrix, write_dataset)
from .trainer import (Checkpoint, TrainConfig, config_from_mapping, evaluate_model,
                      load_config_file, train)
from .wavelets import analyticity_report, filter_bank

_PUBLISHED_COUNTS = {"baseline": 214957, "scatter": 166504}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the CLI contract wants 1 with help text.
    def error(self, message):
        raise UsageError(f"{message}\n\n{self.format_usage()}")


def _threshold(text: str) -> float:
    """The --threshold flag of eval and score: a float in (0, 1)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {text}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="scatternet", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    # every flag but --config has its TrainConfig field as dest, None when unset
    p_train = sub.add_parser("train", help="train a model")
    p_train.add_argument("--data", required=True, help="dataset directory")
    p_train.add_argument("--weights", help="classes.csv override")
    p_train.add_argument("--variant", choices=VARIANTS)
    p_train.add_argument("--config", default="", help="key=value config file")
    p_train.add_argument("--out", help="checkpoint output path")
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--epochs", type=int, dest="max_epochs", metavar="EPOCHS",
                         help="override max_epochs")
    p_train.add_argument("--batch-size", type=int)
    p_train.add_argument("--preset", choices=PRESETS)
    p_train.add_argument("--verbose", action="store_true", default=None)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("--ckpt", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--split", choices=("train", "val", "holdout"),
                        default="val")
    p_eval.add_argument("--threshold", type=_threshold, default=0.5)
    p_eval.add_argument("--pooled", action="store_true")
    p_eval.add_argument("--pred-out", default="", help="write probabilities CSV")
    p_eval.add_argument("--truth-out", default="", help="write truth CSV")

    p_score = sub.add_parser("score", help="score prediction CSVs")
    p_score.add_argument("--truth", required=True)
    p_score.add_argument("--pred", required=True)
    p_score.add_argument("--weights", required=True, help="classes.csv")
    p_score.add_argument("--threshold", type=_threshold, default=0.5)
    p_score.add_argument("--pooled", action="store_true")

    p_params = sub.add_parser("params", help="print parameter counts")
    p_params.add_argument("--variant", choices=VARIANTS, required=True)
    p_params.add_argument("--preset", choices=PRESETS, default="full")
    p_params.add_argument("--table", action="store_true",
                          help="print the per-layer table")

    p_grad = sub.add_parser("gradcheck", help="run the 64-bit gradient suite")
    p_grad.add_argument("--full", action="store_true",
                        help="include the tiny full-model check")

    p_synth = sub.add_parser("synth", help="write a synthetic dataset")
    p_synth.add_argument("--records", type=int, required=True)
    p_synth.add_argument("--classes", type=int, required=True)
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--seed", type=int, default=0)

    p_doc = sub.add_parser("doctor", help="filter-bank analyticity report")
    p_doc.add_argument("--fft-len", type=int, default=256)
    return parser


# -- CSV helpers --------------------------------------------------------------------


def write_prediction_csv(path, ids, classes, values) -> None:
    write_csv_table(path, "id", ids, classes, values)


def read_prediction_csv(path) -> tuple[list[str], list[str], np.ndarray]:
    """(record ids, classes, values); without an ``id`` corner the rows are
    numbered from 0."""
    return read_csv_table(path, "", ("id",), labelled=False)


# -- subcommands ---------------------------------------------------------------------


def _cmd_train(args) -> int:
    base = TrainConfig()
    if args.config:
        base = config_from_mapping(load_config_file(args.config))
    fields = {f.name for f in dataclasses.fields(TrainConfig)}
    overrides = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    env_seed = os.environ.get("SCATTERNET_SEED")
    if env_seed is not None:
        try:
            overrides["seed"] = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"SCATTERNET_SEED must be an integer: {exc}") from exc
    cfg = dataclasses.replace(base, **overrides)
    ckpt = train(cfg)
    last = ckpt.history[-1] if ckpt.history else {}
    print(f"trained variant={cfg.variant} epochs={len(ckpt.history)} "
          f"best_val_score={ckpt.manifest['best_score']:.6f} "
          f"final_train_loss={last.get('train_loss', float('nan')):.6f}")
    if cfg.out:
        print(f"checkpoint written to {cfg.out}")
    return 0


def _cmd_eval(args) -> int:
    ckpt = Checkpoint.load(args.ckpt)
    records, wm = load_dataset(args.data)
    splits = filter_and_split(records, wm, seed=ckpt.manifest["train_config"]["seed"])
    chosen = splits[args.split]
    # the scored split is all that is read from here on
    del records, splits
    if not chosen:
        raise DataError(f"split {args.split!r} is empty")
    result = evaluate_model(ckpt.build_model(), chosen, wm,
                            threshold=args.threshold, pooled=args.pooled)
    print(f"split={args.split} windows={len(result['ids'])} "
          f"score={result['score']:.9f} bce={result['bce']:.6f}")
    for i, name in enumerate(result["classes"]):
        print(f"  class {name}: precision {result['precision'][i]:.3f} "
              f"recall {result['recall'][i]:.3f}")
    if args.pred_out:
        write_prediction_csv(args.pred_out, result["ids"], result["classes"],
                             result["probs"])
    if args.truth_out:
        write_prediction_csv(args.truth_out, result["ids"], result["classes"],
                             result["truth"])
    return 0


def _cmd_score(args) -> int:
    wm = load_weight_matrix(args.weights)
    merged, _ = merged_class_table(wm)
    truth_ids, truth_classes, truth = read_prediction_csv(args.truth)
    pred_ids, pred_classes, probs = read_prediction_csv(args.pred)
    if truth_classes != pred_classes:
        raise DataError("truth/pred class headers differ")
    if list(truth_classes) != list(merged.labels):
        raise DataError("CSV classes do not match the merged weight matrix")
    if truth_ids != pred_ids:
        raise DataError("truth/pred record ids differ or are ordered differently")
    pred = predict(probs, args.threshold)
    score = discrete_challenge_score(truth, pred, merged, pooled=args.pooled)
    print(f"{score:.9f}")
    return 0


def _cmd_params(args) -> int:
    engine.seed(0)
    model = build_model(PRESETS[args.preset](), args.variant)
    total = parameter_count(model)
    print(f"{total}")
    if args.table:
        print(f"{'tensor':<40} {'shape':<16} {'count':>10}")
        for name, shape, count in layer_table(model):
            print(f"{name:<40} {shape:<16} {count:>10}")
        print(f"{'total':<40} {'':<16} {total:>10}")
    if args.preset == "full":
        target = _PUBLISHED_COUNTS[args.variant]
        delta = total - target
        print(f"published reference {target}, delta {delta:+d} "
              f"({100.0 * delta / target:+.1f}%)")
    return 0


def _cmd_gradcheck(args) -> int:
    from .gradsuite import run_op_checks, run_model_check
    worst_ops = run_op_checks(verbose=True)
    print(f"ops max rel error: {worst_ops:.3e}")
    ok = worst_ops < 1e-4
    if args.full:
        worst_model = run_model_check(verbose=True)
        print(f"tiny scatter model max rel error: {worst_model:.3e}")
        ok = ok and worst_model < 1e-3
    if not ok:
        raise NumericalAbort("gradient check tolerance exceeded")
    return 0


def _cmd_synth(args) -> int:
    if args.records < 1:
        raise DataError("--records must be >= 1")
    rng = engine.derived_rng(args.seed, "synth")
    records = make_synthetic_dataset(args.records, args.classes, rng)
    wm = synthetic_weight_matrix(args.classes)
    write_dataset(args.out, records, wm)
    print(f"wrote {len(records)} records, {args.classes} classes to {args.out}")
    return 0


def _cmd_doctor(args) -> int:
    fb = filter_bank()
    report = analyticity_report(fb, fft_len=args.fft_len)
    print(f"phi sum: {fb.phi.sum():+.12f}")
    print(f"psi_re sum: {fb.psi_re.sum():+.12f}")
    print(f"psi_im sum: {fb.psi_im.sum():+.12f}")
    print(f"fft_len: {args.fft_len}")
    print(f"neg_freq_energy_ratio: {report['neg_freq_energy_ratio']:.9f}")
    print(f"lipschitz_bound: {report['lipschitz_bound']:.9f}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "score": _cmd_score,
    "params": _cmd_params,
    "gradcheck": _cmd_gradcheck,
    "synth": _cmd_synth,
    "doctor": _cmd_doctor,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError(parser.format_help())
        # a non-finite value ends in one error line, not numpy's warnings first
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalAbort as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
