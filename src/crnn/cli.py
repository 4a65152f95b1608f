"""Command-line entry points.

    crnn train            --config run.cfg [--data train.tsv] [--out dir] [--seed N]
    crnn eval             --config run.cfg [--data test.tsv]  [--out dir]
    crnn gradcheck       [--config run.cfg] [--seed N]
    crnn extract-features --data wavs.tsv --out dir

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
failure.  Every failure prints a single ``error: <category>: <reason>``
line to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .config import ConfigError, RunConfig, parse_config
from .data import (
    DataError,
    Dataset,
    MelConfig,
    balance_classes,
    log_mel,
    normalize_per_group,
    read_audio_manifest,
    read_manifest,
    read_wav,
    write_features,
)
from .framing import WindowSpec
from .layers import CrnnLayerConfig, SequenceTooShortError
from .model import ModelConfig, min_sequence_length
from .numerics import Rng, ShapeError
from .serialize import load_model, save_model, write_atomic
from .training import NumericError, _check_lengths, evaluate, grad_check, train

GRADCHECK_LIMIT = 1e-4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crnn",
        description="Train and run convolutional-recurrent sequence classifiers.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("train", "eval", "gradcheck", "extract-features"):
        p = sub.add_parser(verb)
        p.add_argument("--config", help="key=value run configuration file")
        p.add_argument("--data", help="manifest overriding the config's dataset")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="seed overriding the config's")
    return parser


def _require_config(args) -> RunConfig:
    if not args.config:
        raise ConfigError(f"{args.verb} requires --config")
    run = parse_config(args.config)
    if args.seed is not None:
        run = dataclasses.replace(
            run, train=dataclasses.replace(run.train, seed=args.seed))
    return run


def _out_dir(args, run: RunConfig | None) -> Path:
    out = args.out or (run.out_dir if run else None)
    if not out:
        raise ConfigError(f"{args.verb} requires an output directory "
                          f"(--out or out_dir in the config)")
    return Path(out)


def _read_split(manifest, model: ModelConfig) -> Dataset:
    """A feature manifest whose files must have the model's input_dim rows
    and enough frames for its framing."""
    dataset = read_manifest(manifest, model.num_classes)
    if dataset.feature_dim != model.input_dim:
        raise DataError(f"{manifest}: feature files have k = {dataset.feature_dim} "
                        f"rows, but the model's input_dim is {model.input_dim}")
    _check_lengths(model, dataset, str(manifest))
    return dataset


def _normalize_splits(splits: list[Dataset], num_classes: int) -> list[Dataset]:
    """Joint per-group statistics over all splits (groups usually do not
    straddle splits, but pooling keeps the statistics split-agnostic)."""
    merged = Dataset(examples=[ex for s in splits for ex in s.examples],
                     num_classes=num_classes)
    normalized, _ = normalize_per_group(merged)
    out = []
    start = 0
    for s in splits:
        stop = start + len(s.examples)
        out.append(Dataset(examples=normalized.examples[start:stop],
                           num_classes=num_classes))
        start = stop
    return out


def _cmd_train(args) -> int:
    run = _require_config(args)
    out = _out_dir(args, run)
    train_manifest = args.data or run.train_manifest
    if not train_manifest:
        raise ConfigError("train requires a training manifest (--data or train_manifest)")
    if not run.val_manifest:
        raise ConfigError("train requires val_manifest in the config")

    classes = run.model.num_classes
    train_set = _read_split(train_manifest, run.model)
    val_set = _read_split(run.val_manifest, run.model)
    if run.normalize:
        train_set, val_set = _normalize_splits([train_set, val_set], classes)
    if run.balance:
        train_set = balance_classes(train_set, Rng(run.train.seed).split())

    result = train(run.model, run.train, train_set, val_set, log=print)

    out.mkdir(parents=True, exist_ok=True)
    metrics = out / "metrics.jsonl"
    write_atomic(metrics, "".join(
        json.dumps({"epoch": rec.epoch, "train_loss": rec.train_loss,
                    "val_ua_recall": rec.val_ua_recall}, sort_keys=True) + "\n"
        for rec in result.history).encode())
    save_model(out / "model.bin", run, result.params)
    print(f"best epoch {result.best_epoch}  val_ua_recall {result.best_metric:.4f}")
    print(f"wrote {out / 'model.bin'} and {metrics}")
    return 0


def _cmd_eval(args) -> int:
    run = _require_config(args)
    out = _out_dir(args, run)
    manifest = args.data or run.test_manifest
    if not manifest:
        raise ConfigError("eval requires a manifest (--data or test_manifest)")

    model_run, params = load_model(out / "model.bin")
    if model_run.model.num_classes != run.model.num_classes:
        raise ConfigError(
            f"config declares {run.model.num_classes} classes but the model "
            f"file was trained with {model_run.model.num_classes}")

    dataset = _read_split(manifest, model_run.model)
    if run.normalize:
        dataset, _ = normalize_per_group(dataset)
    res = evaluate(model_run.model, params, dataset, run.train.batch_size)
    print(f"ua_recall {res.ua_recall:.4f}")
    for c, r in enumerate(res.per_class):
        print(f"class {c} recall {r:.4f}")
    return 0


def _toy_gradcheck_config() -> ModelConfig:
    layer = CrnnLayerConfig(kind="clstm", features=3, window=WindowSpec(3, 2),
                            pool=WindowSpec(2, 1), source="cell", reduction="max")
    return ModelConfig(input_dim=2, num_classes=2, layers=(layer,),
                       classifier="lstm", classifier_dim=3, dense_dim=4,
                       aggregation="last", aggregation_steps=2)


def _cmd_gradcheck(args) -> int:
    if args.config:
        run = _require_config(args)
        model_config, seed = run.model, run.train.seed
    else:
        model_config = _toy_gradcheck_config()
        seed = args.seed if args.seed is not None else 0
    length = min_sequence_length(model_config) + 2 * (
        model_config.layers[0].window.shift if model_config.layers else 1)
    report = grad_check(model_config, seed=seed, length=length,
                        threshold=GRADCHECK_LIMIT)
    for name in sorted(report.per_param):
        print(f"param {name} max_rel_err {report.per_param[name]:.3e}")
    print(f"max_rel_err {report.max_rel_error:.3e} step {report.step:g}")
    if report.max_rel_error >= GRADCHECK_LIMIT:
        raise NumericError(
            f"gradient check failed: max relative error {report.max_rel_error:.3e} "
            f">= {GRADCHECK_LIMIT:g}")
    return 0


def _cmd_extract(args) -> int:
    if not args.data:
        raise ConfigError("extract-features requires --data (a WAV manifest)")
    out = _out_dir(args, None)
    entries = read_audio_manifest(args.data)
    out.mkdir(parents=True, exist_ok=True)
    lines = []
    for i, (wav, label, group) in enumerate(entries):
        samples, rate = read_wav(wav)
        try:
            feats = log_mel(samples, MelConfig(sample_rate=rate))
        except (ValueError, DataError) as e:
            raise DataError(f"{args.data}: {wav}: {e}") from None
        name = f"mel{i:06d}.txt"
        write_features(out / name, feats)
        lines.append(f"{name}\t{label}\t{group}")
    (out / "manifest.tsv").write_text("\n".join(lines) + "\n")
    print(f"wrote {len(entries)} feature files and {out / 'manifest.tsv'}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "extract-features": _cmd_extract,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        return _COMMANDS[args.verb](args)
    except ConfigError as e:
        print(f"error: config: {e}", file=sys.stderr)
        return 2
    except (DataError, SequenceTooShortError) as e:
        print(f"error: data: {e}", file=sys.stderr)
        return 3
    except (NumericError, ShapeError) as e:
        print(f"error: numeric: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
