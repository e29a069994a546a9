"""Command-line interface.

Subcommands:

* ``train``   -- stratified cross-validation on a TU-format dataset.
* ``eval``    -- score a saved checkpoint on a dataset.
* ``export-diagnostics`` -- dump one graph's sampling probabilities, cost
  matrices, transport plans, and attention weights as CSV.

Options may also be supplied through ``--config FILE`` holding ``key=value``
lines (``#`` comments allowed); explicit command-line flags override the
file, which overrides built-in defaults.
"""

from __future__ import annotations

import argparse
import sys
import types
import typing

from .data import load_tu_dataset
from .errors import ConfigError, GraphDictError, IoError
from .model import load_checkpoint
from .training import (TrainConfig, export_diagnostics, format_metrics_table,
                       run_cv, write_csv)

# config-file / flag aliases -> TrainConfig field names
_ALIASES = {"lr": "learning_rate", "wd": "weight_decay", "out": "out_dir"}
_FIELD_TYPES = typing.get_type_hints(TrainConfig)


def _canonical(key):
    key = key.strip().replace("-", "_")
    return _ALIASES.get(key, key)


def _parse_value(name, raw):
    """Convert a config-file string to the type TrainConfig declares."""
    raw = raw.strip()
    kind = _FIELD_TYPES[name]
    if isinstance(kind, types.UnionType):  # "X | None" fields parse as X
        kind = typing.get_args(kind)[0]
    try:
        if typing.get_origin(kind) is tuple:
            return _parse_tuple(name, raw, typing.get_args(kind))
        if kind in (int, float):
            return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {raw!r}") from exc
    return raw


def _parse_tuple(name, raw, items):
    """``tuple[X, ...]`` takes one or more values; ``tuple[X, Y, ...]`` with
    fixed items takes exactly one value per item."""
    parts = raw.replace(",", " ").split()
    if items[-1] is Ellipsis:
        if not parts:
            raise ConfigError(f"bad value for {name}: expected at least one "
                              "value, got none")
        return tuple(items[0](p) for p in parts)
    if len(parts) != len(items):
        raise ConfigError(f"bad value for {name}: {raw!r} (expected "
                          f"{len(items)} values, got {len(parts)})")
    return tuple(item(p) for item, p in zip(items, parts))


def load_config_file(path):
    """Parse a key=value config file into a {field: value} dict."""
    values = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise IoError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got "
                              f"{stripped!r}")
        key, raw = stripped.split("=", 1)
        name = _canonical(key)
        if name not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown option {key.strip()!r}")
        values[name] = _parse_value(name, raw)
    return values


def build_train_config(args):
    """defaults < config file < explicit CLI flags."""
    values = {}
    if args.config:
        values.update(load_config_file(args.config))
    for flag, value in vars(args).items():
        name = _canonical(flag)
        if value is not None and name in _FIELD_TYPES:
            values[name] = value
    config = TrainConfig(**values)
    if not config.dataset or not config.data_dir:
        raise ConfigError("both --dataset and --data-dir are required "
                          "(flags or config file)")
    return config


def _add_dataset_flags(parser):
    parser.add_argument("--dataset", help="dataset name (TU file prefix)")
    parser.add_argument("--data-dir", dest="data_dir",
                        help="directory holding the dataset files")
    parser.add_argument("--config", help="key=value config file")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="graphdict",
        description="Dictionary-based graph classification with "
                    "variational substructure sampling and multi-sensitivity "
                    "transport embeddings.")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="run stratified cross-validation")
    _add_dataset_flags(train)
    train.add_argument("--epochs", type=int)
    train.add_argument("--lr", type=float)
    train.add_argument("--beta", type=float)
    train.add_argument("--p-hat", dest="p_hat", type=float)
    train.add_argument("--keys", type=int)
    train.add_argument("--sensitivities", type=int)
    train.add_argument("--seed", type=int)
    train.add_argument("--folds", type=int)
    train.add_argument("--workers", type=int)
    train.add_argument("--out", help="output directory for metrics and "
                                     "checkpoints")

    evaluate = sub.add_parser("eval", help="score a checkpoint on a dataset")
    _add_dataset_flags(evaluate)
    evaluate.add_argument("--checkpoint", required=True)
    evaluate.add_argument("--out", help="optional predictions.csv directory")

    export = sub.add_parser("export-diagnostics",
                            help="dump one graph's internals as CSV")
    _add_dataset_flags(export)
    export.add_argument("--checkpoint", required=True)
    export.add_argument("--graph-id", dest="graph_id", type=int, required=True)
    export.add_argument("--out", required=True)
    return parser


def _resolve_dataset(args):
    config = build_train_config(args)
    return load_tu_dataset(config.data_dir, config.dataset)


def cmd_train(args):
    config = build_train_config(args)
    cv = run_cv(config)
    print(format_metrics_table(cv))
    if config.out_dir:
        print(f"metrics written to {config.out_dir}")
    return 0


def cmd_eval(args):
    bundle = _resolve_dataset(args)
    model = load_checkpoint(args.checkpoint)
    prepared = [model.prepare(g) for g in bundle.graphs]
    predictions, accuracy = model.evaluate(prepared)
    print(f"graphs: {len(prepared)}")
    print(f"accuracy: {accuracy:.4f}")
    if args.out:
        path = write_csv(args.out, "predictions.csv",
                         ["graph_id", "true_label", "predicted_label"],
                         ([i, g.label, p] for i, (g, p)
                          in enumerate(zip(prepared, predictions))))
        print(f"predictions written to {path}")
    return 0


def cmd_export(args):
    bundle = _resolve_dataset(args)
    if not 0 <= args.graph_id < len(bundle.graphs):
        raise ConfigError(f"graph id {args.graph_id} out of range for "
                          f"{len(bundle.graphs)} graphs")
    model = load_checkpoint(args.checkpoint)
    prepared = model.prepare(bundle.graphs[args.graph_id])
    export_diagnostics(model, prepared, args.graph_id, args.out)
    print(f"diagnostics written to {args.out}")
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"train": cmd_train, "eval": cmd_eval,
                "export-diagnostics": cmd_export}
    try:
        return handlers[args.command](args)
    except GraphDictError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
