"""Command-line interface: parsing, config files, end-to-end subcommands."""

import argparse
import csv
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import graphdict
from graphdict import cli
from graphdict.cli import (build_parser, build_train_config, load_config_file,
                           main)
from graphdict.data import DatasetBundle, LabeledGraph
from graphdict.errors import ConfigError, IoError
from graphdict.model import save_checkpoint
from graphdict.mswe import select_lambdas
from conftest import (build_tiny_model, cycle_adjacency, make_synthetic_bundle,
                      rewrite_checkpoint, write_tu_dataset)


# --- parser -----------------------------------------------------------------

def test_parser_accepts_all_subcommands():
    parser = build_parser()
    train = parser.parse_args(["train", "--dataset", "X", "--data-dir", "d",
                               "--epochs", "3", "--lr", "0.01"])
    assert train.command == "train" and train.epochs == 3
    evaluate = parser.parse_args(["eval", "--dataset", "X", "--data-dir",
                                  "d", "--checkpoint", "m.npz"])
    assert evaluate.command == "eval" and evaluate.checkpoint == "m.npz"
    export = parser.parse_args(["export-diagnostics", "--dataset", "X",
                                "--data-dir", "d", "--checkpoint", "m.npz",
                                "--graph-id", "4", "--out", "diag"])
    assert export.command == "export-diagnostics" and export.graph_id == 4


def test_parser_requires_a_subcommand(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
    capsys.readouterr()


def test_train_options_and_config_keys_are_pinned():
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    flags = {flag for action in subparsers.choices["train"]._actions
             for flag in action.option_strings}
    assert flags == {
        "-h", "--help", "--dataset", "--data-dir", "--config", "--epochs",
        "--lr", "--beta", "--p-hat", "--keys", "--sensitivities", "--seed",
        "--folds", "--workers", "--out"}
    assert set(cli._FIELD_TYPES) | set(cli._ALIASES) == {
        "dataset", "data_dir", "epochs", "learning_rate", "lr",
        "weight_decay", "wd", "keys", "sensitivities", "lambdas",
        "momentum", "seed", "folds", "batch_size", "adam_betas", "adam_eps",
        "workers", "out_dir", "out", "encoder_dims", "head_hidden",
        "temperature", "sinkhorn_max_iter", "sinkhorn_tol", "beta", "p_hat"}


# --- config files -----------------------------------------------------------

def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# protocol overrides\n"
        "dataset = DEMO\n"
        "data-dir = /data\n"
        "lr = 0.02          # alias for learning_rate\n"
        "wd = 0.0005\n"
        "encoder_dims = 16 16 8\n"
        "lambdas = 0.5, 5.0\n"
        "\n"
        "epochs=9\n")
    values = load_config_file(str(path))
    assert values == {"dataset": "DEMO", "data_dir": "/data",
                      "learning_rate": 0.02, "weight_decay": 0.0005,
                      "encoder_dims": (16, 16, 8), "lambdas": (0.5, 5.0),
                      "epochs": 9}


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("not_a_field = 3\n")
    with pytest.raises(ConfigError, match="unknown option"):
        load_config_file(str(path))


def test_config_file_bad_value_reports_location(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("dataset = X\nepochs = soon\n")
    with pytest.raises(ConfigError, match="bad value for epochs"):
        load_config_file(str(path))
    path.write_text("dataset X\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:1"):
        load_config_file(str(path))


@pytest.mark.parametrize("line, message", [
    ("adam_betas = 0.9", r"bad value for adam_betas.*expected 2 values, got 1"),
    ("adam_betas = 0.9 0.99 0.999",
     r"bad value for adam_betas.*expected 2 values, got 3"),
    ("lambdas =", "bad value for lambdas: expected at least one value"),
    ("encoder_dims = ,", "bad value for encoder_dims: expected at least one"),
])
def test_config_file_enforces_tuple_arity(tmp_path, line, message):
    path = tmp_path / "arity.cfg"
    path.write_text(f"dataset = X\n{line}\n")
    with pytest.raises(ConfigError, match=message):
        load_config_file(str(path))
    path.write_text("adam_betas = 0.8, 0.99\nlambdas = 5\n")
    assert load_config_file(str(path)) == {"adam_betas": (0.8, 0.99),
                                           "lambdas": (5.0,)}


def test_config_file_missing_raises_io_error(tmp_path):
    with pytest.raises(IoError):
        load_config_file(str(tmp_path / "absent.cfg"))


@pytest.mark.parametrize("command", ["train", "eval"])
def test_non_utf8_config_file_exits_with_error(tmp_path, capsys, command):
    path = tmp_path / "binary.cfg"
    path.write_bytes(b"\xff\xfedataset = DEMO\n")
    extra = (["--checkpoint", str(tmp_path / "m.npz")] if command == "eval"
             else [])
    code = main([command, "--config", str(path), *extra])
    lines = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert str(path) in lines[0] and "not a text file" in lines[0]


def test_flag_precedence_over_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("dataset = DEMO\ndata_dir = /data\nepochs = 9\n"
                    "seed = 5\n")
    args = argparse.Namespace(config=str(path), dataset=None, data_dir=None,
                              epochs=2, lr=None, beta=None, p_hat=None,
                              keys=None, sensitivities=None, seed=None,
                              folds=None, out=None, workers=None)
    config = build_train_config(args)
    assert config.dataset == "DEMO"      # from file
    assert config.epochs == 2            # flag wins over file
    assert config.seed == 5              # file wins over default
    assert config.folds == 10            # untouched default


@pytest.mark.parametrize("file_line, flag, grid", [
    ("lambdas = 0.5 5.0", ["--sensitivities", "4"], select_lambdas(4)),
    ("lambdas = 0.5 5.0\nsensitivities = 3", [], select_lambdas(3)),
    ("lambdas = 0.5 5.0", [], (0.5, 5.0)),
    ("", [], select_lambdas(8)),
], ids=["flag-over-file", "count-over-grid", "grid", "default"])
def test_sensitivities_set_the_grid(tmp_path, file_line, flag, grid):
    path = tmp_path / "run.cfg"
    path.write_text(f"dataset = DEMO\ndata_dir = /data\n{file_line}\n")
    args = build_parser().parse_args(["train", "--config", str(path), *flag])
    assert build_train_config(args).lambdas == grid


def test_train_config_requires_dataset():
    args = argparse.Namespace(config=None, dataset=None, data_dir=None,
                              epochs=None, lr=None, beta=None, p_hat=None,
                              keys=None, sensitivities=None, seed=None,
                              folds=None, out=None, workers=None)
    with pytest.raises(ConfigError, match="--dataset"):
        build_train_config(args)


# --- end-to-end subcommands ---------------------------------------------------

@pytest.fixture(scope="module")
def tu_dataset(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("data")
    bundle = make_synthetic_bundle(count=8, seed=0)
    return write_tu_dataset(bundle, data_dir, "DEMO")


@pytest.fixture(scope="module")
def fast_cfg_file(tmp_path_factory, tu_dataset):
    path = tmp_path_factory.mktemp("cfg") / "fast.cfg"
    path.write_text(
        f"dataset = DEMO\n"
        f"data_dir = {tu_dataset}\n"
        "epochs = 2\n"
        "keys = 2\n"
        "lambdas = 0.5 5.0\n"
        "encoder_dims = 8 8 8\n"
        "head_hidden = 8\n"
        "sinkhorn_max_iter = 200\n"
        "sinkhorn_tol = 1e-6\n"
        "folds = 2\n"
        "batch_size = 8\n")
    return str(path)


def test_main_train_end_to_end(fast_cfg_file, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["train", "--config", fast_cfg_file, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "mean accuracy" in captured.out
    assert (out / "metrics.csv").exists()
    assert (out / "losses.csv").exists()
    assert (out / "fold_0.npz").exists() and (out / "fold_1.npz").exists()


def test_main_eval_end_to_end(fast_cfg_file, tmp_path, capsys):
    train_out = tmp_path / "train"
    assert main(["train", "--config", fast_cfg_file,
                 "--out", str(train_out)]) == 0
    capsys.readouterr()
    eval_out = tmp_path / "eval"
    code = main(["eval", "--config", fast_cfg_file,
                 "--checkpoint", str(train_out / "fold_0.npz"),
                 "--out", str(eval_out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "accuracy:" in captured.out
    with open(eval_out / "predictions.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["graph_id", "true_label", "predicted_label"]
    assert len(rows) == 1 + 8


def test_main_export_diagnostics_end_to_end(fast_cfg_file, tmp_path, capsys):
    train_out = tmp_path / "train"
    assert main(["train", "--config", fast_cfg_file,
                 "--out", str(train_out)]) == 0
    capsys.readouterr()
    diag_out = tmp_path / "diag"
    code = main(["export-diagnostics", "--config", fast_cfg_file,
                 "--checkpoint", str(train_out / "fold_0.npz"),
                 "--graph-id", "0", "--out", str(diag_out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "diagnostics written" in captured.out
    for name in ("sampling_probabilities.csv", "costs.csv", "plans.csv",
                 "solver.csv", "attention.csv", "summary.txt"):
        assert (diag_out / name).exists()
    with open(diag_out / "solver.csv", newline="") as fh:
        solver = list(csv.reader(fh))
    assert solver[0] == ["input_id", "key_id", "lambda", "iterations",
                         "converged"]
    with open(diag_out / "plans.csv", newline="") as fh:
        plans = list(csv.reader(fh))[1:]
    # one row per (key, sensitivity), as in plans.csv
    assert ({(r[1], r[2]) for r in solver[1:]}
            == {(r[1], r[2]) for r in plans})
    assert len(solver) - 1 == len({(r[1], r[2]) for r in plans})
    for row in solver[1:]:
        assert row[0] == "0" and int(row[3]) >= 0


def test_main_export_rejects_out_of_range_graph(fast_cfg_file, tmp_path,
                                                capsys):
    train_out = tmp_path / "train"
    assert main(["train", "--config", fast_cfg_file,
                 "--out", str(train_out)]) == 0
    capsys.readouterr()
    code = main(["export-diagnostics", "--config", fast_cfg_file,
                 "--checkpoint", str(train_out / "fold_0.npz"),
                 "--graph-id", "99", "--out", str(tmp_path / "d")])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err and "out of range" in captured.err


def test_main_missing_dataset_dir_exits_with_error(tmp_path, capsys):
    code = main(["train", "--dataset", "NOPE",
                 "--data-dir", str(tmp_path / "void"),
                 "--epochs", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")


def test_main_missing_dataset_flag_exits_with_error(capsys):
    code = main(["train", "--epochs", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err and "--dataset" in captured.err



def test_non_finite_training_prints_one_error_line(tmp_path):
    # numpy's floating-point warnings go to stderr ahead of the error, and
    # pytest captures warnings in-process, so the CLI runs in a subprocess
    data = write_tu_dataset(make_synthetic_bundle(count=12, seed=0),
                            tmp_path, "DEMO")
    root = os.path.dirname(os.path.dirname(graphdict.__file__))
    path = [root, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, "-m", "graphdict.cli", "train", "--dataset", "DEMO",
         "--data-dir", data, "--epochs", "2", "--folds", "2", "--keys", "2",
         "--lr", "1e308"],
        env=env, timeout=120, capture_output=True, text=True)
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), done.stderr

# --- unusable checkpoints ---------------------------------------------------

def _load_fails_with_one_error_line(fast_cfg_file, checkpoint, tmp_path,
                                    capsys, command):
    extra = (["--graph-id", "0", "--out", str(tmp_path / "d")]
             if command == "export-diagnostics" else [])
    code = main([command, "--config", fast_cfg_file,
                 "--checkpoint", str(checkpoint), *extra])
    lines = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert str(checkpoint) in lines[0]
    return lines[0]


@pytest.mark.parametrize("command", ["eval", "export-diagnostics"])
def test_missing_checkpoint_exits_with_error(fast_cfg_file, tmp_path, capsys,
                                             command):
    line = _load_fails_with_one_error_line(
        fast_cfg_file, tmp_path / "absent.npz", tmp_path, capsys, command)
    assert "cannot read checkpoint" in line


@pytest.mark.parametrize("command", ["eval", "export-diagnostics"])
def test_non_npz_checkpoint_exits_with_error(fast_cfg_file, tmp_path, capsys,
                                             command):
    path = tmp_path / "notes.npz"
    path.write_text("not a checkpoint\n")
    line = _load_fails_with_one_error_line(fast_cfg_file, path, tmp_path,
                                           capsys, command)
    assert "not an .npz archive" in line


@pytest.mark.parametrize("command", ["eval", "export-diagnostics"])
@pytest.mark.parametrize("change, message", [
    (lambda w_r: w_r[:-1], r"'w_r' has shape \(4, 1\), expected \(5, 1\)"),
    (lambda w_r: w_r * np.nan, "'w_r' must hold finite numbers"),
], ids=["short", "nan"])
def test_bad_checkpoint_array_names_path_and_array(fast_cfg_file, tmp_path,
                                                   capsys, command, change,
                                                   message):
    edited = rewrite_checkpoint(tmp_path, "w_r", change)
    line = _load_fails_with_one_error_line(fast_cfg_file, edited, tmp_path,
                                           capsys, command)
    assert re.search(message, line)


@pytest.mark.parametrize("command", ["eval", "export-diagnostics"])
def test_version_less_checkpoint_exits_with_error(fast_cfg_file, tmp_path,
                                                  capsys, command):
    edited = rewrite_checkpoint(tmp_path, "format_version", lambda v: None)
    line = _load_fails_with_one_error_line(fast_cfg_file, edited, tmp_path,
                                           capsys, command)
    assert "has no format_version" in line


@pytest.mark.parametrize("command", ["eval", "export-diagnostics"])
def test_partial_checkpoint_names_missing_array(fast_cfg_file, tmp_path,
                                                capsys, command):
    full = tmp_path / "full.npz"
    save_checkpoint(build_tiny_model()[0], full)
    with np.load(full) as data:
        arrays = {name: data[name] for name in data.files if name != "w_r"}
    partial = tmp_path / "partial.npz"
    np.savez(partial, **arrays)
    line = _load_fails_with_one_error_line(fast_cfg_file, partial, tmp_path,
                                           capsys, command)
    assert "lacks array 'w_r'" in line


@pytest.fixture(scope="module")
def trained_checkpoint(fast_cfg_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    assert main(["train", "--config", fast_cfg_file, "--out", str(out)]) == 0
    return out / "fold_0.npz"


DROP = object()  # a config change that deletes the field


@pytest.mark.parametrize("command", ["eval", "export-diagnostics"])
@pytest.mark.parametrize("change, message", [
    ({"lambdas": []}, "lambdas must be one or more finite positive numbers"),
    ({"lambdas": ["x"]}, "lambdas must be one or more finite positive"),
    ({"lambdas": [0.5, -5.0]}, "lambdas must be one or more finite positive"),
    ({"encoder_dims": []}, "encoder_dims must hold at least one layer"),
    ({"temperature": 0.0}, "temperature must be finite and > 0"),
    ({"feature_scheme": "bogus"}, "feature_scheme must be one of"),
    ({"beta": DROP, "p_hat": DROP, "sinkhorn_max_iter": DROP},
     "field 'sinkhorn_max_iter' is missing"),
    ({"num_keys": "2"}, "num_keys must be an integer, got '2'"),
    ({"num_classes": 0}, "num_classes must be >= 1, got 0"),
    ({"feature_dim": 0}, "feature_dim must be >= 1, got 0"),
    ({"n_padded": 5.5}, "n_padded must be an integer, got 5.5"),
], ids=["no-lambdas", "text-lambda", "negative-lambda", "no-encoder",
        "zero-temperature", "unknown-scheme", "missing-fields", "text-keys",
        "no-classes", "no-features", "fractional-padding"])
def test_checkpoint_config_out_of_range_exits_with_error(
        fast_cfg_file, trained_checkpoint, tmp_path, capsys, command, change,
        message):
    with np.load(trained_checkpoint) as data:
        arrays = {name: data[name] for name in data.files}
    config = json.loads(bytes(arrays["config"]).decode("utf-8"))
    config = {name: value for name, value in {**config, **change}.items()
              if value is not DROP}
    arrays["config"] = np.frombuffer(json.dumps(config).encode("utf-8"),
                                     dtype=np.uint8)
    edited = tmp_path / "edited.npz"
    np.savez(edited, **arrays)
    line = _load_fails_with_one_error_line(fast_cfg_file, edited, tmp_path,
                                           capsys, command)
    assert f"has a bad config: {message}" in line


@pytest.mark.parametrize("command", ["eval", "export-diagnostics"])
@pytest.mark.parametrize("line", ["epochs = 0", "folds = 1"])
def test_scoring_commands_ignore_training_options(
        fast_cfg_file, trained_checkpoint, tmp_path, capsys, command, line):
    # eval and export-diagnostics read only the dataset options, so a
    # training-only value that train would refuse does not stop them
    path = tmp_path / "score.cfg"
    with open(fast_cfg_file) as fh:
        path.write_text(fh.read() + line + "\n")
    extra = (["--graph-id", "0", "--out", str(tmp_path / "d")]
             if command == "export-diagnostics" else [])
    code = main([command, "--config", str(path),
                 "--checkpoint", str(trained_checkpoint), *extra])
    assert code == 0, capsys.readouterr().err


# --- dataset that does not fit the checkpoint ---------------------------------

@pytest.mark.parametrize("command", ["eval", "export-diagnostics"])
@pytest.mark.parametrize("graph, message", [
    (LabeledGraph(adjacency=cycle_adjacency(11), class_label=0,
                  node_labels=np.arange(11) % 2),
     "error: graph with 11 nodes exceeds the padded size 5"),
    (LabeledGraph(adjacency=cycle_adjacency(4), class_label=0,
                  node_labels=np.array([0, 1, 2, 1])),
     "error: node label id 2 does not fit feature dim 2"),
], ids=["too-large", "label-id"])
def test_dataset_that_does_not_fit_the_checkpoint_exits_with_error(
        tmp_path, capsys, command, graph, message):
    # the tiny model: n_padded 5, two node-label one-hot features
    checkpoint = tmp_path / "tiny.npz"
    save_checkpoint(build_tiny_model()[0], checkpoint)
    other = LabeledGraph(adjacency=cycle_adjacency(4), class_label=1,
                         node_labels=np.array([0, 1, 0, 1]))
    root = write_tu_dataset(
        DatasetBundle(graphs=[graph, other], num_classes=2,
                      num_node_labels=3, name="MISFIT"), tmp_path, "MISFIT")
    extra = (["--graph-id", "0", "--out", str(tmp_path / "d")]
             if command == "export-diagnostics" else [])
    code = main([command, "--dataset", "MISFIT", "--data-dir", root,
                 "--checkpoint", str(checkpoint), *extra])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [message]


@pytest.mark.parametrize("line, field", [
    ("batch_size = 0", "batch_size"),
    ("epochs = -1", "epochs"),
    ("epochs = 0", "epochs"),
    ("workers = 0", "workers"),
    ("head_hidden = 0", "head_hidden"),
    ("encoder_dims = 8 0 8", r"encoder_dims\[1\]"),
    ("sinkhorn_max_iter = 0", "sinkhorn_max_iter"),
    ("sinkhorn_tol = -1", "sinkhorn_tol"),
    ("sinkhorn_tol = 0", "sinkhorn_tol"),
    ("sinkhorn_tol = inf", "sinkhorn_tol"),
    ("beta = -1", "beta"),
    ("beta = inf", "beta"),
    ("seed = -1", "seed"),
    ("temperature = 0", "temperature"),
    ("temperature = inf", "temperature"),
    ("lambdas = 0.5 -1", "lambdas"),
    ("lr = -1", "learning_rate"),
    ("lr = nan", "learning_rate"),
    ("weight_decay = -1", "weight_decay"),
    ("wd = inf", "weight_decay"),
    ("adam_betas = 1.5, 0.999", "adam_betas"),
    ("adam_betas = 0.9, 1.0", "adam_betas"),
    ("adam_eps = -1", "adam_eps"),
    ("adam_eps = 0", "adam_eps"),
    ("adam_eps = inf", "adam_eps"),
    ("momentum = -0.5", "momentum"),
    ("keys = 0", "keys"),
    ("folds = 1", "folds"),
    ("sensitivities = 13", "sensitivities"),
])
def test_config_ranges_are_checked(fast_cfg_file, tmp_path, capsys, line,
                                   field):
    path = tmp_path / "range.cfg"
    with open(fast_cfg_file) as fh:
        path.write_text(fh.read() + line + "\n")
    code = main(["train", "--config", str(path)])
    lines = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(lines) == 1 and re.match(f"error: {field} must (be|lie)",
                                          lines[0])


def test_negative_seed_flag_exits_with_error(fast_cfg_file, capsys):
    code = main(["train", "--config", fast_cfg_file, "--seed", "-1"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: seed must be >= 0, got -1"]


@pytest.mark.parametrize("flag, message", [
    (["--keys", "0"], "keys must be >= 1, got 0"),
    (["--folds", "1"], "folds must be >= 2, got 1"),
    (["--sensitivities", "13"], "sensitivities must lie in [1, 12], got 13"),
], ids=["keys", "folds", "sensitivities"])
def test_options_are_checked_before_data_is_read(tmp_path, capsys, flag,
                                                 message):
    code = main(["train", "--dataset", "NOPE",
                 "--data-dir", str(tmp_path / "void"), *flag])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("command, name", [
    ("eval", "DEMO_A.txt"),
    ("train", "DEMO_node_labels.txt"),
])
def test_binary_dataset_file_exits_with_error(tmp_path, capsys, command,
                                              name):
    root = write_tu_dataset(make_synthetic_bundle(count=8, seed=0,
                                                  with_node_labels=True),
                            tmp_path, "DEMO")
    path = tmp_path / "DEMO" / name
    path.write_bytes(b"\x89PNG\r\n\x1a\n\xff\xfe\x00")
    checkpoint = tmp_path / "tiny.npz"
    save_checkpoint(build_tiny_model()[0], checkpoint)
    extra = (["--checkpoint", str(checkpoint)] if command == "eval"
             else ["--epochs", "1", "--folds", "2"])
    code = main([command, "--dataset", "DEMO", "--data-dir", root, *extra])
    lines = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert str(path) in lines[0] and "not a text file" in lines[0]
