"""Command-line interface: parsing, config files, end-to-end subcommands."""

import argparse
import csv

import numpy as np
import pytest

from graphdict.cli import (build_parser, build_train_config, load_config_file,
                           main)
from graphdict.errors import ConfigError, IoError
from graphdict.model import save_checkpoint
from conftest import build_tiny_model, make_synthetic_bundle, write_tu_dataset


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


def test_config_file_missing_raises_io_error(tmp_path):
    with pytest.raises(IoError):
        load_config_file(str(tmp_path / "absent.cfg"))


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
                 "attention.csv", "summary.txt"):
        assert (diag_out / name).exists()


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
