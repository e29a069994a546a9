"""Optimizer, cross-validation protocol, and diagnostics export."""

import csv
import os

import numpy as np
import pytest

from graphdict import tensor as T
from graphdict import training, vgda
from graphdict.encoder import momentum_update
from graphdict.errors import GraphDictError, IoError, NumericsError
from graphdict.training import (Adam, CvResult, FoldResult, TrainConfig,
                                desk_scale, export_diagnostics,
                                format_metrics_table, run_cv, train_one_fold,
                                write_metrics)
from conftest import build_tiny_model, make_synthetic_bundle


def fast_config(**overrides):
    base = dict(dataset="synthetic", data_dir="", epochs=4,
                learning_rate=0.01, keys=2, lambdas=(0.5, 5.0),
                encoder_dims=(8, 8, 8), head_hidden=8,
                sinkhorn_max_iter=200, sinkhorn_tol=1e-6,
                folds=2, batch_size=8, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


# --- optimizer --------------------------------------------------------------

def param(values):
    return T.Tensor(np.asarray(values, dtype=float), requires_grad=True)


def test_adam_zero_gradient_leaves_parameters_unchanged():
    p = param([[1.0, -2.0, 3.0]])
    before = p.values.copy()
    optimizer = Adam([p], lr=0.1, weight_decay=0.0)
    p.grad = np.zeros_like(p.values)
    optimizer.step()
    assert np.array_equal(p.values, before)


def test_adam_first_step_magnitude_is_learning_rate():
    lr = 0.001
    p = param([[0.7, -0.4]])
    before = p.values.copy()
    optimizer = Adam([p], lr=lr)
    p.grad = np.array([[2.5, -0.3]])
    optimizer.step()
    delta = p.values - before
    assert np.all(np.abs(np.abs(delta) - lr) <= 1e-6)
    assert np.all(np.sign(delta) == -np.sign(p.grad))


def test_adam_decoupled_weight_decay_exact():
    lr, wd = 0.01, 0.1
    p = param([[4.0, -2.0, 0.5]])
    before = p.values.copy()
    optimizer = Adam([p], lr=lr, weight_decay=wd)
    p.grad = np.zeros_like(p.values)
    optimizer.step()
    assert np.array_equal(p.values, before - lr * (wd * before))


def test_adam_trajectories_deterministic():
    grads = np.random.default_rng(0).normal(size=(5, 2, 3))
    runs = []
    for _ in range(2):
        p = param(np.ones((2, 3)))
        optimizer = Adam([p], lr=0.05, weight_decay=1e-4)
        for g in grads:
            p.grad = g.copy()
            optimizer.step()
        runs.append(p.values.copy())
    assert np.array_equal(runs[0], runs[1])


def test_adam_zero_grad_resets_accumulated_gradients():
    p = param([[1.0]])
    p.grad = np.array([[3.0]])
    Adam([p], lr=0.1).zero_grad()
    assert not p.grad.any()


def test_adam_non_finite_gradient_raises_and_changes_nothing():
    p, q = param([[1.0, -2.0]]), param([[0.5]])
    optimizer = Adam([p, q], lr=0.1, weight_decay=0.01)
    p.grad, q.grad = np.array([[0.3, -0.1]]), np.array([[0.2]])
    optimizer.step()  # leaves non-zero moments
    before = [a.copy() for a in [p.values, q.values, *optimizer.m,
                                 *optimizer.v]]
    p.grad, q.grad = np.array([[0.3, 0.2]]), np.array([[np.nan]])
    with pytest.raises(NumericsError, match="parameter 1"):
        optimizer.step()
    after = [p.values, q.values, *optimizer.m, *optimizer.v]
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
    assert optimizer.step_count == 1


def _train_step(model, prepared, optimizer, rng):
    """One optimizer step over ``prepared``, as ``train_one_fold`` takes it."""
    optimizer.zero_grad()
    with T.Tape() as tape:
        model.refresh_key_encodings()
        results = [model.forward(p, vgda.TRAIN, rng=rng) for p in prepared]
        tape.backward(model.batch_loss(results, [p.label for p in prepared]))
    optimizer.step()
    momentum_update(model.encoder_dict, model.encoder_input, 0.999)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_step_names_the_op_and_changes_nothing():
    model, prepared = build_tiny_model()
    optimizer = Adam(model.parameters(), lr=0.01)
    rng = np.random.default_rng(0)
    _train_step(model, prepared, optimizer, rng)  # non-zero moments
    # plan costs are nonnegative, so every logit overflows to +inf
    model.head.w1.values[:] = 1e3
    model.head.w2.values[:] = 1e308
    tensors = model.parameters() + model.momentum_parameters()
    before = [t.values.copy() for t in tensors] + [
        a.copy() for a in optimizer.m + optimizer.v]
    with pytest.raises(NumericsError, match=r"class probabilities and KL "
                       r"must be finite \(first non-finite op output: "
                       r"matmul\)"):
        _train_step(model, prepared, optimizer, rng)
    after = [t.values for t in tensors] + optimizer.m + optimizer.v
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
    assert optimizer.step_count == 1
    model.refresh_key_encodings()
    with pytest.raises(NumericsError, match="class probabilities"):
        model.predict(prepared[0])


# --- fold training ----------------------------------------------------------

def test_train_one_fold_result_semantics():
    bundle = make_synthetic_bundle(count=12)
    config = fast_config(epochs=3)
    result, model = train_one_fold(bundle, 0, np.arange(4, 12), np.arange(4),
                                   config, np.random.SeedSequence(0))
    assert model.config.num_classes == 2
    assert result.fold == 0
    assert result.n_train == 8 and result.n_test == 4
    assert len(result.loss_trace) == 3
    assert all(np.isfinite(result.loss_trace))
    assert 0.0 <= result.accuracy <= 1.0
    assert result.wall_time > 0.0


def test_two_fold_accuracies_on_four_graphs_are_quantized():
    bundle = make_synthetic_bundle(count=4)
    cv = run_cv(fast_config(epochs=2), bundle=bundle)
    assert len(cv.folds) == 2
    for result in cv.folds:
        assert result.accuracy in (0.0, 0.5, 1.0)


def test_cv_learns_structural_classes():
    # pinned from a probe of this exact configuration: the cycle/clique task
    # separates cleanly once the head has enough steps
    bundle = make_synthetic_bundle(count=24)
    config = fast_config(epochs=15, learning_rate=0.03, keys=4,
                         encoder_dims=(16, 16, 8), folds=3, batch_size=4,
                         seed=1)
    cv = run_cv(config, bundle=bundle)
    assert cv.mean_accuracy >= 0.9
    for result in cv.folds:
        assert np.mean(result.loss_trace[-3:]) < result.loss_trace[0]


def test_run_cv_is_deterministic(tmp_path):
    bundle = make_synthetic_bundle(count=12)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cv_a = run_cv(fast_config(out_dir=str(out_a)), bundle=bundle)
    cv_b = run_cv(fast_config(out_dir=str(out_b)), bundle=bundle)
    assert cv_a.mean_accuracy == cv_b.mean_accuracy
    assert cv_a.std_accuracy == cv_b.std_accuracy
    for a, b in zip(cv_a.folds, cv_b.folds):
        assert a.accuracy == b.accuracy
        assert a.loss_trace == b.loss_trace
    assert ((out_a / "metrics.csv").read_bytes()
            == (out_b / "metrics.csv").read_bytes())
    assert ((out_a / "losses.csv").read_bytes()
            == (out_b / "losses.csv").read_bytes())


def test_parallel_workers_match_sequential():
    bundle = make_synthetic_bundle(count=12)
    sequential = run_cv(fast_config(workers=1), bundle=bundle)
    parallel = run_cv(fast_config(workers=2), bundle=bundle)
    assert sequential.mean_accuracy == parallel.mean_accuracy
    for a, b in zip(sequential.folds, parallel.folds):
        assert a.fold == b.fold
        assert a.accuracy == b.accuracy
        assert a.loss_trace == b.loss_trace


def test_fold_crash_is_reported_with_fold_index(monkeypatch):
    def explode(args):
        raise ValueError("synthetic disaster")

    monkeypatch.setattr(training, "_fold_worker", explode)
    bundle = make_synthetic_bundle(count=8)
    with pytest.raises(GraphDictError, match=r"fold 0 crashed"):
        run_cv(fast_config(), bundle=bundle)


def test_desk_scale_caps_epochs():
    assert desk_scale(TrainConfig(epochs=500)).epochs == training.DESK_EPOCHS
    assert desk_scale(TrainConfig(epochs=7)).epochs == 7


def test_training_reduces_loss_on_reference_dataset():
    data_dir = os.environ.get("GRAPHDICT_MUTAG_DIR",
                              os.path.join("data", "MUTAG"))
    if not os.path.exists(os.path.join(data_dir, "MUTAG_A.txt")):
        pytest.skip("MUTAG dataset not present; place the TU files under "
                    "data/MUTAG/ or set GRAPHDICT_MUTAG_DIR")
    from graphdict.data import load_tu_dataset
    bundle = load_tu_dataset(data_dir, "MUTAG")
    config = fast_config(dataset="MUTAG", epochs=10, keys=4,
                         encoder_dims=(32, 32, 16), batch_size=16)
    result, _ = train_one_fold(bundle, 0, np.arange(20, len(bundle.graphs)),
                               np.arange(20), config,
                               np.random.SeedSequence(0))
    assert np.mean(result.loss_trace[-3:]) < result.loss_trace[0]


# --- metrics files ----------------------------------------------------------

def make_cv_result():
    folds = [FoldResult(fold=0, accuracy=0.75, loss_trace=[0.9, 0.5],
                        wall_time=1.0, n_train=9, n_test=3),
             FoldResult(fold=1, accuracy=1.0, loss_trace=[0.8, 0.4],
                        wall_time=2.0, n_train=9, n_test=3)]
    accs = np.array([f.accuracy for f in folds])
    return CvResult(mean_accuracy=float(accs.mean()),
                    std_accuracy=float(accs.std()), folds=folds)


def test_metrics_files_written(tmp_path):
    cv = make_cv_result()
    write_metrics(cv, str(tmp_path))
    with open(tmp_path / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["fold", "n_train", "n_test", "accuracy"]
    assert rows[1][0] == "0" and rows[2][0] == "1"
    labels = [r[0] for r in rows]
    assert "mean" in labels and "std" in labels
    text = (tmp_path / "metrics.txt").read_text()
    assert "mean accuracy" in text
    assert "0.8750" in text
    with open(tmp_path / "losses.csv", newline="") as fh:
        loss_rows = list(csv.reader(fh))
    assert loss_rows[0] == ["fold", "epoch", "mean_loss"]
    assert len(loss_rows) == 1 + 4
    assert (tmp_path / "timings.csv").exists()


def test_metrics_table_format():
    table = format_metrics_table(make_cv_result())
    assert "mean accuracy: 0.8750 +- 0.1250" in table
    assert table.splitlines()[0].split() == ["fold", "train", "test",
                                             "accuracy"]


# --- diagnostics export -----------------------------------------------------

def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_export_diagnostics_contents(tmp_path):
    model, prepared = build_tiny_model()
    out = tmp_path / "diag"
    export_diagnostics(model, prepared[1], 1, str(out))

    probs = read_csv(out / "sampling_probabilities.csv")
    assert probs[0] == ["input_id", "key_id", "node_index", "probability"]
    key_nodes = {str(k.key_id): k.node_count for k in model.dictionary.keys}
    seen = {}
    for row in probs[1:]:
        assert row[0] == "1"
        assert 0.0 < float(row[3]) < 1.0
        seen[row[1]] = seen.get(row[1], 0) + 1
    assert seen == {k: n for k, n in key_nodes.items()}

    plans = read_csv(out / "plans.csv")
    assert plans[0] == ["input_id", "key_id", "lambda", "row", "col", "value"]
    combos = {(r[1], r[2]) for r in plans[1:]}
    assert len(combos) == 2 * 2  # two keys, two sensitivities
    for key_id, lam in combos:
        mass = sum(float(r[5]) for r in plans[1:]
                   if (r[1], r[2]) == (key_id, lam))
        assert abs(mass - 1.0) <= 1e-9

    attention = read_csv(out / "attention.csv")
    assert attention[0][0] == "input_id"
    weights = [float(v) for v in attention[1][1:]]
    assert len(weights) == 2
    assert abs(sum(weights) - 1.0) <= 1e-9

    costs = read_csv(out / "costs.csv")
    assert costs[0] == ["input_id", "key_id", "row", "col", "value"]
    assert all(float(r[4]) >= 0.0 for r in costs[1:])
    assert "input_id: 1" in (out / "summary.txt").read_text()


def test_export_diagnostics_is_byte_stable(tmp_path):
    model, prepared = build_tiny_model()
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    export_diagnostics(model, prepared[0], 0, str(out_a))
    export_diagnostics(model, prepared[0], 0, str(out_b))
    for name in ("sampling_probabilities.csv", "costs.csv", "plans.csv",
                 "attention.csv", "summary.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_export_diagnostics_unwritable_path_raises(tmp_path):
    blocker = tmp_path / "occupied"
    blocker.write_text("not a directory")
    model, prepared = build_tiny_model()
    with pytest.raises(IoError):
        export_diagnostics(model, prepared[0], 0, str(blocker))
