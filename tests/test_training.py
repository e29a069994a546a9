"""Optimizer, cross-validation protocol, and diagnostics export."""

import collections
import csv
import os
import re
from dataclasses import fields

import numpy as np
import pytest

from graphdict import tensor as T
from graphdict import training, vgda
from graphdict.data import stratified_folds
from graphdict.encoder import momentum_update
from graphdict.errors import (ConfigError, GraphDictError, IoError,
                              NumericsError)
from graphdict.model import Hyperparameters, ModelConfig
from graphdict.training import (Adam, CvResult, FoldResult, TrainConfig,
                                export_diagnostics, format_metrics_table,
                                run_cv, train_one_fold, write_metrics)
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
        result = model.forward(prepared, vgda.TRAIN, rng=rng)
        tape.backward(model.batch_loss(result, [p.label for p in prepared]))
    optimizer.step()
    momentum_update(model.encoder_dict, model.encoder_input, 0.999)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_step_names_the_op_and_changes_nothing():
    model, prepared = build_tiny_model()
    optimizer = Adam(model.parameters(), lr=0.01)
    rng = np.random.default_rng(0)
    _train_step(model, prepared, optimizer, rng)  # non-zero moments
    # plan costs are nonnegative, so every logit overflows to +inf
    model.head_w1.values[:] = 1e3
    model.head_w2.values[:] = 1e308
    tensors = model.parameters() + model.encoder_dict
    before = [t.values.copy() for t in tensors] + [
        a.copy() for a in optimizer.m + optimizer.v]
    with pytest.raises(NumericsError, match=r"class probabilities must be "
                       r"finite \(first non-finite op output: matmul\)"):
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


def test_train_one_fold_repeats_with_one_seed_sequence():
    """Spawning must not advance the caller's SeedSequence: a second call
    with the same object trains on the same streams."""
    bundle = make_synthetic_bundle(count=12)
    config = fast_config(epochs=2)
    seed_seq = np.random.SeedSequence(0)
    (first, _), (second, _) = (
        train_one_fold(bundle, 0, np.arange(4, 12), np.arange(4), config,
                       seed_seq) for _ in range(2))
    assert first.loss_trace == second.loss_trace
    assert first.accuracy == second.accuracy


class _FirstBackward(Exception):
    pass


def test_first_training_batch_records_the_batched_tape(monkeypatch):
    """The first 32-graph batch of fold 0 at the default config records 348
    tape nodes.  Its graphs and keys have 4-6 nodes, so the 14 keys form 3
    node-count groups and so do the 32 inputs; an encoder layer is 3 ops
    per group (block propagation, weight matmul, ReLU).
    - keys, 45: per group its features stacked and 9 encoder ops, one row
      selection per key, and the keys stacked;
    - inputs, 56: per group 8 encoder ops (the first propagation acts on
      constant one-hots and is not recorded), one row selection per graph;
    - per graph, 32 x 7: key selection 1, costs 2, attention 4;
    - 14 batch ops (inputs stacked; unit input rows, transposed, summed
      per graph by the segment mat-vec; unit key rows and their matmul
      with the sums; sigmoid, clamp, relaxed draw, aggregate rows stacked,
      head 4) and 9 loss ops (cross-entropy 5, KL, its weight, the sum and
      the mean).
    Encoding each key and graph on its own recorded 630: 14 x 9 encoder
    ops plus the stack, and 32 x (8 + 7).  A graph that goes back to
    per-graph encoder, VGDA or head ops adds to the count.  No op output
    is as large as a (key node x input node) matrix but the encoder ops
    (propagation, weight matmul, ReLU) on a node-count group's stacked
    rows."""
    recorded, kinds, sizes = [], [], []
    dims = TrainConfig().encoder_dims

    def backward(tape, root):
        recorded.append(len(tape.nodes))
        kinds.append(collections.Counter(
            fn.__qualname__.split(".")[0] for _, _, fn in tape.nodes))
        # of the stacks of encodings, the keys' comes first, then the
        # batch's inputs
        key_rows, input_rows = [
            out.values.shape[0] for out, _, fn in tape.nodes
            if fn.__qualname__.startswith("concat_rows")
            and out.values.shape[1] == dims[-1]]
        op = {id(out): fn.__qualname__.split(".")[0]
              for out, _, fn in tape.nodes}
        # a group's encoding is the ReLU output split into its graphs' rows
        group_rows = {inputs[0].values.shape[0]
                      for _, inputs, fn in tape.nodes
                      if fn.__qualname__.startswith("row_select")
                      and op.get(id(inputs[0])) == "relu"}
        sizes.append(({(op[id(out)], out.values.shape[0])
                       for out, _, _ in tape.nodes
                       if out.values.size >= key_rows * input_rows},
                      group_rows, {key_rows, input_rows}))
        raise _FirstBackward

    monkeypatch.setattr(T.Tape, "backward", backward)
    bundle = make_synthetic_bundle(count=48, with_node_labels=True)
    folds = stratified_folds(bundle.labels, 4, 0)
    train_idx = np.setdiff1d(np.arange(48), folds[0])
    assert len(train_idx) >= 32
    with pytest.raises(_FirstBackward):
        train_one_fold(bundle, 0, train_idx, folds[0],
                       TrainConfig(epochs=1, folds=4),
                       np.random.SeedSequence(0))
    assert recorded == [348]
    (kind,) = kinds
    assert kind["block_matmul"] == 3 * 3 + 3 * 2
    assert kind["row_select"] == 14 + 32 + 32
    # 3 key groups stacked, the keys, the inputs, the aggregate rows
    assert kind["concat_rows"] == 3 + 3
    ((wide, group_rows, stacks),) = sizes
    assert len(group_rows) == 6 and not group_rows & stacks
    assert all(kind in {"block_matmul", "matmul", "relu"}
               and rows in group_rows for kind, rows in wide)


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


def test_fold_pool_starts_no_more_workers_than_folds(monkeypatch):
    started = []

    class InProcessPool:
        """Records the pool size it is asked for and maps in-process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(training, "ProcessPoolExecutor", InProcessPool)
    bundle = make_synthetic_bundle(count=8)
    cv = run_cv(fast_config(workers=64, folds=2, epochs=1), bundle=bundle)
    assert started == [2]
    assert [fold.fold for fold in cv.folds] == [0, 1]


def test_fold_crash_is_reported_with_fold_index(monkeypatch):
    def explode(args):
        raise ValueError("synthetic disaster")

    monkeypatch.setattr(training, "_fold_worker", explode)
    bundle = make_synthetic_bundle(count=8)
    with pytest.raises(GraphDictError, match=r"fold 0 crashed"):
        run_cv(fast_config(), bundle=bundle)


@pytest.mark.parametrize("field, value", [
    ("folds", 2.5), ("folds", "3"), ("seed", 1.5), ("seed", None)])
def test_train_config_folds_and_seed_must_be_integers(field, value):
    with pytest.raises(ConfigError, match=re.escape(
            f"{field} must be an integer, got {value!r}")):
        TrainConfig(**{field: value})


FLOAT_FIELDS = [f.name for f in fields(TrainConfig) if f.type == "float"]


def test_float_fields_cover_the_shared_and_run_level_ranges():
    assert set(FLOAT_FIELDS) == {
        "temperature", "sinkhorn_tol", "beta", "p_hat", "learning_rate",
        "weight_decay", "momentum", "adam_eps"}


@pytest.mark.parametrize("value", [None, "0.5"])
@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_train_config_float_fields_must_be_real_numbers(field, value):
    with pytest.raises(ConfigError, match=re.escape(
            f"{field} must be a real number, got {value!r}")):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("betas", [None, "0.9", (0.9,), (0.9, 0.99, 0.999)])
def test_train_config_adam_betas_must_be_two_values(betas):
    with pytest.raises(ConfigError, match=re.escape(
            f"adam_betas must be two values in [0, 1), got {betas}")):
        TrainConfig(adam_betas=betas)


@pytest.mark.parametrize("value, message", [
    (None, "be a real number, got None"), ("0.9", "be a real number, got '0.9'"),
    (1.0, "be two values in [0, 1), got 1.0"),
    (-0.1, "be two values in [0, 1), got -0.1")])
@pytest.mark.parametrize("index", [0, 1])
def test_train_config_adam_betas_values_must_be_in_range(index, value,
                                                        message):
    # the message names the offending value
    betas = [0.9, 0.999]
    betas[index] = value
    with pytest.raises(ConfigError, match=re.escape(
            f"adam_betas must {message}")):
        TrainConfig(adam_betas=tuple(betas))


MODEL_FIELDS = dict(num_classes=2, feature_scheme="degree-onehot",
                    feature_dim=3, n_padded=5)
UNCHECKED = {"dataset", "data_dir", "out_dir"}


@pytest.mark.parametrize("cls, name", [
    *((TrainConfig, f.name) for f in fields(TrainConfig)
      if f.name not in UNCHECKED),
    *((ModelConfig, f.name) for f in fields(ModelConfig))])
def test_every_checked_config_field_rejects_none_under_its_name(cls, name):
    base = MODEL_FIELDS if cls is ModelConfig else {}
    assert "rule" in next(f for f in fields(cls) if f.name == name).metadata
    with pytest.raises(ConfigError, match=rf"^{name}\b"):
        cls(**{**base, name: None})


@pytest.mark.parametrize("kind", [list, np.array])
def test_config_sequence_fields_are_kept_as_tuples(kind):
    values = dict(encoder_dims=(4, 6), lambdas=(0.5, 5.0),
                  adam_betas=(0.8, 0.99))
    config = TrainConfig(**{name: kind(value)
                            for name, value in values.items()})
    for name, value in values.items():
        stored = getattr(config, name)
        assert type(stored) is tuple and stored == value
        assert all(type(v) is type(w) for v, w in zip(stored, value))


@pytest.mark.parametrize("change, message", [
    ({"lambdas": 1.0}, "lambdas must be one or more finite positive numbers, "
                       "got 1.0"),
    ({"encoder_dims": 4}, "encoder_dims must be a sequence, got 4"),
    ({"adam_betas": 0.9}, "adam_betas must be two values in [0, 1), got 0.9"),
])
def test_config_sequence_fields_reject_a_scalar(change, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        TrainConfig(**change)


def test_model_config_rejects_a_scheme_array():
    with pytest.raises(ConfigError, match="^feature_scheme must be one of"):
        ModelConfig(**{**MODEL_FIELDS, "feature_scheme": np.array(
            ["degree-onehot", "node-label-onehot"])})


def test_model_config_built_from_lists_round_trips_through_json():
    config = ModelConfig(**MODEL_FIELDS, encoder_dims=[4, 6],
                         lambdas=np.array([0.5, 5.0]))
    again = ModelConfig.from_json(config.to_json())
    assert again == config and again.encoder_dims == (4, 6)
    assert again.to_json() == config.to_json()


def test_config_keeps_numpy_scalars_as_python_scalars():
    config = ModelConfig(num_classes=np.int64(2),
                         feature_scheme=np.str_("degree-onehot"),
                         feature_dim=np.int32(3), n_padded=np.int64(5),
                         encoder_dims=(np.int64(4), np.uint8(6)),
                         lambdas=(np.float64(0.5), np.float32(5.0)),
                         p_hat=np.float64(0.25))
    assert config == ModelConfig(**MODEL_FIELDS, encoder_dims=(4, 6),
                                 lambdas=(0.5, 5.0), p_hat=0.25)
    for f in fields(config):
        value = getattr(config, f.name)
        for v in value if isinstance(value, tuple) else (value,):
            assert type(v) in (int, float, str), f.name
    again = ModelConfig.from_json(config.to_json())
    assert again == config and again.to_json() == config.to_json()
    train = TrainConfig(head_hidden=np.int64(64), epochs=np.int16(3),
                        adam_betas=(np.float64(0.9), np.float64(0.999)))
    assert type(train.epochs) is int and type(train.adam_betas[0]) is float


def test_model_config_for_fold_carries_every_shared_field():
    values = dict(encoder_dims=(4, 6), head_hidden=5, temperature=0.7,
                  sinkhorn_max_iter=33, sinkhorn_tol=1e-5, beta=0.25,
                  p_hat=0.3, lambdas=(0.2, 2.0, 20.0))
    assert set(values) == {f.name for f in fields(Hyperparameters)}
    defaults = Hyperparameters()
    assert all(value != getattr(defaults, name)
               for name, value in values.items())
    bundle = make_synthetic_bundle(count=8)
    config = training.model_config_for_fold(
        bundle, bundle.graphs, TrainConfig(keys=3, **values))
    assert {name: getattr(config, name) for name in values} == values
    assert config.num_keys == 3


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
    key_nodes = {str(j): a.shape[0]
                 for j, a in enumerate(model.dictionary.adjacency)}
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

    solver = read_csv(out / "solver.csv")
    assert solver[0] == ["input_id", "key_id", "lambda", "iterations",
                         "converged"]
    assert len(solver) == 1 + len(combos)
    assert {(r[1], r[2]) for r in solver[1:]} == combos
    key_nodes = {j: len({r[4] for r in plans[1:] if r[1] == str(j)})
                 for j in range(2)}
    for row in solver[1:]:
        assert row[0] == "1" and row[4] in ("True", "False")
        # a key adapted to one node has its plan in closed form
        assert (int(row[3]) == 0) == (key_nodes[int(row[1])] == 1)

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
                 "solver.csv", "attention.csv", "summary.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_export_diagnostics_unwritable_path_raises(tmp_path):
    blocker = tmp_path / "occupied"
    blocker.write_text("not a directory")
    model, prepared = build_tiny_model()
    with pytest.raises(IoError):
        export_diagnostics(model, prepared[0], 0, str(blocker))
