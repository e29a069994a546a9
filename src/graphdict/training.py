"""Training and evaluation harness.

Adam with decoupled weight decay, stratified k-fold cross-validation with a
fresh model and dictionary per fold, deterministic per-fold RNG streams
(spawned from one root seed, so results do not depend on scheduling order),
metrics emission as both a human-readable table and CSV, and diagnostic
CSV export of sampling probabilities, cost matrices, transport plans, and
attention weights.
"""

from __future__ import annotations

import contextlib
import csv
import os
import time
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from . import tensor as T, vgda
from .data import (DEGREE_ONEHOT, NODE_LABEL_ONEHOT, load_tu_dataset,
                   stratified_folds)
from .encoder import momentum_update
from .errors import GraphDictError, IoError, NumericsError
from .model import (GraphDictionaryModel, Hyperparameters, ModelConfig,
                    at_least_one, check_ranges, integer_at_least,
                    nonnegative, positive, real_where, save_checkpoint)


@dataclass(kw_only=True)
class TrainConfig(Hyperparameters):
    """Run-level configuration; defaults follow the reference protocol."""

    dataset: str = ""
    data_dir: str = ""
    epochs: int = 500
    learning_rate: float = 0.001
    weight_decay: float = 1e-4
    keys: int = 14
    momentum: float = 0.999
    seed: int = 0
    folds: int = 10
    batch_size: int = 32
    adam_betas: tuple[float, float] = (0.9, 0.999)
    adam_eps: float = 1e-8
    workers: int = 1
    out_dir: str | None = None

    def __post_init__(self):
        betas = self.adam_betas
        pair = (isinstance(betas, (Sequence, np.ndarray))
                and len(betas) == 2)
        check_ranges([
            integer_at_least(0, "seed", self.seed),
            *at_least_one(self, "batch_size", "epochs", "keys", "workers"),
            integer_at_least(2, "folds", self.folds),
            positive("learning_rate", self.learning_rate),
            nonnegative("weight_decay", self.weight_decay),
            (pair, f"adam_betas must be two values in [0, 1), got {betas}"),
            *(real_where(lambda v: 0.0 <= v < 1.0, "be two values in [0, 1)",
                         "adam_betas", b) for b in (betas if pair else ())),
            positive("adam_eps", self.adam_eps),
            real_where(lambda v: 0.0 <= v <= 1.0, "be in [0, 1]", "momentum",
                       self.momentum)])
        super().__post_init__()


@dataclass
class FoldResult:
    fold: int
    accuracy: float
    loss_trace: list = field(default_factory=list)  # mean loss per epoch
    wall_time: float = 0.0
    n_train: int = 0
    n_test: int = 0


@dataclass
class CvResult:
    mean_accuracy: float
    std_accuracy: float
    folds: list


class Adam:
    """Adam with bias correction and decoupled weight decay (lr * wd * theta)."""

    def __init__(self, params, lr, weight_decay=0.0, betas=(0.9, 0.999),
                 eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p.values) for p in self.params]
        self.v = [np.zeros_like(p.values) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        """One update of every parameter from its ``grad``.

        Every gradient is checked finite first, so a non-finite one raises
        NumericsError with no parameter or moment changed.
        """
        for i, p in enumerate(self.params):
            if not np.isfinite(p.grad).all():
                raise NumericsError(f"Adam.step: the gradient of parameter "
                                    f"{i} (shape {p.shape}) is non-finite; "
                                    "no parameter was updated")
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p.values
            p.values -= self.lr * update


def model_config_for_fold(bundle, train_graphs, config):
    """``config``'s shared fields; one-hot node labels as features when
    present, else one-hot degrees clamped at the training split's maximum."""
    if bundle.num_node_labels > 0:
        scheme, dim = NODE_LABEL_ONEHOT, bundle.num_node_labels
    else:
        scheme = DEGREE_ONEHOT
        dim = max(int(g.degrees().max()) for g in train_graphs) + 1
    shared = {f.name: getattr(config, f.name)
              for f in fields(Hyperparameters)}
    return ModelConfig(**shared, num_classes=bundle.num_classes,
                       feature_scheme=scheme, feature_dim=dim,
                       n_padded=bundle.max_node_count(),
                       num_keys=config.keys)


def train_one_fold(bundle, fold_index, train_idx, test_idx, config, seed_seq):
    """Train a fresh model on one fold's training split and score its test split.

    The RNG streams are spawned from a copy of ``seed_seq``, so every call
    with one SeedSequence trains on the same streams.
    """
    started = time.perf_counter()
    model_ss, noise_ss, shuffle_ss = np.random.SeedSequence(
        seed_seq.entropy, spawn_key=seed_seq.spawn_key,
        pool_size=seed_seq.pool_size).spawn(3)
    train_graphs = [bundle.graphs[i] for i in train_idx]
    test_graphs = [bundle.graphs[i] for i in test_idx]

    mconfig = model_config_for_fold(bundle, train_graphs, config)
    model = GraphDictionaryModel.build(mconfig, train_graphs,
                                       np.random.default_rng(model_ss))
    prepared_train = [model.prepare(g) for g in train_graphs]
    prepared_test = [model.prepare(g) for g in test_graphs]

    optimizer = Adam(model.parameters(), lr=config.learning_rate,
                     weight_decay=config.weight_decay,
                     betas=tuple(config.adam_betas), eps=config.adam_eps)
    noise_rng = np.random.default_rng(noise_ss)
    shuffle_rng = np.random.default_rng(shuffle_ss)

    loss_trace = []
    for _epoch in range(config.epochs):
        order = shuffle_rng.permutation(len(prepared_train))
        batch_losses = []
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            optimizer.zero_grad()
            with T.Tape() as tape:
                model.refresh_key_encodings()
                # the record references the batch's factor, costs and plans;
                # kept past this call it would hold them into the next
                # batch's forward
                loss = model.batch_loss(
                    model.forward([prepared_train[i] for i in batch],
                                  vgda.TRAIN, rng=noise_rng),
                    [prepared_train[i].label for i in batch])
                tape.backward(loss)
            optimizer.step()
            momentum_update(model.encoder_dict, model.encoder_input,
                            config.momentum)
            batch_losses.append(loss.item())
        loss_trace.append(float(np.mean(batch_losses)))

    _, accuracy = model.evaluate(prepared_test)
    result = FoldResult(fold=fold_index, accuracy=accuracy,
                        loss_trace=loss_trace,
                        wall_time=time.perf_counter() - started,
                        n_train=len(train_idx), n_test=len(test_idx))
    return result, model


def _fold_worker(args):
    bundle, fold_index, train_idx, test_idx, config, seed_seq = args
    result, model = train_one_fold(bundle, fold_index, train_idx, test_idx,
                                   config, seed_seq)
    if config.out_dir:
        save_checkpoint(model, os.path.join(config.out_dir,
                                            f"fold_{fold_index}.npz"))
    return result


def run_cv(config, bundle=None):
    """Full stratified cross-validation; returns mean/std accuracy per fold.

    Deterministic given (config, seed): fold splits, per-fold RNG streams,
    and all reported numbers are fully reproducible, independent of worker
    scheduling.
    """
    if bundle is None:
        bundle = load_tu_dataset(config.data_dir, config.dataset)
    if config.out_dir:
        _ensure_dir(config.out_dir)
    folds = stratified_folds(bundle.labels, config.folds, config.seed)
    children = np.random.SeedSequence(config.seed).spawn(len(folds))
    all_indices = np.arange(len(bundle.graphs))
    jobs = []
    for i, test_idx in enumerate(folds):
        train_idx = np.setdiff1d(all_indices, test_idx)
        jobs.append((bundle, i, train_idx, test_idx, config, children[i]))

    results = []
    workers = min(config.workers, len(jobs))
    with (ProcessPoolExecutor(max_workers=workers)
          if workers > 1 else contextlib.nullcontext()) as pool:
        # fold results arrive in fold order, serial or pooled
        outcomes = (pool.map if pool else map)(_fold_worker, jobs)
        for i in range(len(jobs)):
            try:
                results.append(next(outcomes))
            except GraphDictError:
                raise
            except Exception as exc:
                raise GraphDictError(f"fold {i} crashed: {exc}") from exc

    accuracies = np.asarray([r.accuracy for r in results])
    cv = CvResult(mean_accuracy=float(accuracies.mean()),
                  std_accuracy=float(accuracies.std()),
                  folds=results)
    if config.out_dir:
        write_metrics(cv, config.out_dir)
    return cv


# ---------------------------------------------------------------------------
# metrics and diagnostics output
# ---------------------------------------------------------------------------

def _ensure_dir(path):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {path}: {exc}") from exc


def _write(out_dir, name, fill, newline=None):
    """Create ``out_dir`` and write ``out_dir/name`` with ``fill(fh)``;
    an OSError becomes an IoError naming the path.  Returns the path."""
    _ensure_dir(out_dir)
    path = os.path.join(out_dir, name)
    try:
        with open(path, "w", newline=newline) as fh:
            fill(fh)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    return path


def write_csv(out_dir, name, header, rows):
    """Write the CSV file ``out_dir/name``: one header row, then ``rows``.
    Returns its path."""
    def fill(fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return _write(out_dir, name, fill, newline="")


def format_metrics_table(cv):
    """Human-readable per-fold accuracy table with the mean +- std footer."""
    lines = [f"{'fold':>6}  {'train':>6}  {'test':>5}  {'accuracy':>8}"]
    for r in cv.folds:
        lines.append(f"{r.fold:>6}  {r.n_train:>6}  {r.n_test:>5}  "
                     f"{r.accuracy:>8.4f}")
    lines.append(f"mean accuracy: {cv.mean_accuracy:.4f} "
                 f"+- {cv.std_accuracy:.4f}")
    return "\n".join(lines)


def write_metrics(cv, out_dir):
    """metrics.csv + metrics.txt (deterministic) and timings.csv (wall time)."""
    write_csv(out_dir, "metrics.csv", ["fold", "n_train", "n_test", "accuracy"],
              [*([r.fold, r.n_train, r.n_test, repr(float(r.accuracy))]
                 for r in cv.folds),
               ["mean", "", "", repr(cv.mean_accuracy)],
               ["std", "", "", repr(cv.std_accuracy)]])
    write_csv(out_dir, "losses.csv", ["fold", "epoch", "mean_loss"],
              ([r.fold, epoch, repr(float(value))] for r in cv.folds
               for epoch, value in enumerate(r.loss_trace)))
    table = format_metrics_table(cv) + "\n"
    _write(out_dir, "metrics.txt", lambda fh: fh.write(table))
    write_csv(out_dir, "timings.csv", ["fold", "wall_time_seconds"],
              ([r.fold, repr(float(r.wall_time))] for r in cv.folds))


def export_diagnostics(model, prepared, input_id, out_dir):
    """Write one eval pass's internals as CSV files.

    Emits sampling probabilities per (key, node), cost matrices, transport
    plans per sensitivity, the solver's iterations and convergence per
    (key, sensitivity) (0 iterations for a key of one node, whose plan is
    closed-form), attention weights (one row per input, summing to 1), and
    a short text summary.  Byte-identical on re-export.
    """
    model.refresh_key_encodings()
    result = model.forward([prepared], vgda.EVAL)
    probabilities = result.probabilities.values[0]
    plans, alpha = result.plans[0], result.alpha[0].values[0]
    lambdas = model.config.lambdas
    write_csv(out_dir, "sampling_probabilities.csv",
              ["input_id", "key_id", "node_index", "probability"],
              ([input_id, key_id, node_index, repr(float(value))]
               for key_id, probs in enumerate(
                   np.split(result.factor.p.values[:, 0],
                            model.dictionary.offsets[1:-1]))
               for node_index, value in enumerate(probs)))
    write_csv(out_dir, "costs.csv", ["input_id", "key_id", "row", "col", "value"],
              ([input_id, key_id, row, col, repr(float(value))]
               for key_id, cost in enumerate(np.split(
                   result.cost[0].values, plans.offsets[1:-1], axis=1))
               for (row, col), value in np.ndenumerate(cost)))
    write_csv(out_dir, "plans.csv",
              ["input_id", "key_id", "lambda", "row", "col", "value"],
              ([input_id, key_id, repr(float(lam)), row, col,
                repr(float(value))]
               for key_id, stack in enumerate(plans.per_key())
               for c, lam in enumerate(lambdas)
               for (row, col), value in np.ndenumerate(stack[c])))
    write_csv(out_dir, "solver.csv",
              ["input_id", "key_id", "lambda", "iterations", "converged"],
              ([input_id, key_id, repr(float(lambdas[c])), int(iterations),
                bool(plans.converged[key_id, c])]
               for (key_id, c), iterations in np.ndenumerate(
                   plans.iterations)))
    write_csv(out_dir, "attention.csv",
              ["input_id"] + [f"weight_{lam:g}" for lam in lambdas],
              [[input_id] + [repr(float(v)) for v in alpha]])
    predicted = int(np.argmax(probabilities))
    kl_total = vgda.bernoulli_kl(model.config.p_hat, result.factor.p).item()
    summary = (f"input_id: {input_id}\n"
               f"true_label: {prepared.label}\n"
               f"predicted_label: {predicted}\n"
               f"probabilities: {np.array2string(probabilities)}\n"
               f"kl_total: {kl_total!r}\n"
               f"keys: {len(model.dictionary)}\n"
               f"sensitivities: {list(lambdas)}\n")
    _write(out_dir, "summary.txt", lambda fh: fh.write(summary))
    return result
