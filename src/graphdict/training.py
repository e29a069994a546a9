"""Training and evaluation harness.

Adam with decoupled weight decay, stratified k-fold cross-validation with a
fresh model and dictionary per fold, deterministic per-fold RNG streams
(spawned from one root seed, so results do not depend on scheduling order),
metrics emission as both a human-readable table and CSV, and diagnostic
CSV export of sampling probabilities, cost matrices, transport plans, and
attention weights.
"""

from __future__ import annotations

import csv
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T, vgda
from .data import (DEGREE_ONEHOT, NODE_LABEL_ONEHOT, load_tu_dataset,
                   stratified_folds)
from .encoder import DEFAULT_HIDDEN_DIMS, momentum_update
from .errors import ConfigError, GraphDictError, IoError
from .model import (GraphDictionaryModel, LossConfig, ModelConfig,
                    save_checkpoint)
from .mswe import DEFAULT_MAX_ITER, DEFAULT_TOL, select_lambdas


@dataclass
class TrainConfig:
    """Run-level configuration; defaults follow the reference protocol."""

    dataset: str = ""
    data_dir: str = ""
    epochs: int = 500
    learning_rate: float = 0.001
    weight_decay: float = 1e-4
    beta: float = 0.001
    p_hat: float = 0.5
    keys: int = 14
    sensitivities: int = 8
    lambdas: tuple[float, ...] | None = None  # None -> from sensitivities
    momentum: float = 0.999
    seed: int = 0
    folds: int = 10
    batch_size: int = 32
    temperature: float = 1.0
    sinkhorn_max_iter: int = DEFAULT_MAX_ITER
    sinkhorn_tol: float = DEFAULT_TOL
    encoder_dims: tuple[int, ...] = DEFAULT_HIDDEN_DIMS
    head_hidden: int = 64
    adam_betas: tuple[float, float] = (0.9, 0.999)
    adam_eps: float = 1e-8
    workers: int = 1
    out_dir: str | None = None

    def resolved_lambdas(self):
        if self.lambdas is not None:
            return tuple(float(v) for v in self.lambdas)
        return select_lambdas(self.sensitivities)


# Desk-scale preset: identical protocol at a CI-friendly epoch budget.
DESK_EPOCHS = 100


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


def _feature_plan(bundle, train_graphs):
    """(scheme, dim): one-hot node labels when present, else clamped degrees."""
    if bundle.num_node_labels > 0:
        return NODE_LABEL_ONEHOT, bundle.num_node_labels
    max_degree = max(int(g.degrees().max()) for g in train_graphs)
    return DEGREE_ONEHOT, max_degree + 1


def model_config_for_fold(bundle, train_graphs, config):
    scheme, dim = _feature_plan(bundle, train_graphs)
    return ModelConfig(
        num_classes=bundle.num_classes,
        feature_scheme=scheme,
        feature_dim=dim,
        n_padded=bundle.max_node_count(),
        num_keys=config.keys,
        encoder_dims=tuple(config.encoder_dims),
        head_hidden=config.head_hidden,
        temperature=config.temperature,
        sinkhorn_max_iter=config.sinkhorn_max_iter,
        sinkhorn_tol=config.sinkhorn_tol,
        loss=LossConfig(beta=config.beta, p_hat=config.p_hat,
                        lambdas=config.resolved_lambdas()),
    )


def train_one_fold(bundle, fold_index, train_idx, test_idx, config, seed_seq):
    """Train a fresh model on one fold's training split and score its test split."""
    started = time.perf_counter()
    model_ss, noise_ss, shuffle_ss = seed_seq.spawn(3)
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
                results = [model.forward(prepared_train[i], vgda.TRAIN,
                                         rng=noise_rng) for i in batch]
                loss = model.batch_loss(results,
                                        [prepared_train[i].label for i in batch])
                tape.backward(loss)
            optimizer.step()
            momentum_update(model.encoder_dict, model.encoder_input,
                            config.momentum)
            batch_losses.append(loss.item())
        loss_trace.append(float(np.mean(batch_losses)))

    accuracy = model.evaluate(prepared_test)
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
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            futures = [pool.submit(_fold_worker, job) for job in jobs]
            for i, future in enumerate(futures):
                try:
                    results.append(future.result())
                except GraphDictError:
                    raise
                except Exception as exc:
                    raise GraphDictError(f"fold {i} crashed: {exc}") from exc
    else:
        for job in jobs:
            try:
                results.append(_fold_worker(job))
            except GraphDictError:
                raise
            except Exception as exc:
                raise GraphDictError(f"fold {job[1]} crashed: {exc}") from exc

    results.sort(key=lambda r: r.fold)
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
    _ensure_dir(out_dir)
    try:
        with open(os.path.join(out_dir, "metrics.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["fold", "n_train", "n_test", "accuracy"])
            for r in cv.folds:
                writer.writerow([r.fold, r.n_train, r.n_test,
                                 repr(float(r.accuracy))])
            writer.writerow(["mean", "", "", repr(cv.mean_accuracy)])
            writer.writerow(["std", "", "", repr(cv.std_accuracy)])
        with open(os.path.join(out_dir, "losses.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["fold", "epoch", "mean_loss"])
            for r in cv.folds:
                for epoch, value in enumerate(r.loss_trace):
                    writer.writerow([r.fold, epoch, repr(float(value))])
        with open(os.path.join(out_dir, "metrics.txt"), "w") as fh:
            fh.write(format_metrics_table(cv) + "\n")
        with open(os.path.join(out_dir, "timings.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["fold", "wall_time_seconds"])
            for r in cv.folds:
                writer.writerow([r.fold, repr(float(r.wall_time))])
    except OSError as exc:
        raise IoError(f"cannot write metrics under {out_dir}: {exc}") from exc


def export_diagnostics(model, prepared, input_id, out_dir):
    """Write one eval pass's internals as CSV files.

    Emits sampling probabilities per (key, node), cost matrices, transport
    plans per sensitivity, attention weights (one row per input, summing
    to 1), and a short text summary.  Byte-identical on re-export.
    """
    _ensure_dir(out_dir)
    model.refresh_key_encodings()
    result = model.forward(prepared, vgda.EVAL, collect=True)
    diag = result.diagnostics
    lambdas = model.config.loss.lambdas
    try:
        with open(os.path.join(out_dir, "sampling_probabilities.csv"), "w",
                  newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["input_id", "key_id", "node_index", "probability"])
            for key_id, probs in enumerate(diag.sampling_probabilities):
                for node_index, value in enumerate(probs):
                    writer.writerow([input_id, key_id, node_index,
                                     repr(float(value))])
        with open(os.path.join(out_dir, "costs.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["input_id", "key_id", "row", "col", "value"])
            for key_id, cost in enumerate(diag.costs):
                for (row, col), value in np.ndenumerate(cost):
                    writer.writerow([input_id, key_id, row, col,
                                     repr(float(value))])
        with open(os.path.join(out_dir, "plans.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["input_id", "key_id", "lambda", "row", "col",
                             "value"])
            for key_id, stack in enumerate(diag.plan_stacks):
                for c, lam in enumerate(lambdas):
                    for (row, col), value in np.ndenumerate(stack[c]):
                        writer.writerow([input_id, key_id, repr(float(lam)),
                                         row, col, repr(float(value))])
        with open(os.path.join(out_dir, "attention.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["input_id"] + [f"weight_{lam:g}" for lam in lambdas])
            writer.writerow([input_id] + [repr(float(v)) for v in diag.alpha])
        with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
            predicted = int(np.argmax(diag.probabilities))
            fh.write(f"input_id: {input_id}\n"
                     f"true_label: {prepared.label}\n"
                     f"predicted_label: {predicted}\n"
                     f"probabilities: {np.array2string(diag.probabilities)}\n"
                     f"kl_total: {float(diag.kl)!r}\n"
                     f"keys: {len(model.dictionary.keys)}\n"
                     f"sensitivities: {list(lambdas)}\n")
    except OSError as exc:
        raise IoError(f"cannot write diagnostics under {out_dir}: {exc}") from exc
    return result


def desk_scale(config):
    """The desk-scale preset: same protocol, epochs capped for CI runs."""
    return replace(config, epochs=min(config.epochs, DESK_EPOCHS))
