"""Workloads, the measured closed loops, and the end-to-end metrics.

Every workload runs from one process with ``workers=1`` through the
package's public entry points: ``train_one_fold`` for training,
``GraphDictionaryModel.prepare`` / ``refresh_key_encodings`` / ``predict``
for scoring, with optimizer steps timed at the ``Adam.step`` boundary.
Every time is a CPU time scaled to nominal host speed (see ``calibrate``).
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

import graphdict
from graphdict import (GraphDictError, TrainConfig, stratified_folds,
                       train_one_fold)
from graphdict.mswe import DEFAULT_LAMBDA_GRID

import calibrate
import datasets
import tracing

# Same-seed training calls per run: their loss traces must agree byte for byte.
MIN_TRAIN_CALLS = 2
# Scoring passes after each training call: enough predictions in a run for
# a tail percentile with tens of samples beyond it.
SCORE_PASSES = 3
REFERENCE_SEED = 0
PROTOCOL_FOLDS = 10
PROTOCOL_EPOCHS = 100
FOLD = 0
# A tail percentile needs at least this many samples beyond it.
TAIL_SAMPLES = 10

END_TO_END_UNITS = {
    "setup_s": "s", "epoch_s": "s", "protocol_min": "min",
    "step_ms_p50": "ms",
    "eval_ms_p50": "ms", "eval_ms_p99": "ms",
    "final_loss": "nats", "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Workload:
    """One generated input set and the closed loop run over it.

    Graphs are scored by a reference model: fold 0's model trained
    ``config.epochs`` epochs on the set generated from ``REFERENCE_SEED``,
    the same model in every run.  Eval-mode node selection is close to
    all-or-nothing per graph this early in training, so a model trained on
    each run's own set would make eval latency swing by more than 2x from
    seed to seed.

    A ``train`` workload repeats ``train_one_fold`` on fold 0 of the seed's
    set, scoring every graph after each call; it trains the reference model
    once after its set-ups, outside every clock.  An eval workload trains
    the reference model in each set-up, which gives its training figures,
    and then scores graph after graph for the whole run.
    """

    name: str
    make_data: Callable
    config: TrainConfig
    train: bool
    # Set-ups per run; ``setup_s`` takes their median.
    setup_repeats: int


WORKLOADS = {
    "train-mutag": Workload("train-mutag", datasets.mutag_shaped,
                            TrainConfig(epochs=2), train=True,
                            setup_repeats=5),
    "eval-mutag": Workload("eval-mutag", datasets.mutag_shaped,
                           TrainConfig(epochs=2), train=False,
                           setup_repeats=3),
}


def tail_percentile(n):
    """The highest percentile, at most 99, with TAIL_SAMPLES samples beyond."""
    return max(0.0, min(99.0, 100.0 * (1.0 - TAIL_SAMPLES / n))) if n else 0.0


def percentile(values, q):
    return float(np.percentile(values, q)) if len(values) else float("nan")


@dataclass
class Split:
    """A generated set, the seed it came from, and its fold-0 split."""

    seed: int
    bundle: object
    train_idx: np.ndarray
    test_idx: np.ndarray


class Session:
    """One benchmark run: set-up, the measured loop, the checks.

    The model configuration, fold split and training streams come from the
    default ``TrainConfig.seed``; the workload seed only generates graphs.
    """

    def __init__(self, workload, seed, recorder):
        self.workload = workload
        self.seed = seed
        self.recorder = recorder
        self.calibrator = recorder.calibrator
        self.config = replace(workload.config, workers=1)
        self.model = None
        self.eval_s = []          # (CPU seconds, burst index) per prediction
        self.loss_traces = {}
        self.accuracies = []
        self.reference_probs = {}

    # -- set-up ------------------------------------------------------------

    def split(self, seed):
        bundle = self.workload.make_data(seed)
        folds = stratified_folds(bundle.labels, self.config.folds,
                                 self.config.seed)
        test_idx = folds[FOLD]
        train_idx = np.setdiff1d(np.arange(len(bundle.graphs)), test_idx)
        return Split(seed, bundle, train_idx, test_idx)

    def set_up(self):
        """Generate the set; an eval workload also makes the reference model."""
        self.data = self.split(self.seed)
        if not self.workload.train:
            self.make_reference(measured=True)

    def make_reference(self, measured):
        self.model = self.train_call(self.split(REFERENCE_SEED), measured)
        if self.model is None:
            raise RuntimeError("reference training raised GraphDictError")
        self.prepare_all()

    def prepare_all(self):
        self.prepared = [self.model.prepare(g) for g in self.data.bundle.graphs]

    # -- closed loops ------------------------------------------------------

    def train_call(self, split, measured):
        """One ``train_one_fold`` call; returns its model (None if it raised).

        Every call on the same set must repeat the first one's loss trace
        byte for byte; otherwise all of its operations count as failed.
        """
        steps_before = self.recorder.attempted
        key = (split.seed, self.config.epochs)
        self.recorder.begin_call(key, measured, math.ceil(
            len(split.train_idx) / self.config.batch_size))
        seed_seq = np.random.SeedSequence(self.config.seed).spawn(
            self.config.folds)[FOLD]
        try:
            result, model = train_one_fold(split.bundle, FOLD, split.train_idx,
                                           split.test_idx, self.config, seed_seq)
        except GraphDictError:
            self.recorder.abort()
            return None
        self.recorder.end_call()
        trace = np.asarray(result.loss_trace, dtype=np.float64)
        first = self.loss_traces.setdefault(key, trace)
        if trace.tobytes() != first.tobytes() or not np.isfinite(trace).all():
            self.recorder.fail(self.recorder.attempted - steps_before)
        self.accuracies.append(result.accuracy)
        return model

    def score(self, deadline=None, tracer=None):
        """Closed-loop eval: refresh the keys, then predict graph after graph.

        A calibration burst precedes every ``BURST_EVERY``-th prediction.
        Probabilities of a graph must repeat byte for byte on every pass.
        Returns False when the deadline cut the pass short.
        """
        try:
            self.model.refresh_key_encodings()
        except GraphDictError:
            self.recorder.abort()
            return True
        for i, prepared in enumerate(self.prepared):
            if deadline is not None and time.perf_counter() >= deadline:
                return False
            if i % calibrate.BURST_EVERY == 0:
                self.calibrator.burst()
            if tracer is not None:
                tracer.graph_id = i
            start = calibrate.cpu_clock()
            try:
                probs = self.model.predict(prepared)
            except GraphDictError:
                self.recorder.abort()
                continue
            self.eval_s.append((calibrate.cpu_clock() - start,
                                self.calibrator.last))
            first = self.reference_probs.setdefault(i, probs.tobytes())
            if first != probs.tobytes():
                self.recorder.fail()
        return True

    def measure(self, seconds, tracer=None, min_calls=MIN_TRAIN_CALLS):
        """Run the workload's closed loop for ``seconds``."""
        start = time.perf_counter()
        deadline = start + seconds
        if self.workload.train:
            calls = 0
            # Start another call only if it should end nearer the deadline
            # than stopping now would.
            while calls < min_calls or \
                    time.perf_counter() + elapsed / calls / 2 < deadline:
                self.train_call(self.data, measured=True)
                for _ in range(SCORE_PASSES):
                    self.score(tracer=tracer)
                calls += 1
                elapsed = time.perf_counter() - start
        else:
            while self.score(deadline, tracer):
                pass


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def training_figures(calls, calibrator):
    """Scaled step, epoch and per-call overhead seconds of finished calls.

    A call's overhead is its time outside steps: building the model,
    preparing the graphs and scoring the test fold.
    """
    steps, epochs, overheads = [], [], []
    for call in calls:
        if call.total is None:
            continue
        scaled = [raw * calibrator.scale(j) for raw, j in call.steps]
        steps.extend(scaled)
        per = call.steps_per_epoch
        epochs.extend(sum(scaled[k:k + per])
                      for k in range(0, len(scaled) - per + 1, per))
        outside = call.total - sum(raw for raw, _ in call.steps)
        overheads.append(outside * calibrator.scale_between(
            call.first_burst - 1, call.last_burst))
    return steps, epochs, overheads


def eval_times(samples, calibrator):
    return [raw * calibrator.scale(j) for raw, j in samples]


def end_to_end(session, recorder, setup_s):
    calibrator = session.calibrator
    calls = [c for c in recorder.calls if c.measured]
    steps, epochs, overheads = training_figures(calls, calibrator)
    epoch_s = statistics.median(epochs)
    eval_ms = [s * 1e3 for s in eval_times(session.eval_s, calibrator)]
    tail = tail_percentile(len(eval_ms))
    values = {
        "setup_s": setup_s,
        "epoch_s": epoch_s,
        "protocol_min": PROTOCOL_FOLDS * (statistics.median(overheads)
                                          + PROTOCOL_EPOCHS * epoch_s) / 60.0,
        "step_ms_p50": percentile(steps, 50) * 1e3,
        "eval_ms_p50": percentile(eval_ms, 50),
        "eval_ms_p99": percentile(eval_ms, tail),
        "final_loss": float(session.loss_traces[calls[0].key][-1]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"train_calls": len(calls), "epochs": len(epochs),
               "steps": len(steps), "predictions": len(eval_ms),
               "eval_tail_percentile": round(tail, 2),
               "fold_overhead_s": round(statistics.median(overheads), 4),
               "bursts": len(calibrator.times),
               "burst_ms_median": round(statistics.median(calibrator.times) * 1e3, 4)}
    return values, samples


def environment():
    """What the figures depend on besides the code: versions, BLAS, cores."""
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    src = os.path.dirname(graphdict.__file__)
    src_lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def run(workload, seed, seconds, trace, import_s=0.0, trace_dir=None):
    """Set up, measure and check one workload; return the result object.

    The untraced run reports the end-to-end metrics.  The traced run
    measures half the window untraced and half traced, and reports the
    per-layer metrics with the tracing overhead between the two halves.
    """
    calibrator = calibrate.Calibrator()
    calibrator.burst()
    recorder = tracing.Recorder(calibrator)
    with tracing.Patches() as patches:
        recorder.install(patches)
        session = Session(workload, seed, recorder)
        setups = []
        for _ in range(workload.setup_repeats):
            first = calibrator.last
            start = calibrate.cpu_clock()
            session.set_up()
            calibrator.burst()
            raw = (calibrate.cpu_clock() - start
                   - calibrator.spent(first + 1, calibrator.last))
            setups.append(raw * calibrator.scale_between(first, calibrator.last))
        # Imports ran before the first burst; scale them by all set-up bursts.
        import_s *= calibrator.scale_between(0, calibrator.last)
        setup_s = import_s + statistics.median(setups)
        if session.model is None:
            session.make_reference(measured=False)
        if not trace:
            session.measure(seconds)
            metrics, samples = end_to_end(session, recorder, setup_s)
            units = END_TO_END_UNITS
            spans = None
        else:
            metrics, samples, spans = traced(session, recorder, patches, seconds)
            units = PER_LAYER_UNITS
    samples["import_s"] = round(import_s, 4)
    samples["setups_s"] = "/".join(f"{s:.4f}" for s in setups)
    failed_frac = recorder.failed / max(recorder.attempted, 1)
    if trace:
        metrics["failed_frac"] = failed_frac
        if trace_dir is not None:
            write_spans(spans, os.path.join(
                trace_dir, f"trace-{workload.name}-seed{seed}.jsonl"))
    return {
        "correct": recorder.failed == 0,
        "attempted": recorder.attempted,
        "failed": recorder.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }, samples


def traced(session, recorder, patches, seconds):
    """Untraced half, then traced half; returns per-layer metrics."""
    calibrator = session.calibrator
    calls_before = len(recorder.calls)
    session.measure(seconds / 2, min_calls=1)
    calls_mid = len(recorder.calls)
    eval_mid = len(session.eval_s)

    tracer = tracing.Tracer(recorder)
    tracer.install(patches)
    calibrator.tracer = tracer
    accuracies_mid = len(session.accuracies)
    session.prepare_all()
    session.measure(seconds / 2, tracer=tracer, min_calls=1)
    calibrator.tracer = None
    tracer.close_all()
    if tracer.nesting_violations():
        recorder.fail(tracer.nesting_violations())

    if session.workload.train:
        _, untraced_epochs, _ = training_figures(
            recorder.calls[calls_before:calls_mid], calibrator)
        _, traced_epochs, _ = training_figures(recorder.calls[calls_mid:],
                                               calibrator)
        overhead = (statistics.median(traced_epochs)
                    / statistics.median(untraced_epochs))
    else:
        times = eval_times(session.eval_s, calibrator)
        overhead = (statistics.median(times[eval_mid:])
                    / statistics.median(times[:eval_mid]))
    accuracies = session.accuracies[accuracies_mid:]
    holdout = float(np.mean(accuracies)) if accuracies else 0.0
    metrics = tracing.layer_metrics(tracer, DEFAULT_LAMBDA_GRID, overhead,
                                    holdout)
    samples = {"spans": len(tracer.spans)}
    return metrics, samples, tracer.spans


def write_spans(spans, path):
    """Write the spans once, after the run, one JSON object per line."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    origin = spans[0][1] if spans else 0.0
    with open(path, "w") as fh:
        for name, start, end, parent, unit in spans:
            fh.write(json.dumps({
                "name": name, "start_us": round((start - origin) * 1e6, 1),
                "end_us": round((end - origin) * 1e6, 1), "parent": parent,
                "unit": unit}) + "\n")


def _per_layer_units():
    units = {
        "encoder.ms_per_step": "ms", "encoder.key_refresh_ms": "ms",
        "encoder.calls_per_step": "count", "encoder.ms_per_graph": "ms",
        "vgda.ms_per_graph": "ms", "vgda.selected_frac": "ratio",
        "vgda.fallback_frac": "ratio",
        "mswe.sinkhorn_calls_per_graph": "count",
        "mswe.sinkhorn_us_per_call": "us", "mswe.sinkhorn_ms_per_graph": "ms",
    }
    for lam in DEFAULT_LAMBDA_GRID:
        units[tracing.lambda_metric(lam)] = "iterations"
    units.update({
        "mswe.log_domain_frac": "ratio", "mswe.nonconverged_frac": "ratio",
        "mswe.nonconverged_warnings": "count", "mswe.solve_cells_mean": "count",
        "mswe.plan_marginal_err_max": "abs",
        "mswe.cost_ms_per_graph": "ms", "mswe.plan_costs_ms_per_graph": "ms",
        "mswe.attention_ms_per_graph": "ms",
        "model.forward_self_ms_per_graph": "ms",
        "tensor.backward_ms_per_step": "ms", "tensor.tape_nodes_per_step": "count",
        "tensor.backward_us_per_node": "us",
        "training.adam_ms_per_step": "ms", "training.momentum_ms_per_step": "ms",
        "training.step_self_ms": "ms", "training.holdout_accuracy": "ratio",
        "data.prepare_ms_per_graph": "ms",
        "trace.overhead_ratio": "ratio", "failed_frac": "ratio",
    })
    return units


PER_LAYER_UNITS = _per_layer_units()


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def report(workload, seed, result, samples, env, out=sys.stdout):
    """Human-readable lines, then the result object as the last line."""
    print(f"workload {workload.name}  seed {seed}  env {json.dumps(env)}", file=out)
    for name, entry in result["metrics"].items():
        print(f"  {name:36s} {entry['value']:>14.6g} {entry['unit']}", file=out)
    print("  samples " + "  ".join(f"{k}={v}" for k, v in samples.items()),
          file=out)
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}", file=out)
    print(json.dumps(result), file=out)


def main(argv, import_s, root):
    import argparse
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    result, samples = run(workload, args.seed, args.seconds, bool(args.trace),
                          import_s=import_s,
                          trace_dir=os.path.join(root, ".perfbench_out"))
    report(workload, args.seed, result, samples, environment())
    return 0
