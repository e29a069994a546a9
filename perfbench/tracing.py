"""Patch points for the benchmark: light checks and the per-layer trace.

Nothing here edits the package.  The harness swaps public functions and
methods of ``graphdict`` for wrappers at the places where the package looks
them up (a module attribute, or a name imported into the calling module),
and puts every original back on exit.

``Recorder`` hooks are always installed: they time optimizer steps at the
``Adam.step`` boundary and check every loss and probability row.  Step
times are read from the thread's CPU clock (see ``cpu_clock``).  ``Tracer``
hooks are installed only for a traced run: they record one span per call
into each layer, and the counts the per-layer metrics need.

Every optimizer step starts with a calibration burst (see ``calibrate``),
which the step clock leaves out and the trace records as its own span.
"""

from __future__ import annotations

import functools
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from graphdict import mswe, tensor as T, training, vgda
from graphdict.model import GraphDictionaryModel

from calibrate import cpu_clock

PROB_SUM_TOL = 1e-12
MARGINAL_TOL = 1e-9
_NONCONVERGED = "sinkhorn did not converge"


class Patches:
    """Attribute swaps undone in reverse order on exit."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr, make_wrapper):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False


def probabilities_ok(row):
    row = np.asarray(row)
    return bool(np.isfinite(row).all() and abs(row.sum() - 1.0) <= PROB_SUM_TOL)


@dataclass
class Call:
    """One ``train_one_fold`` call: its steps and its CPU time.

    ``steps`` holds (CPU seconds, index of the burst that opened the step).
    ``total`` is the call's CPU time less its bursts; it stays None if the
    call raised.  Same-key calls do identical work step for step.
    """

    key: tuple
    measured: bool
    steps_per_epoch: int
    start: float
    first_burst: int
    steps: list = field(default_factory=list)
    total: float | None = None
    last_burst: int = -1


class Recorder:
    """Step clock plus the correctness tally behind ``failed``.

    An operation is one optimizer step or one prediction (a forward pass
    outside any step).  It fails when it raises ``GraphDictError`` or any
    check made while it runs fails.  A step runs from the previous step's
    ``Adam.step`` return (a call's first step: from its first
    ``zero_grad``) to its own, less the burst run at its ``zero_grad``.
    """

    def __init__(self, calibrator):
        self.calibrator = calibrator
        self.calls = []
        self.attempted = 0
        self.failed = 0
        self._in_step = False
        self._bad = False
        self._last = None
        self._burst = -1
        self._excluded = 0.0

    def install(self, patches):
        rec = self

        def zero_grad(original):
            def wrapper(*args, **kwargs):
                before = cpu_clock()
                rec.calibrator.burst()
                now = cpu_clock()
                rec._burst = rec.calibrator.last
                if rec._last is None:
                    rec._last = now
                else:
                    rec._excluded += now - before
                rec._in_step, rec._bad = True, False
                return original(*args, **kwargs)
            return wrapper

        def step(original):
            def wrapper(*args, **kwargs):
                out = original(*args, **kwargs)
                rec._step_done(cpu_clock())
                return out
            return wrapper

        def backward(original):
            def wrapper(tape, root, *args, **kwargs):
                if not np.isfinite(root.values).all():
                    rec.flag()
                return original(tape, root, *args, **kwargs)
            return wrapper

        def forward(original):
            def wrapper(*args, **kwargs):
                out = original(*args, **kwargs)
                rec._forward_done(out.probabilities.values[0])
                return out
            return wrapper

        patches.wrap(training.Adam, "zero_grad", zero_grad)
        patches.wrap(training.Adam, "step", step)
        patches.wrap(T.Tape, "backward", backward)
        patches.wrap(GraphDictionaryModel, "forward", forward)

    def begin_call(self, key, measured, steps_per_epoch):
        """Start a ``train_one_fold`` call; its first step opens the clock."""
        self.calls.append(Call(key, measured, steps_per_epoch, cpu_clock(),
                               self.calibrator.last + 1))
        self._last = None
        self._excluded = 0.0

    def end_call(self):
        call = self.calls[-1]
        call.last_burst = self.calibrator.last
        call.total = (cpu_clock() - call.start
                      - self.calibrator.spent(call.first_burst, call.last_burst))

    def flag(self):
        """Mark the operation in progress as failed."""
        self._bad = True

    def fail(self, count=1):
        """Count ``count`` already-finished operations as failed."""
        self.failed += count

    def abort(self):
        """The operation in progress raised: count it as attempted and failed."""
        self.attempted += 1
        self.failed += 1
        self._in_step = self._bad = False

    def _step_done(self, now):
        self.calls[-1].steps.append((now - self._last - self._excluded,
                                     self._burst))
        self._last = now
        self._excluded = 0.0
        self._finish()
        self._in_step = False

    def _forward_done(self, row):
        if not probabilities_ok(row):
            self._bad = True
        if not self._in_step:
            self._finish()

    def _finish(self):
        self.attempted += 1
        self.failed += int(self._bad)
        self._bad = False


class Tracer:
    """In-memory spans around the calls into each layer, plus layer counts.

    A span is (name, start, end, parent index, unit): the unit is the step
    or graph the span works for, shared by every span nested inside it.
    Optimizer steps run from ``Adam.zero_grad`` to the end of the momentum
    update; every other span is one call of the wrapped function.
    """

    def __init__(self, recorder):
        self.recorder = recorder
        self.spans = []
        self.graph_id = None
        self.backward_nodes = []
        self.adapt = []           # (selected, key nodes, fell back)
        self.solves = []          # (lam, iterations, converged, log domain)
        self.solve_cells = []
        self.nonconverged_warnings = 0
        self.marginal_err_max = 0.0
        self._stack = []
        self._counts = {}

    # -- spans ---------------------------------------------------------------

    def open_span(self, name):
        parent = self._stack[-1] if self._stack else -1
        if parent >= 0:
            unit = self.spans[parent][4]
        else:
            n = self._counts.get(name, 0)
            self._counts[name] = n + 1
            if name == "model.predict" and self.graph_id is not None:
                n = self.graph_id
            unit = f"{_UNIT_KIND.get(name, name)}:{n}"
        self.spans.append([name, time.perf_counter(), None, parent, unit])
        self._stack.append(len(self.spans) - 1)

    def close_span(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def close_all(self):
        while self._stack:
            self.close_span()

    def _span(self, name, after=None):
        def make(original):
            def wrapper(*args, **kwargs):
                self.open_span(name)
                try:
                    out = original(*args, **kwargs)
                finally:
                    self.close_span()
                if after is not None:
                    after(args, kwargs, out)
                return out
            return wrapper
        return make

    # -- installation ----------------------------------------------------------

    def install(self, patches):
        from graphdict import model as model_module
        wrap = patches.wrap
        wrap(model_module, "featurize", self._span("data.featurize"))
        wrap(model_module, "normalize_adjacency",
             self._span("data.normalize_adjacency"))
        wrap(GraphDictionaryModel, "prepare", self._span("model.prepare"))
        wrap(model_module, "encode", self._span("encoder.encode"))
        wrap(vgda, "adapt_key", self._span("vgda.adapt_key", self._after_adapt))
        wrap(mswe, "embed_keys_multi", self._span("mswe.embed_keys_multi"))
        wrap(mswe, "cost_matrix", self._span("mswe.cost_matrix"))
        wrap(mswe, "sinkhorn_grid", self._sinkhorn)
        wrap(mswe, "aggregate_attention_matrix",
             self._span("mswe.aggregate_attention_matrix"))
        wrap(T, "plan_costs", self._span("tensor.plan_costs"))
        wrap(GraphDictionaryModel, "forward", self._span("model.forward"))
        wrap(GraphDictionaryModel, "refresh_key_encodings",
             self._span("model.refresh_key_encodings"))
        wrap(GraphDictionaryModel, "predict", self._span("model.predict"))
        wrap(GraphDictionaryModel, "batch_loss", self._span("model.batch_loss"))
        wrap(T.Tape, "backward", self._backward)
        wrap(training.Adam, "step", self._span("training.adam_step"))
        wrap(training.Adam, "zero_grad", self._step_open)
        wrap(training, "momentum_update", self._step_close)

    def _step_open(self, original):
        def wrapper(*args, **kwargs):
            self.close_all()        # a step that raised never reached its end
            self.open_span("training.step")
            return original(*args, **kwargs)
        return wrapper

    def _step_close(self, original):
        traced = self._span("encoder.momentum_update")(original)

        def wrapper(*args, **kwargs):
            out = traced(*args, **kwargs)
            if self._stack and self.spans[self._stack[-1]][0] == "training.step":
                self.close_span()
            return out
        return wrapper

    def _backward(self, original):
        traced = self._span("tensor.backward")(original)

        def wrapper(tape, root, *args, **kwargs):
            self.backward_nodes.append(len(tape.nodes))
            return traced(tape, root, *args, **kwargs)
        return wrapper

    def _after_adapt(self, args, kwargs, out):
        _adapted, factor, _kl = out
        source = factor.z_tilde if factor.z_tilde is not None else factor.p
        fell_back = not (source.values[:, 0] > 0.5).any()
        self.adapt.append((int(factor.z.sum()), factor.z.size, fell_back))

    def _sinkhorn(self, original):
        traced = self._span("mswe.sinkhorn_grid")(original)

        def wrapper(M, lams, *args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                plans = traced(M, lams, *args, **kwargs)
            for w in caught:
                if str(w.message).startswith(_NONCONVERGED):
                    self.nonconverged_warnings += 1
                else:
                    warnings.warn_explicit(w.message, w.category, w.filename,
                                           w.lineno)
            self._check_plans(np.asarray(M), np.asarray(lams, dtype=float),
                              plans, kwargs)
            return plans
        return wrapper

    def _check_plans(self, M, lams, plans, kwargs):
        n, m = M.shape
        a = kwargs.get("a")
        b = kwargs.get("b")
        a = np.full(n, 1.0 / n) if a is None else np.asarray(a)
        b = np.full(m, 1.0 / m) if b is None else np.asarray(b)
        peak = M.max() if M.size else 0.0
        self.solve_cells.append(n * m)
        for plan, lam in zip(plans, lams.reshape(-1)):
            err = max(np.abs(plan.values.sum(axis=1) - a).max(),
                      np.abs(plan.values.sum(axis=0) - b).max())
            self.marginal_err_max = max(self.marginal_err_max, float(err))
            if not err <= MARGINAL_TOL:
                self.recorder.flag()
            self.solves.append((plan.lam, plan.iterations_used, plan.converged,
                                lam * peak > mswe.LOG_DOMAIN_THRESHOLD))

    # -- checks and output -------------------------------------------------------

    def nesting_violations(self):
        """Spans that leave their parent's interval or unit."""
        bad = 0
        for name, start, end, parent, unit in self.spans:
            if parent < 0:
                continue
            _, p_start, p_end, _, p_unit = self.spans[parent]
            if not (p_start <= start <= end <= p_end and unit == p_unit):
                bad += 1
        return bad

    def self_times(self):
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, start, end, _, _) in enumerate(self.spans)]


_UNIT_KIND = {"training.step": "step", "model.predict": "graph",
              "model.forward": "graph"}


def _mean(values):
    return float(np.mean(values)) if len(values) else 0.0


def layer_metrics(tracer, lambda_grid, overhead_ratio, holdout_accuracy):
    """Per-layer metrics of one traced window.

    "Per step" divides by optimizer steps and "per graph" by forward passes.
    A layer that did no work in the window (no steps on eval-mutag, or a
    sensitivity outside the workload's grid) reads 0.
    """
    spans = tracer.spans
    self_times = tracer.self_times()
    total = {}
    count = {}
    in_step_total = {}
    in_step_count = {}
    forward_self = []
    step_self = []
    encode_under_forward = []
    for i, (name, start, end, parent, unit) in enumerate(spans):
        dur = end - start
        total[name] = total.get(name, 0.0) + dur
        count[name] = count.get(name, 0) + 1
        if unit.startswith("step:"):
            in_step_total[name] = in_step_total.get(name, 0.0) + dur
            in_step_count[name] = in_step_count.get(name, 0) + 1
        if name == "model.forward":
            forward_self.append(self_times[i])
        elif name == "training.step":
            step_self.append(self_times[i])
        elif name == "encoder.encode" and parent >= 0 \
                and spans[parent][0] == "model.forward":
            encode_under_forward.append(dur)

    def per(total_s, n, scale=1e3):
        return total_s * scale / n if n else 0.0

    steps = count.get("training.step", 0)
    graphs = count.get("model.forward", 0)
    sinkhorn_calls = count.get("mswe.sinkhorn_grid", 0)
    adapt = tracer.adapt
    solves = tracer.solves
    nodes = tracer.backward_nodes
    metrics = {
        "encoder.ms_per_step": per(in_step_total.get("encoder.encode", 0.0), steps),
        "encoder.key_refresh_ms": per(total.get("model.refresh_key_encodings", 0.0),
                                      count.get("model.refresh_key_encodings", 0)),
        "encoder.calls_per_step": per(in_step_count.get("encoder.encode", 0), steps, 1),
        "encoder.ms_per_graph": _mean(encode_under_forward) * 1e3,
        "vgda.ms_per_graph": per(total.get("vgda.adapt_key", 0.0), graphs),
        "vgda.selected_frac": (sum(a[0] for a in adapt) / sum(a[1] for a in adapt)
                               if adapt else 0.0),
        "vgda.fallback_frac": _mean([a[2] for a in adapt]),
        "mswe.sinkhorn_calls_per_graph": per(sinkhorn_calls, graphs, 1),
        "mswe.sinkhorn_us_per_call": per(total.get("mswe.sinkhorn_grid", 0.0),
                                         sinkhorn_calls, 1e6),
        "mswe.sinkhorn_ms_per_graph": per(total.get("mswe.sinkhorn_grid", 0.0), graphs),
    }
    for lam in lambda_grid:
        metrics[lambda_metric(lam)] = _mean([s[1] for s in solves if s[0] == lam])
    metrics.update({
        "mswe.log_domain_frac": _mean([s[3] for s in solves]),
        "mswe.nonconverged_frac": _mean([not s[2] for s in solves]),
        "mswe.nonconverged_warnings": float(tracer.nonconverged_warnings),
        "mswe.solve_cells_mean": _mean(tracer.solve_cells),
        "mswe.plan_marginal_err_max": tracer.marginal_err_max,
        "mswe.cost_ms_per_graph": per(total.get("mswe.cost_matrix", 0.0), graphs),
        "mswe.plan_costs_ms_per_graph": per(total.get("tensor.plan_costs", 0.0), graphs),
        "mswe.attention_ms_per_graph": per(
            total.get("mswe.aggregate_attention_matrix", 0.0), graphs),
        "model.forward_self_ms_per_graph": _mean(forward_self) * 1e3,
        "tensor.backward_ms_per_step": per(total.get("tensor.backward", 0.0), steps),
        "tensor.tape_nodes_per_step": _mean(nodes),
        "tensor.backward_us_per_node": per(total.get("tensor.backward", 0.0),
                                           sum(nodes), 1e6),
        "training.adam_ms_per_step": per(total.get("training.adam_step", 0.0), steps),
        "training.momentum_ms_per_step": per(
            total.get("encoder.momentum_update", 0.0), steps),
        "training.step_self_ms": _mean(step_self) * 1e3,
        "training.holdout_accuracy": holdout_accuracy,
        "data.prepare_ms_per_graph": per(total.get("model.prepare", 0.0),
                                         count.get("model.prepare", 0)),
        "trace.overhead_ratio": overhead_ratio,
    })
    return metrics


def lambda_metric(lam):
    return f"mswe.iters.lam_{lam:g}"
