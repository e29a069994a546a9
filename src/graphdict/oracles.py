"""Independent verification oracles.

Each oracle is implemented from first principles, sharing no numerical core
with the module it checks: a high-precision log-domain transport solver, an
exact permutation-enumeration transport cost, and central finite-difference
gradients.  All oracles are deterministic and side-effect free.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, OracleError, ShapeError, SizeError


@dataclass
class OracleReport:
    """Outcome of one oracle comparison against a declared tolerance."""

    name: str
    max_abs_error: float
    max_rel_error: float
    tolerance: float
    passed: bool


def make_report(name, approx, exact, tolerance, relative=False):
    """Build an OracleReport comparing ``approx`` to ``exact`` elementwise."""
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    diff = np.abs(approx - exact)
    max_abs = float(diff.max()) if diff.size else 0.0
    denom = np.maximum(np.maximum(np.abs(approx), np.abs(exact)), 1e-12)
    max_rel = float((diff / denom).max()) if diff.size else 0.0
    err = max_rel if relative else max_abs
    return OracleReport(name, max_abs, max_rel, tolerance, err <= tolerance)


def write_reports(path, reports):
    """Emit oracle reports as CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "max_abs_error", "max_rel_error",
                         "tolerance", "passed"])
        for r in reports:
            writer.writerow([r.name, repr(r.max_abs_error), repr(r.max_rel_error),
                             repr(r.tolerance), r.passed])


def _logsumexp(x, axis):
    """log(sum(exp(x))) along ``axis``, in the arithmetic of SciPy's.

    Entries equal to the maximum are taken out of the shifted sum and come
    back through their count, so log1p keeps full precision when one term
    dominates; where that is not finite (an infinite or NaN entry) the
    direct sum is used.  Matches ``scipy.special.logsumexp`` bit for bit
    on real input without its per-call dispatch, which dominated the
    oracle's run time.
    """
    top = x.max(axis=axis, keepdims=True)
    is_top = x == top
    count = is_top.sum(axis=axis, keepdims=True, dtype=x.dtype)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        rest = np.exp(np.where(is_top, -np.inf, x) - top).sum(
            axis=axis, keepdims=True)
        rest = np.where(rest == 0, rest, rest / count)
        out = np.log1p(rest) + np.log(count) + top
        if not np.isfinite(out).all():
            out = np.where(np.isfinite(out), out,
                           np.log(np.exp(x).sum(axis=axis, keepdims=True)))
    return np.squeeze(out, axis=axis)


def reference_sinkhorn(M, lam, a, b, max_iter=10_000, tol=1e-12):
    """High-precision entropic transport plan, entirely in log space.

    Dual-potential formulation with soft-min updates at regularization
    1/lam; runs up to ``max_iter`` iterations until the worst marginal
    violation of the implied plan drops below ``tol``, then projects the
    result onto the exact transport polytope (row/column capping plus a
    rank-one fill).  Intended as a comparison oracle, not a production
    solver.
    """
    from .mswe import TransportPlan

    M = np.asarray(M, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if M.ndim != 2 or a.shape != (M.shape[0],) or b.shape != (M.shape[1],):
        raise ShapeError("reference_sinkhorn: marginal lengths must match M")
    if lam <= 0.0:
        raise NumericsError("reference_sinkhorn: lambda must be positive")
    eps = 1.0 / lam
    log_a = np.log(a)
    log_b = np.log(b)
    f = np.zeros(M.shape[0])
    g = np.zeros(M.shape[1])

    def plan(f_pot, g_pot):
        return np.exp((f_pot[:, None] + g_pot[None, :] - M) / eps)

    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        # soft-min over columns for f, over rows for g
        f = eps * log_a - eps * _logsumexp((g[None, :] - M) / eps, axis=1)
        g = eps * log_b - eps * _logsumexp((f[:, None] - M) / eps, axis=0)
        T = plan(f, g)
        if not np.isfinite(T).all():
            raise NumericsError("reference_sinkhorn: non-finite plan entries")
        violation = max(np.abs(T.sum(axis=1) - a).max(),
                        np.abs(T.sum(axis=0) - b).max())
        if violation < tol:
            converged = True
            break
    T = plan(f, g)
    for i in range(T.shape[0]):
        row = T[i].sum()
        if row > a[i]:
            T[i] *= a[i] / row
    for j in range(T.shape[1]):
        col = T[:, j].sum()
        if col > b[j]:
            T[:, j] *= b[j] / col
    gap_a = np.maximum(a - T.sum(axis=1), 0.0)
    gap_b = np.maximum(b - T.sum(axis=0), 0.0)
    missing = gap_a.sum()
    if missing > 0.0:
        T = T + np.outer(gap_a, gap_b) / missing
    return TransportPlan(values=T, lam=float(lam),
                         iterations_used=iterations, converged=converged)


def exact_ot_by_enumeration(M):
    """Exact optimal transport cost between uniform marginals on n points.

    Enumerates all n! permutation plans (each moving mass 1/n along one
    assignment) and returns the minimal average cost.  Restricted to n <= 6.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ShapeError("exact_ot_by_enumeration: cost matrix must be square")
    n = M.shape[0]
    if n > 6:
        raise SizeError(f"exact_ot_by_enumeration: n={n} exceeds the "
                        "enumeration limit of 6")
    best = np.inf
    rows = np.arange(n)
    for perm in itertools.permutations(range(n)):
        cost = M[rows, perm].sum() / n
        if cost < best:
            best = cost
    return float(best)


def finite_difference_gradient(closure, parameters, epsilon=1e-5):
    """Central-difference gradient of a scalar closure in every coordinate.

    ``closure`` takes no arguments and reads the current values of
    ``parameters`` (which are perturbed in place and restored).  Two
    baseline evaluations must agree bit for bit; otherwise the closure is
    non-deterministic and the estimate would be meaningless.
    """
    base_a = float(closure())
    base_b = float(closure())
    if base_a != base_b:
        raise OracleError("finite_difference_gradient: closure is "
                          f"non-deterministic ({base_a!r} != {base_b!r})")

    grads = []
    for p in parameters:
        flat = p.values.reshape(-1)
        grad = np.zeros_like(flat)
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + epsilon
            f_plus = float(closure())
            flat[idx] = original - epsilon
            f_minus = float(closure())
            flat[idx] = original
            grad[idx] = (f_plus - f_minus) / (2.0 * epsilon)
        grads.append(grad.reshape(p.values.shape))
    return grads
