"""Multi-sensitivity entropic transport embedding.

For one input graph and its adapted dictionary keys: squared-Euclidean cost
matrices, entropic optimal transport plans at several sensitivities solved
by Sinkhorn iteration, per-key embedding values <plan, cost>, and attention
aggregation across sensitivities.

Plans are solved outside the differentiation tape and re-enter it as
constants (the envelope rule): gradients flow through the cost matrices
only.  One loop solves all sensitivities for a cost matrix in a batch,
retiring each at the iteration where it converges; a sensitivity takes the
scaling update while ``lam * max(M) <= 30`` and the log-domain potential
update beyond that, to avoid underflow.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import tensor as T
from .errors import ConfigError, NumericsError, ShapeError

LOG_DOMAIN_THRESHOLD = 30.0
DEFAULT_MAX_ITER = 200
DEFAULT_TOL = 1e-6

# The full ablation grid of sensitivities, and the 8-value default obtained
# by thinning it to roughly uniform coverage in log-space.
MASTER_LAMBDA_GRID = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 3.0, 5.0,
                      10.0, 20.0, 100.0)
DEFAULT_LAMBDA_GRID = (0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 10.0, 100.0)


def select_lambdas(count):
    """Pick ``count`` sensitivities from the master grid.

    The 8-value default keeps its hand-picked log-uniform thinning; other
    counts take evenly spaced positions along the master grid.
    """
    if count == len(DEFAULT_LAMBDA_GRID):
        return DEFAULT_LAMBDA_GRID
    if not 1 <= count <= len(MASTER_LAMBDA_GRID):
        raise ConfigError(f"sensitivity count must lie in "
                          f"[1, {len(MASTER_LAMBDA_GRID)}], got {count}")
    positions = np.round(np.linspace(0, len(MASTER_LAMBDA_GRID) - 1,
                                     count)).astype(int)
    return tuple(MASTER_LAMBDA_GRID[i] for i in dict.fromkeys(positions))


@dataclass
class TransportPlan:
    """An entropic transport plan for one (cost matrix, sensitivity) pair."""

    values: np.ndarray
    lam: float
    iterations_used: int
    converged: bool


def uniform_marginal(n):
    """The uniform node-mass vector of length n."""
    return np.full(n, 1.0 / n)


def _check_marginal(name, vec, length):
    vec = np.asarray(vec, dtype=np.float64)
    if vec.shape != (length,):
        raise ShapeError(f"sinkhorn: marginal {name} has shape {vec.shape}, "
                         f"expected ({length},)")
    if (vec <= 0.0).any():
        raise ConfigError(f"sinkhorn: marginal {name} must be strictly positive")
    if abs(vec.sum() - 1.0) > 1e-9:
        raise ConfigError(f"sinkhorn: marginal {name} must sum to 1")
    return vec


def _logsumexp(x, axis):
    peak = x.max(axis=axis, keepdims=True)
    return np.log(np.exp(x - peak).sum(axis=axis)) + np.squeeze(peak, axis=axis)


def _marginal_violation(plans, a, b):
    """Worst row/column marginal violation per plan in a (c, n, m) stack."""
    row = np.abs(plans.sum(axis=2) - a[None, :]).max(axis=1)
    col = np.abs(plans.sum(axis=1) - b[None, :]).max(axis=1)
    return np.maximum(row, col)


def _round_to_feasible(plans, a, b):
    """Project a (c, n, m) plan stack onto the exact transport polytope.

    Scale rows down to at most ``a``, then columns down to at most ``b``,
    then add the rank-one correction that restores both marginals exactly.
    All three steps keep entries nonnegative.  Near-converged plans move by
    no more than their marginal violation; plans cut off at the iteration
    cap become feasible couplings instead of approximate ones.
    """
    rows = plans.sum(axis=2)
    scaled = plans * np.minimum(a[None, :] / rows, 1.0)[:, :, None]
    cols = scaled.sum(axis=1)
    scaled = scaled * np.minimum(b[None, :] / cols, 1.0)[:, None, :]
    err_a = np.maximum(a[None, :] - scaled.sum(axis=2), 0.0)
    err_b = np.maximum(b[None, :] - scaled.sum(axis=1), 0.0)
    missing = err_a.sum(axis=1)
    needs = missing > 0.0
    if needs.any():
        correction = np.einsum("cn,cm->cnm", err_a, err_b)
        scaled[needs] += correction[needs] / missing[needs, None, None]
    return scaled


def _scaling_step(a, b, kernel, v):
    """u/v scaling update; u is rebuilt from v, so the state is (kernel, v)."""
    u = a[None, :] / np.einsum("cnm,cm->cn", kernel, v)
    v = b[None, :] / np.einsum("cnm,cn->cm", kernel, u)
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise NumericsError("sinkhorn: non-finite scaling vector "
                            "(use the log-domain branch)")
    return (kernel, v), u[:, :, None] * kernel * v[:, None, :]


def _log_domain_step(M, log_a, log_b, eps, g):
    """Log-domain update; f is rebuilt from g, so the state is (eps, g)."""
    eps_col = eps[:, None]
    f = eps_col * log_a[None, :] - eps_col * _logsumexp(
        (g[:, None, :] - M[None, :, :]) / eps[:, None, None], axis=2)
    g = eps_col * log_b[None, :] - eps_col * _logsumexp(
        (f[:, :, None] - M[None, :, :]) / eps[:, None, None], axis=1)
    if not (np.isfinite(f).all() and np.isfinite(g).all()):
        raise NumericsError("sinkhorn: non-finite log-domain potentials")
    return (eps, g), np.exp((f[:, :, None] + g[:, None, :] - M[None, :, :])
                            / eps[:, None, None])


def _solve(step, state, a, b, max_iter, tol):
    """Iterate ``step`` on a batch; return (plans, iterations, converged).

    ``step`` maps a state tuple, batched on axis 0, to the next state and its
    (c, n, m) plans.  A slice is frozen at the first iteration whose plan
    meets ``tol``, or at ``max_iter``, and dropped from every state array.
    """
    c = state[0].shape[0]
    plans = np.empty((c, a.shape[0], b.shape[0]))
    iterations = np.empty(c, dtype=np.int64)
    done = np.empty(c, dtype=bool)
    active = np.arange(c)
    for it in range(1, max_iter + 1):
        state, current = step(*state)
        newly = _marginal_violation(current, a, b) < tol
        retire = newly if it < max_iter else np.ones_like(newly)
        if retire.any():
            idx = active[retire]
            plans[idx], iterations[idx], done[idx] = (current[retire], it,
                                                      newly[retire])
            keep = ~retire
            if not keep.any():
                break
            active = active[keep]
            state = tuple(x[keep] for x in state)
    return plans, iterations, done


def sinkhorn_grid(M, lams, a=None, b=None, max_iter=DEFAULT_MAX_ITER,
                  tol=DEFAULT_TOL):
    """Entropic transport plans for one cost matrix at several sensitivities.

    Returns one :class:`TransportPlan` per entry of ``lams``, solved in a
    vectorized batch split between the scaling and log domains.  Every
    returned plan is rounded onto the exact transport polytope (row/column
    downscaling plus a rank-one correction), so marginals hold to machine
    precision even when iteration stopped at the cap.  Plans that did not
    meet the convergence tolerance are flagged ``converged=False`` with a
    warning; callers decide how to proceed.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ShapeError(f"sinkhorn: cost matrix must be 2-D, got {M.shape}")
    if not np.isfinite(M).all():
        raise NumericsError("sinkhorn: cost matrix has non-finite entries")
    lams = np.asarray(lams, dtype=np.float64).reshape(-1)
    if (lams <= 0.0).any():
        raise ConfigError("sinkhorn: every sensitivity must be positive")
    a = uniform_marginal(M.shape[0]) if a is None else _check_marginal("a", a, M.shape[0])
    b = uniform_marginal(M.shape[1]) if b is None else _check_marginal("b", b, M.shape[1])
    if max_iter < 1:
        raise ConfigError("sinkhorn: max_iter must be >= 1")

    peak = M.max() if M.size else 0.0
    use_log = lams * peak > LOG_DOMAIN_THRESHOLD
    plans = np.empty((lams.shape[0], M.shape[0], M.shape[1]))
    iterations = np.zeros(lams.shape[0], dtype=np.int64)
    done = np.zeros(lams.shape[0], dtype=bool)
    scaling = ~use_log
    if scaling.any():
        kernel = np.exp(-lams[scaling][:, None, None] * M[None, :, :])
        state = (kernel, np.ones((kernel.shape[0], M.shape[1])))
        plans[scaling], iterations[scaling], done[scaling] = _solve(
            partial(_scaling_step, a, b), state, a, b, max_iter, tol)
    if use_log.any():
        eps = 1.0 / lams[use_log]
        state = (eps, np.zeros((eps.shape[0], M.shape[1])))
        plans[use_log], iterations[use_log], done[use_log] = _solve(
            partial(_log_domain_step, M, np.log(a), np.log(b)), state, a, b,
            max_iter, tol)
    plans = _round_to_feasible(plans, a, b)

    results = []
    for i, lam in enumerate(lams):
        if not done[i]:
            warnings.warn(f"sinkhorn did not converge within {max_iter} "
                          f"iterations at sensitivity {lam:g}", RuntimeWarning)
        results.append(TransportPlan(values=plans[i], lam=float(lam),
                                     iterations_used=int(iterations[i]),
                                     converged=bool(done[i])))
    return results


def sinkhorn(M, lam, a=None, b=None, max_iter=DEFAULT_MAX_ITER, tol=DEFAULT_TOL):
    """Entropic transport plan at a single sensitivity."""
    return sinkhorn_grid(M, [lam], a=a, b=b, max_iter=max_iter, tol=tol)[0]


def cost_matrix(f_input, key_features):
    """Pairwise squared-Euclidean costs between input and key node features."""
    return T.pairwise_sqdist(f_input, key_features)


def embed_keys_multi(f_input, adapted_keys, lams, max_iter=DEFAULT_MAX_ITER,
                     tol=DEFAULT_TOL, plans_override=None):
    """Transport embedding of one input against every adapted key.

    Returns (H, cost_tensors, plan_meta) where H is a K-by-C tensor whose
    (j, c) entry is <plan_{j,c}, M_j>; plans are constants on the tape.
    ``plans_override`` (a list of (C, n, m_j) stacks, one per key) replaces
    the solves entirely — used to freeze plans during gradient checks.
    """
    lams = np.asarray(lams, dtype=np.float64).reshape(-1)
    rows = []
    costs = []
    meta = []
    for j, key in enumerate(adapted_keys):
        m_j = cost_matrix(f_input, key.features)
        costs.append(m_j)
        if plans_override is not None:
            stack = np.asarray(plans_override[j], dtype=np.float64)
            meta.append(None)
        else:
            solved = sinkhorn_grid(m_j.values, lams, max_iter=max_iter, tol=tol)
            stack = np.stack([p.values for p in solved])
            meta.append(solved)
        rows.append(T.plan_costs(m_j, stack))
    return T.concat_rows(rows), costs, meta


def aggregate_attention_matrix(h_matrix, w_m):
    """Attention fusion over the sensitivity axis of a K-by-C embedding.

    Scores are (h^{lam_c})^T w_m; alpha is their softmax; the aggregate is
    the alpha-weighted sum of the per-sensitivity embeddings.
    Returns (h_hat as (K, 1), alpha as (1, C)).
    """
    if w_m.values.shape != (1, h_matrix.values.shape[0]):
        raise ShapeError(f"aggregate_attention: w_m {w_m.values.shape} does "
                         f"not match embedding rows {h_matrix.values.shape}")
    scores = T.matmul(w_m, h_matrix)
    alpha = T.row_softmax(scores)
    h_hat = T.matmul(h_matrix, T.transpose(alpha))
    return h_hat, alpha

