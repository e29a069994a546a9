"""Multi-sensitivity entropic transport embedding.

For one input graph and its adapted dictionary keys: squared-Euclidean cost
matrices, entropic optimal transport plans at several sensitivities solved
by Sinkhorn iteration, per-key embedding values <plan, cost>, and attention
aggregation across sensitivities.

The keys' selected rows are stacked, so one cost op gives the (n, sum m_j)
matrix of every key's costs side by side.  Plans are solved outside the
differentiation tape and re-enter it as constants (the envelope rule):
gradients flow through the cost matrices only.  One loop solves every
(key, sensitivity) slice in one batch padded to the widest key.  It tests
convergence on each slice's scaling vectors (or potentials) and freezes them
at the iteration where the slice converges; each plan is built once, after
the loop, by the feasibility rounding.  A slice takes the scaling
update while ``lam * max(M_j) <= 30`` and the log-domain potential update
beyond that, to avoid underflow.  Both domains lay their slices out the
same way: one (key, sensitivity) slice per batch row, carrying its own
kernel or cost matrix, so a row leaves the batch as soon as its slice
converges.  A single key is the case K = 1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import tensor as T
from .errors import ConfigError, NumericsError, ShapeError
from .vgda import AdaptedKey, stack_keys

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


@dataclass
class PlanStack:
    """Transport plans of one input against K keys at C sensitivities.

    ``values[j, c]`` is key j's plan at ``lams[c]``; key j spans cost columns
    offsets[j]:offsets[j+1], and its plans are zero-padded to the widest
    key's width.
    """

    values: np.ndarray             # (K, C, n, max m_j)
    offsets: np.ndarray            # (K + 1,)
    lams: np.ndarray               # (C,)
    iterations: np.ndarray         # (K, C) iterations used
    converged: np.ndarray          # (K, C)

    def per_key(self):
        """Each key's (C, n, m_j) plan stack, padding removed."""
        return np.split(T.unpad_segments(self.values, self.offsets),
                        self.offsets[1:-1], axis=-1)


def uniform_marginal(n):
    """The uniform node-mass vector of length n."""
    return np.full(n, 1.0 / n)


def _logsumexp(x, axis):
    peak = x.max(axis=axis, keepdims=True)
    return np.log(np.exp(x - peak).sum(axis=axis)) + np.squeeze(peak, axis=axis)


def _capped_ratio(target, total):
    """min(target / total, 1), taking 1 where total is 0."""
    return np.divide(target, total, out=np.ones_like(total),
                     where=target < total)


def _round_to_feasible(x, base, y, a, b):
    """Round the plans diag(x) base diag(y) of an (s, n, m) stack onto the
    exact transport polytope, building each plan once, in place of ``base``.

    ``b`` holds each plan's column marginal; padded columns carry zero mass
    and stay zero.  Scale x so rows are at most ``a``, then y so columns are
    at most ``b``, then add the rank-one correction that restores both
    marginals exactly (Altschuler, Weed & Rigollet, Alg. 2, with both
    rescalings on the scaling vectors).  All three steps keep entries
    nonnegative.  Near-converged plans move by no more than their marginal
    violation; plans cut off at the iteration cap become feasible couplings
    instead of approximate ones.
    """
    x = x * _capped_ratio(a, x * np.einsum("snm,sm->sn", base, y))
    cols = y * np.einsum("snm,sn->sm", base, x)
    col_ratio = _capped_ratio(b, cols)
    y = y * col_ratio
    err_a = np.maximum(a - x * np.einsum("snm,sm->sn", base, y), 0.0)
    err_b = np.maximum(b - cols * col_ratio, 0.0)
    missing = err_a.sum(axis=1)
    # a plan missing no mass has err_a = 0, so its correction is exactly 0
    err_a /= np.where(missing > 0.0, missing, 1.0)[:, None]
    base *= x[:, :, None]
    base *= y[:, None, :]
    base += err_a[:, :, None] * err_b[:, None, :]
    return base


def _scaling_step(a, b, kernel, v, kv):
    """u/v scaling update on the state (b, kernel, v, K v).

    Columns are exact after the v-update, so the iterate's marginal
    violation is its row error |u * K v - a|, read off the product the next
    u needs anyway.  Returns the next state, the iterate (u, v) and that
    violation.
    """
    u = a / kv
    v = b / np.einsum("rnm,rn->rm", kernel, u)
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise NumericsError("sinkhorn: non-finite scaling vector "
                            "(use the log-domain branch)")
    kv = np.einsum("rnm,rm->rn", kernel, v)
    return (b, kernel, v, kv), (u, v), np.abs(u * kv - a).max(axis=-1)


def _log_potential(eps_log_mass, eps, other, M, axis):
    """One half-step: eps * log(mass) - eps * logsumexp((other - M) / eps)."""
    return eps_log_mass - eps[:, None] * _logsumexp(
        (other - M) / eps[:, None, None], axis=axis)


def _log_domain_step(a, M, b, eps, eps_log_a, eps_log_b, f):
    """Log-domain update on the state (M, b, eps, eps * log a, eps * log b, f).

    Each row carries its own key's padded cost matrix ``M`` and column mass
    ``b``.  Padded columns have b = 0, so g and eps * log b are -inf there.
    The rows of exp((f + g - M) / eps) sum to a * exp((f - f_next) / eps),
    so the iterate's violation comes from the next half-step's f_next,
    which the state carries forward.  Returns the next state, the iterate
    (f, g) and that violation.
    """
    g = _log_potential(eps_log_b, eps, f[:, :, None], M, axis=1)
    # padded columns hold g = -inf; mask them only once a check fails
    if not (np.isfinite(f).all()
            and (np.isfinite(g).all() or (np.isfinite(g) | (b == 0.0)).all())):
        raise NumericsError("sinkhorn: non-finite log-domain potentials")
    f_next = _log_potential(eps_log_a, eps, g[:, None, :], M, axis=2)
    violation = (a * np.abs(np.expm1((f - f_next) / eps[:, None]))
                 ).max(axis=-1)
    return (M, b, eps, eps_log_a, eps_log_b, f_next), (f, g), violation


def _solve(step, state, ids, out, max_iter, tol):
    """Iterate ``step`` on a batch of slices, one per row, filling ``out``.

    State arrays are batched on axis 0; ``ids`` holds each row's flat slice
    index, key * C + sensitivity.  ``step`` maps a state tuple to the next
    state, the iterate's (r, n) and (r, m) vectors and their (r,) marginal
    violations.  A slice's vectors are frozen into ``out`` = (x, y,
    iterations, converged) at the first iteration that meets ``tol``, or at
    ``max_iter``, and its row leaves every state array there.
    """
    xs, ys, iterations, done = out
    for it in range(1, max_iter + 1):
        state, (x, y), violation = step(*state)
        met = violation < tol
        retire = met | (it == max_iter)
        if retire.any():
            idx = ids[retire]
            xs[idx], ys[idx] = x[retire], y[retire]
            iterations[idx], done[idx] = it, met[retire]
            if retire.all():
                break
            stay = ~retire
            ids = ids[stay]
            state = tuple(s[stay] for s in state)


def sinkhorn_keys(M, lams, offsets=None, max_iter=DEFAULT_MAX_ITER,
                  tol=DEFAULT_TOL):
    """Entropic transport plans of one input against K keys at C sensitivities.

    ``M`` is (n, sum m_j): key j's cost matrix fills columns
    offsets[j]:offsets[j+1] (one key spanning every column when ``offsets``
    is None).  Node masses are uniform on both sides, summing to 1 per key.
    All K*C (key, sensitivity) slices are solved together, padded to the
    widest key with zero-mass columns.  A slice takes the log domain when
    lam * max(M_j) > 30 and the scaling update otherwise.  Each domain runs
    as a batch of one slice per row, and a row leaves its batch at the
    iteration where its slice converges.  Every plan is then built once
    from its frozen vectors and rounded onto the exact transport polytope
    (row/column downscaling plus a rank-one correction), so marginals hold
    to machine precision even when iteration stopped at the cap.  Plans
    that did not meet the convergence tolerance are flagged in
    ``converged`` with a warning each; callers decide how to proceed.
    Returns a :class:`PlanStack`.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ShapeError(f"sinkhorn: cost matrix must be 2-D, got {M.shape}")
    n, total = M.shape
    offsets = T.as_offsets(offsets, total).reshape(-1)
    widths = np.diff(offsets)
    if (n == 0 or widths.size == 0 or offsets[0] != 0
            or offsets[-1] != total or (widths < 1).any()):
        raise ShapeError(f"sinkhorn: cost matrix {M.shape} with key offsets "
                         f"{offsets.tolist()} leaves an empty side")
    if not np.isfinite(M).all():
        raise NumericsError("sinkhorn: cost matrix has non-finite entries")
    lams = np.asarray(lams, dtype=np.float64).reshape(-1)
    if (lams <= 0.0).any():
        raise ConfigError("sinkhorn: every sensitivity must be positive")
    if max_iter < 1:
        raise ConfigError("sinkhorn: max_iter must be >= 1")

    keys, lam_count = widths.shape[0], lams.shape[0]
    count = keys * lam_count
    # slice s is key s // C at sensitivity lams[s % C]
    key, lam = np.divmod(np.arange(count), lam_count)
    a = uniform_marginal(n)
    layout = T.segment_index(offsets)
    costs = T.pad_segments(M, offsets, layout)      # (K, n, max m_j)
    masses = T.pad_segments(np.repeat(1.0 / widths, widths), offsets,
                            layout)                 # (K, max m_j)
    width = costs.shape[2]
    peak = np.maximum.reduceat(M, offsets[:-1], axis=1).max(axis=0)
    use_log = peak[key] * lams[lam] > LOG_DOMAIN_THRESHOLD
    # each slice's frozen iterate: scaling vectors (u, v) or potentials (f, g)
    xs, ys = np.empty((count, n)), np.empty((count, width))
    iterations = np.empty(count, dtype=np.int64)
    done = np.empty(count, dtype=bool)
    out = (xs, ys, iterations, done)
    # every slice's Gibbs kernel; log-domain slices replace theirs below
    base = np.exp(-lams[None, :, None, None] * costs[:, None]).reshape(
        count, n, width)
    slices = np.flatnonzero(~use_log)
    if slices.size:
        # a view of base when every slice takes the scaling update
        kernel = base if slices.size == count else base[slices]
        b_rows = masses[key[slices]]
        v = (b_rows > 0.0) * 1.0
        state = (b_rows, kernel, v, np.einsum("rnm,rm->rn", kernel, v))
        _solve(partial(_scaling_step, a), state, slices, out, max_iter, tol)
    slices = np.flatnonzero(use_log)
    if slices.size:
        cost_rows, b_rows = costs[key[slices]], masses[key[slices]]
        eps = 1.0 / lams[lam[slices]]
        with np.errstate(divide="ignore"):
            eps_log_b = eps[:, None] * np.log(b_rows)
        eps_log_a = eps[:, None] * np.log(a)
        g = np.where(b_rows > 0.0, 0.0, -np.inf)
        f = _log_potential(eps_log_a, eps, g[:, None, :], cost_rows, axis=2)
        _solve(partial(_log_domain_step, a),
               (cost_rows, b_rows, eps, eps_log_a, eps_log_b, f), slices,
               out, max_iter, tol)
        # each log-domain plan is built once from its frozen potentials and
        # rounded with unit scaling vectors
        base[slices] = np.exp((xs[slices, :, None] + ys[slices, None, :]
                               - cost_rows) / eps[:, None, None])
        xs[slices], ys[slices] = 1.0, 1.0
    plans = _round_to_feasible(xs, base, ys, a,
                               np.repeat(masses, lam_count, axis=0))

    for s in np.flatnonzero(~done):
        warnings.warn(f"sinkhorn did not converge within {max_iter} "
                      f"iterations at sensitivity {lams[s % lam_count]:g}",
                      RuntimeWarning)
    return PlanStack(values=plans.reshape(keys, lam_count, n, -1),
                     offsets=offsets, lams=lams,
                     iterations=iterations.reshape(keys, lam_count),
                     converged=done.reshape(keys, lam_count))


def sinkhorn_grid(M, lams, max_iter=DEFAULT_MAX_ITER, tol=DEFAULT_TOL):
    """Entropic transport plans for one cost matrix at several sensitivities.

    :func:`sinkhorn_keys` with one key; returns one :class:`TransportPlan`
    per entry of ``lams``.
    """
    solved = sinkhorn_keys(M, lams, max_iter=max_iter, tol=tol)
    return [TransportPlan(values=solved.values[0, i], lam=float(lam),
                          iterations_used=int(solved.iterations[0, i]),
                          converged=bool(solved.converged[0, i]))
            for i, lam in enumerate(solved.lams)]


def sinkhorn(M, lam, max_iter=DEFAULT_MAX_ITER, tol=DEFAULT_TOL):
    """Entropic transport plan at a single sensitivity."""
    return sinkhorn_grid(M, [lam], max_iter=max_iter, tol=tol)[0]


def cost_matrix(f_input, key_features):
    """Pairwise squared-Euclidean costs between input and key node features."""
    return T.pairwise_sqdist(f_input, key_features)


def embed_keys_multi(f_input, adapted, lams, max_iter=DEFAULT_MAX_ITER,
                     tol=DEFAULT_TOL, plans_override=None):
    """Transport embedding of one input against every adapted key.

    ``adapted`` is one stacked :class:`~graphdict.vgda.AdaptedKey` (or a
    sequence of them, stacked in order).  One cost op covers every selected
    key row and one :func:`sinkhorn_keys` batch solves all (key,
    sensitivity) pairs.  Returns (H, cost, plans): H is a K-by-C tensor
    whose (j, c) entry is <plan_{j,c}, M_j>, with plans constant on the
    tape; ``cost`` is the (n, sum m_j) cost tensor; ``plans`` is the
    :class:`PlanStack`.  ``plans_override`` (padded (K, C, n, max m_j)
    plans, like a PlanStack's ``values``) replaces the solve entirely, and
    ``plans`` is then None — used to freeze plans during gradient checks.
    """
    if not isinstance(adapted, AdaptedKey):
        adapted = stack_keys(adapted)
    cost = cost_matrix(f_input, adapted.features)
    if plans_override is not None:
        solved, padded = None, plans_override
    else:
        solved = sinkhorn_keys(cost.values, lams, offsets=adapted.offsets,
                               max_iter=max_iter, tol=tol)
        padded = solved.values
    return T.plan_costs(cost, padded, adapted.offsets), cost, solved


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

