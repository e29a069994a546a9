"""Multi-sensitivity entropic transport embedding.

For one input graph and its adapted dictionary keys: squared-Euclidean cost
matrices, entropic optimal transport plans at several sensitivities solved
by Sinkhorn iteration, per-key embedding values <plan, cost>, and attention
aggregation across sensitivities.

The keys' selected rows are stacked, so one cost op gives the (n, sum m_j)
matrix of every key's costs side by side.  Plans are solved outside the
differentiation tape and re-enter it as constants (the envelope rule):
gradients flow through the cost matrices only.  A key of one node has a
single coupling, the column of input masses, so its plans take that closed
form at every sensitivity without iterating.  One loop solves every other
(key, sensitivity) slice, one per row of a batch padded to the widest of
those keys, by the scaling update on the slice's kernel stabilized by its
potentials, exp((f + g - M) / eps) with eps = 1 / lam (Schmitzer,
arXiv:1610.06519, sec. 3.1).  A slice starts on its Gibbs kernel, f = g =
0, while ``lam * max|M_j| <= 30``; past that the Gibbs kernel under- or
overflows, and it starts from f, the c-transform of g = 0, and g, the
c-transform of f.  Scaling vectors past 1e50 are folded into the
potentials, and the row goes on from its rebuilt kernel.  A row leaves the
batch when its slice converges; each plan is built once, after the loop,
by the feasibility rounding.  A single key is the case K = 1.

A batch of inputs is embedded in one call (:func:`embed_batch`), with one
solve per node count; a single input is the batch of one
(:func:`embed_keys_multi`).
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import (ConfigError, NumericsError, ShapeError, check_ranges,
                     integer_at_least, real_array, real_where)

# past lam * max|M_j| = 30 a slice starts from log-domain potentials, not
# from its Gibbs kernel; past 1e50 a scaling vector is absorbed into them
LOG_DOMAIN_THRESHOLD = 30.0
ABSORB_LIMIT = 1e50
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
    check_ranges([integer_at_least(1, "sensitivities", count)])
    if count == len(DEFAULT_LAMBDA_GRID):
        return DEFAULT_LAMBDA_GRID
    if count > len(MASTER_LAMBDA_GRID):
        raise ConfigError(f"sensitivities must lie in "
                          f"[1, {len(MASTER_LAMBDA_GRID)}], got {count}")
    positions = np.round(np.linspace(0, len(MASTER_LAMBDA_GRID) - 1,
                                     count)).astype(int)
    return tuple(MASTER_LAMBDA_GRID[i] for i in dict.fromkeys(positions))


@dataclass
class TransportPlan:
    """An entropic transport plan for one (cost matrix, sensitivity) pair."""

    values: np.ndarray
    lam: float
    iterations_used: int           # 0 for a closed-form one-column plan
    converged: bool


@dataclass
class PlanStack:
    """Transport plans of one input against K keys at C sensitivities.

    ``values[c]`` holds every key's plan at ``lams[c]`` in the cost
    matrix's layout: key j's plan fills columns offsets[j]:offsets[j+1].
    """

    values: np.ndarray             # (C, n, sum m_j)
    offsets: np.ndarray            # (K + 1,)
    lams: np.ndarray               # (C,)
    iterations: np.ndarray         # (K, C) iterations; 0 = closed form
    converged: np.ndarray          # (K, C)

    def per_key(self):
        """Each key's (C, n, m_j) plan stack."""
        return np.split(self.values, self.offsets[1:-1], axis=-1)


def uniform_marginal(n):
    """The uniform node-mass vector of length n."""
    return np.full(n, 1.0 / n)


def _capped_ratio(target, total):
    """min(target / total, 1), taking 1 where total is 0."""
    return np.divide(target, total, out=np.ones_like(total),
                     where=target < total)


def _matvec(kernel, v):
    """Each row's kernel times its vector: (r, n, m) by (r, m) -> (r, n)."""
    return np.matmul(kernel, v[:, :, None])[:, :, 0]


def _vecmat(u, kernel):
    """Each row's vector times its kernel: (r, n) by (r, n, m) -> (r, m)."""
    return np.matmul(u[:, None, :], kernel)[:, 0, :]


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
    x = x * _capped_ratio(a, x * _matvec(base, y))
    cols = y * _vecmat(x, base)
    col_ratio = _capped_ratio(b, cols)
    y = y * col_ratio
    err_a = np.maximum(a - x * _matvec(base, y), 0.0)
    err_b = np.maximum(b - cols * col_ratio, 0.0)
    missing = err_a.sum(axis=1)
    # a plan missing no mass has err_a = 0, so its correction is exactly 0
    err_a /= np.where(missing > 0.0, missing, 1.0)[:, None]
    base *= x[:, :, None]
    base *= y[:, None, :]
    base += err_a[:, :, None] * err_b[:, None, :]
    return base


def _scaling_step(a, b, kernel, kv):
    """u/v scaling update of each row's slice from its K v.

    Columns are exact after the v-update, so the iterate's marginal
    violation is its row error |u * K v - a|, read off the product the next
    u needs anyway.  Returns the iterate (u, v), the next K v and that
    violation.
    """
    u = a / kv
    v = b / _vecmat(u, kernel)
    kv = _matvec(kernel, v)
    return (u, v), kv, np.abs(u * kv - a).max(axis=-1)


def _c_transform(eps_log_mass, eps, other, M, axis):
    """The soft c-transform of the potential ``other`` along ``axis``:
    eps * log(mass) - eps * logsumexp((other - M) / eps)."""
    x = (other - M) / eps[:, None, None]
    peak = x.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(x - peak).sum(axis=axis)) + np.squeeze(peak, axis=axis)
    return eps_log_mass - eps[:, None] * lse


def _stabilized_kernel(f, g, cost, eps, b):
    """Each row's kernel exp((f + g - M) / eps) on its own key's padded
    cost and column mass b, holding 1 where b = 0 as the Gibbs kernel does."""
    return np.where(b[:, None, :] > 0.0, np.exp(
        (f[:, :, None] + g[:, None, :] - cost) / eps[:, None, None]), 1.0)


def _solve_keys(M, offsets, lams, a, max_iter, tol):
    """Plans of K keys of two or more columns each at C sensitivities.

    The body of :func:`sinkhorn_keys` on validated input.  Slice s, key
    s // C at sensitivity lams[s % C], is row s of a batch padded to the
    widest key.  The loop takes :func:`_scaling_step` on the live rows'
    (ids, b, kernel, K v).  A row whose u or v passes ``ABSORB_LIMIT``
    folds them into its slice's potentials and goes on from u = v = 1 on
    its rebuilt kernel.  A row is frozen at the first iteration that meets
    ``tol``, or at ``max_iter``, and leaves the batch.  Returns the
    (C, n, sum m_j) plans in the cost matrix's columns and the (K, C)
    iterations and converged flags.
    """
    n = M.shape[0]
    widths = offsets[1:] - offsets[:-1]
    keys, lam_count = widths.shape[0], lams.shape[0]
    count = keys * lam_count
    key, lam = np.divmod(np.arange(count), lam_count)
    # the padded batch stays inside this function: key j's columns sit
    # at seg == j, positions pos, in a (K, ..., max m_j) array
    seg, pos, width = T.segment_index(offsets)
    masses = np.zeros((keys, width))
    masses[seg, pos] = np.repeat(1.0 / widths, widths)
    costs = np.zeros((keys, n, width))
    costs[seg, :, pos] = M.T
    b, eps = masses[key], 1.0 / lams[lam]
    # each slice's potentials (f, g), -inf on the padded columns
    f, g = np.zeros((count, n)), np.where(b > 0.0, 0.0, -np.inf)
    # every slice's Gibbs kernel; the padding's cost 0 makes it exactly 1
    # there, not 0: its K^T u stays positive, so v = 0 / K^T u = 0 there,
    # not 0 / 0.  On negative costs a sharp slice's may overflow; the
    # sharp start replaces it.
    with np.errstate(over="ignore"):
        base = np.exp(costs[:, None] * -lams[:, None, None]).reshape(
            count, n, width)
    kv = _matvec(base, (b > 0.0) * 1.0)
    peak = np.maximum.reduceat(np.abs(M), offsets[:-1], axis=1).max(axis=0)
    sharp = np.flatnonzero(peak[key] * lams[lam] > LOG_DOMAIN_THRESHOLD)
    if sharp.size:
        # f = c-transform of g = 0, then g = c-transform of f, and K v = a
        # makes the first u exactly 1
        cost, e = costs[key[sharp]], eps[sharp]
        with np.errstate(divide="ignore"):
            eps_log_b = e[:, None] * np.log(b[sharp])
        f[sharp] = _c_transform(e[:, None] * np.log(a), e, g[sharp, None, :],
                                cost, axis=2)
        g[sharp] = _c_transform(eps_log_b, e, f[sharp, :, None], cost, axis=1)
        base[sharp] = _stabilized_kernel(f[sharp], g[sharp], cost, e, b[sharp])
        kv[sharp] = a

    ids, kernel = np.arange(count), base
    xs, ys = np.empty((count, n)), np.empty((count, width))
    iterations = np.empty(count, dtype=np.int64)
    done = np.empty(count, dtype=bool)
    for it in range(1, max_iter + 1):
        (x, y), kv, violation = _scaling_step(a, b, kernel, kv)
        # a Gibbs kernel is at most e^30 and a stabilized one at most 1, so
        # bounded maxima bound u and v from below too; NaN fails the test
        if not (x.max() <= ABSORB_LIMIT and y.max() <= ABSORB_LIMIT):
            hot = ~(np.maximum(x.max(axis=1), y.max(axis=1)) <= ABSORB_LIMIT)
            s = ids[hot]
            with np.errstate(divide="ignore"):
                f[s] += eps[s, None] * np.log(x[hot])
                g[s] += eps[s, None] * np.log(y[hot])
            if not (np.isfinite(f[s]).all()
                    and np.isfinite(g[s][b[hot] > 0.0]).all()):
                raise NumericsError("sinkhorn: scaling vectors left the "
                                    "floating-point range")
            # the rebuilt kernel goes on in the loop and into the rounding
            base[s] = kernel[hot] = _stabilized_kernel(
                f[s], g[s], costs[key[s]], eps[s], b[hot])
            x[hot], y[hot] = 1.0, b[hot] > 0.0
            kv[hot] = _matvec(kernel[hot], y[hot])
        met = violation < tol
        retire = met | (it == max_iter)
        if retire.any():
            idx = ids[retire]
            xs[idx], ys[idx] = x[retire], y[retire]
            iterations[idx], done[idx] = it, met[retire]
            if retire.all():
                break
            stay = ~retire
            ids, b, kernel, kv = ids[stay], b[stay], kernel[stay], kv[stay]
    plans = _round_to_feasible(xs, base, ys, a, masses[key])

    for s in np.flatnonzero(~done):
        warnings.warn(f"sinkhorn did not converge within {max_iter} "
                      f"iterations at sensitivity {lams[s % lam_count]:g}",
                      RuntimeWarning)
    # gathered back into the cost matrix's columns, (C, n, sum m_j)
    plans = plans.reshape(keys, lam_count, n, width).transpose(1, 2, 0, 3)
    return (plans[:, :, seg, pos], iterations.reshape(keys, lam_count),
            done.reshape(keys, lam_count))


def sinkhorn_keys(M, lams, offsets=None, max_iter=DEFAULT_MAX_ITER,
                  tol=DEFAULT_TOL):
    """Entropic transport plans of one input against K keys at C sensitivities.

    ``M`` is (n, sum m_j): key j's cost matrix fills columns
    offsets[j]:offsets[j+1] (one key spanning every column when ``offsets``
    is None).  Node masses are uniform on both sides, summing to 1 per key.
    A key of one column has one coupling, the column a = 1/n, at every
    sensitivity: its plans take that closed form with ``iterations`` 0 and
    ``converged`` True.  The other keys' (key, sensitivity) slices are
    solved together by the one stabilized scaling loop, padded to the
    widest key with zero-mass columns that never leave this function.
    Every plan is then built once from its frozen vectors and rounded onto
    the exact transport polytope (row/column downscaling plus a rank-one
    correction), so marginals hold to machine precision even at the
    iteration cap.  Plans that did not meet the convergence tolerance are
    flagged in ``converged`` with a warning each.  ``max_iter`` must be an
    integer >= 1 and ``tol`` a real number >= 0.  Returns a
    :class:`PlanStack`.
    """
    M = real_array(M, NumericsError,
                   "sinkhorn: cost matrix must hold real numbers")
    if M.ndim != 2:
        raise ShapeError(f"sinkhorn: cost matrix must be 2-D, got {M.shape}")
    n, total = M.shape
    if n == 0:
        raise ShapeError(f"sinkhorn: cost matrix {M.shape} leaves an empty "
                         "side")
    offsets = T.as_offsets(offsets, total)
    widths = offsets[1:] - offsets[:-1]
    if not np.isfinite(M).all():
        raise NumericsError("sinkhorn: cost matrix has non-finite entries")
    rule = ("sinkhorn: sensitivities must be one or more finite positive "
            "numbers")
    lams = real_array(lams, ConfigError, rule).ravel()
    if not (lams.size and ((0.0 < lams) & (lams < np.inf)).all()):
        raise ConfigError(f"{rule}, got {lams.tolist()!r}")
    check_ranges([integer_at_least(1, "sinkhorn: max_iter", max_iter),
                  real_where(lambda v: v >= 0.0, "be a real number >= 0",
                             "sinkhorn: tol", tol)])

    a = uniform_marginal(n)
    one = widths == 1
    values = np.empty((lams.shape[0], n, total))
    values[:, :, offsets[:-1][one]] = a[:, None]
    iterations = np.zeros((widths.shape[0], lams.shape[0]), dtype=np.int64)
    converged = np.ones(iterations.shape, dtype=bool)
    if not one.all():
        # the wider keys' columns; a view of M when there is no one-column key
        cols = (np.flatnonzero(np.repeat(~one, widths)) if one.any()
                else slice(None))
        values[:, :, cols], iterations[~one], converged[~one] = _solve_keys(
            M[:, cols], np.concatenate(([0], np.cumsum(widths[~one]))), lams,
            a, max_iter, tol)
    return PlanStack(values=values, offsets=offsets, lams=lams,
                     iterations=iterations, converged=converged)


def sinkhorn_grid(M, lams, max_iter=DEFAULT_MAX_ITER, tol=DEFAULT_TOL):
    """Entropic transport plans for one cost matrix at several sensitivities.

    :func:`sinkhorn_keys` with one key; returns one :class:`TransportPlan`
    per entry of ``lams``.
    """
    solved = sinkhorn_keys(M, lams, max_iter=max_iter, tol=tol)
    return [TransportPlan(values=solved.values[i], lam=float(lam),
                          iterations_used=int(solved.iterations[0, i]),
                          converged=bool(solved.converged[0, i]))
            for i, lam in enumerate(solved.lams)]


def sinkhorn(M, lam, max_iter=DEFAULT_MAX_ITER, tol=DEFAULT_TOL):
    """Entropic transport plan at a single sensitivity."""
    return sinkhorn_grid(M, [lam], max_iter=max_iter, tol=tol)[0]


def cost_matrix(f_input, key_features):
    """Pairwise squared-Euclidean costs between input and key node features."""
    return T.pairwise_sqdist(f_input, key_features)


def embed_batch(f_inputs, adapted, lams, max_iter=DEFAULT_MAX_ITER,
                tol=DEFAULT_TOL, plans_override=None):
    """Transport embeddings of a batch of inputs, each against its own
    adapted keys.

    ``adapted`` holds one stacked :class:`~graphdict.vgda.AdaptedKey` per
    input.  Each input's costs are one cost op and its H one
    :func:`~graphdict.tensor.plan_costs` op.  The inputs whose costs share
    a row count n form a group, in first-appearance order, and one
    :func:`sinkhorn_keys` call solves every (key, sensitivity) slice of a
    group: its cost matrices side by side, their key offsets shifted and
    joined.  Every slice is solved on its own, so that is each input's own
    solve, up to rounding where a batch mate's key is wider.  Each input's
    :class:`PlanStack` is its column view of its group's plans, with its
    own offsets and rows of ``iterations`` and ``converged``.

    Returns lists (H, cost, plans), one entry per input: H is a K-by-C
    tensor whose (j, c) entry is <plan_{j,c}, M_j>, with plans constant on
    the tape; ``cost`` is the (n, sum m_j) cost tensor.  ``plans_override``
    (one (C, n, sum m_j) array per input, a PlanStack's ``values``)
    replaces the solves entirely, and ``plans`` is then a list of None —
    used to freeze plans during gradient checks.  ``adapted`` or
    ``plans_override`` without one entry per input raises ShapeError.
    """
    for name, entries in (("adapted key stacks", adapted),
                          ("plan stacks", plans_override)):
        if entries is not None and len(entries) != len(f_inputs):
            raise ShapeError(f"embed_batch: {len(entries)} {name} for "
                             f"{len(f_inputs)} inputs")
    cost = [cost_matrix(f, keys.features)
            for f, keys in zip(f_inputs, adapted)]
    solved = [None] * len(cost)
    groups = ([] if plans_override is not None
              else T.node_count_groups(c.values.shape[0] for c in cost))
    for members in groups:
        # each input's key columns and key rows follow those of the
        # members before it
        own = [adapted[i].offsets for i in members]
        cols = [0, *itertools.accumulate(int(o[-1]) for o in own)]
        rows = [0, *itertools.accumulate(len(o) - 1 for o in own)]
        joined = sinkhorn_keys(
            np.concatenate([cost[i].values for i in members], axis=1), lams,
            offsets=np.concatenate([o[:-1] + c for o, c in zip(own, cols)]
                                   + [cols[-1:]]),
            max_iter=max_iter, tol=tol)
        for k, i in enumerate(members):
            solved[i] = PlanStack(
                values=joined.values[..., cols[k]:cols[k + 1]],
                offsets=own[k], lams=joined.lams,
                iterations=joined.iterations[rows[k]:rows[k + 1]],
                converged=joined.converged[rows[k]:rows[k + 1]])
    values = (plans_override if plans_override is not None
              else [s.values for s in solved])
    h_matrix = [T.plan_costs(c, v, keys.offsets)
                for c, v, keys in zip(cost, values, adapted)]
    return h_matrix, cost, solved


def embed_keys_multi(f_input, adapted, lams, max_iter=DEFAULT_MAX_ITER,
                     tol=DEFAULT_TOL, plans_override=None):
    """Transport embedding of one input against every adapted key, the
    batch of one of :func:`embed_batch`: its (H, cost, plans), with
    ``plans`` None when ``plans_override`` ((C, n, sum m_j) plans in the
    cost's columns) replaced the solve."""
    h_matrix, cost, solved = embed_batch(
        [f_input], [adapted], lams, max_iter=max_iter, tol=tol,
        plans_override=None if plans_override is None else [plans_override])
    return h_matrix[0], cost[0], solved[0]


def aggregate_attention_matrix(h_matrix, w_m):
    """Attention fusion over the sensitivity axis of a K-by-C embedding.

    Scores are (h^{lam_c})^T w_m; alpha is their softmax; the aggregate is
    the alpha-weighted sum of the per-sensitivity embeddings, as a row.
    Returns (h_hat as (1, K), alpha as (1, C)).
    """
    if w_m.values.shape != (1, h_matrix.values.shape[0]):
        raise ShapeError(f"aggregate_attention: w_m {w_m.values.shape} does "
                         f"not match embedding rows {h_matrix.values.shape}")
    scores = T.matmul(w_m, h_matrix)
    alpha = T.row_softmax(scores)
    h_hat = T.matmul(alpha, T.transpose(h_matrix))
    return h_hat, alpha

