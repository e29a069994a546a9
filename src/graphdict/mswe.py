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
(key, sensitivity) slice in one batch padded to the widest of those keys;
their Gibbs kernels are exponentiated on the real columns only.  It tests
convergence on each slice's scaling vectors (or potentials) and freezes them
at the iteration where the slice converges; each plan is built once, after
the loop, by the feasibility rounding, and leaves the solver in its key's
cost columns: the plans at one sensitivity form one (n, sum m_j) matrix,
laid out like the costs.  A slice takes the scaling
update while ``lam * max(M_j) <= 30`` and the log-domain potential update
beyond that, to avoid underflow.  Both domains lay their slices out the
same way: one (key, sensitivity) slice per batch row, carrying its own
kernel or cost matrix, so a row leaves the batch as soon as its slice
converges.  A single key is the case K = 1.

Inputs of one node count n can share a solve (:func:`embed_group`): their
cost matrices side by side are K keys per input, and every slice is solved
on its own, so the joined solve gives each input's own plans.  A single
input is the group of one.
"""

from __future__ import annotations

import itertools
import numbers
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
    if not isinstance(count, numbers.Integral):
        raise ConfigError(f"sensitivities must be an integer, got {count!r}")
    if count == len(DEFAULT_LAMBDA_GRID):
        return DEFAULT_LAMBDA_GRID
    if not 1 <= count <= len(MASTER_LAMBDA_GRID):
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


def _logsumexp(x, axis):
    peak = x.max(axis=axis, keepdims=True)
    return np.log(np.exp(x - peak).sum(axis=axis)) + np.squeeze(peak, axis=axis)


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


def _scaling_step(a, b, kernel, v, kv):
    """u/v scaling update on the state (b, kernel, v, K v).

    Columns are exact after the v-update, so the iterate's marginal
    violation is its row error |u * K v - a|, read off the product the next
    u needs anyway.  Returns the next state, the iterate (u, v) and that
    violation.
    """
    u = a / kv
    v = b / _vecmat(u, kernel)
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise NumericsError("sinkhorn: non-finite scaling vector "
                            "(use the log-domain branch)")
    kv = _matvec(kernel, v)
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


def _solve_keys(M, offsets, lams, a, max_iter, tol):
    """Plans of K keys of two or more columns each at C sensitivities.

    The body of :func:`sinkhorn_keys` on validated input: every (key,
    sensitivity) slice in one batch padded to the widest key.  Returns the
    (C, n, sum m_j) plans in the cost matrix's columns and the (K, C)
    iterations and converged flags.
    """
    n = M.shape[0]
    widths = offsets[1:] - offsets[:-1]
    keys, lam_count = widths.shape[0], lams.shape[0]
    count = keys * lam_count
    # slice s is key s // C at sensitivity lams[s % C]
    key, lam = np.divmod(np.arange(count), lam_count)
    # the padded batch stays inside this function: key j's columns sit
    # at seg == j, positions pos, in a (K, ..., max m_j) array
    seg, pos, width = T.segment_index(offsets)
    masses = np.zeros((keys, width))
    masses[seg, pos] = np.repeat(1.0 / widths, widths)
    peak = np.maximum.reduceat(M, offsets[:-1], axis=1).max(axis=0)
    use_log = peak[key] * lams[lam] > LOG_DOMAIN_THRESHOLD
    # each slice's frozen iterate: scaling vectors (u, v) or potentials (f, g)
    xs, ys = np.empty((count, n)), np.empty((count, width))
    iterations = np.empty(count, dtype=np.int64)
    done = np.empty(count, dtype=bool)
    out = (xs, ys, iterations, done)
    # every slice's Gibbs kernel, exponentiated on the real columns only;
    # log-domain slices replace theirs below.  The padding holds 1, not 0:
    # its K^T u stays positive, so v = 0 / K^T u = 0 there, not 0 / 0
    base = np.ones((keys, lam_count, n, width))
    base[seg, :, :, pos] = np.exp(-lams[:, None, None] * M).transpose(2, 0, 1)
    base = base.reshape(count, n, width)
    slices = np.flatnonzero(~use_log)
    if slices.size:
        # a view of base when every slice takes the scaling update
        kernel = base if slices.size == count else base[slices]
        b_rows = masses[key[slices]]
        v = (b_rows > 0.0) * 1.0
        state = (b_rows, kernel, v, _matvec(kernel, v))
        _solve(partial(_scaling_step, a), state, slices, out, max_iter, tol)
    slices = np.flatnonzero(use_log)
    if slices.size:
        costs = np.zeros((keys, n, width))
        costs[seg, :, pos] = M.T
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
    ``converged`` True.  The (key, sensitivity) slices of the other keys
    are solved together, padded to the widest of them with zero-mass
    columns; the padding never leaves this function.  A slice takes the
    log domain when lam * max(M_j) > 30 and the scaling update otherwise.
    Each domain runs as a batch of one slice per row, and a row leaves its
    batch at the iteration where its slice converges.  Every plan is then
    built once from its frozen vectors and rounded onto the exact
    transport polytope (row/column downscaling plus a rank-one correction),
    so marginals hold to machine precision even when iteration stopped at
    the cap.  Plans that did not meet the convergence tolerance are flagged
    in ``converged`` with a warning each; callers decide how to proceed.
    ``max_iter`` must be an integer >= 1 and ``tol`` a real number >= 0.
    Returns a :class:`PlanStack`.
    """
    M = np.asarray(M, dtype=np.float64)
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
    lams = np.asarray(lams, dtype=np.float64).reshape(-1)
    if not (lams.size and ((0.0 < lams) & (lams < np.inf)).all()):
        raise ConfigError("sinkhorn: sensitivities must be one or more "
                          f"finite positive numbers, got {lams.tolist()}")
    if not (isinstance(max_iter, numbers.Integral) and max_iter >= 1):
        raise ConfigError("sinkhorn: max_iter must be an integer >= 1, got "
                          f"{max_iter!r}")
    if not (isinstance(tol, numbers.Real) and tol >= 0.0):
        raise ConfigError("sinkhorn: tol must be a real number >= 0, got "
                          f"{tol!r}")

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


def _side_by_side(cost, adapted):
    """The inputs' cost matrices side by side and their key offsets shifted
    and joined; one input's are returned as they are."""
    if len(cost) == 1:
        return cost[0].values, adapted[0].offsets
    if len({c.values.shape[0] for c in cost}) != 1:
        raise ShapeError("embed_group: the inputs' node counts differ "
                         f"({[c.values.shape[0] for c in cost]})")
    joined = np.concatenate([c.values for c in cost], axis=1)
    starts = itertools.accumulate(
        (int(keys.offsets[-1]) for keys in adapted), initial=0)
    return joined, np.concatenate(
        [keys.offsets[:-1] + start for keys, start in zip(adapted, starts)]
        + [[joined.shape[1]]])


def _split_columns(joined, adapted):
    """Each input's :class:`PlanStack` out of the group's ``joined`` one:
    its column view of the plans and its rows of ``iterations`` and
    ``converged``; one input's is ``joined`` as it is."""
    if len(adapted) == 1:
        return [joined]
    # input g's columns and key rows follow those of inputs 0..g-1
    solved, col, row = [], 0, 0
    for keys in adapted:
        width, count = int(keys.offsets[-1]), len(keys.offsets) - 1
        solved.append(PlanStack(
            values=joined.values[..., col:col + width],
            offsets=keys.offsets, lams=joined.lams,
            iterations=joined.iterations[row:row + count],
            converged=joined.converged[row:row + count]))
        col, row = col + width, row + count
    return solved


def embed_group(f_inputs, adapted, lams, max_iter=DEFAULT_MAX_ITER,
                tol=DEFAULT_TOL, plans_override=None):
    """Transport embeddings of G inputs of one node count n, each against
    its own adapted keys.

    ``adapted`` holds one stacked :class:`~graphdict.vgda.AdaptedKey` per
    input.  Each input's costs are one cost op and its H one
    :func:`~graphdict.tensor.plan_costs` op.  One :func:`sinkhorn_keys`
    call solves every input's (key, sensitivity) slices: the G cost
    matrices side by side, their key offsets shifted and joined.  That is
    the solve of each input alone, as every slice is solved and retired on
    its own and the inputs share n and the uniform row mass.  Input g's
    :class:`PlanStack` is its column view of the group's plans, with its
    own offsets and its rows of ``iterations`` and ``converged``.

    Returns lists (H, cost, plans), one entry per input: H is a K-by-C
    tensor whose (j, c) entry is <plan_{j,c}, M_j>, with plans constant on
    the tape; ``cost`` is the (n, sum m_j) cost tensor.  ``plans_override``
    (one (C, n, sum m_j) array per input, a PlanStack's ``values``)
    replaces the solve entirely, and ``plans`` is then a list of None —
    used to freeze plans during gradient checks.
    """
    cost = [cost_matrix(f, keys.features)
            for f, keys in zip(f_inputs, adapted)]
    if plans_override is not None:
        solved, values = [None] * len(cost), plans_override
    else:
        M, offsets = _side_by_side(cost, adapted)
        joined = sinkhorn_keys(M, lams, offsets=offsets, max_iter=max_iter,
                               tol=tol)
        solved = _split_columns(joined, adapted)
        values = [s.values for s in solved]
    h_matrix = [T.plan_costs(c, v, keys.offsets)
                for c, v, keys in zip(cost, values, adapted)]
    return h_matrix, cost, solved


def embed_keys_multi(f_input, adapted, lams, max_iter=DEFAULT_MAX_ITER,
                     tol=DEFAULT_TOL, plans_override=None):
    """Transport embedding of one input against every adapted key, the
    group of one of :func:`embed_group`: its (H, cost, plans), with
    ``plans`` None when ``plans_override`` ((C, n, sum m_j) plans in the
    cost's columns) replaced the solve."""
    h_matrix, cost, solved = embed_group(
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

