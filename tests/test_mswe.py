"""Entropic transport solver, multi-sensitivity embedding, attention fusion."""

import collections
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphdict import mswe, tensor as T
from graphdict.errors import ConfigError, NumericsError, ShapeError
from graphdict.mswe import (ABSORB_LIMIT, DEFAULT_LAMBDA_GRID,
                            LOG_DOMAIN_THRESHOLD,
                            MASTER_LAMBDA_GRID, aggregate_attention_matrix,
                            cost_matrix, embed_batch, embed_keys_multi,
                            select_lambdas,
                            sinkhorn, sinkhorn_grid, sinkhorn_keys)
from graphdict.oracles import reference_sinkhorn
from graphdict.vgda import AdaptedKey


def make_keys(*features):
    """One stacked AdaptedKey over the keys' feature rows, in order."""
    features = [np.asarray(f, dtype=float) for f in features]
    return AdaptedKey(features=T.Tensor(np.vstack(features)),
                      offsets=np.cumsum([0] + [f.shape[0] for f in features]))


# --- solver -----------------------------------------------------------------

def test_single_cell_plan_is_one():
    plan = sinkhorn(np.array([[4.2]]), 1.0)
    assert np.array_equal(plan.values, [[1.0]])
    assert plan.converged


def test_zero_cost_gives_product_measure():
    plan = sinkhorn(np.zeros((3, 4)), 2.0)
    assert np.allclose(plan.values, 1.0 / 12.0, atol=1e-12)


def test_marginals_feasible_over_random_instances():
    rng = np.random.default_rng(21)
    for trial in range(100):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 7))
        lam = MASTER_LAMBDA_GRID[trial % len(MASTER_LAMBDA_GRID)]
        M = rng.uniform(size=(n, m))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            plan = sinkhorn(M, lam, max_iter=2000, tol=1e-9)
        assert np.abs(plan.values.sum(axis=1) - 1.0 / n).max() <= 1e-6
        assert np.abs(plan.values.sum(axis=0) - 1.0 / m).max() <= 1e-6


def test_transport_cost_nonincreasing_in_sensitivity():
    rng = np.random.default_rng(22)
    for _ in range(40):
        M = rng.uniform(size=(5, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            plans = sinkhorn_grid(M, MASTER_LAMBDA_GRID, max_iter=2000,
                                  tol=1e-9)
        costs = [float((p.values * M).sum()) for p in plans]
        for lo, hi in zip(costs, costs[1:]):
            assert hi <= lo + 1e-9


def test_plans_strictly_positive_with_unit_mass():
    rng = np.random.default_rng(23)
    for _ in range(20):
        M = rng.uniform(size=(4, 6))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            plans = sinkhorn_grid(M, (0.01, 1.0, 100.0), max_iter=500,
                                  tol=1e-9)
        for plan in plans:
            assert (plan.values > 0.0).all()
            assert abs(plan.values.sum() - 1.0) <= 1e-9


def test_sensitivity_grids():
    assert select_lambdas(8) == DEFAULT_LAMBDA_GRID
    assert select_lambdas(12) == MASTER_LAMBDA_GRID
    assert select_lambdas(1) == (MASTER_LAMBDA_GRID[0],)
    picked = select_lambdas(5)
    assert all(lam in MASTER_LAMBDA_GRID for lam in picked)
    assert list(picked) == sorted(picked)
    with pytest.raises(ConfigError):
        select_lambdas(0)
    with pytest.raises(ConfigError):
        select_lambdas(13)
    for count in (2.5, 8.0, "8", None, True):
        with pytest.raises(ConfigError, match="must be an integer"):
            select_lambdas(count)


def test_solver_validation():
    M = np.ones((2, 2))
    with pytest.raises(ConfigError):
        sinkhorn(M, 0.0)
    with pytest.raises(ConfigError):
        sinkhorn(M, -1.0)
    with pytest.raises(ConfigError):
        sinkhorn(M, 1.0, max_iter=0)
    for max_iter in (2.5, 3.0, "3", None, True):
        with pytest.raises(ConfigError, match="max_iter must be an integer"):
            sinkhorn_keys(M, [1.0], max_iter=max_iter)
    for tol in (np.nan, -1e-9, -np.inf, "1e-6", None, True):
        with pytest.raises(ConfigError, match="tol must be a real number"):
            sinkhorn_keys(M, [1.0], tol=tol)
    with warnings.catch_warnings():
        # tol = 0 is valid: every slice runs to max_iter and warns
        warnings.simplefilter("ignore", RuntimeWarning)
        plan = sinkhorn(M, 1.0, max_iter=np.int64(3), tol=0)
    assert plan.iterations_used == 3
    assert sinkhorn(M, 1.0, tol=np.inf).iterations_used == 1
    for lams in ([np.nan], [np.inf], [], [1.0, -np.inf]):
        listed = re.escape(str(lams))
        with pytest.raises(ConfigError, match="sensitivities must be one or "
                           rf"more finite positive numbers, got {listed}"):
            sinkhorn_keys(M, lams)
    # a numeric string is not read as the number it spells
    for lams in ("ab", [1.0, "x"], [1j], [[1.0], [2.0, 3.0]], ["5"]):
        with pytest.raises(ConfigError, match="sensitivities must be one"):
            sinkhorn_keys(M, lams)
    # complex costs are refused, not cut to their real part
    for cost in ("ab", [[1.0, "x"]], [[1j, 1.0]], [[1.0, 2.0], [3.0]],
                 np.array([[1j, 1.0]])):
        with pytest.raises(NumericsError, match="must hold real numbers"):
            sinkhorn_keys(cost, [1.0])
    with pytest.raises(ShapeError):
        sinkhorn(np.ones(3), 1.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NumericsError, match="non-finite"):
            sinkhorn(np.array([[0.0, bad], [1.0, 1.0]]), 1.0)
    for empty in ((0, 3), (3, 0), (0, 0)):
        with pytest.raises(ShapeError, match="empty side"):
            sinkhorn(np.zeros(empty), 1.0)
    M = np.ones((2, 5))
    for offsets in ([0, 2, 2, 5], [0, 5, 4], [1, 5], [0, 4], [0]):
        with pytest.raises(ShapeError, match="empty side"):
            sinkhorn_keys(M, [1.0], offsets=offsets)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 9), m=st.integers(1, 9),
       seed=st.integers(0, 2**32 - 1),
       log_scale=st.floats(-3.0, 2.0),
       exponents=st.lists(st.floats(-4.0, 2.0), min_size=1, max_size=8),
       max_iter=st.integers(1, 25), tol=st.sampled_from([1e-6, 1e-9, 1e-12]))
def test_grid_slices_match_single_solves(n, m, seed, log_scale, exponents,
                                         max_iter, tol):
    """Batching, retirement, the sharp start and absorption leave each
    slice untouched."""
    M = np.random.default_rng(seed).uniform(0.1, 1.0, size=(n, m))
    M *= 10.0 ** log_scale
    # lam = edge * 10**e starts from log-domain potentials exactly when e > 0
    edge = LOG_DOMAIN_THRESHOLD / M.max()
    lams = [edge * 10.0 ** e for e in [-0.5, *exponents, 0.5]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        grid = sinkhorn_grid(M, lams, max_iter=max_iter, tol=tol)
        singles = [sinkhorn(M, lam, max_iter=max_iter, tol=tol)
                   for lam in lams]
    for plan, single in zip(grid, singles):
        assert plan.values.tobytes() == single.values.tobytes()
        assert plan.iterations_used == single.iterations_used
        assert plan.converged == single.converged


def test_stacked_solve_builds_one_padding_layout(monkeypatch):
    calls = []
    real = T.segment_index

    def counted(offsets):
        calls.append(1)
        return real(offsets)

    monkeypatch.setattr(T, "segment_index", counted)
    M = np.random.default_rng(6).uniform(size=(5, 9))
    sinkhorn_keys(M, (0.5, 5.0), offsets=[0, 2, 7, 9])
    assert len(calls) == 1


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 28),
       keys=st.lists(st.tuples(st.integers(1, 28), st.floats(-3.0, 2.0)),
                     min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1),
       lams=st.sampled_from([DEFAULT_LAMBDA_GRID, MASTER_LAMBDA_GRID,
                             (0.5,), (3.0, 0.01, 100.0)]),
       max_iter=st.sampled_from([3, 200]),
       tol=st.sampled_from([1e-6, 1e-9, 1e-12]))
def test_stacked_keys_match_one_key_solves(n, keys, seed, lams, max_iter,
                                           tol):
    """Padding ragged keys into one batch leaves every slice's solve as is."""
    widths = [w for w, _ in keys]
    offsets = np.cumsum([0] + widths)
    rng = np.random.default_rng(seed)
    # each key has its own cost scale, so keys split differently between
    # the Gibbs-kernel and the log-domain start
    M = np.hstack([rng.uniform(0.0, 1.0, size=(n, w)) * 10.0 ** scale
                   for w, scale in keys])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        stacked = sinkhorn_keys(M, lams, offsets=offsets, max_iter=max_iter,
                                tol=tol)
        singles = [sinkhorn_grid(M[:, lo:hi], lams, max_iter=max_iter,
                                 tol=tol)
                   for lo, hi in zip(offsets[:-1], offsets[1:])]
    assert stacked.values.shape == (len(lams), n, sum(widths))
    for j, (plans, single) in enumerate(zip(stacked.per_key(), singles)):
        assert stacked.iterations[j].tolist() == [p.iterations_used
                                                  for p in single]
        assert stacked.converged[j].tolist() == [p.converged for p in single]
        assert np.abs(plans - [p.values for p in single]).max() <= 1e-12
        assert (plans >= 0.0).all()
        assert np.abs(plans.sum(axis=2) - 1.0 / n).max() <= 1e-12
        assert np.abs(plans.sum(axis=1) - 1.0 / widths[j]).max() <= 1e-12


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 28),
       keys=st.lists(st.tuples(st.integers(1, 28), st.floats(-3.0, 2.0)),
                     min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1),
       lams=st.sampled_from([DEFAULT_LAMBDA_GRID, MASTER_LAMBDA_GRID,
                             (0.5,), (3.0, 0.01, 100.0)]))
def test_plan_costs_sum_each_keys_plans_over_its_own_columns(n, keys, seed,
                                                             lams):
    """Plans in the cost's columns give H[j, c] = sum(P_{j,c} * M_j), and
    d(sum g * H)/dM is sum_c g[j, c] * P_{j,c} on key j's columns."""
    widths = [w for w, _ in keys]
    offsets = np.cumsum([0] + widths)
    rng = np.random.default_rng(seed)
    M = np.hstack([rng.uniform(0.0, 1.0, size=(n, w)) * 10.0 ** scale
                   for w, scale in keys])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        solved = sinkhorn_keys(M, lams, offsets=offsets)
    weights = rng.uniform(0.1, 1.0, size=(len(keys), len(lams)))
    cost = T.Tensor(M, requires_grad=True)
    with T.Tape() as tape:
        h = T.plan_costs(cost, solved.values, offsets)
        tape.backward(T.sum_all(T.multiply(h, T.constant(weights))))
    for j, plans in enumerate(solved.per_key()):
        lo, hi = offsets[j], offsets[j + 1]
        expected = np.array([(plan * M[:, lo:hi]).sum() for plan in plans])
        assert (np.abs(h.values[j] - expected)
                <= 1e-12 * np.abs(expected)).all()
        grad = sum(w * plan for w, plan in zip(weights[j], plans))
        assert (np.abs(cost.grad[:, lo:hi] - grad)
                <= 1e-12 * np.abs(grad)).all()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_stacked_embedding_matches_per_key_embeddings():
    rng = np.random.default_rng(11)
    f = T.Tensor(rng.normal(size=(5, 6)))
    keys = [rng.normal(size=(w, 6)) for w in (1, 4, 2, 7)]
    lams = DEFAULT_LAMBDA_GRID
    stacked, cost, plans = embed_keys_multi(f, make_keys(*keys), lams)
    for j, key in enumerate(keys):
        single, single_cost, _ = embed_keys_multi(f, make_keys(key), lams)
        assert np.abs(stacked.values[j] - single.values[0]).max() <= 1e-12
        lo, hi = plans.offsets[j], plans.offsets[j + 1]
        assert np.array_equal(cost.values[:, lo:hi], single_cost.values)


def _batch(rng, widths):
    """Inputs of node counts 5, 3, 5, 7 and their adapted keys, one key
    list per input from ``widths``."""
    f_inputs = [T.Tensor(rng.normal(size=(n, 6))) for n in (5, 3, 5, 7)]
    return f_inputs, [make_keys(*(rng.normal(size=(w, 6)) for w in row))
                      for row in widths]


def _assert_same_embedding(got, want, exact):
    close = (np.array_equal if exact else
             lambda a, b: np.allclose(a, b, rtol=1e-13, atol=1e-15))
    (h, cost, plans), (h1, cost1, plans1) = got, want
    assert np.array_equal(cost.values, cost1.values)
    assert close(h.values, h1.values)
    assert close(plans.values, plans1.values)
    assert np.array_equal(plans.offsets, plans1.offsets)
    assert np.array_equal(plans.iterations, plans1.iterations)
    assert np.array_equal(plans.converged, plans1.converged)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_batch_embedding_is_each_inputs_embedding_alone():
    """Same-size inputs share a solve padded to their widest key.  Where
    that is each input's own widest key the solve is byte for byte each
    input's own; where it is wider, BLAS sums the padded mat-vecs in
    another order, so plans and H move by rounding only."""
    lams = DEFAULT_LAMBDA_GRID
    rng = np.random.default_rng(12)
    f_inputs, adapted = _batch(rng, [(6, 1, 3), (2, 4), (1, 6, 6, 5), (6,)])
    for g, got in enumerate(zip(*embed_batch(f_inputs, adapted, lams))):
        _assert_same_embedding(
            got, embed_keys_multi(f_inputs[g], adapted[g], lams), exact=True)
        # the solve mixes mild and sharp slices
        peak = got[1].values.max() * np.asarray(lams)
        assert (peak > LOG_DOMAIN_THRESHOLD).any()
        assert (peak <= LOG_DOMAIN_THRESHOLD).any()
    f_inputs, adapted = _batch(rng, [(2, 7), (3,), (1, 4), (5, 1)])
    for g, got in enumerate(zip(*embed_batch(f_inputs, adapted, lams))):
        _assert_same_embedding(
            got, embed_keys_multi(f_inputs[g], adapted[g], lams), exact=False)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_batch_embedding_solves_once_per_node_count(monkeypatch):
    calls = []
    original = mswe.sinkhorn_keys

    def spy(M, lams, **kwargs):
        calls.append((M, kwargs["offsets"]))
        return original(M, lams, **kwargs)

    monkeypatch.setattr(mswe, "sinkhorn_keys", spy)
    f_inputs, adapted = _batch(np.random.default_rng(13),
                               [(3, 2), (4,), (1, 5), (2, 2, 2)])
    _, cost, plans = embed_batch(f_inputs, adapted, (0.5, 5.0))
    # first-appearance order: n = 5 (inputs 0 and 2), then 3, then 7
    assert [M.shape[0] for M, _ in calls] == [5, 3, 7]
    (M, offsets), single = calls[0], calls[1:]
    assert np.array_equal(M, np.hstack([cost[0].values, cost[2].values]))
    assert offsets.tolist() == [0, 3, 5, 6, 11]
    for (M, offsets), g in zip(single, (1, 3)):
        assert np.array_equal(M, cost[g].values)
        assert np.array_equal(offsets, adapted[g].offsets)
        # a group of one takes the same joined path
        assert plans[g].values.base is not None
        assert plans[g].offsets is adapted[g].offsets
    assert plans[2].values.base is not None        # a view of the group's
    assert plans[2].offsets.tolist() == [0, 1, 6]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_batch_embedding_with_frozen_plans_skips_the_solve(monkeypatch):
    lams = (0.5, 5.0)
    f_inputs, adapted = _batch(np.random.default_rng(14),
                               [(3, 2), (4,), (1, 5), (2, 2, 2)])
    h, _, plans = embed_batch(f_inputs, adapted, lams)
    monkeypatch.setattr(mswe, "sinkhorn_keys", None)
    frozen, cost, none = embed_batch(f_inputs, adapted, lams,
                                     plans_override=[p.values for p in plans])
    assert none == [None] * 4 and len(frozen) == len(cost) == 4
    for got, want in zip(frozen, h):
        assert np.array_equal(got.values, want.values)


def test_batch_embedding_wants_one_entry_per_input():
    f_inputs, adapted = _batch(np.random.default_rng(15),
                               [(3,), (4,), (1,), (2,)])
    with pytest.raises(ShapeError, match="1 adapted key stacks for 2 inputs"):
        embed_batch(f_inputs[:2], adapted[:1], [1.0])
    _, _, plans = embed_batch(f_inputs[:2], adapted[:2], [1.0])
    with pytest.raises(ShapeError, match="1 plan stacks for 2 inputs"):
        embed_batch(f_inputs[:2], adapted[:2], [1.0],
                    plans_override=[plans[0].values])


def test_batch_embedding_refuses_frozen_plans_that_are_not_real_numbers():
    f_inputs, adapted = _batch(np.random.default_rng(16), [(3,)])
    with pytest.raises(NumericsError,
                       match="plan_costs: plans must be real numbers"):
        embed_batch(f_inputs[:1], adapted, [1.0], plans_override=["ab"])


@pytest.mark.parametrize("n", [1, 2, 7, 28])
def test_one_column_key_takes_its_closed_form_plan(n):
    """One column admits one coupling, the column a, at every sensitivity,
    also past the sharp-start threshold; nothing iterates or warns."""
    M = np.random.default_rng(n).uniform(1.0, 50.0, size=(n, 1))
    lams = (*MASTER_LAMBDA_GRID, 1e4)
    assert lams[-1] * M.max() > LOG_DOMAIN_THRESHOLD
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solved = sinkhorn_keys(M, lams, max_iter=1, tol=0.0)
    assert solved.values.shape == (len(lams), n, 1)
    for plan in solved.values:
        assert plan[:, 0].tobytes() == mswe.uniform_marginal(n).tobytes()
    assert solved.iterations.tolist() == [[0] * len(lams)]
    assert solved.converged.all()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 28),
       keys=st.lists(st.tuples(st.integers(1, 12), st.floats(-3.0, 2.0)),
                     min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1),
       lams=st.sampled_from([DEFAULT_LAMBDA_GRID, (0.5,),
                             (3.0, 0.01, 100.0)]),
       max_iter=st.sampled_from([3, 200]))
def test_mixed_stack_solves_wider_keys_as_alone(n, keys, seed, lams,
                                                max_iter):
    """One-column keys among wider ones leave the wider keys' solve as it
    is alone: the same plan bytes, iterations and converged flags."""
    widths = np.array([1 if j % 2 else w for j, (w, _) in enumerate(keys)])
    offsets = np.cumsum([0, *widths])
    rng = np.random.default_rng(seed)
    M = np.hstack([rng.uniform(0.0, 1.0, size=(n, w)) * 10.0 ** scale
                   for w, (_, scale) in zip(widths, keys)])
    wide = widths > 1
    cols = np.repeat(wide, widths)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        stacked = sinkhorn_keys(M, lams, offsets=offsets, max_iter=max_iter)
        alone = (sinkhorn_keys(M[:, cols], lams,
                               offsets=np.cumsum([0, *widths[wide]]),
                               max_iter=max_iter) if wide.any() else None)
    assert (stacked.iterations[~wide] == 0).all()
    assert stacked.converged[~wide].all()
    assert (stacked.values[:, :, ~cols] == 1.0 / n).all()
    if alone is not None:
        assert stacked.values[:, :, cols].tobytes() == alone.values.tobytes()
        assert np.array_equal(stacked.iterations[wide], alone.iterations)
        assert np.array_equal(stacked.converged[wide], alone.converged)


def test_one_column_keys_call_no_solver(monkeypatch):
    def refuse(name):
        def spy(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return spy

    for name in ("_solve_keys", "_round_to_feasible"):
        monkeypatch.setattr(mswe, name, refuse(name))
    monkeypatch.setattr(np, "exp", refuse("exp"))
    M = np.random.default_rng(3).uniform(size=(6, 4)) * 100.0
    solved = sinkhorn_keys(M, DEFAULT_LAMBDA_GRID, offsets=[0, 1, 2, 3, 4])
    assert (solved.values == 1.0 / 6.0).all()
    assert (solved.iterations == 0).all() and solved.converged.all()


def test_one_column_keys_are_validated():
    M = np.ones((3, 3))
    M[1, 2] = np.nan
    with pytest.raises(NumericsError, match="non-finite"):
        sinkhorn_keys(M, [1.0], offsets=[0, 2, 3])
    with pytest.raises(NumericsError, match="non-finite"):
        sinkhorn_keys(M[:, 2:], [1.0])
    for lams in ([0.0], [np.nan], [], [1.0, -1.0]):
        with pytest.raises(ConfigError, match="sensitivities"):
            sinkhorn_keys(np.ones((3, 1)), lams)
    with pytest.raises(ConfigError, match="max_iter"):
        sinkhorn_keys(np.ones((3, 1)), [1.0], max_iter=2.5)


def _cost_scaled_keys(widths, scales, n, seed):
    """A stacked cost matrix whose keys peak near their own scales."""
    rng = np.random.default_rng(seed)
    M = np.hstack([rng.uniform(size=(n, w)) * scale
                   for w, scale in zip(widths, scales)])
    return M, np.cumsum([0, *widths])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sharp_rows_rebuild_from_their_own_key_cost(monkeypatch):
    """Each stabilized kernel row, at the sharp start and at every
    absorption, is built on its own key's padded cost and mass."""
    calls = []
    build = mswe._stabilized_kernel

    def spy(f, g, cost, eps, b):
        calls.append((cost, b))
        return build(f, g, cost, eps, b)

    monkeypatch.setattr(mswe, "_stabilized_kernel", spy)
    widths, n = (3, 5, 2), 4
    M, offsets = _cost_scaled_keys(widths, (50.0, 5.0, 20.0), n, seed=12)
    sinkhorn_keys(M, DEFAULT_LAMBDA_GRID, offsets=offsets)
    costs = np.zeros((len(widths), n, max(widths)))
    for j, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
        costs[j, :, :hi - lo] = M[:, lo:hi]
    peaks = [M[:, lo:hi].max() for lo, hi in zip(offsets[:-1], offsets[1:])]
    sharp_keys = [j for j, peak in enumerate(peaks)
                  for lam in DEFAULT_LAMBDA_GRID
                  if lam * peak > LOG_DOMAIN_THRESHOLD]
    assert np.array_equal(calls[0][0], costs[sharp_keys])
    assert len(calls) > 1                      # at least one absorption
    for cost_rows, b_rows in calls:
        assert cost_rows.shape == (b_rows.shape[0], n, max(widths))
        for cost, b in zip(cost_rows, b_rows):
            # the keys' widths differ, so a row's mass names its key
            j = widths.index(int((b > 0.0).sum()))
            assert np.array_equal(cost, costs[j])
            assert np.array_equal(b[:widths[j]], np.full(widths[j],
                                                         1.0 / widths[j]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_each_step_computes_only_unfrozen_slices(monkeypatch):
    """A slice's row leaves the batch at the iteration that freezes it, so
    the one step runs exactly the slices' iteration count, sharp and mild
    slices alike."""
    computed = []
    step = mswe._scaling_step

    def spy(*args):
        result = step(*args)
        computed.append(result[2].size)  # one violation per slice
        return result

    monkeypatch.setattr(mswe, "_scaling_step", spy)
    widths, scales = (3, 5, 2), (50.0, 5.0, 20.0)
    M, offsets = _cost_scaled_keys(widths, scales, 4, seed=12)
    solved = sinkhorn_keys(M, DEFAULT_LAMBDA_GRID, offsets=offsets)
    peaks = np.array([M[:, lo:hi].max()
                      for lo, hi in zip(offsets[:-1], offsets[1:])])
    sharp = peaks[:, None] * solved.lams > LOG_DOMAIN_THRESHOLD
    assert sharp.any() and not sharp.all()
    assert sum(computed) == solved.iterations.sum()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("scale", [0.5, 50.0])
def test_plans_are_built_once_per_solve(monkeypatch, scale):
    """Steps carry scaling vectors, never plans, on mild and sharp slices
    alike; the rounding builds every plan once, however many iterations
    run."""
    widths, n = (3, 5, 2), 4
    calls = []

    def spy_on(name):
        original = getattr(mswe, name)

        def spy(*args):
            result = original(*args)
            calls.append((name, result))
            return result
        monkeypatch.setattr(mswe, name, spy)

    for name in ("_scaling_step", "_round_to_feasible"):
        spy_on(name)
    M = np.random.default_rng(13).uniform(size=(n, sum(widths))) * scale
    solved = sinkhorn_keys(M, (1.0, 2.0), offsets=np.cumsum([0, *widths]),
                           max_iter=40, tol=0.0)
    assert (solved.iterations == 40).all()
    assert ([name for name, _ in calls]
            == ["_scaling_step"] * 40 + ["_round_to_feasible"])
    for _, ((x, y), _, violation) in calls[:-1]:
        assert violation.shape == (6,)
        assert x.shape == (6, n) and y.shape == (6, 5)
    assert calls[-1][1].shape == (6, n, 5)


# instances whose scaling vectors pass the absorption limit at both
# sharpnesses, and that converge within the cap
@pytest.mark.parametrize("seed", [5, 8])
def test_absorbing_slices_match_the_reference(monkeypatch, seed):
    """At lam * max(M) of 1e3 and 1e4 folding the scaling vectors into the
    potentials keeps the plan on the log-domain reference's within
    acceptance 1's 1e-8."""
    builds = []
    build = mswe._stabilized_kernel

    def spy(*args):
        builds.append(1)
        return build(*args)

    monkeypatch.setattr(mswe, "_stabilized_kernel", spy)
    rng = np.random.default_rng(seed)
    n, m = rng.integers(2, 7, size=2)
    M = rng.uniform(size=(n, m))
    for sharpness in (1e3, 1e4):
        lam = sharpness / M.max()
        builds.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            plan = sinkhorn(M, lam, max_iter=10_000, tol=1e-9)
        exact = reference_sinkhorn(M, lam, np.full(n, 1.0 / n),
                                   np.full(m, 1.0 / m), max_iter=10_000,
                                   tol=1e-9)
        assert len(builds) >= 2            # the sharp start, then absorbing
        assert plan.converged and exact.converged
        assert np.abs(plan.values - exact.values).max() <= 1e-8


@pytest.mark.parametrize("probe", range(12))
def test_negative_costs_match_the_reference(probe):
    """Costs shifted as far as -100 keep the reference plans: the Gibbs
    kernel exp(-lam M) would overflow there, so a slice starts sharp on
    lam * max|M_j| > 30, not on lam * max(M_j)."""
    rng = np.random.default_rng(probe)
    n, m = rng.integers(2, 8, size=2)
    M = rng.uniform(size=(n, m)) - 100.0 + 103.0 * probe / 11
    with warnings.catch_warnings():
        # a few slices at lam = 100 reach the cap, as the reference's do
        warnings.simplefilter("ignore", RuntimeWarning)
        solved = sinkhorn_keys(M, DEFAULT_LAMBDA_GRID, max_iter=2000,
                               tol=1e-9)
    for plan, lam in zip(solved.values, DEFAULT_LAMBDA_GRID):
        exact = reference_sinkhorn(M, lam, np.full(n, 1.0 / n),
                                   np.full(m, 1.0 / m), max_iter=2000,
                                   tol=1e-9)
        assert np.abs(plan - exact.values).max() <= 1e-8


def _count_calls(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, spy)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("max_iter", [1, 7, 30])
def test_a_mild_iteration_is_one_product_each_way_and_no_exp(monkeypatch,
                                                            max_iter):
    """Each iteration of a mild solve is one u^T K and one K v, batched
    over every slice, and no exp: acceptance 7's small solves are bound by
    per-call overhead.  The start's K v and the rounding's two K y and one
    x^T K are fixed, and so is the Gibbs kernel's one exp."""
    counts = collections.Counter()
    for name in ("_vecmat", "_matvec"):
        _count_calls(monkeypatch, mswe, name, counts)
    _count_calls(monkeypatch, np, "exp", counts)
    M = np.random.default_rng(13).uniform(size=(4, 10))
    solved = sinkhorn_keys(M, (0.1, 1.0, 10.0), offsets=[0, 3, 8, 10],
                           max_iter=max_iter, tol=0.0)
    assert (solved.iterations == max_iter).all()
    assert counts == {"_matvec": max_iter + 3, "_vecmat": max_iter + 1,
                      "exp": 1}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_absorbing_solve_rebuilds_kernels_only_when_it_absorbs(
        monkeypatch):
    """A sharp solve builds its stabilized kernel at the start and once
    more at each iteration whose scaling vectors pass the absorption
    limit; every other iteration runs no exp."""
    counts, absorbing = collections.Counter(), []
    _count_calls(monkeypatch, mswe, "_stabilized_kernel", counts)
    _count_calls(monkeypatch, np, "exp", counts)
    step = mswe._scaling_step

    def spy(*args):
        result = step(*args)
        (u, v), _, _ = result
        absorbing.append(not max(u.max(), v.max()) <= ABSORB_LIMIT)
        return result

    monkeypatch.setattr(mswe, "_scaling_step", spy)
    rng = np.random.default_rng(5)
    n, m = rng.integers(2, 7, size=2)
    M = rng.uniform(size=(n, m))
    plan = sinkhorn(M, 1e3 / M.max(), max_iter=10_000, tol=1e-9)
    assert plan.converged and sum(absorbing) >= 1
    assert counts["_stabilized_kernel"] == 1 + sum(absorbing)
    # the Gibbs kernel and the start's two c-transforms, then one per build
    assert counts["exp"] == 3 + counts["_stabilized_kernel"]


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 28),
       keys=st.lists(st.tuples(st.integers(1, 28), st.floats(-1.0, 0.0)),
                     min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1),
       exponents=st.lists(st.floats(-6.0, 4.0), min_size=1, max_size=8),
       max_iter=st.sampled_from([1, 3, 200]))
def test_plans_feasible_across_shapes_and_sensitivity_scales(
        n, keys, seed, exponents, max_iter):
    """Exact marginals and nonnegative entries, in both domains and at any
    iteration cap."""
    widths = [w for w, _ in keys]
    rng = np.random.default_rng(seed)
    # key j's largest cost is 10**scale_j, and key 0's is 1, so lam * max M_0
    # runs over 1e-6 to 1e4 and crosses the log-domain threshold
    blocks = [rng.uniform(0.0, 1.0, size=(n, w)) for w in widths]
    blocks = [block / block.max() * (10.0 ** scale if j else 1.0)
              for j, (block, (_, scale)) in enumerate(zip(blocks, keys))]
    lams = [10.0 ** e for e in exponents]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        solved = sinkhorn_keys(np.hstack(blocks), lams,
                               offsets=np.cumsum([0] + widths),
                               max_iter=max_iter)
    for j, plans in enumerate(solved.per_key()):
        assert (plans >= 0.0).all()
        assert np.abs(plans.sum(axis=2) - 1.0 / n).max() <= 1e-12
        assert np.abs(plans.sum(axis=1) - 1.0 / widths[j]).max() <= 1e-12


def test_nonconvergence_warns_but_stays_feasible():
    M = np.random.default_rng(24).uniform(size=(5, 5))
    with pytest.warns(RuntimeWarning):
        plan = sinkhorn(M, 100.0, max_iter=3, tol=1e-12)
    assert not plan.converged
    assert plan.iterations_used == 3
    assert np.abs(plan.values.sum(axis=1) - 0.2).max() <= 1e-12
    assert np.abs(plan.values.sum(axis=0) - 0.2).max() <= 1e-12


def test_solver_runtime_scales_with_matrix_area():
    def bench(n, blocks=9, repeats=4):
        # each sample times a block of back-to-back solves, so one short
        # swing in host speed moves a sample less
        M = np.random.default_rng(1).uniform(size=(n, n))
        samples = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sinkhorn(M, 1.0, max_iter=200, tol=0.0)  # warm-up
            for _ in range(blocks):
                start = time.perf_counter()
                for _ in range(repeats):
                    sinkhorn(M, 1.0, max_iter=200, tol=0.0)
                samples.append(time.perf_counter() - start)
        return float(np.median(samples))

    factor = bench(512) / bench(256)
    assert 3.0 <= factor <= 6.0


# --- cost matrices ----------------------------------------------------------

def test_cost_matrix_pinned_scalar():
    out = cost_matrix(T.Tensor([[0.0]]), T.Tensor([[3.0]]))
    assert np.allclose(out.values, [[9.0]], atol=1e-12)


def test_cost_matrix_zero_diagonal_on_identical_rows():
    feats = np.random.default_rng(2).normal(size=(4, 6))
    out = cost_matrix(T.Tensor(feats), T.Tensor(feats.copy()))
    assert np.abs(np.diag(out.values)).max() <= 1e-12
    assert (out.values >= -1e-12).all()


def test_cost_matrix_matches_double_loop():
    rng = np.random.default_rng(4)
    f = rng.normal(size=(3, 5))
    g = rng.normal(size=(2, 5))
    out = cost_matrix(T.Tensor(f), T.Tensor(g)).values
    for i in range(3):
        for j in range(2):
            assert abs(out[i, j] - ((f[i] - g[j]) ** 2).sum()) <= 1e-12


# --- embeddings -------------------------------------------------------------

def test_embedding_matrix_shape():
    rng = np.random.default_rng(5)
    f = T.Tensor(rng.normal(size=(4, 8)))
    keys = make_keys(*(rng.normal(size=(3, 8)) for _ in range(3)))
    h_matrix, cost, plans = embed_keys_multi(f, keys, (0.5, 1.0, 5.0, 10.0))
    assert h_matrix.values.shape == (3, 4)
    assert cost.values.shape == (4, 9)
    assert plans.values.shape == (4, 4, 9)
    assert plans.iterations.shape == plans.converged.shape == (3, 4)
    assert (h_matrix.values >= 0.0).all()


def test_single_sensitivity_embedding_length():
    rng = np.random.default_rng(6)
    f = T.Tensor(rng.normal(size=(4, 8)))
    h, _, _ = embed_keys_multi(f, make_keys(rng.normal(size=(3, 8))), [1.0])
    assert h.values.shape == (1, 1)


def test_identical_features_embed_near_zero_at_sharp_sensitivity():
    feats = np.random.default_rng(0).normal(size=(4, 8))
    h, _, _ = embed_keys_multi(T.Tensor(feats), make_keys(feats.copy()),
                               [100.0], max_iter=5000, tol=1e-9)
    assert h.values.item() <= 1e-9


def test_single_sensitivity_matches_grid_column():
    rng = np.random.default_rng(7)
    f = T.Tensor(rng.normal(size=(4, 8)))
    keys = make_keys(rng.normal(size=(3, 8)), rng.normal(size=(5, 8)))
    multi, _, _ = embed_keys_multi(f, keys, (0.5, 5.0), max_iter=2000,
                                   tol=1e-9)
    single, _, _ = embed_keys_multi(f, keys, [0.5], max_iter=2000, tol=1e-9)
    assert np.allclose(multi.values[:, 0:1], single.values, atol=1e-12)


def test_frozen_plan_embedding_gradient_matches_fd():
    rng = np.random.default_rng(8)
    f = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    keys = make_keys(rng.normal(size=(2, 4)), rng.normal(size=(4, 4)))
    lams = (0.5, 5.0)
    _, _, plans = embed_keys_multi(f, keys, lams, max_iter=2000, tol=1e-9)

    def closure():
        h_matrix, _, _ = embed_keys_multi(f, keys, lams,
                                          plans_override=plans.values)
        return T.sum_all(h_matrix)

    worst = T.grad_check(closure, [f], epsilon=1e-5)
    assert worst <= 1e-4


# --- attention fusion -------------------------------------------------------

def test_attention_single_sensitivity_is_identity():
    h = T.Tensor([[0.4], [1.2]])
    h_hat, alpha = aggregate_attention_matrix(h, T.Tensor([[0.3, -0.7]]))
    assert np.allclose(alpha.values, [[1.0]], atol=1e-12)
    assert np.allclose(h_hat.values, h.values.T, atol=1e-12)


def test_attention_zero_weights_average_columns():
    h = T.Tensor(np.random.default_rng(9).normal(size=(3, 4)))
    h_hat, alpha = aggregate_attention_matrix(h, T.Tensor(np.zeros((1, 3))))
    assert np.allclose(alpha.values, 0.25, atol=1e-12)
    assert h_hat.values.shape == (1, 3)
    assert np.allclose(h_hat.values, h.values.mean(axis=1)[None, :],
                       atol=1e-12)


def test_attention_pinned_softmax():
    h = T.Tensor([[1.0, 2.0]])
    _, alpha = aggregate_attention_matrix(h, T.Tensor([[1.0]]))
    assert np.allclose(alpha.values, [[0.2689, 0.7311]], atol=1e-4)


def test_attention_weights_normalized_and_aggregate_exact():
    rng = np.random.default_rng(10)
    h = T.Tensor(rng.normal(size=(5, 6)))
    w_m = T.Tensor(rng.normal(size=(1, 5)))
    h_hat, alpha = aggregate_attention_matrix(h, w_m)
    assert abs(alpha.values.sum() - 1.0) <= 1e-9
    assert np.allclose(h_hat.values, alpha.values @ h.values.T, atol=1e-12)


def test_attention_shape_validation():
    with pytest.raises(ShapeError):
        aggregate_attention_matrix(T.Tensor(np.ones((3, 2))),
                                   T.Tensor(np.ones((1, 2))))
