"""Entropic transport solver, multi-sensitivity embedding, attention fusion."""

import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphdict import tensor as T
from graphdict.errors import ConfigError, NumericsError, ShapeError
from graphdict.mswe import (DEFAULT_LAMBDA_GRID, LOG_DOMAIN_THRESHOLD,
                            MASTER_LAMBDA_GRID, aggregate_attention_matrix,
                            cost_matrix, embed_keys_multi, select_lambdas,
                            sinkhorn, sinkhorn_grid)
from graphdict.vgda import AdaptedKey


def make_key(features, key_id=0):
    features = np.asarray(features, dtype=float)
    return AdaptedKey(indices=np.arange(features.shape[0]),
                      features=T.Tensor(features), key_id=key_id)


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


def test_solver_validation():
    M = np.ones((2, 2))
    with pytest.raises(ConfigError):
        sinkhorn(M, 0.0)
    with pytest.raises(ConfigError):
        sinkhorn(M, -1.0)
    with pytest.raises(ConfigError):
        sinkhorn(M, 1.0, max_iter=0)
    with pytest.raises(ShapeError):
        sinkhorn(np.ones(3), 1.0)
    with pytest.raises(ShapeError):
        sinkhorn(M, 1.0, a=np.array([0.5, 0.3, 0.2]))
    with pytest.raises(ConfigError):
        sinkhorn(M, 1.0, a=np.array([1.5, -0.5]))
    with pytest.raises(ConfigError):
        sinkhorn(M, 1.0, b=np.array([0.9, 0.9]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NumericsError, match="non-finite"):
            sinkhorn(np.array([[0.0, bad], [1.0, 1.0]]), 1.0)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 9), m=st.integers(1, 9),
       seed=st.integers(0, 2**32 - 1),
       log_scale=st.floats(-3.0, 2.0),
       exponents=st.lists(st.floats(-4.0, 2.0), min_size=1, max_size=8),
       max_iter=st.integers(1, 25), tol=st.sampled_from([1e-6, 1e-9, 1e-12]))
def test_grid_slices_match_single_solves(n, m, seed, log_scale, exponents,
                                         max_iter, tol):
    """Batching, retirement and the domain split leave each slice untouched."""
    M = np.random.default_rng(seed).uniform(0.1, 1.0, size=(n, m))
    M *= 10.0 ** log_scale
    # lam = edge * 10**e takes the log-domain update exactly when e > 0
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


def test_nonconvergence_warns_but_stays_feasible():
    M = np.random.default_rng(24).uniform(size=(5, 5))
    with pytest.warns(RuntimeWarning):
        plan = sinkhorn(M, 100.0, max_iter=3, tol=1e-12)
    assert not plan.converged
    assert plan.iterations_used == 3
    assert np.abs(plan.values.sum(axis=1) - 0.2).max() <= 1e-12
    assert np.abs(plan.values.sum(axis=0) - 0.2).max() <= 1e-12


def test_solver_runtime_scales_with_matrix_area():
    def bench(n):
        M = np.random.default_rng(1).uniform(size=(n, n))
        samples = []
        for _ in range(9):
            start = time.perf_counter()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
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
    keys = [make_key(rng.normal(size=(3, 8)), key_id=j) for j in range(3)]
    h_matrix, costs, meta = embed_keys_multi(f, keys, (0.5, 1.0, 5.0, 10.0))
    assert h_matrix.values.shape == (3, 4)
    assert len(costs) == len(meta) == 3
    assert (h_matrix.values >= 0.0).all()


def test_single_sensitivity_embedding_length():
    rng = np.random.default_rng(6)
    f = T.Tensor(rng.normal(size=(4, 8)))
    h, _, _ = embed_keys_multi(f, [make_key(rng.normal(size=(3, 8)))], [1.0])
    assert h.values.shape == (1, 1)


def test_identical_features_embed_near_zero_at_sharp_sensitivity():
    feats = np.random.default_rng(0).normal(size=(4, 8))
    h, _, _ = embed_keys_multi(T.Tensor(feats), [make_key(feats.copy())],
                               [100.0], max_iter=5000, tol=1e-9)
    assert h.values.item() <= 1e-9


def test_single_sensitivity_matches_grid_column():
    rng = np.random.default_rng(7)
    f = T.Tensor(rng.normal(size=(4, 8)))
    keys = [make_key(rng.normal(size=(3, 8))),
            make_key(rng.normal(size=(5, 8)), key_id=1)]
    multi, _, _ = embed_keys_multi(f, keys, (0.5, 5.0), max_iter=2000,
                                   tol=1e-9)
    single, _, _ = embed_keys_multi(f, keys, [0.5], max_iter=2000, tol=1e-9)
    assert np.allclose(multi.values[:, 0:1], single.values, atol=1e-12)


def test_frozen_plan_embedding_gradient_matches_fd():
    rng = np.random.default_rng(8)
    f = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    keys = [make_key(rng.normal(size=(2, 4))),
            make_key(rng.normal(size=(4, 4)), key_id=1)]
    lams = (0.5, 5.0)
    _, _, meta = embed_keys_multi(f, keys, lams, max_iter=2000, tol=1e-9)
    frozen = [np.stack([p.values for p in per_key]) for per_key in meta]

    def closure():
        h_matrix, _, _ = embed_keys_multi(f, keys, lams,
                                          plans_override=frozen)
        return T.sum_all(h_matrix)

    worst = T.grad_check(closure, [f], epsilon=1e-5)
    assert worst <= 1e-4


# --- attention fusion -------------------------------------------------------

def test_attention_single_sensitivity_is_identity():
    h = T.Tensor([[0.4], [1.2]])
    h_hat, alpha = aggregate_attention_matrix(h, T.Tensor([[0.3, -0.7]]))
    assert np.allclose(alpha.values, [[1.0]], atol=1e-12)
    assert np.allclose(h_hat.values, h.values, atol=1e-12)


def test_attention_zero_weights_average_columns():
    h = T.Tensor(np.random.default_rng(9).normal(size=(3, 4)))
    h_hat, alpha = aggregate_attention_matrix(h, T.Tensor(np.zeros((1, 3))))
    assert np.allclose(alpha.values, 0.25, atol=1e-12)
    assert np.allclose(h_hat.values, h.values.mean(axis=1, keepdims=True),
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
    assert np.allclose(h_hat.values, h.values @ alpha.values.T, atol=1e-12)


def test_attention_shape_validation():
    with pytest.raises(ShapeError):
        aggregate_attention_matrix(T.Tensor(np.ones((3, 2))),
                                   T.Tensor(np.ones((1, 2))))
