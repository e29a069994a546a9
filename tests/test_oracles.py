"""Verification oracles: finite differences, reference Sinkhorn, enumeration."""

import itertools

import numpy as np
import pytest

from graphdict import mswe, oracles
from graphdict import tensor as T
from graphdict.errors import (NumericsError, OracleError, ShapeError,
                              SizeError)
from graphdict.oracles import (exact_ot_by_enumeration,
                               finite_difference_gradient, make_report,
                               reference_sinkhorn, write_reports)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def test_fd_square_function_pinned():
    x = T.Tensor(np.array([[3.0]]), requires_grad=True)
    grads = finite_difference_gradient(lambda: float(x.values[0, 0] ** 2), [x])
    assert abs(grads[0][0, 0] - 6.0) <= 1e-6


def test_fd_matches_analytic_bernoulli_kl_derivative():
    # d/dp KL(B(0.5) || B(p)) at p = 0.3 equals 0.5(-1/p + 1/(1-p))
    p = T.Tensor(np.array([[0.3]]), requires_grad=True)
    grads = finite_difference_gradient(
        lambda: T.bernoulli_kl_sum(p, 0.5).item(), [p])
    analytic = 0.5 * (-1.0 / 0.3 + 1.0 / 0.7)
    assert abs(grads[0][0, 0] - analytic) <= 1e-6
    assert abs(analytic - (-0.952381)) < 1e-6


def test_fd_rejects_non_deterministic_closure():
    x = T.Tensor(np.array([[1.0]]), requires_grad=True)
    counter = itertools.count()

    def noisy():
        return float(x.values[0, 0]) + next(counter) * 1e-9

    with pytest.raises(OracleError):
        finite_difference_gradient(noisy, [x])


def test_fd_restores_parameter_values():
    x = T.Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
    before = x.values.copy()
    finite_difference_gradient(lambda: float((x.values ** 2).sum()), [x])
    assert np.array_equal(x.values, before)


# ---------------------------------------------------------------------------
# reference Sinkhorn
# ---------------------------------------------------------------------------

def test_reference_sinkhorn_single_cell():
    plan = reference_sinkhorn(np.array([[7.3]]), 2.0, np.array([1.0]),
                              np.array([1.0]))
    assert np.allclose(plan.values, [[1.0]], atol=1e-12)


def test_reference_sinkhorn_zero_cost_is_product_measure():
    a = mswe.uniform_marginal(2)
    b = mswe.uniform_marginal(3)
    plan = reference_sinkhorn(np.zeros((2, 3)), 1.0, a, b)
    assert np.allclose(plan.values, 1.0 / 6.0, atol=1e-12)


def test_reference_sinkhorn_exact_marginals_after_rounding():
    rng = np.random.default_rng(0)
    M = rng.uniform(size=(4, 5))
    a, b = mswe.uniform_marginal(4), mswe.uniform_marginal(5)
    plan = reference_sinkhorn(M, 5.0, a, b)
    assert plan.converged
    assert np.abs(plan.values.sum(axis=1) - a).max() < 1e-12
    assert np.abs(plan.values.sum(axis=0) - b).max() < 1e-12


def test_oracle_logsumexp_matches_scipy_bit_for_bit():
    from scipy.special import logsumexp
    rng = np.random.default_rng(3)
    inputs = [rng.normal(scale=scale, size=(4, 5))
              for scale in (1e-3, 1.0, 1e3)]
    tied = rng.normal(size=(3, 4))
    tied[1] = tied[0, 0]
    inputs.append(tied)
    edge = rng.normal(size=(3, 3))
    edge[0] = -np.inf
    edge[1, 2] = np.inf
    edge[2, 0] = np.nan
    inputs.append(edge)
    for x in inputs:
        for axis in (0, 1):
            with np.errstate(all="ignore"):
                want = logsumexp(x, axis=axis)
            got = oracles._logsumexp(x, axis=axis)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_reference_sinkhorn_validation():
    with pytest.raises(ShapeError):
        reference_sinkhorn(np.zeros((2, 2)), 1.0, np.array([1.0]),
                           np.array([0.5, 0.5]))
    with pytest.raises(NumericsError):
        reference_sinkhorn(np.zeros((2, 2)), 0.0, np.full(2, 0.5),
                           np.full(2, 0.5))


# ---------------------------------------------------------------------------
# enumeration oracle
# ---------------------------------------------------------------------------

def test_enumeration_zero_cost():
    assert exact_ot_by_enumeration(np.zeros((3, 3))) == 0.0


def test_enumeration_antidiagonal_picks_identity():
    assert exact_ot_by_enumeration(np.array([[0.0, 1.0], [1.0, 0.0]])) == 0.0


def test_enumeration_matches_in_test_permutation_scan():
    rng = np.random.default_rng(3)
    M = rng.uniform(size=(4, 4))
    best = min(sum(M[u, perm[u]] for u in range(4)) / 4.0
               for perm in itertools.permutations(range(4)))
    assert exact_ot_by_enumeration(M) == best


def test_enumeration_size_and_shape_limits():
    with pytest.raises(SizeError):
        exact_ot_by_enumeration(np.zeros((7, 7)))
    with pytest.raises(ShapeError):
        exact_ot_by_enumeration(np.zeros((2, 3)))


@pytest.mark.filterwarnings("ignore:sinkhorn did not converge:RuntimeWarning")
def test_enumeration_lower_bounds_feasible_plans():
    rng = np.random.default_rng(4)
    M = rng.uniform(size=(4, 4))
    floor = exact_ot_by_enumeration(M)
    plans = mswe.sinkhorn_grid(M, (0.5, 5.0, 100.0), max_iter=2000, tol=1e-9)
    for plan in plans:
        assert float((plan.values * M).sum()) >= floor - 1e-9


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_make_report_pass_fail_logic():
    good = make_report("close", np.array([1.0, 2.0]), np.array([1.0, 2.0 + 1e-9]),
                       tolerance=1e-8)
    bad = make_report("far", np.array([1.0]), np.array([2.0]), tolerance=1e-8)
    assert good.passed and not bad.passed
    assert bad.max_abs_error == 1.0


def test_write_reports_csv(tmp_path):
    reports = [make_report("a", np.array([0.5]), np.array([0.5]), 1e-9),
               make_report("b", np.array([1.0]), np.array([1.5]), 1e-2)]
    path = tmp_path / "reports.csv"
    write_reports(path, reports)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3  # header + 2 rows
    assert lines[1].startswith("a,") and ",True" in lines[1]
    assert lines[2].startswith("b,") and ",False" in lines[2]
