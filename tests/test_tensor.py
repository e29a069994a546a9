"""Tensor engine: shapes, forward values, and reverse-mode gradients.

Every differentiable primitive is checked against central finite
differences on randomized shapes (100 seeds each); discrete or
deliberately surrogate backwards (straight-through) get analytic checks
instead.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphdict import tensor as T
from graphdict.errors import NumericsError, OracleError, ShapeError

FD_TOL = 1e-5


# ---------------------------------------------------------------------------
# construction and bookkeeping
# ---------------------------------------------------------------------------

def test_tensor_promotes_scalars_and_vectors_to_2d():
    assert T.Tensor(3.0).values.shape == (1, 1)
    assert T.Tensor(np.arange(4.0)).values.shape == (1, 4)
    assert T.Tensor(np.ones((2, 3))).values.shape == (2, 3)


def test_tensor_rejects_non_finite_values():
    with pytest.raises(NumericsError):
        T.Tensor(np.array([[np.nan]]))
    with pytest.raises(NumericsError):
        T.Tensor(np.array([[np.inf, 1.0]]))


def test_grad_allocated_only_when_requested():
    assert T.Tensor(1.0, requires_grad=True).grad is not None
    assert T.Tensor(1.0).grad is None


def test_item_requires_single_element():
    assert T.Tensor(5.0).item() == 5.0
    with pytest.raises(ShapeError):
        T.Tensor(np.ones((2, 2))).item()


def test_backward_root_must_be_scalar():
    x = T.Tensor(np.ones((2, 2)), requires_grad=True)
    with T.Tape() as tape:
        y = T.relu(x)
        with pytest.raises(ShapeError):
            tape.backward(y)


def test_backward_on_untracked_root_leaves_grads_zero():
    x = T.Tensor(np.ones((2, 2)), requires_grad=True)
    with T.Tape() as tape:
        pass
    root = T.Tensor(1.0)
    tape.backward(root)
    assert not x.grad.any()


def test_op_outputs_get_grad_buffers_only_when_backward_reaches_them():
    rng = np.random.default_rng(5)
    x = T.Tensor(rng.uniform(size=(4, 6)), requires_grad=True)
    plans = rng.uniform(size=(3, 2, 4, 3))
    with T.Tape() as tape:
        cost = T.scale(x, 1.0)
        unused = T.relu(x)
        h = T.plan_costs(cost, plans, offsets=[0, 1, 3, 6])
        assert cost.grad is None and unused.grad is None
        tape.backward(T.sum_all(h))
    assert unused.grad is None
    # plan_costs hands back a Fortran-ordered piece; the buffer is C-ordered
    assert cost.grad.flags.c_contiguous
    assert np.array_equal(cost.grad, x.grad)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_backward_rejects_non_finite_root_naming_the_op():
    x = T.Tensor(np.array([[1e200, 1.0]]), requires_grad=True)
    with T.Tape() as tape:
        square = T.multiply(x, x)  # op outputs are not scanned when built
        assert np.isinf(square.values[0, 0])
        y = T.sum_all(T.add_scalar(square, 1.0))
        with pytest.raises(NumericsError, match=r"root is non-finite "
                           r"\(first non-finite op output: multiply\)"):
            tape.backward(y)
    assert not x.grad.any()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_check_finite_names_the_op_under_a_tape_only():
    x = T.Tensor(np.array([[1e200]]), requires_grad=True)
    with T.Tape():
        out = T.scale(T.relu(x), 1e200)
        with pytest.raises(NumericsError,
                           match=r"out must be finite \(first non-finite op "
                                 r"output: scale\)"):
            T.check_finite("out", T.relu(x), out)
    with pytest.raises(NumericsError, match=r"out must be finite$"):
        T.check_finite("out", T.scale(x, 1e200))
    T.check_finite("out", x, T.relu(x))


def test_plan_costs_builds_one_padding_layout(monkeypatch):
    calls = []
    real = T.segment_index

    def counted(offsets):
        calls.append(1)
        return real(offsets)

    monkeypatch.setattr(T, "segment_index", counted)
    m = T.Tensor(np.random.default_rng(3).uniform(size=(4, 6)),
                 requires_grad=True)
    plans = np.random.default_rng(4).uniform(size=(3, 2, 4, 3))
    with T.Tape() as tape:
        h = T.plan_costs(m, plans, offsets=[0, 1, 3, 6])
        tape.backward(T.sum_all(h))
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# forward values on pinned examples
# ---------------------------------------------------------------------------

def test_relu_backward_blocks_negative_passes_positive():
    x = T.Tensor(np.array([[-1.0, 2.0]]), requires_grad=True)
    with T.Tape() as tape:
        y = T.sum_all(T.relu(x))
        tape.backward(y)
    assert np.array_equal(x.grad, [[0.0, 1.0]])


def test_row_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    x = T.Tensor(rng.normal(size=(5, 7)) * 10.0)
    s = T.row_softmax(x)
    assert np.abs(s.values.sum(axis=1) - 1.0).max() < 1e-12
    assert (s.values > 0).all()


def test_sigmoid_extreme_inputs_stable():
    x = T.Tensor(np.array([[-1000.0, 0.0, 1000.0]]))
    s = T.sigmoid(x).values
    assert s[0, 0] == 0.0 and s[0, 1] == 0.5 and s[0, 2] == 1.0


def test_cosine_matrix_pinned_values():
    unit_rows = T.Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    c = T.cosine_matrix(unit_rows, unit_rows).values
    assert np.abs(np.diag(c) - 1.0).max() < 1e-7
    assert abs(c[0, 1]) < 1e-12
    a = T.Tensor(np.array([[1.0, 1.0]]))
    b = T.Tensor(np.array([[1.0, 0.0]]))
    assert abs(T.cosine_matrix(a, b).values[0, 0] - 0.7071) < 1e-4


def test_cosine_matrix_zero_row_yields_zero_not_nan():
    a = T.Tensor(np.array([[0.0, 0.0], [1.0, 2.0]]))
    b = T.Tensor(np.array([[3.0, 4.0]]))
    c = T.cosine_matrix(a, b).values
    assert c[0, 0] == 0.0 and np.isfinite(c).all()


def test_pairwise_sqdist_pinned_value():
    a = T.Tensor(np.array([[0.0], [3.0]]))
    b = T.Tensor(np.array([[3.0]]))
    d = T.pairwise_sqdist(a, b).values
    assert np.allclose(d, [[9.0], [0.0]], atol=1e-12)
    assert (d >= 0).all()


def test_clamp_forward_and_pass_through_gradient():
    x = T.Tensor(np.array([[-2.0, 0.5, 3.0]]), requires_grad=True)
    with T.Tape() as tape:
        y = T.sum_all(T.clamp(x, 0.0, 1.0))
        tape.backward(y)
    assert np.array_equal(T.clamp(x, 0.0, 1.0).values, [[0.0, 0.5, 1.0]])
    assert np.array_equal(x.grad, [[0.0, 1.0, 0.0]])


# ---------------------------------------------------------------------------
# error taxonomy
# ---------------------------------------------------------------------------

def test_matmul_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3))))


def test_outer_broadcast_rejected():
    with pytest.raises(ShapeError):
        T.add(T.Tensor(np.ones((3, 1))), T.Tensor(np.ones((1, 4))))


def test_row_select_empty_mask_raises():
    x = T.Tensor(np.ones((3, 2)))
    with pytest.raises(ShapeError):
        T.row_select(x, np.zeros(3, dtype=bool))


def test_log_of_nonpositive_raises():
    with pytest.raises(NumericsError):
        T.log(T.Tensor(np.array([[0.0]])))
    with pytest.raises(NumericsError):
        T.log(T.Tensor(np.array([[-1.0]])))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_exp_overflow_raises():
    with pytest.raises(NumericsError):
        T.exp(T.Tensor(np.array([[1000.0]])))


# ---------------------------------------------------------------------------
# gradient structure
# ---------------------------------------------------------------------------

def test_gradient_accumulates_across_reuse():
    x = T.Tensor(np.array([[1.5, -2.0]]), requires_grad=True)
    with T.Tape() as tape:
        y = T.sum_all(T.add(x, x))
        tape.backward(y)
    via_reuse = x.grad.copy()
    x.zero_grad()
    with T.Tape() as tape:
        y = T.sum_all(T.scale(x, 2.0))
        tape.backward(y)
    assert np.array_equal(via_reuse, x.grad)
    assert np.array_equal(via_reuse, [[2.0, 2.0]])


def test_detach_blocks_gradient_exactly():
    x = T.Tensor(np.array([[2.0, 3.0]]), requires_grad=True)
    with T.Tape() as tape:
        y = T.sum_all(T.detach(x))
        tape.backward(y)
    assert not x.grad.any()
    # product with a detached copy: gradient treats the copy as constant
    x.zero_grad()
    with T.Tape() as tape:
        y = T.sum_all(T.multiply(x, T.detach(x)))
        tape.backward(y)
    assert np.array_equal(x.grad, x.values)


def test_straight_through_scale_surrogate_backward():
    rng = np.random.default_rng(1)
    x = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    z_tilde = T.Tensor(rng.uniform(0.2, 0.8, size=(3, 1)), requires_grad=True)
    weight = rng.normal(size=(3, 4))
    out = T.straight_through_scale(x, z_tilde)
    assert np.array_equal(out.values, x.values)  # hard forward: rows unchanged
    with T.Tape() as tape:
        y = T.sum_all(T.multiply(T.straight_through_scale(x, z_tilde),
                                 T.constant(weight)))
        tape.backward(y)
    assert np.allclose(x.grad, weight)  # pass-through to the rows
    expected = (weight * x.values).sum(axis=1, keepdims=True)
    assert np.allclose(z_tilde.grad, expected)  # row-dot into the surrogate


def test_plan_costs_gradient_is_the_plan_stack():
    rng = np.random.default_rng(2)
    m = T.Tensor(rng.uniform(size=(4, 3)), requires_grad=True)
    plans = rng.uniform(size=(2, 4, 3))
    with T.Tape() as tape:
        h = T.plan_costs(m, plans)
        assert h.values.shape == (1, 2)
        tape.backward(T.sum_all(h))
    assert np.allclose(m.grad, plans.sum(axis=0))


# ---------------------------------------------------------------------------
# gradient routing properties
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 9), m=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_row_select_routes_each_selected_rows_gradient_home(n, m, seed, data):
    mask = np.asarray(data.draw(st.lists(st.booleans(), min_size=n,
                                         max_size=n)))
    if not mask.any():
        mask[data.draw(st.integers(0, n - 1))] = True
    rng = np.random.default_rng(seed)
    a = _rand(rng, n, m)
    weight = _probe(rng, int(mask.sum()), m)
    closure = lambda: _weighted_sum(T.row_select(a, mask), weight)
    assert T.grad_check(closure, [a]) <= FD_TOL
    expected = np.zeros((n, m))
    expected[mask] = weight
    assert np.array_equal(a.grad, expected)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 9), m=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_straight_through_scale_routes_rows_and_row_dots(n, m, seed):
    rng = np.random.default_rng(seed)
    x = _rand(rng, n, m)
    z_tilde = T.Tensor(rng.uniform(0.01, 0.99, size=(n, 1)),
                       requires_grad=True)
    weight = _probe(rng, n, m)
    with T.Tape() as tape:
        out = T.straight_through_scale(x, z_tilde)
        tape.backward(_weighted_sum(out, weight))
    assert np.array_equal(out.values, x.values)
    assert np.array_equal(x.grad, weight)
    assert np.allclose(z_tilde.grad,
                       (weight * x.values).sum(axis=1, keepdims=True),
                       rtol=1e-12, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 6), m=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1),
       factors=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4))
def test_reused_tensor_gets_the_sum_of_its_paths_without_aliasing(
        n, m, seed, factors):
    """x feeds add_scalar twice; u also feeds scale ops recorded before the
    add that consumes u and w together.  add and add_scalar hand back their
    upstream gradient itself, so unless each tensor's first piece is
    copied, u, w and the add's output share one buffer and the later
    pieces into u leak into w."""
    rng = np.random.default_rng(seed)
    x = _rand(rng, n, m)
    weight = _probe(rng, n, m)
    with T.Tape() as tape:
        u = T.add_scalar(x, 1.0)
        w = T.add_scalar(x, -2.0)
        scaled = [T.scale(u, c) for c in factors]
        both = T.add(u, w)
        total = T.add(T.add_n(scaled), both)
        tape.backward(_weighted_sum(total, weight))
    # paths: x -> u -> scale(c) for every c, x -> u -> add, x -> w -> add
    expected = weight * (sum(factors) + 2.0)
    assert np.allclose(x.grad, expected, rtol=1e-12, atol=1e-12)
    assert np.array_equal(w.grad, weight)
    grads = [u.grad, w.grad, both.grad, total.grad]
    for i, first in enumerate(grads):
        for second in grads[i + 1:]:
            assert not np.shares_memory(first, second)


def test_tapes_are_thread_local():
    errors = []

    def worker(seed):
        try:
            rng = np.random.default_rng(seed)
            x = T.Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            for _ in range(50):
                x.zero_grad()
                with T.Tape() as tape:
                    y = T.sum_all(T.multiply(x, x))
                    tape.backward(y)
                if not np.allclose(x.grad, 2.0 * x.values):
                    raise AssertionError("wrong gradient under threading")
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(s,)) for s in (1, 2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors


# ---------------------------------------------------------------------------
# finite-difference sweep over every differentiable primitive
# ---------------------------------------------------------------------------

def _rand(rng, rows, cols, lo=-2.0, hi=2.0):
    return T.Tensor(rng.uniform(lo, hi, size=(rows, cols)), requires_grad=True)


def _probe(rng, *shape):
    """Upstream weights with magnitude in [0.5, 1.5]: keeps the relative-error
    denominator well above the finite-difference noise floor."""
    return rng.uniform(0.5, 1.5, size=shape) * rng.choice([-1.0, 1.0], size=shape)


def _weighted_sum(t, weight):
    return T.sum_all(T.multiply(t, T.constant(weight)))


def _build_case(name, rng):
    """Return (parameters, scalar closure) for one primitive draw."""
    n = int(rng.integers(1, 9))
    m = int(rng.integers(1, 9))
    k = int(rng.integers(1, 9))
    w = _probe(rng, n, m)

    if name == "matmul":
        a, b = _rand(rng, n, k), _rand(rng, k, m)
        return [a, b], lambda: _weighted_sum(T.matmul(a, b), w)
    if name == "add":
        a, b = _rand(rng, n, m), _rand(rng, n, m)
        return [a, b], lambda: _weighted_sum(T.add(a, b), w)
    if name == "add_row_broadcast":
        a, b = _rand(rng, n, m), _rand(rng, 1, m)
        return [a, b], lambda: _weighted_sum(T.add(a, b), w)
    if name == "add_n":
        parts = [_rand(rng, n, m) for _ in range(3)]
        return parts, lambda: _weighted_sum(T.add_n(parts), w)
    if name == "multiply":
        a, b = _rand(rng, n, m), _rand(rng, n, m)
        return [a, b], lambda: _weighted_sum(T.multiply(a, b), w)
    if name == "multiply_col_broadcast":
        a, b = _rand(rng, n, m), _rand(rng, n, 1)
        return [a, b], lambda: _weighted_sum(T.multiply(a, b), w)
    if name == "relu":
        a = _rand(rng, n, m)
        a.values[np.abs(a.values) < 0.1] += 0.2  # keep clear of the kink
        return [a], lambda: _weighted_sum(T.relu(a), w)
    if name == "sigmoid":
        a = _rand(rng, n, m)
        return [a], lambda: _weighted_sum(T.sigmoid(a), w)
    if name == "row_softmax":
        a = _rand(rng, n, m)
        return [a], lambda: _weighted_sum(T.row_softmax(a), w)
    if name == "sum_all":
        a = _rand(rng, n, m)
        return [a], lambda: T.sum_all(a)
    if name == "mean_all":
        a = _rand(rng, n, m)
        return [a], lambda: T.mean_all(a)
    if name == "concat_rows":
        a, b = _rand(rng, n, m), _rand(rng, k, m)
        wc = _probe(rng, n + k, m)
        return [a, b], lambda: _weighted_sum(T.concat_rows([a, b]), wc)
    if name == "concat_cols":
        a, b = _rand(rng, n, m), _rand(rng, n, k)
        wc = _probe(rng, n, m + k)
        return [a, b], lambda: _weighted_sum(T.concat_cols([a, b]), wc)
    if name == "row_select":
        a = _rand(rng, n, m)
        mask = rng.uniform(size=n) < 0.6
        if not mask.any():
            mask[int(rng.integers(0, n))] = True
        ws = _probe(rng, int(mask.sum()), m)
        return [a], lambda: _weighted_sum(T.row_select(a, mask), ws)
    if name == "scale":
        a = _rand(rng, n, m)
        return [a], lambda: _weighted_sum(T.scale(a, -1.7), w)
    if name == "neg":
        a = _rand(rng, n, m)
        return [a], lambda: _weighted_sum(T.neg(a), w)
    if name == "add_scalar":
        a = _rand(rng, n, m)
        return [a], lambda: _weighted_sum(T.add_scalar(a, 0.35), w)
    if name == "exp":
        a = _rand(rng, n, m, -1.5, 1.5)
        return [a], lambda: _weighted_sum(T.exp(a), w)
    if name == "log":
        a = _rand(rng, n, m, 0.2, 3.0)
        return [a], lambda: _weighted_sum(T.log(a), w)
    if name == "transpose":
        a = _rand(rng, n, m)
        wt = _probe(rng, m, n)
        return [a], lambda: _weighted_sum(T.transpose(a), wt)
    if name == "clamp":
        a = _rand(rng, n, m)
        a.values[np.abs(a.values - 1.0) < 0.1] += 0.2  # off the clamp edges
        a.values[np.abs(a.values + 1.0) < 0.1] += 0.2
        return [a], lambda: _weighted_sum(T.clamp(a, -1.0, 1.0), w)
    if name == "cosine_matrix":
        # feature dim >= 2 with mixed signs: a 1-D all-positive draw makes
        # cosine constant up to the eps guard, leaving nothing but FD noise
        kc = int(rng.integers(2, 9))
        a = T.Tensor(_probe(rng, n, kc), requires_grad=True)
        b = T.Tensor(_probe(rng, m, kc), requires_grad=True)
        wc = _probe(rng, n, m)
        return [a, b], lambda: _weighted_sum(T.cosine_matrix(a, b), wc)
    if name == "pairwise_sqdist":
        a, b = _rand(rng, n, k), _rand(rng, m, k)
        wc = _probe(rng, n, m)
        return [a, b], lambda: _weighted_sum(T.pairwise_sqdist(a, b), wc)
    if name == "binary_concrete":
        p = _rand(rng, n, 1, 0.1, 0.9)
        noise = rng.uniform(0.1, 0.9, size=(n, 1))
        ws = _probe(rng, n, 1)
        return [p], lambda: _weighted_sum(
            T.binary_concrete(p, noise, temperature=1.0), ws)
    if name == "bernoulli_kl_sum":
        p = _rand(rng, n, 1, 0.1, 0.9)
        return [p], lambda: T.bernoulli_kl_sum(p, 0.5)
    if name == "plan_costs":
        a = _rand(rng, n, m)
        plans = rng.uniform(0.1, 1.0, size=(k, n, m))
        ws = _probe(rng, 1, k)
        return [a], lambda: _weighted_sum(T.plan_costs(a, plans), ws)
    raise AssertionError(f"unknown case {name}")


PRIMITIVES = [
    "matmul", "add", "add_row_broadcast", "add_n", "multiply",
    "multiply_col_broadcast", "relu", "sigmoid", "row_softmax", "sum_all",
    "mean_all", "concat_rows", "concat_cols", "row_select", "scale", "neg",
    "add_scalar", "exp", "log", "transpose", "clamp", "cosine_matrix",
    "pairwise_sqdist", "binary_concrete", "bernoulli_kl_sum", "plan_costs",
]


@pytest.mark.parametrize("name", PRIMITIVES)
def test_primitive_gradients_match_finite_differences(name):
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        params, closure = _build_case(name, rng)
        worst = max(worst, T.grad_check(closure, params, epsilon=1e-5))
    assert worst <= FD_TOL, f"{name}: worst relative error {worst:.3e}"


def test_matmul_gradient_pinned_shape_tight_tolerance():
    rng = np.random.default_rng(0)
    a = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = T.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    w = rng.normal(size=(3, 2))
    worst = T.grad_check(lambda: _weighted_sum(T.matmul(a, b), w), [a, b],
                         epsilon=1e-5)
    assert worst <= 1e-6


def test_grad_check_quadratic_and_constant_closures():
    x = T.Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    worst = T.grad_check(lambda: T.sum_all(T.multiply(x, x)), [x])
    assert worst <= 1e-8
    x.zero_grad()
    with T.Tape() as tape:
        y = T.sum_all(T.multiply(x, x))
        tape.backward(y)
    assert np.allclose(x.grad, [[2.0, 4.0]])
    c = T.Tensor(np.array([[4.0]]), requires_grad=True)
    assert T.grad_check(lambda: T.constant(1.5), [c]) == 0.0


def test_grad_check_detects_non_determinism():
    x = T.Tensor(np.array([[1.0]]), requires_grad=True)
    state = {"n": 0.0}

    def noisy():
        state["n"] += 1.0
        return T.add_scalar(x, state["n"])

    with pytest.raises(OracleError):
        T.grad_check(noisy, [x])
