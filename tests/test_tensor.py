"""Tensor engine: shapes, forward values, and reverse-mode gradients.

Every differentiable primitive is checked against central finite
differences on randomized shapes (100 seeds each); discrete or
deliberately surrogate backwards (straight-through) get analytic checks
instead.
"""

import inspect
import re
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphdict import mswe, tensor as T, vgda
from graphdict.errors import (NumericsError, OracleError, ShapeError,
                              TapeError)
from conftest import build_tiny_model

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


@pytest.mark.parametrize("values", [
    "ab", b"ab", [[1, "x"]], [[1.0], [2.0, 3.0]], np.array([[1j, 1.0]]),
    [object()]])
def test_tensor_rejects_values_that_are_not_real_numbers(values):
    # complex values are refused, not cut to their real part
    with pytest.raises(NumericsError,
                       match="tensor values must be real numbers"):
        T.Tensor(values)


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
        y = T.scale(x, 2.0)
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
    plans = rng.uniform(size=(2, 4, 6))
    with T.Tape() as tape:
        cost = T.scale(x, 1.0)
        unused = T.scale(x, 2.0)
        h = T.plan_costs(cost, plans, offsets=[0, 1, 3, 6])
        assert cost.grad is None and unused.grad is None
        tape.backward(T.sum_all(h))
    assert unused.grad is None
    # the first piece that reaches a tensor is copied into a C-ordered buffer
    assert cost.grad.flags.c_contiguous
    assert np.array_equal(cost.grad, x.grad)


def test_backward_consumes_the_tape_and_frees_op_outputs():
    """Backward pops every node, so an op output the caller does not hold
    is freed by the time backward returns."""
    rng = np.random.default_rng(4)
    x = T.Tensor(rng.normal(size=(6, 5)), requires_grad=True)
    w = T.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    with T.Tape() as tape:
        hidden = T.linear_relu(x, w)
        freed = weakref.ref(hidden.values)
        loss = T.sum_all(T.multiply(hidden, hidden))
        del hidden
        assert freed() is not None and len(tape.nodes) == 3
        tape.backward(loss)
    assert tape.nodes == []
    assert freed() is None
    assert x.grad.any() and w.grad.any()


def test_a_consumed_tape_refuses_a_second_backward():
    """A second pass would find the intermediate gradients gone (or, on a
    tape that kept them, add them again)."""
    x = T.Tensor(np.ones((1, 1)), requires_grad=True)
    with T.Tape() as tape:
        y = T.sum_all(T.scale(x, 2.0))
        tape.backward(y)
        with pytest.raises(TapeError, match="already consumed"):
            tape.backward(y)
    assert np.array_equal(x.grad, [[2.0]])
    with T.Tape() as tape:  # a root off the tape consumes it too
        pass
    tape.backward(T.Tensor(1.0))
    with pytest.raises(TapeError):
        tape.backward(T.Tensor(1.0))


@pytest.mark.parametrize("plans", [[[["x"]]], "ab", np.array([[[1j]]]),
                                   [object()]])
def test_plan_costs_rejects_plans_that_are_not_real_numbers(plans):
    with pytest.raises(NumericsError,
                       match="plan_costs: plans must be real numbers"):
        T.plan_costs(T.Tensor(np.ones((1, 1))), plans)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_backward_rejects_non_finite_root_naming_the_op():
    x = T.Tensor(np.array([[1e200, 1.0]]), requires_grad=True)
    with T.Tape() as tape:
        square = T.multiply(x, x)  # op outputs are not scanned when built
        assert np.isinf(square.values[0, 0])
        y = T.sum_all(T.add(square, x))
        with pytest.raises(NumericsError, match=r"root is non-finite "
                           r"\(first non-finite op output: multiply\)"):
            tape.backward(y)
    assert not x.grad.any()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_check_finite_names_the_op_under_a_tape_only():
    x = T.Tensor(np.array([[1e200]]), requires_grad=True)
    with T.Tape():
        out = T.scale(T.clamp(x, 0.0), 1e200)
        with pytest.raises(NumericsError,
                           match=r"out must be finite \(first non-finite op "
                                 r"output: scale\)"):
            T.check_finite("out", T.clamp(x, 0.0), out)
    with pytest.raises(NumericsError, match=r"out must be finite$"):
        T.check_finite("out", T.scale(x, 1e200))
    T.check_finite("out", x, T.clamp(x, 0.0))


# ---------------------------------------------------------------------------
# forward values on pinned examples
# ---------------------------------------------------------------------------

def test_linear_relu_backward_blocks_negative_passes_positive():
    x = T.Tensor(np.array([[-1.0, 2.0]]), requires_grad=True)
    eye = T.Tensor(np.eye(2), requires_grad=True)
    with T.Tape() as tape:
        y = T.sum_all(T.linear_relu(x, eye))
        tape.backward(y)
    assert np.array_equal(x.grad, [[0.0, 1.0]])
    assert np.array_equal(eye.grad, [[0.0, -1.0], [0.0, 2.0]])


def test_linear_relu_equals_relu_of_the_product_nan_included():
    """The fused op's value is relu(a @ w), and its backward mask, read
    off that value, is the pre-activation's: a NaN product passes NaN on
    and takes no gradient, as relu(a @ w) recorded as two ops would."""
    rng = np.random.default_rng(3)
    a = T.Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    w = T.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    a.values[2, 1] = np.nan  # op inputs are not scanned
    product = a.values @ w.values
    g = rng.normal(size=(5, 3))
    with T.Tape() as tape:
        out = T.linear_relu(a, w)
    assert np.array_equal(out.values, np.maximum(product, 0.0),
                          equal_nan=True)
    masked = g * (product > 0.0)
    ga, gw = tape.nodes[-1][2](g)
    assert np.array_equal(ga, masked @ w.values.T)
    assert np.array_equal(gw, a.values.T @ masked, equal_nan=True)
    with pytest.raises(ShapeError, match="linear_relu: inner dimensions"):
        T.linear_relu(a, a)


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


def test_unit_rows_pinned_values():
    u = T.unit_rows(T.Tensor(np.array([[3.0, -4.0], [0.0, 2.0]]))).values
    assert np.abs(u - [[0.6, -0.8], [0.0, 1.0]]).max() < 1e-8
    assert np.abs(np.linalg.norm(u, axis=1) - 1.0).max() < 1e-8
    # rows scored against each other give their cosine
    a = T.unit_rows(T.Tensor(np.array([[1.0, 1.0]]))).values
    b = T.unit_rows(T.Tensor(np.array([[1.0, 0.0]]))).values
    assert abs((a @ b.T)[0, 0] - 0.7071) < 1e-4


def test_unit_rows_zero_row_yields_zeros_and_a_finite_gradient():
    x = T.Tensor(np.array([[0.0, 0.0], [1.0, 2.0]]), requires_grad=True)
    with T.Tape() as tape:
        u = T.unit_rows(x)
        tape.backward(_weighted_sum(u, np.array([[1.0, -2.0],
                                                 [0.5, 1.0]])))
    assert np.array_equal(u.values[0], [0.0, 0.0])
    assert np.isfinite(x.grad).all()
    # at the origin only the 1 / eps scaling of the upstream gradient is left
    assert np.array_equal(x.grad[0], np.array([1.0, -2.0]) / T.COSINE_EPS)


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


@pytest.mark.parametrize("op", [T.add, T.multiply])
@pytest.mark.parametrize("shape", [(1, 4), (3, 1), (4, 3)])
def test_elementwise_ops_reject_any_other_shape(op, shape):
    with pytest.raises(ShapeError, match="shapes differ"):
        op(T.Tensor(np.ones((3, 4))), T.Tensor(np.ones(shape)))


def _offset_consumers():
    """Each caller of as_offsets, applied to a layout over 4 rows or
    columns."""
    return {
        "plan_costs": lambda o: T.plan_costs(
            T.Tensor(np.ones((2, 4))), np.ones((1, 2, 4)), o),
        "sinkhorn_keys": lambda o: mswe.sinkhorn_keys(np.ones((2, 4)), [1.0],
                                                      offsets=o),
        "segment_matvec": lambda o: T.segment_matvec(
            T.Tensor(np.ones((2, 4))), T.Tensor(np.ones((4, 1))), o),
        "sample_factor": lambda o: vgda.sample_factor(
            T.Tensor(np.full((4, 1), 0.3)), vgda.EVAL, offsets=o),
        "select_substructure": lambda o: vgda.select_substructure(
            T.Tensor(np.ones((4, 2))), np.ones(4, dtype=bool), offsets=o),
    }


@pytest.mark.parametrize("consumer", sorted(_offset_consumers()))
@pytest.mark.parametrize("offsets", [[0, 3, 1, 4], [1, 4], [0, 0, 4],
                                     [0, 3, 2, 4], [0, 3], [0, 5], [0],
                                     [[0, 4]], [0, 2.5, 4]])
def test_every_offset_consumer_rejects_a_bad_layout(consumer, offsets):
    apply = _offset_consumers()[consumer]
    apply([0, 1, 4])  # a good layout passes
    listed = re.escape(str(np.asarray(offsets).tolist()))
    if np.asarray(offsets).dtype.kind == "f":
        message = rf"segment offsets {listed} must be integers"
    else:
        message = (rf"segment offsets {listed} leave an empty side: they "
                   "must rise strictly from 0 to 4")
    with pytest.raises(ShapeError, match=message):
        apply(offsets)


def test_row_select_empty_mask_raises():
    x = T.Tensor(np.ones((3, 2)))
    with pytest.raises(ShapeError):
        T.row_select(x, np.zeros(3, dtype=bool))


@pytest.mark.parametrize("temperature", [0.0, -1.0, np.nan, np.inf])
def test_binary_concrete_needs_a_finite_positive_temperature(temperature):
    with pytest.raises(NumericsError, match="temperature must be finite and "
                       rf"> 0, got {temperature}"):
        T.binary_concrete(T.Tensor([[0.3], [0.6]]), np.full((2, 1), 0.5),
                          temperature)


def test_binary_concrete_needs_a_real_temperature():
    with pytest.raises(NumericsError, match=re.escape(
            "binary_concrete: temperature must be a real number, got '1'")):
        T.binary_concrete(T.Tensor([[0.3], [0.6]]), np.full((2, 1), 0.5), "1")


@pytest.mark.parametrize("noise", ["ab", np.full((2, 1), 0.5 + 0.1j)])
def test_binary_concrete_noise_must_hold_real_numbers(noise):
    with pytest.raises(NumericsError, match="binary_concrete: noise must "
                       "hold real numbers"):
        T.binary_concrete(T.Tensor([[0.3], [0.6]]), noise, 1.0)


def test_log_of_nonpositive_raises():
    with pytest.raises(NumericsError):
        T.log(T.Tensor(np.array([[0.0]])))
    with pytest.raises(NumericsError):
        T.log(T.Tensor(np.array([[-1.0]])))


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


def test_matmul_backward_skips_untracked_operands():
    rng = np.random.default_rng(2)
    x, w = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    g = rng.normal(size=(3, 2))
    for a, b, want in [
            (T.constant(x), T.Tensor(w, requires_grad=True), (None, x.T @ g)),
            (T.Tensor(x, requires_grad=True), T.constant(w), (g @ w.T, None))]:
        with T.Tape() as tape:
            T.matmul(a, b)
        pieces = tape.nodes[-1][2](g)
        assert [p is None for p in pieces] == [p is None for p in want]
        for got, expected in zip(pieces, want):
            if expected is not None:
                assert np.allclose(got, expected, atol=1e-12)


def test_row_select_surrogate_backward():
    rng = np.random.default_rng(1)
    x = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    z_tilde = T.Tensor(rng.uniform(0.2, 0.8, size=(3, 1)), requires_grad=True)
    mask = np.array([True, False, True])
    weight = rng.normal(size=(2, 4))
    out = T.row_select(x, mask, z_tilde)
    assert np.array_equal(out.values, x.values[mask])  # hard forward
    with T.Tape() as tape:
        y = T.sum_all(T.multiply(T.row_select(x, mask, z_tilde),
                                 T.constant(weight)))
        tape.backward(y)
    assert np.allclose(x.grad[mask], weight)  # pass-through to kept rows
    assert np.array_equal(x.grad[~mask], np.zeros((1, 4)))
    expected = np.zeros((3, 1))
    expected[mask, 0] = (weight * x.values[mask]).sum(axis=1)
    assert np.allclose(z_tilde.grad, expected)  # row-dot into the surrogate


@pytest.mark.parametrize("shape", [(2, 1), (3, 2), (1, 3)])
def test_row_select_surrogate_must_be_a_column_per_row(shape):
    x = T.Tensor(np.ones((3, 2)))
    with pytest.raises(ShapeError, match="surrogate"):
        T.row_select(x, np.ones(3, dtype=bool), T.Tensor(np.ones(shape)))


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
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_row_select_surrogate_routes_rows_and_row_dots(n, m, seed, data):
    mask = np.asarray(data.draw(st.lists(st.booleans(), min_size=n,
                                         max_size=n)))
    if not mask.any():
        mask[data.draw(st.integers(0, n - 1))] = True
    rng = np.random.default_rng(seed)
    x = _rand(rng, n, m)
    z_tilde = T.Tensor(rng.uniform(0.01, 0.99, size=(n, 1)),
                       requires_grad=True)
    weight = _probe(rng, int(mask.sum()), m)
    with T.Tape() as tape:
        out = T.row_select(x, mask, z_tilde)
        tape.backward(_weighted_sum(out, weight))
    # a straight-through gradient is not the true one (finite differences
    # read 0 for the surrogate), so it is checked against its formula
    assert np.array_equal(out.values, x.values[mask])
    expected = np.zeros((n, m))
    expected[mask] = weight
    assert np.array_equal(x.grad, expected)
    dots = np.zeros((n, 1))
    dots[mask, 0] = (weight * x.values[mask]).sum(axis=1)
    assert np.allclose(z_tilde.grad, dots, rtol=1e-12, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 9), m=st.integers(1, 6), columns=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_row_select_column_surrogate_routes_row_dots_to_its_column(
        n, m, columns, seed, data):
    mask = np.asarray(data.draw(st.lists(st.booleans(), min_size=n,
                                         max_size=n)))
    if not mask.any():
        mask[data.draw(st.integers(0, n - 1))] = True
    column = data.draw(st.integers(0, columns - 1))
    rng = np.random.default_rng(seed)
    x = _rand(rng, n, m)
    z_tilde = T.Tensor(rng.uniform(0.01, 0.99, size=(n, columns)),
                       requires_grad=True)
    weight = _probe(rng, int(mask.sum()), m)
    with T.Tape() as tape:
        out = T.row_select(x, mask, z_tilde, column)
        tape.backward(_weighted_sum(out, weight))
    assert np.array_equal(out.values, x.values[mask])
    expected = np.zeros((n, m))
    expected[mask] = weight
    assert np.array_equal(x.grad, expected)
    dots = np.zeros((n, columns))
    dots[mask, column] = (weight * x.values[mask]).sum(axis=1)
    assert np.allclose(z_tilde.grad, dots, rtol=1e-12, atol=1e-12)
    assert not np.delete(z_tilde.grad, column, axis=1).any()


@pytest.mark.parametrize("shape, column", [((3, 2), 2), ((3, 2), -1),
                                           ((2, 2), 0)])
def test_row_select_surrogate_column_must_exist(shape, column):
    x = T.Tensor(np.ones((3, 2)))
    with pytest.raises(ShapeError, match="surrogate"):
        T.row_select(x, np.ones(3, dtype=bool), T.Tensor(np.ones(shape)),
                     column)


def test_segment_matvec_applies_each_segment_its_leading_weights():
    rng = np.random.default_rng(4)
    offsets = np.array([0, 3, 4, 9])
    a = T.Tensor(rng.normal(size=(5, 9)), requires_grad=True)
    w = T.Tensor(rng.normal(size=(7, 1)), requires_grad=True)
    with T.Tape() as tape:
        out = T.segment_matvec(a, w, offsets)
        tape.backward(T.sum_all(out))
    want = np.hstack([a.values[:, lo:hi] @ w.values[:hi - lo]
                      for lo, hi in zip(offsets[:-1], offsets[1:])])
    assert np.allclose(out.values, want, rtol=1e-14, atol=1e-14)
    assert not w.grad[5:].any()  # past the widest segment
    with pytest.raises(ShapeError, match="segment of 5 columns exceeds "
                       "the 4 weights"):
        T.segment_matvec(a, T.Tensor(np.ones((4, 1))), offsets)
    with pytest.raises(ShapeError):
        T.segment_matvec(a, T.Tensor(np.ones((7, 2))), offsets)
    with pytest.raises(ShapeError):
        T.segment_matvec(a, w, np.array([0, 3, 8]))


@pytest.mark.parametrize("p_hat, message", [
    (1.0, "must lie in (0, 1), got 1.0"),
    ("0.5", "must be a real number, got '0.5'"),
    (True, "must be a real number, got True")])
def test_bernoulli_kl_sum_needs_a_real_target_in_the_open_interval(
        p_hat, message):
    with pytest.raises(NumericsError, match=re.escape(
            f"bernoulli_kl_sum: p_hat {message}")):
        T.bernoulli_kl_sum(T.Tensor([[0.5]]), p_hat)


def test_bernoulli_kl_sum_sums_each_column_as_it_would_alone():
    rng = np.random.default_rng(9)
    p = rng.uniform(0.01, 0.99, size=(250, 6))
    total = T.bernoulli_kl_sum(T.Tensor(p), 0.3).values
    assert total.shape == (6, 1)
    for g in range(6):
        alone = T.bernoulli_kl_sum(T.Tensor(p[:, g:g + 1]), 0.3).values
        assert total[g].tobytes() == alone[0].tobytes()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 6), m=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1),
       factors=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4))
def test_reused_tensor_gets_the_sum_of_its_paths_without_aliasing(
        n, m, seed, factors):
    """x feeds two straight-through selections; u also feeds scale ops
    recorded before the add that consumes u and w together, and concat_rows
    stacks the scaled copies with the sum.  concat_rows hands back views of
    its upstream gradient, and add hands back the gradient itself, so
    unless each tensor's first piece is copied, u, w, the add's output and
    the stack share one buffer and the later pieces into u leak into w."""
    rng = np.random.default_rng(seed)
    x = _rand(rng, n, m)
    z = T.Tensor(rng.uniform(0.1, 0.9, size=(n, 1)), requires_grad=True)
    mask = rng.uniform(size=n) < 0.7
    mask[rng.integers(n)] = True
    kept = int(mask.sum())
    weight = _probe(rng, (len(factors) + 1) * kept, m)
    blocks = np.split(weight, len(factors) + 1)
    with T.Tape() as tape:
        u = T.row_select(x, mask, z)
        w = T.row_select(x, mask, z)
        scaled = [T.scale(u, c) for c in factors]
        both = T.add(u, w)
        total = T.concat_rows(scaled + [both])
        tape.backward(_weighted_sum(total, weight))
    # paths: x -> u -> scale(c) for every c, x -> u -> add, x -> w -> add
    want_u = sum(c * b for c, b in zip(factors, blocks)) + blocks[-1]
    assert np.allclose(u.grad, want_u, rtol=1e-12, atol=1e-12)
    want_x = np.zeros((n, m))
    want_x[mask] = want_u + blocks[-1]
    assert np.allclose(x.grad, want_x, rtol=1e-12, atol=1e-12)
    want_z = np.zeros((n, 1))
    want_z[mask, 0] = ((want_u + blocks[-1]) * x.values[mask]).sum(axis=1)
    assert np.allclose(z.grad, want_z, rtol=1e-12, atol=1e-12)
    assert np.array_equal(w.grad, blocks[-1])
    assert np.array_equal(both.grad, blocks[-1])
    grads = [x.grad, u.grad, w.grad, both.grad, total.grad]
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
    if name == "multiply":
        a, b = _rand(rng, n, m), _rand(rng, n, m)
        return [a, b], lambda: _weighted_sum(T.multiply(a, b), w)
    if name == "linear_relu":
        a, b = _rand(rng, n, k), _rand(rng, k, m)
        # products near the kink get no weight, so the probe is smooth
        wl = np.where(np.abs(a.values @ b.values) < 0.1, 0.0, w)
        return [a, b], lambda: _weighted_sum(T.linear_relu(a, b), wl)
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
    if name == "unit_rows":
        # rows of >= 2 mixed-sign entries away from zero: a 1-entry row's
        # unit row is constant up to the eps guard, leaving nothing but FD
        # noise
        kc = int(rng.integers(2, 9))
        a = T.Tensor(_probe(rng, n, kc), requires_grad=True)
        wc = _probe(rng, n, kc)
        return [a], lambda: _weighted_sum(T.unit_rows(a), wc)
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
    if name == "bernoulli_kl_sum_columns":
        p = _rand(rng, n, m, 0.1, 0.9)
        ws = _probe(rng, m, 1)
        return [p], lambda: _weighted_sum(T.bernoulli_kl_sum(p, 0.3), ws)
    if name == "row_select_column_surrogate":
        # the surrogate's straight-through gradient is not a true one, so
        # only the selected rows are probed (test_row_select_surrogate_*)
        a = _rand(rng, n, m)
        surrogate = T.Tensor(rng.uniform(0.01, 0.99, size=(n, k)),
                             requires_grad=True)
        column = int(rng.integers(0, k))
        mask = rng.uniform(size=n) < 0.6
        if not mask.any():
            mask[int(rng.integers(0, n))] = True
        ws = _probe(rng, int(mask.sum()), m)
        return [a], lambda: _weighted_sum(
            T.row_select(a, mask, surrogate, column), ws)
    if name == "segment_matvec":
        widths = rng.integers(1, 6, size=int(rng.integers(1, 5)))
        offsets = np.cumsum(np.concatenate(([0], widths)))
        a = _rand(rng, n, int(offsets[-1]))
        wv = _rand(rng, int(widths.max() + rng.integers(0, 3)), 1)
        ws = _probe(rng, n, widths.shape[0])
        return [a, wv], lambda: _weighted_sum(
            T.segment_matvec(a, wv, offsets), ws)
    if name == "block_matmul":
        # a stack of >= 2 blocks, each (n, k) times its own k rows of a
        count = int(rng.integers(2, 5))
        blocks = rng.uniform(-1.0, 1.0, size=(count, n, k))
        a = _rand(rng, count * k, m)
        wb = _probe(rng, count * n, m)
        return [a], lambda: _weighted_sum(T.block_matmul(blocks, a), wb)
    if name == "plan_costs":
        a = _rand(rng, n, m)
        plans = rng.uniform(0.1, 1.0, size=(k, n, m))
        ws = _probe(rng, 1, k)
        return [a], lambda: _weighted_sum(T.plan_costs(a, plans), ws)
    raise AssertionError(f"unknown case {name}")


PRIMITIVES = [
    "matmul", "add", "multiply", "linear_relu", "sigmoid", "row_softmax",
    "sum_all", "mean_all", "concat_rows", "row_select", "scale", "log",
    "transpose", "clamp", "unit_rows", "pairwise_sqdist",
    "binary_concrete", "bernoulli_kl_sum", "plan_costs",
    "bernoulli_kl_sum_columns", "row_select_column_surrogate",
    "segment_matvec", "block_matmul",
]


@pytest.mark.parametrize("name", PRIMITIVES)
def test_primitive_gradients_match_finite_differences(name):
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        params, closure = _build_case(name, rng)
        worst = max(worst, T.grad_check(closure, params, epsilon=1e-5))
    assert worst <= FD_TOL, f"{name}: worst relative error {worst:.3e}"


def test_every_recording_primitive_is_checked_and_used_by_training():
    """Each function of the tensor module that records a tape op has a
    finite-difference case, and one training step plus its loss records
    every one of them but sum_all, which only gradient probes use.  Each
    graph appears twice in the batch, so its node count is a group of two
    and propagates through block_matmul, as a training batch's groups do."""
    recording = {name for name, fn in inspect.getmembers(T, inspect.isfunction)
                 if fn.__module__ == T.__name__
                 and "_record" in fn.__code__.co_names}
    assert recording - set(PRIMITIVES) == set()
    model, prepared = build_tiny_model()
    with T.Tape() as tape:
        model.refresh_key_encodings()
        batch = prepared * 2
        result = model.forward(batch, vgda.TRAIN,
                               rng=np.random.default_rng(0))
        model.batch_loss(result, [g.label for g in batch])
    recorded = {fn.__qualname__.split(".")[0] for _, _, fn in tape.nodes}
    assert recording - recorded == {"sum_all"}


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
        return T.scale(x, state["n"])

    with pytest.raises(OracleError):
        T.grad_check(noisy, [x])


def test_node_count_groups_keep_first_appearance_order():
    assert T.node_count_groups([5, 3, 5, 7, 3, 5]) == [[0, 2, 5], [1, 4], [3]]
    assert T.node_count_groups(iter([4])) == [[0]]
    assert T.node_count_groups([]) == []


def test_block_matmul_is_the_block_diagonal_product():
    rng = np.random.default_rng(3)
    blocks = rng.normal(size=(3, 4, 2))
    a = T.Tensor(rng.normal(size=(6, 5)), requires_grad=True)
    dense = np.zeros((12, 6))
    for g in range(3):
        dense[4 * g:4 * g + 4, 2 * g:2 * g + 2] = blocks[g]
    weight = rng.normal(size=(12, 5))
    with T.Tape() as tape:
        out = T.block_matmul(blocks, a)
        tape.backward(_weighted_sum(out, weight))
    np.testing.assert_allclose(out.values, dense @ a.values, atol=1e-14)
    np.testing.assert_allclose(a.grad, dense.T @ weight, atol=1e-14)
    with pytest.raises(ShapeError, match="block_matmul"):
        T.block_matmul(blocks, T.Tensor(np.ones((5, 5))))
    with pytest.raises(ShapeError, match="block_matmul"):
        T.block_matmul(blocks[0], a)


@pytest.mark.parametrize("blocks", [
    "ab", np.ones((1, 2, 2)) * (1.0 + 1.0j)])
def test_block_matmul_blocks_must_hold_real_numbers(blocks):
    with pytest.raises(ShapeError, match="block_matmul: blocks must hold "
                       "real numbers"):
        T.block_matmul(blocks, T.Tensor(np.ones((2, 3))))
