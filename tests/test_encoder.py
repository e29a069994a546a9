"""Graph-convolution encoders and the momentum coupling between them."""

import numpy as np
import pytest

from graphdict import tensor as T
from graphdict.data import normalize_adjacency
from graphdict.encoder import (DEFAULT_HIDDEN_DIMS, EncoderParams, encode,
                               momentum_update)
from graphdict.errors import ConfigError, ShapeError
from conftest import path_adjacency


def small_params(in_dim=3, dims=(6, 5, 4), seed=0):
    return EncoderParams.initialize(in_dim, np.random.default_rng(seed),
                                    hidden_dims=dims)


def test_default_layer_dims():
    params = EncoderParams.initialize(7, np.random.default_rng(0))
    assert DEFAULT_HIDDEN_DIMS == (256, 128, 32)
    assert [w.values.shape for w in params.weights] == [
        (7, 256), (256, 128), (128, 32)]
    assert all(w.requires_grad for w in params.weights)


def test_zero_weights_give_zero_features():
    params = small_params()
    for w in params.weights:
        w.values[:] = 0.0
    a_hat = normalize_adjacency(path_adjacency(4))
    x = np.eye(4)[:, :3]
    out = encode(x, a_hat, params)
    assert out.values.shape == (4, 4)
    assert not out.values.any()


def test_single_node_aggregation_is_identity():
    params = small_params()
    x = np.array([[0.3, -0.2, 0.9]])
    out = encode(x, np.array([[1.0]]), params)
    manual = x
    for w in params.weights:
        manual = np.maximum(manual @ w.values, 0.0)
    assert np.allclose(out.values, manual, atol=1e-14)


def test_outputs_nonnegative():
    params = small_params(seed=3)
    a_hat = normalize_adjacency(path_adjacency(5))
    rng = np.random.default_rng(1)
    out = encode(rng.uniform(size=(5, 3)), a_hat, params)
    assert (out.values >= 0).all()


def test_permutation_equivariance():
    rng = np.random.default_rng(5)
    params = small_params(seed=11)
    raw = (rng.uniform(size=(6, 6)) < 0.5).astype(float)
    adjacency = np.triu(raw, 1) + np.triu(raw, 1).T
    x = rng.uniform(size=(6, 3))
    perm = rng.permutation(6)
    p_matrix = np.eye(6)[perm]
    plain = encode(x, normalize_adjacency(adjacency), params).values
    permuted = encode(x[perm],
                      normalize_adjacency(p_matrix @ adjacency @ p_matrix.T),
                      params).values
    assert np.allclose(permuted, plain[perm], atol=1e-12)


def test_encode_shape_mismatch_raises():
    params = small_params()
    with pytest.raises(ShapeError):
        encode(np.ones((4, 5)), normalize_adjacency(path_adjacency(4)), params)
    with pytest.raises(ShapeError):
        encode(np.ones((3, 3)), normalize_adjacency(path_adjacency(4)), params)


def test_encoder_weight_gradient_matches_fd():
    params = small_params(seed=2)
    a_hat = normalize_adjacency(path_adjacency(4))
    x = np.random.default_rng(4).uniform(size=(4, 3))

    def closure():
        out = encode(x, a_hat, params)
        return T.sum_all(T.multiply(out, out))

    worst = T.grad_check(closure, [params.weights[0]], epsilon=1e-5)
    assert worst <= 1e-5


def test_dictionary_branch_receives_no_gradients():
    # seed chosen so the stacked ReLUs do not zero the whole output
    trainable = small_params(seed=3)
    frozen = trainable.copy_as_momentum_branch()
    assert all(not w.requires_grad for w in frozen.weights)
    a_hat = normalize_adjacency(path_adjacency(4))
    x = T.Tensor(np.random.default_rng(4).uniform(size=(4, 3)),
                 requires_grad=True)
    with T.Tape() as tape:
        out = encode(x, a_hat, frozen)
        tape.backward(T.sum_all(out))
    assert x.grad.any()  # the path through features stays differentiable
    assert all(w.grad is None for w in frozen.weights)


def test_momentum_update_exact_formula():
    target = small_params(seed=2).copy_as_momentum_branch()
    source = small_params(seed=3)
    target.weights[0].values[:] = 1.0
    source.weights[0].values[:] = 0.0
    before_rest = [w.values.copy() for w in target.weights[1:]]
    source_rest = [w.values.copy() for w in source.weights[1:]]
    momentum_update(target, source, 0.999)
    assert np.allclose(target.weights[0].values, 0.999, atol=1e-15)
    for updated, old, src in zip(target.weights[1:], before_rest, source_rest):
        assert np.allclose(updated.values, 0.999 * old + 0.001 * src,
                           atol=1e-15)


def test_momentum_update_boundary_coefficients():
    target = small_params(seed=5).copy_as_momentum_branch()
    source = small_params(seed=6)
    frozen = [w.values.copy() for w in target.weights]
    momentum_update(target, source, 1.0)
    assert all(np.array_equal(w.values, old)
               for w, old in zip(target.weights, frozen))
    momentum_update(target, source, 0.0)
    assert all(np.array_equal(w.values, s.values)
               for w, s in zip(target.weights, source.weights))


def test_momentum_update_validation():
    target = small_params().copy_as_momentum_branch()
    source = small_params()
    with pytest.raises(ConfigError):
        momentum_update(target, source, -0.1)
    with pytest.raises(ConfigError):
        momentum_update(target, source, 1.1)
    mismatched = small_params(in_dim=4)
    with pytest.raises(ShapeError):
        momentum_update(target, mismatched, 0.5)


def test_initialization_is_seeded_and_bounded():
    first = small_params(seed=8)
    second = small_params(seed=8)
    third = small_params(seed=9)
    for a, b in zip(first.weights, second.weights):
        assert np.array_equal(a.values, b.values)
    assert any(not np.array_equal(a.values, c.values)
               for a, c in zip(first.weights, third.weights))
    for w in first.weights:
        fan_in, fan_out = w.values.shape
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.abs(w.values).max() <= bound
