"""Graph-convolution encoders and the momentum coupling between them."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphdict import tensor as T
from graphdict.data import normalize_adjacency
from graphdict.encoder import (DEFAULT_HIDDEN_DIMS, encode, init_weights,
                               momentum_update)
from graphdict.errors import ConfigError, ShapeError
from conftest import build_tiny_model, path_adjacency


def small_weights(in_dim=3, dims=(6, 5, 4), seed=0):
    return init_weights(in_dim, np.random.default_rng(seed), hidden_dims=dims)


def untracked_copy(weights):
    """A momentum-branch target: the same values, no gradients."""
    return [T.Tensor(w.values.copy()) for w in weights]


def test_default_layer_dims():
    weights = init_weights(7, np.random.default_rng(0))
    assert DEFAULT_HIDDEN_DIMS == (256, 128, 32)
    assert [w.values.shape for w in weights] == [
        (7, 256), (256, 128), (128, 32)]
    assert all(w.requires_grad for w in weights)


def test_zero_weights_give_zero_features():
    weights = small_weights()
    for w in weights:
        w.values[:] = 0.0
    a_hat = normalize_adjacency(path_adjacency(4))
    x = np.eye(4)[:, :3]
    [out] = encode([x], [a_hat], weights)
    assert out.values.shape == (4, 4)
    assert not out.values.any()


def test_single_node_aggregation_is_identity():
    weights = small_weights()
    x = np.array([[0.3, -0.2, 0.9]])
    [out] = encode([x], [np.array([[1.0]])], weights)
    manual = x
    for w in weights:
        manual = np.maximum(manual @ w.values, 0.0)
    assert np.allclose(out.values, manual, atol=1e-14)


def test_outputs_nonnegative():
    weights = small_weights(seed=3)
    a_hat = normalize_adjacency(path_adjacency(5))
    rng = np.random.default_rng(1)
    [out] = encode([rng.uniform(size=(5, 3))], [a_hat], weights)
    assert (out.values >= 0).all()


def test_permutation_equivariance():
    rng = np.random.default_rng(5)
    weights = small_weights(seed=11)
    raw = (rng.uniform(size=(6, 6)) < 0.5).astype(float)
    adjacency = np.triu(raw, 1) + np.triu(raw, 1).T
    x = rng.uniform(size=(6, 3))
    perm = rng.permutation(6)
    p_matrix = np.eye(6)[perm]
    plain = encode([x], [normalize_adjacency(adjacency)], weights)[0].values
    permuted = encode([x[perm]],
                      [normalize_adjacency(p_matrix @ adjacency @ p_matrix.T)],
                      weights)[0].values
    assert np.allclose(permuted, plain[perm], atol=1e-12)


def test_encode_shape_mismatch_raises():
    weights = small_weights()
    a_hat = normalize_adjacency(path_adjacency(4))
    with pytest.raises(ShapeError):
        encode([np.ones((4, 5))], [a_hat], weights)
    with pytest.raises(ShapeError):
        encode([np.ones((3, 3))], [a_hat], weights)
    # stacked rows are not a list of graphs, with one adjacency or a stack
    with pytest.raises(ShapeError):
        encode(np.ones((4, 3)), a_hat, weights)
    with pytest.raises(ShapeError):
        encode(np.ones((8, 3)), np.array([a_hat, a_hat]), weights)


def test_encode_rejects_an_adjacency_that_is_not_real_numbers():
    for a_hat in ("ab", np.eye(2) * 1j):
        with pytest.raises(ShapeError, match="encode: adjacency must hold "
                           "real numbers"):
            encode([np.ones((2, 5))], [a_hat], small_weights())


def _random_adjacency(n, rng):
    upper = np.triu(rng.uniform(size=(n, n)) < 0.5, 1).astype(float)
    return normalize_adjacency(upper + upper.T)


@settings(max_examples=100, deadline=None)
@given(sizes=st.lists(st.sampled_from([1, 2, 4, 5]), min_size=1, max_size=6),
       as_tensor=st.lists(st.booleans(), min_size=6, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_batch_encoding_matches_each_graph_alone(sizes, as_tensor, seed):
    # node counts drawn from four values repeat in any order
    rng = np.random.default_rng(seed)
    weights = small_weights(seed=seed % 7)
    a_hats = [_random_adjacency(n, rng) for n in sizes]
    features = [rng.uniform(size=(n, 3)) for n in sizes]
    features = [T.Tensor(x) if tensor else x
                for x, tensor in zip(features, as_tensor)]
    together = encode(features, a_hats, weights)
    assert len(together) == len(sizes)
    # features and adjacencies are nonnegative, so encoding through |W|
    # sums every product's magnitude: the scale each entry's rounding
    # error is relative to, also where its terms cancel to a small value
    magnitudes = [T.Tensor(np.abs(w.values)) for w in weights]
    for x, a_hat, out in zip(features, a_hats, together):
        alone = encode([x], [a_hat], weights)[0].values
        scale = encode([x], [a_hat], magnitudes)[0].values
        # same-size graphs share one weight matmul, which BLAS may round
        # an ulp apart from a graph's own
        assert (np.abs(out.values - alone) <= 1e-14 * scale).all()
    with pytest.raises(ShapeError, match="feature matrices for"):
        encode(features, a_hats[:-1], weights)


def test_encoder_weight_gradient_matches_fd():
    weights = small_weights(seed=2)
    a_hat = normalize_adjacency(path_adjacency(4))
    x = np.random.default_rng(4).uniform(size=(4, 3))

    def closure():
        [out] = encode([x], [a_hat], weights)
        return T.sum_all(T.multiply(out, out))

    worst = T.grad_check(closure, [weights[0]], epsilon=1e-5)
    assert worst <= 1e-5


def test_dictionary_branch_receives_no_gradients():
    # build's momentum branch: the input branch's values in its own buffers
    model, _ = build_tiny_model()
    trainable, frozen = model.encoder_input, model.encoder_dict
    assert len(frozen) == len(trainable)
    for w, t in zip(frozen, trainable):
        assert np.array_equal(w.values, t.values)
        assert not np.shares_memory(w.values, t.values)
    assert all(not w.requires_grad for w in frozen)
    a_hat = normalize_adjacency(path_adjacency(4))
    x = T.Tensor(np.random.default_rng(4).uniform(size=(4, 2)),
                 requires_grad=True)
    with T.Tape() as tape:
        [out] = encode([x], [a_hat], frozen)
        tape.backward(T.sum_all(out))
    assert x.grad.any()  # the path through features stays differentiable
    assert all(w.grad is None for w in frozen)


def test_momentum_update_exact_formula():
    target = untracked_copy(small_weights(seed=2))
    source = small_weights(seed=3)
    target[0].values[:] = 1.0
    source[0].values[:] = 0.0
    before_rest = [w.values.copy() for w in target[1:]]
    source_rest = [w.values.copy() for w in source[1:]]
    momentum_update(target, source, 0.999)
    assert np.allclose(target[0].values, 0.999, atol=1e-15)
    for updated, old, src in zip(target[1:], before_rest, source_rest):
        assert np.allclose(updated.values, 0.999 * old + 0.001 * src,
                           atol=1e-15)


def test_momentum_update_boundary_coefficients():
    target = untracked_copy(small_weights(seed=5))
    source = small_weights(seed=6)
    frozen = [w.values.copy() for w in target]
    momentum_update(target, source, 1.0)
    assert all(np.array_equal(w.values, old)
               for w, old in zip(target, frozen))
    momentum_update(target, source, 0.0)
    assert all(np.array_equal(w.values, s.values)
               for w, s in zip(target, source))


def test_momentum_update_validation():
    target = untracked_copy(small_weights())
    source = small_weights()
    with pytest.raises(ConfigError):
        momentum_update(target, source, -0.1)
    with pytest.raises(ConfigError):
        momentum_update(target, source, 1.1)
    mismatched = small_weights(in_dim=4)
    with pytest.raises(ShapeError):
        momentum_update(target, mismatched, 0.5)


@pytest.mark.parametrize("m", [None, "0.5"])
def test_momentum_update_needs_a_real_coefficient(m):
    target = untracked_copy(small_weights())
    with pytest.raises(ConfigError, match=re.escape(
            f"momentum coefficient must be a real number, got {m!r}")):
        momentum_update(target, small_weights(), m)


def test_initialization_is_seeded_and_bounded():
    first = small_weights(seed=8)
    second = small_weights(seed=8)
    third = small_weights(seed=9)
    for a, b in zip(first, second):
        assert np.array_equal(a.values, b.values)
    assert any(not np.array_equal(a.values, c.values)
               for a, c in zip(first, third))
    for w in first:
        fan_in, fan_out = w.values.shape
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.abs(w.values).max() <= bound
