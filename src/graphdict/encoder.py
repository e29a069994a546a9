"""Three-layer graph-convolution encoders for inputs and dictionary keys.

Both branches share one architecture: F = ReLU(A·ReLU(A·ReLU(A·X·W1)·W2)·W3)
with A the normalized adjacency.  The input branch is trained by
backpropagation; the dictionary branch never receives gradients and instead
tracks the input branch as an exponential moving average (the momentum
update).  No bias terms are used.  :func:`encode` takes a batch as one
feature matrix and one adjacency per graph; graphs of one node count are
encoded together, A then being the block-diagonal matrix of their
adjacencies.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ShapeError, check_ranges, real_array, real_where

DEFAULT_HIDDEN_DIMS = (256, 128, 32)


def xavier_uniform(rng, fan_in, fan_out):
    """Uniform init in +-sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_weights(in_dim, rng, hidden_dims=DEFAULT_HIDDEN_DIMS):
    """One branch's trainable weights, Xavier-uniform, layer by layer."""
    dims = (in_dim, *hidden_dims)
    return [T.Tensor(xavier_uniform(rng, dims[i], dims[i + 1]),
                     requires_grad=True) for i in range(len(hidden_dims))]


def encode(features, a_hats, weights):
    """Each graph's encoding through one branch's list of layer weights, in
    input order, from one (n_i, f) feature matrix and one (n_i, n_i)
    normalized adjacency per graph.

    A feature matrix is a Tensor (trainable key features) or an array
    (input one-hots, wrapped as a constant).  Graphs of one node count n
    form a group (:func:`~graphdict.tensor.node_count_groups`): each layer
    is one block-diagonal propagation over the group's (G, n, n) stack and
    one :func:`~graphdict.tensor.linear_relu` over its G*n rows.  A group
    of one keeps its encoding; a larger one gives each graph back through
    one ``row_select``.  Encodings are nonnegative.  Lists of unequal
    length, or an adjacency that is not a square matrix of real numbers
    matching its feature rows, raise ShapeError.
    """
    if len(features) != len(a_hats):
        raise ShapeError(f"encode: {len(features)} feature matrices for "
                         f"{len(a_hats)} adjacencies")
    inputs = [x if isinstance(x, T.Tensor) else T.constant(x)
              for x in features]
    blocks = [real_array(a, ShapeError,
                         "encode: adjacency must hold real numbers")
              for a in a_hats]
    for x, a_hat in zip(inputs, blocks):
        if a_hat.shape != (x.values.shape[0],) * 2:
            raise ShapeError(f"encode: adjacency {a_hat.shape} is not square "
                             f"on {x.values.shape[0]} feature rows")
    encoded = [None] * len(inputs)
    for members in T.node_count_groups(a.shape[0] for a in blocks):
        h = T.concat_rows([inputs[i] for i in members])
        stack = np.array([blocks[i] for i in members])
        for w in weights:
            h = T.linear_relu(T.block_matmul(stack, h), w)
        graph = np.arange(h.values.shape[0]) // stack.shape[1]
        for k, i in enumerate(members):
            encoded[i] = h if len(members) == 1 else T.row_select(h, graph == k)
    return encoded


def momentum_update(dict_weights, input_weights, m):
    """In-place EMA over two branches' weight lists: every dictionary weight
    <- m*w_dict + (1-m)*w_input.  Returns ``dict_weights``."""
    check_ranges([real_where(lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]",
                             "momentum coefficient", m)])
    if len(dict_weights) != len(input_weights):
        raise ShapeError("momentum_update: branch depths differ")
    for wd, wi in zip(dict_weights, input_weights):
        if wd.values.shape != wi.values.shape:
            raise ShapeError(f"momentum_update: shape mismatch "
                             f"{wd.values.shape} vs {wi.values.shape}")
        wd.values[...] = m * wd.values + (1.0 - m) * wi.values
    return dict_weights
