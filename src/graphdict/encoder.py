"""Three-layer graph-convolution encoders for inputs and dictionary keys.

Both branches share one architecture: F = ReLU(A·ReLU(A·ReLU(A·X·W1)·W2)·W3)
with A the normalized adjacency.  The input branch is trained by
backpropagation; the dictionary branch never receives gradients and instead
tracks the input branch as an exponential moving average (the momentum
update).  No bias terms are used.  Graphs of one node count are encoded
together, A then being the block-diagonal matrix of their adjacencies.
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


def encode(features, a_hat, weights):
    """Encode G graphs of n nodes each in one pass through one branch's
    list of layer weights.

    ``features`` stacks the graphs' node features as (G*n, f) rows, graph
    g in rows g*n:(g+1)*n; it may be a Tensor (trainable dictionary node
    features) or a plain array (fixed input one-hots).  ``a_hat`` is the
    constant (G, n, n) stack of normalized adjacencies, or one graph's
    (n, n).  Each layer is one block-diagonal propagation and one
    :func:`~graphdict.tensor.linear_relu` with the layer weight over all
    G*n rows.  Returns a (G*n, last layer width) tensor with nonnegative
    entries, stacked as the features are.
    """
    x = features if isinstance(features, T.Tensor) else T.constant(features)
    a_hat = real_array(a_hat, ShapeError,
                       "encode: adjacency must hold real numbers")
    if a_hat.ndim == 2:
        a_hat = a_hat.reshape(1, *a_hat.shape)
    if a_hat.ndim != 3 or a_hat.shape[1] != a_hat.shape[2]:
        raise ShapeError(f"encode: adjacency must be square, got {a_hat.shape}")
    if a_hat.shape[0] * a_hat.shape[1] != x.values.shape[0]:
        raise ShapeError(f"encode: {x.values.shape[0]} feature rows vs "
                         f"{a_hat.shape[0]} adjacencies of {a_hat.shape[1]} "
                         "rows")
    h = x
    for w in weights:
        h = T.linear_relu(T.block_matmul(a_hat, h), w)
    return h


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
