"""Three-layer graph-convolution encoders for inputs and dictionary keys.

Both branches share one architecture: F = ReLU(A·ReLU(A·ReLU(A·X·W1)·W2)·W3)
with A the normalized adjacency.  The input branch is trained by
backpropagation; the dictionary branch never receives gradients and instead
tracks the input branch as an exponential moving average (the momentum
update).  No bias terms are used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError

DEFAULT_HIDDEN_DIMS = (256, 128, 32)


def xavier_uniform(rng, fan_in, fan_out):
    """Uniform init in +-sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


@dataclass
class EncoderParams:
    """Weights of one encoder branch.

    The backprop-trained input branch's weights require gradients; the
    momentum-updated dictionary branch's never carry them.
    """

    weights: list[T.Tensor]

    @classmethod
    def initialize(cls, in_dim, rng, hidden_dims=DEFAULT_HIDDEN_DIMS,
                   trainable=True):
        dims = (in_dim, *hidden_dims)
        weights = [T.Tensor(xavier_uniform(rng, dims[i], dims[i + 1]),
                            requires_grad=trainable)
                   for i in range(len(hidden_dims))]
        return cls(weights=weights)

    def copy_as_momentum_branch(self):
        """A frozen branch starting from identical weights."""
        weights = [T.Tensor(w.values.copy(), requires_grad=False)
                   for w in self.weights]
        return EncoderParams(weights=weights)

    @property
    def hidden_dims(self):
        return tuple(w.values.shape[1] for w in self.weights)

    @property
    def output_dim(self):
        return self.weights[-1].values.shape[1]


def encode(features, a_hat, params):
    """Encode node features against a normalized adjacency.

    ``features`` may be a Tensor (trainable dictionary node features) or a
    plain array (fixed input one-hots); ``a_hat`` is always constant.
    Returns an n-by-output_dim tensor with nonnegative entries.
    """
    x = features if isinstance(features, T.Tensor) else T.constant(features)
    a_hat = np.asarray(a_hat, dtype=np.float64)
    if a_hat.ndim != 2 or a_hat.shape[0] != a_hat.shape[1]:
        raise ShapeError(f"encode: adjacency must be square, got {a_hat.shape}")
    if a_hat.shape[0] != x.values.shape[0]:
        raise ShapeError(f"encode: {x.values.shape[0]} feature rows vs "
                         f"{a_hat.shape[0]} adjacency rows")
    propagate = T.constant(a_hat)
    h = x
    for w in params.weights:
        h = T.relu(T.matmul(T.matmul(propagate, h), w))
    return h


def momentum_update(dict_params, input_params, m):
    """In-place EMA: every dictionary weight <- m*w_dict + (1-m)*w_input."""
    if not 0.0 <= m <= 1.0:
        raise ConfigError(f"momentum coefficient must lie in [0, 1], got {m}")
    if len(dict_params.weights) != len(input_params.weights):
        raise ShapeError("momentum_update: branch depths differ")
    for wd, wi in zip(dict_params.weights, input_params.weights):
        if wd.values.shape != wi.values.shape:
            raise ShapeError(f"momentum_update: shape mismatch "
                             f"{wd.values.shape} vs {wi.values.shape}")
        wd.values[...] = m * wd.values + (1.0 - m) * wi.values
    return dict_params
