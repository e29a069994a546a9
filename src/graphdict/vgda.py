"""Variational adaptation of dictionary keys to one input graph.

For one input and every key at once: node-level sampling probabilities
from the cosine similarity of encoded features projected through a learned
vector, a differentiable binary node mask (relaxed Bernoulli with a hard
straight-through forward), substructure selection on the keys' encoded
features, and the Bernoulli KL penalty against a fixed expected
probability.  The K keys are stacked as one (sum m_j, d) matrix with
segment offsets, so each step is one set of tape ops; a single key is the
case K = 1.

Each input runs at its own node count n.  The projection vector has one
weight per input node position, up to the largest graph's node count, and
an n-node input uses its first n weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError

PROB_CLAMP = 1e-6
DEFAULT_TEMPERATURE = 1.0
TRAIN = "train"
EVAL = "eval"


@dataclass
class SamplingFactor:
    """Sampling state for one input against its stacked key rows."""

    p: T.Tensor                    # (sum m_j, 1) probabilities in (0, 1)
    z: np.ndarray                  # (sum m_j,) boolean mask, >= 1 True per key
    z_tilde: T.Tensor | None       # relaxed surrogate in train mode


@dataclass
class AdaptedKey:
    """The substructures selected from one or more stacked keys.

    Key j's selected rows are ``features[offsets[j]:offsets[j + 1]]``.
    """

    features: T.Tensor             # (sum n_selected, d) rows of the encoded keys
    offsets: np.ndarray            # (K + 1,) segment bounds of the rows


def sampling_probability(f_input, f_key, w_r):
    """Per-key-node selection probabilities.

    p = clamp(sigmoid(cosine(F_key, F_input) w_r[:n])) for an n-node input:
    the cosine matrix is key-major, one row per key node (stacked keys give
    one row per stacked row), like p itself; differentiable in both feature
    matrices and the projection vector.  An input with more rows than
    ``w_r`` raises ShapeError.
    """
    n, positions = f_input.values.shape[0], w_r.values.shape[0]
    if n > positions:
        raise ShapeError(f"sampling_probability: {n} input nodes exceed the "
                         f"{positions} projection weights")
    if n < positions:
        w_r = T.row_select(w_r, np.arange(positions) < n)
    scores = T.matmul(T.cosine_matrix(f_key, f_input), w_r)
    return T.clamp(T.sigmoid(scores), PROB_CLAMP, 1.0 - PROB_CLAMP)


def sample_factor(p, mode, rng=None, temperature=DEFAULT_TEMPERATURE,
                  mask_override=None, offsets=None):
    """Draw (or threshold) the binary node mask for stacked keys.

    Train mode draws uniform noise per node, forms the relaxed surrogate
    z_tilde = sigmoid((logit(p) + logit(u)) / temperature) and thresholds it
    at 0.5 for the hard mask; gradients flow through the surrogate only.
    The noise is one draw of shape (sum m_j, 1), which consumes the stream
    exactly as one draw per key in key order would.  Eval mode thresholds
    the probabilities deterministically.  A key (a segment of ``offsets``,
    default one key) whose mask comes out all-zero selects its single
    highest-probability node, the first index among equal computed
    probabilities.  Nodes that encode identically (both nodes of any 2-node
    key, say) can still differ in the last bit of p, so which of them is
    picked follows rounding.  ``mask_override``
    replaces the mask outright (used by ablations and gradient checks); no
    surrogate is attached.  Non-finite probabilities raise NumericsError.
    """
    T.check_finite("vgda: sampling probabilities", p)
    probs = p.values[:, 0]
    if mask_override is not None:
        z = np.asarray(mask_override, dtype=bool).reshape(-1).copy()
        if z.shape[0] != probs.shape[0]:
            raise ConfigError("mask_override length must match key size")
        z_tilde = None
    elif mode == TRAIN:
        if rng is None:
            raise ConfigError("train-mode sampling needs an RNG stream")
        noise = rng.uniform(size=(probs.shape[0], 1))
        noise = np.clip(noise, 1e-12, 1.0 - 1e-12)
        z_tilde = T.binary_concrete(p, noise, temperature)
        z = z_tilde.values[:, 0] > 0.5
    elif mode == EVAL:
        z_tilde = None
        z = probs > 0.5
    else:
        raise ConfigError(f"unknown sampling mode: {mode!r}")
    offsets = T.as_offsets(offsets, probs.shape[0])
    empty = ~np.logical_or.reduceat(z, offsets[:-1])
    if empty.any():
        # rows by key, then by falling p; the stable sort keeps ties in
        # row order, so each key's first row is its first peak
        seg, _, _ = T.segment_index(offsets)
        first = np.lexsort((-probs, seg))[offsets[:-1]]
        z[first[empty]] = True
    return SamplingFactor(p=p, z=z, z_tilde=z_tilde)


def select_substructure(key_features, z, z_tilde=None, offsets=None):
    """Select the masked rows of encoded keys, preserving node order.

    ``offsets`` bounds each key's rows (default: one key).  The selection
    is one ``row_select``.  With a relaxed surrogate attached (train mode)
    it is straight-through: forward values are the rows unchanged (hard
    mask), backward routes each kept row's gradient dotted with the row
    into its surrogate entry, so the sampling probabilities learn.
    """
    z = np.asarray(z, dtype=bool).reshape(-1)
    offsets = T.as_offsets(offsets, z.shape[0])
    features = T.row_select(key_features, z, z_tilde)
    selected_before = np.concatenate(([0], np.cumsum(z)))
    return AdaptedKey(features=features, offsets=selected_before[offsets])


def bernoulli_kl(p_hat, p):
    """KL(Bernoulli(p_hat) || Bernoulli(p[u])) summed over the vector.

    Nonnegative, exactly zero when p is identically p_hat, additive over
    concatenated vectors, differentiable in p.
    """
    if not (0.0 < p_hat < 1.0):
        raise ConfigError(f"p_hat must lie strictly in (0, 1), got {p_hat}")
    return T.bernoulli_kl_sum(p, p_hat)


def adapt_keys(f_input, key_features, offsets, w_r, mode, rng=None,
               temperature=DEFAULT_TEMPERATURE, p_hat=0.5, mask_override=None):
    """Adapt K stacked keys to one input in one pass.

    ``key_features`` stacks the encoded keys as (sum m_j, d) rows, key j in
    rows offsets[j]:offsets[j+1].  Probabilities, the mask, the selection
    and the KL summed over all keys are each one set of tape ops.  Returns
    (AdaptedKey, SamplingFactor, kl).
    """
    p = sampling_probability(f_input, key_features, w_r)
    factor = sample_factor(p, mode, rng=rng, temperature=temperature,
                           mask_override=mask_override, offsets=offsets)
    adapted = select_substructure(key_features, factor.z, factor.z_tilde,
                                  offsets=offsets)
    kl = bernoulli_kl(p_hat, p)
    return adapted, factor, kl


def adapt_key(f_input, key_features, w_r, mode, rng=None,
              temperature=DEFAULT_TEMPERATURE, p_hat=0.5, mask_override=None):
    """Full adaptation of one key to one input: :func:`adapt_keys` with
    K = 1.  Returns (AdaptedKey, SamplingFactor, kl)."""
    return adapt_keys(f_input, key_features, None, w_r, mode, rng=rng,
                      temperature=temperature, p_hat=p_hat,
                      mask_override=mask_override)
