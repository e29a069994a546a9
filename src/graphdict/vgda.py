"""Variational adaptation of dictionary keys to a batch of input graphs.

For every input and every key at once: node-level sampling probabilities
from the cosine similarity of encoded features projected through a learned
vector, a differentiable binary node mask (relaxed Bernoulli with a hard
straight-through forward) and substructure selection on the keys' encoded
features.  The Bernoulli KL penalty against a fixed expected probability
(:func:`bernoulli_kl`) is a term of the training loss.  The K keys come
stacked with segment offsets, and :func:`adapt_keys` stacks its G inputs,
one per graph, with input offsets, so the probabilities and the mask are
one (sum m_j, G) set of tape ops with one column per input, and no (sum
m_j, sum n_g) matrix is built; only the selection, whose shape differs
from input to input, is one op per input.  A single key or a single input
is the case K = 1 or G = 1.

Each input runs at its own node count n.  The projection vector has one
weight per input node position, up to the largest graph's node count, and
an n-node input uses its first n weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import tensor as T
from .errors import (ConfigError, ShapeError, check_ranges, integer_at_least,
                     real_where)

PROB_CLAMP = 1e-6
# relative rounding tolerance under which two probabilities tie
FALLBACK_TIE_RTOL = 1e-9
DEFAULT_TEMPERATURE = 1.0
TRAIN = "train"
EVAL = "eval"


@dataclass
class SamplingFactor:
    """Sampling state of G inputs against the stacked key rows; column g
    belongs to input g."""

    p: T.Tensor                    # (sum m_j, G) probabilities in (0, 1)
    z: np.ndarray                  # (sum m_j, G) mask, >= 1 True per key
    z_tilde: T.Tensor | None       # (sum m_j, G) surrogate in train mode


@dataclass
class AdaptedKey:
    """The substructures selected from one or more stacked keys.

    Key j's selected rows are ``features[offsets[j]:offsets[j + 1]]``.
    """

    features: T.Tensor             # (sum n_selected, d) rows of the encoded keys
    offsets: np.ndarray            # (K + 1,) segment bounds of the rows


def sampling_probability(f_input, f_key, w_r, input_offsets=None):
    """Per-key-node selection probabilities for each stacked input.

    ``f_input`` stacks G inputs, input g in rows input_offsets[g]:[g+1]
    (one input when ``input_offsets`` is None).  Column g of the (sum m_j,
    G) result is clamp(sigmoid(cosine(F_key, F_g) w_r[:n_g])) for the
    n_g-node input g.  The score is linear in the input's unit rows,
    sum_i cos(k, x_i) w_i = unit(k) . sum_i w_i unit(x_i), so one segment
    mat-vec sums each input's unit rows under its leading projection
    weights into a (d, G) matrix, and one matmul scores every key node
    against it.  Differentiable in both feature matrices and the
    projection vector.  An input with more rows than ``w_r`` raises
    ShapeError.
    """
    weighted = T.segment_matvec(T.transpose(T.unit_rows(f_input)), w_r,
                                input_offsets)
    scores = T.matmul(T.unit_rows(f_key), weighted)
    return T.clamp(T.sigmoid(scores), PROB_CLAMP, 1.0 - PROB_CLAMP)


def sample_factor(p, mode, rng=None, temperature=DEFAULT_TEMPERATURE,
                  mask_override=None, offsets=None):
    """Draw (or threshold) the binary node masks of G inputs for stacked keys.

    ``p`` holds one column per input.  Train mode draws uniform noise per
    entry, forms the relaxed surrogate z_tilde = sigmoid((logit(p) +
    logit(u)) / temperature) and thresholds it at 0.5 for the hard mask;
    gradients flow through the surrogate only.  The noise is one draw of
    shape (G, sum m_j), transposed, which consumes the stream exactly as one
    draw per input in input order, and per key in key order, would.  Eval
    mode thresholds the probabilities deterministically.  A key (a segment
    of ``offsets``, default one key) whose mask comes out all-zero for an
    input selects that input's highest-probability node of the key: the
    first row whose p lies within a relative ``FALLBACK_TIE_RTOL`` (1e-9)
    of the key's peak.  Nodes that encode identically (both nodes of any
    2-node key, say) differ in p by rounding only, so the first of them is
    picked however the scores were computed.  ``mask_override`` (one entry
    per entry of p) replaces the mask outright (used by ablations and
    gradient checks); no surrogate is attached.  Non-finite probabilities
    raise NumericsError.
    """
    T.check_finite("vgda: sampling probabilities", p)
    probs = p.values
    if mask_override is not None:
        z = np.asarray(mask_override, dtype=bool)
        if z.size != probs.size:
            raise ConfigError(f"mask_override has {z.size} entries; it must "
                              "fill the (sum m_j, G) shape "
                              f"{probs.shape} of the probabilities")
        z = z.reshape(probs.shape).copy()
        z_tilde = None
    elif mode == TRAIN:
        if rng is None:
            raise ConfigError("train-mode sampling needs an RNG stream")
        noise = rng.uniform(size=probs.shape[::-1]).T
        noise = np.clip(noise, 1e-12, 1.0 - 1e-12)
        z_tilde = T.binary_concrete(p, noise, temperature)
        z = z_tilde.values > 0.5
    elif mode == EVAL:
        z_tilde = None
        z = probs > 0.5
    else:
        raise ConfigError(f"unknown sampling mode: {mode!r}")
    offsets = T.as_offsets(offsets, probs.shape[0])
    starts = offsets[:-1]
    key, column = np.nonzero(~np.logical_or.reduceat(z, starts, axis=0))
    if key.size:
        # each key's first row within rounding of its peak, per input
        peak = np.maximum.reduceat(probs, starts, axis=0)
        near = probs >= np.repeat(peak * (1.0 - FALLBACK_TIE_RTOL),
                                  offsets[1:] - starts, axis=0)
        rows = np.where(near, np.arange(probs.shape[0])[:, None],
                        probs.shape[0])
        z[np.minimum.reduceat(rows, starts, axis=0)[key, column],
          column] = True
    return SamplingFactor(p=p, z=z, z_tilde=z_tilde)


def select_substructure(key_features, z, z_tilde=None, offsets=None,
                        column=0):
    """Select the masked rows of encoded keys for one input, preserving
    node order.

    ``z`` (and ``z_tilde``) hold one column per input, or ``z`` is the one
    input's vector; the selection is for input ``column``.  ``offsets``
    bounds each key's rows (default: one key).  The selection is one
    ``row_select``.  With a relaxed surrogate attached (train mode) it is
    straight-through: forward values are the rows unchanged (hard mask),
    backward routes each kept row's gradient dotted with the row into the
    input's surrogate entry, so the sampling probabilities learn.
    """
    rows = key_features.values.shape[0]
    z = np.atleast_1d(np.asarray(z, dtype=bool))
    if z.shape[0] != rows:
        raise ShapeError(f"select_substructure: {z.shape[0]} mask entries "
                         f"per input for {rows} key rows")
    z = z.reshape(rows, -1)
    natural, _ = integer_at_least(0, "column", column)
    if not (natural and column < z.shape[1]):
        raise ShapeError(f"select_substructure: column {column!r} outside "
                         f"the [0, {z.shape[1]}) columns of the mask")
    z = z[:, column]
    offsets = T.as_offsets(offsets, rows)
    features = T.row_select(key_features, z, z_tilde,
                            None if z_tilde is None else column)
    selected_before = np.concatenate(([0], np.cumsum(z)))
    return AdaptedKey(features=features, offsets=selected_before[offsets])


def bernoulli_kl(p_hat, p):
    """KL(Bernoulli(p_hat) || Bernoulli(p[u])) summed over each column of p,
    as a (columns, 1) tensor.

    Nonnegative, exactly zero when p is identically p_hat, additive over
    concatenated vectors, differentiable in p.
    """
    check_ranges([real_where(lambda v: 0.0 < v < 1.0, "lie strictly in (0, 1)",
                             "p_hat", p_hat)])
    return T.bernoulli_kl_sum(p, p_hat)


def adapt_keys(f_inputs, key_features, offsets, w_r, mode, rng=None,
               temperature=DEFAULT_TEMPERATURE, mask_override=None):
    """Adapt K stacked keys to G inputs in one pass.

    ``key_features`` stacks the encoded keys as (sum m_j, d) rows, key j in
    rows offsets[j]:offsets[j+1]; ``f_inputs`` holds one encoded (n_g, d)
    input per graph, stacked here by one ``concat_rows``.  Probabilities
    and the masks are each one set of tape ops over all inputs; each
    input's selection is one op.
    Returns (one AdaptedKey per input, SamplingFactor).
    """
    input_offsets = [0, *accumulate(f.values.shape[0] for f in f_inputs)]
    p = sampling_probability(T.concat_rows(f_inputs), key_features, w_r,
                             input_offsets)
    factor = sample_factor(p, mode, rng=rng, temperature=temperature,
                           mask_override=mask_override, offsets=offsets)
    adapted = [select_substructure(key_features, factor.z, factor.z_tilde,
                                   offsets=offsets, column=g)
               for g in range(p.values.shape[1])]
    return adapted, factor


def adapt_key(f_input, key_features, w_r, mode, rng=None,
              temperature=DEFAULT_TEMPERATURE, mask_override=None):
    """Full adaptation of one key to one input: :func:`adapt_keys` with
    K = 1 and G = 1.  Returns ([AdaptedKey], SamplingFactor)."""
    return adapt_keys([f_input], key_features, None, w_r, mode, rng=rng,
                      temperature=temperature, mask_override=mask_override)
