"""Variational substructure sampling: probabilities, masks, KL penalty."""

import itertools
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphdict import tensor as T
from graphdict.errors import ConfigError, ShapeError
from graphdict.vgda import (EVAL, TRAIN, adapt_key, adapt_keys,
                            bernoulli_kl, sample_factor,
                            sampling_probability, select_substructure)


def tens(values, requires_grad=False):
    return T.Tensor(np.asarray(values, dtype=float),
                    requires_grad=requires_grad)


# --- sampling probabilities -------------------------------------------------

def test_zero_projection_gives_half():
    rng = np.random.default_rng(0)
    f_in = tens(rng.uniform(size=(3, 8)))
    f_key = tens(rng.uniform(size=(5, 8)))
    w_r = tens(np.zeros((3, 1)))
    p = sampling_probability(f_in, f_key, w_r)
    assert p.values.shape == (5, 1)
    assert np.allclose(p.values, 0.5, atol=1e-12)


def test_constant_features_give_sigmoid_of_summed_projection():
    # identical all-ones rows -> every cosine is 1 (up to the zero-norm
    # guard), so each key node scores the plain sum of the projection vector
    n, a = 4, 0.3
    f_in = tens(np.ones((n, 6)))
    f_key = tens(np.ones((2, 6)))
    w_r = tens(np.full((n, 1), a))
    p = sampling_probability(f_in, f_key, w_r)
    expected = 1.0 / (1.0 + np.exp(-n * a))
    assert np.allclose(p.values, expected, atol=1e-6)


def test_probability_matches_manual_pipeline():
    rng = np.random.default_rng(7)
    f_in = rng.normal(size=(3, 8))
    f_key = rng.normal(size=(4, 8))
    w_r = rng.normal(size=(3, 1))
    p = sampling_probability(tens(f_in), tens(f_key), tens(w_r))

    # unit_rows divides each row by its norm plus 1e-8
    norms_in = np.linalg.norm(f_in, axis=1) + 1e-8
    norms_key = np.linalg.norm(f_key, axis=1) + 1e-8
    cos = (f_in @ f_key.T) / (norms_in[:, None] * norms_key[None, :])
    scores = cos.T @ w_r
    manual = np.clip(1.0 / (1.0 + np.exp(-scores)), 1e-6, 1.0 - 1e-6)
    np.testing.assert_allclose(p.values, manual, rtol=0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(inputs=st.lists(st.integers(1, 28), min_size=1, max_size=4),
       keys=st.lists(st.integers(1, 6), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1), zero_share=st.floats(0.0, 0.5))
def test_ragged_batch_matches_dense_cosine_scores(inputs, keys, seed,
                                                  zero_share):
    # some all-zero rows on both sides, as ReLU encodings produce
    rng = np.random.default_rng(seed)
    f_in = rng.normal(size=(sum(inputs), 6))
    f_key = rng.normal(size=(sum(keys), 6))
    f_in[rng.uniform(size=f_in.shape[0]) < zero_share] = 0.0
    f_key[rng.uniform(size=f_key.shape[0]) < zero_share] = 0.0
    w_r = rng.normal(0.0, 2.0, size=(max(inputs) + 2, 1))
    offsets = np.cumsum([0] + inputs)
    p = sampling_probability(tens(f_in), tens(f_key), tens(w_r), offsets)

    norm_in = np.linalg.norm(f_in, axis=1) + T.COSINE_EPS
    norm_key = np.linalg.norm(f_key, axis=1) + T.COSINE_EPS
    cos = (f_key @ f_in.T) / np.outer(norm_key, norm_in)
    scores = np.hstack([cos[:, lo:hi] @ w_r[:hi - lo]
                        for lo, hi in zip(offsets[:-1], offsets[1:])])
    dense = np.clip(1.0 / (1.0 + np.exp(-scores)), 1e-6, 1.0 - 1e-6)
    assert p.values.shape == (sum(keys), len(inputs))
    assert np.abs(p.values - dense).max() <= 1e-12


def test_probability_clamped_under_extreme_projection():
    f_in = tens(np.ones((2, 4)))
    f_key = tens(np.ones((3, 4)))
    hi = sampling_probability(f_in, f_key, tens([[500.0], [500.0]]))
    lo = sampling_probability(f_in, f_key, tens([[-500.0], [-500.0]]))
    assert np.all(hi.values == 1.0 - 1e-6)
    assert np.all(lo.values == 1e-6)


def test_zero_padding_rows_do_not_change_probabilities():
    rng = np.random.default_rng(3)
    f_in = rng.normal(size=(3, 8))
    f_key = rng.normal(size=(4, 8))
    w_r = rng.normal(size=(3, 1))
    base = sampling_probability(tens(f_in), tens(f_key), tens(w_r))
    padded_in = np.vstack([f_in, np.zeros((2, 8))])
    padded_w = np.vstack([w_r, rng.normal(size=(2, 1))])  # arbitrary extras
    padded = sampling_probability(tens(padded_in), tens(f_key),
                                  tens(padded_w))
    assert np.allclose(padded.values, base.values, atol=1e-12)


def test_input_uses_its_leading_projection_weights():
    rng = np.random.default_rng(5)
    f_in = tens(rng.normal(size=(3, 8)), requires_grad=True)
    f_key = tens(rng.normal(size=(4, 8)))
    w_r = tens(rng.normal(size=(5, 1)), requires_grad=True)
    base = sampling_probability(f_in, f_key, tens(w_r.values[:3]))
    with T.Tape() as tape:
        p = sampling_probability(f_in, f_key, w_r)
        tape.backward(T.sum_all(p))
    assert np.array_equal(p.values, base.values)
    assert w_r.grad[:3].any() and not w_r.grad[3:].any()
    with T.Tape() as tape:  # an input as long as w_r takes it whole
        sampling_probability(f_in, f_key, tens(w_r.values[:3],
                                               requires_grad=True))
    assert tape.nodes[0][2].__qualname__.startswith("unit_rows")
    with pytest.raises(ShapeError, match="segment of 6 columns exceeds the 5"):
        sampling_probability(tens(rng.normal(size=(6, 8))), f_key, w_r)


def test_probability_runtime_scales_linearly_in_key_size():
    import time

    # Sizes are chosen so both stages stay within the same CPU cache level:
    # at larger sizes the doubled score matrix crosses a cache boundary and
    # the measured ratio reflects memory bandwidth (~4x), not arithmetic.
    rng = np.random.default_rng(14)
    f_in = tens(rng.normal(size=(96, 32)))
    w_r = tens(rng.normal(size=(96, 1)))
    keys = {n: tens(rng.normal(size=(n, 32))) for n in (96, 192)}

    def stage(n):
        # batch enough calls that each sample dwarfs timer jitter
        start = time.perf_counter()
        for _ in range(150):
            sampling_probability(f_in, keys[n], w_r)
        return time.perf_counter() - start

    stage(96), stage(192)  # warm-up
    ratios = [stage(192) / stage(96) for _ in range(15)]
    assert float(np.median(ratios)) <= 2.3


# --- mask sampling ----------------------------------------------------------

def test_train_sampling_follows_high_probabilities():
    p = tens(np.full((4, 1), 1.0 - 1e-6))
    rng = np.random.default_rng(11)
    hits = 0
    for _ in range(10_000):
        factor = sample_factor(p, TRAIN, rng=rng)
        hits += factor.z.all()
    assert hits / 10_000 >= 1.0 - 1e-3


def test_train_mask_frequency_tracks_probability_at_low_temperature():
    # measured on the relaxed surrogate: the final mask additionally applies
    # the never-empty fallback, which inflates the argmax coordinate whenever
    # every node is rejected
    probs = np.array([0.3, 0.8, 0.5])
    p = tens(probs[:, None])
    rng = np.random.default_rng(5)
    counts = np.zeros(3)
    n_draws = 10_000
    for _ in range(n_draws):
        factor = sample_factor(p, TRAIN, rng=rng, temperature=0.01)
        counts += factor.z_tilde.values[:, 0] > 0.5
    assert np.all(np.abs(counts / n_draws - probs) <= 0.02)


def test_eval_thresholds_deterministically():
    factor = sample_factor(tens([[0.7], [0.3]]), EVAL)
    assert factor.z[:, 0].tolist() == [True, False]
    assert factor.z_tilde is None


def test_all_low_probabilities_fall_back_to_first_argmax():
    factor = sample_factor(tens([[0.1], [0.1]]), EVAL)
    assert factor.z[:, 0].tolist() == [True, False]


@settings(max_examples=100, deadline=None)
@given(keys=st.lists(st.lists(st.sampled_from([0.05, 0.2, 0.3, 0.49]),
                              min_size=1, max_size=28),
                     min_size=1, max_size=6))
def test_ragged_stacked_keys_each_fall_back_to_their_first_argmax(keys):
    # every probability is below 0.5, so every key falls back, and the few
    # values make exact ties common
    probs = np.concatenate(keys)
    offsets = np.cumsum([0] + [len(k) for k in keys])
    factor = sample_factor(tens(probs[:, None]), EVAL, offsets=offsets)
    expected = [lo + int(np.argmax(probs[lo:hi]))
                for lo, hi in zip(offsets[:-1], offsets[1:])]
    assert np.flatnonzero(factor.z).tolist() == expected


def test_fallback_ties_within_rounding_pick_the_first_row():
    # row 1 beats row 0 by one ulp, as rounding can make it
    up = np.nextafter(0.3, 1.0)
    factor = sample_factor(tens([[0.3, up], [up, 0.3], [0.2, 0.2]]), EVAL)
    assert factor.z.tolist() == [[True, True], [False, False],
                                 [False, False]]
    # a true peak further on still wins
    factor = sample_factor(tens([[0.3], [0.3 + 1e-6]]), EVAL)
    assert factor.z[:, 0].tolist() == [False, True]


def test_identically_encoded_key_nodes_fall_back_to_node_zero_in_any_batch():
    # key 0's two nodes encode alike up to a last-bit difference, as
    # automorphic nodes do under a GCN; every probability is below 0.5
    rng = np.random.default_rng(21)
    node = rng.uniform(0.1, 1.0, size=8)
    f_key = tens(np.vstack([node, np.nextafter(node, 2.0),
                            rng.uniform(0.1, 1.0, size=(3, 8))]))
    offsets = np.array([0, 2, 5])
    inputs = [tens(rng.uniform(0.1, 1.0, size=(int(n), 8)))
              for n in rng.integers(2, 7, size=12)]
    w_r = tens(np.full((6, 1), -3.0))
    for size in (1, 2, 5, 12):
        for start in range(0, len(inputs) - size + 1, size):
            batch = inputs[start:start + size]
            p = sampling_probability(
                T.concat_rows(batch), f_key, w_r,
                np.cumsum([0] + [f.values.shape[0] for f in batch]))
            assert (p.values < 0.5).all()
            factor = sample_factor(p, EVAL, offsets=offsets)
            assert factor.z[:2].tolist() == [[True] * size, [False] * size]


def test_mask_never_empty_in_train_mode():
    p = tens(np.full((3, 1), 1e-6))
    rng = np.random.default_rng(2)
    for _ in range(200):
        assert sample_factor(p, TRAIN, rng=rng).z.sum() >= 1


def test_train_surrogate_is_attached_and_consistent():
    p = tens(np.full((5, 1), 0.5), requires_grad=True)
    factor = sample_factor(p, TRAIN, rng=np.random.default_rng(8))
    assert factor.z_tilde is not None
    assert factor.z_tilde.values.shape == (5, 1)
    assert np.array_equal(factor.z, factor.z_tilde.values > 0.5)


def test_sampling_mode_validation():
    p = tens([[0.5]])
    with pytest.raises(ConfigError):
        sample_factor(p, TRAIN)  # rng is mandatory for stochastic draws
    with pytest.raises(ConfigError):
        sample_factor(p, "test")
    with pytest.raises(ConfigError):
        sample_factor(p, EVAL, mask_override=[True, False])


def test_mask_override_must_fill_the_probabilities_shape():
    p = tens(np.full((3, 2), 0.5))
    with pytest.raises(ConfigError, match=r"mask_override has 3 entries; "
                       r"it must fill the \(sum m_j, G\) shape \(3, 2\)"):
        sample_factor(p, EVAL, mask_override=[True, False, True])


def test_mask_override_roundtrip():
    p = tens([[0.9], [0.9], [0.9]])
    factor = sample_factor(p, TRAIN, rng=np.random.default_rng(0),
                           mask_override=[False, True, False])
    assert factor.z[:, 0].tolist() == [False, True, False]
    assert factor.z_tilde is None


def test_eval_adaptation_is_deterministic():
    rng = np.random.default_rng(4)
    f_in = tens(rng.normal(size=(3, 8)))
    f_key = tens(rng.normal(size=(5, 8)))
    w_r = tens(rng.normal(size=(3, 1)))
    first = adapt_key(f_in, f_key, w_r, EVAL)
    second = adapt_key(f_in, f_key, w_r, EVAL)
    assert np.array_equal(first[1].z, second[1].z)
    assert np.array_equal(first[0][0].features.values,
                          second[0][0].features.values)
    assert np.array_equal(first[1].p.values, second[1].p.values)


@pytest.mark.xfail(raises=ValueError, strict=True,
                   reason="perfbench/tracing.py Tracer._after_adapt unpacks "
                          "three values from adapt_key, which returns two")
def test_adapt_key_runs_under_the_benchmark_tracer(monkeypatch):
    # The benchmark's tracer wraps adapt_key; this call must keep working
    # under it.  strict: once the tracer unpacks (adapted, factor), the
    # test passes and the xfail marker has to go.
    monkeypatch.syspath_prepend(os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "perfbench"))
    from tracing import Patches, Tracer
    from graphdict import vgda

    rng = np.random.default_rng(4)
    f_in = tens(rng.normal(size=(3, 8)))
    f_key = tens(rng.normal(size=(5, 8)))
    w_r = tens(rng.normal(size=(3, 1)))
    tracer = Tracer(recorder=None)
    with Patches() as patches:
        tracer.install(patches)
        adapted, factor = vgda.adapt_key(f_in, f_key, w_r, EVAL)
    assert tracer.adapt == [(int(factor.z.sum()), factor.z.size,
                             not (factor.p.values[:, 0] > 0.5).any())]


@pytest.mark.parametrize("mode", [TRAIN, EVAL])
def test_stacked_adaptation_matches_per_key_calls(mode):
    fallbacks = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        widths = [1, 4, 7, 3, 2]
        f_in = tens(rng.normal(size=(6, 8)))
        keys = [tens(rng.normal(size=(w, 8))) for w in widths]
        w_r = tens(rng.normal(0.0, 2.0, size=(6, 1)))
        stacked_rng = np.random.default_rng(100 + seed)
        single_rng = np.random.default_rng(100 + seed)
        adapted, factor = adapt_keys(f_in, T.concat_rows(keys),
                                     np.cumsum([0] + widths), w_r, mode,
                                     rng=stacked_rng)
        singles = [adapt_key(f_in, key, w_r, mode, rng=single_rng)
                   for key in keys]
        assert np.array_equal(factor.z,
                              np.concatenate([s[1].z for s in singles]))
        assert np.abs(factor.p.values - np.vstack(
            [s[1].p.values for s in singles])).max() <= 1e-12
        kl = bernoulli_kl(0.5, factor.p).item()
        assert abs(kl - sum(bernoulli_kl(0.5, s[1].p).item()
                            for s in singles)) <= 1e-12
        assert np.array_equal(adapted[0].features.values, np.vstack(
            [s[0][0].features.values for s in singles]))
        assert np.array_equal(np.diff(adapted[0].offsets),
                              [s[0][0].features.values.shape[0]
                               for s in singles])
        assert stacked_rng.uniform() == single_rng.uniform()
        surrogate = factor.z_tilde if mode == TRAIN else factor.p
        fallbacks += sum(not (part > 0.5).any() for part in np.split(
            surrogate.values[:, 0], np.cumsum(widths)[:-1]))
    assert fallbacks > 0  # the per-key fallback was exercised



@pytest.mark.parametrize("n, ops", [
    (3, []),   # fewer input nodes than projection weights: no prefix op
    (5, [])])
def test_train_adaptation_records_one_op_per_step(n, ops):
    # op names read as the tape's non-finite report reads them
    rng = np.random.default_rng(6)
    f_in = tens(rng.normal(size=(n, 8)), requires_grad=True)
    f_key = tens(rng.normal(size=(7, 8)), requires_grad=True)
    w_r = tens(rng.normal(size=(5, 1)), requires_grad=True)
    with T.Tape() as tape:
        adapt_keys(f_in, f_key, np.array([0, 3, 7]), w_r, TRAIN, rng=rng)
    recorded = [fn.__qualname__.split(".")[0] for _, _, fn in tape.nodes]
    assert recorded == ops + ["unit_rows", "transpose", "segment_matvec",
                              "unit_rows", "matmul", "sigmoid", "clamp",
                              "binary_concrete", "row_select"]


def test_batch_adaptation_records_one_selection_per_input():
    rng = np.random.default_rng(6)
    widths = [3, 5, 1]
    f_in = tens(rng.normal(size=(sum(widths), 8)), requires_grad=True)
    f_key = tens(rng.normal(size=(7, 8)), requires_grad=True)
    w_r = tens(rng.normal(size=(5, 1)), requires_grad=True)
    with T.Tape() as tape:
        adapted, factor = adapt_keys(
            f_in, f_key, np.array([0, 3, 7]), w_r, TRAIN, rng=rng,
            input_offsets=np.cumsum([0] + widths))
    recorded = [fn.__qualname__.split(".")[0] for _, _, fn in tape.nodes]
    assert recorded == ["unit_rows", "transpose", "segment_matvec",
                        "unit_rows", "matmul", "sigmoid", "clamp",
                        "binary_concrete", *["row_select"] * 3]
    assert factor.p.values.shape == factor.z.shape == (7, 3)
    for g, keys in enumerate(adapted):
        assert np.array_equal(keys.features.values,
                              f_key.values[factor.z[:, g]])


# --- substructure selection -------------------------------------------------

def test_select_keeps_masked_rows_in_order():
    key = tens(np.arange(12.0).reshape(3, 4))
    adapted = select_substructure(key, np.array([True, False, True]))
    assert np.array_equal(adapted.features.values, key.values[[0, 2]])


def test_select_all_ones_is_identity():
    key = tens(np.arange(8.0).reshape(4, 2))
    adapted = select_substructure(key, np.ones(4, dtype=bool))
    assert np.array_equal(adapted.features.values, key.values)


def test_select_exhaustive_over_nonempty_masks():
    key = tens(np.random.default_rng(9).normal(size=(4, 3)))
    for bits in itertools.product([False, True], repeat=4):
        if not any(bits):
            continue
        mask = np.array(bits)
        adapted = select_substructure(key, mask)
        assert np.array_equal(adapted.features.values, key.values[mask])


@pytest.mark.parametrize("column", [2, 5, -1, "0", 0.0, True])
def test_select_column_must_be_one_of_the_mask_columns(column):
    key = tens(np.ones((3, 4)))
    with pytest.raises(ShapeError, match=re.escape(
            f"column {column!r} outside the [0, 2) columns")):
        select_substructure(key, np.ones((3, 2), dtype=bool), column=column)


def test_select_mask_must_hold_one_entry_per_key_row():
    key = tens(np.ones((5, 4)))
    with pytest.raises(ShapeError, match="7 mask entries per input for 5 "
                       "key rows"):
        select_substructure(key, np.ones(7, dtype=bool))


def test_select_with_surrogate_keeps_hard_forward():
    key = tens(np.random.default_rng(1).normal(size=(3, 4)),
               requires_grad=True)
    z_tilde = tens([[0.9], [0.2], [0.7]], requires_grad=True)
    z = np.array([True, False, True])
    adapted = select_substructure(key, z, z_tilde=z_tilde)
    # forward values are the selected rows unchanged, not scaled by z_tilde
    assert np.array_equal(adapted.features.values, key.values[z])


# --- KL penalty -------------------------------------------------------------

def test_kl_zero_exactly_at_target():
    p = tens(np.full((6, 1), 0.37))
    assert bernoulli_kl(0.37, p).values.item() == 0.0


def test_kl_pinned_value():
    kl = bernoulli_kl(0.5, tens([[0.8]]))
    assert abs(kl.values.item() - 0.2231) < 1e-4


def test_kl_additive_over_concatenation():
    rng = np.random.default_rng(6)
    a = rng.uniform(0.05, 0.95, size=(4, 1))
    b = rng.uniform(0.05, 0.95, size=(3, 1))
    total = bernoulli_kl(0.5, tens(np.vstack([a, b]))).values.item()
    split = (bernoulli_kl(0.5, tens(a)).values.item()
             + bernoulli_kl(0.5, tens(b)).values.item())
    assert abs(total - split) < 1e-12


def test_kl_strictly_positive_off_target():
    rng = np.random.default_rng(12)
    for _ in range(50):
        p_hat = rng.uniform(0.05, 0.95)
        p = rng.uniform(0.05, 0.95)
        if abs(p - p_hat) < 1e-3:
            continue
        assert bernoulli_kl(p_hat, tens([[p]])).values.item() > 0.0


def test_kl_target_bounds_validated():
    with pytest.raises(ConfigError):
        bernoulli_kl(0.0, tens([[0.5]]))
    with pytest.raises(ConfigError):
        bernoulli_kl(1.0, tens([[0.5]]))


@pytest.mark.parametrize("p_hat", ["0.5", None, True])
def test_kl_target_must_be_a_real_number(p_hat):
    with pytest.raises(ConfigError, match=re.escape(
            f"p_hat must be a real number, got {p_hat!r}")):
        bernoulli_kl(p_hat, tens([[0.5]]))
