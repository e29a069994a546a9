"""Variational substructure sampling: probabilities, masks, KL penalty."""

import itertools

import numpy as np
import pytest

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

    norms_in = np.linalg.norm(f_in, axis=1)
    norms_key = np.linalg.norm(f_key, axis=1)
    cos = (f_in @ f_key.T) / (norms_in[:, None] * norms_key[None, :] + 1e-8)
    scores = cos.T @ w_r
    manual = np.clip(1.0 / (1.0 + np.exp(-scores)), 1e-6, 1.0 - 1e-6)
    assert np.allclose(p.values, manual, atol=1e-12)


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
    assert tape.nodes[0][2].__qualname__.startswith("cosine_matrix")
    with pytest.raises(ShapeError, match="6 input nodes exceed the 5"):
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
    assert factor.z.tolist() == [True, False]
    assert factor.z_tilde is None


def test_all_low_probabilities_fall_back_to_first_argmax():
    factor = sample_factor(tens([[0.1], [0.1]]), EVAL)
    assert factor.z.tolist() == [True, False]


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
    assert np.array_equal(factor.z, factor.z_tilde.values[:, 0] > 0.5)


def test_sampling_mode_validation():
    p = tens([[0.5]])
    with pytest.raises(ConfigError):
        sample_factor(p, TRAIN)  # rng is mandatory for stochastic draws
    with pytest.raises(ConfigError):
        sample_factor(p, "test")
    with pytest.raises(ConfigError):
        sample_factor(p, EVAL, mask_override=[True, False])


def test_mask_override_roundtrip():
    p = tens([[0.9], [0.9], [0.9]])
    factor = sample_factor(p, TRAIN, rng=np.random.default_rng(0),
                           mask_override=[False, True, False])
    assert factor.z.tolist() == [False, True, False]
    assert factor.z_tilde is None


def test_eval_adaptation_is_deterministic():
    rng = np.random.default_rng(4)
    f_in = tens(rng.normal(size=(3, 8)))
    f_key = tens(rng.normal(size=(5, 8)))
    w_r = tens(rng.normal(size=(3, 1)))
    first = adapt_key(f_in, f_key, w_r, EVAL)
    second = adapt_key(f_in, f_key, w_r, EVAL)
    assert np.array_equal(first[1].z, second[1].z)
    assert np.array_equal(first[0].features.values, second[0].features.values)
    assert first[2].values == second[2].values


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
        adapted, factor, kl = adapt_keys(f_in, T.concat_rows(keys),
                                         np.cumsum([0] + widths), w_r, mode,
                                         rng=stacked_rng)
        singles = [adapt_key(f_in, key, w_r, mode, rng=single_rng)
                   for key in keys]
        assert np.array_equal(factor.z,
                              np.concatenate([s[1].z for s in singles]))
        assert np.abs(factor.p.values - np.vstack(
            [s[1].p.values for s in singles])).max() <= 1e-12
        assert abs(kl.item() - sum(s[2].item() for s in singles)) <= 1e-12
        assert np.array_equal(adapted.features.values, np.vstack(
            [s[0].features.values for s in singles]))
        assert np.array_equal(np.diff(adapted.offsets),
                              [s[0].features.values.shape[0]
                               for s in singles])
        assert stacked_rng.uniform() == single_rng.uniform()
        surrogate = factor.z_tilde if mode == TRAIN else factor.p
        fallbacks += sum(not (part > 0.5).any() for part in np.split(
            surrogate.values[:, 0], np.cumsum(widths)[:-1]))
    assert fallbacks > 0  # the per-key fallback was exercised


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
