"""End-to-end model: dictionary init, forward pass, loss, checkpoints."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphdict import mswe, tensor as T
from graphdict import vgda
from graphdict.data import LabeledGraph, featurize, normalize_adjacency
from graphdict.encoder import encode
from graphdict.errors import ConfigError, FormatError, NumericsError
from graphdict.model import (CHECKPOINT_FORMAT_VERSION, ForwardResult,
                             GraphDictionaryModel, ModelConfig,
                             init_base_dictionary, load_checkpoint,
                             save_checkpoint)
from graphdict.training import Adam
from conftest import (build_tiny_model, make_synthetic_bundle,
                      path_adjacency, rewrite_checkpoint, tiny_graph_pair)


# --- dictionary initialization ----------------------------------------------

def test_dictionary_round_robin_balances_classes():
    graphs = make_synthetic_bundle(count=24).graphs
    dictionary = init_base_dictionary(graphs, 14, 0, "degree-onehot", 7)
    classes = [key.source_class for key in dictionary.keys]
    assert len(dictionary) == 14
    assert classes.count(0) == 7 and classes.count(1) == 7
    assert [key.key_id for key in dictionary.keys] == list(range(14))


def test_dictionary_two_keys_one_per_class():
    graphs = make_synthetic_bundle(count=8).graphs
    dictionary = init_base_dictionary(graphs, 2, 3, "degree-onehot", 7)
    assert sorted(key.source_class for key in dictionary.keys) == [0, 1]


def test_dictionary_seeded_identically():
    graphs = make_synthetic_bundle(count=12).graphs
    first = init_base_dictionary(graphs, 6, 42, "degree-onehot", 7)
    second = init_base_dictionary(graphs, 6, 42, "degree-onehot", 7)
    for a, b in zip(first.keys, second.keys):
        assert np.array_equal(a.adjacency, b.adjacency)
        assert np.array_equal(a.features.values, b.features.values)
        assert a.source_class == b.source_class


def test_dictionary_size_validation():
    graphs = make_synthetic_bundle(count=6).graphs
    with pytest.raises(ConfigError):
        init_base_dictionary(graphs, 7, 0, "degree-onehot", 7)
    with pytest.raises(ConfigError):
        init_base_dictionary(graphs, 0, 0, "degree-onehot", 7)


def test_dictionary_adjacency_fixed_and_features_trainable():
    graphs = make_synthetic_bundle(count=8).graphs
    dictionary = init_base_dictionary(graphs, 4, 1, "degree-onehot", 7)
    for key in dictionary.keys:
        assert not isinstance(key.adjacency, T.Tensor)
        assert key.features.requires_grad
        assert key.a_hat.shape == key.adjacency.shape


# --- loss -------------------------------------------------------------------

def fixed_result(probabilities, kl):
    probs = T.Tensor(np.asarray(probabilities, dtype=float)[None, :])
    return ForwardResult(probabilities=probs, kl=T.constant(kl),
                         h_matrix=None, h_hat=None, alpha=None)


def test_loss_zero_for_perfect_confidence_without_penalty():
    model, _ = build_tiny_model(beta=0.0)
    loss = model.loss(fixed_result([1.0, 0.0], 5.0), 0)
    assert loss.values.item() == 0.0


def test_loss_is_pure_cross_entropy_at_zero_beta():
    model, _ = build_tiny_model(beta=0.0)
    loss = model.loss(fixed_result([0.25, 0.75], 123.0), 1)
    assert abs(loss.values.item() + np.log(0.75)) <= 1e-12


def test_loss_pinned_composite_value():
    model, _ = build_tiny_model(beta=0.001)
    loss = model.loss(fixed_result([0.5, 0.5], 2.0), 0)
    assert abs(loss.values.item() - 0.6951) <= 1e-4


def test_loss_label_validation():
    model, _ = build_tiny_model()
    result = fixed_result([0.5, 0.5], 0.0)
    with pytest.raises(ConfigError):
        model.loss(result, 2)
    with pytest.raises(ConfigError):
        model.loss(result, -1)


def test_forward_loss_nonnegative_and_probabilities_normalized():
    model, prepared = build_tiny_model()
    model.refresh_key_encodings()
    rng = np.random.default_rng(0)
    for graph in prepared:
        result = model.forward(graph, vgda.TRAIN, rng=rng)
        assert abs(result.probabilities.values.sum() - 1.0) <= 1e-9
        assert result.kl.values.item() >= 0.0
        loss = model.loss(result, graph.label)
        assert loss.values.item() >= 0.0


# --- forward-pass contracts ---------------------------------------------------

def test_eval_forward_is_bit_deterministic():
    model, prepared = build_tiny_model()
    model.refresh_key_encodings()
    first = model.forward(prepared[0], vgda.EVAL)
    second = model.forward(prepared[0], vgda.EVAL)
    assert np.array_equal(first.probabilities.values,
                          second.probabilities.values)
    assert np.array_equal(first.h_matrix.values, second.h_matrix.values)


def test_forced_full_masks_match_sampling_free_pipeline():
    model, prepared = build_tiny_model(beta=0.0)
    model.refresh_key_encodings()
    masks = np.ones(model.dictionary.offsets[-1], dtype=bool)
    overridden = model.forward(prepared[0], vgda.EVAL, masks=masks)
    plain = model.forward(prepared[0], vgda.EVAL, use_vgda=False)
    assert np.array_equal(overridden.h_matrix.values, plain.h_matrix.values)
    assert np.array_equal(overridden.probabilities.values,
                          plain.probabilities.values)


@pytest.mark.parametrize("change, message", [
    ({"beta": -0.1}, "beta must be >= 0"),
    ({"p_hat": 0.0}, r"p_hat must lie in \(0, 1\)"),
    ({"p_hat": 1.0}, r"p_hat must lie in \(0, 1\)"),
])
def test_model_config_checks_loss_ranges(change, message):
    base = dict(num_classes=2, feature_scheme="degree-onehot", feature_dim=3,
                n_padded=5)
    with pytest.raises(ConfigError, match=message):
        ModelConfig(**base, **change)


def test_padded_copies_predict_identically():
    g0, g1 = tiny_graph_pair()
    base_cfg = dict(num_classes=2, feature_scheme="node-label-onehot",
                    feature_dim=2, num_keys=2, encoder_dims=(8, 8, 8),
                    head_hidden=8, sinkhorn_max_iter=200, sinkhorn_tol=1e-6,
                    beta=0.001, p_hat=0.5, lambdas=(0.5, 5.0))
    small = GraphDictionaryModel.build(
        ModelConfig(n_padded=5, **base_cfg), [g0, g1],
        np.random.default_rng(7))
    large = GraphDictionaryModel.build(
        ModelConfig(n_padded=8, **base_cfg), [g0, g1],
        np.random.default_rng(7))
    # align every weight; the extra projection entries stay arbitrary
    for dst, src in zip(large.encoder_input.weights,
                        small.encoder_input.weights):
        dst.values[:] = src.values
    for dst, src in zip(large.encoder_dict.weights,
                        small.encoder_dict.weights):
        dst.values[:] = src.values
    for dst, src in zip(large.dictionary.keys, small.dictionary.keys):
        dst.features.values[:] = src.features.values
    large.vgda_params.w_r.values[:5] = small.vgda_params.w_r.values
    large.w_m.values[:] = small.w_m.values
    large.head.w1.values[:] = small.head.w1.values
    large.head.w2.values[:] = small.head.w2.values

    small.refresh_key_encodings()
    large.refresh_key_encodings()
    for graph in (g0, g1):
        p_small = small.forward(small.prepare(graph), vgda.EVAL)
        p_large = large.forward(large.prepare(graph), vgda.EVAL)
        assert np.allclose(p_small.probabilities.values,
                           p_large.probabilities.values, atol=1e-12)
        assert np.allclose(p_small.h_matrix.values, p_large.h_matrix.values,
                           atol=1e-12)


OWN_SIZE_PAD = 13


def _own_size_model():
    """A model whose padded size (13) matches no other row count it makes.

    Keys of 3, 4 and 5 nodes stack 12 rows; K=3, C=2 and the layer widths
    never make 13 rows either, so a 13-row tape node could only be padding.
    No two key nodes encode alike (a 2-node key would), so no tie between
    sampling probabilities leaves the fallback node to rounding.
    """
    graphs = [LabeledGraph(adjacency=path_adjacency(n), class_label=n % 2,
                           node_labels=np.arange(n) % 4) for n in (3, 4, 5)]
    config = ModelConfig(num_classes=2, feature_scheme="node-label-onehot",
                         feature_dim=4, n_padded=OWN_SIZE_PAD, num_keys=3,
                         encoder_dims=(8, 8, 8), head_hidden=6,
                         lambdas=(0.5, 5.0))
    model = GraphDictionaryModel.build(config, graphs,
                                       np.random.default_rng(2))
    model.vgda_params.w_r.values[:] = np.random.default_rng(3).normal(
        0.0, 2.0, size=(OWN_SIZE_PAD, 1))  # mixed masks
    model.refresh_key_encodings()
    return model


def _random_graph(n, density, seed):
    """An n-node graph with edge density ``density`` and labels in [0, 4)."""
    data = np.random.default_rng(seed)
    upper = np.triu(data.uniform(size=(n, n)) < density, 1).astype(float)
    return LabeledGraph(adjacency=upper + upper.T, class_label=0,
                        node_labels=data.integers(0, 4, size=n))


def _padded_reference(model, graph, mode, rng):
    """The forward pass on inputs zero-padded to ``n_padded`` rows:
    encode the padded graph, keep rows [:n] for transport, and score key
    nodes through the full ``w_r``."""
    cfg = model.config
    n, size = graph.node_count, cfg.n_padded
    features = np.zeros((size, cfg.feature_dim))
    features[:n] = featurize(graph, cfg.feature_scheme, cfg.feature_dim)
    adjacency = np.zeros((size, size))
    adjacency[:n, :n] = graph.adjacency
    f_full = encode(features, normalize_adjacency(adjacency),
                    model.encoder_input)
    keys = model.dictionary
    adapted, factor, kl = vgda.adapt_keys(
        f_full, keys.encoded, keys.offsets, model.vgda_params.w_r, mode,
        rng=rng, temperature=cfg.temperature, p_hat=cfg.p_hat)
    h_matrix, _, _ = mswe.embed_keys_multi(
        T.row_select(f_full, np.arange(size) < n), adapted, cfg.lambdas,
        max_iter=cfg.sinkhorn_max_iter, tol=cfg.sinkhorn_tol)
    h_hat, _ = mswe.aggregate_attention_matrix(h_matrix, model.w_m)
    hidden = T.relu(T.matmul(T.transpose(h_hat), model.head.w1))
    probabilities = T.row_softmax(T.matmul(hidden, model.head.w2))
    return probabilities, h_matrix, kl, factor.z


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, OWN_SIZE_PAD), density=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1), mode=st.sampled_from([vgda.TRAIN,
                                                              vgda.EVAL]))
def test_own_size_forward_matches_padded_reference(n, density, seed, mode):
    model = _own_size_model()
    w_r = model.vgda_params.w_r
    graph = _random_graph(n, density, seed)
    prepared = model.prepare(graph)
    assert prepared.features.shape == (n, 4)
    assert prepared.a_hat.shape == (n, n)

    def run(forward):
        w_r.zero_grad()
        with T.Tape() as tape:
            probabilities, h_matrix, kl, mask = forward(
                np.random.default_rng(seed))
            tape.backward(model.loss(ForwardResult(
                probabilities, kl, h_matrix, h_hat=None, alpha=None), 0))
        values = [t.values for t in (probabilities, h_matrix, kl)]
        return values, mask, w_r.grad.copy(), tape

    def own_size(rng):
        result = model.forward(prepared, mode, rng=rng)
        return (result.probabilities, result.h_matrix, result.kl,
                result.factor.z)

    values, mask, grad, tape = run(own_size)
    want_values, want_mask, want_grad, _ = run(
        lambda rng: _padded_reference(model, graph, mode, rng))
    for got, want in zip(values, want_values):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    assert np.array_equal(mask, want_mask)
    np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-12)
    assert not grad[n:].any()  # positions past the input get no gradient
    if n < OWN_SIZE_PAD:
        assert all(out.values.shape[0] != OWN_SIZE_PAD
                   for out, _, _ in tape.nodes)


def test_parameter_partition_is_exhaustive_and_disjoint():
    model, _ = build_tiny_model()
    phi = model.phi_parameters()
    psi = model.psi_parameters()
    assert {id(p) for p in phi}.isdisjoint({id(p) for p in psi})
    assert phi == [model.vgda_params.w_r]
    reachable = ([*model.encoder_input.weights]
                 + [key.features for key in model.dictionary.keys]
                 + [model.w_m, model.head.w1, model.head.w2,
                    model.vgda_params.w_r])
    assert {id(p) for p in model.parameters()} == {id(p) for p in reachable}
    assert all(p.requires_grad for p in model.parameters())
    assert all(not w.requires_grad for w in model.momentum_parameters())


def test_mask_overrides_make_train_mode_deterministic_without_rng():
    model, prepared = build_tiny_model()
    model.refresh_key_encodings()
    masks = np.ones(model.dictionary.offsets[-1], dtype=bool)
    first = model.forward(prepared[1], vgda.TRAIN, masks=masks)
    second = model.forward(prepared[1], vgda.TRAIN, masks=masks)
    assert np.array_equal(first.probabilities.values,
                          second.probabilities.values)


def test_single_optimizer_step_reduces_loss():
    # the sampled masks from the first pass are frozen for the re-evaluation
    # so both losses measure the same objective; a tiny learning rate makes a
    # decrease overwhelmingly likely but not certain, hence the failure budget
    failures = 0
    for seed in range(20):
        model, prepared = build_tiny_model(seed=seed)
        optimizer = Adam(model.parameters(), lr=1e-5)
        rng = np.random.default_rng(1000 + seed)
        labels = [g.label for g in prepared]

        with T.Tape() as tape:
            model.refresh_key_encodings()
            results = [model.forward(g, vgda.TRAIN, rng=rng)
                       for g in prepared]
            loss = model.batch_loss(results, labels)
            tape.backward(loss)
        before = loss.values.item()
        optimizer.step()

        with T.Tape():
            model.refresh_key_encodings()
            again = [model.forward(g, vgda.TRAIN, masks=r.factor.z)
                     for g, r in zip(prepared, results)]
            after = model.batch_loss(again, labels).values.item()
        failures += after >= before
    assert failures <= 2


def test_forward_record_shapes():
    model, prepared = build_tiny_model()
    model.refresh_key_encodings()
    result = model.forward(prepared[1], vgda.EVAL)
    offsets = model.dictionary.offsets
    n = prepared[1].node_count
    n_keys = len(model.dictionary.keys)
    n_lams = len(model.config.lambdas)
    z = result.factor.z
    assert result.factor.p.values.shape == (offsets[-1], 1)
    assert z.shape == (offsets[-1],)
    assert np.logical_or.reduceat(z, offsets[:-1]).all()
    selected = np.add.reduceat(z, offsets[:-1])
    assert np.array_equal(result.plans.offsets,
                          np.concatenate(([0], np.cumsum(selected))))
    assert result.cost.values.shape == (n, int(z.sum()))
    assert result.plans.values.shape == (n_keys, n_lams, n, selected.max())
    stacks = result.plans.per_key()
    assert len(stacks) == n_keys
    for stack, m in zip(stacks, selected):
        assert stack.shape == (n_lams, n, m)
    assert result.h_matrix.values.shape == (n_keys, n_lams)
    assert result.alpha.values.shape == (1, n_lams)
    assert abs(result.alpha.values.sum() - 1.0) <= 1e-9
    assert result.probabilities.values.shape == (1, 2)
    assert result.kl.item() >= 0.0


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, OWN_SIZE_PAD), density=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1), mode=st.sampled_from([vgda.TRAIN,
                                                              vgda.EVAL]))
def test_frozen_record_state_reproduces_the_forward(n, density, seed, mode):
    # the masks and plans a forward returns, passed back in as they are,
    # give the same pass without sampling or solving
    model = _own_size_model()
    prepared = model.prepare(_random_graph(n, density, seed))
    first = model.forward(prepared, mode, rng=np.random.default_rng(seed))
    frozen = model.forward(prepared, mode, masks=first.factor.z,
                           plans=first.plans.values)
    for name in ("probabilities", "h_matrix", "h_hat", "kl"):
        assert np.array_equal(getattr(first, name).values,
                              getattr(frozen, name).values), name
    assert frozen.plans is None
    assert frozen.factor.z_tilde is None
    assert np.array_equal(frozen.factor.z, first.factor.z)
    assert first.cost.values.shape == (n, first.plans.offsets[-1])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("mode", [vgda.TRAIN, vgda.EVAL])
@pytest.mark.parametrize("max_iter", [3, 200])
def test_every_forward_plan_meets_its_marginals(mode, max_iter):
    # random graphs give ragged keys and uneven costs: with the masks held
    # open, some slices take the log domain and some hit the cap at 3
    rng = np.random.default_rng(8)
    graphs = []
    for i in range(10):
        n = int(rng.integers(5, 10))
        raw = np.triu((rng.uniform(size=(n, n)) < 0.4).astype(float), 1)
        graphs.append(LabeledGraph(adjacency=raw + raw.T, class_label=i % 2))
    config = ModelConfig(num_classes=2, feature_scheme="degree-onehot",
                         feature_dim=7, n_padded=9, num_keys=6,
                         encoder_dims=(8, 8, 8), head_hidden=8,
                         sinkhorn_max_iter=max_iter,
                         lambdas=(0.01, 1.0, 100.0, 1e4))
    model = GraphDictionaryModel.build(config, graphs,
                                       np.random.default_rng(5))
    model.vgda_params.w_r.values[:] = 50.0
    model.refresh_key_encodings()
    for graph in graphs:
        prepared = model.prepare(graph)
        result = model.forward(prepared, mode, rng=rng)
        n = prepared.node_count
        for stack, mask in zip(result.plans.per_key(), np.split(
                result.factor.z, model.dictionary.offsets[1:-1])):
            m = int(mask.sum())
            assert stack.shape == (4, n, m)
            assert (stack >= 0.0).all()
            assert np.abs(stack.sum(axis=2) - 1.0 / n).max() <= 1e-12
            assert np.abs(stack.sum(axis=1) - 1.0 / m).max() <= 1e-12


# --- checkpointing ----------------------------------------------------------

def test_checkpoint_roundtrip_bit_exact(tmp_path):
    model, prepared = build_tiny_model()
    path = tmp_path / "model.npz"
    save_checkpoint(model, path)
    restored = load_checkpoint(path)
    assert restored.config == model.config
    for a, b in zip(model.parameters(), restored.parameters()):
        assert np.array_equal(a.values, b.values)
    for a, b in zip(model.momentum_parameters(),
                    restored.momentum_parameters()):
        assert np.array_equal(a.values, b.values)
    for ka, kb in zip(model.dictionary.keys, restored.dictionary.keys):
        assert np.array_equal(ka.adjacency, kb.adjacency)
        assert ka.source_class == kb.source_class
    model.refresh_key_encodings()
    restored.refresh_key_encodings()
    for graph in prepared:
        assert np.array_equal(model.predict(graph),
                              restored.predict(graph))


@pytest.mark.parametrize("name", ["enc_input_0", "enc_input_2", "enc_dict_1",
                                  "key_0_adjacency", "key_1_features", "w_r",
                                  "w_m", "head_w1", "head_w2"])
@pytest.mark.parametrize("edit", ["short", "wide", "nan", "inf"])
def test_checkpoint_rejects_misshapen_or_nonfinite_arrays(tmp_path, name,
                                                          edit):
    change = {"short": lambda x: x[:-1],
              "wide": lambda x: np.hstack([x, x[:, :1]]),
              "nan": lambda x: np.where(x == x.flat[0], np.nan, x),
              "inf": lambda x: np.full_like(x, np.inf, dtype=float)}[edit]
    path = rewrite_checkpoint(tmp_path, name, change)
    with pytest.raises(FormatError, match=f"{path}.*'{name}'"):
        load_checkpoint(path)


def test_checkpoint_stores_its_format_version(tmp_path):
    path = tmp_path / "model.npz"
    save_checkpoint(build_tiny_model()[0], path)
    with np.load(path) as data:
        assert data["format_version"].tolist() == [CHECKPOINT_FORMAT_VERSION]


@pytest.mark.parametrize("change, message", [
    (lambda version: None, "has no format_version"),
    (lambda version: version + 1,
     f"has format_version {CHECKPOINT_FORMAT_VERSION + 1};"),
], ids=["missing", "unknown"])
def test_checkpoint_rejects_missing_or_unknown_format_version(tmp_path,
                                                              change,
                                                              message):
    path = rewrite_checkpoint(tmp_path, "format_version", change)
    with pytest.raises(FormatError,
                       match=re.escape(f"checkpoint {path} {message}")):
        load_checkpoint(path)


# --- numerics ---------------------------------------------------------------

@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("mode", [vgda.TRAIN, vgda.EVAL])
def test_overflowing_encoder_raises_numerics_error(mode):
    """Op outputs are not scanned when built, so the first consumer of a
    non-finite value outside the tape must check it."""
    model, prepared = build_tiny_model()
    for w in model.encoder_input.weights:
        w.values *= 1e200
    model.refresh_key_encodings()
    with pytest.raises(NumericsError, match="sampling probabilities"):
        model.forward(prepared[1], mode, rng=np.random.default_rng(0))
