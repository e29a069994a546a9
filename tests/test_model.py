"""End-to-end model: dictionary init, forward pass, loss, checkpoints."""

import re

import numpy as np
import pytest

from graphdict import tensor as T
from graphdict import vgda
from graphdict.data import LabeledGraph
from graphdict.errors import ConfigError, FormatError, NumericsError
from graphdict.model import (CHECKPOINT_FORMAT_VERSION, ForwardOverrides,
                             ForwardResult, LossConfig, GraphDictionaryModel,
                             ModelConfig, init_base_dictionary,
                             load_checkpoint, save_checkpoint)
from graphdict.training import Adam
from conftest import (build_tiny_model, make_synthetic_bundle,
                      rewrite_checkpoint, tiny_graph_pair)


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
                         h_matrix=None, h_hat=None, alpha=None,
                         diagnostics=None)


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
    masks = [np.ones(key.node_count, dtype=bool)
             for key in model.dictionary.keys]
    overridden = model.forward(prepared[0], vgda.EVAL,
                               overrides=ForwardOverrides(masks=masks))
    plain = model.forward(prepared[0], vgda.EVAL, use_vgda=False)
    assert np.array_equal(overridden.h_matrix.values, plain.h_matrix.values)
    assert np.array_equal(overridden.probabilities.values,
                          plain.probabilities.values)


def test_padded_copies_predict_identically():
    g0, g1 = tiny_graph_pair()
    base_cfg = dict(num_classes=2, feature_scheme="node-label-onehot",
                    feature_dim=2, num_keys=2, encoder_dims=(8, 8, 8),
                    head_hidden=8, sinkhorn_max_iter=200, sinkhorn_tol=1e-6,
                    loss=LossConfig(beta=0.001, p_hat=0.5,
                                    lambdas=(0.5, 5.0)))
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
    masks = [np.ones(key.node_count, dtype=bool)
             for key in model.dictionary.keys]
    overrides = ForwardOverrides(masks=masks)
    first = model.forward(prepared[1], vgda.TRAIN, overrides=overrides)
    second = model.forward(prepared[1], vgda.TRAIN, overrides=overrides)
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
            results = [model.forward(g, vgda.TRAIN, rng=rng, collect=True)
                       for g in prepared]
            loss = model.batch_loss(results, labels)
            tape.backward(loss)
        before = loss.values.item()
        frozen_masks = [r.diagnostics.masks for r in results]
        optimizer.step()

        with T.Tape():
            model.refresh_key_encodings()
            again = [model.forward(g, vgda.TRAIN,
                                   overrides=ForwardOverrides(masks=masks))
                     for g, masks in zip(prepared, frozen_masks)]
            after = model.batch_loss(again, labels).values.item()
        failures += after >= before
    assert failures <= 2


def test_diagnostics_collection_shapes():
    model, prepared = build_tiny_model()
    model.refresh_key_encodings()
    result = model.forward(prepared[1], vgda.EVAL, collect=True)
    diag = result.diagnostics
    n_keys = len(model.dictionary.keys)
    n_lams = len(model.config.loss.lambdas)
    assert len(diag.sampling_probabilities) == n_keys
    assert len(diag.masks) == n_keys
    assert len(diag.costs) == len(diag.plan_stacks) == n_keys
    for key, probs, mask, cost, stack in zip(
            model.dictionary.keys, diag.sampling_probabilities, diag.masks,
            diag.costs, diag.plan_stacks):
        assert probs.shape == (key.node_count,)
        assert mask.shape == (key.node_count,)
        assert mask.sum() >= 1
        assert cost.shape == (prepared[1].node_count, int(mask.sum()))
        assert stack.shape == (n_lams,) + cost.shape
    assert diag.h_matrix.shape == (n_keys, n_lams)
    assert diag.alpha.shape == (n_lams,)
    assert abs(diag.alpha.sum() - 1.0) <= 1e-9
    assert diag.probabilities.shape == (2,)
    assert diag.kl >= 0.0


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
                         loss=LossConfig(lambdas=(0.01, 1.0, 100.0, 1e4)))
    model = GraphDictionaryModel.build(config, graphs,
                                       np.random.default_rng(5))
    model.vgda_params.w_r.values[:] = 50.0
    model.refresh_key_encodings()
    for graph in graphs:
        prepared = model.prepare(graph)
        diag = model.forward(prepared, mode, rng=rng,
                             collect=True).diagnostics
        n = prepared.node_count
        for stack, mask in zip(diag.plan_stacks, diag.masks):
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
