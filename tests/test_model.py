"""End-to-end model: dictionary init, forward pass, loss, checkpoints."""

import json
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphdict import mswe, tensor as T
from graphdict import vgda
from graphdict.data import LabeledGraph, featurize, normalize_adjacency
from graphdict.encoder import encode
from graphdict.errors import (ConfigError, FormatError, IoError, NumericsError,
                              ShapeError)
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
    classes = dictionary.source_class
    assert len(dictionary) == 14
    assert classes.count(0) == 7 and classes.count(1) == 7


def test_dictionary_two_keys_one_per_class():
    graphs = make_synthetic_bundle(count=8).graphs
    dictionary = init_base_dictionary(graphs, 2, 3, "degree-onehot", 7)
    assert sorted(dictionary.source_class) == [0, 1]


def test_dictionary_seeded_identically():
    graphs = make_synthetic_bundle(count=12).graphs
    first = init_base_dictionary(graphs, 6, 42, "degree-onehot", 7)
    second = init_base_dictionary(graphs, 6, 42, "degree-onehot", 7)
    assert len(first) == len(second) == 6
    for a, b in zip(first.adjacency, second.adjacency):
        assert np.array_equal(a, b)
    for a, b in zip(first.features, second.features):
        assert np.array_equal(a.values, b.values)
    assert first.source_class == second.source_class


def _rotation_reference(graphs, k, seed):
    """Source graph indices of the keys, dealt by visiting the classes in
    sorted order and popping each shuffled pool until k keys are dealt."""
    rng = np.random.default_rng(seed)
    pools = {}
    for idx, graph in enumerate(graphs):
        pools.setdefault(graph.class_label, []).append(idx)
    for cls in sorted(pools):
        pool = np.asarray(pools[cls], dtype=np.int64)
        rng.shuffle(pool)
        pools[cls] = list(pool)
    dealt = []
    while len(dealt) < k:
        for cls in sorted(pools):
            if pools[cls] and len(dealt) < k:
                dealt.append(pools[cls].pop())
    return dealt


def test_dictionary_deals_the_rotation_order():
    # every graph its own size; 3 classes of 7, 4 and 2 graphs, so pools
    # run out at different turns
    classes = [0, 1, 0, 2, 0, 1, 0, 0, 1, 2, 0, 1, 0]
    graphs = [LabeledGraph(adjacency=path_adjacency(n), class_label=c)
              for n, c in zip(range(2, 15), classes)]
    for seed in range(10):
        for k in (1, 2, 5, 12, len(graphs)):
            dictionary = init_base_dictionary(graphs, k, seed,
                                              "degree-onehot", 7)
            want = _rotation_reference(graphs, k, seed)
            assert len(dictionary) == k
            assert dictionary.source_class == [graphs[idx].class_label
                                               for idx in want]
            assert list(dictionary.offsets) == [0, *np.cumsum(
                [graphs[idx].node_count for idx in want])]
            for j, idx in enumerate(want):
                assert np.array_equal(dictionary.adjacency[j],
                                      graphs[idx].adjacency)
                assert np.array_equal(
                    dictionary.a_hat[j],
                    normalize_adjacency(graphs[idx].adjacency))


def test_dictionary_size_validation():
    graphs = make_synthetic_bundle(count=6).graphs
    for k, message in [
            (7, "dictionary size 7 exceeds the 6 available training graphs"),
            (0, "dictionary size must be >= 1, got 0"),
            (2.5, "dictionary size must be an integer, got 2.5")]:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            init_base_dictionary(graphs, k, 0, "degree-onehot", 7)


def test_dictionary_adjacency_fixed_and_features_trainable():
    graphs = make_synthetic_bundle(count=8).graphs
    dictionary = init_base_dictionary(graphs, 4, 1, "degree-onehot", 7)
    assert len(dictionary.adjacency) == len(dictionary.features) == 4
    for adjacency, features, a_hat in zip(
            dictionary.adjacency, dictionary.features, dictionary.a_hat):
        assert not isinstance(adjacency, T.Tensor)
        assert features.requires_grad
        assert a_hat.shape == adjacency.shape


# --- loss -------------------------------------------------------------------

def fixed_result(probabilities, p=None):
    """A record of one probability row per graph and, when ``p`` is given,
    the sampling probabilities of a VGDA pass (one column per graph)."""
    probs = T.Tensor(np.atleast_2d(np.asarray(probabilities, dtype=float)))
    factor = None if p is None else vgda.SamplingFactor(
        p=T.constant(np.asarray(p, dtype=float)),
        z=np.asarray(p) > 0.5, z_tilde=None)
    return ForwardResult(probabilities=probs, h_matrix=None, h_hat=None,
                         alpha=None, factor=factor)


def test_loss_zero_for_perfect_confidence_without_penalty():
    model, _ = build_tiny_model(beta=0.0)
    loss = model.batch_loss(fixed_result([1.0, 0.0], [[0.99], [0.01]]), [0])
    assert loss.values.item() == 0.0


def test_loss_is_pure_cross_entropy_at_zero_beta():
    model, _ = build_tiny_model(beta=0.0)
    loss = model.batch_loss(fixed_result([0.25, 0.75], [[0.99], [0.01]]),
                            [1])
    assert abs(loss.values.item() + np.log(0.75)) <= 1e-12


def test_loss_pinned_composite_value():
    # -log 0.5 + 0.001 * KL(Bernoulli(0.5) || Bernoulli(0.99)); the KL term
    # adds 1.6e-3, far above the tolerance
    kl = 0.5 * np.log(0.5 / 0.99) + 0.5 * np.log(0.5 / 0.01)
    model, _ = build_tiny_model(beta=0.001)
    loss = model.batch_loss(fixed_result([0.5, 0.5], [[0.99]]), [0])
    assert abs(loss.values.item() - 0.694762) <= 1e-6
    assert abs(loss.values.item() - (-np.log(0.5) + 0.001 * kl)) <= 1e-12


def test_loss_label_validation():
    model, _ = build_tiny_model()
    result = fixed_result([0.5, 0.5])
    with pytest.raises(ConfigError):
        model.batch_loss(result, [2])
    with pytest.raises(ConfigError):
        model.batch_loss(result, [-1])
    # every label is checked, not only the first
    with pytest.raises(ConfigError, match="label 2 outside"):
        model.batch_loss(fixed_result([[0.5, 0.5]] * 2), [0, 2])
    with pytest.raises(ShapeError):  # one label per graph
        model.batch_loss(result, [0, 1])


@pytest.mark.parametrize("labels", [[0], [], [0, 1, 1]])
def test_batch_loss_needs_one_label_per_probability_row(labels):
    model, _ = build_tiny_model()
    result = fixed_result([[0.5, 0.5]] * 2)
    with pytest.raises(ShapeError, match=f"{len(labels)} labels for 2 "
                       "probability rows"):
        model.batch_loss(result, labels)


def test_batch_loss_matches_the_per_graph_formula_bit_for_bit():
    beta = 0.37
    model, _ = build_tiny_model(beta=beta)
    rng = np.random.default_rng(11)
    rows = rng.dirichlet(np.ones(2), size=6)
    rows[4] = [1e-15, 1.0 - 1e-15]     # p[y] under the 1e-12 clamp
    labels = [0, 1, 1, 0, 0, 1]
    p_hat = model.config.p_hat
    sampling = rng.uniform(0.05, 0.95, size=(5, 6))
    kls = vgda.bernoulli_kl(p_hat, T.constant(sampling)).values[:, 0]
    probabilities = T.Tensor(rows, requires_grad=True)
    p = T.Tensor(sampling, requires_grad=True)
    result = ForwardResult(probabilities=probabilities, h_matrix=None,
                           h_hat=None, alpha=None, factor=vgda.SamplingFactor(
                               p=p, z=sampling > 0.5, z_tilde=None))
    with T.Tape() as tape:
        loss = model.batch_loss(result, labels)
        tape.backward(loss)

    per_graph = np.asarray(
        [[-np.log(max(row[y], 1e-12)) + beta * kl]
         for row, y, kl in zip(rows, labels, kls)])
    assert loss.values.tobytes() == np.full((1, 1), per_graph.mean()).tobytes()
    weight = 1.0 / len(rows)
    for row, y, grad in zip(rows, labels, probabilities.grad):
        want = np.zeros(2)
        if row[y] >= 1e-12:
            want[y] = -weight / row[y]
        assert np.array_equal(grad, want)
    # each graph's KL column, weighted by beta over the batch
    assert p.grad.tobytes() == (np.full((1, 6), weight * beta) * (
        -p_hat / sampling + (1.0 - p_hat) / (1.0 - sampling))).tobytes()


@pytest.mark.parametrize("mode", [vgda.TRAIN, vgda.EVAL])
def test_forward_leaves_the_kl_to_the_loss(monkeypatch, mode):
    model, prepared = build_tiny_model()
    calls = []
    kl_sum = T.bernoulli_kl_sum
    monkeypatch.setattr(T, "bernoulli_kl_sum",
                        lambda *args: calls.append(args) or kl_sum(*args))
    labels = [p.label for p in prepared]
    with T.Tape() as tape:
        model.refresh_key_encodings()
        result = model.forward(prepared, mode, rng=np.random.default_rng(0))
        assert calls == []
        recorded = len(tape.nodes)
        model.batch_loss(result, labels)
    assert len(calls) == 1
    assert [fn.__qualname__.split(".")[0] for _, _, fn in
            tape.nodes[recorded:]].count("bernoulli_kl_sum") == 1
    assert "kl" not in {f.name for f in fields(ForwardResult)}


def _cross_entropy(probabilities, labels):
    """Mean of -log p[label] over the rows, p clamped at 1e-12."""
    p_true = probabilities[np.arange(len(labels)), labels]
    return np.mean(-np.log(np.maximum(p_true, 1e-12)))


def test_batch_loss_without_a_kl_term_is_the_cross_entropy():
    labels = [0, 1]
    # no VGDA: no KL, whatever beta is
    model, prepared = build_tiny_model(beta=0.5)
    model.refresh_key_encodings()
    plain = model.forward(prepared, vgda.EVAL, use_vgda=False)
    loss = model.batch_loss(plain, labels).item()
    assert loss == _cross_entropy(plain.probabilities.values, labels)
    # VGDA at beta = 0: the KL weighs nothing
    model, prepared = build_tiny_model(beta=0.0)
    model.refresh_key_encodings()
    adapted = model.forward(prepared, vgda.TRAIN,
                            rng=np.random.default_rng(0))
    loss = model.batch_loss(adapted, labels).item()
    assert loss == _cross_entropy(adapted.probabilities.values, labels)


def test_forward_loss_nonnegative_and_probabilities_normalized():
    model, prepared = build_tiny_model()
    model.refresh_key_encodings()
    rng = np.random.default_rng(0)
    for graph in prepared:
        result = model.forward([graph], vgda.TRAIN, rng=rng)
        assert abs(result.probabilities.values.sum() - 1.0) <= 1e-9
        loss = model.batch_loss(result, [graph.label])
        assert loss.values.item() >= 0.0


# --- forward-pass contracts ---------------------------------------------------

def test_eval_forward_is_bit_deterministic():
    model, prepared = build_tiny_model()
    model.refresh_key_encodings()
    first = model.forward([prepared[0]], vgda.EVAL)
    second = model.forward([prepared[0]], vgda.EVAL)
    assert np.array_equal(first.probabilities.values,
                          second.probabilities.values)
    assert np.array_equal(first.h_matrix[0].values,
                          second.h_matrix[0].values)


def test_forced_full_masks_match_sampling_free_pipeline():
    model, prepared = build_tiny_model(beta=0.0)
    model.refresh_key_encodings()
    masks = np.ones(model.dictionary.offsets[-1], dtype=bool)
    overridden = model.forward([prepared[0]], vgda.EVAL, masks=masks)
    plain = model.forward([prepared[0]], vgda.EVAL, use_vgda=False)
    assert np.array_equal(overridden.h_matrix[0].values,
                          plain.h_matrix[0].values)
    assert np.array_equal(overridden.probabilities.values,
                          plain.probabilities.values)


@pytest.mark.parametrize("change, message", [
    ({"beta": -0.1}, "beta must be finite and >= 0"),
    ({"p_hat": 0.0}, r"p_hat must lie in \(0, 1\)"),
    ({"p_hat": 1.0}, r"p_hat must lie in \(0, 1\)"),
    ({"encoder_dims": (4, 4.5)},
     r"^encoder_dims\[1\] must be an integer, got 4\.5$"),
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
    for dst, src in zip(large.encoder_input, small.encoder_input):
        dst.values[:] = src.values
    for dst, src in zip(large.encoder_dict, small.encoder_dict):
        dst.values[:] = src.values
    for dst, src in zip(large.dictionary.features, small.dictionary.features):
        dst.values[:] = src.values
    large.w_r.values[:5] = small.w_r.values
    large.w_m.values[:] = small.w_m.values
    large.head_w1.values[:] = small.head_w1.values
    large.head_w2.values[:] = small.head_w2.values

    small.refresh_key_encodings()
    large.refresh_key_encodings()
    for graph in (g0, g1):
        p_small = small.forward([small.prepare(graph)], vgda.EVAL)
        p_large = large.forward([large.prepare(graph)], vgda.EVAL)
        assert np.allclose(p_small.probabilities.values,
                           p_large.probabilities.values, atol=1e-12)
        assert np.allclose(p_small.h_matrix[0].values,
                           p_large.h_matrix[0].values, atol=1e-12)


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
    model.w_r.values[:] = np.random.default_rng(3).normal(
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
    adapted, factor = vgda.adapt_keys(
        f_full, keys.encoded, keys.offsets, model.w_r, mode,
        rng=rng, temperature=cfg.temperature)
    h_matrix, _, _ = mswe.embed_keys_multi(
        T.row_select(f_full, np.arange(size) < n), adapted[0], cfg.lambdas,
        max_iter=cfg.sinkhorn_max_iter, tol=cfg.sinkhorn_tol)
    h_hat, _ = mswe.aggregate_attention_matrix(h_matrix, model.w_m)
    hidden = T.relu(T.matmul(h_hat, model.head_w1))
    probabilities = T.row_softmax(T.matmul(hidden, model.head_w2))
    return probabilities, h_matrix, factor


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, OWN_SIZE_PAD), density=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1), mode=st.sampled_from([vgda.TRAIN,
                                                              vgda.EVAL]))
def test_own_size_forward_matches_padded_reference(n, density, seed, mode):
    model = _own_size_model()
    w_r = model.w_r
    graph = _random_graph(n, density, seed)
    prepared = model.prepare(graph)
    assert prepared.features.shape == (n, 4)
    assert prepared.a_hat.shape == (n, n)

    def run(forward):
        w_r.zero_grad()
        with T.Tape() as tape:
            probabilities, h_matrix, factor = forward(
                np.random.default_rng(seed))
            tape.backward(model.batch_loss(ForwardResult(
                probabilities, h_matrix, h_hat=None, alpha=None,
                factor=factor), [0]))
        values = [t.values for t in (probabilities, h_matrix, factor.p)]
        return values, factor.z, w_r.grad.copy(), tape

    def own_size(rng):
        result = model.forward([prepared], mode, rng=rng)
        return result.probabilities, result.h_matrix[0], result.factor

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


@settings(max_examples=40, deadline=None)
@given(sizes=st.lists(st.integers(1, OWN_SIZE_PAD), min_size=1, max_size=5),
       density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_batch_forward_matches_single_graph_forwards(sizes, density, seed):
    model = _own_size_model()
    batch = [model.prepare(_random_graph(n, density, seed + i))
             for i, n in enumerate(sizes)]
    together = model.forward(batch, vgda.EVAL)
    for g, prepared in enumerate(batch):
        alone = model.forward([prepared], vgda.EVAL)
        # same-size graphs share one weight matmul, which BLAS may round
        # an ulp apart from a graph's own (a one-row product is a gemv)
        assert np.abs(together.probabilities.values[g]
                      - alone.probabilities.values[0]).max() <= 1e-15
        assert np.array_equal(together.factor.z[:, g], alone.factor.z[:, 0])
        np.testing.assert_allclose(together.h_matrix[g].values,
                                   alone.h_matrix[0].values,
                                   rtol=1e-14, atol=0.0)
    # train mode: one noise draw for the batch reads the stream as one
    # draw per graph in batch order does
    batch_rng, single_rng = (np.random.default_rng(seed) for _ in range(2))
    together = model.forward(batch, vgda.TRAIN, rng=batch_rng)
    for g, prepared in enumerate(batch):
        alone = model.forward([prepared], vgda.TRAIN, rng=single_rng)
        assert np.array_equal(together.factor.z[:, g], alone.factor.z[:, 0])
        assert np.abs(together.factor.p.values[:, g]
                      - alone.factor.p.values[:, 0]).max() <= 1e-12
    assert batch_rng.bit_generator.state == single_rng.bit_generator.state


# sizes sharing a node count (5, 3) and sizes of their own (7, 4)
GROUPED_SIZES = (5, 3, 5, 7, 3, 5, 4)


def _grouped_model():
    """A model whose keys share node counts and whose sensitivities put
    some (key, sensitivity) slices of every solve past the sharp-start
    threshold and others below it."""
    graphs = [LabeledGraph(adjacency=path_adjacency(n), class_label=i % 2,
                           node_labels=np.arange(n) % 4)
              for i, n in enumerate((3, 4, 4, 5, 3))]
    config = ModelConfig(num_classes=2, feature_scheme="node-label-onehot",
                         feature_dim=4, n_padded=8, num_keys=5,
                         encoder_dims=(8, 8, 8), head_hidden=6,
                         lambdas=(0.5, 5.0, 1e4))
    model = GraphDictionaryModel.build(config, graphs,
                                       np.random.default_rng(4))
    model.w_r.values[:] = np.random.default_rng(5).normal(
        0.0, 2.0, size=(8, 1))  # mixed masks
    model.refresh_key_encodings()
    return model


def test_grouped_batch_matches_one_graph_forwards():
    model = _grouped_model()
    batch = [model.prepare(_random_graph(n, 0.5, 40 + i))
             for i, n in enumerate(GROUPED_SIZES)]
    masks = model.forward(batch, vgda.TRAIN,
                          rng=np.random.default_rng(1)).factor.z
    together = model.forward(batch, vgda.TRAIN, masks=masks)
    lams = np.asarray(model.config.lambdas)
    for g, prepared in enumerate(batch):
        alone = model.forward([prepared], vgda.TRAIN, masks=masks[:, [g]])
        got, want = together.plans[g], alone.plans[0]
        np.testing.assert_allclose(together.probabilities.values[g],
                                   alone.probabilities.values[0],
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(together.h_matrix[g].values,
                                   alone.h_matrix[0].values,
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(got.values, want.values,
                                   rtol=0.0, atol=1e-12)
        assert np.array_equal(got.offsets, want.offsets)
        assert np.array_equal(got.iterations, want.iterations)
        assert np.array_equal(got.converged, want.converged)
        # each solve mixes sharp and mild slices
        peak = np.maximum.reduceat(alone.cost[0].values, want.offsets[:-1],
                                   axis=1).max(axis=0)
        log_domain = peak[:, None] * lams > mswe.LOG_DOMAIN_THRESHOLD
        assert log_domain.any() and not log_domain.all()


def _spy(monkeypatch, owner, name):
    """Record the arguments of every call of ``owner.name``."""
    calls = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def test_forward_solves_and_propagates_once_per_node_count_group(
        monkeypatch):
    model = _grouped_model()
    batch = [model.prepare(_random_graph(n, 0.5, 40 + i))
             for i, n in enumerate(GROUPED_SIZES)]
    solves = _spy(monkeypatch, mswe, "sinkhorn_keys")
    propagations = _spy(monkeypatch, T, "block_matmul")
    result = model.forward(batch, vgda.TRAIN, rng=np.random.default_rng(1))
    # groups in first-appearance order: n = 5, 3, 7, 4
    groups = [[0, 2, 5], [1, 4], [3], [6]]
    assert len(solves) == len(groups)
    for (args, kwargs), members in zip(solves, groups):
        cost, offsets = args[0], kwargs["offsets"]
        assert np.array_equal(cost, np.concatenate(
            [result.cost[i].values for i in members], axis=1))
        widths = [np.diff(result.plans[i].offsets) for i in members]
        assert np.array_equal(offsets, np.cumsum([0, *np.concatenate(widths)]))
    depth = len(model.config.encoder_dims)
    assert [args[0].shape[0] for args, _ in propagations] == [
        len(members) for members in groups for _ in range(depth)]
    # the keys (3, 4, 4, 5, 3 nodes) refresh in three groups
    propagations.clear()
    model.refresh_key_encodings()
    assert len(propagations) == 3 * len(model.config.encoder_dims)


def test_predict_makes_one_solve_with_the_graphs_own_offsets(monkeypatch):
    model = _grouped_model()
    prepared = model.prepare(_random_graph(6, 0.5, 3))
    own = model.forward([prepared], vgda.EVAL).plans[0].offsets
    solves = _spy(monkeypatch, mswe, "sinkhorn_keys")
    propagations = _spy(monkeypatch, T, "block_matmul")
    model.predict(prepared)
    ((_, kwargs),) = solves
    assert np.array_equal(kwargs["offsets"], own)
    assert len(propagations) == len(model.config.encoder_dims)


def test_one_graph_forward_records_the_per_graph_op_sequence():
    """A batch of one records the ops a graph recorded when every graph
    was encoded and solved on its own: a stack of one adjacency propagates
    through block_matmul like any group, and no stacking or row selection
    is added."""
    model, prepared = build_tiny_model()
    with T.Tape() as tape:
        model.refresh_key_encodings()
        start = len(tape.nodes)
        result = model.forward([prepared[1]], vgda.TRAIN,
                               rng=np.random.default_rng(0))
        model.batch_loss(result, [prepared[1].label])
    recorded = [fn.__qualname__.split(".")[0]
                for _, _, fn in tape.nodes[start:]]
    # the first layer's propagation acts on constant one-hots
    layers = ["matmul", "relu"] + ["block_matmul", "matmul", "relu"] * 2
    assert recorded == layers + [
        "unit_rows", "transpose", "segment_matvec", "unit_rows", "matmul",
        "sigmoid", "clamp", "binary_concrete", "row_select",
        "pairwise_sqdist", "plan_costs",
        "matmul", "row_softmax", "transpose", "matmul",
        "matmul", "relu", "matmul", "row_softmax",
        "multiply", "matmul", "clamp", "log", "scale", "bernoulli_kl_sum",
        "scale", "add", "mean_all"]


def test_evaluate_scores_one_graph_per_forward_as_predict_does(
        monkeypatch):
    model = _own_size_model()
    prepared = [model.prepare(_random_graph(n, 0.4, seed))
                for seed, n in enumerate([1, 3, 5, 8, 13, 2, 7, 4])]
    singles = np.vstack([model.predict(g) for g in prepared])
    batches = []
    forward = GraphDictionaryModel.forward
    monkeypatch.setattr(GraphDictionaryModel, "forward",
                        lambda self, batch, *args, **kwargs: batches.append(
                            len(batch)) or forward(self, batch, *args,
                                                   **kwargs))
    predicted, accuracy = model.evaluate(prepared)
    # one graph per forward keeps the memory bound to the largest graph
    assert batches == [1] * len(prepared)
    assert predicted == np.argmax(singles, axis=1).tolist()
    assert accuracy == np.mean([y == g.label
                                for y, g in zip(predicted, prepared)])
    assert model.evaluate([]) == ([], 0.0)


def test_parameter_partition_is_exhaustive_and_disjoint():
    model, _ = build_tiny_model()
    phi = model.phi_parameters()
    psi = model.psi_parameters()
    assert {id(p) for p in phi}.isdisjoint({id(p) for p in psi})
    assert phi == [model.w_r]
    reachable = ([*model.encoder_input]
                 + [*model.dictionary.features]
                 + [model.w_m, model.head_w1, model.head_w2,
                    model.w_r])
    assert {id(p) for p in model.parameters()} == {id(p) for p in reachable}
    assert all(p.requires_grad for p in model.parameters())
    assert all(not w.requires_grad for w in model.encoder_dict)


def test_mask_overrides_make_train_mode_deterministic_without_rng():
    model, prepared = build_tiny_model()
    model.refresh_key_encodings()
    masks = np.ones(model.dictionary.offsets[-1], dtype=bool)
    first = model.forward([prepared[1]], vgda.TRAIN, masks=masks)
    second = model.forward([prepared[1]], vgda.TRAIN, masks=masks)
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
            result = model.forward(prepared, vgda.TRAIN, rng=rng)
            loss = model.batch_loss(result, labels)
            tape.backward(loss)
        before = loss.values.item()
        optimizer.step()

        with T.Tape():
            model.refresh_key_encodings()
            again = model.forward(prepared, vgda.TRAIN,
                                  masks=result.factor.z)
            after = model.batch_loss(again, labels).values.item()
        failures += after >= before
    assert failures <= 2


@pytest.mark.parametrize("count", [1, 3])
def test_forward_needs_one_plan_stack_per_graph(count):
    model, prepared = build_tiny_model()
    model.refresh_key_encodings()
    first = model.forward(prepared, vgda.EVAL)
    plans = [s.values for s in first.plans]
    plans = plans[:count] + plans[:max(0, count - len(plans))]
    with pytest.raises(ShapeError, match=f"forward: {count} plan stacks for "
                       "a batch of 2 graphs"):
        model.forward(prepared, vgda.EVAL, plans=plans)


def test_forward_record_shapes():
    model, prepared = build_tiny_model()
    model.refresh_key_encodings()
    result = model.forward([prepared[1]], vgda.EVAL)
    offsets = model.dictionary.offsets
    n = prepared[1].node_count
    n_keys = len(model.dictionary)
    n_lams = len(model.config.lambdas)
    z = result.factor.z
    assert result.factor.p.values.shape == (offsets[-1], 1)
    assert z.shape == (offsets[-1], 1)
    assert np.logical_or.reduceat(z, offsets[:-1]).all()
    selected = np.add.reduceat(z[:, 0], offsets[:-1])
    plans = result.plans[0]
    assert np.array_equal(plans.offsets,
                          np.concatenate(([0], np.cumsum(selected))))
    assert result.cost[0].values.shape == (n, int(z.sum()))
    assert plans.values.shape == (n_lams, n, int(z.sum()))
    stacks = plans.per_key()
    assert len(stacks) == n_keys
    for stack, m in zip(stacks, selected):
        assert stack.shape == (n_lams, n, m)
    assert result.h_matrix[0].values.shape == (n_keys, n_lams)
    assert result.h_hat[0].values.shape == (1, n_keys)
    assert result.alpha[0].values.shape == (1, n_lams)
    assert abs(result.alpha[0].values.sum() - 1.0) <= 1e-9
    assert result.probabilities.values.shape == (1, 2)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, OWN_SIZE_PAD), density=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1), mode=st.sampled_from([vgda.TRAIN,
                                                              vgda.EVAL]))
def test_frozen_record_state_reproduces_the_forward(n, density, seed, mode):
    # the masks and plans a forward returns, passed back in as they are,
    # give the same pass without sampling or solving
    model = _own_size_model()
    prepared = model.prepare(_random_graph(n, density, seed))
    first = model.forward([prepared], mode, rng=np.random.default_rng(seed))
    frozen = model.forward([prepared], mode, masks=first.factor.z,
                           plans=[s.values for s in first.plans])
    assert np.array_equal(first.probabilities.values,
                          frozen.probabilities.values)
    assert np.array_equal(first.factor.p.values, frozen.factor.p.values)
    for name in ("h_matrix", "h_hat"):
        assert np.array_equal(getattr(first, name)[0].values,
                              getattr(frozen, name)[0].values), name
    assert frozen.plans is None
    assert frozen.factor.z_tilde is None
    assert np.array_equal(frozen.factor.z, first.factor.z)
    assert first.cost[0].values.shape == (n, first.plans[0].offsets[-1])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("mode", [vgda.TRAIN, vgda.EVAL])
@pytest.mark.parametrize("max_iter", [3, 200])
def test_every_forward_plan_meets_its_marginals(mode, max_iter):
    # random graphs give ragged keys and uneven costs: with the masks held
    # open, some slices start sharp and some hit the cap at 3
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
    model.w_r.values[:] = 50.0
    model.refresh_key_encodings()
    for graph in graphs:
        prepared = model.prepare(graph)
        result = model.forward([prepared], mode, rng=rng)
        n = prepared.node_count
        for stack, mask in zip(result.plans[0].per_key(), np.split(
                result.factor.z[:, 0], model.dictionary.offsets[1:-1])):
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
    for a, b in zip(model.encoder_dict, restored.encoder_dict):
        assert np.array_equal(a.values, b.values)
    for a, b in zip(model.dictionary.adjacency, restored.dictionary.adjacency):
        assert np.array_equal(a, b)
    assert model.dictionary.source_class == restored.dictionary.source_class
    model.refresh_key_encodings()
    restored.refresh_key_encodings()
    for graph in prepared:
        assert np.array_equal(model.predict(graph),
                              restored.predict(graph))


def test_checkpoint_saves_a_config_given_numpy_scalars(tmp_path):
    model, prepared = build_tiny_model()
    plain = model.config.to_json()
    raw = {f.name: getattr(model.config, f.name) for f in fields(ModelConfig)}
    # each field as NumPy scalars, alone or in a tuple
    model.config = ModelConfig(**{
        name: tuple(np.asarray(v)) if isinstance(v, tuple)
        else np.asarray(v)[()] for name, v in raw.items()})
    path = tmp_path / "model.npz"
    save_checkpoint(model, path)
    restored = load_checkpoint(path)
    assert restored.config.to_json() == plain
    restored.refresh_key_encodings()
    model.refresh_key_encodings()
    for graph in prepared:
        assert np.array_equal(model.predict(graph), restored.predict(graph))


def test_checkpoint_lands_at_exactly_the_given_path(tmp_path):
    # a path without the .npz suffix is written and read as it is named
    model, prepared = build_tiny_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]
    loaded = load_checkpoint(path)
    model.refresh_key_encodings()
    loaded.refresh_key_encodings()
    for graph in prepared:
        assert np.array_equal(loaded.predict(graph), model.predict(graph))


def test_checkpoint_config_in_the_model_fields_first_order_loads(tmp_path):
    # the order checkpoints were written in before the shared fields moved
    # to one base class: the model's own fields first
    order = ["num_classes", "feature_scheme", "feature_dim", "n_padded",
             "num_keys", "encoder_dims", "head_hidden", "temperature",
             "sinkhorn_max_iter", "sinkhorn_tol", "beta", "p_hat", "lambdas"]
    model, prepared = build_tiny_model()
    stored = json.loads(model.config.to_json())
    assert sorted(stored) == sorted(order)
    text = json.dumps({name: stored[name] for name in order})
    path = rewrite_checkpoint(tmp_path, "config", lambda _: np.frombuffer(
        text.encode("utf-8"), dtype=np.uint8))
    restored = load_checkpoint(path)
    assert restored.config == model.config
    model.refresh_key_encodings()
    restored.refresh_key_encodings()
    for graph in prepared:
        assert np.array_equal(model.predict(graph), restored.predict(graph))


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


@pytest.mark.parametrize("edit, message", [
    ("asymmetric", "adjacency must be symmetric"),
    ("self-loop", "adjacency diagonal must be zero"),
    ("negative", "adjacency must be binary"),
    ("upper-ones", "adjacency must be symmetric"),
])
def test_checkpoint_rejects_a_key_adjacency_that_is_not_a_graph(tmp_path,
                                                               edit, message):
    def change(adjacency):
        edited = adjacency.copy()
        if edit == "asymmetric":
            edited[0, 1] = 1.0 - edited[0, 1]
        elif edit == "self-loop":
            edited[0, 0] = 1.0
        elif edit == "negative":
            edited[edited == 1.0] = -1.0
        else:
            edited = np.triu(np.ones_like(adjacency))
        return edited

    path = rewrite_checkpoint(tmp_path, "key_1_adjacency", change)
    with pytest.raises(FormatError, match=re.escape(
            f"checkpoint {path}: array 'key_1_adjacency': {message}")):
        load_checkpoint(path)


@pytest.mark.parametrize("label, message", [
    (1.7, "array 'key_1_class': class label 1.7 is not an integer"),
    (-1, "array 'key_1_class' holds -1, not a class in [0, 2)"),
    (2, "array 'key_1_class' holds 2, not a class in [0, 2)"),
    (2.0 ** 70, "array 'key_1_class': class label 1.1805916207174113e+21 "
     "is not an integer")],
    ids=["fractional", "negative", "num-classes", "beyond-int64"])
def test_checkpoint_rejects_a_key_class_outside_the_classes(tmp_path, label,
                                                            message):
    # the tiny model has two classes
    path = rewrite_checkpoint(tmp_path, "key_1_class",
                              lambda _: np.asarray([label]))
    with pytest.raises(FormatError,
                       match=f"^{re.escape(f'checkpoint {path}: {message}')}$"):
        load_checkpoint(path)


def test_checkpoint_stores_its_format_version(tmp_path):
    path = tmp_path / "model.npz"
    save_checkpoint(build_tiny_model()[0], path)
    with np.load(path) as data:
        assert data["format_version"].tolist() == [CHECKPOINT_FORMAT_VERSION]


def test_checkpoint_holds_exactly_its_named_arrays(tmp_path):
    # three encoder layers per branch, two keys
    path = tmp_path / "model.npz"
    save_checkpoint(build_tiny_model()[0], path)
    with np.load(path) as data:
        assert data.files == [
            "format_version", "config",
            "enc_input_0", "enc_input_1", "enc_input_2",
            "enc_dict_0", "enc_dict_1", "enc_dict_2",
            "key_0_adjacency", "key_0_features", "key_0_class",
            "key_1_adjacency", "key_1_features", "key_1_class",
            "w_r", "w_m", "head_w1", "head_w2"]
        assert {name: data[name].shape for name in data.files[-4:]} == {
            "w_r": (5, 1), "w_m": (1, 2), "head_w1": (2, 8),
            "head_w2": (8, 2)}


@pytest.mark.parametrize("parent", ["a_file", "missing_dir"])
def test_checkpoint_save_to_an_unwritable_path_raises_io_error(tmp_path,
                                                               parent):
    (tmp_path / "a_file").write_text("not a directory")
    path = tmp_path / parent / "model.npz"
    with pytest.raises(IoError, match=re.escape(
            f"cannot write checkpoint {path}: ")):
        save_checkpoint(build_tiny_model()[0], path)


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
    for w in model.encoder_input:
        w.values *= 1e200
    model.refresh_key_encodings()
    with pytest.raises(NumericsError, match="sampling probabilities"):
        model.forward([prepared[1]], mode, rng=np.random.default_rng(0))
