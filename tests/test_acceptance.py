"""Acceptance checks: one test per shipped guarantee, tolerances pinned.

Each test prints an ``ACCEPTANCE <n> ...: PASS`` line when its guarantee
holds.  Criterion 6 needs the MUTAG dataset on disk (``data/MUTAG/`` or
``$GRAPHDICT_MUTAG_DIR``) and fails with a clear message when it is absent.
"""

import os
import time
import warnings

import numpy as np
import pytest

from graphdict import tensor as T
from graphdict import vgda
from graphdict.data import LabeledGraph, load_tu_dataset
from graphdict.model import GraphDictionaryModel, ModelConfig
from graphdict.mswe import (DEFAULT_LAMBDA_GRID, MASTER_LAMBDA_GRID,
                            embed_keys_multi, sinkhorn, sinkhorn_grid)
from graphdict.oracles import (exact_ot_by_enumeration, make_report,
                               reference_sinkhorn, write_reports)
from graphdict.training import TrainConfig, desk_scale, run_cv
from graphdict.vgda import (bernoulli_kl, sample_factor,
                            sampling_probability, select_substructure)
from conftest import build_tiny_model, make_synthetic_bundle, write_tu_dataset


def test_acceptance_1_sinkhorn_matches_reference(tmp_path):
    rng = np.random.default_rng(42)
    started = time.perf_counter()
    worst_plan = 0.0
    worst_marginal = 0.0
    reports = []
    for trial in range(100):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 7))
        lam = MASTER_LAMBDA_GRID[trial % len(MASTER_LAMBDA_GRID)]
        M = rng.uniform(size=(n, m))
        a, b = np.full(n, 1.0 / n), np.full(m, 1.0 / m)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            plan = sinkhorn(M, lam, max_iter=10_000, tol=1e-9)
        exact = reference_sinkhorn(M, lam, a, b, max_iter=10_000,
                                   tol=1e-9).values
        plan_err = np.abs(plan.values - exact).max()
        marginal_err = max(np.abs(plan.values.sum(axis=1) - a).max(),
                           np.abs(plan.values.sum(axis=0) - b).max())
        worst_plan = max(worst_plan, plan_err)
        worst_marginal = max(worst_marginal, marginal_err)
        reports.append(make_report(f"sinkhorn_{trial:03d}_lam_{lam:g}",
                                   plan.values, exact, 1e-8))
    elapsed = time.perf_counter() - started
    write_reports(tmp_path / "sinkhorn_reports.csv", reports)

    assert worst_plan <= 1e-8
    assert worst_marginal <= 1e-6
    assert all(r.passed for r in reports)
    assert elapsed < 10.0
    print(f"ACCEPTANCE 1 sinkhorn vs reference: PASS "
          f"(plan err {worst_plan:.2e}, marginal err {worst_marginal:.2e}, "
          f"{elapsed:.1f}s)")


def test_acceptance_2_entropic_limit_and_monotonicity():
    rng = np.random.default_rng(43)
    started = time.perf_counter()
    worst_gap = 0.0
    for _ in range(50):
        M = rng.uniform(size=(4, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            plans = sinkhorn_grid(M, MASTER_LAMBDA_GRID, max_iter=2000,
                                  tol=1e-9)
        costs = [float((p.values * M).sum()) for p in plans]
        for lo, hi in zip(costs, costs[1:]):
            assert hi <= lo + 1e-9
        exact = exact_ot_by_enumeration(M)
        sharp = costs[-1]  # largest sensitivity on the grid (100)
        gap = abs(sharp - exact) / max(exact, 1e-12)
        worst_gap = max(worst_gap, gap)
        assert gap <= 0.05
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"ACCEPTANCE 2 entropic limit: PASS (worst gap "
          f"{worst_gap * 100:.2f}%, {elapsed:.1f}s)")


def test_acceptance_3_gradient_integrity():
    started = time.perf_counter()
    model, prepared = build_tiny_model()
    labels = [g.label for g in prepared]
    rng = np.random.default_rng(0)

    # reference pass: sample masks and solve plans once, then freeze both so
    # the finite-difference sweep perturbs a deterministic objective with the
    # discrete draw held at its sampled value
    with T.Tape():
        model.refresh_key_encodings()
        results = [model.forward(g, vgda.TRAIN, rng=rng) for g in prepared]
    frozen_state = [(r.factor.z, r.plans.values) for r in results]

    def closure():
        model.refresh_key_encodings()
        frozen = [model.forward(g, vgda.TRAIN, masks=masks, plans=plans)
                  for g, (masks, plans) in zip(prepared, frozen_state)]
        return model.batch_loss(frozen, labels)

    params = model.parameters()
    worst = T.grad_check(closure, params, epsilon=1e-5)
    elapsed = time.perf_counter() - started
    n_scalars = sum(p.values.size for p in params)
    assert worst <= 1e-4
    assert elapsed < 60.0
    print(f"ACCEPTANCE 3 gradient integrity: PASS (max rel err {worst:.2e} "
          f"over {len(params)} tensors / {n_scalars} scalars, {elapsed:.1f}s)")


def test_acceptance_4_kl_closed_form():
    grid = np.linspace(0.01, 0.99, 1000)
    analytic = (grid[:, None] * np.log(grid[:, None] / grid[None, :])
                + (1.0 - grid[:, None])
                * np.log((1.0 - grid[:, None]) / (1.0 - grid[None, :])))
    worst = 0.0
    for i, p_hat in enumerate(grid):
        p_hat = float(p_hat)
        for j, p in enumerate(grid):
            value = bernoulli_kl(p_hat, T.Tensor([[float(p)]])).values.item()
            worst = max(worst, abs(value - analytic[i, j]))
            if i == j:
                assert value == 0.0
    assert worst <= 1e-10
    print(f"ACCEPTANCE 4 KL closed form: PASS (max abs err {worst:.2e} "
          f"on the 1e6-point grid)")


def test_acceptance_5_sampling_free_ablation():
    model, prepared = build_tiny_model(beta=0.0)
    model.refresh_key_encodings()
    masks = np.ones(model.dictionary.offsets[-1], dtype=bool)
    for graph in prepared:
        forced = model.forward(graph, vgda.EVAL, masks=masks)
        removed = model.forward(graph, vgda.EVAL, use_vgda=False)
        assert np.array_equal(forced.h_matrix.values,
                              removed.h_matrix.values)
        assert np.array_equal(forced.h_hat.values, removed.h_hat.values)
        assert np.array_equal(forced.probabilities.values,
                              removed.probabilities.values)
    print("ACCEPTANCE 5 sampling-free ablation: PASS (bit-identical "
          "embeddings and probabilities)")


def test_acceptance_6_reference_dataset_accuracy():
    data_dir = os.environ.get("GRAPHDICT_MUTAG_DIR",
                              os.path.join("data", "MUTAG"))
    if not os.path.isfile(os.path.join(data_dir, "MUTAG_A.txt")):
        pytest.fail(
            "ACCEPTANCE 6 reference dataset accuracy: FAIL — the MUTAG "
            f"dataset is not present (looked in {data_dir!r}; set "
            "GRAPHDICT_MUTAG_DIR or place the TU files under data/MUTAG/). "
            "The criterion requires 10-fold CV mean accuracy >= 0.85 at "
            "epochs=100 and cannot run without the data.")
    bundle = load_tu_dataset(data_dir, "MUTAG")
    config = desk_scale(TrainConfig(dataset="MUTAG", data_dir=data_dir,
                                    epochs=100, seed=0))
    started = time.perf_counter()
    cv = run_cv(config, bundle=bundle)
    elapsed = time.perf_counter() - started
    assert elapsed <= 30 * 60
    assert cv.mean_accuracy >= 0.85
    print(f"ACCEPTANCE 6 reference dataset accuracy: PASS "
          f"(mean {cv.mean_accuracy:.4f} +- {cv.std_accuracy:.4f}, "
          f"{elapsed / 60:.1f} min)")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_acceptance_7_complexity_scaling():
    n_inputs, feat_dim, iters = 128, 32, 60
    lams = DEFAULT_LAMBDA_GRID  # 8 sensitivities
    rng = np.random.default_rng(44)
    f_input = T.Tensor(rng.normal(size=(n_inputs, feat_dim)))
    w_r = T.Tensor(np.full((n_inputs, 1), 50.0))  # saturates every mask on
    key_feats = {n: T.Tensor(rng.normal(size=(n, feat_dim)))
                 for n in (128, 256)}

    def stage_time(n_key):
        start = time.perf_counter()
        p = sampling_probability(f_input, key_feats[n_key], w_r)
        factor = sample_factor(p, vgda.EVAL)
        adapted = select_substructure(key_feats[n_key], factor.z)
        embed_keys_multi(f_input, [adapted], lams, max_iter=iters, tol=0.0)
        return time.perf_counter() - start

    stage_time(128), stage_time(256)  # warm-up
    factors = []
    for _ in range(20):
        small = stage_time(128)
        large = stage_time(256)
        factors.append(large / small)
    median = float(np.median(factors))
    assert 1.6 <= median <= 2.6
    print(f"ACCEPTANCE 7 complexity scaling: PASS (median wall-time factor "
          f"{median:.2f} for doubled key nodes)")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_acceptance_8_runtime_ordering():
    rng = np.random.default_rng(45)
    graphs = []
    for i in range(8):
        raw = (rng.uniform(size=(20, 20)) < 0.2).astype(float)
        adjacency = np.triu(raw, 1) + np.triu(raw, 1).T
        graphs.append(LabeledGraph(adjacency=adjacency, class_label=i % 2))

    def build(lambdas):
        config = ModelConfig(num_classes=2, feature_scheme="degree-onehot",
                             feature_dim=12, n_padded=20, num_keys=6,
                             encoder_dims=(32, 32, 16), head_hidden=16,
                             sinkhorn_max_iter=50,
                             lambdas=lambdas)
        model = GraphDictionaryModel.build(config, graphs,
                                           np.random.default_rng(3))
        model.vgda_params.w_r.values[:] = 50.0  # all-ones masks when sampling
        model.refresh_key_encodings()
        return model, [model.prepare(g) for g in graphs]

    single = build((1.0,))
    multi = build(DEFAULT_LAMBDA_GRID)

    variants = [(single, False), (single, True), (multi, False),
                (multi, True)]

    def batch_time(model_prepared, use_vgda):
        model, prepared = model_prepared
        start = time.perf_counter()
        for graph in prepared:
            model.forward(graph, vgda.EVAL, use_vgda=use_vgda)
        return time.perf_counter() - start

    for variant in variants:  # warm-up
        batch_time(*variant)
    # the four variants take turns within each repetition, so a swing in
    # host speed hits all of them alike instead of reordering their medians
    samples = [[] for _ in variants]
    for _ in range(7):
        for times, variant in zip(samples, variants):
            times.append(batch_time(*variant))
    baseline, with_vgda, with_mswe, with_both = (float(np.median(t))
                                                 for t in samples)
    assert baseline < with_vgda < with_mswe < with_both
    print(f"ACCEPTANCE 8 runtime ordering: PASS (per-batch "
          f"{baseline * 1e3:.1f} < {with_vgda * 1e3:.1f} < "
          f"{with_mswe * 1e3:.1f} < {with_both * 1e3:.1f} ms)")


def test_acceptance_9_determinism(tmp_path):
    data_root = write_tu_dataset(make_synthetic_bundle(count=12, seed=0),
                                 tmp_path, "DEMO")
    outputs = []
    for run in ("first", "second"):
        out_dir = tmp_path / run
        config = TrainConfig(dataset="DEMO", data_dir=data_root, epochs=3,
                             learning_rate=0.01, keys=2, lambdas=(0.5, 5.0),
                             encoder_dims=(8, 8, 8), head_hidden=8,
                             sinkhorn_max_iter=200, sinkhorn_tol=1e-6,
                             folds=2, batch_size=8, seed=11,
                             out_dir=str(out_dir))
        run_cv(config)
        outputs.append(out_dir)
    for name in ("metrics.csv", "losses.csv", "metrics.txt"):
        first = (outputs[0] / name).read_bytes()
        second = (outputs[1] / name).read_bytes()
        assert first == second, f"{name} differs between identical runs"
    print("ACCEPTANCE 9 determinism: PASS (metrics byte-identical across "
          "identical runs)")
