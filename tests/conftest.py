"""Shared builders for the test suite."""

import os
from dataclasses import replace

import numpy as np
import pytest

from graphdict.data import DatasetBundle, LabeledGraph, save_tu_dataset
from graphdict.model import GraphDictionaryModel, LossConfig, ModelConfig


def cycle_adjacency(n):
    a = np.zeros((n, n))
    for u in range(n):
        a[u, (u + 1) % n] = a[(u + 1) % n, u] = 1.0
    return a


def clique_adjacency(n):
    return np.ones((n, n)) - np.eye(n)


def path_adjacency(n):
    a = np.zeros((n, n))
    for u in range(n - 1):
        a[u, u + 1] = a[u + 1, u] = 1.0
    return a


def make_synthetic_bundle(count=24, seed=0, with_node_labels=False,
                          min_nodes=4, max_nodes=7):
    """Cycles (class 0) vs cliques (class 1); structure separates the classes."""
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(count):
        n = int(rng.integers(min_nodes, max_nodes))
        adjacency = cycle_adjacency(n) if i % 2 == 0 else clique_adjacency(n)
        node_labels = (np.asarray([j % 2 for j in range(n)])
                       if with_node_labels else None)
        graphs.append(LabeledGraph(adjacency=adjacency, class_label=i % 2,
                                   node_labels=node_labels))
    return DatasetBundle(graphs=graphs, num_classes=2,
                         num_node_labels=2 if with_node_labels else 0,
                         name="synthetic")


def tiny_graph_pair():
    """A 4-node path and a 5-node triangle-with-tail, labeled 0 and 1."""
    tri5 = np.zeros((5, 5))
    for (u, v) in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]:
        tri5[u, v] = tri5[v, u] = 1.0
    g0 = LabeledGraph(adjacency=path_adjacency(4), class_label=0,
                      node_labels=np.array([0, 1, 0, 1]))
    g1 = LabeledGraph(adjacency=tri5, class_label=1,
                      node_labels=np.array([1, 0, 1, 0, 1]))
    return g0, g1


def build_tiny_model(seed=7, lambdas=(0.5, 5.0), beta=0.001, num_keys=2,
                     sinkhorn_max_iter=200, sinkhorn_tol=1e-6):
    """Small two-graph model used by gradient and pipeline tests."""
    g0, g1 = tiny_graph_pair()
    config = ModelConfig(num_classes=2, feature_scheme="node-label-onehot",
                         feature_dim=2, n_padded=5, num_keys=num_keys,
                         encoder_dims=(8, 8, 8), head_hidden=8,
                         sinkhorn_max_iter=sinkhorn_max_iter,
                         sinkhorn_tol=sinkhorn_tol,
                         loss=LossConfig(beta=beta, p_hat=0.5,
                                         lambdas=tuple(lambdas)))
    model = GraphDictionaryModel.build(config, [g0, g1],
                                       np.random.default_rng(seed))
    prepared = [model.prepare(g) for g in (g0, g1)]
    return model, prepared


def write_tu_dataset(bundle, data_dir, name):
    """Write a bundle as TU dataset ``name`` in data_dir; return its root."""
    root = os.path.join(str(data_dir), name)
    save_tu_dataset(replace(bundle, name=name), root)
    return root


@pytest.fixture
def synthetic_bundle():
    return make_synthetic_bundle()
