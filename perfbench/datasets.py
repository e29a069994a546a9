"""Deterministic in-code graph sets for the benchmark workloads.

MUTAG itself is not shipped with the repository, so the benchmark builds
sets of its shape from a seed.  Their sizes follow MUTAG's published
statistics (188 graphs, 125:63 classes, 10 to 28 nodes, 17.93 nodes and
19.79 edges per graph on average; Morris et al., "TUDataset", 2020), and
they give the classifier a structural signal to learn; they say nothing
about accuracy on the real data.  The spread of node counts around that
mean is an assumption: a right-skewed shifted negative binomial.
"""

from __future__ import annotations

import numpy as np

from graphdict import DatasetBundle, LabeledGraph

MUTAG_GRAPHS = 188
MUTAG_POSITIVE = 125          # MUTAG's 125:63 class ratio
MUTAG_NODES = (10, 28)        # inclusive node-count range
MUTAG_MEAN_NODES = 17.93
# Shape of the shifted negative binomial the node counts are drawn from.
_NODES_DISPERSION = 6
MUTAG_NODE_LABELS = 7
# Node-label mix per class: mostly carbon-like label 0, with the positive
# class richer in labels 1 and 2 (as nitro groups are in MUTAG).
_LABEL_MIX = {
    0: (0.80, 0.06, 0.08, 0.02, 0.01, 0.02, 0.01),
    1: (0.66, 0.14, 0.14, 0.02, 0.01, 0.02, 0.01),
}

LAYOUT_SEED = 0


def _tree(rng, n, max_degree):
    """A random tree on n nodes with degrees capped at ``max_degree``."""
    adj = np.zeros((n, n))
    degree = np.zeros(n, dtype=np.int64)
    for node in range(1, n):
        open_nodes = np.flatnonzero(degree[:node] < max_degree)
        parent = int(rng.choice(open_nodes))
        adj[node, parent] = adj[parent, node] = 1.0
        degree[node] += 1
        degree[parent] += 1
    return adj


def _hop_distances(adj, source):
    dist = np.full(adj.shape[0], -1, dtype=np.int64)
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in np.flatnonzero(adj[u]):
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    nxt.append(int(v))
        frontier = nxt
    return dist


def _close_rings(rng, adj, count, ring_size=6):
    """Add up to ``count`` edges that close rings of ``ring_size`` nodes."""
    for _ in range(count):
        source = int(rng.integers(adj.shape[0]))
        targets = np.flatnonzero(_hop_distances(adj, source) == ring_size - 1)
        if targets.size:
            target = int(rng.choice(targets))
            adj[source, target] = adj[target, source] = 1.0


def _layout(n_graphs, n_positive, nodes, mean_nodes):
    """Class labels and node counts, the same for every seed.

    Cost per step follows the node counts in each batch and the fold split
    follows the labels, so both stay fixed and the seed draws only the
    graphs' structure and node labels.  Counts are ``nodes[0]`` plus a
    negative binomial draw with mean ``mean_nodes - nodes[0]``, redrawn
    while above ``nodes[1]``; one graph has exactly ``nodes[1]`` nodes, so
    every set pads to the same size.  Graphs drawn at random then gain or
    lose a node until the mean is ``mean_nodes`` to within one node in all.
    """
    rng = np.random.default_rng(LAYOUT_SEED)
    labels = np.zeros(n_graphs, dtype=np.int64)
    labels[:n_positive] = 1
    rng.shuffle(labels)
    extra = mean_nodes - nodes[0]
    p = _NODES_DISPERSION / (_NODES_DISPERSION + extra)
    counts = np.empty(n_graphs, dtype=np.int64)
    for i in range(n_graphs):
        counts[i] = nodes[1] + 1
        while counts[i] > nodes[1]:
            counts[i] = nodes[0] + rng.negative_binomial(_NODES_DISPERSION, p)
    counts[rng.integers(n_graphs)] = nodes[1]
    target = round(mean_nodes * n_graphs)
    while counts.sum() != target:
        step = 1 if counts.sum() < target else -1
        i = int(rng.integers(n_graphs))
        if nodes[0] <= counts[i] + step <= nodes[1] and counts[i] != nodes[1]:
            counts[i] += step
    return [(int(c), int(n)) for c, n in zip(labels, counts)]


def mutag_shaped(seed, n_graphs=MUTAG_GRAPHS, n_positive=MUTAG_POSITIVE,
                 nodes=MUTAG_NODES, mean_nodes=MUTAG_MEAN_NODES):
    """MUTAG-shaped molecules: 10-28 nodes, 7 node labels, 2 classes.

    Each graph is a random tree of degree at most 3 with six-ring closures;
    the positive class tries three to five, the other one or two (some find
    no place to close), which gives 19.6 to 19.7 edges per graph on average
    against MUTAG's 19.79.  The two classes draw node labels from different
    mixes.
    """
    rng = np.random.default_rng(seed)
    graphs = []
    for cls, n in _layout(n_graphs, n_positive, nodes, mean_nodes):
        adj = _tree(rng, n, max_degree=3)
        rings = int(rng.integers(3, 6)) if cls == 1 else int(rng.integers(1, 3))
        _close_rings(rng, adj, rings)
        node_labels = rng.choice(MUTAG_NODE_LABELS, size=n, p=_LABEL_MIX[cls])
        graphs.append(LabeledGraph(adjacency=adj, class_label=cls,
                                   node_labels=node_labels))
    return DatasetBundle(graphs=graphs, num_classes=2,
                         num_node_labels=MUTAG_NODE_LABELS, name="mutag-shaped")

