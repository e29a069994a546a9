"""Graph data model, TU-format ingestion, featurization, fold splitting.

Graphs are undirected, unweighted, with optional integer node labels and a
class label per graph.  The loader reads the plain-text multi-file layout
used by the public graph-classification benchmarks: a global 1-indexed edge
list, a node-to-graph indicator, one class label per graph, and an optional
node-label file.  Feature matrices and normalized adjacencies are plain
float64 NumPy arrays.
"""

from __future__ import annotations

import numbers
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, FormatError, IoError, NumericsError,
                     ParseError, SchemeError, ShapeError, check_ranges,
                     integer_at_least, real_array)

NODE_LABEL_ONEHOT = "node-label-onehot"
DEGREE_ONEHOT = "degree-onehot"
SCHEMES = (NODE_LABEL_ONEHOT, DEGREE_ONEHOT)


@dataclass
class LabeledGraph:
    """One undirected graph with an optional node labeling and a class label.

    The adjacency is binary and symmetric with a zero diagonal; node labels,
    when present, are contiguous 0-based ids.  Labels must be integers, of
    any numeric type; a fractional or non-numeric one raises FormatError.
    """

    adjacency: np.ndarray
    class_label: int
    node_labels: np.ndarray | None = None

    def __post_init__(self):
        adj = real_array(self.adjacency, FormatError,
                         "adjacency must hold numbers")
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1] or adj.shape[0] < 1:
            raise FormatError(f"adjacency must be square and non-empty, got {adj.shape}")
        if not np.array_equal(adj, adj.T):
            raise FormatError("adjacency must be symmetric")
        if np.trace(adj) != 0.0:
            raise FormatError("adjacency diagonal must be zero")
        if not np.isin(adj, (0.0, 1.0)).all():
            raise FormatError("adjacency must be binary")
        self.adjacency = adj
        label = _integers("class_label", self.class_label)
        if label.ndim != 0:
            raise FormatError(f"class_label must be one integer, got "
                              f"{self.class_label!r}")
        self.class_label = int(label)
        if self.node_labels is not None:
            labels = _integers("node label", self.node_labels)
            if labels.shape != (adj.shape[0],):
                raise FormatError("node_labels length must equal node count")
            if (labels < 0).any():
                node = int(np.argmax(labels < 0))
                raise FormatError(f"node {node} has negative label "
                                  f"{labels[node]}; node labels are 0-based")
            self.node_labels = labels

    @property
    def node_count(self):
        return self.adjacency.shape[0]

    def degrees(self):
        return self.adjacency.sum(axis=1).astype(np.int64)


def _integers(name, values, error=FormatError):
    """``values`` as int64, or ``error`` (FormatError by default) naming the
    first value that is not a whole number."""
    raw = np.asarray(values)
    if raw.dtype.kind not in "biu":
        for value in raw.reshape(-1).tolist():
            if not (isinstance(value, numbers.Real)
                    and float(value).is_integer() and abs(value) < 2 ** 63):
                raise error(f"{name} {value!r} is not an integer")
    return raw.astype(np.int64)


@dataclass
class DatasetBundle:
    """A named collection of graphs with contiguous 0-based label spaces."""

    graphs: list[LabeledGraph]
    num_classes: int
    num_node_labels: int  # 0 when the dataset is unlabeled
    name: str
    labels: np.ndarray = field(init=False)

    def __post_init__(self):
        self.labels = np.asarray([g.class_label for g in self.graphs],
                                 dtype=np.int64)

    def __len__(self):
        return len(self.graphs)

    def max_node_count(self):
        return max(g.node_count for g in self.graphs)


def _load_int_table(path, columns):
    """Parse a whitespace/comma-delimited integer table with ``columns`` columns.

    numpy parses the file in one pass.  A file it rejects, or reads with
    another column count, is parsed again line by line, which also reads
    what ``int`` reads (such as ``1_000``) and names a bad line as
    ``path:line``.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not a text file ({exc})") from exc
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    try:
        with warnings.catch_warnings():
            # an empty file is an empty table, not a warning; a numpy that
            # still reads "1.5" as the integer 1 only warns, so make it fail
            warnings.filterwarnings("ignore", "loadtxt: input contained no")
            warnings.filterwarnings("error", category=DeprecationWarning)
            table = np.loadtxt(text.replace(",", " ").split("\n"),
                               dtype=np.int64, comments=None, ndmin=2)
        if table.shape[1] == columns:
            return table
    except (ValueError, OverflowError, DeprecationWarning):
        pass
    return _parse_lines(path, text.split("\n"), columns)


def _parse_lines(path, lines, columns):
    """The table parsed line by line; the first bad line of ``lines`` raises
    ParseError at ``path:line``."""
    limit = np.iinfo(np.int64)
    rows = []
    for lineno, line in enumerate(lines, start=1):
        parts = line.replace(",", " ").split()
        if not parts:
            continue
        if len(parts) != columns:
            raise ParseError(f"{path}:{lineno}: expected {columns} "
                             f"integer field(s), got {len(parts)}")
        try:
            rows.append([int(p) for p in parts])
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-integer token in "
                             f"{line.strip()!r}") from None
        if not all(limit.min <= value <= limit.max for value in rows[-1]):
            raise ParseError(f"{path}:{lineno}: integer outside the int64 "
                             "range")
    return np.asarray(rows, dtype=np.int64).reshape(-1, columns)


def load_tu_dataset(directory, name):
    """Load a TU-format dataset directory into a :class:`DatasetBundle`.

    Expects ``NAME_A.txt`` (1-indexed edge pairs), ``NAME_graph_indicator.txt``
    (node -> graph id), ``NAME_graph_labels.txt`` and, optionally,
    ``NAME_node_labels.txt``.  Edges are symmetrized, self-loops dropped, and
    graph/node label ids remapped to contiguous 0-based ranges.
    """
    prefix = os.path.join(directory, f"{name}_")
    paths = {key: prefix + suffix for key, suffix in [
        ("edges", "A.txt"),
        ("indicator", "graph_indicator.txt"),
        ("graph_labels", "graph_labels.txt"),
        ("node_labels", "node_labels.txt"),
    ]}
    for key in ("edges", "indicator", "graph_labels"):
        if not os.path.isfile(paths[key]):
            raise FormatError(f"missing mandatory dataset file: {paths[key]}")

    edges = _load_int_table(paths["edges"], 2)
    indicator = _load_int_table(paths["indicator"], 1).ravel()
    raw_graph_labels = _load_int_table(paths["graph_labels"], 1).ravel()

    total_nodes = indicator.shape[0]
    if total_nodes == 0:
        raise FormatError(f"{paths['indicator']}: no nodes listed")
    # global 1-based node id -> (graph index, local 0-based node index)
    graph_ids, node_graph = np.unique(indicator, return_inverse=True)
    if graph_ids.shape[0] != raw_graph_labels.shape[0]:
        raise FormatError(
            f"{name}: {graph_ids.shape[0]} graphs in the indicator but "
            f"{raw_graph_labels.shape[0]} graph labels")
    sizes = np.bincount(node_graph)
    order = np.argsort(node_graph, kind="stable")
    members = np.split(order, np.cumsum(sizes)[:-1])
    local_index = np.empty(total_nodes, dtype=np.int64)
    local_index[order] = (np.arange(total_nodes)
                          - np.repeat(np.cumsum(sizes) - sizes, sizes))

    u, v = edges.T
    outside = (u < 1) | (u > total_nodes) | (v < 1) | (v > total_nodes)
    gu, gv = (node_graph[np.clip(end, 1, total_nodes) - 1] for end in (u, v))
    bad = np.flatnonzero(outside | (gu != gv))
    if bad.size:
        # the first bad edge in file order names the fault
        i = bad[0]
        if outside[i]:
            end = v[i] if 1 <= u[i] <= total_nodes else u[i]
            raise FormatError(f"{paths['edges']}: node {end} referenced "
                              f"outside any graph (only {total_nodes} nodes)")
        raise FormatError(f"{paths['edges']}: edge ({u[i]}, {v[i]}) crosses "
                          "graphs")
    # every graph's adjacency is a block of one flat buffer; self-loops are
    # not part of the data model
    proper = u != v
    g = gu[proper]
    lu, lv = local_index[u[proper] - 1], local_index[v[proper] - 1]
    block_starts = np.cumsum(sizes * sizes) - sizes * sizes
    flat = np.zeros(int((sizes * sizes).sum()))
    flat[block_starts[g] + lu * sizes[g] + lv] = 1.0
    flat[block_starts[g] + lv * sizes[g] + lu] = 1.0
    adjacencies = [flat[start:start + n * n].reshape(n, n)
                   for start, n in zip(block_starts, sizes)]

    node_labels = None
    num_node_labels = 0
    if os.path.isfile(paths["node_labels"]):
        raw_node_labels = _load_int_table(paths["node_labels"], 1).ravel()
        if raw_node_labels.shape[0] != total_nodes:
            raise FormatError(
                f"{paths['node_labels']}: {raw_node_labels.shape[0]} labels "
                f"for {total_nodes} nodes")
        label_ids, node_labels = np.unique(raw_node_labels,
                                           return_inverse=True)
        num_node_labels = label_ids.shape[0]

    classes, class_labels = np.unique(raw_graph_labels, return_inverse=True)

    graphs = []
    for g, nodes in enumerate(members):
        labels = node_labels[nodes] if node_labels is not None else None
        graphs.append(LabeledGraph(adjacency=adjacencies[g],
                                   class_label=int(class_labels[g]),
                                   node_labels=labels))
    return DatasetBundle(graphs=graphs, num_classes=classes.shape[0],
                         num_node_labels=num_node_labels, name=name)


def save_tu_dataset(bundle, directory):
    """Write a bundle back out in TU format (both edge directions stored);
    a bundle with no graphs, or with node labels on some graphs only,
    raises FormatError, and a directory or file that cannot be written
    raises IoError naming ``directory``."""
    if not bundle.graphs:
        raise FormatError(f"{bundle.name}: no graphs to write")
    labeled = [g.node_labels is not None for g in bundle.graphs]
    if any(labeled) and not all(labeled):
        raise FormatError(f"{bundle.name}: graph {labeled.index(False)} has "
                          "no node labels but other graphs have them")
    prefix = os.path.join(directory, f"{bundle.name}_")
    counts = [g.node_count for g in bundle.graphs]
    starts = np.cumsum([1] + counts[:-1])  # each graph's first 1-based id
    edges = [np.argwhere(g.adjacency) + start
             for g, start in zip(bundle.graphs, starts)]
    try:
        os.makedirs(directory, exist_ok=True)
        np.savetxt(prefix + "A.txt", np.concatenate(edges), fmt="%d, %d")
        np.savetxt(prefix + "graph_indicator.txt",
                   np.repeat(np.arange(1, len(counts) + 1), counts), fmt="%d")
        np.savetxt(prefix + "graph_labels.txt",
                   [g.class_label for g in bundle.graphs], fmt="%d")
        if all(labeled):
            np.savetxt(prefix + "node_labels.txt",
                       np.concatenate([g.node_labels for g in bundle.graphs]),
                       fmt="%d")
    except OSError as exc:
        raise IoError(f"cannot write dataset {bundle.name} to {directory}: "
                      f"{exc}") from exc


def featurize(graph, scheme, dim):
    """One-hot node features under the given scheme.

    ``node-label-onehot`` uses the graph's node labels and requires ``dim``
    to cover every label id.  ``degree-onehot`` buckets each node by degree,
    clamping degrees above ``dim - 1`` into the last bin.  Every row sums to
    exactly 1.
    """
    n = graph.node_count
    check_ranges([integer_at_least(1, "featurize: dim", dim)], SchemeError)
    if scheme == NODE_LABEL_ONEHOT:
        if graph.node_labels is None:
            raise SchemeError("node-label-onehot requested for a graph "
                              "without node labels")
        if int(graph.node_labels.max()) >= dim:
            raise SchemeError(f"node label id {int(graph.node_labels.max())} "
                              f"does not fit feature dim {dim}")
        bins = graph.node_labels
    elif scheme == DEGREE_ONEHOT:
        bins = np.minimum(graph.degrees(), dim - 1)
    else:
        raise SchemeError(f"unknown featurization scheme: {scheme!r}")
    features = np.zeros((n, dim), dtype=np.float64)
    features[np.arange(n), bins] = 1.0
    return features


def normalize_adjacency(adjacency):
    """Symmetric degree normalization with self-loops added first.

    Returns D^(-1/2) (A + I) D^(-1/2) where D is the degree matrix of A + I;
    an isolated node ends up with a single self-loop of weight 1.  A
    non-finite entry, or a row of A + I that sums to <= 0, would make the
    result non-finite and raises NumericsError.
    """
    adj = real_array(adjacency, ShapeError,
                     "normalize_adjacency: adjacency must hold real numbers")
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ShapeError(f"normalize_adjacency: expected a square matrix, "
                         f"got {adj.shape}")
    if not np.isfinite(adj).all():
        raise NumericsError("normalize_adjacency: entries must be finite")
    with_loops = adj + np.eye(adj.shape[0])
    degrees = with_loops.sum(axis=1)
    if not (degrees > 0.0).all():
        row = int(np.argmin(degrees))
        raise NumericsError(f"normalize_adjacency: row {row} of A + I sums "
                            f"to {degrees[row]}, not > 0")
    inv_sqrt = 1.0 / np.sqrt(degrees)
    return with_loops * inv_sqrt[:, None] * inv_sqrt[None, :]


def stratified_folds(labels, k, seed):
    """Partition indices into k folds with per-class counts differing by <= 1.

    Members of each class are shuffled and dealt round-robin; the dealing
    start rotates by each class's remainder so leftover items stagger across
    folds (a 188-graph two-class set at k=10 yields fold sizes 18 or 19).
    Deterministic given the seed.
    """
    labels = _integers("stratified_folds: label", labels)
    if labels.ndim != 1:
        raise ShapeError(f"stratified_folds: labels must be one per sample, "
                         f"got shape {labels.shape}")
    check_ranges([integer_at_least(2, "stratified_folds: k", k),
                  integer_at_least(0, "stratified_folds: seed", seed)])
    if k > labels.shape[0]:
        raise ConfigError(f"stratified_folds: k={k} exceeds dataset size "
                          f"{labels.shape[0]}")
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    start = 0
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        rng.shuffle(members)
        for i, idx in enumerate(members):
            folds[(start + i) % k].append(int(idx))
        start = (start + members.shape[0]) % k
    return [np.asarray(sorted(fold), dtype=np.int64) for fold in folds]
