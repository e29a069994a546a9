"""Graph data model, TU-format loading, featurization, folds."""

import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_synthetic_bundle, path_adjacency
from graphdict.data import (DEGREE_ONEHOT, NODE_LABEL_ONEHOT, DatasetBundle,
                            LabeledGraph, _load_int_table, _parse_lines,
                            featurize, load_tu_dataset, normalize_adjacency,
                            save_tu_dataset, stratified_folds)
from graphdict.errors import (ConfigError, FormatError, IoError,
                              NumericsError, ParseError, SchemeError,
                              ShapeError)


# ---------------------------------------------------------------------------
# LabeledGraph validation
# ---------------------------------------------------------------------------

def test_graph_rejects_bad_adjacency():
    with pytest.raises(FormatError):
        LabeledGraph(adjacency=np.zeros((2, 3)), class_label=0)
    with pytest.raises(FormatError):  # asymmetric
        LabeledGraph(adjacency=np.array([[0.0, 1.0], [0.0, 0.0]]), class_label=0)
    with pytest.raises(FormatError):  # self-loop
        LabeledGraph(adjacency=np.array([[1.0, 0.0], [0.0, 0.0]]), class_label=0)
    with pytest.raises(FormatError):  # non-binary
        LabeledGraph(adjacency=np.array([[0.0, 0.5], [0.5, 0.0]]), class_label=0)
    # numeric text is not parsed, and complex entries are not cut to their
    # real part
    for raw in ("ab", [[0, "x"], ["x", 0]], [[0, 1j], [1j, 0]], [[0, 1], [1]],
                [["0", "1"], ["1", "0"]], np.array([[0, 1j], [1j, 0]])):
        with pytest.raises(FormatError, match="adjacency must hold numbers"):
            LabeledGraph(adjacency=raw, class_label=0)


@pytest.mark.parametrize("raw", [
    "ab", [["0", "1"], ["1", "0"]], [[b"0", b"1"], [b"1", b"0"]],
    np.array([[0, 1j], [1j, 0]])])
def test_normalize_adjacency_refuses_text_and_complex_numbers(raw):
    with pytest.raises(ShapeError, match="normalize_adjacency: adjacency "
                       "must hold real numbers"):
        normalize_adjacency(raw)


def test_graph_rejects_negative_node_label():
    # a negative id would index the last one-hot bin from the end
    with pytest.raises(FormatError, match="node 1 has negative label -2"):
        LabeledGraph(adjacency=path_adjacency(3), class_label=0,
                     node_labels=[0, -2, -1])


@pytest.mark.parametrize("labels, bad", [
    (dict(class_label=1.7), "class_label 1.7"),
    (dict(class_label=np.float32(-0.5)), "class_label -0.5"),
    (dict(class_label="1"), "class_label '1'"),
    (dict(class_label=0, node_labels=[0.9, 2.2, 1.0]), "node label 0.9"),
    (dict(class_label=0, node_labels=[0.0, 1.0, np.nan]), "node label nan"),
])
def test_graph_rejects_non_integral_labels(labels, bad):
    # a cast would truncate 1.7 to class 1 and 0.9 to one-hot bin 0
    with pytest.raises(FormatError, match=re.escape(bad) + " is not an "
                       "integer"):
        LabeledGraph(adjacency=path_adjacency(3), **labels)


def test_graph_accepts_integral_labels_of_any_numeric_dtype():
    for label, nodes in [(1.0, [0.0, 2.0, 1.0]),
                         (np.int32(1), np.array([0, 2, 1], dtype=np.uint8)),
                         (np.float32(1.0), np.array([0, 2, 1], np.float32))]:
        graph = LabeledGraph(adjacency=path_adjacency(3), class_label=label,
                             node_labels=nodes)
        assert graph.class_label == 1 and type(graph.class_label) is int
        assert graph.node_labels.dtype == np.int64
        assert graph.node_labels.tolist() == [0, 2, 1]
    bundle = DatasetBundle(graphs=[graph], num_classes=2, num_node_labels=3,
                           name="F")
    assert bundle.labels.tolist() == [1]


def test_graph_degrees():
    g = LabeledGraph(adjacency=path_adjacency(3), class_label=0)
    assert np.array_equal(g.degrees(), [1.0, 2.0, 1.0])
    assert g.node_count == 3


# ---------------------------------------------------------------------------
# TU loading
# ---------------------------------------------------------------------------

def _write_tu(directory, name, edges, indicator, graph_labels,
              node_labels=None):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{name}_A.txt").write_text(
        "\n".join(f"{u}, {v}" for u, v in edges) + "\n")
    (directory / f"{name}_graph_indicator.txt").write_text(
        "\n".join(str(i) for i in indicator) + "\n")
    (directory / f"{name}_graph_labels.txt").write_text(
        "\n".join(str(label) for label in graph_labels) + "\n")
    if node_labels is not None:
        (directory / f"{name}_node_labels.txt").write_text(
            "\n".join(str(label) for label in node_labels) + "\n")


def test_load_single_two_node_graph(tmp_path):
    _write_tu(tmp_path, "TINY", edges=[(1, 2)], indicator=[1, 1],
              graph_labels=[0])
    bundle = load_tu_dataset(tmp_path, "TINY")
    assert len(bundle.graphs) == 1
    assert np.array_equal(bundle.graphs[0].adjacency, [[0.0, 1.0], [1.0, 0.0]])
    assert bundle.num_node_labels == 0


def test_load_remaps_labels_and_symmetrizes(tmp_path):
    # graph labels {-1, 1} -> {0, 1}; node labels {2, 5} -> {0, 1};
    # one direction per edge in the file; a self-loop that must be dropped
    _write_tu(tmp_path, "D", edges=[(1, 2), (3, 3), (3, 4)],
              indicator=[1, 1, 2, 2], graph_labels=[-1, 1],
              node_labels=[2, 5, 5, 2])
    bundle = load_tu_dataset(tmp_path, "D")
    assert sorted(g.class_label for g in bundle.graphs) == [0, 1]
    assert bundle.num_classes == 2
    assert bundle.num_node_labels == 2
    g0, g1 = bundle.graphs
    assert np.array_equal(g0.adjacency, [[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(g1.adjacency, [[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(g0.node_labels, [0, 1])
    assert np.array_equal(g1.node_labels, [1, 0])


def test_load_missing_file_raises_format(tmp_path):
    _write_tu(tmp_path, "X", edges=[(1, 2)], indicator=[1, 1], graph_labels=[0])
    (tmp_path / "X_graph_labels.txt").unlink()
    with pytest.raises(FormatError):
        load_tu_dataset(tmp_path, "X")


def test_load_non_integer_token_raises_parse_with_location(tmp_path):
    _write_tu(tmp_path, "X", edges=[(1, 2)], indicator=[1, 1], graph_labels=[0])
    (tmp_path / "X_A.txt").write_text("1, 2\n1, oops\n")
    with pytest.raises(ParseError) as excinfo:
        load_tu_dataset(tmp_path, "X")
    assert "X_A.txt:2" in str(excinfo.value)


@pytest.mark.parametrize("value", ["99999999999999999999",
                                   "-99999999999999999999"])
def test_load_integer_beyond_int64_raises_parse_with_location(tmp_path,
                                                             value):
    _write_tu(tmp_path, "X", edges=[(1, 2), (3, 4)], indicator=[1, 1, 2, 2],
              graph_labels=[0, value])
    with pytest.raises(ParseError, match=r"X_graph_labels\.txt:2: integer "
                                         "outside the int64 range"):
        load_tu_dataset(tmp_path, "X")


def test_load_edge_outside_any_graph_raises(tmp_path):
    _write_tu(tmp_path, "X", edges=[(1, 5)], indicator=[1, 1], graph_labels=[0])
    with pytest.raises(FormatError):
        load_tu_dataset(tmp_path, "X")


@pytest.mark.parametrize("edge, node", [((0, 3), 0), ((3, 0), 0),
                                        ((1, 4), 4), ((4, 1), 4)])
def test_load_edge_outside_any_graph_names_that_node(tmp_path, edge, node):
    _write_tu(tmp_path, "X", edges=[edge], indicator=[1, 1, 1],
              graph_labels=[0])
    with pytest.raises(FormatError, match=rf"X_A\.txt: node {node} referenced "
                                          r"outside any graph \(only 3 nodes\)"):
        load_tu_dataset(tmp_path, "X")


def test_load_cross_graph_edge_raises(tmp_path):
    _write_tu(tmp_path, "X", edges=[(1, 3)], indicator=[1, 1, 2, 2],
              graph_labels=[0, 1])
    with pytest.raises(FormatError):
        load_tu_dataset(tmp_path, "X")


@pytest.mark.parametrize("edges, message", [
    ([(1, 3), (1, 9)], r"edge \(1, 3\) crosses graphs"),
    ([(1, 9), (1, 3)], r"node 9 referenced outside any graph"),
])
def test_load_names_the_first_bad_edge_in_file_order(tmp_path, edges,
                                                    message):
    _write_tu(tmp_path, "X", edges=edges, indicator=[1, 1, 2, 2],
              graph_labels=[0, 1])
    with pytest.raises(FormatError, match=message):
        load_tu_dataset(tmp_path, "X")


def test_load_rejects_lines_whose_fields_only_add_up(tmp_path):
    # two lines of 1 and 3 fields hold as many tokens as two pairs
    _write_tu(tmp_path, "X", edges=[(1, 2)], indicator=[1, 1],
              graph_labels=[0])
    (tmp_path / "X_A.txt").write_text("1\n2, 1, 2\n")
    with pytest.raises(ParseError, match=r"X_A\.txt:1: expected 2 integer "
                                         r"field\(s\), got 1"):
        load_tu_dataset(tmp_path, "X")


def test_load_accepts_any_whitespace_str_split_accepts(tmp_path):
    _write_tu(tmp_path, "X", edges=[(1, 2)], indicator=[1, 1],
              graph_labels=[0])
    (tmp_path / "X_A.txt").write_text("1,\u00a02\r\n\n2\x0c1\n",
                                      encoding="utf-8")
    bundle = load_tu_dataset(tmp_path, "X")
    assert np.array_equal(bundle.graphs[0].adjacency, [[0.0, 1.0],
                                                       [1.0, 0.0]])


def test_load_reads_tokens_only_int_reads(tmp_path):
    _write_tu(tmp_path, "X", edges=[(1, 2)], indicator=[1, 1],
              graph_labels=[0])
    (tmp_path / "X_graph_indicator.txt").write_text("1\n0_001\n")
    bundle = load_tu_dataset(tmp_path, "X")
    assert [g.node_count for g in bundle.graphs] == [2]


def test_load_int_table_of_an_empty_file_is_empty(tmp_path, recwarn):
    path = tmp_path / "empty.txt"
    path.write_text("\n")
    table = _load_int_table(path, 2)
    assert table.shape == (0, 2) and table.dtype == np.int64
    assert not recwarn.list


@pytest.mark.parametrize("token", ["1.5", "0.9", "1e3", "1.0"])
def test_load_label_that_is_not_an_integer_raises_parse(tmp_path, token):
    _write_tu(tmp_path, "X", edges=[(1, 2), (3, 4)], indicator=[1, 1, 2, 2],
              graph_labels=[0, token])
    with pytest.raises(ParseError, match=re.escape(
            f"X_graph_labels.txt:2: non-integer token in '{token}'")):
        load_tu_dataset(tmp_path, "X")


def test_load_int_table_does_not_take_a_float_read_as_an_integer(
        tmp_path, monkeypatch):
    # numpy releases that read "1.5" into an integer column as 1 only
    # warn (DeprecationWarning); the line parser must get the file instead
    loadtxt = np.loadtxt

    def truncating_loadtxt(lines, dtype, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is "
                      "deprecated.", DeprecationWarning)
        return loadtxt(lines, dtype=np.float64, **kwargs).astype(dtype)

    monkeypatch.setattr(np, "loadtxt", truncating_loadtxt)
    path = tmp_path / "labels.txt"
    path.write_text("1\n1.5\n")
    with pytest.raises(ParseError, match=re.escape(
            f"{path}:2: non-integer token in '1.5'")):
        _load_int_table(path, 1)


INT64 = st.integers(-2**63, 2**63 - 1)
# tokens numpy or int() reject, or read differently from each other
ODD_TOKENS = st.sampled_from(["1.5", "0.9", "1e3", "1.0", "-0.0", "nan",
                              "inf", "0x1", "1_000", "+7", "2**3", "",
                              "99999999999999999999"])


def _outcome(parse):
    """What ``parse()`` returns, as a list, or the ParseError it raises."""
    try:
        table = parse()
    except ParseError as exc:
        return "ParseError", str(exc)
    assert table.dtype == np.int64
    return table.shape, table.tolist()


@settings(max_examples=200, deadline=None)
@given(columns=st.integers(1, 3), data=st.data())
def test_load_int_table_matches_the_line_parser(columns, data):
    odd = data.draw(st.booleans())
    token = st.one_of(INT64.map(str), ODD_TOKENS) if odd else INT64.map(str)
    rows = data.draw(st.lists(st.lists(token, min_size=columns,
                                       max_size=columns), max_size=8))
    gap = st.sampled_from([", ", ",", " ", "\t"])
    end = st.sampled_from(["\n", "\r\n", "\n\n", "\r\n \r\n"])
    text = "".join(
        "".join(f"{value}{data.draw(gap) if i < columns - 1 else ''}"
                for i, value in enumerate(row)) + data.draw(end)
        for row in rows)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "table.txt")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        got = _outcome(lambda: _load_int_table(path, columns))
    assert got == _outcome(
        lambda: _parse_lines(path, text.split("\n"), columns))
    if not odd:
        assert got == ((len(rows), columns), [[int(v) for v in row]
                                              for row in rows])


def test_round_trip_save_and_load(tmp_path):
    bundle = make_synthetic_bundle(count=6, with_node_labels=True)
    save_tu_dataset(bundle, tmp_path / "out")
    again = load_tu_dataset(tmp_path / "out", "synthetic")
    assert len(again.graphs) == 6
    assert again.num_classes == bundle.num_classes
    assert again.num_node_labels == bundle.num_node_labels
    for before, after in zip(bundle.graphs, again.graphs):
        assert np.array_equal(before.adjacency, after.adjacency)
        assert before.class_label == after.class_label
        assert np.array_equal(before.node_labels, after.node_labels)


def test_save_rejects_bundle_mixing_labeled_and_unlabeled_graphs(tmp_path):
    edge = path_adjacency(2)
    bundle = DatasetBundle(graphs=[
        LabeledGraph(adjacency=edge, class_label=0, node_labels=[0, 1]),
        LabeledGraph(adjacency=edge, class_label=1),
        LabeledGraph(adjacency=edge, class_label=1)],
        num_classes=2, num_node_labels=2, name="MIX")
    with pytest.raises(FormatError, match="MIX: graph 1 has no node labels"):
        save_tu_dataset(bundle, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_save_rejects_bundle_without_graphs(tmp_path):
    # the loader refuses a set with no nodes, so none is written
    bundle = DatasetBundle(graphs=[], num_classes=0, num_node_labels=0,
                           name="NONE")
    with pytest.raises(FormatError, match="NONE: no graphs to write"):
        save_tu_dataset(bundle, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_save_to_a_path_under_a_file_raises_io_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out"
    with pytest.raises(IoError, match=re.escape(
            f"cannot write dataset synthetic to {out}: ")):
        save_tu_dataset(make_synthetic_bundle(count=2), out)


def _contiguous(values):
    """Relabel integer ids onto 0..k-1 in sorted order, as loading does."""
    return np.unique(values, return_inverse=True)[1].reshape(-1)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       sizes=st.lists(st.integers(1, 8), min_size=1, max_size=6),
       density=st.floats(0.0, 1.0), labeled=st.booleans())
def test_round_trip_property(seed, sizes, density, labeled):
    """Saving then loading returns every graph's adjacency and labels."""
    rng = np.random.default_rng(seed)
    class_labels = _contiguous(rng.integers(0, 3, size=len(sizes)))
    node_labels = _contiguous(rng.integers(0, 4, size=sum(sizes)))
    graphs, offset = [], 0
    for n, label in zip(sizes, class_labels):
        upper = np.triu(rng.uniform(size=(n, n)) < density, k=1)
        graphs.append(LabeledGraph(
            adjacency=(upper | upper.T).astype(float), class_label=int(label),
            node_labels=node_labels[offset:offset + n] if labeled else None))
        offset += n
    bundle = DatasetBundle(graphs=graphs, num_classes=0, num_node_labels=0,
                           name="P")
    with tempfile.TemporaryDirectory() as root:
        save_tu_dataset(bundle, root)
        again = load_tu_dataset(root, "P")
    assert len(again.graphs) == len(graphs)
    for before, after in zip(graphs, again.graphs):
        assert np.array_equal(before.adjacency, after.adjacency)
        assert before.class_label == after.class_label
        if labeled:
            assert np.array_equal(before.node_labels, after.node_labels)
        else:
            assert after.node_labels is None


# ---------------------------------------------------------------------------
# featurization
# ---------------------------------------------------------------------------

def test_featurize_node_label_onehot():
    g = LabeledGraph(adjacency=path_adjacency(3), class_label=0,
                     node_labels=np.array([0, 2, 1]))
    x = featurize(g, NODE_LABEL_ONEHOT, 3)
    assert np.array_equal(x, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])


def test_featurize_degree_onehot_path_graph():
    g = LabeledGraph(adjacency=path_adjacency(3), class_label=0)
    x = featurize(g, DEGREE_ONEHOT, 4)
    assert np.array_equal(np.argmax(x, axis=1), [1, 2, 1])


def test_featurize_isolated_node_degree_zero():
    g = LabeledGraph(adjacency=np.zeros((1, 1)), class_label=0)
    assert np.array_equal(featurize(g, DEGREE_ONEHOT, 2), [[1.0, 0.0]])


def test_featurize_degree_clamps_to_last_bin():
    g = LabeledGraph(adjacency=np.ones((5, 5)) - np.eye(5), class_label=0)
    x = featurize(g, DEGREE_ONEHOT, 3)  # degree 4 clamps to bin 2
    assert (np.argmax(x, axis=1) == 2).all()


def test_featurize_rows_always_sum_to_one():
    for bundle in (make_synthetic_bundle(with_node_labels=True),
                   make_synthetic_bundle(with_node_labels=False)):
        scheme = (NODE_LABEL_ONEHOT if bundle.num_node_labels else DEGREE_ONEHOT)
        dim = bundle.num_node_labels or 8
        for g in bundle.graphs:
            x = featurize(g, scheme, dim)
            assert (x.sum(axis=1) == 1.0).all()
            assert ((x == 0.0) | (x == 1.0)).all()


def test_featurize_scheme_errors():
    unlabeled = LabeledGraph(adjacency=path_adjacency(2), class_label=0)
    with pytest.raises(SchemeError):
        featurize(unlabeled, NODE_LABEL_ONEHOT, 3)
    with pytest.raises(SchemeError):
        featurize(unlabeled, "mystery-scheme", 3)
    with pytest.raises(SchemeError):
        featurize(unlabeled, DEGREE_ONEHOT, 0)
    labeled = LabeledGraph(adjacency=path_adjacency(2), class_label=0,
                           node_labels=np.array([0, 4]))
    with pytest.raises(SchemeError):  # dim below the label range
        featurize(labeled, NODE_LABEL_ONEHOT, 3)


def test_featurize_rejects_a_non_integer_dim():
    graph = LabeledGraph(adjacency=path_adjacency(2), class_label=0)
    with pytest.raises(SchemeError, match=r"dim must be an integer, got 2\.5"):
        featurize(graph, DEGREE_ONEHOT, 2.5)
    with pytest.raises(SchemeError, match="dim must be an integer, got True"):
        featurize(graph, DEGREE_ONEHOT, True)


# ---------------------------------------------------------------------------
# adjacency normalization
# ---------------------------------------------------------------------------

def test_normalize_single_node():
    assert np.array_equal(normalize_adjacency(np.zeros((1, 1))), [[1.0]])


def test_normalize_two_node_edge_hand_value():
    out = normalize_adjacency(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(out, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)


def test_normalize_preserves_symmetry_and_rejects_non_square():
    rng = np.random.default_rng(0)
    raw = (rng.uniform(size=(6, 6)) < 0.4).astype(float)
    adjacency = np.triu(raw, 1) + np.triu(raw, 1).T
    out = normalize_adjacency(adjacency)
    assert np.array_equal(out, out.T)
    assert (out >= 0).all()
    with pytest.raises(ShapeError):
        normalize_adjacency(np.zeros((2, 3)))


def test_normalize_isolated_node_gets_unit_self_loop():
    adjacency = np.zeros((3, 3))
    adjacency[0, 1] = adjacency[1, 0] = 1.0
    out = normalize_adjacency(adjacency)
    assert out[2, 2] == 1.0
    assert out[2, 0] == out[2, 1] == 0.0


def test_normalize_keeps_weighted_input_with_positive_degrees():
    out = normalize_adjacency([[0.0, -0.5], [-0.5, 0.0]])
    np.testing.assert_allclose(out, [[2.0, -1.0], [-1.0, 2.0]], atol=1e-15)


@pytest.mark.parametrize("raw, message", [
    ([[0.0, -1.0], [-1.0, 0.0]], "row 0 of A \\+ I sums to 0.0"),
    ([[0.0, -3.0], [-3.0, 0.0]], "row 0 of A \\+ I sums to -2.0"),
    ([[0.0, np.inf], [np.inf, 0.0]], "entries must be finite"),
    ([[0.0, np.nan], [np.nan, 0.0]], "entries must be finite")])
def test_normalize_refuses_input_whose_result_is_not_finite(raw, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match=message):
            normalize_adjacency(raw)


# ---------------------------------------------------------------------------
# stratified folds
# ---------------------------------------------------------------------------

def test_folds_partition_and_stratify():
    labels = np.array([0, 0, 1, 1])
    folds = stratified_folds(labels, 2, seed=0)
    union = np.sort(np.concatenate(folds))
    assert np.array_equal(union, np.arange(4))
    for fold in folds:
        assert sorted(labels[fold]) == [0, 1]


def test_folds_per_class_counts_balanced():
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 3, size=50)
    folds = stratified_folds(labels, 5, seed=3)
    union = np.sort(np.concatenate(folds))
    assert np.array_equal(union, np.arange(50))
    for cls in range(3):
        counts = [int((labels[fold] == cls).sum()) for fold in folds]
        assert max(counts) - min(counts) <= 1


def test_folds_imbalanced_binary_fold_sizes():
    # 188 graphs split 125/63 into 10 folds must give sizes 18 or 19 only
    labels = np.array([0] * 125 + [1] * 63)
    folds = stratified_folds(labels, 10, seed=0)
    sizes = sorted(len(fold) for fold in folds)
    assert set(sizes) <= {18, 19}
    assert sum(sizes) == 188


def test_folds_deterministic_and_seed_sensitive():
    labels = np.arange(40) % 2
    first = stratified_folds(labels, 4, seed=9)
    second = stratified_folds(labels, 4, seed=9)
    other = stratified_folds(labels, 4, seed=10)
    assert all(np.array_equal(x, y) for x, y in zip(first, second))
    assert any(not np.array_equal(x, y) for x, y in zip(first, other))


@settings(max_examples=100, deadline=None)
@given(labels=st.lists(st.integers(0, 3), min_size=2, max_size=60),
       k=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
def test_folds_property(labels, k, seed):
    """Every index lands in exactly one fold, each class spreads over the
    folds within one, and the seed fixes the result."""
    labels = np.asarray(labels)
    k = min(k, labels.shape[0])
    folds = stratified_folds(labels, k, seed)
    assert len(folds) == k
    assert np.array_equal(np.sort(np.concatenate(folds)),
                          np.arange(labels.shape[0]))
    for cls in np.unique(labels):
        counts = [int((labels[fold] == cls).sum()) for fold in folds]
        assert max(counts) - min(counts) <= 1
    again = stratified_folds(labels, k, seed)
    assert all(np.array_equal(x, y) for x, y in zip(folds, again))


def test_folds_config_errors():
    labels = np.array([0, 1, 0, 1])
    with pytest.raises(ConfigError):
        stratified_folds(labels, 1, seed=0)
    with pytest.raises(ConfigError):
        stratified_folds(labels, 5, seed=0)


def test_folds_reject_a_non_integer_k():
    with pytest.raises(ConfigError, match=r"k must be an integer, got 2\.5"):
        stratified_folds(np.array([0, 1, 0, 1]), 2.5, 0)


def test_folds_reject_labels_that_are_not_integers():
    with pytest.raises(FormatError, match="stratified_folds: label 'a' is "
                       "not an integer"):
        stratified_folds(["a", "b"], 2, 0)


@pytest.mark.parametrize("labels", [[[0, 1], [1, 0]], [[0, 1, 0, 1]], 1])
def test_folds_need_one_label_per_sample(labels):
    with pytest.raises(ShapeError, match="stratified_folds: labels must be "
                       "one per sample"):
        stratified_folds(labels, 2, 0)


@pytest.mark.parametrize("seed, message", [
    (-1, "stratified_folds: seed must be >= 0, got -1"),
    (1.5, "stratified_folds: seed must be an integer, got 1.5")])
def test_folds_reject_a_seed_that_is_not_a_natural_number(seed, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        stratified_folds(np.array([0, 1, 0, 1]), 2, seed)
