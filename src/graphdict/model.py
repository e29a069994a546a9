"""End-to-end model: learnable graph dictionary, adaptation, transport
embedding, attention fusion, and the classifier head with its loss.

Parameters are partitioned into two trained sets — phi (the sampling
projection vector) and psi (input-branch encoder weights, dictionary node
features, attention projection, classifier head) — plus the momentum-updated
dictionary-branch encoder, which belongs to neither and never receives
gradients.
"""

from __future__ import annotations

import itertools
import json
import zipfile
from dataclasses import MISSING, dataclass, field, fields
from functools import partial

import numpy as np

from . import mswe, tensor as T, vgda
from .data import (SCHEMES, LabeledGraph, _integers, featurize,
                   normalize_adjacency)
from .encoder import DEFAULT_HIDDEN_DIMS, encode, init_weights, xavier_uniform
from .errors import (ConfigError, FormatError, IoError, ShapeError,
                     check_ranges, integer_at_least, nonnegative, positive,
                     real_where)


def layer_widths(name, value):
    """The rule that ``value`` is a tuple of one or more integers >= 1."""
    if not isinstance(value, tuple):
        return False, f"{name} must be a sequence, got {value!r}"
    widths = (integer_at_least(1, f"{name}[{i}]", d)
              for i, d in enumerate(value))
    return next((rule for rule in widths if not rule[0]),
                (value, f"{name} must hold at least one layer"))


def lambda_grid(name, value):
    """The rule that ``value`` is a tuple of one or more finite reals > 0."""
    return (isinstance(value, tuple) and value != ()
            and all(positive(name, v)[0] for v in value),
            f"{name} must be one or more finite positive numbers, got {value}")


def _plain(value):
    """``value`` with a NumPy array or scalar as Python lists and scalars."""
    if isinstance(value, np.ndarray | np.generic):
        return value.tolist()
    return value


def ranged(default, rule, *args):
    """A config field defaulting to ``default`` (MISSING: required) whose
    value must pass the (holds, message) rule ``rule(*args, name, value)``."""
    return field(default=default, metadata={"rule": partial(rule, *args)})


@dataclass(kw_only=True)
class Hyperparameters:
    """The fields TrainConfig and ModelConfig share.  Each config checks its
    :func:`ranged` fields in declaration order, these first.  NumPy values
    are kept as Python ones, and a tuple field's list or array as a tuple."""

    encoder_dims: tuple[int, ...] = ranged(DEFAULT_HIDDEN_DIMS, layer_widths)
    head_hidden: int = ranged(64, integer_at_least, 1)
    temperature: float = ranged(vgda.DEFAULT_TEMPERATURE, positive)
    sinkhorn_max_iter: int = ranged(mswe.DEFAULT_MAX_ITER, integer_at_least, 1)
    sinkhorn_tol: float = ranged(mswe.DEFAULT_TOL, positive)
    # the loss, -log p[y] + beta * KL, and the sensitivity grid
    beta: float = ranged(0.001, nonnegative)
    p_hat: float = ranged(0.5, real_where, lambda v: 0.0 < v < 1.0,
                          "lie in (0, 1)")
    lambdas: tuple[float, ...] = ranged(mswe.DEFAULT_LAMBDA_GRID, lambda_grid)

    def __post_init__(self):
        for f in fields(self):
            raw = _plain(getattr(self, f.name))
            if isinstance(f.default, tuple) and isinstance(raw, list | tuple):
                raw = tuple(_plain(v) for v in raw)
            setattr(self, f.name, raw)
        check_ranges(f.metadata["rule"](f.name, getattr(self, f.name))
                     for f in fields(self) if "rule" in f.metadata)


@dataclass(kw_only=True)
class ModelConfig(Hyperparameters):
    """Everything needed to rebuild the model architecture."""

    num_classes: int = ranged(MISSING, integer_at_least, 1)
    feature_scheme: str = ranged(MISSING, lambda name, value: (
        isinstance(value, str) and value in SCHEMES,
        f"{name} must be one of {SCHEMES}, got {value!r}"))
    feature_dim: int = ranged(MISSING, integer_at_least, 1)
    n_padded: int = ranged(MISSING, integer_at_least, 1)
    num_keys: int = ranged(14, integer_at_least, 1)

    def to_json(self):
        """The fields in declaration order (tuples as JSON lists)."""
        return json.dumps({f.name: getattr(self, f.name)
                           for f in fields(self)})

    @classmethod
    def from_json(cls, text):
        """The config ``to_json`` wrote; every field must be present."""
        raw = json.loads(text)
        for f in fields(cls):
            if f.name not in raw:
                raise ConfigError(f"field {f.name!r} is missing")
        return cls(**raw)


@dataclass
class BaseGraphDictionary:
    """The keys as one list per field, in key order: each key's fixed
    adjacency, its trainable node features and its source graph's class.

    ``a_hat`` (the normalized adjacencies) and ``offsets`` are derived from
    the adjacencies.  Key j owns rows offsets[j]:offsets[j+1] of
    ``encoded``, the stacked key encodings once refreshed.
    """

    adjacency: list[np.ndarray]
    features: list[T.Tensor]        # trainable (psi)
    source_class: list[int]
    encoded: T.Tensor | None = None
    a_hat: list[np.ndarray] = field(init=False)
    offsets: np.ndarray = field(init=False)

    def __post_init__(self):
        self.a_hat = [normalize_adjacency(a) for a in self.adjacency]
        self.offsets = np.cumsum([0] + [a.shape[0] for a in self.adjacency])

    def __len__(self):
        return len(self.adjacency)


def init_base_dictionary(train_graphs, k, seed, scheme, feature_dim):
    """Seed k dictionary keys from training graphs, round-robin over classes.

    Each class's graphs are shuffled, classes in sorted order, and the keys
    are dealt one per class per turn from the end of each shuffled pool; a
    class whose pool runs out drops out of the turns.  Deterministic given
    the seed.
    """
    graphs = list(train_graphs)
    check_ranges([integer_at_least(1, "dictionary size", k)])
    if k > len(graphs):
        raise ConfigError(f"dictionary size {k} exceeds the {len(graphs)} "
                          "available training graphs")
    rng = np.random.default_rng(seed)
    classes = np.asarray([graph.class_label for graph in graphs])
    pools = [rng.permutation(np.flatnonzero(classes == cls))[::-1]
             for cls in np.unique(classes)]
    dealt = [idx for turn in itertools.zip_longest(*pools)
             for idx in turn if idx is not None]
    keys = [graphs[idx] for idx in dealt[:k]]
    return BaseGraphDictionary(
        adjacency=[key.adjacency.copy() for key in keys],
        features=[T.Tensor(featurize(key, scheme, feature_dim),
                           requires_grad=True) for key in keys],
        source_class=[key.class_label for key in keys])


def dense_shapes(config):
    """The shape of each dense weight, under the name the model and its
    checkpoint give it, in checkpoint order."""
    return {"w_r": (config.n_padded, 1),
            "w_m": (1, config.num_keys),
            "head_w1": (config.num_keys, config.head_hidden),
            "head_w2": (config.head_hidden, config.num_classes)}


def encode_groups(features, a_hats, weights):
    """Each graph's encoding through one branch's ``weights``, in input
    order, from one :func:`encode` per group of equal node count.

    The graphs whose adjacencies share a node count n form a group, in
    first-appearance order (:func:`~graphdict.tensor.node_count_groups`).
    A group of one is its graph's own encoding.  A larger group's feature
    tensors are stacked and its adjacencies form one (G, n, n) stack; each
    graph's rows come back out through one ``row_select``.
    """
    encoded = [None] * len(features)
    for members in T.node_count_groups(a.shape[0] for a in a_hats):
        if len(members) == 1:
            (i,) = members
            encoded[i] = encode(features[i], a_hats[i], weights)
            continue
        h = encode(T.concat_rows([features[i] for i in members]),
                   np.array([a_hats[i] for i in members]), weights)
        block = np.arange(h.values.shape[0]) // a_hats[members[0]].shape[0]
        for k, i in enumerate(members):
            encoded[i] = T.row_select(h, block == k)
    return encoded


@dataclass
class PreparedGraph:
    """A graph preprocessed for the model at its own node count n."""

    features: np.ndarray        # (n, feature_dim)
    a_hat: np.ndarray           # (n, n) normalized adjacency
    label: int

    @property
    def node_count(self):
        return self.features.shape[0]


@dataclass
class ForwardResult:
    """One forward pass over a batch of G graphs.

    The list fields hold one entry per graph, in batch order.
    """

    probabilities: T.Tensor     # (G, num_classes)
    h_matrix: list[T.Tensor]    # (K, C) each
    h_hat: list[T.Tensor]       # (1, K) each
    alpha: list[T.Tensor]       # (1, C) each
    factor: vgda.SamplingFactor | None = None  # None when use_vgda=False
    cost: list[T.Tensor] | None = None         # (n, sum of selected m_j) each
    plans: list[mswe.PlanStack] | None = None  # None when plans were given


@dataclass(eq=False)
class GraphDictionaryModel:
    """The full pipeline: encode -> adapt keys -> transport embed -> classify.

    Each encoder branch is a list of layer weights.  The dense weights are
    trainable and shaped as :func:`dense_shapes` says.
    """

    config: ModelConfig
    encoder_input: list[T.Tensor]   # trained by backprop
    encoder_dict: list[T.Tensor]    # the momentum branch, never trained
    dictionary: BaseGraphDictionary
    w_r: T.Tensor                   # VGDA projection; n-node inputs use [:n]
    w_m: T.Tensor                   # attention over the sensitivities
    head_w1: T.Tensor               # classifier: K -> hidden, then ReLU
    head_w2: T.Tensor               # classifier: hidden -> num_classes

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, config, train_graphs, seed):
        """Fresh model with the dictionary seeded from training graphs."""
        rng = np.random.default_rng(seed)
        encoder_input = init_weights(config.feature_dim, rng,
                                     hidden_dims=config.encoder_dims)
        encoder_dict = [T.Tensor(w.values.copy()) for w in encoder_input]
        dictionary = init_base_dictionary(train_graphs, config.num_keys, rng,
                                          config.feature_scheme,
                                          config.feature_dim)
        shape = dense_shapes(config)
        initial = {"w_r": rng.normal(0.0, 0.01, size=shape["w_r"]),
                   "w_m": np.zeros(shape["w_m"]),
                   "head_w1": xavier_uniform(rng, *shape["head_w1"]),
                   "head_w2": xavier_uniform(rng, *shape["head_w2"])}
        return cls(config, encoder_input, encoder_dict, dictionary,
                   **{name: T.Tensor(initial[name], requires_grad=True)
                      for name in shape})

    # -- parameter partition ------------------------------------------------

    def phi_parameters(self):
        """The sampling-projection set (adapted per input)."""
        return [self.w_r]

    def psi_parameters(self):
        """Encoder, dictionary features, attention, and head weights."""
        return [*self.encoder_input, *self.dictionary.features,
                self.w_m, self.head_w1, self.head_w2]

    def parameters(self):
        return self.phi_parameters() + self.psi_parameters()

    # -- preprocessing ------------------------------------------------------

    def prepare(self, graph):
        """One graph's (n, d) features and (n, n) normalized adjacency.

        The graph keeps its own node count n, which must not exceed
        ``n_padded`` (the row count of the projection vector ``w_r``).
        """
        cfg = self.config
        n = graph.node_count
        if n > cfg.n_padded:
            raise ConfigError(f"graph with {n} nodes exceeds the padded "
                              f"size {cfg.n_padded}")
        return PreparedGraph(
            features=featurize(graph, cfg.feature_scheme, cfg.feature_dim),
            a_hat=normalize_adjacency(graph.adjacency),
            label=graph.class_label)

    # -- forward ------------------------------------------------------------

    def refresh_key_encodings(self):
        """Re-encode every key through the momentum branch and stack them
        in key order; keys of one node count share an encoder pass.

        Call once per optimizer step inside the active tape (gradients flow
        to the trainable node features through the frozen branch weights),
        or once before a batch of evaluation passes.
        """
        keys = self.dictionary
        keys.encoded = T.concat_rows(encode_groups(
            keys.features, keys.a_hat, self.encoder_dict))

    def forward(self, batch, mode, rng=None, masks=None, plans=None,
                use_vgda=True):
        """One pass over a batch of prepared graphs: class probabilities,
        embeddings, and references to the stacked state they were built
        from.  The KL term is the loss's (:meth:`batch_loss`).

        Every key is adapted to every graph at once: the sampling
        probabilities, masks and classifier head are batch ops with one
        row or column per graph.  The input encoder
        (:func:`encode_groups`) and the transport stage
        (:func:`mswe.embed_batch`) each take the whole batch; graphs of
        one node count share an encoder pass and a Sinkhorn solve there.
        Each graph's key selection, costs, plan costs and attention run at
        its own node count.
        Frozen state goes back in as the result holds it: ``masks``, the
        (sum m_j, G) array of ``result.factor.z``, replaces the sampled
        masks (no straight-through surrogate is attached); ``plans``, one
        (C, n, sum m_j) array per graph (``[s.values for s in
        result.plans]``), replaces the transport solves.
        Raises NumericsError when the probabilities come out non-finite,
        in eval mode (no tape) as in training, and ShapeError
        when ``plans`` does not hold one entry per graph.
        """
        cfg = self.config
        keys = self.dictionary
        if keys.encoded is None:
            raise ConfigError("call refresh_key_encodings() before forward()")
        if plans is not None and len(plans) != len(batch):
            raise ShapeError(f"forward: {len(plans)} plan stacks for a batch "
                             f"of {len(batch)} graphs")
        f_inputs = encode_groups([T.constant(g.features) for g in batch],
                                 [g.a_hat for g in batch], self.encoder_input)

        factor = None
        if use_vgda:
            adapted, factor = vgda.adapt_keys(
                T.concat_rows(f_inputs), keys.encoded, keys.offsets,
                self.w_r, mode, rng=rng, temperature=cfg.temperature,
                mask_override=masks,
                input_offsets=[0, *itertools.accumulate(
                    f.values.shape[0] for f in f_inputs)])
        else:
            adapted = [vgda.AdaptedKey(features=keys.encoded,
                                       offsets=keys.offsets)] * len(batch)

        h_matrix, cost, solved = mswe.embed_batch(
            f_inputs, adapted, cfg.lambdas, max_iter=cfg.sinkhorn_max_iter,
            tol=cfg.sinkhorn_tol, plans_override=plans)
        h_hat, alpha = map(list, zip(*(
            mswe.aggregate_attention_matrix(h, self.w_m) for h in h_matrix)))

        hidden = T.relu(T.matmul(T.concat_rows(h_hat), self.head_w1))
        probabilities = T.row_softmax(T.matmul(hidden, self.head_w2))
        T.check_finite("model.forward: class probabilities", probabilities)
        return ForwardResult(probabilities=probabilities,
                             h_matrix=h_matrix, h_hat=h_hat, alpha=alpha,
                             factor=factor, cost=cost,
                             plans=None if plans is not None else solved)

    # -- loss ---------------------------------------------------------------

    def batch_loss(self, result, labels):
        """Mean of -log p[label] + beta * KL over a batch's forward result.

        p[label] is each probability row times its one-hot label, summed
        through a ones column: exact, as every other term is zero.  The KL
        is each graph's Bernoulli KL of its sampling probabilities against
        ``p_hat``; a forward without VGDA (no ``factor``) has none.  One
        label per probability row; another count raises ShapeError.
        """
        cfg = self.config
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        rows = result.probabilities.values.shape[0]
        if labels.shape[0] != rows:
            raise ShapeError(f"batch_loss: {labels.shape[0]} labels for "
                             f"{rows} probability rows")
        outside = (labels < 0) | (labels >= cfg.num_classes)
        if outside.any():
            raise ConfigError(f"label {labels[outside][0]} outside "
                              f"[0, {cfg.num_classes})")
        onehot = np.zeros((labels.shape[0], cfg.num_classes))
        onehot[np.arange(labels.shape[0]), labels] = 1.0
        p_true = T.matmul(T.multiply(result.probabilities, T.constant(onehot)),
                          T.constant(np.ones((cfg.num_classes, 1))))
        loss = T.scale(T.log(T.clamp(p_true, 1e-12, None)), -1.0)
        if result.factor is not None:
            kl = vgda.bernoulli_kl(cfg.p_hat, result.factor.p)
            loss = T.add(loss, T.scale(kl, cfg.beta))
        return T.mean_all(loss)

    # -- evaluation helpers --------------------------------------------------

    def predict(self, prepared):
        """Eval-mode class probabilities of one graph (deterministic, no
        tape): a forward over a batch of one."""
        return self.forward([prepared], vgda.EVAL).probabilities.values[0]

    def evaluate(self, prepared_list):
        """Eval-mode predicted labels of prepared graphs, and the accuracy."""
        self.refresh_key_encodings()
        predicted = [int(np.argmax(self.predict(p))) for p in prepared_list]
        correct = sum(y == p.label for y, p in zip(predicted, prepared_list))
        return predicted, (correct / len(predicted) if predicted else 0.0)


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT_VERSION = 1


def save_checkpoint(model, path):
    """Serialize all parameters plus config, bit-exactly, to one .npz
    archive at exactly ``path``, tagged with
    :data:`CHECKPOINT_FORMAT_VERSION`.  Raises IoError naming ``path`` when
    it cannot be written."""
    arrays = {"format_version": np.asarray([CHECKPOINT_FORMAT_VERSION]),
              "config": np.frombuffer(model.config.to_json().encode("utf-8"),
                                      dtype=np.uint8).copy()}
    for branch, weights in (("enc_input", model.encoder_input),
                            ("enc_dict", model.encoder_dict)):
        arrays.update((f"{branch}_{i}", w.values)
                      for i, w in enumerate(weights))
    keys = model.dictionary
    for j, features in enumerate(keys.features):
        arrays[f"key_{j}_adjacency"] = keys.adjacency[j]
        arrays[f"key_{j}_features"] = features.values
        arrays[f"key_{j}_class"] = np.asarray([keys.source_class[j]])
    arrays.update((name, getattr(model, name).values)
                  for name in dense_shapes(model.config))
    try:
        # through an open file, so no ".npz" is appended to ``path``
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
    except OSError as exc:
        raise IoError(f"cannot write checkpoint {path}: {exc}") from exc


def load_checkpoint(path):
    """Rebuild a model from a checkpoint written by :func:`save_checkpoint`.

    Raises IoError when ``path`` cannot be read and FormatError when it is
    not a complete checkpoint, naming the path and any missing array, or any
    array whose shape does not fit the stored config, that holds non-finite
    values, that (a key adjacency) breaks :class:`LabeledGraph`'s rules, or
    that (a key class) is not an integer in [0, ``num_classes``).
    A config out of range or missing a field, or a checkpoint without a
    ``format_version`` or with one other than
    :data:`CHECKPOINT_FORMAT_VERSION`, raises FormatError naming the path.
    """
    try:
        data = np.load(path)
    except OSError as exc:
        raise IoError(f"cannot read checkpoint {path}: {exc}") from exc
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise FormatError(f"checkpoint {path} is not an .npz archive") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise FormatError(f"checkpoint {path} is not an .npz archive")

    def array(name, shape=None):
        """Array ``name``; ``shape`` lists each axis's size, None any size."""
        if name not in data.files:
            raise FormatError(f"checkpoint {path} lacks array {name!r}")
        try:
            values = data[name]
        except (ValueError, zipfile.BadZipFile) as exc:
            raise FormatError(f"checkpoint {path}: array {name!r} is "
                              f"corrupt: {exc}") from exc
        if shape is not None and (values.ndim != len(shape) or any(
                want not in (None, got)
                for want, got in zip(shape, values.shape))):
            raise FormatError(f"checkpoint {path}: array {name!r} has shape "
                              f"{values.shape}, expected {shape}")
        if values.dtype.kind not in "biuf" or not np.isfinite(values).all():
            raise FormatError(f"checkpoint {path}: array {name!r} must hold "
                              "finite numbers")
        return values

    def trained(name, shape):
        return T.Tensor(array(name, shape), requires_grad=True)

    with data:
        version = (array("format_version", (1,))[0].item()
                   if "format_version" in data.files else None)
        if version != CHECKPOINT_FORMAT_VERSION:
            found = ("no format_version" if version is None
                     else f"format_version {version!r}")
            raise FormatError(f"checkpoint {path} has {found}; this build "
                              f"reads version {CHECKPOINT_FORMAT_VERSION}")
        try:
            text = bytes(array("config")).decode("utf-8")
            config = ModelConfig.from_json(text)
        except ConfigError as exc:
            raise FormatError(f"checkpoint {path} has a bad config: "
                              f"{exc}") from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"checkpoint {path} has a malformed config: "
                              f"{exc!r}") from exc
        dims = (config.feature_dim, *config.encoder_dims)
        enc_input, enc_dict = ([
            T.Tensor(array(f"{branch}_{i}", dims[i:i + 2]), requires_grad=grad)
            for i in range(len(config.encoder_dims))]
            for branch, grad in (("enc_input", True), ("enc_dict", False)))
        adjacency, features, source_class = [], [], []
        for j in range(config.num_keys):
            name = f"key_{j}_class"
            stored = array(name, (1,))
            try:
                label = int(_integers("class label", stored)[0])
            except FormatError as exc:
                raise FormatError(f"checkpoint {path}: array {name!r}: "
                                  f"{exc}") from exc
            if not 0 <= label < config.num_classes:
                raise FormatError(f"checkpoint {path}: array {name!r} holds "
                                  f"{label}, not a class in [0, "
                                  f"{config.num_classes})")
            source_class.append(label)
            name = f"key_{j}_adjacency"
            stored = array(name)
            try:
                graph = LabeledGraph(adjacency=stored,
                                     class_label=source_class[-1])
            except FormatError as exc:
                raise FormatError(f"checkpoint {path}: array {name!r}: "
                                  f"{exc}") from exc
            adjacency.append(graph.adjacency)
            features.append(trained(f"key_{j}_features",
                                    (graph.node_count, config.feature_dim)))
        dense = {name: trained(name, shape)
                 for name, shape in dense_shapes(config).items()}
    return GraphDictionaryModel(config, enc_input, enc_dict,
                                BaseGraphDictionary(adjacency, features,
                                                    source_class), **dense)
