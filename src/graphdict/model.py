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
import numbers
import zipfile
from dataclasses import dataclass, field, fields

import numpy as np

from . import mswe, tensor as T, vgda
from .data import SCHEMES, LabeledGraph, featurize, normalize_adjacency
from .encoder import DEFAULT_HIDDEN_DIMS, encode, init_weights, xavier_uniform
from .errors import ConfigError, FormatError, IoError, ShapeError


def check_ranges(rules):
    """Raise ConfigError with the message of the first (holds, message)
    rule in ``rules`` that does not hold."""
    for holds, message in rules:
        if not holds:
            raise ConfigError(message)


def integer_at_least(low, name, value):
    """The (holds, message) rule that ``value``, called ``name``, is an
    integer >= ``low``."""
    if isinstance(value, numbers.Integral):
        return value >= low, f"{name} must be >= {low}, got {value}"
    return False, f"{name} must be an integer, got {value!r}"


def real_where(holds, must, name, value):
    """The (holds, message) rule that ``value``, called ``name``, is a real
    number for which ``holds`` is true; ``must`` words that range."""
    if isinstance(value, numbers.Real):
        return holds(value), f"{name} must {must}, got {value}"
    return False, f"{name} must be a real number, got {value!r}"


def positive(name, value):
    """The rule that ``value`` is a finite real number > 0."""
    return real_where(lambda v: 0.0 < v < np.inf, "be finite and > 0",
                      name, value)


def nonnegative(name, value):
    """The rule that ``value`` is a finite real number >= 0."""
    return real_where(lambda v: 0.0 <= v < np.inf, "be finite and >= 0",
                      name, value)


def at_least_one(config, *names):
    """Rules that each named field of ``config`` is an integer >= 1."""
    return (integer_at_least(1, name, getattr(config, name))
            for name in names)


@dataclass(kw_only=True)
class Hyperparameters:
    """The fields TrainConfig and ModelConfig share, and their ranges."""

    encoder_dims: tuple[int, ...] = DEFAULT_HIDDEN_DIMS
    head_hidden: int = 64
    temperature: float = vgda.DEFAULT_TEMPERATURE
    sinkhorn_max_iter: int = mswe.DEFAULT_MAX_ITER
    sinkhorn_tol: float = mswe.DEFAULT_TOL
    # the loss, -log p[y] + beta * KL, and the sensitivity grid
    beta: float = 0.001
    p_hat: float = 0.5
    lambdas: tuple[float, ...] = mswe.DEFAULT_LAMBDA_GRID

    def __post_init__(self):
        check_ranges([
            *at_least_one(self, "head_hidden", "sinkhorn_max_iter"),
            *(integer_at_least(1, f"encoder_dims[{i}]", d)
              for i, d in enumerate(self.encoder_dims)),
            (self.encoder_dims, "encoder_dims must hold at least one layer"),
            positive("sinkhorn_tol", self.sinkhorn_tol),
            positive("temperature", self.temperature),
            nonnegative("beta", self.beta),
            real_where(lambda v: 0.0 < v < 1.0, "lie in (0, 1)", "p_hat",
                       self.p_hat),
            (self.lambdas and all(
                isinstance(v, numbers.Real) and 0.0 < v < np.inf
                for v in self.lambdas),
             f"lambdas must be one or more finite positive numbers, got "
             f"{self.lambdas}")])


@dataclass(kw_only=True)
class ModelConfig(Hyperparameters):
    """Everything needed to rebuild the model architecture."""

    num_classes: int
    feature_scheme: str
    feature_dim: int
    n_padded: int
    num_keys: int = 14

    def __post_init__(self):
        check_ranges([
            *at_least_one(self, "num_classes", "feature_dim", "n_padded",
                          "num_keys"),
            (self.feature_scheme in SCHEMES, "feature_scheme must be one of "
             f"{SCHEMES}, got {self.feature_scheme!r}")])
        super().__post_init__()

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
        raw["encoder_dims"] = tuple(raw["encoder_dims"])
        raw["lambdas"] = tuple(raw["lambdas"])
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


def node_count_groups(node_counts):
    """Positions of equal node counts, grouped in first-appearance order."""
    groups = {}
    for i, n in enumerate(node_counts):
        groups.setdefault(n, []).append(i)
    return list(groups.values())


def encode_groups(features, a_hats, weights, groups):
    """Each graph's encoding through one branch's ``weights``, in input
    order, from one :func:`encode` per group of equal node count.

    ``groups`` lists the positions of each group's graphs.  A group of one
    is its graph's own encoding.  A larger group's feature tensors are
    stacked and its adjacencies form one (G, n, n) stack; each graph's
    rows come back out through one ``row_select``.
    """
    encoded = [None] * len(features)
    for members in groups:
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
            keys.features, keys.a_hat, self.encoder_dict,
            node_count_groups(a.shape[0] for a in keys.a_hat)))

    def forward(self, batch, mode, rng=None, masks=None, plans=None,
                use_vgda=True):
        """One pass over a batch of prepared graphs: class probabilities,
        embeddings, and references to the stacked state they were built
        from.  The KL term is the loss's (:meth:`batch_loss`).

        Every key is adapted to every graph at once: the sampling
        probabilities, masks and classifier head are batch ops with one
        row or column per graph.  The graphs that share a node count n
        form a group, in first-appearance order (a batch of one, as in
        :meth:`predict`, is a group of one).  Each group is encoded in one
        :func:`encode` pass and transported in one solve
        (:func:`mswe.embed_group`), so each entry of ``result.plans`` is a
        column view of its group's plans.  Each graph's rows come back out
        of its group's encoding in batch order, and its key selection,
        costs, plan costs and attention run at its own node count.
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
        groups = node_count_groups(g.node_count for g in batch)
        f_inputs = encode_groups([T.constant(g.features) for g in batch],
                                 [g.a_hat for g in batch],
                                 self.encoder_input, groups)

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

        h_matrix, cost, solved = ([None] * len(batch) for _ in range(3))
        for members in groups:
            embedded = mswe.embed_group(
                [f_inputs[i] for i in members],
                [adapted[i] for i in members], cfg.lambdas,
                max_iter=cfg.sinkhorn_max_iter, tol=cfg.sinkhorn_tol,
                plans_override=(None if plans is None
                                else [plans[i] for i in members]))
            for i, h, c, s in zip(members, *embedded):
                h_matrix[i], cost[i], solved[i] = h, c, s
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
    values, or (a key adjacency) that breaks :class:`LabeledGraph`'s rules.
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
            name = f"key_{j}_adjacency"
            stored = array(name)
            source_class.append(int(array(f"key_{j}_class", (1,))[0]))
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
