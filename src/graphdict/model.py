"""End-to-end model: learnable graph dictionary, adaptation, transport
embedding, attention fusion, and the classifier head with its loss.

Parameters are partitioned into two trained sets — phi (the sampling
projection vector) and psi (input-branch encoder weights, dictionary node
features, attention projection, classifier head) — plus the momentum-updated
dictionary-branch encoder, which belongs to neither and never receives
gradients.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field, fields

import numpy as np

from . import mswe, tensor as T, vgda
from .data import LabeledGraph, featurize, normalize_adjacency
from .encoder import DEFAULT_HIDDEN_DIMS, EncoderParams, encode, xavier_uniform
from .errors import ConfigError, FormatError, IoError, ShapeError


@dataclass
class ModelConfig:
    """Everything needed to rebuild the model architecture."""

    num_classes: int
    feature_scheme: str
    feature_dim: int
    n_padded: int
    num_keys: int = 14
    encoder_dims: tuple = DEFAULT_HIDDEN_DIMS
    head_hidden: int = 64
    temperature: float = vgda.DEFAULT_TEMPERATURE
    sinkhorn_max_iter: int = mswe.DEFAULT_MAX_ITER
    sinkhorn_tol: float = mswe.DEFAULT_TOL
    # the loss, -log p[y] + beta * KL, and the sensitivity grid
    beta: float = 0.001
    p_hat: float = 0.5
    lambdas: tuple = mswe.DEFAULT_LAMBDA_GRID

    def __post_init__(self):
        if self.beta < 0.0:
            raise ConfigError(f"beta must be >= 0, got {self.beta}")
        if not (0.0 < self.p_hat < 1.0):
            raise ConfigError(f"p_hat must lie in (0, 1), got {self.p_hat}")

    def to_json(self):
        """The fields in declaration order (tuples as JSON lists)."""
        return json.dumps({f.name: getattr(self, f.name)
                           for f in fields(self)})

    @classmethod
    def from_json(cls, text):
        raw = json.loads(text)
        raw["encoder_dims"] = tuple(raw["encoder_dims"])
        raw["lambdas"] = tuple(raw["lambdas"])
        return cls(**raw)


@dataclass
class DictionaryKey:
    """One dictionary entry: fixed adjacency, trainable node features."""

    key_id: int
    source_class: int
    adjacency: np.ndarray
    a_hat: np.ndarray
    features: T.Tensor            # trainable (psi)

    @property
    def node_count(self):
        return self.adjacency.shape[0]


@dataclass
class BaseGraphDictionary:
    """The keys, plus their stacked encodings once refreshed.

    Key j owns rows offsets[j]:offsets[j+1] of ``encoded``.
    """

    keys: list[DictionaryKey]
    encoded: T.Tensor | None = None
    offsets: np.ndarray = field(init=False)

    def __post_init__(self):
        self.offsets = np.cumsum([0] + [key.node_count for key in self.keys])

    def __len__(self):
        return len(self.keys)


def init_base_dictionary(train_graphs, k, seed, scheme, feature_dim):
    """Seed k dictionary keys from training graphs, round-robin over classes.

    Classes are visited in sorted order; within a class, graphs are sampled
    without replacement in shuffled order.  Exhausted classes drop out of
    the rotation.  Deterministic given the seed.
    """
    graphs = list(train_graphs)
    if k < 1:
        raise ConfigError(f"dictionary size must be >= 1, got {k}")
    if k > len(graphs):
        raise ConfigError(f"dictionary size {k} exceeds the {len(graphs)} "
                          "available training graphs")
    rng = np.random.default_rng(seed)
    pools = {}
    for idx, graph in enumerate(graphs):
        pools.setdefault(graph.class_label, []).append(idx)
    order = sorted(pools)
    for cls in order:
        pool = np.asarray(pools[cls], dtype=np.int64)
        rng.shuffle(pool)
        pools[cls] = list(pool)

    keys = []
    while len(keys) < k:
        progressed = False
        for cls in order:
            if len(keys) == k:
                break
            if pools[cls]:
                idx = pools[cls].pop()
                graph = graphs[idx]
                keys.append(DictionaryKey(
                    key_id=len(keys),
                    source_class=graph.class_label,
                    adjacency=graph.adjacency.copy(),
                    a_hat=normalize_adjacency(graph.adjacency),
                    features=T.Tensor(featurize(graph, scheme, feature_dim),
                                      requires_grad=True),
                ))
                progressed = True
        if not progressed:  # unreachable given k <= len(graphs)
            raise ConfigError("dictionary initialization ran out of graphs")
    return BaseGraphDictionary(keys=keys)


@dataclass
class ClassifierHead:
    """Two dense layers with a ReLU between: K -> hidden -> num_classes."""

    w1: T.Tensor
    w2: T.Tensor

    @classmethod
    def initialize(cls, num_keys, hidden, num_classes, rng):
        return cls(w1=T.Tensor(xavier_uniform(rng, num_keys, hidden),
                               requires_grad=True),
                   w2=T.Tensor(xavier_uniform(rng, hidden, num_classes),
                               requires_grad=True))


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
    probabilities: T.Tensor     # (1, num_classes)
    kl: T.Tensor                # (1, 1)
    h_matrix: T.Tensor          # (K, C)
    h_hat: T.Tensor             # (K, 1)
    alpha: T.Tensor             # (1, C)
    factor: vgda.SamplingFactor | None = None  # None when use_vgda=False
    cost: T.Tensor | None = None               # (n, sum of selected m_j)
    plans: mswe.PlanStack | None = None        # None when plans were given


class GraphDictionaryModel:
    """The full pipeline: encode -> adapt keys -> transport embed -> classify."""

    def __init__(self, config, encoder_input, encoder_dict, dictionary,
                 vgda_params, w_m, head):
        self.config = config
        self.encoder_input = encoder_input
        self.encoder_dict = encoder_dict
        self.dictionary = dictionary
        self.vgda_params = vgda_params
        self.w_m = w_m
        self.head = head

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, config, train_graphs, seed):
        """Fresh model with the dictionary seeded from training graphs."""
        rng = np.random.default_rng(seed)
        encoder_input = EncoderParams.initialize(
            config.feature_dim, rng, hidden_dims=config.encoder_dims,
            trainable=True)
        encoder_dict = encoder_input.copy_as_momentum_branch()
        dictionary = init_base_dictionary(train_graphs, config.num_keys, rng,
                                          config.feature_scheme,
                                          config.feature_dim)
        vgda_params = vgda.VgdaParams.initialize(config.n_padded, rng)
        w_m = T.Tensor(np.zeros((1, config.num_keys)), requires_grad=True)
        head = ClassifierHead.initialize(config.num_keys, config.head_hidden,
                                         config.num_classes, rng)
        return cls(config, encoder_input, encoder_dict, dictionary,
                   vgda_params, w_m, head)

    # -- parameter partition ------------------------------------------------

    def phi_parameters(self):
        """The sampling-projection set (adapted per input)."""
        return [self.vgda_params.w_r]

    def psi_parameters(self):
        """Encoder, dictionary features, attention, and head weights."""
        params = list(self.encoder_input.weights)
        params.extend(key.features for key in self.dictionary.keys)
        params.append(self.w_m)
        params.extend([self.head.w1, self.head.w2])
        return params

    def parameters(self):
        return self.phi_parameters() + self.psi_parameters()

    def momentum_parameters(self):
        return list(self.encoder_dict.weights)

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
        """Re-encode every key through the momentum branch and stack them.

        Call once per optimizer step inside the active tape (gradients flow
        to the trainable node features through the frozen branch weights),
        or once before a batch of evaluation passes.
        """
        self.dictionary.encoded = T.concat_rows(
            [encode(key.features, key.a_hat, self.encoder_dict)
             for key in self.dictionary.keys])

    def forward(self, prepared, mode, rng=None, masks=None, plans=None,
                use_vgda=True):
        """One pass: class probabilities, total KL, embeddings, and
        references to the stacked state they were built from.

        Every key is adapted and embedded at once, as one stacked matrix.
        Frozen state goes back in as the result holds it: ``masks``, the
        (sum m_j,) array of ``result.factor.z``, replaces the sampled mask
        (no straight-through surrogate is attached); ``plans``, the padded
        array of ``result.plans.values``, replaces the transport solves.
        Raises NumericsError when the probabilities or the KL come out
        non-finite, in eval mode (no tape) as in training.
        """
        cfg = self.config
        keys = self.dictionary
        if keys.encoded is None:
            raise ConfigError("call refresh_key_encodings() before forward()")
        f_input = encode(prepared.features, prepared.a_hat, self.encoder_input)

        factor = None
        if use_vgda:
            adapted, factor, kl_total = vgda.adapt_keys(
                f_input, keys.encoded, keys.offsets, self.vgda_params.w_r,
                mode, rng=rng, temperature=cfg.temperature, p_hat=cfg.p_hat,
                mask_override=masks)
        else:
            adapted = vgda.AdaptedKey(features=keys.encoded,
                                      offsets=keys.offsets)
            kl_total = T.constant(0.0)

        h_matrix, cost, solved = mswe.embed_keys_multi(
            f_input, adapted, cfg.lambdas, max_iter=cfg.sinkhorn_max_iter,
            tol=cfg.sinkhorn_tol, plans_override=plans)
        h_hat, alpha = mswe.aggregate_attention_matrix(h_matrix, self.w_m)

        hidden = T.relu(T.matmul(T.transpose(h_hat), self.head.w1))
        logits = T.matmul(hidden, self.head.w2)
        probabilities = T.row_softmax(logits)
        T.check_finite("model.forward: class probabilities and KL",
                       probabilities, kl_total)
        return ForwardResult(probabilities=probabilities, kl=kl_total,
                             h_matrix=h_matrix, h_hat=h_hat, alpha=alpha,
                             factor=factor, cost=cost, plans=solved)

    # -- loss ---------------------------------------------------------------

    def loss(self, result, label):
        """-log p[label] + beta * KL, as a scalar tensor to minimize."""
        cfg = self.config
        if not 0 <= label < cfg.num_classes:
            raise ConfigError(f"label {label} outside [0, {cfg.num_classes})")
        onehot = np.zeros((cfg.num_classes, 1))
        onehot[label, 0] = 1.0
        p_true = T.matmul(result.probabilities, T.constant(onehot))
        cross_entropy = T.neg(T.log(T.clamp(p_true, 1e-12, None)))
        return T.add(cross_entropy, T.scale(result.kl, cfg.beta))

    def batch_loss(self, results, labels):
        """Mean loss over a batch of forward results."""
        losses = [self.loss(r, y) for r, y in zip(results, labels)]
        return T.mean_all(T.concat_rows(losses))

    # -- evaluation helpers --------------------------------------------------

    def predict(self, prepared):
        """Eval-mode class probabilities (deterministic, no tape)."""
        result = self.forward(prepared, vgda.EVAL)
        return result.probabilities.values[0]

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
    """Serialize all parameters plus config to one .npz, bit-exactly,
    tagged with :data:`CHECKPOINT_FORMAT_VERSION`."""
    arrays = {"format_version": np.asarray([CHECKPOINT_FORMAT_VERSION]),
              "config": np.frombuffer(model.config.to_json().encode("utf-8"),
                                      dtype=np.uint8).copy()}
    for i, w in enumerate(model.encoder_input.weights):
        arrays[f"enc_input_{i}"] = w.values
    for i, w in enumerate(model.encoder_dict.weights):
        arrays[f"enc_dict_{i}"] = w.values
    for key in model.dictionary.keys:
        arrays[f"key_{key.key_id}_adjacency"] = key.adjacency
        arrays[f"key_{key.key_id}_features"] = key.features.values
        arrays[f"key_{key.key_id}_class"] = np.asarray([key.source_class])
    arrays["w_r"] = model.vgda_params.w_r.values
    arrays["w_m"] = model.w_m.values
    arrays["head_w1"] = model.head.w1.values
    arrays["head_w2"] = model.head.w2.values
    np.savez(path, **arrays)


def load_checkpoint(path):
    """Rebuild a model from a checkpoint written by :func:`save_checkpoint`.

    Raises IoError when ``path`` cannot be read and FormatError when it is
    not a complete checkpoint, naming the path and any missing array, or any
    array whose shape does not fit the stored config or that holds
    non-finite values.  A checkpoint without a ``format_version``, or with
    one other than :data:`CHECKPOINT_FORMAT_VERSION`, raises FormatError
    naming the path and the version.
    """
    try:
        data = np.load(path)
    except OSError as exc:
        raise IoError(f"cannot read checkpoint {path}: {exc}") from exc
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise FormatError(f"checkpoint {path} is not an .npz archive") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise FormatError(f"checkpoint {path} is not an .npz archive")

    def check_shape(name, values, shape):
        """``shape`` lists each axis's size; None takes any size."""
        if values.ndim != len(shape) or any(
                want not in (None, got)
                for want, got in zip(shape, values.shape)):
            raise FormatError(f"checkpoint {path}: array {name!r} has shape "
                              f"{values.shape}, expected {shape}")

    def array(name, shape=None):
        if name not in data.files:
            raise FormatError(f"checkpoint {path} lacks array {name!r}")
        try:
            values = data[name]
        except (ValueError, zipfile.BadZipFile) as exc:
            raise FormatError(f"checkpoint {path}: array {name!r} is "
                              f"corrupt: {exc}") from exc
        if shape is not None:
            check_shape(name, values, shape)
        if values.dtype.kind not in "biuf" or not np.isfinite(values).all():
            raise FormatError(f"checkpoint {path}: array {name!r} must hold "
                              "finite numbers")
        return values

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
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"checkpoint {path} has a malformed config: "
                              f"{exc!r}") from exc
        dims = (config.feature_dim, *config.encoder_dims)
        enc_input = EncoderParams(
            weights=[T.Tensor(array(f"enc_input_{i}", dims[i:i + 2]),
                              requires_grad=True)
                     for i in range(len(config.encoder_dims))])
        enc_dict = EncoderParams(
            weights=[T.Tensor(array(f"enc_dict_{i}", dims[i:i + 2]),
                              requires_grad=False)
                     for i in range(len(config.encoder_dims))])
        keys = []
        for key_id in range(config.num_keys):
            adjacency = array(f"key_{key_id}_adjacency", (None, None))
            check_shape(f"key_{key_id}_adjacency", adjacency,
                        (len(adjacency),) * 2)
            features = array(f"key_{key_id}_features",
                             (len(adjacency), config.feature_dim))
            keys.append(DictionaryKey(
                key_id=key_id,
                source_class=int(array(f"key_{key_id}_class", (1,))[0]),
                adjacency=adjacency,
                a_hat=normalize_adjacency(adjacency),
                features=T.Tensor(features, requires_grad=True)))
        vgda_params = vgda.VgdaParams(
            w_r=T.Tensor(array("w_r", (config.n_padded, 1)),
                         requires_grad=True))
        w_m = T.Tensor(array("w_m", (1, config.num_keys)), requires_grad=True)
        head = ClassifierHead(
            w1=T.Tensor(array("head_w1", (config.num_keys, config.head_hidden)),
                        requires_grad=True),
            w2=T.Tensor(array("head_w2",
                              (config.head_hidden, config.num_classes)),
                        requires_grad=True))
    return GraphDictionaryModel(config, enc_input, enc_dict,
                                BaseGraphDictionary(keys=keys), vgda_params,
                                w_m, head)
