"""Graph classification with a learnable base-graph dictionary.

Input graphs and dictionary keys are embedded by a pair of momentum-coupled
graph convolutional encoders; dictionary keys are adapted per input by
variational Bernoulli node sampling; similarity is measured by entropic
optimal transport at several sensitivity levels and fused by attention into
a fixed-length embedding fed to a small classifier head.
"""

from . import tensor
from .data import (DatasetBundle, LabeledGraph, featurize, load_tu_dataset,
                   normalize_adjacency, save_tu_dataset, stratified_folds)
from .encoder import encode, init_weights, momentum_update
from .errors import (ConfigError, FormatError, GraphDictError, IoError,
                     NumericsError, OracleError, ParseError, SchemeError,
                     ShapeError, SizeError)
from .model import (GraphDictionaryModel, ModelConfig, init_base_dictionary,
                    load_checkpoint, save_checkpoint)
from .mswe import (DEFAULT_LAMBDA_GRID, MASTER_LAMBDA_GRID, PlanStack,
                   TransportPlan, aggregate_attention_matrix, cost_matrix,
                   embed_batch, embed_keys_multi, select_lambdas, sinkhorn,
                   sinkhorn_grid, sinkhorn_keys)
from .training import (Adam, CvResult, FoldResult, TrainConfig,
                       export_diagnostics, run_cv, train_one_fold)
from .vgda import (AdaptedKey, SamplingFactor, adapt_key, adapt_keys,
                   bernoulli_kl, sample_factor, sampling_probability,
                   select_substructure)

__version__ = "0.1.0"

__all__ = [
    "tensor",
    "DatasetBundle", "LabeledGraph", "featurize", "load_tu_dataset",
    "normalize_adjacency", "save_tu_dataset", "stratified_folds",
    "encode", "init_weights", "momentum_update",
    "GraphDictError", "FormatError", "ParseError", "SchemeError",
    "ConfigError", "ShapeError", "NumericsError", "OracleError", "SizeError",
    "IoError",
    "GraphDictionaryModel", "ModelConfig",
    "init_base_dictionary", "load_checkpoint", "save_checkpoint",
    "DEFAULT_LAMBDA_GRID", "MASTER_LAMBDA_GRID", "PlanStack", "TransportPlan",
    "aggregate_attention_matrix", "cost_matrix", "embed_batch",
    "embed_keys_multi",
    "select_lambdas", "sinkhorn", "sinkhorn_grid", "sinkhorn_keys",
    "Adam", "CvResult", "FoldResult", "TrainConfig", "export_diagnostics",
    "run_cv", "train_one_fold",
    "AdaptedKey", "SamplingFactor", "adapt_key", "adapt_keys",
    "bernoulli_kl", "sample_factor", "sampling_probability",
    "select_substructure",
    "__version__",
]
