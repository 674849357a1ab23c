"""Unsupervised active learning via learnable graph adjacency matrices.

The package trains an autoencoder whose latent representation is refined
through a chain of learned n x n adjacency matrices anchored to a kNN
prior, mixed through a shortcut connection, and passed through a
row-sparse self-selection layer whose row norms rank candidate samples by
representativeness.  Classical selectors (random, K-Means, DCS) and an
accuracy-based evaluation protocol are included for benchmarking.
"""

from .autodiff import AdamState, Tape, Var, adam_init, adam_step
from .baselines import (
    SelectorSpec,
    kmeans_fit,
    select_dcs,
    select_kmeans,
    select_random,
)
from .data import (
    Dataset,
    SplitSpec,
    apply_standardization,
    load_csv,
    load_registry,
    make_blobs,
    resolve_dataset,
    save_csv,
    split,
    standardize,
)
from .errors import AllgError, ConfigError, DataError, NumericalError
from .evaluate import (
    EvalCell,
    EvalReport,
    Protocol,
    rank_candidates,
    run_protocol,
    train_linear_svm,
    train_logreg,
)
from .graph import PriorGraph, knn_graph, normalize_adjacency, save_edge_list
from .model import (
    ForwardCache,
    ModelConfig,
    ModelParams,
    SelectionResult,
    default_encoder_dims,
    forward,
    init_encoder_decoder,
    load_checkpoint,
    loss_adjacency,
    loss_propagation,
    loss_reconstruction,
    loss_selection,
    loss_total,
    rank,
    save_checkpoint,
    sup_norm_rows_value,
)
from .rng import derive_seed, substream
from .training import pretrain, reconstruction_loss, run_selection, train

__version__ = "0.1.0"

__all__ = [
    "AdamState", "Tape", "Var", "adam_init", "adam_step",
    "SelectorSpec", "kmeans_fit", "select_dcs", "select_kmeans", "select_random",
    "Dataset", "SplitSpec", "apply_standardization", "load_csv",
    "load_registry", "make_blobs", "resolve_dataset", "save_csv", "split",
    "standardize",
    "AllgError", "ConfigError", "DataError", "NumericalError",
    "EvalCell", "EvalReport", "Protocol", "rank_candidates", "run_protocol",
    "train_linear_svm", "train_logreg",
    "PriorGraph", "knn_graph", "normalize_adjacency", "save_edge_list",
    "ForwardCache", "ModelConfig", "ModelParams", "SelectionResult",
    "default_encoder_dims", "forward", "init_encoder_decoder",
    "load_checkpoint", "loss_adjacency", "loss_propagation",
    "loss_reconstruction", "loss_selection", "loss_total", "rank",
    "save_checkpoint", "sup_norm_rows_value",
    "derive_seed", "substream",
    "pretrain", "reconstruction_loss", "run_selection", "train",
    "__version__",
]
