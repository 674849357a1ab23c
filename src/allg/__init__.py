"""Unsupervised active learning via learnable graph adjacency matrices.

The package trains an autoencoder whose latent representation is refined
through a chain of learned n x n adjacency matrices anchored to a kNN
prior, mixed through a shortcut connection, and passed through a
row-sparse self-selection layer whose row norms rank candidate samples by
representativeness.  Classical selectors (random, K-Means, DCS) and an
accuracy-based evaluation protocol are included for benchmarking.
"""

from .autodiff import AdamState, Tape, Var, adam_step
from .baselines import kmeans_fit, select_dcs, select_kmeans, select_random
from .data import Dataset, apply_standardization, load_csv, split, standardize
from .errors import AllgError, ConfigError, DataError, NumericalError
from .evaluate import (
    EvalCell,
    Protocol,
    SelectorSpec,
    rank_candidates,
    run_protocol,
    summarize,
    train_linear_svm,
    train_logreg,
)
from .graph import PriorGraph, knn_graph, normalize_adjacency
from .model import (
    ModelConfig,
    SelectionResult,
    default_encoder_dims,
    forward,
    init_encoder_decoder,
    load_checkpoint,
    rank,
    save_checkpoint,
)
from .rng import derive_seed, substream
from .training import pretrain, run_selection, train

__version__ = "0.1.0"

__all__ = [
    "AdamState", "Tape", "Var", "adam_step",
    "kmeans_fit", "select_dcs", "select_kmeans", "select_random",
    "Dataset", "apply_standardization", "load_csv", "split", "standardize",
    "AllgError", "ConfigError", "DataError", "NumericalError",
    "EvalCell", "Protocol", "SelectorSpec", "rank_candidates", "run_protocol",
    "summarize", "train_linear_svm", "train_logreg",
    "PriorGraph", "knn_graph", "normalize_adjacency",
    "ModelConfig", "SelectionResult",
    "default_encoder_dims", "forward", "init_encoder_decoder",
    "load_checkpoint", "rank", "save_checkpoint",
    "derive_seed", "substream",
    "pretrain", "run_selection", "train",
    "__version__",
]
