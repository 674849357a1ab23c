"""k-nearest-neighbor prior graph used to anchor adjacency learning."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass
class PriorGraph:
    """Binary adjacency over samples; symmetric with zero diagonal."""

    adjacency: np.ndarray


def pairwise_sq_dists(x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances between the columns of x and those of y
    (default x itself), one row per column of x."""
    y = x if y is None else y
    dist = np.sum(x * x, axis=0)[:, None] + np.sum(y * y, axis=0)[None, :] - 2.0 * (x.T @ y)
    np.maximum(dist, 0.0, out=dist)
    return dist


def knn_graph(x: np.ndarray, k: int) -> PriorGraph:
    """Undirected binary kNN graph over the columns of x (Euclidean, self excluded).

    Column j first gets ones at the k nearest samples to j, distance ties
    broken toward the lowest index; the result is A = max(A, A^T).  For
    finite distances that is the first k rows of a stable argsort of each
    column of pairwise_sq_dists(x), found without sorting: a column keeps
    every distance below its k-th smallest, and fills its free slots with
    the entries equal to it, lowest index first.  Past the O(d n^2) distances
    the cost is an O(n^2) partition plus a few passes over n x n masks;
    the running count that ranks ties runs only over the columns with
    more ties than free slots.
    """
    x = np.asarray(x, dtype=np.float64)
    d, n = x.shape
    if not 1 <= k < n:
        raise ConfigError(f"neighbor count k={k} must satisfy 1 <= k < n (n={n})")
    dist = pairwise_sq_dists(x)
    np.fill_diagonal(dist, np.inf)  # self excluded
    kth = np.partition(dist, k - 1, axis=0)[k - 1]
    chosen = dist < kth
    tied = dist == kth
    free = k - np.count_nonzero(chosen, axis=0)  # >= 1: kth itself is not below kth
    over = np.flatnonzero(np.count_nonzero(tied, axis=0) > free)
    chosen |= tied
    if over.size:  # keep only the first free[j] ties of column j
        ties = tied[:, over]
        chosen[:, over] &= ~ties | (np.cumsum(ties, axis=0) <= free[over])
    return PriorGraph(adjacency=(chosen | chosen.T).astype(np.float64))


def normalize_adjacency(a: np.ndarray, mode: str) -> np.ndarray:
    """Degree-normalize an adjacency matrix.

    "none" returns the input unchanged, "col" divides each column by its
    degree (column-stochastic, so right-multiplication averages neighbor
    columns), "sym" is the symmetric D^-1/2 A D^-1/2 scaling.
    """
    if mode == "none":
        return a
    deg = a.sum(axis=0)
    safe = np.where(deg > 0, deg, 1.0)
    if mode == "col":
        return a / safe[None, :]
    if mode == "sym":
        return a / np.sqrt(safe[None, :] * safe[:, None])
    raise ConfigError(f"unknown adjacency normalization {mode!r}; "
                      "expected 'none', 'col', or 'sym'")

