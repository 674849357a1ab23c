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
    broken toward the lowest index; the result is A = max(A, A^T).
    """
    x = np.asarray(x, dtype=np.float64)
    d, n = x.shape
    if not 1 <= k < n:
        raise ConfigError(f"neighbor count k={k} must satisfy 1 <= k < n (n={n})")
    dist = pairwise_sq_dists(x)
    np.fill_diagonal(dist, np.inf)  # self excluded
    neighbors = np.argsort(dist, axis=0, kind="stable")[:k]  # by distance, ties by index
    adjacency = np.zeros((n, n), dtype=np.float64)
    adjacency[neighbors, np.arange(n)] = 1.0
    return PriorGraph(adjacency=np.maximum(adjacency, adjacency.T))


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

