"""Classical reference selectors: random, K-Means nearest-centroid, DCS.

Every selector produces a full deterministic ranking of the candidate
columns; callers take the top-m prefix for a given query budget.  The
table that maps a SelectorSpec's kind to one of these rankings, ALLG
included, is `allg.evaluate.SELECTORS`.
"""

import numpy as np

from .errors import ConfigError, NumericalError
from .graph import pairwise_sq_dists
from .rng import substream


_KMEANS_MAX_ITER = 300


def select_random(n: int, seed: int) -> list:
    """A uniform permutation of range(n), deterministic under seed."""
    rng = substream(seed, "random_selector")
    return [int(i) for i in rng.permutation(n)]


def _farthest_point_init(x: np.ndarray, k: int, rng) -> np.ndarray:
    n = x.shape[1]
    first = int(rng.integers(n))
    chosen = [first]
    min_d = np.sum((x - x[:, [first]]) ** 2, axis=0)
    for _ in range(1, k):
        nxt = int(np.argmax(min_d))  # ties -> lowest index
        chosen.append(nxt)
        np.minimum(min_d, np.sum((x - x[:, [nxt]]) ** 2, axis=0), out=min_d)
    return x[:, chosen].copy()


def kmeans_fit(x: np.ndarray, k: int, seed: int):
    """Lloyd's algorithm with seeded farthest-point init.

    Stops once the assignments repeat, or after _KMEANS_MAX_ITER rounds.
    Returns (centroids d x k, assignments).  Empty clusters are re-seeded
    to the point farthest from its centroid.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[1]
    if not 1 <= k <= n:
        raise ConfigError(f"kmeans K={k} must lie in 1..n={n}")
    rng = substream(seed, "kmeans")
    centroids = _farthest_point_init(x, k, rng)
    assign = np.full(n, -1)
    for _ in range(_KMEANS_MAX_ITER):
        d2 = pairwise_sq_dists(x, centroids)
        new_assign = np.argmin(d2, axis=1)  # ties -> lowest cluster index
        for c in range(k):
            members = new_assign == c
            if not members.any():
                worst = int(np.argmax(d2[np.arange(n), new_assign]))
                centroids[:, c] = x[:, worst]
                new_assign[worst] = c
                members = new_assign == c
            centroids[:, c] = x[:, members].mean(axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return centroids, assign


def select_kmeans(x: np.ndarray, k: int, seed: int) -> list:
    """Centroid-proximal ranking, round-robin across the K clusters."""
    x = np.asarray(x, dtype=np.float64)
    centroids, assign = kmeans_fit(x, k, seed)
    dist = np.sqrt(np.sum((x - centroids[:, assign]) ** 2, axis=0))
    order = np.lexsort((dist, assign))  # by cluster, then distance, then index
    turn = np.arange(order.size) - np.searchsorted(assign[order], assign[order])
    return [int(i) for i in order[np.lexsort((assign[order], turn))]]


def select_dcs(x: np.ndarray, rank: int) -> list:
    """Deterministic column sampling by top-`rank` subspace leverage.

    Column scores are the squared norms of each column's coordinates in
    the top-`rank` left singular basis (components with singular value
    below 1e-10 * sigma_max contribute nothing).
    """
    x = np.asarray(x, dtype=np.float64)
    d, n = x.shape
    if not 1 <= rank <= min(d, n):
        raise ConfigError(f"dcs rank={rank} must lie in 1..min(d, n)={min(d, n)}")
    try:
        u, s, _ = np.linalg.svd(x, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed on a {d}x{n} matrix: {exc}") from exc
    keep = s[:rank] > 1e-10 * (s[0] if s.size else 0.0)
    coords = (u[:, :rank][:, keep].T @ x) / s[:rank][keep][:, None]
    scores = np.sum(coords * coords, axis=0)
    order = np.argsort(-scores, kind="stable")  # ties -> lowest index
    return [int(i) for i in order]
