"""Synthetic labeled pools for the tests, and the CSV writer that stores them.

`make_blobs` draws its pool from `allg.rng.substream`, so a pool is the same
bits under any checkout whose `allg` has that function; `tests/byte_identity.py`
writes its fixture with these two functions.
"""

import csv

import numpy as np

from allg.data import Dataset
from allg.rng import substream


def make_blobs(n_per_class: int, classes: int, d: int, spread: float = 1.0,
               seed: int = 0) -> Dataset:
    """Labeled Gaussian clusters with distinct seeded means."""
    if min(n_per_class, classes, d) < 1:
        raise ValueError("n_per_class, classes, and d must all be positive")
    rng = substream(seed, "blobs")
    means = rng.normal(0.0, 3.0, size=(classes, d))
    # Re-draw in the (measure-zero) event of coincident means.
    for _ in range(16):
        diffs = means[:, None, :] - means[None, :, :]
        dist = np.sqrt((diffs**2).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        if classes == 1 or dist.min() > 1e-3:
            break
        means = rng.normal(0.0, 3.0, size=(classes, d))
    features = np.empty((d, classes * n_per_class), dtype=np.float64)
    labels = np.empty(classes * n_per_class, dtype=np.int64)
    for c in range(classes):
        block = slice(c * n_per_class, (c + 1) * n_per_class)
        features[:, block] = means[c][:, None] + spread * rng.normal(size=(d, n_per_class))
        labels[block] = c
    return Dataset(features=features, labels=labels, name=f"blobs{classes}x{n_per_class}")


def save_csv(ds: Dataset, path) -> None:
    """Write a Dataset back to CSV (one sample per row, header included).

    Columns are comma-separated under the headers `f0, f1, ...`, and the
    labels, if any, come last under the header `label`.  Feature values
    are written with repr-exact precision so a reload reproduces them bit
    for bit.
    """
    d, n = ds.features.shape
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        head = [f"f{j}" for j in range(d)] + (["label"] if ds.labels is not None else [])
        writer.writerow(head)
        for i in range(n):
            row = [repr(float(v)) for v in ds.features[:, i]]
            if ds.labels is not None:
                row.append(str(int(ds.labels[i])))
            writer.writerow(row)
