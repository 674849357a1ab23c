"""Dataset ingestion, standardization and splitting.

Matrices are column-major in the sample sense: `features` is d x n with one
sample per column.  CSV files on disk store one sample per row and are
transposed at load time.
"""

import csv
import os
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import DataError
from .model import NON_NEGATIVE, check_options, rule
from .rng import substream


@dataclass
class Dataset:
    """A feature matrix (d x n, columns are samples) with optional labels."""

    features: np.ndarray
    labels: np.ndarray | None = None
    name: str = "unnamed"

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise DataError(f"features must be 2-D, got shape {self.features.shape}")
        d, n = self.features.shape
        if d < 1 or n < 1:
            raise DataError(f"features must be non-empty, got shape {self.features.shape}")
        if not np.all(np.isfinite(self.features)):
            raise DataError(f"dataset '{self.name}' contains NaN or Inf entries")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (n,):
                raise DataError(
                    f"labels must have one entry per sample, got {self.labels.shape} for n={n}"
                )
            if np.any(self.labels < 0):
                raise DataError("labels must be non-negative class ids")

    @property
    def dim(self) -> int:
        return self.features.shape[0]

    @property
    def n_samples(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        if self.labels is None:
            raise DataError(f"dataset '{self.name}' has no labels")
        return int(self.labels.max()) + 1


def load_csv(path, label_column=None, delimiter: str = ",", header="auto") -> Dataset:
    """Load a CSV with one sample per row into a column-major Dataset named after its stem.

    label_column may be a header name (requires a header row) or an integer
    column index.  header is True, False, or "auto"; auto treats the first
    row as a header when any of its cells fails to parse as a float.  Label
    values are mapped to dense class ids in order of first occurrence.
    """
    check_options(DATASET_KEYS, {"delimiter": delimiter, "header": header}, "dataset")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh, delimiter=delimiter) if row]
    except OSError as exc:
        raise DataError(f"cannot read CSV file {path!r}: {exc}") from exc
    if not rows:
        raise DataError(f"CSV file {path!r} is empty")

    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DataError(
                f"{path}: ragged row {i + 1} has {len(row)} cells, expected {width}"
            )

    def _is_float(cell):
        try:
            float(cell)
            return True
        except ValueError:
            return False

    has_header = not all(_is_float(c) for c in rows[0]) if header == "auto" else header

    column_names = [c.strip() for c in rows[0]] if has_header else None
    data_rows = rows[1:] if has_header else rows
    first_line = 2 if has_header else 1
    if not data_rows:
        raise DataError(f"{path}: no data rows")

    label_idx = None
    if label_column is not None:
        if isinstance(label_column, int):
            label_idx = label_column
            if not 0 <= label_idx < width:
                raise DataError(f"{path}: label column index {label_idx} out of range")
        else:
            if column_names is None:
                raise DataError(
                    f"{path}: label column {label_column!r} given by name but file has no header"
                )
            if label_column not in column_names:
                raise DataError(f"{path}: label column {label_column!r} not found in header")
            label_idx = column_names.index(label_column)

    n = len(data_rows)
    d = width - (0 if label_idx is None else 1)
    if d < 1:
        raise DataError(f"{path}: no feature columns left after removing the label column")

    features = np.empty((d, n), dtype=np.float64)
    raw_labels = [] if label_idx is not None else None
    for i, row in enumerate(data_rows):
        j_out = 0
        for j, cell in enumerate(row):
            if j == label_idx:
                raw_labels.append(cell.strip())
                continue
            try:
                features[j_out, i] = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: non-numeric feature cell at row {first_line + i}, "
                    f"column {j + 1}: {cell!r}"
                ) from None
            j_out += 1

    labels = None
    if raw_labels is not None:
        class_ids: dict[str, int] = {}
        labels = np.empty(n, dtype=np.int64)
        for i, raw in enumerate(raw_labels):
            if raw not in class_ids:
                class_ids[raw] = len(class_ids)
            labels[i] = class_ids[raw]

    ds = Dataset(features=features, labels=labels,
                 name=os.path.splitext(os.path.basename(path))[0])
    if n < 2:
        raise DataError(f"dataset '{ds.name}' needs at least 2 samples, got {n}")
    return ds


def standardize(ds: Dataset):
    """Z-score each feature row; zero-variance rows are centered only.

    Returns (standardized dataset, mean vector, std vector).  The returned
    parameters can be applied to held-out data with apply_standardization.
    """
    if ds.n_samples < 2:
        raise DataError("standardize needs at least 2 samples")
    mean = ds.features.mean(axis=1)
    std = ds.features.std(axis=1)
    std = np.where(std == 0.0, 1.0, std)
    out = apply_standardization(ds, mean, std)
    return out, mean, std


def apply_standardization(ds: Dataset, mean: np.ndarray, std: np.ndarray) -> Dataset:
    """Apply previously fitted per-feature (mean, std) to a dataset."""
    feats = (ds.features - mean[:, None]) / std[:, None]
    return Dataset(features=feats, labels=ds.labels, name=ds.name)


def candidate_count(n: int, fraction: float) -> int:
    """Candidate-side size round(fraction * n) of a split of n samples."""
    n_cand = int(np.floor(fraction * n + 0.5))
    if n_cand < 1 or n_cand >= n:
        raise DataError(f"split of n={n} at fraction {fraction} leaves an empty side")
    return n_cand


def split(ds: Dataset, fraction: float, seed: int):
    """Partition into (candidate, test) deterministically under `seed`.

    Candidate size is round(fraction * n), which must leave both sides
    non-empty (see candidate_count); both sides keep the original relative
    sample order.  Returns (candidate, test, candidate_indices).
    """
    n = ds.n_samples
    n_cand = candidate_count(n, fraction)
    rng = substream(seed, "split")
    perm = rng.permutation(n)
    cand_idx = np.sort(perm[:n_cand])
    test_idx = np.sort(perm[n_cand:])

    return (take(ds, cand_idx, "candidate"), take(ds, test_idx, "test"),
            [int(i) for i in cand_idx])


def take(ds: Dataset, idx, suffix: str) -> Dataset:
    """The samples `idx` of `ds` (features and labels), named `<ds.name>/<suffix>`."""
    return Dataset(features=ds.features[:, idx],
                   labels=None if ds.labels is None else ds.labels[idx],
                   name=f"{ds.name}/{suffix}")


# Key -> annotation table of the config's `dataset` block: load_csv's parameters.
DATASET_KEYS = {"path": str, "label_column": str | NON_NEGATIVE,
                "delimiter": rule(str, "of one character", lambda v: len(v) == 1),
                "header": bool | Literal["auto"]}
