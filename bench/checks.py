"""Independent checks of allg's outputs, written against numpy and scipy.

Nothing here imports allg: each check recomputes what an output should
hold from the benchmark's own inputs and the arrays the program wrote,
so a fault in the program cannot also hide in the reference.
"""

import csv
import json
import math

import numpy as np
from scipy.linalg import svd
from scipy.spatial.distance import cdist


class CheckError(Exception):
    """An output of the program disagrees with its independent reference."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def read_csv(path) -> tuple:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    require(len(rows) >= 1, f"{path}: empty file")
    return rows[0], rows[1:]


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def close(a, b, rtol=1e-9, atol=1e-12) -> bool:
    return bool(np.allclose(a, b, rtol=rtol, atol=atol))


# ---------------------------------------------------------------------------
# select: ranking, kNN prior and a numpy forward pass on the checkpoint
# ---------------------------------------------------------------------------

def standardize(x: np.ndarray) -> np.ndarray:
    """Z-score each feature (row) of a d x n matrix; constant rows are centred."""
    mean = x.mean(axis=1, keepdims=True)
    std = x.std(axis=1, keepdims=True)
    return (x - mean) / np.where(std == 0.0, 1.0, std)


def knn_prior(x: np.ndarray, k: int) -> np.ndarray:
    """Symmetrised binary kNN graph over the columns of x by brute-force cdist.

    Neighbours exclude the sample itself; distance ties go to the lower index.
    """
    n = x.shape[1]
    dist = cdist(x.T, x.T, "sqeuclidean")
    np.fill_diagonal(dist, np.inf)
    adj = np.zeros((n, n))
    for j in range(n):
        order = np.lexsort((np.arange(n), dist[:, j]))
        adj[order[:k], j] = 1.0
    return np.maximum(adj, adj.T)


def col_normalize(a: np.ndarray) -> np.ndarray:
    """Divide each column by its degree (empty columns stay zero)."""
    deg = a.sum(axis=0)
    return a / np.where(deg > 0, deg, 1.0)[None, :]


def _mlp(weights, biases, h, relu_last: bool) -> np.ndarray:
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = w @ h + b
        if i < len(weights) - 1 or relu_last:
            h = np.maximum(h, 0.0)
    return h


def forward_losses(arrays, cfg: dict, x: np.ndarray, a0: np.ndarray) -> dict:
    """The four ALLG loss terms and their total for the `full` variant."""
    require(cfg["variant"] == "full", f"reference covers variant 'full', got {cfg['variant']!r}")
    layers = len(cfg["encoder_dims"]) - 1
    enc_w = [arrays[f"enc_w{i}"] for i in range(layers)]
    enc_b = [arrays[f"enc_b{i}"] for i in range(layers)]
    dec_w = [arrays[f"dec_w{i}"] for i in range(layers)]
    dec_b = [arrays[f"dec_b{i}"] for i in range(layers)]
    adj = [arrays[f"adj{i}"] for i in range(cfg["n_adjacency"])]
    q = arrays["q"]
    z = _mlp(enc_w, enc_b, x, cfg["encoder_final_activation"] == "relu")
    s_layers, s = [], z
    for a in adj:
        s = np.maximum(s @ a, 0.0)
        s_layers.append(s)
    r = cfg["shortcut_weight"]
    s_out = r * s_layers[cfg["shortcut_layer"] - 1] + (1.0 - r) * s_layers[-1]
    dec_in = s_out @ q
    x_hat = _mlp(dec_w, dec_b, dec_in, cfg["decoder_final_activation"] == "relu")
    alpha_p = cfg["alpha"] if cfg["alpha_prop"] is None else cfg["alpha_prop"]
    beta_p = cfg["beta"] if cfg["beta_prop"] is None else cfg["beta_prop"]
    sq = lambda m: float(np.sum(m * m))  # noqa: E731
    terms = {
        "recon": sq(x - x_hat),
        "adjacency": cfg["alpha"] * sq(adj[0]) + cfg["beta"] * sq(adj[0] - a0),
        "propagation": sum(alpha_p * sq(cur) + beta_p * sq(cur - prev)
                           for prev, cur in zip(adj[:-1], adj[1:])),
        "selection": sq(s_out - dec_in) + cfg["lam"] * float(np.abs(q).max(axis=1).sum()),
    }
    terms["total"] = sum(terms.values())
    return terms


def check_select(out: str, x_std: np.ndarray, prior: np.ndarray, wanted_cfg: dict) -> list:
    """Check ranking.csv, run.json and losses.csv; return the ranked indices."""
    run = read_json(f"{out}/run.json")
    cfg = run["config"]
    for key, value in wanted_cfg.items():
        require(cfg[key] == value, f"run.json config {key}={cfg[key]!r}, asked for {value!r}")
    n = x_std.shape[1]
    require(run["n_candidates"] == n, f"run.json n_candidates {run['n_candidates']} != {n}")
    with np.load(f"{out}/checkpoint.npz", allow_pickle=False) as npz:
        arrays = {k: npz[k] for k in npz.files if k != "__meta__"}
    q = arrays["q"]
    require(q.shape == (n, n), f"Q has shape {q.shape}, expected {(n, n)}")

    header, rows = read_csv(f"{out}/ranking.csv")
    require(header == ["index", "score"], f"ranking.csv header {header}")
    ranking = [int(r[0]) for r in rows]
    scores = np.array([float(r[1]) for r in rows])
    require(sorted(ranking) == list(range(n)), "ranking.csv is not a permutation of 0..n-1")
    norms = np.sqrt(np.einsum("ij,ij->i", q, q))
    require(close(scores, norms[ranking], rtol=1e-12, atol=0.0),
            "ranking.csv scores differ from the row norms of Q")
    require(bool(np.all(np.diff(scores) <= 0.0)), "ranking.csv scores are not non-increasing")

    require(cfg["prior_normalize"] == "col", "reference covers prior_normalize 'col'")
    a0 = col_normalize(prior)
    expected = forward_losses(arrays, cfg, x_std, a0)
    got = run["final_losses"]
    for term, value in expected.items():
        require(close(got[term], value),
                f"final_losses[{term}]={got[term]!r}, numpy forward pass gives {value!r}")

    header, rows = read_csv(f"{out}/losses.csv")
    require(header == ["epoch", "recon", "adjacency", "propagation", "selection", "total"],
            f"losses.csv header {header}")
    require(len(rows) == cfg["train_epochs"],
            f"losses.csv has {len(rows)} rows, expected {cfg['train_epochs']}")
    require(all(math.isfinite(float(v)) for r in rows for v in r[1:]),
            "losses.csv holds a non-finite loss")
    return ranking


def nearest_centroid_accuracy(x_train, y_train, x_test, y_test) -> float:
    """Accuracy of a nearest-centroid classifier; rows are samples."""
    classes = np.unique(y_train)
    centroids = np.stack([x_train[y_train == c].mean(axis=0) for c in classes])
    pred = classes[np.argmin(cdist(x_test, centroids, "sqeuclidean"), axis=1)]
    return float(np.mean(pred == y_test))


# ---------------------------------------------------------------------------
# evaluate: means and summary against report.csv, DCS against an SVD
# ---------------------------------------------------------------------------

def check_evaluate(out: str, n_cells: int) -> float:
    """Check means.csv and summary.json against report.csv; return the mean accuracy."""
    header, rows = read_csv(f"{out}/report.csv")
    require(header == ["selector", "classifier", "budget", "seed", "accuracy"],
            f"report.csv header {header}")
    require(len(rows) == n_cells, f"report.csv has {len(rows)} cells, expected {n_cells}")
    groups, accuracies = {}, []
    for sel, clf, budget, _, acc in rows:
        value = float(acc)
        require(0.0 <= value <= 1.0, f"accuracy {value} outside [0, 1]")
        accuracies.append(value)
        groups.setdefault((sel, clf, int(budget)), []).append(value)
    means = {key: float(np.mean(v)) for key, v in groups.items()}

    header, rows = read_csv(f"{out}/means.csv")
    require(header == ["selector", "classifier", "budget", "mean_accuracy"],
            f"means.csv header {header}")
    got = {(s, c, int(b)): float(m) for s, c, b, m in rows}
    require(got.keys() == means.keys(), "means.csv cells differ from report.csv groups")
    for key, value in means.items():
        require(close(got[key], value), f"means.csv {key}={got[key]!r}, report gives {value!r}")

    summary = read_json(f"{out}/summary.json")
    pairs = {(s, c) for s, c, _ in means}
    require({(s, c) for s in summary for c in summary[s]} == pairs,
            "summary.json selectors/classifiers differ from report.csv")
    for sel, clf in pairs:
        entry = summary[sel][clf]
        budgets = sorted(b for s, c, b in means if (s, c) == (sel, clf))
        require(sorted(int(b) for b in entry["budgets"]) == budgets,
                f"summary.json budgets for {sel}/{clf}")
        for b in budgets:
            require(close(entry["budgets"][str(b)], means[sel, clf, b]),
                    f"summary.json {sel}/{clf}/{b} differs from report.csv")
        average = float(np.mean([means[sel, clf, b] for b in budgets]))
        require(close(entry["average"], average),
                f"summary.json average {sel}/{clf}={entry['average']!r}, expected {average!r}")
    return float(np.mean(accuracies))


def leverage_scores(x: np.ndarray, rank: int) -> np.ndarray:
    """Squared row norms of the top-`rank` right singular vectors of x."""
    _, s, vt = svd(x, full_matrices=False)
    keep = s[:rank] > 1e-10 * s[0]
    return np.sum(vt[:rank][keep] ** 2, axis=0)


def check_dcs(x: np.ndarray, rank: int, ranking: list) -> None:
    n = x.shape[1]
    require(sorted(ranking) == list(range(n)), "DCS ranking is not a permutation")
    lev = leverage_scores(x, rank)[ranking]
    tol = 1e-9 * float(lev.max())
    require(bool(np.all(np.diff(lev) <= tol)),
            "DCS ranking is not in descending order of SVD leverage scores")


# ---------------------------------------------------------------------------
# grid: 27 rows and the documented arg-max
# ---------------------------------------------------------------------------

def check_grid(out: str, alphas, betas, lams) -> float:
    """Check grid.csv and best.json; return the best grid point's mean accuracy."""
    header, rows = read_csv(f"{out}/grid.csv")
    require(header == ["alpha", "beta", "lambda", "mean_accuracy"], f"grid.csv header {header}")
    points = [(float(a), float(b), float(lam), float(m)) for a, b, lam, m in rows]
    want = sorted((a, b, lam) for a in alphas for b in betas for lam in lams)
    require(len(points) == len(want), f"grid.csv has {len(points)} rows, expected {len(want)}")
    require(sorted(p[:3] for p in points) == want, "grid.csv points differ from the grid")
    require(all(0.0 <= p[3] <= 1.0 for p in points), "grid accuracy outside [0, 1]")
    # Documented tie-break: highest mean, then the smallest (alpha, beta, lambda).
    best = min(points, key=lambda p: (-p[3], p[0], p[1], p[2]))
    got = read_json(f"{out}/best.json")
    require((got["alpha"], got["beta"], got["lambda"], got["mean_accuracy"]) == best,
            f"best.json {got} is not the arg-max {best}")
    return best[3]
