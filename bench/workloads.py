"""The benchmark's three workloads: inputs, the CLI call, and output checks.

Every workload draws its inputs from the benchmark's own generator seeded by
``--seed`` (the program receives only the CSV and config files), runs one
``allg`` command per operation and checks what that command wrote with the
independent references in ``checks.py``.
"""

import json
import os

import numpy as np

import checks
from checks import require

BUDGETS = list(range(25, 226, 25))
GRID = [0.1, 1.0, 10.0]


def blob_means(rng, classes: int, d: int, separation: float) -> np.ndarray:
    """Class means on randomly rotated orthogonal axes, each `separation` from the origin.

    Every pair of means lies separation * sqrt(2) apart whatever the seed, so
    the classes overlap equally on every seed and only the draws vary.
    """
    basis, _ = np.linalg.qr(rng.normal(size=(d, classes)))
    return separation * basis.T


def draw_blobs(rng, means: np.ndarray, n: int) -> tuple:
    """n samples (rows) with balanced, shuffled class labels around `means`."""
    classes, d = means.shape
    labels = rng.permutation(np.arange(n) % classes)
    return means[labels] + rng.normal(size=(n, d)), labels


def write_csv(path: str, x: np.ndarray, labels: np.ndarray) -> None:
    """One sample per row, repr-exact floats, label last."""
    lines = [",".join([f"f{j}" for j in range(x.shape[1])] + ["label"])]
    for row, label in zip(x.tolist(), labels.tolist()):
        lines.append(",".join(map(repr, row)) + f",c{label}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_config(path: str, cfg: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema_version": 1, **cfg}, fh, indent=2, sort_keys=True)


class Workload:
    """One workload: `prepare` builds inputs, `argv` is the operation, `check` its oracle."""

    name = ""

    def __init__(self, toy: bool):
        self.size = self.TOY if toy else self.FULL
        self.seen = []  # intermediate values captured by `install`, cleared per operation

    def common_argv(self, work: str, out: str, seed: int) -> list:
        return ["--config", os.path.join(work, "config.json"),
                "--dataset", os.path.join(work, "data.csv"), "--label-column", "label",
                "--seed", str(seed), "--out", out]

    def install(self, modules: dict) -> None:
        """Hook the program where a check needs to see an intermediate value."""


class SelectN1000(Workload):
    """`allg select` on one 1000-candidate pool; stage 2 dominates."""

    name = "select-n1000"
    FULL = {"n": 1000, "d": 60, "classes": 5, "separation": 3.0, "holdout": 3000,
            "budgets": [100, 200, 300, 400], "pretrain_epochs": 50, "train_epochs": 20}
    TOY = {"n": 60, "d": 8, "classes": 3, "separation": 3.0, "holdout": 60,
           "budgets": [12, 24], "pretrain_epochs": 3, "train_epochs": 3}

    def prepare(self, seed: int, work: str) -> None:
        s = self.size
        rng = np.random.default_rng([seed, 1])
        means = blob_means(rng, s["classes"], s["d"], s["separation"])
        self.x, self.labels = draw_blobs(rng, means, s["n"])
        self.x_holdout, self.y_holdout = draw_blobs(rng, means, s["holdout"])
        self.model = {"pretrain_epochs": s["pretrain_epochs"], "train_epochs": s["train_epochs"],
                      "prior_normalize": "col", "knn_k": 5, "variant": "full"}
        write_csv(os.path.join(work, "data.csv"), self.x, self.labels)
        write_config(os.path.join(work, "config.json"), {"model": self.model})
        self.x_std = checks.standardize(self.x.T)
        self.prior = None

    def argv(self, work: str, out: str, seed: int) -> list:
        return ["select"] + self.common_argv(work, out, seed)

    def install(self, modules: dict) -> None:
        training = modules["allg.training"]
        knn_graph = training.knn_graph
        seen = self.seen

        def capture(x, k, *args, **kwargs):
            graph = knn_graph(x, k, *args, **kwargs)
            seen.append((x, k, graph.adjacency))
            return graph

        training.knn_graph = capture

    def check(self, out: str) -> float:
        require(len(self.seen) == 1, f"expected one kNN prior per select, saw {len(self.seen)}")
        x_prog, k, adjacency = self.seen.pop()
        require(checks.close(x_prog, self.x_std), "the program's standardised pool differs")
        if self.prior is None:
            self.prior = checks.knn_prior(x_prog, k)
        require(np.array_equal(adjacency, self.prior),
                "kNN prior differs from brute-force cdist neighbours")
        ranking = checks.check_select(out, self.x_std, self.prior, self.model)
        scores = []
        for m in self.size["budgets"]:
            top = ranking[:m]
            scores.append(checks.nearest_centroid_accuracy(self.x[top], self.labels[top],
                                                           self.x_holdout, self.y_holdout))
        return float(np.mean(scores))


class EvaluateBaselines(Workload):
    """`allg evaluate` with random, kmeans and dcs; the Python SVM loop dominates."""

    name = "evaluate-baselines"
    FULL = {"n": 1200, "d": 20, "classes": 3, "separation": 2.2, "budgets": BUDGETS,
            "runs": 2, "svm_sweeps": 40, "logreg_max_iter": 300}
    TOY = {"n": 80, "d": 5, "classes": 3, "separation": 3.0, "budgets": [5, 10],
           "runs": 1, "svm_sweeps": 5, "logreg_max_iter": 20}
    SELECTORS = ("random", "kmeans", "dcs")

    def prepare(self, seed: int, work: str) -> None:
        s = self.size
        rng = np.random.default_rng([seed, 2])
        x, labels = draw_blobs(rng, blob_means(rng, s["classes"], s["d"], s["separation"]), s["n"])
        write_csv(os.path.join(work, "data.csv"), x, labels)
        write_config(os.path.join(work, "config.json"), {"protocol": {
            "budgets": s["budgets"], "runs": s["runs"], "svm_sweeps": s["svm_sweeps"],
            "logreg_max_iter": s["logreg_max_iter"], "candidate_fraction": 0.25,
            "classifiers": ["linear_svm", "logistic_regression"]}})

    def argv(self, work: str, out: str, seed: int) -> list:
        return (["evaluate", "--selector", ",".join(self.SELECTORS)]
                + self.common_argv(work, out, seed))

    def install(self, modules: dict) -> None:
        evaluate = modules["allg.evaluate"]
        rank_candidates = evaluate.rank_candidates
        seen = self.seen

        def capture(x, spec, *args, **kwargs):
            ranking = rank_candidates(x, spec, *args, **kwargs)
            if spec.kind == "dcs":
                seen.append((x, spec.params["rank"], ranking))
            return ranking

        evaluate.rank_candidates = capture

    def check(self, out: str) -> float:
        s = self.size
        require(len(self.seen) == s["runs"],
                f"expected {s['runs']} DCS rankings, saw {len(self.seen)}")
        require(all(rank == s["classes"] for _, rank, _ in self.seen), "DCS rank != class count")
        while self.seen:
            checks.check_dcs(*self.seen.pop())
        cells = s["runs"] * len(self.SELECTORS) * len(s["budgets"]) * 2
        return checks.check_evaluate(out, cells)


class GridSmallpool(Workload):
    """`allg grid` over 27 (alpha, beta, lambda) points on about 200 candidates."""

    name = "grid-smallpool"
    FULL = {"n": 800, "d": 20, "classes": 3, "separation": 3.0, "budgets": [50, 100, 150],
            "pretrain_epochs": 20, "train_epochs": 15, "svm_sweeps": 10, "logreg_max_iter": 200}
    TOY = {"n": 80, "d": 5, "classes": 3, "separation": 3.0, "budgets": [5],
           "pretrain_epochs": 2, "train_epochs": 2, "svm_sweeps": 5, "logreg_max_iter": 20}

    def prepare(self, seed: int, work: str) -> None:
        s = self.size
        rng = np.random.default_rng([seed, 3])
        x, labels = draw_blobs(rng, blob_means(rng, s["classes"], s["d"], s["separation"]), s["n"])
        write_csv(os.path.join(work, "data.csv"), x, labels)
        write_config(os.path.join(work, "config.json"), {
            "model": {"pretrain_epochs": s["pretrain_epochs"],
                      "train_epochs": s["train_epochs"], "prior_normalize": "col"},
            "protocol": {"budgets": s["budgets"], "svm_sweeps": s["svm_sweeps"],
                         "logreg_max_iter": s["logreg_max_iter"], "candidate_fraction": 0.25,
                         "classifiers": ["linear_svm", "logistic_regression"]},
            "grid": {"alpha": GRID, "beta": GRID, "lambda": GRID}})

    def argv(self, work: str, out: str, seed: int) -> list:
        return ["grid"] + self.common_argv(work, out, seed)

    def check(self, out: str) -> float:
        return checks.check_grid(out, GRID, GRID, GRID)


WORKLOADS = {w.name: w for w in (SelectN1000, EvaluateBaselines, GridSmallpool)}
