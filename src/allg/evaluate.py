"""Selection-quality benchmark: classifiers trained on the selected samples.

For each run seed the dataset is split 50/50 into candidate and test sets,
every selector ranks the identical (standardized) candidate set, and for
each query budget m the labels of the top-m candidates are revealed to
train the classifiers.  Accuracy on the untouched test set measures how
representative the selection was.
"""

from dataclasses import dataclass

import numpy as np

from .baselines import SelectorSpec, select_dcs, select_kmeans, select_random
from .data import Dataset, SplitSpec, apply_standardization, split, standardize
from .errors import ConfigError, DataError
from .model import config_from_options
from .rng import derive_seed
from .training import run_selection

CLASSIFIERS = ("linear_svm", "logistic_regression")


# ---------------------------------------------------------------------------
# Classifiers (deterministic, full batch, columns are samples)
# ---------------------------------------------------------------------------

def _augment(x: np.ndarray) -> np.ndarray:
    return np.vstack([x, np.ones((1, x.shape[1]))])


def _softmax_cols(scores: np.ndarray) -> np.ndarray:
    z = scores - scores.max(axis=0, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=0, keepdims=True)


def train_logreg(x_train, y_train, x_test, y_test, reg: float = 1e-4,
                 max_iter: int = 5000, tol: float = 1e-6) -> float:
    """Multinomial softmax regression by full-batch gradient descent.

    Runs until the gradient norm drops below `tol` or `max_iter` sweeps,
    with a fixed 1/L step from the spectral norm of the design matrix.
    Returns test accuracy.
    """
    x_train = np.asarray(x_train, dtype=np.float64)
    y_train = np.asarray(y_train)
    classes = np.unique(y_train)
    if classes.size == 1:
        return float(np.mean(np.asarray(y_test) == classes[0]))
    xa = _augment(x_train)
    m = xa.shape[1]
    onehot = (y_train[None, :] == classes[:, None]).astype(np.float64)
    lips = 0.5 * np.linalg.norm(xa, 2) ** 2 / m + reg
    step = 1.0 / lips
    w = np.zeros((classes.size, xa.shape[0]))
    for _ in range(max_iter):
        p = _softmax_cols(w @ xa)
        grad = (p - onehot) @ xa.T / m + reg * w
        if np.linalg.norm(grad) < tol:
            break
        w -= step * grad
    pred = classes[np.argmax(w @ _augment(np.asarray(x_test, dtype=np.float64)), axis=0)]
    return float(np.mean(pred == np.asarray(y_test)))


def train_linear_svm(x_train, y_train, x_test, y_test, C: float = 100.0,
                     max_sweeps: int = 1000, tol: float = 1e-8) -> float:
    """One-vs-rest L1-hinge linear SVM by deterministic dual coordinate ascent.

    Each binary problem minimizes (1/2)||w||^2 + C * sum hinge in the dual
    (box-constrained QP), sweeping coordinates in a fixed cyclic order until
    the largest projected gradient falls below `tol`.  The bias rides along
    as an appended constant feature.  Returns test accuracy.
    """
    x_train = np.asarray(x_train, dtype=np.float64)
    y_train = np.asarray(y_train)
    classes = np.unique(y_train)
    if classes.size == 1:
        return float(np.mean(np.asarray(y_test) == classes[0]))
    xa = _augment(x_train)
    m = xa.shape[1]
    qii = np.sum(xa * xa, axis=0)  # >= 1 thanks to the bias feature
    weights = np.zeros((classes.size, xa.shape[0]))
    for ci, c in enumerate(classes):
        sign = np.where(y_train == c, 1.0, -1.0)
        alpha = np.zeros(m)
        w = np.zeros(xa.shape[0])
        for _ in range(max_sweeps):
            worst = 0.0
            for i in range(m):
                g = sign[i] * (w @ xa[:, i]) - 1.0
                pg = g
                if alpha[i] <= 0.0:
                    pg = min(g, 0.0)
                elif alpha[i] >= C:
                    pg = max(g, 0.0)
                if pg != 0.0:
                    worst = max(worst, abs(pg))
                    new = min(max(alpha[i] - g / qii[i], 0.0), C)
                    if new != alpha[i]:
                        w += (new - alpha[i]) * sign[i] * xa[:, i]
                        alpha[i] = new
            if worst < tol:
                break
        weights[ci] = w
    scores = weights @ _augment(np.asarray(x_test, dtype=np.float64))
    pred = classes[np.argmax(scores, axis=0)]
    return float(np.mean(pred == np.asarray(y_test)))


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Protocol:
    """Evaluation protocol: budgets, repeated runs, classifiers."""

    budgets: tuple = tuple(range(25, 226, 25))
    runs: int = 5
    candidate_fraction: float = 0.5
    classifiers: tuple = CLASSIFIERS
    seeds: tuple | None = None
    svm_c: float = 100.0
    logreg_reg: float = 1e-4
    logreg_max_iter: int = 5000
    svm_sweeps: int = 1000

    def __post_init__(self):
        object.__setattr__(self, "budgets", tuple(int(b) for b in self.budgets))
        object.__setattr__(self, "classifiers", tuple(self.classifiers))
        if not self.budgets or list(self.budgets) != sorted(self.budgets):
            raise ConfigError(f"budgets must be non-empty and ascending, got {self.budgets}")
        if self.budgets[0] < 1:
            raise ConfigError("budgets must be positive")
        for c in self.classifiers:
            if c not in CLASSIFIERS:
                raise ConfigError(f"unknown classifier {c!r}; expected subset of {CLASSIFIERS}")
        if self.seeds is None:
            object.__setattr__(self, "seeds", tuple(range(self.runs)))
        else:
            object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if len(self.seeds) != self.runs:
            raise ConfigError(f"runs={self.runs} but {len(self.seeds)} seeds given")

    def classify(self, name: str, x_train, y_train, x_test, y_test) -> float:
        if name == "logistic_regression":
            return train_logreg(x_train, y_train, x_test, y_test,
                                reg=self.logreg_reg, max_iter=self.logreg_max_iter)
        return train_linear_svm(x_train, y_train, x_test, y_test,
                                C=self.svm_c, max_sweeps=self.svm_sweeps)


@dataclass
class EvalCell:
    selector: str
    classifier: str
    budget: int
    seed: int
    accuracy: float


class EvalReport:
    """Accuracy cells plus their per-budget means and grand means."""

    def __init__(self, cells: list):
        self.cells = list(cells)

    def __len__(self):
        return len(self.cells)

    def selectors(self) -> list:
        seen = {}
        for c in self.cells:
            seen.setdefault(c.selector, None)
        return list(seen)

    def classifiers(self) -> list:
        seen = {}
        for c in self.cells:
            seen.setdefault(c.classifier, None)
        return list(seen)

    def budgets(self) -> list:
        return sorted({c.budget for c in self.cells})

    def accuracies(self, selector: str, classifier: str, budget: int) -> list:
        return [c.accuracy for c in self.cells
                if c.selector == selector and c.classifier == classifier
                and c.budget == budget]

    def mean_accuracy(self, selector: str, classifier: str, budget: int) -> float:
        accs = self.accuracies(selector, classifier, budget)
        if not accs:
            raise KeyError(f"no cells for ({selector}, {classifier}, {budget})")
        return float(np.mean(accs))

    def grand_mean(self, selector: str, classifier: str) -> float:
        """Mean over budgets of per-budget means (the 'Average' column)."""
        means = [self.mean_accuracy(selector, classifier, b) for b in self.budgets()]
        return float(np.mean(means))

    def summary(self) -> dict:
        out = {}
        for sel in self.selectors():
            out[sel] = {}
            for clf in self.classifiers():
                out[sel][clf] = {
                    "budgets": {str(b): self.mean_accuracy(sel, clf, b)
                                for b in self.budgets()},
                    "average": self.grand_mean(sel, clf),
                }
        return out


# ---------------------------------------------------------------------------
# Selectors: kind -> fn(x, params, seed) -> full ranking of the columns of x
# ---------------------------------------------------------------------------

def _rank_allg(x: np.ndarray, params: dict, seed: int) -> list:
    """Train ALLG on x and rank it; params are ModelConfig fields plus "name".

    The `seed` argument replaces any seed field in params.
    """
    opts = {k: v for k, v in params.items() if k != "name"}
    result, *_ = run_selection(x, config_from_options({**opts, "seed": seed}, x.shape[0]))
    return result.ranked_indices


RANKERS = {
    "random": lambda x, params, seed: select_random(x.shape[1], x.shape[1], seed),
    "kmeans": lambda x, params, seed: select_kmeans(x, x.shape[1], k=params.get("K", 5),
                                                    seed=seed),
    "dcs": lambda x, params, seed: select_dcs(x, x.shape[1], rank=params.get("rank", 5)),
    "allg": _rank_allg,
}


def rank_candidates(x: np.ndarray, spec: SelectorSpec, seed: int) -> list:
    """Full ranking of the columns of x by the selector `spec`."""
    if spec.kind not in RANKERS:
        raise ConfigError(f"unknown selector kind {spec.kind!r}; known: {sorted(RANKERS)}")
    return RANKERS[spec.kind](x, spec.params, seed)


def run_protocol(ds: Dataset, selectors: list, protocol: Protocol) -> EvalReport:
    """Run the full benchmark; returns one EvalReport over all cells.

    Selector randomness is derived per (run seed, selector label), so the
    cells of one selector are unaffected by adding another.
    """
    if ds.labels is None:
        raise DataError("evaluation protocol needs a labeled dataset")
    labels = {s.label for s in selectors}
    if len(labels) != len(selectors):
        raise ConfigError("selector labels must be unique; use params['name'] to disambiguate")
    # Rankers never see labels, so the one dataset-derived default lives here.
    selectors = [SelectorSpec(s.kind, {"rank": ds.n_classes, **s.params}) if s.kind == "dcs"
                 else s for s in selectors]
    cells = []
    for seed in protocol.seeds:
        cand, test, _ = split(ds, SplitSpec(protocol.candidate_fraction, seed))
        if protocol.budgets[-1] > cand.n_samples:
            raise ConfigError(
                f"largest budget {protocol.budgets[-1]} exceeds candidate size {cand.n_samples}"
            )
        cand_std, mu, sd = standardize(cand)
        test_std = apply_standardization(test, mu, sd)
        for spec in selectors:
            ranking = rank_candidates(cand_std.features, spec,
                                      derive_seed(seed, f"selector:{spec.label}"))
            for budget in protocol.budgets:
                chosen = sorted(ranking[:budget])
                x_train, y_train = cand_std.features[:, chosen], cand.labels[chosen]
                for clf in protocol.classifiers:
                    acc = protocol.classify(clf, x_train, y_train, test_std.features, test.labels)
                    cells.append(EvalCell(spec.label, clf, budget, seed, acc))
    return EvalReport(cells)
