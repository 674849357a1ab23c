"""Selection-quality benchmark: classifiers trained on the selected samples.

For each run seed the dataset is split 50/50 into candidate and test sets,
every selector ranks the identical (standardized) candidate set, and for
each query budget m the labels of the top-m candidates are revealed to
train the classifiers.  Accuracy on the untouched test set measures how
representative the selection was.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from .baselines import select_dcs, select_kmeans, select_random
from .data import Dataset, apply_standardization, candidate_count, split, standardize
from .errors import ConfigError, DataError
from .model import ModelConfig, check_options, config_from_options
from .rng import derive_seed
from .training import run_selection

CLASSIFIERS = ("linear_svm", "logistic_regression")
KMEANS_K = 5  # a kmeans selector's cluster count when its params give no "K"
_LOGREG_TOL = 1e-6
_SVM_TOL = 1e-8


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
                 max_iter: int = 5000) -> float:
    """Multinomial softmax regression by full-batch gradient descent.

    Runs until the gradient norm drops below _LOGREG_TOL or `max_iter` sweeps,
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
        if np.linalg.norm(grad) < _LOGREG_TOL:
            break
        w -= step * grad
    pred = classes[np.argmax(w @ _augment(np.asarray(x_test, dtype=np.float64)), axis=0)]
    return float(np.mean(pred == np.asarray(y_test)))


def _svm_weights(xa, y_train, classes, C: float, max_sweeps: int) -> np.ndarray:
    """One weight row per class: the dual coordinate ascent of `train_linear_svm`.

    The scalars live in Python floats and each column is one strided view of
    `xa`, so the loop runs the same float64 operations in the same order as
    numpy scalars would, at a fraction of the interpreter cost.
    """
    m = xa.shape[1]
    cols = [xa[:, i] for i in range(m)]
    qii = np.sum(xa * xa, axis=0).tolist()  # >= 1 thanks to the bias feature
    weights = np.zeros((classes.size, xa.shape[0]))
    for ci, c in enumerate(classes):
        sign = np.where(y_train == c, 1.0, -1.0).tolist()
        alpha = [0.0] * m
        w = np.zeros(xa.shape[0])
        for _ in range(max_sweeps):
            worst = 0.0
            for i in range(m):
                a_i = alpha[i]
                g = sign[i] * float(w.dot(cols[i])) - 1.0
                pg = g
                if a_i <= 0.0:
                    pg = min(g, 0.0)
                elif a_i >= C:
                    pg = max(g, 0.0)
                if pg != 0.0:
                    worst = max(worst, abs(pg))
                    new = min(max(a_i - g / qii[i], 0.0), C)
                    if new != a_i:
                        w += ((new - a_i) * sign[i]) * cols[i]
                        alpha[i] = new
            if worst < _SVM_TOL:
                break
        weights[ci] = w
    return weights


def train_linear_svm(x_train, y_train, x_test, y_test, C: float = 100.0,
                     max_sweeps: int = 1000) -> float:
    """One-vs-rest L1-hinge linear SVM by deterministic dual coordinate ascent.

    Each binary problem minimizes (1/2)||w||^2 + C * sum hinge in the dual
    (box-constrained QP), sweeping coordinates in a fixed cyclic order until
    the largest projected gradient falls below _SVM_TOL.  The bias rides along
    as an appended constant feature.  Returns test accuracy.
    """
    x_train = np.asarray(x_train, dtype=np.float64)
    y_train = np.asarray(y_train)
    classes = np.unique(y_train)
    if classes.size == 1:
        return float(np.mean(np.asarray(y_test) == classes[0]))
    weights = _svm_weights(_augment(x_train), y_train, classes, float(C), max_sweeps)
    scores = weights @ _augment(np.asarray(x_test, dtype=np.float64))
    pred = classes[np.argmax(scores, axis=0)]
    return float(np.mean(pred == np.asarray(y_test)))


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Protocol:
    """Evaluation protocol: budgets, repeated runs, classifiers."""

    budgets: tuple[int, ...] = tuple(range(25, 226, 25))
    runs: int = 5
    candidate_fraction: float = 0.5
    classifiers: tuple[str, ...] = CLASSIFIERS
    seeds: tuple[int, ...] | None = None
    svm_c: float = 100.0
    logreg_reg: float = 1e-4
    logreg_max_iter: int = 5000
    svm_sweeps: int = 1000

    def __post_init__(self):
        object.__setattr__(self, "budgets", tuple(int(b) for b in self.budgets))
        object.__setattr__(self, "classifiers", tuple(self.classifiers))
        seeds = range(self.runs) if self.seeds is None else self.seeds
        object.__setattr__(self, "seeds", tuple(int(s) for s in seeds))
        if not self.budgets or list(self.budgets) != sorted(set(self.budgets)):
            raise ConfigError(f"budgets must be non-empty and strictly ascending, "
                              f"got {self.budgets}")
        if self.budgets[0] < 1:
            raise ConfigError("budgets must be positive")
        for key, ok, rule in (("svm_c", self.svm_c > 0, "> 0"),
                              ("logreg_reg", self.logreg_reg >= 0, ">= 0"),
                              ("svm_sweeps", self.svm_sweeps >= 1, ">= 1"),
                              ("logreg_max_iter", self.logreg_max_iter >= 1, ">= 1"),
                              ("runs", self.runs >= 1, ">= 1"),
                              ("candidate_fraction", 0 < self.candidate_fraction < 1,
                               "in (0, 1)"),
                              ("seeds", min(self.seeds, default=0) >= 0
                               and len(set(self.seeds)) == len(self.seeds),
                               ">= 0 throughout, without repeats")):
            if not ok:
                raise ConfigError(f"protocol key {key!r} must be {rule}, got {getattr(self, key)!r}")
        if (not self.classifiers or len(set(self.classifiers)) != len(self.classifiers)
                or not set(self.classifiers) <= set(CLASSIFIERS)):
            raise ConfigError(f"protocol key 'classifiers' must list distinct entries of "
                              f"{CLASSIFIERS}, got {list(self.classifiers)}")
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


def summarize(cells: list) -> dict:
    """{selector: {classifier: {"budgets": {"<b>": mean}, "average": mean}}} of `cells`.

    Selectors and classifiers keep the order in which the cells first name
    them and budgets ascend.  Each budget mean is np.mean of that budget's
    accuracies in cell order; "average" is the mean of the budget means.
    """
    groups = {}
    for c in cells:
        by_budget = groups.setdefault(c.selector, {}).setdefault(c.classifier, {})
        by_budget.setdefault(c.budget, []).append(c.accuracy)
    out = {}
    for sel, by_clf in groups.items():
        out[sel] = {}
        for clf, by_budget in by_clf.items():
            means = {str(b): float(np.mean(by_budget[b])) for b in sorted(by_budget)}
            out[sel][clf] = {"budgets": means, "average": float(np.mean(list(means.values())))}
    return out


# ---------------------------------------------------------------------------
# Selectors: kind -> (fn(x, params, seed) -> full ranking of the columns of x,
#                     params table for check_options; every kind also takes "name")
# ---------------------------------------------------------------------------

def _allg_config(params: dict, d: int, n: int, seed: int):
    """ModelConfig of an ALLG selector; params are ModelConfig fields plus "name".

    The `seed` argument replaces any seed field in params.
    """
    opts = {k: v for k, v in params.items() if k != "name"}
    return config_from_options({**opts, "seed": seed}, d, n)


def _rank_allg(x: np.ndarray, params: dict, seed: int) -> list:
    """Train ALLG on x and rank it."""
    result, *_ = run_selection(x, _allg_config(params, *x.shape, seed))
    return result.ranked_indices


SELECTORS = {
    "random": (lambda x, params, seed: select_random(x.shape[1], seed), {}),
    "kmeans": (lambda x, params, seed: select_kmeans(x, params.get("K", KMEANS_K), seed),
               {"K": int}),
    "dcs": (lambda x, params, seed: select_dcs(x, params.get("rank", 5)), {"rank": int}),
    "allg": (_rank_allg, {f.name: f.type for f in fields(ModelConfig)}),
}


@dataclass
class SelectorSpec:
    """A selector kind of `SELECTORS` plus its per-kind parameters."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in SELECTORS:
            raise ConfigError(f"unknown selector {self.kind!r}; known: {sorted(SELECTORS)}")
        check_options({"name": str, **SELECTORS[self.kind][1]}, self.params,
                      f"{self.kind} params")
        for key in ("K", "rank"):
            if self.params.get(key, 1) < 1:
                raise ConfigError(f"{self.kind} {key} must be >= 1, got {self.params[key]}")

    @property
    def label(self) -> str:
        return self.params.get("name", self.kind)


def rank_candidates(x: np.ndarray, spec: SelectorSpec, seed: int) -> list:
    """Full ranking of the columns of x by the selector `spec`."""
    return SELECTORS[spec.kind][0](x, spec.params, seed)


def check_protocol(ds: Dataset, selectors: list, protocol: Protocol) -> list:
    """Check every setting that depends on the data, before any selector runs.

    Raises ConfigError naming the key (or DataError for an unlabeled or
    unsplittable pool).  Returns the selectors with each DCS rank defaulted
    to the class count.
    """
    if ds.labels is None:
        raise DataError("evaluation protocol needs a labeled dataset")
    labels = {s.label for s in selectors}
    if len(labels) != len(selectors):
        raise ConfigError("selector labels must be unique; use params['name'] to disambiguate")
    n = candidate_count(ds.n_samples, protocol.candidate_fraction)
    # Rankers never see labels, so the one dataset-derived default lives here.
    selectors = [SelectorSpec(s.kind, {"rank": ds.n_classes, **s.params}) if s.kind == "dcs"
                 else s for s in selectors]
    for s in selectors:
        if s.kind == "allg":
            _allg_config(s.params, ds.dim, n, seed=0)
        elif s.kind == "kmeans" and s.params.get("K", KMEANS_K) > n:
            raise ConfigError(f"kmeans params key 'K' must be at most the {n} candidates, "
                              f"got {s.params.get('K', KMEANS_K)}")
        elif s.kind == "dcs" and s.params["rank"] > min(ds.dim, n):
            raise ConfigError(f"dcs params key 'rank' must be at most the data's {ds.dim} "
                              f"features and {n} candidates, got {s.params['rank']}")
    if protocol.budgets[-1] > n:
        raise ConfigError(f"protocol key 'budgets' must stay within the {n} candidates, "
                          f"got largest budget {protocol.budgets[-1]}")
    return selectors


def run_protocol(ds: Dataset, selectors: list, protocol: Protocol) -> list:
    """Run the full benchmark; returns its EvalCells (see `summarize`).

    Selector randomness is derived per (run seed, selector label), so the
    cells of one selector are unaffected by adding another.
    """
    selectors = check_protocol(ds, selectors, protocol)
    cells = []
    for seed in protocol.seeds:
        cand, test, _ = split(ds, protocol.candidate_fraction, seed)
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
    return cells
