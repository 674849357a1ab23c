"""Selection-quality benchmark: classifiers trained on the selected samples.

For each run seed the dataset is split 50/50 into candidate and test sets,
every selector ranks the identical (standardized) candidate set, and for
each query budget m the labels of the top-m candidates are revealed to
train the classifiers.  Accuracy on the untouched test set measures how
representative the selection was.
"""

from dataclasses import dataclass, field, fields
from typing import Literal

import numpy as np

from .baselines import select_dcs, select_kmeans, select_random
from .data import Dataset, apply_standardization, candidate_count, split, standardize
from .errors import ConfigError, DataError, NumericalError
from .model import (AT_LEAST_1, NON_NEGATIVE, POSITIVE, ModelConfig, check_options,
                    config_from_options, distinct_list, rule)
from .rng import derive_seed
from .training import run_selection

CLASSIFIERS = ("linear_svm", "logistic_regression")
KMEANS_K = 5  # a kmeans selector's cluster count when its params give no "K"
_LOGREG_TOL = 1e-6
_ARMIJO = 1e-4  # sufficient decrease of the logistic-regression line search
_MAX_HALVINGS = 60  # a step of 2**-60 no longer moves float64 weights


# ---------------------------------------------------------------------------
# Classifiers (deterministic, full batch, columns are samples)
# ---------------------------------------------------------------------------

def _augment(x: np.ndarray) -> np.ndarray:
    return np.vstack([x, np.ones((1, x.shape[1]))])


def _accuracy(weights_of, fit: str, x_train, y_train, x_test, y_test) -> float:
    """Test accuracy of the classifier whose weight rows, one per class of y_train, are
    weights_of(x_train plus a row of ones, y_train, classes); one class predicts itself.

    Raises NumericalError, prefixed by `fit`, where the features hold inf or NaN
    or where the fit overflows, turns invalid or meets a singular matrix.
    """
    x_train, x_test = (np.asarray(x, dtype=np.float64) for x in (x_train, x_test))
    y_train, y_test = np.asarray(y_train), np.asarray(y_test)
    if not (np.isfinite(x_train).all() and np.isfinite(x_test).all()):
        raise NumericalError(f"{fit} is not finite: features hold inf or NaN")
    classes = np.unique(y_train)
    if classes.size == 1:
        return float(np.mean(y_test == classes[0]))
    try:
        with np.errstate(over="raise", invalid="raise"):
            weights = weights_of(_augment(x_train), y_train, classes)
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise NumericalError(f"{fit} is not finite: {exc}") from exc
    pred = classes[np.argmax(weights @ _augment(x_test), axis=0)]
    return float(np.mean(pred == y_test))


def _logreg_loss(w, xa, onehot, reg: float):
    """Objective of `train_logreg` at w by log-sum-exp, and the class probabilities."""
    scores = w @ xa
    top = scores.max(axis=0)
    lse = top + np.log(np.exp(scores - top).sum(axis=0))
    loss = (lse.sum() - np.vdot(onehot, scores)) / xa.shape[1] + 0.5 * reg * np.vdot(w, w)
    return loss, np.exp(scores - lse)


def _newton_cg(p, xa, g, reg: float, tol: float) -> np.ndarray:
    """Conjugate gradients from 0 on H d = -g, to a residual of at most `tol`.

    H is the Hessian at the probabilities p, applied without forming it: with
    Z = V X, H V = (P * (Z - sum_a P_a Z_a)) X^T / m + reg V.  Every iterate lies
    in the Krylov space of g, so at reg 0 the directions H cannot see (adding one
    vector to every class's weights, or a vector orthogonal to the data) are never
    entered.  Stops at a direction without positive curvature, a safeguard only,
    since in exact arithmetic every direction lies in H's range; it returns -g
    if that is the first direction.
    """
    m = xa.shape[1]
    d = np.zeros_like(g)
    r = -g
    q = r
    rr = np.vdot(r, r)
    for _ in range(g.size):
        z = q @ xa
        hq = (p * (z - (p * z).sum(axis=0))) @ xa.T / m + reg * q
        curv = np.vdot(q, hq)
        if not curv > 0.0:
            break
        step = rr / curv
        d = d + step * q
        r = r - step * hq
        rr_next = np.vdot(r, r)
        if np.sqrt(rr_next) <= tol:
            break
        q = r + (rr_next / rr) * q
        rr = rr_next
    return d if d.any() else -g


def _logreg_weights(xa, y_train, classes, reg: float, max_iter: int) -> np.ndarray:
    """One weight row per class: truncated Newton on the objective of `train_logreg`.

    Each iteration stops the fit if ||g|| < _LOGREG_TOL, solves H d = -g by
    `_newton_cg` to a residual of min(0.5, sqrt(||g||)) * ||g|| (Lin, Weng and
    Keerthi 2008), then halves a unit step along d until the objective falls by
    at least _ARMIJO times the step's first-order decrease.  At most `max_iter`
    iterations run; a fit also stops when no halving lowers the objective, where
    rounding has the last word.  Raises FloatingPointError on a gradient that is
    not finite.
    """
    m = xa.shape[1]
    onehot = (y_train[None, :] == classes[:, None]).astype(np.float64)
    w = np.zeros((classes.size, xa.shape[0]))
    loss, p = _logreg_loss(w, xa, onehot, reg)
    for _ in range(max_iter):
        g = (p - onehot) @ xa.T / m + reg * w
        gnorm = np.linalg.norm(g)
        if not np.isfinite(gnorm):
            raise FloatingPointError("logistic-regression gradient is not finite")
        if gnorm < _LOGREG_TOL:
            break
        d = _newton_cg(p, xa, g, reg, min(0.5, np.sqrt(gnorm)) * gnorm)
        slope = np.vdot(g, d)
        for halvings in range(_MAX_HALVINGS):
            t = 0.5 ** halvings
            w_next = w + t * d
            loss_next, p_next = _logreg_loss(w_next, xa, onehot, reg)
            if loss_next <= loss + _ARMIJO * t * slope:
                break
        else:
            break
        w, loss, p = w_next, loss_next, p_next
    return w


def train_logreg(x_train, y_train, x_test, y_test, reg: float = 1e-4,
                 max_iter: int = 5000) -> float:
    """Multinomial softmax regression by truncated Newton (Newton-CG).

    Minimizes the mean softmax cross-entropy over the training samples plus
    (reg/2)||W||^2, where W holds one weight row per class and the bias rides
    along as an appended constant feature, so it is penalized too.  A fit stops
    when the gradient norm drops below _LOGREG_TOL or after `max_iter` Newton
    iterations (see `_logreg_weights`).  Raises NumericalError where the features
    or the fit are not finite.  Returns test accuracy.
    """
    return _accuracy(lambda xa, y, classes: _logreg_weights(xa, y, classes, float(reg), max_iter),
                     f"logistic-regression fit at logreg_reg {reg!r}",
                     x_train, y_train, x_test, y_test)


def _line_search(w, step, margins, dmargins, C: float) -> float:
    """The t > 0 that minimizes the squared-hinge objective at w + t * step, exactly,
    for a descent direction `step`.

    `margins` and `dmargins` are y_i x_i.w and y_i x_i.step.  Along the line the
    slope is a + b t, where a and b sum over the samples whose slack
    1 - margin - t dmargin is positive, so it is piecewise linear, continuous and
    nondecreasing, with a breakpoint wherever a slack changes sign.  Cumulative
    sums over the sorted breakpoints give every segment's (a, b) at once, and the
    root lies in the first segment whose right end has slope >= 0.
    """
    slack = 1.0 - margins
    active = (slack > 0.0) | ((slack == 0.0) & (dmargins < 0.0))
    cross = slack * dmargins > 0.0  # the slack changes sign at t = slack / dmargin > 0
    at = np.flatnonzero(cross)[np.argsort(slack[cross] / dmargins[cross], kind="stable")]
    ts, ds, ss = slack[at] / dmargins[at], dmargins[at], slack[at]
    enter = np.where(ds < 0.0, 2.0 * C, -2.0 * C)  # the sample joins (+) or leaves (-) the sum
    a = np.cumsum(np.concatenate((
        [w @ step - 2.0 * C * (dmargins[active] @ slack[active])], -enter * ds * ss)))
    b = np.cumsum(np.concatenate((
        [step @ step + 2.0 * C * (dmargins[active] @ dmargins[active])], enter * ds * ds)))
    k = int(np.argmax(np.append(a[:-1] + b[:-1] * ts >= 0.0, True)))
    return -a[k] / b[k]


def _svm_weights(xa, y_train, classes, C: float, max_iter: int) -> np.ndarray:
    """One weight row per class: the primal finite Newton method of `train_linear_svm`.

    Each iteration takes the active set I = {i : y_i w.x_i < 1} and solves
    (eye + 2C X_I X_I^T) w_bar = 2C X_I y_I for the minimizer of the objective
    with I held fixed; the Newton step w_bar - w solves the same system with the
    negative gradient on the right.  An exact line search along that step gives
    the next w.  A fit stops when w_bar's active set repeats I, since w_bar then
    minimizes the objective itself (finite termination, Keerthi and DeCoste
    2005), or after `max_iter` iterations.
    """
    dim = xa.shape[0]
    eye = np.eye(dim)
    weights = np.zeros((classes.size, dim))
    for ci, c in enumerate(classes):
        y = np.where(y_train == c, 1.0, -1.0)
        yx = xa * y  # column i is y_i x_i, so the margins are w @ yx
        w, margins = np.zeros(dim), np.zeros(xa.shape[1])
        for _ in range(max_iter):
            active = margins < 1.0
            xs = xa[:, active]
            w_bar = np.linalg.solve(eye + 2.0 * C * (xs @ xs.T), 2.0 * C * (xs @ y[active]))
            margins_bar = w_bar @ yx
            if np.array_equal(margins_bar < 1.0, active):
                w = w_bar
                break
            step = w_bar - w
            w = w + _line_search(w, step, margins, margins_bar - margins, C) * step
            margins = w @ yx
        weights[ci] = w
    return weights


def train_linear_svm(x_train, y_train, x_test, y_test, C: float = 100.0,
                     max_sweeps: int = 1000) -> float:
    """One-vs-rest squared-hinge (L2) linear SVM by the primal finite Newton method.

    Each binary problem minimizes (1/2)||w||^2 + C * sum max(0, 1 - y_i w.x_i)^2,
    the loss of LIBLINEAR's default solver, with the bias riding along as an
    appended constant feature.  `max_sweeps` caps the Newton iterations (see
    `_svm_weights`); fits usually stop well before it, when the active set
    repeats.  Raises NumericalError where the features or the fit are not finite,
    a Newton matrix singular in float64 included.  Returns test accuracy.
    """
    return _accuracy(lambda xa, y, classes: _svm_weights(xa, y, classes, float(C), max_sweeps),
                     f"linear SVM fit at svm_c {C!r}", x_train, y_train, x_test, y_test)


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Protocol:
    """Evaluation protocol: budgets, repeated runs, classifiers.

    `svm_c` is the SVM's C and `logreg_reg` the logistic regression's L2
    weight; `svm_sweeps` caps the SVM's Newton iterations per binary problem
    and `logreg_max_iter` the logistic regression's Newton iterations per fit.
    """

    budgets: rule(tuple[AT_LEAST_1, ...], "(non-empty, strictly ascending)",
                  lambda v: len(v) > 0 and list(v) == sorted(set(v))) = tuple(range(25, 226, 25))
    runs: AT_LEAST_1 = 5
    candidate_fraction: rule(float, "in (0, 1)", lambda v: 0 < v < 1) = 0.5
    classifiers: distinct_list(Literal[CLASSIFIERS]) = CLASSIFIERS
    svm_c: POSITIVE = 100.0
    logreg_reg: rule(float, ">= 0 and finite", lambda v: 0 <= v < np.inf) = 1e-4
    logreg_max_iter: AT_LEAST_1 = 5000
    svm_sweeps: AT_LEAST_1 = 1000

    def __post_init__(self):
        check_options(type(self), vars(self), "protocol")
        object.__setattr__(self, "budgets", tuple(int(b) for b in self.budgets))
        object.__setattr__(self, "classifiers", tuple(self.classifiers))

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
    """ModelConfig of an ALLG selector seeded by `seed`; params are ModelConfig
    fields but "seed", plus "name"."""
    opts = {k: v for k, v in params.items() if k != "name"}
    return config_from_options({**opts, "seed": seed}, d, n)


def _rank_allg(x: np.ndarray, params: dict, seed: int) -> list:
    """Train ALLG on x and rank it."""
    result, *_ = run_selection(x, _allg_config(params, *x.shape, seed))
    return result.ranked_indices


SELECTORS = {
    "random": (lambda x, params, seed: select_random(x.shape[1], seed), {}),
    "kmeans": (lambda x, params, seed: select_kmeans(x, params.get("K", KMEANS_K), seed),
               {"K": AT_LEAST_1}),
    "dcs": (lambda x, params, seed: select_dcs(x, params.get("rank", 5)), {"rank": AT_LEAST_1}),
    # The run seed seeds every ALLG run, so its params (and the model block) refuse "seed".
    "allg": (_rank_allg, {f.name: f.type for f in fields(ModelConfig) if f.name != "seed"}),
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


def run_protocol(ds: Dataset, selectors: list, protocol: Protocol, seed: int = 0) -> list:
    """Run the full benchmark; returns its EvalCells (see `summarize`).

    The runs use the seeds seed, seed + 1, ..., seed + runs - 1.  Selector
    randomness is derived per (run seed, selector label), so the cells of
    one selector are unaffected by adding another.
    """
    check_options({"seed": NON_NEGATIVE}, {"seed": seed}, "config")
    selectors = check_protocol(ds, selectors, protocol)
    cells = []
    for run_seed in range(seed, seed + protocol.runs):
        cand, test, _ = split(ds, protocol.candidate_fraction, run_seed)
        cand_std, mu, sd = standardize(cand)
        test_std = apply_standardization(test, mu, sd)
        for spec in selectors:
            ranking = rank_candidates(cand_std.features, spec,
                                      derive_seed(run_seed, f"selector:{spec.label}"))
            for budget in protocol.budgets:
                chosen = sorted(ranking[:budget])
                x_train, y_train = cand_std.features[:, chosen], cand.labels[chosen]
                for clf in protocol.classifiers:
                    acc = protocol.classify(clf, x_train, y_train, test_std.features, test.labels)
                    cells.append(EvalCell(spec.label, clf, budget, run_seed, acc))
    return cells
