import json

import numpy as np
import pytest

import allg
from allg.cli import main
from allg import evaluate
from allg.errors import ConfigError, DataError, NumericalError
from allg.evaluate import (EvalCell, Protocol, _augment, _line_search, _logreg_weights,
                           _svm_weights, run_protocol, summarize)

from oracles import (softmax_cross_entropy, softmax_cross_entropy_minimum, squared_hinge,
                     squared_hinge_minimum, svm_weights_reference)
from pools import make_blobs, save_csv


def _separable_blobs(seed=0, spread=0.3):
    ds = make_blobs(15, 2, d=2, spread=spread, seed=seed)
    std, _, _ = allg.standardize(ds)
    return std.features, ds.labels


class TestLogreg:
    def test_separable_training_accuracy(self):
        x, y = _separable_blobs()
        acc = allg.train_logreg(x, y, x, y)
        assert acc == 1.0

    def test_constant_prediction_prevalence(self, rng):
        x_train = rng.normal(size=(2, 6))
        y_train = np.zeros(6, dtype=int)  # single class
        x_test = rng.normal(size=(2, 10))
        y_test = np.array([0] * 7 + [1] * 3)
        acc = allg.train_logreg(x_train, y_train, x_test, y_test)
        assert acc == pytest.approx(0.7)

    def test_agrees_with_scipy_solver(self, rng):
        from scipy.optimize import minimize

        ds = make_blobs(10, 2, d=3, spread=2.5, seed=14)
        x = ds.features[:, :20]
        y = ds.labels[:20]
        x_test = ds.features
        y_test = ds.labels
        reg = 1e-4
        xa = np.vstack([x, np.ones((1, 20))])
        classes = np.unique(y)
        onehot = (y[None, :] == classes[:, None]).astype(float)

        def objective(wflat):
            w = wflat.reshape(classes.size, xa.shape[0])
            scores = w @ xa
            scores -= scores.max(axis=0, keepdims=True)
            logp = scores - np.log(np.exp(scores).sum(axis=0, keepdims=True))
            ce = -(onehot * logp).sum() / 20
            return ce + 0.5 * reg * (w * w).sum()

        res = minimize(objective, np.zeros(classes.size * xa.shape[0]), method="L-BFGS-B",
                       options={"maxiter": 2000, "ftol": 1e-14, "gtol": 1e-10})
        w = res.x.reshape(classes.size, xa.shape[0])
        xt = np.vstack([x_test, np.ones((1, x_test.shape[1]))])
        oracle_acc = float(np.mean(classes[np.argmax(w @ xt, axis=0)] == y_test))
        ours = allg.train_logreg(x, y, x_test, y_test, reg=reg)
        assert ours == pytest.approx(oracle_acc)

    def test_separable_pool_at_reg_0(self):
        # Without the penalty the Hessian is singular along the softmax shift (one
        # vector added to every class's weights); the fit never leaves g's subspace,
        # so the class weights keep summing to zero.
        x, y = _separable_blobs()
        assert allg.train_logreg(x, y, x, y, reg=0.0) == 1.0
        w = _logreg_weights(_augment(x), y, np.unique(y), 0.0, 5000)
        assert np.abs(w.sum(axis=0)).max() <= 1e-9 * np.abs(w).max()

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nonfinite_design_matrix_raises(self, bad):
        # Either classifier, the bad entry on the train or the test side, with one
        # training class or several: no accuracy comes from inf or NaN features.
        x, y = _separable_blobs()
        fits = {"logistic-regression fit": allg.train_logreg,
                "linear SVM fit": allg.train_linear_svm}
        for side in (0, 1):
            xs = [x.copy(), x.copy()]
            xs[side][0, 3] = bad
            for labels in (y, np.zeros_like(y)):
                for prefix, fit in fits.items():
                    with pytest.raises(NumericalError, match=f"{prefix} .* is not finite"):
                        fit(xs[0], labels, xs[1], y)


class TestLinearSvm:
    def test_separable_test_accuracy(self):
        x, y = _separable_blobs(seed=2, spread=0.15)
        train, test = slice(0, None, 2), slice(1, None, 2)
        acc = allg.train_linear_svm(x[:, train], y[train], x[:, test], y[test])
        assert acc == 1.0

    def test_tiny_c_gives_majority_class(self, rng):
        x = rng.normal(size=(2, 10))
        y = np.array([0] * 7 + [1] * 3)
        acc = allg.train_linear_svm(x, y, x, y, C=1e-9)
        assert acc == pytest.approx(0.7)

    def test_four_point_instance_matches_grid_oracle(self):
        x = np.array([[-1.0, -2.0, 1.0, 2.0],
                      [0.0, 1.0, 0.0, -1.0]])
        y = np.array([0, 0, 1, 1])
        C = 100.0

        def objective(w1, w2, b):
            w = np.array([w1, w2])
            sign = np.where(y == 1, 1.0, -1.0)
            margins = sign * (w @ x + b)
            return 0.5 * (w @ w) + C * (np.maximum(0.0, 1.0 - margins) ** 2).sum()

        grid = np.arange(-2.0, 2.01, 0.25)
        best, best_obj = None, np.inf
        for w1 in grid:
            for w2 in grid:
                for b in grid:
                    obj = objective(w1, w2, b)
                    if obj < best_obj:
                        best, best_obj = (w1, w2, b), obj
        w1, w2, b = best
        oracle_pred = (np.array([w1, w2]) @ x + b > 0).astype(int)
        acc = allg.train_linear_svm(x, y, x, oracle_pred, C=C)
        assert acc == 1.0  # same sign pattern as the brute-force optimum


def _svm_problem(seed):
    """Seeded one-vs-rest problem: 2-5 classes, every 7th with a one-sample class,
    every 5th with duplicated columns; C and the iteration cap cycle through
    (1e-3, 1, 100) and (1, 5, 300), so both the finite-termination stop and the
    cap end fits."""
    rng = np.random.default_rng(seed)
    n_classes = 2 + seed % 4
    d, m = int(rng.integers(1, 9)), int(rng.integers(n_classes + 2, 41))
    y = np.concatenate([np.arange(n_classes), rng.integers(0, n_classes, m - n_classes)])
    if seed % 7 == 0:
        y = np.where(y == 0, 1, y)
        y[int(rng.integers(m))] = 0
    means = rng.normal(scale=2.0, size=(d, n_classes))
    x = means[:, y] + rng.normal(size=(d, m))
    if seed % 5 == 0:
        x[:, 1::3] = x[:, 0:1]
    xa = _augment(x)
    return xa, y, np.unique(y), (1e-3, 1.0, 100.0)[seed % 3], (1, 5, 300)[seed // 3 % 3]


class TestSvmWeightsBitwise:
    @pytest.mark.parametrize("seed", range(60))
    def test_matches_numpy_scalar_loop(self, seed):
        xa, y, classes, C, cap = _svm_problem(seed)
        ours = _svm_weights(xa, y, classes, C, cap)
        assert np.array_equal(ours, svm_weights_reference(xa, y, classes, C, cap))

    def test_problem_set_ends_fits_both_ways(self):
        # A fit that its cap ended moves on with one iteration more; a converged one does not.
        stops = set()
        for seed in range(60):
            xa, y, classes, C, cap = _svm_problem(seed)
            stops.add(np.array_equal(svm_weights_reference(xa, y, classes, C, cap),
                                     svm_weights_reference(xa, y, classes, C, cap + 1)))
        assert stops == {True, False}


class TestSvmWeightsOptimal:
    @pytest.mark.parametrize("seed", range(60))
    def test_converged_fits_optimal_capped_fits_descend(self, seed):
        # A class whose weights one iteration more leaves alone has converged: its
        # gradient vanishes to rounding and scipy finds no lower objective.  One
        # iteration more lowers the objective of a class that its cap ended.
        xa, y, classes, C, cap = _svm_problem(seed)
        ours = _svm_weights(xa, y, classes, C, cap)
        more = _svm_weights(xa, y, classes, C, cap + 1)
        for w, w_more, c in zip(ours, more, classes):
            sign = np.where(y == c, 1.0, -1.0)
            objective, grad, terms = squared_hinge(w, xa, sign, C)
            if np.array_equal(w, w_more):
                assert np.linalg.norm(grad) <= 1e-9 * max(terms)
                minimum = squared_hinge_minimum(xa, sign, C)
                assert objective <= minimum * (1.0 + 1e-12)
            else:
                assert squared_hinge(w_more, xa, sign, C)[0] < objective

    def test_line_search_is_exact(self):
        # Along a descent direction the returned step length zeroes the objective's slope.
        for seed in range(60):
            xa, y, classes, C, _ = _svm_problem(seed)
            sign = np.where(y == classes[0], 1.0, -1.0)
            w, step = np.random.default_rng(seed).normal(size=(2, xa.shape[0]))
            step *= -np.sign(squared_hinge(w, xa, sign, C)[1] @ step)
            t = _line_search(w, step, sign * (w @ xa), sign * (step @ xa), C)
            _, grad, terms = squared_hinge(w + t * step, xa, sign, C)
            assert t > 0.0
            assert abs(grad @ step) <= 1e-9 * max(terms) * np.linalg.norm(step)

    def test_cap_does_not_shape_benchmark_sized_fits(self):
        # The evaluate-baselines shape (d = 20, 3 overlapping classes, m = 25-225):
        # every fit converges within 40 iterations, so a 1000 cap changes nothing.
        ds = make_blobs(100, 3, d=20, spread=6.0, seed=0)
        std, _, _ = allg.standardize(ds)
        x, y = std.features, ds.labels
        order = np.random.default_rng(0).permutation(300)
        test = order[225:]
        for m in range(25, 226, 25):
            train = order[:m]
            xa, classes = _augment(x[:, train]), np.unique(y[train])
            assert np.array_equal(_svm_weights(xa, y[train], classes, 100.0, 40),
                                  _svm_weights(xa, y[train], classes, 100.0, 1000))
            accs = {allg.train_linear_svm(x[:, train], y[train], x[:, test], y[test],
                                          max_sweeps=cap) for cap in (40, 1000)}
            assert len(accs) == 1


def _logreg_problem(seed):
    """`_svm_problem`'s data with reg cycling through (1e-4, 1e-2, 1)."""
    xa, y, classes, _, _ = _svm_problem(seed)
    return xa, y, classes, (1e-4, 1e-2, 1.0)[seed % 3]


class TestLogregOptimal:
    @pytest.mark.parametrize("seed", range(60))
    def test_gradient_vanishes_and_scipy_finds_no_lower_objective(self, seed, monkeypatch):
        # A fit stops at ||g|| < 1e-6, where strong convexity (modulus >= reg) bounds its
        # objective's excess over the minimum by ||g||^2 / (2 reg).  Run on with the
        # tolerance at 0, to where rounding ends it, it reaches scipy's minimum.
        xa, y, classes, reg = _logreg_problem(seed)
        onehot = (y[None, :] == classes[:, None]).astype(np.float64)
        objective, grad = softmax_cross_entropy(_logreg_weights(xa, y, classes, reg, 5000),
                                                xa, onehot, reg)
        gnorm = np.linalg.norm(grad)
        assert gnorm < 1e-6
        minimum = softmax_cross_entropy_minimum(xa, onehot, reg)
        assert objective <= minimum * (1.0 + 1e-12) + gnorm ** 2 / (2.0 * reg)
        monkeypatch.setattr(evaluate, "_LOGREG_TOL", 0.0)
        w = _logreg_weights(xa, y, classes, reg, 30)
        assert softmax_cross_entropy(w, xa, onehot, reg)[0] <= minimum * (1.0 + 1e-12)

    def test_every_iteration_lowers_the_objective(self):
        # The backtracking step keeps the objective falling.  With the features scaled
        # by 10, a full Newton step would raise it on _logreg_problem(9) at iteration 7.
        for seed in range(60):
            xa, y, classes, reg = _logreg_problem(seed)
            xa = np.vstack([10.0 * xa[:-1], xa[-1:]])
            onehot = (y[None, :] == classes[:, None]).astype(np.float64)
            objectives = [softmax_cross_entropy(_logreg_weights(xa, y, classes, reg, cap),
                                                xa, onehot, reg)[0] for cap in range(1, 25)]
            assert all(b <= a for a, b in zip(objectives, objectives[1:]))

    def test_cap_does_not_shape_benchmark_sized_fits(self):
        # The evaluate-baselines shape (d = 20, 3 overlapping classes, m = 25-225):
        # every fit converges within 10 Newton iterations, so caps of 50 and 300 agree.
        ds = make_blobs(100, 3, d=20, spread=6.0, seed=0)
        std, _, _ = allg.standardize(ds)
        x, y = std.features, ds.labels
        order = np.random.default_rng(0).permutation(300)
        test = order[225:]
        for m in range(25, 226, 25):
            train = order[:m]
            xa, classes = _augment(x[:, train]), np.unique(y[train])
            assert np.array_equal(_logreg_weights(xa, y[train], classes, 1e-4, 50),
                                  _logreg_weights(xa, y[train], classes, 1e-4, 300))
            accs = {allg.train_logreg(x[:, train], y[train], x[:, test], y[test],
                                      max_iter=cap) for cap in (50, 300)}
            assert len(accs) == 1


class TestProtocolConfig:
    def test_budgets_must_ascend(self):
        with pytest.raises(ConfigError):
            Protocol(budgets=(50, 25))

    def test_repeated_budget_rejected(self):
        # A repeated budget would count its cells twice and give ablation.csv
        # one more budget column than each row has means.
        with pytest.raises(ConfigError, match="strictly ascending"):
            Protocol(budgets=(25, 25, 50))

    def test_unknown_classifier(self):
        with pytest.raises(ConfigError):
            Protocol(classifiers=("forest",))

    def test_negative_run_seed(self):
        ds = make_blobs(10, 2, 3)
        with pytest.raises(ConfigError, match="'seed'"):
            run_protocol(ds, [allg.SelectorSpec("random")], Protocol(budgets=(2,), runs=1),
                         seed=-1)


class TestSummarize:
    def test_average_is_mean_of_budget_means(self):
        cells = [
            EvalCell("s", "c", 5, 0, 0.5), EvalCell("s", "c", 5, 1, 0.7),
            EvalCell("s", "c", 10, 0, 0.8), EvalCell("s", "c", 10, 1, 1.0),
        ]
        means = summarize(cells)["s"]["c"]
        assert means["budgets"]["5"] == pytest.approx(0.6)
        assert means["budgets"]["10"] == pytest.approx(0.9)
        assert means["average"] == pytest.approx(0.75)

    def test_order_of_first_mention_and_numeric_budgets(self):
        """Selectors and classifiers keep first-seen order; budgets sort as numbers."""
        cells = [EvalCell(sel, clf, budget, seed, 0.25 * seed + 0.01 * budget)
                 for budget in (100, 5, 25) for seed in (0, 1)
                 for sel in ("zeta", "alpha") for clf in ("svm", "lr")]
        summary = summarize(cells)
        assert list(summary) == ["zeta", "alpha"]
        for sel in summary:
            assert list(summary[sel]) == ["svm", "lr"]
            for means in summary[sel].values():
                assert list(means["budgets"]) == ["5", "25", "100"]
                assert means["budgets"]["25"] == float(np.mean([0.25, 0.5]))
                assert means["average"] == float(np.mean(list(means["budgets"].values())))

    def test_csv_and_summary_files(self, tmp_path, monkeypatch):
        """`allg evaluate` writes its cells, means and summary."""
        cells = [EvalCell("s", "c", 5, 0, 0.5)]
        monkeypatch.setattr(allg.cli, "run_protocol", lambda ds, specs, protocol, seed: cells)
        monkeypatch.setattr(allg.cli, "check_protocol", lambda ds, specs, protocol: specs)
        data, out = tmp_path / "pool.csv", tmp_path / "out"
        save_csv(make_blobs(5, 2, d=2, seed=0), data)
        assert main(["evaluate", "--dataset", str(data), "--label-column", "label",
                     "--out", str(out)]) == 0
        assert (out / "report.csv").read_text().splitlines()[0] == \
            "selector,classifier,budget,seed,accuracy"
        assert (out / "means.csv").read_text().splitlines()[1] == "s,c,5,0.5"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["s"]["c"]["average"] == 0.5


@pytest.fixture(scope="module")
def labeled():
    return make_blobs(20, 3, d=4, spread=1.0, seed=6)


class TestRunProtocol:
    def test_cell_count(self, labeled):
        proto = Protocol(budgets=(5, 10), runs=2, classifiers=("logistic_regression",),
                         logreg_max_iter=300)
        specs = [allg.SelectorSpec("random"), allg.SelectorSpec("kmeans", params={"K": 3})]
        cells = run_protocol(labeled, specs, proto)
        assert len(cells) == 2 * 2 * 1 * 2  # selectors x budgets x classifiers x runs

    def test_saturated_budget_equalizes_selectors(self, labeled):
        # with m = full candidate set every selector trains on the same data
        proto = Protocol(budgets=(30,), runs=2, classifiers=("logistic_regression",),
                         logreg_max_iter=500)
        specs = [allg.SelectorSpec("random"), allg.SelectorSpec("kmeans", params={"K": 3}),
                 allg.SelectorSpec("dcs")]
        cells = run_protocol(labeled, specs, proto)
        for seed in (0, 1):
            accs = {c.selector: c.accuracy for c in cells if c.seed == seed}
            assert len(set(accs.values())) == 1

    def test_bitwise_deterministic(self, labeled):
        proto = Protocol(budgets=(6,), runs=2, classifiers=("linear_svm",),
                         svm_sweeps=200)
        specs = [allg.SelectorSpec("random")]
        r1 = run_protocol(labeled, specs, proto)
        r2 = run_protocol(labeled, specs, proto)
        assert [c.accuracy for c in r1] == [c.accuracy for c in r2]

    def test_monotone_trend_small_to_large_budget(self, labeled):
        proto = Protocol(budgets=(4, 24), runs=3, classifiers=("logistic_regression",),
                         logreg_max_iter=500)
        specs = [allg.SelectorSpec("random"), allg.SelectorSpec("kmeans", params={"K": 3})]
        summary = summarize(run_protocol(labeled, specs, proto))
        for spec in specs:
            lo = summary[spec.label]["logistic_regression"]["budgets"]["4"]
            hi = summary[spec.label]["logistic_regression"]["budgets"]["24"]
            assert hi >= lo

    def test_unlabeled_dataset_rejected(self, rng):
        ds = allg.Dataset(rng.normal(size=(3, 10)))
        with pytest.raises(DataError):
            run_protocol(ds, [allg.SelectorSpec("random")], Protocol(budgets=(2,), runs=1))

    def test_budget_beyond_candidates_rejected(self, labeled):
        proto = Protocol(budgets=(31,), runs=1)
        with pytest.raises(ConfigError, match="budget"):
            run_protocol(labeled, [allg.SelectorSpec("random")], proto)

    def test_duplicate_selector_labels_rejected(self, labeled):
        specs = [allg.SelectorSpec("random"), allg.SelectorSpec("random")]
        with pytest.raises(ConfigError, match="unique"):
            run_protocol(labeled, specs, Protocol(budgets=(2,), runs=1))

    def test_allg_selector_with_representation(self, labeled):
        model = {"encoder_dims": (4, 4, 3), "pretrain_epochs": 15, "train_epochs": 15,
                 "knn_k": 3}
        proto = Protocol(budgets=(6,), runs=1, classifiers=("logistic_regression",),
                         logreg_max_iter=300)
        specs = [
            allg.SelectorSpec("allg", params=dict(model)),
            allg.SelectorSpec("allg", params={**model, "name": "allg_latent"}),
        ]
        cells = run_protocol(labeled, specs, proto)
        assert set(summarize(cells)) == {"allg", "allg_latent"}
        for cell in cells:
            assert 0.0 <= cell.accuracy <= 1.0
