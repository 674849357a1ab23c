import json

import numpy as np
import pytest

import allg
from allg.cli import main
from allg.errors import ConfigError, DataError
from allg.evaluate import EvalCell, EvalReport, Protocol, run_protocol


def _separable_blobs(seed=0, spread=0.3):
    ds = allg.make_blobs(15, 2, d=2, spread=spread, seed=seed)
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

        ds = allg.make_blobs(10, 2, d=3, spread=2.5, seed=14)
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
            return 0.5 * (w @ w) + C * np.maximum(0.0, 1.0 - margins).sum()

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


class TestProtocolConfig:
    def test_default_seeds_match_runs(self):
        p = Protocol(runs=3)
        assert p.seeds == (0, 1, 2)

    def test_mismatched_seed_count(self):
        with pytest.raises(ConfigError):
            Protocol(runs=2, seeds=(1, 2, 3))

    def test_budgets_must_ascend(self):
        with pytest.raises(ConfigError):
            Protocol(budgets=(50, 25))

    def test_unknown_classifier(self):
        with pytest.raises(ConfigError):
            Protocol(classifiers=("forest",))


class TestEvalReport:
    def test_average_is_mean_of_budget_means(self):
        cells = [
            EvalCell("s", "c", 5, 0, 0.5), EvalCell("s", "c", 5, 1, 0.7),
            EvalCell("s", "c", 10, 0, 0.8), EvalCell("s", "c", 10, 1, 1.0),
        ]
        rep = EvalReport(cells)
        assert rep.mean_accuracy("s", "c", 5) == pytest.approx(0.6)
        assert rep.mean_accuracy("s", "c", 10) == pytest.approx(0.9)
        assert rep.grand_mean("s", "c") == pytest.approx(0.75)

    def test_csv_and_summary_files(self, tmp_path, monkeypatch):
        """`allg evaluate` writes its report's cells, means and summary."""
        cells = [EvalCell("s", "c", 5, 0, 0.5)]
        rep = EvalReport(cells)
        monkeypatch.setattr(allg.cli, "run_protocol", lambda ds, specs, protocol: rep)
        data, out = tmp_path / "pool.csv", tmp_path / "out"
        allg.save_csv(allg.make_blobs(5, 2, d=2, seed=0), data)
        assert main(["evaluate", "--dataset", str(data), "--label-column", "label",
                     "--out", str(out)]) == 0
        assert (out / "report.csv").read_text().splitlines()[0] == \
            "selector,classifier,budget,seed,accuracy"
        assert (out / "means.csv").read_text().splitlines()[1] == "s,c,5,0.5"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["s"]["c"]["average"] == 0.5


@pytest.fixture(scope="module")
def labeled():
    return allg.make_blobs(20, 3, d=4, spread=1.0, seed=6)


class TestRunProtocol:
    def test_cell_count(self, labeled):
        proto = Protocol(budgets=(5, 10), runs=2, classifiers=("logistic_regression",),
                         logreg_max_iter=300, seeds=(0, 1))
        specs = [allg.SelectorSpec("random"), allg.SelectorSpec("kmeans", params={"K": 3})]
        rep = run_protocol(labeled, specs, proto)
        assert len(rep) == 2 * 2 * 1 * 2  # selectors x budgets x classifiers x runs

    def test_saturated_budget_equalizes_selectors(self, labeled):
        # with m = full candidate set every selector trains on the same data
        proto = Protocol(budgets=(30,), runs=2, classifiers=("logistic_regression",),
                         logreg_max_iter=500, seeds=(0, 1))
        specs = [allg.SelectorSpec("random"), allg.SelectorSpec("kmeans", params={"K": 3}),
                 allg.SelectorSpec("dcs")]
        rep = run_protocol(labeled, specs, proto)
        for seed in (0, 1):
            accs = {c.selector: c.accuracy for c in rep.cells if c.seed == seed}
            assert len(set(accs.values())) == 1

    def test_bitwise_deterministic(self, labeled):
        proto = Protocol(budgets=(6,), runs=2, classifiers=("linear_svm",),
                         svm_sweeps=200, seeds=(0, 1))
        specs = [allg.SelectorSpec("random")]
        r1 = run_protocol(labeled, specs, proto)
        r2 = run_protocol(labeled, specs, proto)
        assert [c.accuracy for c in r1.cells] == [c.accuracy for c in r2.cells]

    def test_monotone_trend_small_to_large_budget(self, labeled):
        proto = Protocol(budgets=(4, 24), runs=3, classifiers=("logistic_regression",),
                         logreg_max_iter=500, seeds=(0, 1, 2))
        specs = [allg.SelectorSpec("random"), allg.SelectorSpec("kmeans", params={"K": 3})]
        rep = run_protocol(labeled, specs, proto)
        for spec in specs:
            lo = rep.mean_accuracy(spec.label, "logistic_regression", 4)
            hi = rep.mean_accuracy(spec.label, "logistic_regression", 24)
            assert hi >= lo

    def test_unlabeled_dataset_rejected(self, rng):
        ds = allg.Dataset(rng.normal(size=(3, 10)))
        with pytest.raises(DataError):
            run_protocol(ds, [allg.SelectorSpec("random")], Protocol(budgets=(2,), runs=1))

    def test_budget_beyond_candidates_rejected(self, labeled):
        proto = Protocol(budgets=(31,), runs=1, seeds=(0,))
        with pytest.raises(ConfigError, match="budget"):
            run_protocol(labeled, [allg.SelectorSpec("random")], proto)

    def test_duplicate_selector_labels_rejected(self, labeled):
        specs = [allg.SelectorSpec("random"), allg.SelectorSpec("random")]
        with pytest.raises(ConfigError, match="unique"):
            run_protocol(labeled, specs, Protocol(budgets=(2,), runs=1, seeds=(0,)))

    def test_allg_selector_with_representation(self, labeled):
        model = {"encoder_dims": (4, 4, 3), "pretrain_epochs": 15, "train_epochs": 15,
                 "knn_k": 3}
        proto = Protocol(budgets=(6,), runs=1, classifiers=("logistic_regression",),
                         logreg_max_iter=300, seeds=(0,))
        specs = [
            allg.SelectorSpec("allg", params=dict(model)),
            allg.SelectorSpec("allg", params={**model, "name": "allg_latent"}),
        ]
        rep = run_protocol(labeled, specs, proto)
        assert set(rep.selectors()) == {"allg", "allg_latent"}
        for cell in rep.cells:
            assert 0.0 <= cell.accuracy <= 1.0
