"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
Criteria 7 and 8 reproduce published Splice-junction numbers and need the
user-supplied UCI CSV (numeric features, 1000 samples x 60 features, two
classes); point ALLG_SPLICE_CSV at the file to enable them, and optionally
ALLG_SPLICE_LABEL at the label column (default "label").
"""

import itertools
import os
import time

import numpy as np
import pytest

import allg
from allg.cli import main
from allg.evaluate import Protocol, run_protocol, summarize
from allg.gradcheck import COMPOSITE_TOLERANCE, OP_TOLERANCE, run_all
from allg.model import VARIANTS
from oracles import brute_force_knn_adjacency, straight_line_forward
from pools import make_blobs, save_csv

SPLICE_ENV = "ALLG_SPLICE_CSV"


def _report(criterion, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {description}{detail}")
    assert ok, f"criterion {criterion} failed: {description}{detail}"


def _splice_dataset():
    path = os.environ.get(SPLICE_ENV)
    if not path:
        pytest.skip(f"set {SPLICE_ENV} to the preprocessed Splice-junction CSV "
                    "(1000 samples x 60 numeric features, 2 classes)")
    label = os.environ.get("ALLG_SPLICE_LABEL", "label")
    ds = allg.load_csv(path, label_column=label)
    if ds.n_samples != 1000 or ds.dim != 60 or ds.n_classes != 2:
        pytest.skip(f"{path} is {ds.dim}x{ds.n_samples} with {ds.n_classes} classes; "
                    "expected the 60x1000 two-class benchmark")
    return ds


def _splice_model(alpha=10.0, beta=10.0, lam=10.0, train_epochs=2000):
    return {
        "encoder_dims": (60, 60, 60, 32),
        "pretrain_epochs": 500,
        "train_epochs": train_epochs,
        "knn_k": 5,
        "alpha": alpha, "beta": beta, "lam": lam,
        "encoder_final_activation": "linear",
        "prior_normalize": "col",
    }


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    reports = run_all()
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in reports) and elapsed < 10.0
    ops = {r.name: r for r in reports}
    assert ops["composite_total_loss"].tolerance == COMPOSITE_TOLERANCE == 1e-4
    assert ops["matmul"].tolerance == OP_TOLERANCE == 1e-6
    worst = max(r.max_rel_err for r in reports)
    _report(1, "gradcheck passes every op at 1e-6 and the composite at 1e-4",
            ok, f" (worst rel err {worst:.2e}, {elapsed:.2f}s)")


def _random_model(rng, variant, n=6):
    """A small model with every weight drawn at random, and its input and prior."""
    al, be, lam, al_p, be_p = rng.uniform(0.1, 10, size=5)
    cfg = allg.ModelConfig(encoder_dims=(5, 4, 3), n_adjacency=3, variant=variant,
                           alpha=al, beta=be, lam=lam, alpha_prop=al_p, beta_prop=be_p)
    params = allg.init_encoder_decoder(cfg, rng=rng)
    params.update({f"adj{i}": rng.normal(size=(n, n)) for i in range(cfg.n_stored_matrices)})
    params["q"] = rng.normal(size=(n, n))
    return cfg, params, rng.normal(size=(5, n)), rng.normal(size=(n, n))


def test_criterion_2_loss_term_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    ok, worst = True, 0.0
    for _ in range(20):
        for variant in VARIANTS:
            cfg, params, x, a0 = _random_model(rng, variant)
            losses = allg.forward(params, x, cfg, a0)
            oracle = straight_line_forward(params, x, a0, cfg)
            for term in ("recon", "adjacency", "propagation", "selection"):
                got, want = losses[term], oracle[term]
                ok = ok and abs(got - want) <= 1e-12 * max(1.0, abs(want))
                worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(2, "loss terms match naive-loop oracles to 1e-12",
            ok, f" (worst rel err {worst:.1e}, {elapsed:.3f}s)")


def test_criterion_3_shortcut_identities():
    rng = np.random.default_rng(33)
    x = rng.normal(size=(5, 7))
    a0 = allg.knn_graph(x, 2).adjacency
    base = allg.ModelConfig(encoder_dims=(5, 4, 3), knn_k=2, seed=4)
    params = allg.init_encoder_decoder(base)
    params.update({f"adj{i}": a0 + 0.3 * rng.normal(size=(7, 7)) for i in range(2)})
    params["q"] = rng.normal(size=(7, 7))
    import dataclasses

    from allg import autodiff as ad
    from allg.model import mix_shortcut, propagate_vars, stack_vars

    def s_out_and_layers(cfg):
        tape = ad.Tape()
        pv = {k: tape.var(v) for k, v in params.items()}
        z = stack_vars(pv, "enc", tape.var(x), cfg)
        s_layers = propagate_vars(pv, z, cfg)
        return mix_shortcut(s_layers, z, cfg).value, [s.value for s in s_layers]

    s_out1, layers1 = s_out_and_layers(dataclasses.replace(base, shortcut_weight=1.0))
    s_out0, layers0 = s_out_and_layers(dataclasses.replace(base, shortcut_weight=0.0))
    ok = np.array_equal(s_out1, layers1[0]) and np.array_equal(s_out0, layers0[-1])
    _report(3, "r=1 gives S_out = S_1 and r=0 gives S_out = S_N bitwise", ok)


def test_criterion_4_knn_and_dcs_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(44)
    ok = True
    for _ in range(50):
        x = rng.normal(size=(4, 20))
        got = allg.knn_graph(x, 3).adjacency
        ok = ok and np.array_equal(got, brute_force_knn_adjacency(x, 3))
    for _ in range(50):
        x = rng.normal(size=(5, 8))
        got = allg.select_dcs(x, rank=2)
        _, _, vt = np.linalg.svd(x, full_matrices=True)  # dense full-SVD oracle
        scores = np.sum(vt[:2] ** 2, axis=0)
        want = sorted(range(8), key=lambda j: (-scores[j], j))
        ok = ok and got == want
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _report(4, "knn_graph and select_dcs match brute-force oracles on 50 cases each",
            ok, f" ({elapsed:.2f}s)")


def test_criterion_5_sparsity_monotonic_in_lambda():
    ds = make_blobs(50, 3, d=8, spread=1.0, seed=7)
    std, _, _ = allg.standardize(ds)

    def active_rows(lam, seed):
        cfg = allg.ModelConfig(encoder_dims=(8, 16, 8), pretrain_epochs=400,
                               train_epochs=1000, knn_k=5, alpha=10.0, beta=10.0,
                               lam=lam, seed=seed, encoder_final_activation="linear",
                               prior_normalize="col")
        result, *_ = allg.run_selection(std.features, cfg)
        scores = np.array(result.scores)
        return int((scores > 0.01 * scores.max()).sum())

    wins = 0
    counts = []
    for seed in range(5):
        low, high = active_rows(0.1, seed), active_rows(10.0, seed)
        counts.append((low, high))
        wins += high <= low
    _report(5, "lambda=10 leaves no more active Q rows than lambda=0.1 in >=4/5 seeds",
            wins >= 4, f" ({wins}/5 seeds, counts {counts})")


def test_criterion_6_selection_beats_random_on_blobs():
    ds = make_blobs(100, 3, d=8, spread=3.5, seed=11)  # 150 candidates
    model = {"encoder_dims": (8, 16, 8), "pretrain_epochs": 1500,
             "train_epochs": 1500, "knn_k": 5, "alpha": 10.0, "beta": 10.0,
             "lam": 10.0, "encoder_final_activation": "linear",
             "prior_normalize": "col"}
    proto = Protocol(budgets=(15,), runs=5, classifiers=("logistic_regression",))
    summary = summarize(run_protocol(ds, [allg.SelectorSpec("random"),
                                          allg.SelectorSpec("allg", params=model)], proto))
    ours = summary["allg"]["logistic_regression"]["budgets"]["15"]
    base = summary["random"]["logistic_regression"]["budgets"]["15"]
    _report(6, "ALLG top-15 trains LR at least as well as random selection",
            ours >= base, f" (allg {ours:.4f} vs random {base:.4f})")


@pytest.mark.splice
def test_criterion_7_splice_reproduction():
    ds = _splice_dataset()
    budgets = tuple(range(25, 226, 25))
    # hyperparameter grid on one fixed validation seed, coarse budget subset
    grid_proto = Protocol(budgets=(25, 125, 225), runs=1, classifiers=("logistic_regression",))
    best, best_mean = None, -1.0
    for alpha, beta, lam in itertools.product((0.1, 1.0, 10.0), repeat=3):
        spec = allg.SelectorSpec("allg", params=_splice_model(alpha, beta, lam,
                                                              train_epochs=1000))
        summary = summarize(run_protocol(ds, [spec], grid_proto))
        mean = summary["allg"]["logistic_regression"]["average"]
        if mean > best_mean:
            best, best_mean = (alpha, beta, lam), mean
    print(f"grid best (alpha, beta, lambda) = {best} at {best_mean:.4f}")

    proto = Protocol(budgets=budgets, runs=5, classifiers=("logistic_regression",))
    spec = allg.SelectorSpec("allg", params=_splice_model(*best))
    allg_means = summarize(run_protocol(ds, [spec], proto))["allg"]["logistic_regression"]
    grand = allg_means["average"]
    at125 = allg_means["budgets"]["125"]
    ok_grand = abs(grand - 0.7703) <= 0.05
    ok_125 = abs(at125 - 0.7756) <= 0.05

    # ablation ordering on grand means: full >= distinct_two >= one_matrix
    # >= knn_only >= no_graph in at least 3 of the 4 adjacent pairs
    order = ("no_graph", "knn_only", "one_matrix", "distinct_two", "full")
    specs = [allg.SelectorSpec("allg", params={**_splice_model(*best), "variant": v, "name": v})
             for v in order]
    ab_summary = summarize(run_protocol(ds, specs, proto))
    means = {v: ab_summary[v]["logistic_regression"]["average"] for v in order}
    pairs = sum(means[hi] >= means[lo]
                for lo, hi in zip(order[:-1], order[1:]))
    ok = ok_grand and ok_125 and pairs >= 3
    _report(7, "Splice grand mean within 0.05 of 0.7703, budget-125 within 0.05 "
               "of 0.7756, ablation ordering holds in >=3/4 pairs",
            ok, f" (grand {grand:.4f}, at125 {at125:.4f}, pairs {pairs}/4, means {means})")


@pytest.mark.splice
def test_criterion_8_convergence_shape_on_splice():
    ds = _splice_dataset()
    cand, _, _ = allg.split(ds, 0.5, 0)
    std, _, _ = allg.standardize(cand)
    cfg = allg.ModelConfig(seed=0, **_splice_model(train_epochs=2000))
    _, _, history = allg.run_selection(std.features, cfg)
    total = np.array([epoch["total"] for epoch in history])
    decreased = total[-1] < total[0]
    window = total[-100:]
    rel_change = abs(window[0] - window[-1]) / max(abs(window[0]), 1e-12)
    ok = decreased and rel_change < 1e-3
    _report(8, "total loss on the Splice candidate set decreases and flattens "
               "by epoch 2000",
            ok, f" (first {total[0]:.1f}, last {total[-1]:.1f}, "
                f"final-100 rel change {rel_change:.2e})")


def test_criterion_9_cli_determinism(tmp_path):
    ds = make_blobs(15, 3, d=4, spread=1.0, seed=6)
    csv = tmp_path / "pool.csv"
    save_csv(ds, csv)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"model": {"encoder_dims": [4, 4, 3], "pretrain_epochs": 40, '
                   '"train_epochs": 60, "knn_k": 3}}', encoding="utf-8")
    payloads = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code = main(["select", "--config", str(cfg), "--dataset", str(csv),
                     "--label-column", "label", "--out", str(out), "--seed", "5"])
        assert code == 0
        payloads.append((out / "ranking.csv").read_bytes())
    _report(9, "identical config and seed produce byte-identical ranking.csv",
            payloads[0] == payloads[1])
