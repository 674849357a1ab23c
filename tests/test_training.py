import gc
import json

import numpy as np
import pytest

import allg
from allg.cli import main
from allg.errors import NumericalError
from allg.model import config_to_dict
from allg.training import reconstruction_loss
from oracles import finite_diff, rel_err


class TestPretrain:
    def test_reconstruction_improves(self, blobs_std, tiny_cfg):
        x = blobs_std.features
        init = allg.init_encoder_decoder(tiny_cfg)
        before = reconstruction_loss(init, x, tiny_cfg)
        params = allg.pretrain(x, tiny_cfg)
        after = reconstruction_loss(params, x, tiny_cfg)
        assert after < before

    def test_deterministic_final_parameters(self, blobs_std, tiny_cfg):
        x = blobs_std.features
        p1 = allg.pretrain(x, tiny_cfg)
        p2 = allg.pretrain(x, tiny_cfg)
        for key, arr in p1.to_dict().items():
            assert np.array_equal(arr, p2.to_dict()[key]), key

    def test_leaves_stage2_params_untouched(self, blobs_std, tiny_cfg):
        params = allg.pretrain(blobs_std.features, tiny_cfg)
        assert params.adjacency == [] and params.q is None

    def test_nonfinite_input_reported_with_epoch(self, tiny_cfg):
        x = np.full((4, 6), 1e200)
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="epoch 1"):
            allg.pretrain(x, tiny_cfg)


class TestTrain:
    def _pipeline(self, x, cfg):
        prior = allg.knn_graph(x, cfg.knn_k)
        params = allg.pretrain(x, cfg)
        return allg.train(x, prior, cfg, params)

    def test_loss_trend_decreases(self, blobs_std):
        cfg = allg.ModelConfig(encoder_dims=(4, 6, 3), pretrain_epochs=80,
                               train_epochs=300, knn_k=4, seed=3)
        _, hist = self._pipeline(blobs_std.features, cfg)
        total = [epoch["total"] for epoch in hist]
        lead = np.mean(total[:100])
        trail = np.mean(total[-100:])
        assert trail < lead

    def test_history_has_all_terms(self, blobs_std, tiny_cfg):
        _, hist = self._pipeline(blobs_std.features, tiny_cfg)
        assert len(hist) == tiny_cfg.train_epochs
        terms = {k: np.array([epoch[k] for epoch in hist]) for k in hist[0]}
        total = terms["total"]
        parts = (terms["recon"] + terms["adjacency"]
                 + terms["propagation"] + terms["selection"])
        np.testing.assert_allclose(total, parts, rtol=1e-12)

    def test_deterministic_selection(self, blobs_std, tiny_cfg):
        r1, *_ = allg.run_selection(blobs_std.features, tiny_cfg)
        r2, *_ = allg.run_selection(blobs_std.features, tiny_cfg)
        assert r1.ranked_indices == r2.ranked_indices
        assert r1.scores == r2.scores

    def test_knn_only_adjacency_frozen_bitwise(self, blobs_std):
        cfg = allg.ModelConfig(encoder_dims=(4, 6, 3), pretrain_epochs=30,
                               train_epochs=50, knn_k=4, seed=3, variant="knn_only")
        x = blobs_std.features
        prior = allg.knn_graph(x, cfg.knn_k)
        params = allg.pretrain(x, cfg)
        trained, _ = allg.train(x, prior, cfg, params)
        assert np.array_equal(trained.adjacency[0], prior.adjacency)

    def test_tied_two_shares_matrix(self, blobs_std):
        cfg = allg.ModelConfig(encoder_dims=(4, 6, 3), pretrain_epochs=30,
                               train_epochs=50, knn_k=4, seed=3, variant="tied_two")
        x = blobs_std.features
        trained, _ = allg.train(x, allg.knn_graph(x, 4), cfg, allg.pretrain(x, cfg))
        assert len(trained.adjacency) == 1
        cache, _ = allg.forward(params=trained, x=x, cfg=cfg,
                                a0=allg.knn_graph(x, 4).adjacency)
        assert len(cache.s_layers) == 2

    def test_large_beta_pins_adjacency_to_prior(self, blobs_std, rng):
        x = blobs_std.features
        n = x.shape[1]
        cfg = allg.ModelConfig(encoder_dims=(4, 6, 3), pretrain_epochs=60,
                               train_epochs=250, knn_k=4, seed=3, beta=1e6)
        prior = allg.knn_graph(x, cfg.knn_k)
        params = allg.pretrain(x, cfg)
        # warm-start the adjacency off the prior to give training work to do
        perturbed = [prior.adjacency + 0.05 * rng.normal(size=(n, n))
                     for _ in range(cfg.n_stored_matrices)]
        init_dist = np.linalg.norm(perturbed[0] - prior.adjacency)
        params.adjacency = [a.copy() for a in perturbed]
        trained, _ = allg.train(x, prior, cfg, params)
        final_dist = np.linalg.norm(trained.adjacency[0] - prior.adjacency)
        assert final_dist < init_dist
        assert final_dist < 0.02 * np.linalg.norm(prior.adjacency)

    def test_huge_lambda_crushes_row_sup_norms(self, blobs_std):
        x = blobs_std.features
        cfg = allg.ModelConfig(encoder_dims=(4, 6, 3), pretrain_epochs=60,
                               train_epochs=400, knn_k=4, seed=3, lam=1e9)
        _, params, _, _ = allg.run_selection(x, cfg)
        assert np.max(np.abs(params.q)) < 1e-2

    def test_early_stop_breaks_before_limit(self, blobs_std):
        cfg = allg.ModelConfig(encoder_dims=(4, 6, 3), pretrain_epochs=40,
                               train_epochs=5000, knn_k=4, seed=3,
                               early_stop=True, early_stop_tol=0.05,
                               early_stop_patience=10)
        _, hist = self._pipeline(blobs_std.features, cfg)
        assert len(hist) < 5000

    def test_prior_shape_mismatch(self, blobs_std, tiny_cfg):
        params = allg.pretrain(blobs_std.features, tiny_cfg)
        with pytest.raises(ValueError, match="candidate"):
            allg.train(blobs_std.features, np.eye(7), tiny_cfg, params)

    def test_tapes_freed_without_cyclic_gc(self, blobs_std, tiny_cfg):
        # Each epoch's tape and its n x n arrays must go by reference
        # counting alone, not wait for the cyclic garbage collector.
        x = blobs_std.features
        prior = allg.knn_graph(x, tiny_cfg.knn_k)
        params = allg.pretrain(x, tiny_cfg)

        def live_tapes():
            return sum(isinstance(o, allg.Tape) for o in gc.get_objects())

        gc.collect()
        gc.disable()
        try:
            before = live_tapes()
            allg.train(x, prior, tiny_cfg, params)
            after = live_tapes()
        finally:
            gc.enable()
        assert after == before

    def test_incoming_params_not_mutated(self, blobs_std, tiny_cfg):
        x = blobs_std.features
        params = allg.pretrain(x, tiny_cfg)
        snapshot = {k: v.copy() for k, v in params.to_dict().items()}
        allg.train(x, allg.knn_graph(x, tiny_cfg.knn_k), tiny_cfg, params)
        for key, arr in params.to_dict().items():
            assert np.array_equal(arr, snapshot[key]), key


class TestPermutationEquivariance:
    def test_ranking_permutes_with_columns(self, rng):
        ds = allg.make_blobs(8, 3, d=5, spread=1.5, seed=21)
        std, _, _ = allg.standardize(ds)
        x = std.features
        cfg = allg.ModelConfig(encoder_dims=(5, 5, 3), pretrain_epochs=25,
                               train_epochs=25, knn_k=3, seed=11)
        base, *_ = allg.run_selection(x, cfg)
        perm = rng.permutation(x.shape[1])
        permuted, *_ = allg.run_selection(x[:, perm], cfg)
        # scores must be well separated for the ranking comparison to be exact
        gaps = -np.diff(np.array(base.scores))
        assert gaps.min() > 1e-9
        mapped = [int(perm[i]) for i in permuted.ranked_indices]
        assert mapped == base.ranked_indices


class TestCompositeGradient:
    def test_full_loss_matches_finite_differences(self):
        from allg.gradcheck import check_composite
        report = check_composite()
        assert report.max_rel_err < 1e-4

    def test_normalized_prior_gradients(self):
        # same composite check but through the degree-normalized prior path
        from allg import autodiff as ad
        from allg.graph import normalize_adjacency
        from allg.model import build_loss_graph, init_encoder_decoder, wrap_params
        from allg.rng import substream

        rng = substream(17, "normalized_prior_gradcheck")
        cfg = allg.ModelConfig(encoder_dims=(5, 4, 3), lam=0.6, alpha=0.5,
                               beta=2.0, knn_k=2, seed=1, prior_normalize="col")
        x = rng.normal(size=(5, 8))
        a0 = normalize_adjacency(allg.knn_graph(x, 2).adjacency, "col")
        params = init_encoder_decoder(cfg)
        params.adjacency = [a0 + 0.1 * rng.normal(size=(8, 8)) for _ in range(2)]
        q = 0.2 * rng.normal(size=(8, 8))
        # keep each row's sup-norm argmax unique so the point is smooth
        for i in range(8):
            j = np.argmax(np.abs(q[i]))
            q[i, j] += np.sign(q[i, j]) * 0.2
        params.q = q
        arrays = params.to_dict()

        def total(arrs):
            tape = ad.Tape()
            pv = {k: tape.var(v, requires_grad=True) for k, v in arrs.items()}
            losses, _ = build_loss_graph(tape, pv, tape.var(x), tape.var(a0), cfg)
            return losses["total"].item()

        tape = ad.Tape()
        pv = wrap_params(tape, params, cfg)
        losses, _ = build_loss_graph(tape, pv, tape.var(x), tape.var(a0), cfg)
        tape.backward(losses["total"])
        fd = finite_diff(total, arrays)
        worst = max(rel_err(pv[k].grad, fd[k]) for k in arrays)
        assert worst < 1e-4


class TestLossHistoryCsv:
    def test_csv_schema_and_roundtrip(self, tmp_path, monkeypatch, blobs_small, tiny_cfg):
        """`allg select` writes the history that `train` returned, one row per epoch."""
        histories = []

        def spy(x, cfg):
            out = allg.run_selection(x, cfg)
            histories.append(out[2])
            return out

        monkeypatch.setattr(allg.cli, "run_selection", spy)
        data, cfg = tmp_path / "pool.csv", tmp_path / "cfg.json"
        allg.save_csv(blobs_small, data)
        cfg.write_text(json.dumps({"model": config_to_dict(tiny_cfg)}), encoding="utf-8")
        assert main(["select", "--config", str(cfg), "--dataset", str(data),
                     "--label-column", "label", "--out", str(tmp_path / "out")]) == 0
        (hist,) = histories
        lines = (tmp_path / "out" / "losses.csv").read_text().splitlines()
        assert lines[0] == "epoch,recon,adjacency,propagation,selection,total"
        assert len(lines) == len(hist) + 1
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[5]) == hist[0]["total"]
