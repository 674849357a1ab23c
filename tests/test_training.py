import dataclasses
import gc
import json
import tracemalloc
import weakref

import numpy as np
import pytest

import allg
from allg.cli import main
from allg.errors import NumericalError
from allg.model import VARIANTS, stage2_peak_bytes
from oracles import finite_diff, rel_err, straight_line_reconstruction
from pools import make_blobs, save_csv


def _traced_train_peak(x, a0, cfg) -> int:
    """Peak bytes that allg.train allocates, under tracemalloc, after pretraining."""
    params = allg.pretrain(x, cfg)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        allg.train(x, a0, cfg, params)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestPretrain:
    def test_reconstruction_improves(self, blobs_std, tiny_cfg):
        x = blobs_std.features
        init = allg.init_encoder_decoder(tiny_cfg)
        before = straight_line_reconstruction(init, x, tiny_cfg)
        params = allg.pretrain(x, tiny_cfg)
        after = straight_line_reconstruction(params, x, tiny_cfg)
        assert after < before

    def test_deterministic_final_parameters(self, blobs_std, tiny_cfg):
        x = blobs_std.features
        p1 = allg.pretrain(x, tiny_cfg)
        p2 = allg.pretrain(x, tiny_cfg)
        for key, arr in p1.items():
            assert np.array_equal(arr, p2[key]), key

    def test_leaves_stage2_params_untouched(self, blobs_std, tiny_cfg):
        params = allg.pretrain(blobs_std.features, tiny_cfg)
        assert not [k for k in params if k.startswith("adj")] and "q" not in params

    def test_nonfinite_input_reported_with_epoch(self, tiny_cfg):
        x = np.full((4, 6), 1e200)
        with np.errstate(over="ignore"), pytest.raises(NumericalError,
                                                       match="pretrain epoch 1"):
            allg.pretrain(x, tiny_cfg)


    def test_input_of_wrong_row_count_refused(self, blobs_std, tiny_cfg):
        with pytest.raises(ValueError, match="rows but encoder expects 4"):
            allg.pretrain(blobs_std.features[:3], tiny_cfg)


class TestPrecision:
    """Stages 1 and 2 compute in float32 and hand back float64 arrays."""

    @pytest.fixture
    def adam_dtypes(self, monkeypatch):
        """The dtypes of every gradient and Adam moment that adam_step receives."""
        seen = set()
        step = allg.autodiff.adam_step

        def spy(p, g, state, **kwargs):
            seen.update(a.dtype for a in (g, state.m, state.v))
            return step(p, g, state, **kwargs)

        monkeypatch.setattr(allg.autodiff, "adam_step", spy)
        return seen

    def test_both_stages_step_in_float32(self, blobs_std, tiny_cfg, adam_dtypes):
        x = blobs_std.features
        params = allg.pretrain(x, tiny_cfg)
        assert adam_dtypes == {np.dtype(np.float32)}
        adam_dtypes.clear()
        allg.train(x, allg.knn_graph(x, tiny_cfg.knn_k).adjacency, tiny_cfg, params)
        assert adam_dtypes == {np.dtype(np.float32)}

    def test_both_stages_return_float64(self, blobs_std, tiny_cfg):
        x = blobs_std.features
        params = allg.pretrain(x, tiny_cfg)
        trained, _ = allg.train(x, allg.knn_graph(x, tiny_cfg.knn_k).adjacency, tiny_cfg,
                                params)
        for arrays in (params, trained):
            assert {a.dtype for a in arrays.values()} == {np.dtype(np.float64)}


class TestTrain:
    def _pipeline(self, x, cfg):
        prior = allg.knn_graph(x, cfg.knn_k)
        params = allg.pretrain(x, cfg)
        return allg.train(x, prior.adjacency, cfg, params)

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

    def test_knn_only_propagates_through_the_exact_prior(self, blobs_std):
        # knn_only learns no adjacency: its adjacency term is alpha ||A_0||^2 of the
        # float64 prior itself, which a float32 copy of a column-normalized A_0 misses
        cfg = allg.ModelConfig(encoder_dims=(4, 6, 3), pretrain_epochs=30, train_epochs=50,
                               knn_k=4, seed=3, variant="knn_only", prior_normalize="col")
        x = blobs_std.features
        result, params, _ = allg.run_selection(x, cfg)
        assert not [k for k in params if k.startswith("adj")]
        a0 = allg.normalize_adjacency(allg.knn_graph(x, cfg.knn_k).adjacency, "col")
        assert result.final_losses["adjacency"] == cfg.alpha * np.vdot(a0, a0)

    def test_nonfinite_loss_reported_with_stage_and_epoch(self, blobs_std, tiny_cfg):
        # the epoch loop both stages share names the stage it runs
        x = blobs_std.features
        params = allg.pretrain(x, tiny_cfg)
        cfg = dataclasses.replace(tiny_cfg, lr=1e30)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError, match="train epoch 2"):
            allg.train(x, allg.knn_graph(x, cfg.knn_k).adjacency, cfg, params)

    def test_nonfinite_last_update_reported(self):
        # a loss is checked before each update, so the parameters are checked after the last
        std, _, _ = allg.standardize(make_blobs(20, 3, d=6, seed=1))
        cfg = allg.ModelConfig(encoder_dims=(6, 4, 3), pretrain_epochs=0, train_epochs=1,
                               knn_k=3, lr=1e37)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError, match="after train epoch 1"):
            allg.run_selection(std.features, cfg)

    def test_nonfinite_final_losses_reported(self, blobs_std, tiny_cfg, monkeypatch):
        forward = allg.training.forward

        def overflowed(*args, **kwargs):
            return {**forward(*args, **kwargs), "total": float("inf")}

        monkeypatch.setattr(allg.training, "forward", overflowed)
        with pytest.raises(NumericalError, match="final losses"):
            allg.run_selection(blobs_std.features, tiny_cfg)

    def test_every_epoch_steps_one_gradient_vector(self, blobs_std, tiny_cfg, monkeypatch):
        # the gradients persist across epochs, so no epoch maps them anew
        x = blobs_std.features
        params = allg.pretrain(x, tiny_cfg)
        seen = []
        step = allg.autodiff.adam_step

        def spy(p, g, state, **kwargs):
            seen.append(g)
            return step(p, g, state, **kwargs)

        monkeypatch.setattr(allg.autodiff, "adam_step", spy)
        allg.train(x, allg.knn_graph(x, tiny_cfg.knn_k).adjacency, tiny_cfg, params)
        assert len(seen) == tiny_cfg.train_epochs
        assert all(g is seen[0] for g in seen)

    def test_warm_start_of_adj0_alone_trains(self, blobs_std, tiny_cfg):
        # the full variant with two adjacency matrices: adj1 starts at A_0
        x = blobs_std.features
        a0 = allg.knn_graph(x, tiny_cfg.knn_k).adjacency
        params = {**allg.pretrain(x, tiny_cfg), "adj0": a0 + 0.1}
        trained, hist = allg.train(x, a0, tiny_cfg, params)
        assert list(trained)[-3:] == ["adj0", "adj1", "q"]
        assert len(hist) == tiny_cfg.train_epochs

    def test_warm_start_of_adj1_alone_is_kept(self, blobs_std, tiny_cfg):
        # adj1 starts at the caller's array, which is not written to even
        # when it is already float32, the dtype stage 2 trains in
        x = blobs_std.features
        a0 = allg.knn_graph(x, tiny_cfg.knn_k).adjacency
        adj1 = (a0 + 1.0).astype(np.float32)
        snapshot = adj1.copy()
        params = {**allg.pretrain(x, tiny_cfg), "adj1": adj1}
        trained, _ = allg.train(x, a0, tiny_cfg, params)
        assert np.array_equal(adj1, snapshot)
        assert np.abs(trained["adj1"] - adj1).max() < 0.5
        assert np.abs(trained["adj0"] - a0).max() < 0.5

    def test_warm_start_with_a_parameter_the_variant_lacks_refused(self, blobs_std, tiny_cfg):
        # knn_only learns no adjacency, so an adj0 passed in would get no gradient
        x = blobs_std.features
        cfg = dataclasses.replace(tiny_cfg, variant="knn_only")
        a0 = allg.knn_graph(x, cfg.knn_k).adjacency
        params = {**allg.init_encoder_decoder(cfg), "adj0": a0}
        with pytest.raises(ValueError, match="'adj0'.*'knn_only'"):
            allg.train(x, a0, cfg, params)

    def test_tied_two_shares_matrix(self, blobs_std):
        cfg = allg.ModelConfig(encoder_dims=(4, 6, 3), pretrain_epochs=30,
                               train_epochs=50, knn_k=4, seed=3, variant="tied_two")
        x = blobs_std.features
        trained, _ = allg.train(x, allg.knn_graph(x, 4).adjacency, cfg, allg.pretrain(x, cfg))
        assert len([k for k in trained if k.startswith("adj")]) == 1
        from allg import autodiff as ad
        from allg.model import propagate_vars, stack_vars

        tape = ad.Tape()
        pv = {k: tape.var(v) for k, v in trained.items()}
        assert len(propagate_vars(pv, stack_vars(pv, "enc", tape.var(x), cfg), cfg)) == 2

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
        params.update({f"adj{i}": a.copy() for i, a in enumerate(perturbed)})
        trained, _ = allg.train(x, prior.adjacency, cfg, params)
        final_dist = np.linalg.norm(trained["adj0"] - prior.adjacency)
        assert final_dist < init_dist
        assert final_dist < 0.02 * np.linalg.norm(prior.adjacency)

    def test_huge_lambda_crushes_row_sup_norms(self, blobs_std):
        x = blobs_std.features
        cfg = allg.ModelConfig(encoder_dims=(4, 6, 3), pretrain_epochs=60,
                               train_epochs=400, knn_k=4, seed=3, lam=1e9)
        _, params, _ = allg.run_selection(x, cfg)
        assert np.max(np.abs(params["q"])) < 1e-2

    def test_prior_shape_mismatch(self, blobs_std, tiny_cfg):
        params = allg.pretrain(blobs_std.features, tiny_cfg)
        with pytest.raises(ValueError, match="candidate"):
            allg.train(blobs_std.features, np.eye(7), tiny_cfg, params)

    def test_graph_variant_without_prior_refused(self, blobs_std, tiny_cfg):
        params = allg.init_encoder_decoder(tiny_cfg)
        with pytest.raises(ValueError, match="variant 'full' needs a prior graph A_0"):
            allg.train(blobs_std.features, None, tiny_cfg, params)

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
            allg.train(x, prior.adjacency, tiny_cfg, params)
            after = live_tapes()
        finally:
            gc.enable()
        assert after == before

    def test_stage2_footprint_at_most_16_square_arrays(self):
        # 3 parameters, 6 Adam moments, 3 gradients, the float32 copy of A_0 and
        # the VJP temporaries of one backward pass, all float32; nothing of one
        # epoch may live into the next.
        n, d = 400, 20
        x = np.random.default_rng(7).normal(size=(d, n))
        cfg = allg.ModelConfig(encoder_dims=(d, 16, 8), pretrain_epochs=2, train_epochs=3,
                               knn_k=5, seed=1)
        a0 = allg.knn_graph(x, cfg.knn_k).adjacency
        peak = _traced_train_peak(x, a0, cfg)
        square, slack = 4 * n * n, 16 * 8 * d * n
        assert peak <= 16 * square + slack, f"{peak / square:.2f} n x n arrays"

    @pytest.mark.parametrize("variant", allg.model.VARIANTS)
    def test_stage2_estimate_bounds_traced_peak(self, variant):
        # stage2_peak_bytes never understates stage 2's traced peak plus the
        # float64 prior A_0 run_selection holds, and overstates it by at most
        # 1.5 n x n arrays of the training dtype, float32
        n, d = 400, 20
        x = np.random.default_rng(7).normal(size=(d, n))
        cfg = allg.ModelConfig(encoder_dims=(d, 16, 8), pretrain_epochs=2, train_epochs=3,
                               knn_k=5, seed=1, variant=variant, prior_normalize="col")
        a0 = None
        if cfg.n_matrices:
            a0 = allg.normalize_adjacency(allg.knn_graph(x, cfg.knn_k).adjacency, "col")
        square = 4 * n * n
        traced = (_traced_train_peak(x, a0, cfg) + (0 if a0 is None else a0.nbytes)) / square
        estimate = (stage2_peak_bytes(cfg, n) - stage2_peak_bytes(cfg, 0)) / square
        assert 0 <= estimate - traced <= 1.5, f"estimate {estimate}, traced {traced:.2f}"

    def test_run_selection_normalizes_prior_once(self, blobs_std, monkeypatch):
        calls = []
        normalize = allg.training.normalize_adjacency

        def counting(a, mode):
            calls.append(mode)
            return normalize(a, mode)

        monkeypatch.setattr(allg.training, "normalize_adjacency", counting)
        cfg = allg.ModelConfig(encoder_dims=(4, 6, 3), pretrain_epochs=5, train_epochs=5,
                               knn_k=4, seed=3, prior_normalize="col")
        allg.run_selection(blobs_std.features, cfg)
        assert calls == ["col"]

    def test_train_takes_the_prior_forward_takes(self, blobs_std):
        # train's a0 is the normalized A_0 itself, so training on it by hand
        # reproduces run_selection bit for bit.
        x = blobs_std.features
        cfg = allg.ModelConfig(encoder_dims=(4, 6, 3), pretrain_epochs=20, train_epochs=20,
                               knn_k=4, seed=3, prior_normalize="col")
        a0 = allg.normalize_adjacency(allg.knn_graph(x, cfg.knn_k).adjacency, "col")
        trained, _ = allg.train(x, a0, cfg, allg.pretrain(x, cfg))
        params = allg.run_selection(x, cfg)[1]
        for key, arr in params.items():
            assert np.array_equal(trained[key], arr), key

    def test_warm_q_alone_keeps_checkpoint_order(self, tmp_path, blobs_std, tiny_cfg):
        x = blobs_std.features
        params = allg.pretrain(x, tiny_cfg)
        params["q"] = np.eye(x.shape[1])
        trained, _ = allg.train(x, allg.knn_graph(x, tiny_cfg.knn_k).adjacency, tiny_cfg, params)
        allg.save_checkpoint(tmp_path / "ckpt.npz", trained, tiny_cfg)
        loaded, _ = allg.load_checkpoint(tmp_path / "ckpt.npz")
        assert list(loaded) == list(trained)
        assert list(trained)[-3:] == ["adj0", "adj1", "q"]

    def test_incoming_params_not_mutated(self, blobs_std, tiny_cfg):
        x = blobs_std.features
        params = allg.pretrain(x, tiny_cfg)
        snapshot = {k: v.copy() for k, v in params.items()}
        allg.train(x, allg.knn_graph(x, tiny_cfg.knn_k).adjacency, tiny_cfg, params)
        for key, arr in params.items():
            assert np.array_equal(arr, snapshot[key]), key


# A different valid value for every ModelConfig field: stage 1 reads the first
# table's fields (STAGE1_FIELDS) and none of the second's.
STAGE1_CHANGES = {"encoder_dims": (4, 5, 3), "encoder_final_activation": "linear",
                  "decoder_final_activation": "relu", "lr": 2e-3, "pretrain_epochs": 4,
                  "seed": 4}
STAGE2_CHANGES = {"alpha": 2.0, "beta": 2.0, "lam": 2.0, "train_epochs": 3,
                  "alpha_prop": 3.0, "beta_prop": 3.0, "n_adjacency": 3, "shortcut_layer": 2,
                  "shortcut_weight": 0.5, "knn_k": 3, "prior_normalize": "sym",
                  "variant": "tied_two"}


class TestStage1Memo:
    @pytest.fixture
    def cfg(self):
        return allg.ModelConfig(encoder_dims=(4, 6, 3), pretrain_epochs=5, train_epochs=2,
                                knn_k=4, seed=3, prior_normalize="col")

    def test_stage1_fields_are_exactly_those_pretrain_reads(self, blobs_std, cfg):
        fields = {f.name for f in dataclasses.fields(allg.ModelConfig)}
        assert set(allg.training.STAGE1_FIELDS) == set(STAGE1_CHANGES)
        assert set(STAGE1_CHANGES) | set(STAGE2_CHANGES) == fields
        base = allg.pretrain(blobs_std.features, cfg)
        for name, value in STAGE2_CHANGES.items():
            other = allg.pretrain(blobs_std.features, dataclasses.replace(cfg, **{name: value}))
            assert all(np.array_equal(base[k], other[k]) for k in base), name

    def test_outside_a_block_every_run_builds_both(self, blobs_std, cfg, stage1_calls):
        for _ in range(2):
            allg.run_selection(blobs_std.features, cfg)
        assert stage1_calls == {"knn_graph": 2, "pretrain": 2}

    @pytest.mark.parametrize("name", ["alpha", "beta", "lam", "train_epochs"])
    def test_a_stage2_field_hits_with_the_same_result(self, blobs_std, cfg, stage1_calls, name):
        x = blobs_std.features
        other = dataclasses.replace(cfg, **{name: STAGE2_CHANGES[name]})
        expected = allg.run_selection(x, other)
        with allg.training.stage1_memo():
            allg.run_selection(x, cfg)
            got = allg.run_selection(x, other)
        assert stage1_calls == {"knn_graph": 2, "pretrain": 2}  # one outside, one inside
        assert got[0] == expected[0]
        assert all(np.array_equal(got[1][k], expected[1][k]) for k in expected[1])

    @pytest.mark.parametrize("name", sorted(STAGE1_CHANGES))
    def test_a_stage1_field_misses_the_pretrain(self, blobs_std, cfg, stage1_calls, name):
        with allg.training.stage1_memo():
            allg.run_selection(blobs_std.features, cfg)
            allg.run_selection(blobs_std.features,
                               dataclasses.replace(cfg, **{name: STAGE1_CHANGES[name]}))
        assert stage1_calls == {"knn_graph": 1, "pretrain": 2}

    @pytest.mark.parametrize("name", ["knn_k", "prior_normalize"])
    def test_a_prior_field_misses_the_prior(self, blobs_std, cfg, stage1_calls, name):
        with allg.training.stage1_memo():
            allg.run_selection(blobs_std.features, cfg)
            allg.run_selection(blobs_std.features,
                               dataclasses.replace(cfg, **{name: STAGE2_CHANGES[name]}))
        assert stage1_calls == {"knn_graph": 2, "pretrain": 1}

    def test_one_pool_entry_changed_in_place_misses_both(self, blobs_std, cfg, stage1_calls):
        # the pool is compared by value, so the caller's own array changing misses
        x = blobs_std.features.copy()
        with allg.training.stage1_memo():
            allg.run_selection(x, cfg)
            x[2, 7] = np.nextafter(x[2, 7], np.inf)
            allg.run_selection(x, cfg)
            allg.run_selection(x.copy(), cfg)
        assert stage1_calls == {"knn_graph": 2, "pretrain": 2}

    def test_handed_out_arrays_are_read_only(self, blobs_std, cfg, monkeypatch):
        seen = []
        train = allg.training.train

        def spy(x, a0, cfg, params):
            seen.append((a0, params))
            return train(x, a0, cfg, params)

        monkeypatch.setattr(allg.training, "train", spy)
        with allg.training.stage1_memo():
            for _ in range(2):
                allg.run_selection(blobs_std.features, cfg)
        for a0, params in seen:
            for arr in [a0, *params.values()]:
                with pytest.raises(ValueError, match="read-only"):
                    arr[...] = 0
        assert seen[0][0] is seen[1][0] and seen[0][1] is seen[1][1]

    def test_a_miss_drops_the_old_value_before_building(self, blobs_std, cfg, monkeypatch):
        priors, alive = [], []
        train, knn_graph = allg.training.train, allg.training.knn_graph

        def train_spy(x, a0, cfg, params):
            priors.append(weakref.ref(a0))
            return train(x, a0, cfg, params)

        def knn_spy(x, k):
            alive.extend(ref() is not None for ref in priors)
            return knn_graph(x, k)

        monkeypatch.setattr(allg.training, "train", train_spy)
        monkeypatch.setattr(allg.training, "knn_graph", knn_spy)
        with allg.training.stage1_memo():
            allg.run_selection(blobs_std.features, cfg)
            allg.run_selection(blobs_std.features, dataclasses.replace(cfg, knn_k=3))
        assert alive == [False]

    def test_the_block_ends_its_entries(self, blobs_std, cfg, stage1_calls):
        for _ in range(2):
            with allg.training.stage1_memo():
                allg.run_selection(blobs_std.features, cfg)
        assert stage1_calls == {"knn_graph": 2, "pretrain": 2}


class TestPermutationEquivariance:
    def test_ranking_permutes_with_columns(self, rng):
        ds = make_blobs(8, 3, d=5, spread=1.5, seed=21)
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

    @pytest.mark.parametrize("prior", ["none", "col", "sym"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_normalized_prior_gradients(self, variant, prior):
        # the composite check for every variant's graph and every prior normalization,
        # on n = 9 candidates with N = 3 adjacency layers and the shortcut at layer 2
        from allg import autodiff as ad
        from allg.model import build_loss_graph, forward

        cfg = allg.ModelConfig(encoder_dims=(4, 3, 2), n_adjacency=3, shortcut_layer=2,
                               lam=0.6, alpha=0.5, beta=2.0, knn_k=2, seed=1,
                               prior_normalize=prior, variant=variant)
        params, x, a0 = _smooth_point(cfg, f"variant_gradcheck:{variant}:{prior}")
        tape = ad.Tape()
        pv = {k: tape.var(v) for k, v in params.items()}
        losses = build_loss_graph(tape, pv, tape.var(x), tape.var(a0), cfg)
        grads = {k: np.empty_like(v) for k, v in params.items()}
        tape.backward(losses["total"], into={pv[k]: grads[k] for k in params})
        # every parameter: knn_only and no_graph store no adjacency, tied_two stores one
        assert len(params) == 8 + 1 + cfg.n_stored_matrices
        fd = finite_diff(lambda arrs: forward({**params, **arrs}, x, cfg, a0)["total"],
                         params)
        worst = max(rel_err(grads[k], fd[k]) for k in params)
        assert worst < 1e-4


def _smooth_point(cfg, name: str):
    """(params, x, a0) for a stage-2 model on 9 candidates at which the loss is smooth.

    Biases are nonzero, each row of Q has one sup-norm argmax, and every ReLU
    input lies at least 1e-3 from the kink, far beyond the finite-difference
    step; draws from the substreams `name:0`, `name:1`, ... until one point
    has all three.
    """
    from allg import autodiff as ad
    from allg.graph import normalize_adjacency
    from allg.model import forward, init_encoder_decoder
    from allg.rng import substream

    relu, n = ad.relu, 9
    for attempt in range(20):
        rng = substream(17, f"{name}:{attempt}")
        x = rng.normal(size=(cfg.input_dim, n))
        a0 = normalize_adjacency(allg.knn_graph(x, cfg.knn_k).adjacency, cfg.prior_normalize)
        params = init_encoder_decoder(cfg, rng)
        params.update({k: rng.uniform(0.2, 0.5, v.shape) * rng.choice([-1.0, 1.0], v.shape)
                       for k, v in params.items() if "_b" in k})
        params.update({f"adj{i}": a0 + 0.1 * rng.normal(size=(n, n))
                       for i in range(cfg.n_stored_matrices)})
        q = 0.2 * rng.normal(size=(n, n))
        for i in range(n):
            j = np.argmax(np.abs(q[i]))
            q[i, j] += np.sign(q[i, j]) * 0.2
        params["q"] = q
        relu_inputs = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ad, "relu", lambda v: relu_inputs.append(v.value) or relu(v))
            forward(params, x, cfg, a0)
        if min(np.abs(v).min() for v in relu_inputs) >= 1e-3:
            return params, x, a0
    raise AssertionError(f"no smooth point in 20 draws of {name}")


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
        save_csv(blobs_small, data)
        # the model block refuses "seed"; the top-level seed carries it
        model = {k: v for k, v in dataclasses.asdict(tiny_cfg).items() if k != "seed"}
        cfg.write_text(json.dumps({"model": model, "seed": tiny_cfg.seed}), encoding="utf-8")
        assert main(["select", "--config", str(cfg), "--dataset", str(data),
                     "--label-column", "label", "--out", str(tmp_path / "out")]) == 0
        (hist,) = histories
        lines = (tmp_path / "out" / "losses.csv").read_text().splitlines()
        assert lines[0] == "epoch,recon,adjacency,propagation,selection,total"
        assert len(lines) == len(hist) + 1
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[5]) == hist[0]["total"]
