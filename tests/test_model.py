import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest

import allg
from allg import autodiff as ad
from allg.errors import ConfigError
from allg.model import (
    build_loss_graph,
    config_from_dict,
    config_from_options,
    mix_shortcut,
    propagate_vars,
    stack_vars,
    stage2_peak_bytes,
)
from oracles import straight_line_forward


def _toy_model(rng, n=6, d=5, latent=3, variant="full", r=0.3, k=1):
    cfg = allg.ModelConfig(encoder_dims=(d, 4, latent), n_adjacency=2,
                           shortcut_layer=k, shortcut_weight=r, alpha=0.4,
                           beta=1.3, lam=0.8, knn_k=2, seed=9, variant=variant)
    x = rng.normal(size=(d, n))
    a0 = allg.knn_graph(x, cfg.knn_k).adjacency
    params = allg.init_encoder_decoder(cfg)
    params.update({f"adj{i}": a0 + 0.2 * rng.normal(size=(n, n))
                   for i in range(cfg.n_stored_matrices)})
    params["q"] = 0.3 * rng.normal(size=(n, n))
    return cfg, params, x, a0


def _layers(params, x, cfg, a0=None):
    """Every intermediate of the forward pass, as value arrays, from the model's own
    graph builders on a tape of constant leaves; the prior a0 is the chain's "a0"."""
    tape = ad.Tape()
    pv = {k: tape.var(v) for k, v in params.items()}
    if a0 is not None:
        pv["a0"] = tape.var(a0)
    z = stack_vars(pv, "enc", tape.var(x), cfg)
    s_layers = propagate_vars(pv, z, cfg)
    s_out = mix_shortcut(s_layers, z, cfg)
    decoder_in = ad.matmul(s_out, pv["q"])
    return {"latent": z.value, "s_layers": [s.value for s in s_layers],
            "s_out": s_out.value, "decoder_input": decoder_in.value,
            "x_hat": stack_vars(pv, "dec", decoder_in, cfg).value}


class TestModelConfig:
    def test_defaults_follow_reported_setup(self):
        cfg = allg.ModelConfig(encoder_dims=(60, 60, 60, 32))
        assert cfg.n_adjacency == 2 and cfg.shortcut_layer == 1
        assert cfg.shortcut_weight == 0.3 and cfg.lr == 1e-3
        assert cfg.alpha_p == cfg.alpha and cfg.beta_p == cfg.beta

    def test_default_encoder_dims_clipped(self):
        assert allg.default_encoder_dims(60) == (60, 60, 60, 32)
        assert allg.default_encoder_dims(200) == (200, 128, 64, 32)

    @pytest.mark.parametrize("bad", [
        {"shortcut_layer": 3},             # k > N
        {"shortcut_weight": 1.5},
        {"alpha": 0.0},
        {"lam": -1.0},
        {"encoder_dims": (5,)},
        {"variant": "bogus"},
        {"prior_normalize": "rows"},
        {"train_epochs": 0},
        {"knn_k": 2.5},
        {"n_adjacency": 0},                # the default full variant learns no matrix
    ])
    def test_invalid_configs_raise(self, bad):
        kwargs = {"encoder_dims": (5, 4, 3)}
        kwargs.update(bad)
        with pytest.raises(ConfigError):
            allg.ModelConfig(**kwargs)

    def test_numpy_scalars_count_as_numbers(self):
        cfg = allg.ModelConfig(encoder_dims=(np.int64(5), np.int64(4)), knn_k=np.int64(3),
                               lam=np.float64(2.0), shortcut_weight=np.float64(0.5))
        assert cfg.encoder_dims == (5, 4) and cfg.knn_k == 3 and cfg.lam == 2.0
        protocol = allg.Protocol(budgets=(np.int64(2), np.int64(4)), runs=np.int64(2),
                                 candidate_fraction=np.float64(0.5), svm_c=np.float64(3.0))
        assert protocol.budgets == (2, 4) and protocol.runs == 2

    def test_to_from_dict_roundtrip(self):
        cfg = allg.ModelConfig(encoder_dims=(6, 4, 2), alpha=2.0, variant="tied_two")
        again = config_from_dict(json.loads(json.dumps(dataclasses.asdict(cfg))))
        assert again == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            config_from_dict({"encoder_dims": (4, 2), "typo_field": 1})

    def test_missing_encoder_dims_is_a_config_error(self):
        with pytest.raises(ConfigError, match="'encoder_dims'"):
            config_from_dict({})


class TestMemoryPreflight:
    def test_default_variant_counts_17_float32_arrays(self):
        cfg = allg.ModelConfig(encoder_dims=(5, 4, 3))
        base = stage2_peak_bytes(cfg, 0)
        assert stage2_peak_bytes(cfg, 1000) == base + 17 * 4 * 1000 * 1000

    def test_variants_without_learned_graphs_need_less(self):
        base = allg.ModelConfig(encoder_dims=(5, 4, 3))
        need = {v: stage2_peak_bytes(dataclasses.replace(base, variant=v), 500)
                for v in allg.model.VARIANTS}
        assert need["no_graph"] < need["knn_only"] < need["one_matrix"] < need["full"]
        assert need["distinct_two"] == need["full"]

    def test_estimate_at_the_ceiling_passes_and_above_it_fails(self, monkeypatch):
        need = stage2_peak_bytes(config_from_options({}, 5, 50), 50)
        monkeypatch.setattr(allg.model, "physical_memory_bytes", lambda: need)
        config_from_options({}, 5, 50)
        with pytest.raises(ConfigError, match="physical memory"):
            config_from_options({}, 5, 51)

    def test_unknown_physical_memory_skips_the_check(self, monkeypatch):
        monkeypatch.setattr(allg.model, "physical_memory_bytes", lambda: None)
        config_from_options({}, 5, 100_000)


class TestAblationVariants:
    def test_chain_lengths(self):
        base = allg.ModelConfig(encoder_dims=(5, 4, 3))
        lengths = {"no_graph": 0, "knn_only": 1, "one_matrix": 1,
                   "tied_two": 2, "distinct_two": 2, "full": 2}
        for name, n in lengths.items():
            assert dataclasses.replace(base, variant=name).n_matrices == n

    def test_each_variant_names_its_chain(self):
        # "a0" is the prior itself; tied_two shares one parameter and full has n_adjacency
        base = allg.ModelConfig(encoder_dims=(5, 4, 3), n_adjacency=3)
        chains = {"no_graph": (), "knn_only": ("a0",), "one_matrix": ("adj0",),
                  "tied_two": ("adj0", "adj0"), "distinct_two": ("adj0", "adj1"),
                  "full": ("adj0", "adj1", "adj2")}
        stored = {"no_graph": 0, "knn_only": 0, "one_matrix": 1,
                  "tied_two": 1, "distinct_two": 2, "full": 3}
        assert list(allg.model.VARIANTS) == list(chains)
        for name, chain in chains.items():
            cfg = dataclasses.replace(base, variant=name)
            assert cfg.chain == chain and cfg.n_stored_matrices == stored[name], name

    def test_unknown_variant(self):
        base = allg.ModelConfig(encoder_dims=(5, 4, 3))
        with pytest.raises(ConfigError):
            dataclasses.replace(base, variant="nope")


class TestForward:
    def test_r1_shortcut_is_first_layer_bitwise(self, rng):
        cfg, params, x, a0 = _toy_model(rng, r=1.0, k=1)
        layers = _layers(params, x, cfg)
        assert np.array_equal(layers["s_out"], layers["s_layers"][0])

    def test_r0_shortcut_is_last_layer_bitwise(self, rng):
        cfg, params, x, a0 = _toy_model(rng, r=0.0, k=1)
        layers = _layers(params, x, cfg)
        assert np.array_equal(layers["s_out"], layers["s_layers"][-1])

    def test_identity_q_passes_s_out_through(self, rng):
        cfg, params, x, a0 = _toy_model(rng)
        params["q"] = np.eye(params["q"].shape[0])
        layers = _layers(params, x, cfg)
        assert np.array_equal(layers["decoder_input"], layers["s_out"])

    def test_matches_straight_line_reimplementation(self, rng):
        for variant in allg.model.VARIANTS:
            cfg, params, x, a0 = _toy_model(rng, variant=variant)
            losses = allg.forward(params, x, cfg, a0 if cfg.n_matrices else None)
            layers = _layers(params, x, cfg, a0)
            ref = straight_line_forward(params, x, a0, cfg)
            for name in ("latent", "s_out", "x_hat"):
                np.testing.assert_allclose(layers[name], ref[name], atol=1e-10)
            for term in ("recon", "adjacency", "propagation", "selection", "total"):
                assert abs(losses[term] - ref[term]) <= 1e-10 * max(1.0, abs(ref[term]))

    def test_no_graph_has_no_propagated_layers(self, rng):
        cfg, params, x, _ = _toy_model(rng, variant="no_graph")
        params = {k: v for k, v in params.items() if not k.startswith("adj")}
        allg.forward(params, x, cfg)  # needs no prior
        layers = _layers(params, x, cfg)
        assert layers["s_layers"] == []
        assert np.array_equal(layers["s_out"], layers["latent"])

    def test_wrong_candidate_count_raises(self, rng):
        cfg, params, x, a0 = _toy_model(rng)
        with pytest.raises(ValueError, match="transductive"):
            allg.forward(params, x[:, :4], cfg, a0)

    def test_graph_variant_without_prior_raises(self, rng):
        cfg, params, x, _ = _toy_model(rng)
        with pytest.raises(ValueError, match="prior graph A_0 required"):
            allg.forward(params, x, cfg)

    def test_without_q_raises(self, rng):
        cfg, params, x, a0 = _toy_model(rng)
        del params["q"]
        with pytest.raises(ValueError, match="Q not initialized"):
            allg.forward(params, x, cfg, a0)


class TestLossTerms:
    def test_total_additivity(self, rng):
        cfg, params, x, a0 = _toy_model(rng)
        losses = allg.forward(params, x, cfg, a0)
        parts = (losses["recon"] + losses["adjacency"]
                 + losses["propagation"] + losses["selection"])
        assert losses["total"] == pytest.approx(parts, rel=1e-12)


class TestStage2Backward:
    def test_full_variant_sweep_makes_no_n_by_n_temporary(self):
        # as training sweeps it, in float32: each n x n parameter's matmul VJP
        # writes its gradient array and the penalty and sup-norm VJPs add into
        # it in row blocks, so the sweep allocates less than one n x n array
        n, d = 300, 12
        rng = np.random.default_rng(3)
        cfg = allg.ModelConfig(encoder_dims=(d, 10, 6), knn_k=4, seed=2)
        x = rng.normal(size=(d, n))
        a0 = allg.knn_graph(x, cfg.knn_k).adjacency
        params = allg.init_encoder_decoder(cfg)
        params.update(adj0=a0 + 0.1 * rng.normal(size=(n, n)),
                      adj1=a0 + 0.1 * rng.normal(size=(n, n)), q=0.1 * rng.normal(size=(n, n)))
        tape = ad.Tape()
        pv = {k: tape.var(v.astype(np.float32)) for k, v in params.items()}
        loss = build_loss_graph(tape, pv, tape.var(x.astype(np.float32)),
                                tape.var(a0.astype(np.float32)), cfg)["total"]
        into = {leaf: np.empty_like(leaf.value) for leaf in pv.values()}
        tracemalloc.start()
        try:
            tape.backward(loss, into=into)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * n * n, f"{peak / (4 * n * n):.2f} n x n arrays"


class TestRank:
    def test_simple_ordering(self):
        params = {"q": np.diag([0.1, 0.9, 0.5])}
        result = allg.rank(params)
        assert result.ranked_indices == [1, 2, 0]
        assert result.scores == sorted(result.scores, reverse=True)

    def test_zero_q_ties_by_index(self):
        params = {"q": np.zeros((4, 4))}
        result = allg.rank(params)
        assert result.ranked_indices == [0, 1, 2, 3]

    def test_matches_norm_sort_oracle(self, rng):
        q = rng.normal(size=(8, 8))
        result = allg.rank({"q": q})
        norms = [float(np.sqrt((q[i] ** 2).sum())) for i in range(8)]
        expect = sorted(range(8), key=lambda i: (-norms[i], i))
        assert result.ranked_indices == expect

    def test_requires_trained_q(self):
        with pytest.raises(ValueError, match="Q"):
            allg.rank({})


class TestCheckpoint:
    def test_roundtrip_exact(self, tmp_path, rng):
        cfg, params, x, a0 = _toy_model(rng, variant="tied_two")
        path = tmp_path / "ckpt.npz"
        allg.save_checkpoint(path, params, cfg)
        params2, cfg2 = allg.load_checkpoint(path)
        assert cfg2 == cfg
        assert list(params2) == list(params)
        for key, arr in params.items():
            assert np.array_equal(params2[key], arr), key

    def test_pre_stage2_checkpoint(self, tmp_path):
        cfg = allg.ModelConfig(encoder_dims=(4, 3, 2))
        params = allg.init_encoder_decoder(cfg)
        path = tmp_path / "ckpt.npz"
        allg.save_checkpoint(path, params, cfg)
        params2, _ = allg.load_checkpoint(path)
        assert "q" not in params2 and not [k for k in params2 if k.startswith("adj")]

    def test_numpy_scalar_config_roundtrip(self, tmp_path):
        cfg = allg.ModelConfig(encoder_dims=(5, 4), knn_k=np.int64(3), lam=np.float64(2.0))
        path = tmp_path / "ckpt.npz"
        allg.save_checkpoint(path, allg.init_encoder_decoder(cfg), cfg)
        _, loaded = allg.load_checkpoint(path)
        assert loaded == cfg
        assert type(loaded.knn_k) is int and type(cfg.knn_k) is int
        assert type(cfg.lam) is float

    def test_config_without_encoder_dims_refused(self, tmp_path):
        cfg = allg.ModelConfig(encoder_dims=(4, 3, 2))
        path = tmp_path / "ckpt.npz"
        allg.save_checkpoint(path, allg.init_encoder_decoder(cfg), cfg)
        with np.load(path) as npz:
            members = {k: npz[k] for k in npz.files}
        meta = json.loads(str(members["__meta__"][()]))
        del meta["config"]["encoder_dims"]
        members["__meta__"] = np.array(json.dumps(meta))
        np.savez(path, **members)
        with pytest.raises(ConfigError, match="'encoder_dims'"):
            allg.load_checkpoint(path)

    def test_meta_without_config_refused(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        np.savez(path, __meta__=np.array(json.dumps({"format_version": 3})), q=np.eye(2))
        with pytest.raises(ConfigError, match="'config'"):
            allg.load_checkpoint(path)

    @pytest.mark.parametrize("member, shape", [("enc_w0", (3, 3)), ("dec_b0", (3, 2)),
                                               ("adj0", (5, 5)), ("q", (6, 5))])
    def test_member_of_wrong_shape_refused(self, tmp_path, rng, member, shape):
        # encoder_dims (5, 4, 3) sets the autoencoder's shapes; every adj* and q is
        # n x n for the one n that q's rows give
        cfg, params, _, _ = _toy_model(rng)
        params[member] = np.ones(shape)
        path = tmp_path / "ckpt.npz"
        allg.save_checkpoint(path, params, cfg)
        with pytest.raises(ConfigError, match=re.escape(f"{member!r} has shape {shape}")):
            allg.load_checkpoint(path)

    def test_file_without_meta_refused(self, tmp_path, rng):
        path = tmp_path / "plain.npz"
        np.savez(path, q=rng.normal(size=(3, 3)))
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            allg.load_checkpoint(path)

    @pytest.mark.parametrize("content", ["not_npz", "meta_not_json", "meta_not_object"])
    def test_unreadable_file_refused(self, tmp_path, content):
        path = tmp_path / "ckpt.npz"
        if content == "not_npz":
            path.write_text("enc_w0,enc_b0\n1,2\n", encoding="utf-8")
        else:
            meta = "{format_version: 3" if content == "meta_not_json" else "[3]"
            np.savez(path, __meta__=np.array(meta), q=np.eye(2))
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            allg.load_checkpoint(path)

    def test_knn_only_checkpoint_with_adjacency_refused(self, tmp_path, rng):
        # knn_only propagates through A_0 and stores no adjacency, so the layout that
        # still held one (an adj0 member before q) is refused, naming both member lists
        cfg, params, _, a0 = _toy_model(rng, variant="knn_only")
        old = {k: v for k, v in params.items() if k != "q"}
        old.update(adj0=a0, q=params["q"])
        path = tmp_path / "ckpt.npz"
        allg.save_checkpoint(path, old, cfg)
        with pytest.raises(ConfigError, match="config") as err:
            allg.load_checkpoint(path)
        assert str(list(old)) in str(err.value) and str(list(params)) in str(err.value)

    @pytest.mark.parametrize("change", ["missing", "extra", "version_2"])
    def test_malformed_file_refused(self, tmp_path, rng, change):
        cfg, params, _, _ = _toy_model(rng)
        path = tmp_path / "ckpt.npz"
        allg.save_checkpoint(path, params, cfg)
        with np.load(path) as npz:
            members = {k: npz[k] for k in npz.files}
        if change == "missing":
            del members["adj1"]
        elif change == "extra":
            members["adj2"] = members["adj1"]
        else:
            meta = json.loads(str(members["__meta__"][()]))
            members["__meta__"] = np.array(json.dumps({**meta, "format_version": 2}))
        np.savez(path, **members)
        with pytest.raises(ConfigError, match="version 2" if change == "version_2" else "config"):
            allg.load_checkpoint(path)
