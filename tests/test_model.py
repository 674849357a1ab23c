import dataclasses
import json

import numpy as np
import pytest

import allg
from allg.errors import ConfigError
from allg.model import (
    adjacency_key,
    config_from_dict,
    config_from_options,
    config_to_dict,
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
    ])
    def test_invalid_configs_raise(self, bad):
        kwargs = {"encoder_dims": (5, 4, 3)}
        kwargs.update(bad)
        with pytest.raises(ConfigError):
            allg.ModelConfig(**kwargs)

    def test_to_from_dict_roundtrip(self):
        cfg = allg.ModelConfig(encoder_dims=(6, 4, 2), alpha=2.0, variant="tied_two")
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            config_from_dict({"encoder_dims": (4, 2), "typo_field": 1})


class TestMemoryPreflight:
    def test_default_variant_counts_16_square_arrays(self):
        cfg = allg.ModelConfig(encoder_dims=(5, 4, 3))
        base = stage2_peak_bytes(cfg, 0)
        assert stage2_peak_bytes(cfg, 1000) == base + 16 * 8 * 1000 * 1000

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

    def test_tied_shares_one_array(self):
        base = allg.ModelConfig(encoder_dims=(5, 4, 3))
        cfg = dataclasses.replace(base, variant="tied_two")
        assert cfg.n_stored_matrices == 1
        assert adjacency_key(cfg, 0) == adjacency_key(cfg, 1) == "adj0"

    def test_unknown_variant(self):
        base = allg.ModelConfig(encoder_dims=(5, 4, 3))
        with pytest.raises(ConfigError):
            dataclasses.replace(base, variant="nope")


class TestForward:
    def test_r1_shortcut_is_first_layer_bitwise(self, rng):
        cfg, params, x, a0 = _toy_model(rng, r=1.0, k=1)
        cache, _ = allg.forward(params, x, cfg, a0)
        assert np.array_equal(cache.s_out, cache.s_layers[0])

    def test_r0_shortcut_is_last_layer_bitwise(self, rng):
        cfg, params, x, a0 = _toy_model(rng, r=0.0, k=1)
        cache, _ = allg.forward(params, x, cfg, a0)
        assert np.array_equal(cache.s_out, cache.s_layers[-1])

    def test_identity_q_passes_s_out_through(self, rng):
        cfg, params, x, a0 = _toy_model(rng)
        params["q"] = np.eye(params["q"].shape[0])
        cache, _ = allg.forward(params, x, cfg, a0)
        assert np.array_equal(cache.decoder_input, cache.s_out)

    def test_matches_straight_line_reimplementation(self, rng):
        for variant in ("full", "no_graph", "one_matrix", "tied_two", "distinct_two"):
            cfg, params, x, a0 = _toy_model(rng, variant=variant)
            cache, losses = allg.forward(params, x, cfg, a0 if cfg.n_matrices else None)
            ref = straight_line_forward(params, x, a0, cfg)
            np.testing.assert_allclose(cache.latent, ref["latent"], atol=1e-10)
            np.testing.assert_allclose(cache.s_out, ref["s_out"], atol=1e-10)
            np.testing.assert_allclose(cache.x_hat, ref["x_hat"], atol=1e-10)
            for term in ("recon", "adjacency", "propagation", "selection", "total"):
                assert abs(losses[term] - ref[term]) <= 1e-10 * max(1.0, abs(ref[term]))

    def test_no_graph_has_no_propagated_layers(self, rng):
        cfg, params, x, _ = _toy_model(rng, variant="no_graph")
        params = {k: v for k, v in params.items() if not k.startswith("adj")}
        cache, _ = allg.forward(params, x, cfg)
        assert cache.s_layers == []
        assert np.array_equal(cache.s_out, cache.latent)

    def test_wrong_candidate_count_raises(self, rng):
        cfg, params, x, a0 = _toy_model(rng)
        with pytest.raises(ValueError, match="transductive"):
            allg.forward(params, x[:, :4], cfg, a0)


class TestLossTerms:
    def test_total_additivity(self, rng):
        cfg, params, x, a0 = _toy_model(rng)
        _, losses = allg.forward(params, x, cfg, a0)
        parts = (losses["recon"] + losses["adjacency"]
                 + losses["propagation"] + losses["selection"])
        assert losses["total"] == pytest.approx(parts, rel=1e-12)


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

    def test_top_m(self, rng):
        result = allg.rank({"q": rng.normal(size=(5, 5))})
        assert len(result.top(3)) == 3
        with pytest.raises(ValueError):
            result.top(6)

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
