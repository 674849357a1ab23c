import numpy as np
import pytest

import allg
from allg.baselines import kmeans_fit
from allg.errors import ConfigError
from allg.evaluate import SELECTORS, rank_candidates
from oracles import gram_leverage_scores
from pools import make_blobs


class TestSelectRandom:
    def test_full_budget_is_permutation(self):
        out = allg.select_random(5, seed=3)
        assert sorted(out) == [0, 1, 2, 3, 4]

    def test_deterministic(self):
        assert allg.select_random(40, seed=9) == allg.select_random(40, seed=9)

    def test_distinct_at_scale(self):
        out = allg.select_random(1000, seed=0)
        assert sorted(out) == list(range(1000))


class TestSelectKmeans:
    def test_two_separated_pairs(self):
        # brute-force obvious answer: one point from each far-apart pair
        x = np.array([[0.0, 0.1, 10.0, 10.1],
                      [0.0, 0.0, 0.0, 0.0]])
        out = allg.select_kmeans(x, k=2, seed=0)
        assert {out[0], out[1]} in ({0, 2}, {0, 3}, {1, 2}, {1, 3})
        sides = {0 if i < 2 else 1 for i in out}
        assert sides == {0, 1}

    def test_single_centroid_orders_by_distance_to_mean(self, rng):
        x = rng.normal(size=(3, 12))
        out = allg.select_kmeans(x, k=1, seed=4)
        mean = x.mean(axis=1, keepdims=True)
        dist = np.linalg.norm(x - mean, axis=0)
        expect = sorted(range(12), key=lambda i: (dist[i], i))
        assert out == expect

    def test_deterministic(self, rng):
        x = rng.normal(size=(4, 30))
        assert allg.select_kmeans(x, k=3, seed=2) == allg.select_kmeans(x, k=3, seed=2)

    def test_round_robin_spreads_over_clusters(self):
        ds = make_blobs(10, 3, d=2, spread=0.2, seed=8)
        out = allg.select_kmeans(ds.features, k=3, seed=1)
        assert len({ds.labels[i] for i in out[:3]}) == 3

    def test_lloyd_fixed_point(self, rng):
        # every point is nearest to its own centroid, and each centroid is its members' mean
        x = rng.normal(size=(5, 60))
        centroids, assign = kmeans_fit(x, 4, seed=5)
        dist = np.linalg.norm(x[:, :, None] - centroids[:, None, :], axis=0)
        assert (dist[np.arange(60), assign] <= dist.min(axis=1) + 1e-12).all()
        for c in range(4):
            np.testing.assert_allclose(centroids[:, c], x[:, assign == c].mean(axis=1),
                                       rtol=0, atol=1e-12)

    def test_more_clusters_than_distinct_points(self):
        # Three distinct points, each three times: farthest-point init repeats a
        # centroid, and ties go to the lowest cluster, so only the empty-cluster
        # reseed can put a point in the last cluster.
        x = np.repeat(np.array([[0.0, 1.0, 5.0], [0.0, 3.0, 1.0]]), 3, axis=1)
        _, assign = kmeans_fit(x, 5, seed=0)
        assert assign.max() == 4
        assert sorted(allg.select_kmeans(x, k=5, seed=0)) == list(range(9))

    def test_k_exceeds_n(self, rng):
        with pytest.raises(ConfigError):
            allg.select_kmeans(rng.normal(size=(2, 3)), k=4, seed=0)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one(self, rng, k):
        x = rng.normal(size=(2, 3))
        with pytest.raises(ConfigError, match="K="):
            allg.select_kmeans(x, k=k, seed=0)
        with pytest.raises(ConfigError, match="K="):
            kmeans_fit(x, k, seed=0)


class TestSelectDcs:
    def test_dominant_singular_direction(self):
        x = np.diag([3.0, 2.0, 1.0])
        assert allg.select_dcs(x, rank=1)[:1] == [0]

    def test_duplicate_columns_tie_to_lower_index(self):
        x = np.array([[3.0, 3.0, 1.0], [0.5, 0.5, 2.0]])
        out = allg.select_dcs(x, rank=1)
        assert out[:1] == [0]

    def test_matches_gram_eigh_oracle(self, rng):
        x = rng.normal(size=(5, 8))
        out = allg.select_dcs(x, rank=2)
        scores = gram_leverage_scores(x, 2)
        expect = sorted(range(8), key=lambda j: (-scores[j], j))
        assert out == expect

    def test_invariant_to_orthogonal_left_multiplication(self, rng):
        x = rng.normal(size=(6, 9))
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        assert allg.select_dcs(x, rank=3) == allg.select_dcs(q @ x, rank=3)

    def test_rank_out_of_range(self, rng):
        with pytest.raises(ConfigError):
            allg.select_dcs(rng.normal(size=(3, 5)), rank=4)

    @pytest.mark.parametrize("rank", [0, -1])
    def test_rank_below_one(self, rng, rank):
        with pytest.raises(ConfigError, match="rank="):
            allg.select_dcs(rng.normal(size=(3, 5)), rank=rank)


class TestRegistry:
    def test_all_kinds_give_full_rankings(self, rng):
        x = rng.normal(size=(4, 12))
        params = {"random": {}, "kmeans": {"K": 3}, "dcs": {"rank": 2},
                  "allg": {"encoder_dims": (4, 4, 3), "pretrain_epochs": 10,
                           "train_epochs": 10, "knn_k": 3}}
        assert set(params) == set(SELECTORS)
        for kind, p in params.items():
            ranking = rank_candidates(x, allg.SelectorSpec(kind, params=p), seed=5)
            assert sorted(ranking) == list(range(12)), kind

    def test_unknown_kind(self, rng):
        with pytest.raises(ConfigError, match="unknown selector"):
            rank_candidates(rng.normal(size=(2, 4)), allg.SelectorSpec("mystery"), seed=0)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            allg.SelectorSpec("kmeans", params={"K": 0})
        with pytest.raises(ConfigError):
            allg.SelectorSpec("dcs", params={"rank": 0})
