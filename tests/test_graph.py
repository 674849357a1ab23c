import numpy as np
import pytest

import allg
from allg.errors import ConfigError
from allg.graph import pairwise_sq_dists
from oracles import brute_force_knn_adjacency


class TestKnnGraph:
    def test_three_collinear_points(self):
        # points at 0, 1, 3 on a line; k=1
        x = np.array([[0.0, 1.0, 3.0]])
        g = allg.knn_graph(x, 1)
        expect = np.zeros((3, 3))
        expect[1, 0] = expect[0, 1] = 1.0  # 0 <-> 1
        expect[1, 2] = expect[2, 1] = 1.0  # 3 -> 1, symmetrized
        np.testing.assert_array_equal(g.adjacency, expect)

    def test_saturation_complete_graph(self, rng):
        x = rng.normal(size=(3, 6))
        g = allg.knn_graph(x, 5)
        expect = np.ones((6, 6)) - np.eye(6)
        np.testing.assert_array_equal(g.adjacency, expect)

    def test_matches_brute_force(self, rng):
        x = rng.normal(size=(5, 20))
        g = allg.knn_graph(x, 3)
        np.testing.assert_array_equal(g.adjacency, brute_force_knn_adjacency(x, 3))

    def test_symmetric_zero_diagonal(self, rng):
        x = rng.normal(size=(3, 12))
        g = allg.knn_graph(x, 3)
        np.testing.assert_array_equal(g.adjacency, g.adjacency.T)
        np.testing.assert_array_equal(np.diag(g.adjacency), np.zeros(12))

    def test_permutation_equivariance(self, rng):
        x = rng.normal(size=(3, 10))
        perm = rng.permutation(10)
        a = allg.knn_graph(x, 3).adjacency
        ap = allg.knn_graph(x[:, perm], 3).adjacency
        np.testing.assert_array_equal(ap[np.ix_(np.argsort(perm), np.argsort(perm))], a)

    def test_duplicate_points_tie_rule(self):
        # column 2 duplicates column 0; ties resolve to the lowest index
        x = np.array([[0.0, 5.0, 0.0, 5.0]])
        g = allg.knn_graph(x, 1)
        expect = np.zeros((4, 4))
        expect[0, 2] = expect[2, 0] = 1.0  # each point's nearest is its twin
        expect[1, 3] = expect[3, 1] = 1.0
        np.testing.assert_array_equal(g.adjacency, expect)

    def test_ties_match_stable_argsort(self, rng):
        # pools with many equal distances: integer grids, duplicated columns and
        # a constant pool, at every k; the oracle keeps the first k rows of a
        # stable argsort of each column, so ties go to the lowest index
        pools = [rng.integers(0, 3, size=(2, 12)).astype(float),
                 rng.integers(-2, 3, size=(3, 17)).astype(float),
                 np.array([[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]]),
                 np.tile(rng.normal(size=(3, 4)), (1, 3)),
                 rng.integers(0, 2, size=(2, 5)).astype(float)[:, rng.integers(0, 5, size=15)],
                 np.full((2, 9), 1.5)]
        overflowed = 0
        for x in pools:
            n = x.shape[1]
            dist = pairwise_sq_dists(x)
            np.fill_diagonal(dist, np.inf)
            order = np.argsort(dist, axis=0, kind="stable")
            for k in range(1, n):
                want = np.zeros((n, n))
                want[order[:k], np.arange(n)] = 1.0
                got = allg.knn_graph(x, k).adjacency
                np.testing.assert_array_equal(got, np.maximum(want, want.T), err_msg=f"k={k}")
                kth = np.sort(dist, axis=0)[k - 1]
                free = k - (dist < kth).sum(axis=0)
                overflowed += int(((dist == kth).sum(axis=0) > free).any())
        assert overflowed > 0  # some column had more ties than free slots

    def test_k_out_of_range(self, rng):
        x = rng.normal(size=(2, 5))
        with pytest.raises(ConfigError):
            allg.knn_graph(x, 0)
        with pytest.raises(ConfigError):
            allg.knn_graph(x, 5)


class TestNormalize:
    def test_col_stochastic(self, rng):
        a = allg.knn_graph(rng.normal(size=(3, 9)), 2).adjacency
        n = allg.normalize_adjacency(a, "col")
        np.testing.assert_allclose(n.sum(axis=0), np.ones(9), atol=1e-12)

    def test_sym_scaling(self, rng):
        a = allg.knn_graph(rng.normal(size=(3, 9)), 2).adjacency
        n = allg.normalize_adjacency(a, "sym")
        deg = a.sum(axis=0)
        np.testing.assert_allclose(n, a / np.sqrt(np.outer(deg, deg)), atol=1e-12)

    def test_none_is_identity(self, rng):
        a = allg.knn_graph(rng.normal(size=(3, 9)), 2).adjacency
        assert allg.normalize_adjacency(a, "none") is a

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            allg.normalize_adjacency(np.eye(3), "rowcol")

