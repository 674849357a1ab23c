import inspect

import numpy as np
import pytest

import allg
from allg.data import DATASET_KEYS
from allg.errors import ConfigError, DataError
from pools import make_blobs, save_csv


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_basic_with_header(self, tmp_path):
        p = _write(tmp_path / "t.csv", "a,b\n1,2\n3,4\n5,6\n")
        ds = allg.load_csv(p)
        assert ds.dim == 2 and ds.n_samples == 3
        assert ds.labels is None
        np.testing.assert_array_equal(ds.features, [[1, 3, 5], [2, 4, 6]])

    def test_label_column_by_name(self, tmp_path):
        p = _write(tmp_path / "t.csv", "x,y,cls\n1,2,pos\n3,4,neg\n5,6,pos\n")
        ds = allg.load_csv(p, label_column="cls")
        assert ds.dim == 2 and ds.n_samples == 3
        # first occurrence defines class ids
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])

    def test_label_column_by_index_no_header(self, tmp_path):
        p = _write(tmp_path / "t.csv", "1,2,7\n3,4,9\n5,6,7\n")
        ds = allg.load_csv(p, label_column=2, header=False)
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])
        np.testing.assert_array_equal(ds.features, [[1, 3, 5], [2, 4, 6]])

    def test_header_takes_only_true_false_or_auto(self, tmp_path):
        p = _write(tmp_path / "t.csv", "1,2\n3,4\n5,6\n")
        for header in ("no", 0, None):
            with pytest.raises(ConfigError, match="header"):
                allg.load_csv(p, header=header)

    def test_splice_shaped_file(self, tmp_path):
        # Same shape as the Splice-junction benchmark: 1000 samples, 60
        # features, 2 classes.
        rng = np.random.default_rng(0)
        rows = ["f" + ",f".join(str(j) for j in range(60)) + ",label"]
        for i in range(1000):
            vals = rng.integers(0, 4, size=60)
            rows.append(",".join(str(v) for v in vals) + ("," + ("EI" if i % 2 else "IE")))
        p = _write(tmp_path / "splice.csv", "\n".join(rows) + "\n")
        ds = allg.load_csv(p, label_column="label")
        assert ds.dim == 60 and ds.n_samples == 1000 and ds.n_classes == 2

    def test_non_numeric_cell_names_position(self, tmp_path):
        p = _write(tmp_path / "t.csv", "a,b\n1,2\n3,abc\n")
        with pytest.raises(DataError, match=r"row 3.*column 2"):
            allg.load_csv(p)

    def test_ragged_rows(self, tmp_path):
        p = _write(tmp_path / "t.csv", "a,b\n1,2\n3\n")
        with pytest.raises(DataError, match="ragged"):
            allg.load_csv(p)

    def test_missing_label_column(self, tmp_path):
        p = _write(tmp_path / "t.csv", "a,b\n1,2\n3,4\n")
        with pytest.raises(DataError, match="not found"):
            allg.load_csv(p, label_column="cls")

    def test_auto_header_sees_an_all_numeric_first_row_as_data(self, tmp_path):
        p = _write(tmp_path / "t.csv", "1,2\n3,4\n5,6\n")
        ds = allg.load_csv(p)
        np.testing.assert_array_equal(ds.features, [[1, 3, 5], [2, 4, 6]])

    @pytest.mark.parametrize("index", [2, -1])
    def test_label_column_index_out_of_range(self, tmp_path, index):
        p = _write(tmp_path / "t.csv", "1,2\n3,4\n")
        with pytest.raises(DataError, match=f"label column index {index} out of range"):
            allg.load_csv(p, label_column=index)

    def test_label_column_by_name_needs_a_header(self, tmp_path):
        p = _write(tmp_path / "t.csv", "1,2,7\n3,4,9\n")
        with pytest.raises(DataError, match="given by name but file has no header"):
            allg.load_csv(p, label_column="cls")

    def test_label_as_the_only_column(self, tmp_path):
        p = _write(tmp_path / "t.csv", "cls\na\nb\n")
        with pytest.raises(DataError, match="no feature columns left"):
            allg.load_csv(p, label_column="cls")

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            allg.load_csv(str(tmp_path / "missing.csv"))

    def test_alternate_delimiter(self, tmp_path):
        p = _write(tmp_path / "t.csv", "a;b\n1;2\n3;4\n")
        ds = allg.load_csv(p, delimiter=";")
        assert ds.dim == 2 and ds.n_samples == 2

    def test_dataset_block_keys_are_its_parameters(self):
        # The config's `dataset` block is passed to load_csv as keyword arguments.
        assert list(DATASET_KEYS) == list(inspect.signature(allg.load_csv).parameters)

    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = allg.Dataset(rng.normal(size=(4, 7)), labels=rng.integers(0, 2, 7),
                          name="rt")
        # ensure both classes appear
        ds.labels[0], ds.labels[1] = 0, 1
        p = tmp_path / "rt.csv"
        save_csv(ds, p)
        back = allg.load_csv(str(p), label_column="label")
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)


class TestStandardize:
    def test_two_point_rows(self):
        ds = allg.Dataset(np.array([[1.0, 3.0], [2.0, 2.0]]))
        out, mean, std = allg.standardize(ds)
        np.testing.assert_allclose(out.features[0], [-1.0, 1.0])
        np.testing.assert_allclose(out.features[1], [0.0, 0.0])
        assert std[1] == 1.0  # zero-variance row reports std 1

    def test_constant_row(self):
        ds = allg.Dataset(np.array([[5.0, 5.0, 5.0], [1.0, 2.0, 3.0]]))
        out, mean, std = allg.standardize(ds)
        np.testing.assert_array_equal(out.features[0], [0.0, 0.0, 0.0])
        assert std[0] == 1.0

    def test_random_moments(self, rng):
        ds = allg.Dataset(rng.normal(size=(4, 10)))
        out, _, _ = allg.standardize(ds)
        assert np.abs(out.features.mean(axis=1)).max() < 1e-12
        assert np.abs(out.features.std(axis=1) - 1.0).max() < 1e-12

    def test_idempotent_with_params(self, rng):
        ds = allg.Dataset(rng.normal(size=(3, 8)))
        once, mean, std = allg.standardize(ds)
        twice, mean2, std2 = allg.standardize(once)
        np.testing.assert_allclose(twice.features, once.features, atol=1e-12)
        applied = allg.apply_standardization(once, mean2, std2)
        np.testing.assert_allclose(applied.features, once.features, atol=1e-12)

    def test_apply_to_heldout(self, rng):
        train = allg.Dataset(rng.normal(size=(3, 10)))
        test = allg.Dataset(rng.normal(size=(3, 4)))
        _, mean, std = allg.standardize(train)
        held = allg.apply_standardization(test, mean, std)
        np.testing.assert_allclose(held.features, (test.features - mean[:, None]) / std[:, None])


class TestSplit:
    def test_cardinality_and_disjoint(self, rng):
        ds = allg.Dataset(rng.normal(size=(2, 10)))
        cand, test, idx = allg.split(ds, 0.5, 7)
        assert cand.n_samples == 5 and test.n_samples == 5
        assert len(set(idx)) == 5

    def test_determinism(self, rng):
        ds = allg.Dataset(rng.normal(size=(2, 20)))
        _, _, idx1 = allg.split(ds, 0.5, 7)
        _, _, idx2 = allg.split(ds, 0.5, 7)
        assert idx1 == idx2

    def test_partition(self, rng):
        ds = allg.Dataset(rng.normal(size=(2, 11)), labels=None)
        cand, test, idx = allg.split(ds, 0.4, 1)
        rest = [i for i in range(11) if i not in idx]
        recon = np.empty_like(ds.features)
        recon[:, idx] = cand.features
        recon[:, rest] = test.features
        np.testing.assert_array_equal(recon, ds.features)

    def test_protocol_scale(self, rng):
        ds = allg.Dataset(rng.normal(size=(3, 1000)))
        cand, test, _ = allg.split(ds, 0.5, 0)
        assert cand.n_samples == 500 and test.n_samples == 500

    def test_empty_side_errors(self, rng):
        ds = allg.Dataset(rng.normal(size=(2, 4)))
        with pytest.raises(DataError, match="empty side"):
            allg.split(ds, 1.0, 0)

    def test_labels_travel_with_samples(self, blobs_small):
        cand, test, idx = allg.split(blobs_small, 0.5, 2)
        np.testing.assert_array_equal(cand.labels, blobs_small.labels[idx])


class TestMakeBlobs:
    def test_construction(self):
        ds = make_blobs(20, 3, d=2, spread=1.0, seed=0)
        assert ds.n_samples == 60 and ds.dim == 2
        np.testing.assert_array_equal(np.unique(ds.labels), [0, 1, 2])

    def test_determinism_bitwise(self):
        a = make_blobs(10, 2, d=3, spread=0.5, seed=42)
        b = make_blobs(10, 2, d=3, spread=0.5, seed=42)
        assert np.array_equal(a.features, b.features)

    def test_small_spread_scatter(self):
        ds = make_blobs(30, 3, d=4, spread=1e-6, seed=1)
        means = np.stack([ds.features[:, ds.labels == c].mean(axis=1) for c in range(3)])
        within = max(ds.features[:, ds.labels == c].var(axis=1).max() for c in range(3))
        between = min(np.linalg.norm(means[i] - means[j])
                      for i in range(3) for j in range(i + 1, 3))
        assert within < 1e-6 * between

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            make_blobs(0, 3, d=2)


class TestDatasetInvariants:
    def test_rejects_nan(self):
        with pytest.raises(DataError, match="NaN"):
            allg.Dataset(np.array([[1.0, np.nan]]))

    def test_rejects_bad_label_length(self):
        with pytest.raises(DataError):
            allg.Dataset(np.ones((2, 3)), labels=np.array([0, 1]))
