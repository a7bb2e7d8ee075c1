import warnings

import numpy as np
import pytest

from uqshift.config import default_config
from uqshift.dataset import (
    Dataset,
    fit_scaler,
    generate_synthetic,
    load_dataset,
    rank_correlated_features,
    save_dataset,
)
from uqshift.errors import ConfigError, DataError


def _tiny(n=4, d=2):
    rng = np.random.default_rng(0)
    return Dataset(
        ids=tuple(f"p{i}" for i in range(n)),
        features=rng.normal(size=(n, d)),
        feature_names=tuple(f"f{j:02d}" for j in range(1, d + 1)),
        target=rng.normal(size=n),
    )


class TestScaler:
    def test_fixture_column(self):
        # population std of [1,2,3] is sqrt(2/3)
        X = np.array([[1.0], [2.0], [3.0]])
        scaler = fit_scaler(X)
        out = scaler.transform(X)
        expected = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0 / 3.0)
        np.testing.assert_allclose(out[:, 0], expected, atol=1e-15)

    def test_population_std_not_sample(self):
        X = np.array([[1.0], [2.0], [3.0]])
        scaler = fit_scaler(X)
        assert scaler.stddevs[0] == pytest.approx(np.std([1, 2, 3], ddof=0))
        assert scaler.stddevs[0] != pytest.approx(np.std([1, 2, 3], ddof=1))

    def test_constant_column_flagged_and_zeroed(self):
        X = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 4.0]])
        scaler = fit_scaler(X)
        assert scaler.constant_mask[0] and not scaler.constant_mask[1]
        out = scaler.transform(X)
        np.testing.assert_array_equal(out[:, 0], np.zeros(3))

    def test_transform_new_rows(self):
        X = np.array([[0.0], [2.0]])
        scaler = fit_scaler(X)  # mean 1, std 1
        np.testing.assert_allclose(scaler.transform(np.array([[3.0]])), [[2.0]])


class TestDatasetValidation:
    def test_duplicate_ids(self):
        with pytest.raises(DataError):
            Dataset(
                ids=("a", "a"),
                features=np.zeros((2, 1)),
                feature_names=("f01",),
                target=np.zeros(2),
            )

    def test_non_finite_feature(self):
        with pytest.raises(DataError):
            Dataset(
                ids=("a", "b"),
                features=np.array([[0.0], [np.nan]]),
                feature_names=("f01",),
                target=np.zeros(2),
            )

    def test_arrays_read_only(self):
        data = _tiny()
        with pytest.raises(ValueError):
            data.features[0, 0] = 9.0


class TestCsvRoundTrip:
    def test_exact_floats(self, tmp_path):
        data = _tiny(n=6, d=3)
        path = tmp_path / "d.csv"
        save_dataset(data, path)
        back = load_dataset(path)
        assert back.ids == data.ids
        assert back.feature_names == data.feature_names
        np.testing.assert_array_equal(back.features, data.features)
        np.testing.assert_array_equal(back.target, data.target)

    def test_bad_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,target,f01\np0,1.0,2.0\np1,oops,3.0\n")
        with pytest.raises(DataError, match=r"row 2.*'target'"):
            load_dataset(path)

    def test_nan_cell_rejected(self, tmp_path):
        # the rule of every table of the tree: a NaN read back is not a number
        path = tmp_path / "d.csv"
        path.write_text("id,target,f01\np0,1.0,nan\n")
        with pytest.raises(DataError, match=r"row 1, column 'f01': non-numeric value 'nan'"):
            load_dataset(path)

    def test_infinite_cell_reads_as_non_finite(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,target,f01\np0,1.0,2.0\np1,-inf,3.0\n")
        with pytest.raises(DataError, match=r"row 2, column 'target': non-finite value '-inf'"):
            load_dataset(path)

    def test_id_errors_come_before_cell_errors(self, tmp_path):
        path = tmp_path / "d.csv"
        rows = ["p0,1,1", "p1,oops,1", "p2,1,1", "p3,1,1", "p1,1,1"]
        path.write_text("id,target,f01\n" + "\n".join(rows) + "\n")
        with pytest.raises(DataError, match=r"duplicate id 'p1' on rows 2 and 5"):
            load_dataset(path)

    def test_bad_cells_found_column_by_column(self, tmp_path):
        path = tmp_path / "d.csv"
        rows = [[f"p{r}", "1", "1", "1", "1", "1", "1"] for r in range(3)]
        rows[2][3] = "bad"  # row 3, f02
        rows[1][6] = "worse"  # row 2, f05
        path.write_text("id,target,f01,f02,f03,f04,f05\n"
                        + "".join(",".join(row) + "\n" for row in rows))
        with pytest.raises(DataError, match=r"row 3, column 'f02': non-numeric value 'bad'"):
            load_dataset(path)

    def test_duplicate_id_names_both_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,target,f01\np0,1.0,2.0\np0,1.5,2.5\n")
        with pytest.raises(DataError, match="p0"):
            load_dataset(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,target,f01\np0,1.0\n")
        with pytest.raises(DataError):
            load_dataset(path)


class TestCorrelationFilter:
    def test_known_correlations(self):
        rng = np.random.default_rng(3)
        n = 400
        f1 = rng.normal(size=n)
        f2 = rng.normal(size=n)
        target = 3.0 * f1 + 0.1 * rng.normal(size=n)
        data = Dataset(
            ids=tuple(f"p{i}" for i in range(n)),
            features=np.column_stack([f1, f2]),
            feature_names=("f01", "f02"),
            target=target,
        )
        [(name, r)] = rank_correlated_features(data, threshold=0.5)
        assert name == "f01"
        expected = np.corrcoef(f1, target)[0, 1]
        assert r == pytest.approx(expected, abs=1e-12)

    def test_sorted_by_abs_correlation(self):
        rng = np.random.default_rng(4)
        n = 500
        f1 = rng.normal(size=n)
        f2 = rng.normal(size=n)
        target = 1.0 * f1 - 2.0 * f2 + 0.01 * rng.normal(size=n)
        data = Dataset(
            ids=tuple(f"p{i}" for i in range(n)),
            features=np.column_stack([f1, f2]),
            feature_names=("f01", "f02"),
            target=target,
        )
        ranking = rank_correlated_features(data, threshold=0.1)
        rs = [abs(r) for _, r in ranking]
        assert rs == sorted(rs, reverse=True)

    def test_constant_feature_warns_and_skips(self):
        data = Dataset(
            ids=("a", "b", "c"),
            features=np.array([[1.0, 0.5], [1.0, 1.5], [1.0, 2.5]]),
            feature_names=("f01", "f02"),
            target=np.array([0.5, 1.5, 2.5]),
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ranking = rank_correlated_features(data, threshold=0.5)
        assert any("f01" in str(w.message) for w in caught)
        assert [name for name, _ in ranking] == ["f02"]

    def test_constant_target_rejected(self):
        data = Dataset(
            ids=("a", "b"),
            features=np.array([[1.0], [2.0]]),
            feature_names=("f01",),
            target=np.array([3.0, 3.0]),
        )
        with pytest.raises(DataError):
            rank_correlated_features(data, threshold=0.5)

    def test_threshold_domain(self):
        data = _tiny()
        with pytest.raises(Exception):
            rank_correlated_features(data, threshold=1.0)


def _synthetic(**keys):
    """generate_synthetic on the [synth] defaults, overridden by keys."""
    return generate_synthetic(**{**default_config()["synth"], **keys})


class TestSynthetic:
    def test_shapes_and_ids(self):
        data, labels = _synthetic(clusters=3, points_per_cluster=10, dim=4, seed=0)
        assert data.n == 30 and data.dim == 4
        assert data.ids[0] == "p0000" and data.ids[-1] == "p0029"
        assert data.feature_names == ("f01", "f02", "f03", "f04")
        np.testing.assert_array_equal(np.bincount(labels), [10, 10, 10])

    def test_center_separation(self):
        # closest pair of cluster centers sits `separation` apart in
        # units of the within-cluster spread (1.0)
        data, labels = _synthetic(clusters=5, points_per_cluster=200, dim=3,
                                  separation=6.0, noise=0.0, seed=1)
        centers = np.array([
            data.features[labels == c].mean(axis=0) for c in range(5)
        ])
        dists = [
            np.linalg.norm(centers[i] - centers[j])
            for i in range(5) for j in range(i + 1, 5)
        ]
        assert min(dists) == pytest.approx(6.0, rel=0.15)

    def test_noise_free_targets_are_affine(self):
        data, labels = _synthetic(clusters=2, points_per_cluster=50, dim=3, noise=0.0, seed=2)
        for c in range(2):
            rows = labels == c
            X = np.column_stack([data.features[rows], np.ones(rows.sum())])
            coef, residuals, *_ = np.linalg.lstsq(X, data.target[rows], rcond=None)
            fitted = X @ coef
            np.testing.assert_allclose(fitted, data.target[rows], atol=1e-8)

    def test_deterministic(self):
        a, la = _synthetic(clusters=2, points_per_cluster=5, dim=2, seed=9)
        b, lb = _synthetic(clusters=2, points_per_cluster=5, dim=2, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.target, b.target)
        np.testing.assert_array_equal(la, lb)

    def test_seed_changes_data(self):
        a, _ = _synthetic(clusters=2, points_per_cluster=5, dim=2, seed=1)
        b, _ = _synthetic(clusters=2, points_per_cluster=5, dim=2, seed=2)
        assert not np.array_equal(a.features, b.features)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            _synthetic(clusters=0, points_per_cluster=5, dim=2, seed=0)
        with pytest.raises(ConfigError):
            _synthetic(clusters=2, points_per_cluster=5, dim=1, seed=0)
        with pytest.raises(ConfigError):
            _synthetic(clusters=2, points_per_cluster=5, dim=2, noise=-0.1, seed=0)
