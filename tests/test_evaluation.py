import numpy as np
import pytest

from uqshift.clustering import ClusterLabels, SplitSpec
from uqshift.dataset import Dataset
from uqshift.errors import DataError
from uqshift.evaluation import (
    boxplot_stats,
    cross_cluster_table,
    novelty_separation,
    r_squared,
    removal_curve,
    uq_summary_stats,
)
from uqshift.rng import keyed_rng
from uqshift.uq_ad import ad_dd_scores, fit_ad, standard_normal_quantile


class TestRSquared:
    def test_perfect_prediction_is_exactly_one(self):
        y = np.array([1.0, -2.0, 0.5, 7.25])
        assert r_squared(y, y.copy()) == 1.0

    def test_mean_predictor_is_exactly_zero(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        pred = np.full(4, y.mean())
        assert r_squared(y, pred) == 0.0

    def test_hand_fixture(self):
        # SSE = 1, SST = 2
        assert r_squared(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 2.0])) == 0.5

    def test_negative_for_bad_predictions(self):
        y = np.array([1.0, 2.0, 3.0])
        pred = np.array([10.0, -10.0, 10.0])
        assert r_squared(y, pred) < 0

    def test_constant_actual_rejected(self):
        with pytest.raises(DataError):
            r_squared(np.array([2.0, 2.0, 2.0]), np.array([1.0, 2.0, 3.0]))

    def test_needs_two_points(self):
        with pytest.raises(DataError):
            r_squared(np.array([1.0]), np.array([1.0]))

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            r_squared(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))


class TestRemovalCurve:
    def test_four_point_fixture(self):
        # uncertainties [4,3,2,1]: rows leave in index order 0,1,2;
        # with step 0.25 each step drops ceil(0.25*4)=1 row and the
        # floor of max(min_remaining=2, 2) stops the loop after two
        # removals
        actual = np.array([1.0, 2.0, 3.0, 4.0])
        predicted = np.array([1.1, 1.8, 3.2, 3.9])
        unc = np.array([4.0, 3.0, 2.0, 1.0])
        curve = removal_curve(unc, actual, predicted, step_fraction=0.25, min_remaining=2)
        fractions = [p.fraction_removed for p in curve.points]
        assert fractions == [0.0, 0.25, 0.5]
        assert [p.n_remaining for p in curve.points] == [4, 3, 2]
        np.testing.assert_array_equal(curve.removal_order[:3], [0, 1, 2])
        # r2 values recompute from the surviving suffixes
        assert curve.points[0].r2 == r_squared(actual, predicted)
        assert curve.points[1].r2 == r_squared(actual[1:], predicted[1:])
        assert curve.points[2].r2 == r_squared(actual[2:], predicted[2:])

    def test_ties_break_by_row_index(self):
        actual = np.array([1.0, 2.0, 3.0, 4.0])
        predicted = np.array([1.1, 2.1, 3.1, 4.1])
        unc = np.array([2.0, 2.0, 1.0, 1.0])
        curve = removal_curve(unc, actual, predicted, step_fraction=0.25, min_remaining=2)
        np.testing.assert_array_equal(curve.removal_order, [0, 1, 2, 3])

    def test_drop_count_fixed_from_initial_size(self):
        # 10 points, step 0.3 -> ceil(3.0) = 3 per step regardless of
        # how many remain
        rng = keyed_rng(60)
        actual = rng.normal(size=10)
        predicted = actual + 0.1 * rng.normal(size=10)
        unc = rng.random(10)
        curve = removal_curve(unc, actual, predicted, step_fraction=0.3, min_remaining=2)
        assert [p.n_remaining for p in curve.points] == [10, 7, 4]

    def test_most_uncertain_leaves_first(self):
        rng = keyed_rng(61)
        actual = rng.normal(size=20)
        predicted = actual + rng.normal(size=20)
        unc = rng.random(20)
        curve = removal_curve(unc, actual, predicted, step_fraction=0.1, min_remaining=5)
        sorted_unc = unc[curve.removal_order]
        assert np.all(np.diff(sorted_unc) <= 0)

    def test_oracle_ranking_improves_r2(self):
        # removing by true |error| can only help the metric on this
        # fixture built with one gross outlier
        actual = np.concatenate([np.arange(20.0), [0.0]])
        predicted = np.concatenate([np.arange(20.0) + 0.01, [50.0]])
        unc = np.abs(actual - predicted)
        curve = removal_curve(unc, actual, predicted, step_fraction=0.05, min_remaining=5)
        assert curve.points[1].r2 > curve.points[0].r2

    def test_step_fraction_domain(self):
        actual = np.array([1.0, 2.0, 3.0])
        with pytest.raises(Exception):
            removal_curve(np.ones(3), actual, actual, step_fraction=0.0, min_remaining=2)


class TestBoxplotStats:
    def test_quartiles_of_1_to_100(self):
        values = np.arange(1.0, 101.0)
        stats = boxplot_stats(values)
        assert stats.median == pytest.approx(50.5)
        assert stats.q1 == pytest.approx(25.75)
        assert stats.q3 == pytest.approx(75.25)

    def test_whiskers_are_extreme_inliers(self):
        values = np.arange(1.0, 101.0)
        stats = boxplot_stats(values)
        # fences at q1 - 1.5 IQR and q3 + 1.5 IQR cover everything here
        assert stats.whisker_low == 1.0
        assert stats.whisker_high == 100.0
        assert stats.n_outliers == 0

    def test_outlier_detected(self):
        values = np.concatenate([np.arange(1.0, 101.0), [1000.0]])
        stats = boxplot_stats(values)
        assert stats.n_outliers == 1
        assert stats.whisker_high == 100.0

    def test_non_finite_counts_as_outlier(self):
        values = np.concatenate([np.arange(1.0, 101.0), [np.inf]])
        stats = boxplot_stats(values)
        assert stats.n_outliers == 1
        assert np.isfinite(stats.whisker_high)

    def test_summary_includes_actual_error_row(self):
        rng = keyed_rng(62)
        actual = rng.normal(size=50)
        predicted = actual + 0.2 * rng.normal(size=50)
        stats, _ = uq_summary_stats(
            {"dropout": rng.random(50)}, actual, predicted
        )
        assert set(stats) == {"dropout", "actual_error"}


class TestCrossClusterTable:
    def _fixture(self):
        rng = keyed_rng(63)
        n = 90
        features = rng.normal(size=(n, 2))
        target = features @ np.array([1.0, -1.0])
        labels = np.repeat([0, 1, 2], 30)
        data = Dataset(
            ids=tuple(f"p{i:03d}" for i in range(n)),
            features=features,
            feature_names=("f01", "f02"),
            target=target,
        )
        cl = ClusterLabels(labels=labels, k=3, source="external")
        splits = []
        for c in range(3):
            members = np.flatnonzero(labels == c)
            splits.append(SplitSpec(
                train_idx=members[:20],
                valid_idx=members[20:25],
                test_idx=np.flatnonzero(labels != c),
                train_cluster=c,
            ))
        return data, cl, splits

    def test_perfect_model_scores_one_everywhere(self):
        data, cl, splits = self._fixture()
        oracle = {c: data.target.copy() for c in range(3)}
        table, clusters = cross_cluster_table(oracle, data.target, cl, splits)
        assert clusters == [0, 1, 2]
        np.testing.assert_allclose(table, np.ones((3, 3)), atol=1e-12)

    def test_bad_model_goes_negative_off_diagonal(self):
        data, cl, splits = self._fixture()
        preds = {c: np.full(data.n, 100.0) for c in range(3)}
        table, _ = cross_cluster_table(preds, data.target, cl, splits)
        assert np.all(table < 0)

    def test_diagonal_excludes_train_and_valid_rows(self):
        data, cl, splits = self._fixture()
        preds = {}
        for split in splits:
            # exact on the 30 - 20 - 5 = 5 held-out rows, garbage on
            # train and valid: only the held-out rows may reach the diagonal
            p = data.target.copy()
            p[split.train_idx] = 1e6
            p[split.valid_idx] = -1e6
            preds[split.train_cluster] = p
        table, _ = cross_cluster_table(preds, data.target, cl, splits)
        np.testing.assert_array_equal(table, np.ones((3, 3)))

    def test_model_key_mismatch_rejected(self):
        data, cl, splits = self._fixture()
        preds = {0: data.target, 1: data.target}
        with pytest.raises(DataError):
            cross_cluster_table(preds, data.target, cl, splits)


class TestNoveltySeparation:
    def test_rates(self):
        scores = np.array([0.5, 0.2, 3.0, 2.5, 0.1, 4.0])
        in_cluster = np.array([True, True, False, False, True, False])
        in_rate, out_rate = novelty_separation(scores, in_cluster, alpha=0.05)
        assert in_rate == 0.0
        assert out_rate == 1.0

    def test_flags_dd_scores_strictly_above_threshold(self):
        model = fit_ad(np.array([[0.0], [1.0], [2.0], [3.0], [4.0]]), k=2)
        scores = ad_dd_scores(model, np.array([[10.0], [2.0]]))
        threshold = standard_normal_quantile(0.95)
        assert scores[0] > threshold and scores[1] < threshold
        in_rate, out_rate = novelty_separation(scores, np.array([False, True]), alpha=0.05)
        assert (in_rate, out_rate) == (0.0, 1.0)
        at_threshold = np.array([threshold, threshold])
        assert novelty_separation(at_threshold, np.array([True, False]), 0.05) == (0.0, 0.0)

    def test_empty_group_is_none(self):
        scores = np.array([0.5, 0.2])
        in_cluster = np.array([True, True])
        in_rate, out_rate = novelty_separation(scores, in_cluster, alpha=0.05)
        assert in_rate == 0.0
        assert out_rate is None
