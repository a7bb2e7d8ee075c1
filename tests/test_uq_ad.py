import math

import numpy as np
import pytest
import scipy.special

from uqshift.errors import ConfigError, DataError, NumericalError
from uqshift.rng import keyed_rng
from uqshift.uq_ad import (
    ad_dd_scores,
    ad_ld_scores,
    fit_ad,
    standard_normal_quantile,
)

LINE = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])


class TestQuantile:
    def test_against_scipy_grid(self):
        ps = np.concatenate([
            np.array([1e-12, 1e-9, 1e-6, 0.02424, 0.02426]),
            np.linspace(0.001, 0.999, 199),
            np.array([1 - 1e-6, 1 - 1e-9]),
        ])
        for p in ps:
            want = scipy.special.ndtri(p)
            got = standard_normal_quantile(float(p))
            assert got == pytest.approx(want, abs=1e-12, rel=1e-12)

    def test_median_is_zero(self):
        assert abs(standard_normal_quantile(0.5)) < 1e-15

    def test_known_alpha(self):
        assert standard_normal_quantile(0.95) == pytest.approx(1.6448536269514722, abs=1e-12)

    def test_symmetry(self):
        for p in (0.01, 0.2, 0.4):
            a = standard_normal_quantile(p)
            b = standard_normal_quantile(1 - p)
            assert a == pytest.approx(-b, abs=1e-12)

    def test_domain(self):
        for p in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ConfigError):
                standard_normal_quantile(p)


class TestFit:
    def test_line_fixture_statistics(self):
        model = fit_ad(LINE, k=2)
        np.testing.assert_allclose(model.train_mean_knn_dists, [1.5, 1.0, 1.0, 1.0, 1.5])
        assert model.mu_knn == pytest.approx(1.2)
        assert model.sigma_knn == pytest.approx(math.sqrt(0.06))

    def test_self_distance_excluded(self):
        # with a duplicated pair the nearest OTHER point is the twin
        X = np.array([[0.0], [0.0], [5.0]])
        model = fit_ad(X, k=1)
        np.testing.assert_allclose(model.train_mean_knn_dists, [0.0, 0.0, 5.0])

    def test_k_too_large(self):
        with pytest.raises((ConfigError, DataError)):
            fit_ad(LINE, k=5)

    def test_degenerate_spread_raises(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])  # all mean 1-NN dists equal 1
        with pytest.raises(NumericalError):
            fit_ad(X, k=1)


class TestQueryShape:
    @pytest.mark.parametrize("score", [ad_dd_scores, ad_ld_scores])
    @pytest.mark.parametrize("query", [np.array(2.0), np.array([2.0]), np.ones((3, 2)),
                                       np.ones((1, 1, 1))])
    def test_anything_but_a_matrix_of_the_training_width_is_refused(self, score, query):
        with pytest.raises(DataError, match=r"must be 2-D with 1 columns, got \("):
            score(fit_ad(LINE, k=2), query)


class TestDistanceDistribution:
    def test_far_query_z_score(self):
        model = fit_ad(LINE, k=2)
        # query 10: nearest two are 4 and 3, mean 6.5
        want = (6.5 - 1.2) / math.sqrt(0.06)
        assert ad_dd_scores(model, np.array([[10.0]]))[0] == pytest.approx(want)

    def test_interior_query_clamped_to_zero(self):
        model = fit_ad(LINE, k=2)
        # query 2.0 sits on a training point; mean of dists (0 and 1) is
        # 0.5, below the training mean, so the score clamps
        assert ad_dd_scores(model, np.array([[2.0]]))[0] == 0.0

    def test_batch_matches_single(self):
        model = fit_ad(LINE, k=2)
        queries = np.array([[10.0], [2.0], [-3.0]])
        batch = ad_dd_scores(model, queries)
        singles = [ad_dd_scores(model, q[None, :])[0] for q in queries]
        np.testing.assert_allclose(batch, singles)

    def test_brute_force_oracle_random(self):
        rng = keyed_rng(200)
        train = rng.normal(size=(60, 5))
        model = fit_ad(train, k=4)
        # independent recomputation
        d = np.sqrt(((train[:, None, :] - train[None, :, :]) ** 2).sum(-1))
        np.fill_diagonal(d, np.inf)
        mean_knn = np.sort(d, axis=1)[:, :4].mean(axis=1)
        mu, sigma = mean_knn.mean(), mean_knn.std()
        queries = rng.normal(size=(20, 5)) * 2
        for q in queries:
            dq = np.sqrt(((train - q) ** 2).sum(-1))
            mean_q = np.sort(dq)[:4].mean()
            want = max(0.0, (mean_q - mu) / sigma)
            assert ad_dd_scores(model, q[None, :])[0] == pytest.approx(want, abs=1e-10)


class TestLocalDensity:
    def test_fixture_between_points(self):
        model = fit_ad(LINE, k=2)
        # query 2.5: dists to 2 and 3 are both 0.5 -> numerator 0.5;
        # those neighbors' own mean 2-NN distances are 1.0 and 1.0
        assert ad_ld_scores(model, np.array([[2.5]]))[0] == pytest.approx(0.5)

    def test_fixture_at_edge(self):
        model = fit_ad(LINE, k=2)
        # query 5: nearest 4 (d=1) and 3 (d=2) -> 1.5; their means are
        # 1.5 and 1.0 -> 1.25
        assert ad_ld_scores(model, np.array([[5.0]]))[0] == pytest.approx(1.2)

    def test_coincident_query_is_zero(self):
        X = np.array([[0.0], [0.0], [1.0], [3.0]])
        model = fit_ad(X, k=2)
        assert ad_ld_scores(model, np.array([[0.0]]))[0] == 0.0

    def test_zero_denominator_gives_inf(self):
        # training pair of coincident points: their own mean 1-NN
        # distances are 0, so a query whose neighbors they are divides
        # by zero
        X = np.array([[0.0], [0.0], [10.0], [11.0]])
        model = fit_ad(X, k=1)
        assert ad_ld_scores(model, np.array([[0.5]]))[0] == math.inf

    def test_batch_matches_single(self):
        model = fit_ad(LINE, k=2)
        queries = np.array([[2.5], [5.0], [0.0]])
        batch = ad_ld_scores(model, queries)
        singles = [ad_ld_scores(model, q[None, :])[0] for q in queries]
        np.testing.assert_allclose(batch, singles)

    def test_brute_force_oracle_random(self):
        rng = keyed_rng(201)
        train = rng.normal(size=(50, 4))
        k = 5
        model = fit_ad(train, k=k)
        d = np.sqrt(((train[:, None, :] - train[None, :, :]) ** 2).sum(-1))
        np.fill_diagonal(d, np.inf)
        order = np.argsort(d, axis=1, kind="stable")
        mean_knn = np.take_along_axis(d, order[:, :k], axis=1).mean(axis=1)
        for q in rng.normal(size=(15, 4)):
            dq = np.sqrt(((train - q) ** 2).sum(-1))
            idx = np.argsort(dq, kind="stable")[:k]
            want = dq[idx].mean() / mean_knn[idx].mean()
            assert ad_ld_scores(model, q[None, :])[0] == pytest.approx(want, abs=1e-10)


class TestTies:
    def test_neighbor_ties_break_by_row_order(self):
        # four training points all at distance 1 from the query; k=2
        # must pick rows 0 and 1
        train = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                          [5.0, 5.0], [6.0, 6.0]])
        model = fit_ad(train, k=2)
        q = np.array([0.0, 0.0])
        # whichever two neighbors are chosen the distance is 1, so dd is
        # well-defined; ld depends on WHICH neighbors, and rows 0/1 are
        # the stable choice
        d = np.sqrt(((train[:, None, :] - train[None, :, :]) ** 2).sum(-1))
        np.fill_diagonal(d, np.inf)
        mean_knn = np.sort(d, axis=1)[:, :2].mean(axis=1)
        want = 1.0 / mean_knn[[0, 1]].mean()
        assert ad_ld_scores(model, q[None, :])[0] == pytest.approx(want, abs=1e-12)


class TestJaccard:
    def test_hand_distance(self):
        # [1,1,0] vs [1,0,1]: intersection 1, union 3 -> distance 2/3
        train = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
        model = fit_ad(train, k=1, metric="jaccard")
        q = np.array([1.0, 1.0, 0.0])
        dq_expected = 0.0  # identical to row 0
        assert ad_ld_scores(model, q[None, :])[0] == dq_expected

    def test_all_zeros_pair_distance_zero(self):
        train = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        model = fit_ad(train, k=1, metric="jaccard")
        np.testing.assert_allclose(model.train_mean_knn_dists[:2], [0.0, 0.0])

    def test_non_binary_rejected(self):
        train = np.array([[0.5, 1.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DataError):
            fit_ad(train, k=1, metric="jaccard")

    def test_unknown_metric(self):
        with pytest.raises(ConfigError):
            fit_ad(LINE, k=1, metric="cosine")



def _loop_distances(train, x, metric):
    """Distances from one query to every training row, as computed per query."""
    if metric == "euclidean":
        diff = train - x
        return np.sqrt(np.sum(diff * diff, axis=1))
    inter = np.sum(np.logical_and(train == 1.0, x == 1.0), axis=1).astype(float)
    union = np.sum(np.logical_or(train == 1.0, x == 1.0), axis=1).astype(float)
    out = np.ones(train.shape[0])
    nz = union > 0
    out[nz] = 1.0 - inter[nz] / union[nz]
    out[~nz] = 0.0
    return out


def _loop_scores(train, queries, k, metric):
    """fit_ad's statistics and both scores from one neighbour search per row."""
    means = np.empty(train.shape[0])
    for i in range(train.shape[0]):
        d = _loop_distances(train, train[i], metric)
        d[i] = np.inf
        means[i] = d[np.argsort(d, kind="stable")[:k]].mean()
    mu, sigma = float(means.mean()), float(means.std())
    dd, ld = np.empty(len(queries)), np.empty(len(queries))
    for i, q in enumerate(queries):
        d = _loop_distances(train, q, metric)
        idx = np.argsort(d, kind="stable")[:k]
        numerator = d[idx].mean()
        dd[i] = max(0.0, (numerator - mu) / sigma)
        denominator = means[idx].mean()
        if numerator == 0.0:
            ld[i] = 0.0
        else:
            ld[i] = math.inf if denominator == 0.0 else numerator / denominator
    return means, mu, sigma, dd, ld


class TestBlockedSearchBitIdentity:
    """The row-blocked neighbour search gives the per-query loop's bits."""

    @pytest.mark.parametrize("metric", ["euclidean", "jaccard"])
    @pytest.mark.parametrize("k", [5, 9])
    def test_matches_per_query_loop(self, metric, k):
        rng = keyed_rng(202, k)
        if metric == "euclidean":
            train = np.round(rng.normal(size=(140, 6)), 1)  # rounded: tied distances
            queries = np.round(rng.normal(size=(170, 6)) * 1.5, 1)
            queries[150:] = train[0] + 0.05  # every neighbour is a zero-spread twin
        else:
            train = (rng.random((140, 20)) < 0.3).astype(float)
            train[130:] = 0.0  # all-zero rows: distance 0 to each other
            queries = (rng.random((170, 20)) < 0.3).astype(float)
            queries[150:160] = train[0]
            queries[150:160, np.flatnonzero(train[0] == 0.0)[0]] = 1.0  # near the twins
            queries[160:] = 0.0
        train[100:112] = train[0]  # k + 1 or more duplicates: zero mean distances
        queries[:20] = train[80:100]  # queries on training rows
        queries[20:24] = train[0]
        model = fit_ad(train, k=k, metric=metric)
        means, mu, sigma, dd, ld = _loop_scores(train, queries, k, metric)
        assert np.array_equal(model.train_mean_knn_dists, means)
        assert (model.mu_knn, model.sigma_knn) == (mu, sigma)
        got_dd, got_ld = ad_dd_scores(model, queries), ad_ld_scores(model, queries)
        assert np.array_equal(got_dd, dd)
        assert np.array_equal(got_ld, ld)
        # the fixture reaches each branch of the density ratio
        assert np.any(ld == 0.0) and np.any(ld == math.inf) and np.any(dd == 0.0)
        assert np.any(np.isfinite(ld) & (ld > 0.0)) and np.any(dd > 0.0)
