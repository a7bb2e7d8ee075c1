import math

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from uqshift.errors import ConfigError, NumericalError
from uqshift.rng import keyed_rng
from uqshift.uq_rio import (
    KernelConfig,
    composite_kernel,
    fit_rio,
    log_marginal_likelihood,
    rio_predict,
)


def _problem(seed, n=25, d=3, noise=0.05):
    rng = keyed_rng(seed)
    X = rng.normal(size=(n, d))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] + noise * rng.normal(size=n)
    yhat = y + 0.3 * rng.normal(size=n)  # deliberately imperfect predictions
    return X, y, yhat


def _kernel_matrix(X, yhat, config):
    n = X.shape[0]
    K = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            K[i, j] = composite_kernel(X[i], yhat[i], X[j], yhat[j], config)
    return K


class TestKernel:
    def test_pair_fixture(self):
        # |dx| = 1 and |dyhat| = 2 with unit parameters
        val = composite_kernel(np.array([0.0]), 0.0, np.array([1.0]), 2.0, KernelConfig())
        assert val == pytest.approx(math.exp(-0.5) + math.exp(-2.0), abs=1e-15)

    def test_diagonal_is_signal_sum(self):
        config = KernelConfig(signal_variance_in=2.0, signal_variance_out=3.0)
        val = composite_kernel(np.array([1.0, 2.0]), 4.0, np.array([1.0, 2.0]), 4.0, config)
        assert val == pytest.approx(5.0)

    def test_length_scales_separate(self):
        config = KernelConfig(length_scale_in=10.0, length_scale_out=0.1)
        near_in = composite_kernel(np.array([0.0]), 0.0, np.array([1.0]), 0.0, config)
        assert near_in == pytest.approx(math.exp(-0.005) + 1.0, abs=1e-12)

    def test_positive_parameters_required(self):
        with pytest.raises(ConfigError):
            KernelConfig(length_scale_in=0.0)
        with pytest.raises(ConfigError):
            KernelConfig(noise_variance=-1.0)


class TestLogMarginalLikelihood:
    def test_one_point_closed_form(self):
        # K is the 1x1 matrix [sv_in + sv_out + noise + jitter]
        config = KernelConfig(jitter=1e-12)
        r = np.array([2.0])
        kval = 1.0 + 1.0 + 1.0 + 1e-12
        want = -0.5 * (4.0 / kval) - 0.5 * math.log(kval) - 0.5 * math.log(2 * math.pi)
        got, _ = log_marginal_likelihood(
            np.array([[0.0]]), np.array([0.0]), r, config
        )
        assert got == pytest.approx(want, abs=1e-12)

    def test_matches_multivariate_normal_oracle(self):
        X, y, yhat = _problem(31, n=15)
        r = y - yhat
        config = KernelConfig(signal_variance_in=1.5, length_scale_in=0.8,
                              signal_variance_out=0.7, length_scale_out=2.0,
                              noise_variance=0.3, jitter=1e-10)
        got, _ = log_marginal_likelihood(X, yhat, r, config)
        K = _kernel_matrix(X, yhat, config) + (0.3 + 1e-10) * np.eye(15)
        want = scipy.stats.multivariate_normal(mean=np.zeros(15), cov=K).logpdf(r)
        assert got == pytest.approx(want, abs=1e-8)

    def test_gradient_matches_finite_differences(self):
        X, y, yhat = _problem(32, n=12)
        r = y - yhat
        rng = keyed_rng(33)
        for _ in range(6):
            log_params = rng.uniform(-1.0, 1.0, size=5)
            config = KernelConfig.from_log_vector(log_params, jitter=1e-10)
            _, grad = log_marginal_likelihood(X, yhat, r, config)
            step = 1e-5
            for j in range(5):
                up = log_params.copy()
                dn = log_params.copy()
                up[j] += step
                dn[j] -= step
                f_up, _ = log_marginal_likelihood(
                    X, yhat, r, KernelConfig.from_log_vector(up, jitter=1e-10))
                f_dn, _ = log_marginal_likelihood(
                    X, yhat, r, KernelConfig.from_log_vector(dn, jitter=1e-10))
                fd = (f_up - f_dn) / (2 * step)
                denom = max(abs(fd), abs(grad[j]), 1e-8)
                assert abs(grad[j] - fd) / denom < 1e-4


class TestFit:
    def test_returns_improved_likelihood(self):
        X, y, yhat = _problem(34, n=30)
        init = KernelConfig()
        lml_init, _ = log_marginal_likelihood(X, yhat, y - yhat, init)
        model = fit_rio(X, yhat, y, init=init, n_starts=3, max_iter=80, seed=0)
        lml_fit, _ = log_marginal_likelihood(X, yhat, y - yhat, model.kernel)
        assert lml_fit >= lml_init - 1e-9

    def test_deterministic(self):
        X, y, yhat = _problem(35, n=20)
        a = fit_rio(X, yhat, y, n_starts=3, max_iter=50, seed=4)
        b = fit_rio(X, yhat, y, n_starts=3, max_iter=50, seed=4)
        assert a.kernel.to_log_vector().tolist() == b.kernel.to_log_vector().tolist()

    def test_residuals_stored(self):
        X, y, yhat = _problem(36, n=18)
        model = fit_rio(X, yhat, y, n_starts=2, max_iter=40, seed=0)
        np.testing.assert_allclose(model.residuals, y - yhat)


class TestPredict:
    def test_matches_naive_gp_oracle(self):
        # direct inverse-based GP regression on the same kernel
        X, y, yhat = _problem(37, n=10)
        r = y - yhat
        config = KernelConfig(signal_variance_in=1.2, length_scale_in=1.1,
                              signal_variance_out=0.8, length_scale_out=1.4,
                              noise_variance=0.2, jitter=1e-10)
        model = fit_rio(X, yhat, y, init=config, n_starts=1, max_iter=0, seed=0)
        Xt, yt, yhat_t = _problem(38, n=6)
        mean, std = rio_predict(model, Xt, yhat_t, include_noise=True)

        jitter = model.jitter_used
        K = _kernel_matrix(X, yhat, model.kernel) + (model.kernel.noise_variance + jitter) * np.eye(10)
        Ks = np.empty((10, 6))
        for i in range(10):
            for j in range(6):
                Ks[i, j] = composite_kernel(X[i], yhat[i], Xt[j], yhat_t[j], model.kernel)
        K_inv = np.linalg.inv(K)
        mean_want = Ks.T @ K_inv @ r
        prior = model.kernel.signal_variance_in + model.kernel.signal_variance_out
        var_want = prior + model.kernel.noise_variance - np.einsum("ij,ik,kj->j", Ks, K_inv, Ks)
        for j in range(6):
            assert mean[j] == pytest.approx(mean_want[j], abs=1e-8)
            assert std[j] == pytest.approx(math.sqrt(var_want[j]), abs=1e-8)

    def test_include_noise_adds_noise_variance(self):
        X, y, yhat = _problem(39, n=15)
        model = fit_rio(X, yhat, y, n_starts=2, max_iter=40, seed=1)
        Xt, _, yhat_t = _problem(40, n=4)
        _, with_noise = rio_predict(model, Xt, yhat_t, include_noise=True)
        _, without = rio_predict(model, Xt, yhat_t, include_noise=False)
        for a, b in zip(with_noise, without):
            diff = a**2 - b**2
            assert diff == pytest.approx(model.kernel.noise_variance, abs=1e-9)

    def test_train_point_interpolates_with_small_noise(self):
        X, y, yhat = _problem(41, n=20, noise=0.0)
        config = KernelConfig(noise_variance=1e-6, jitter=1e-10)
        model = fit_rio(X, yhat, y, init=config, n_starts=1, max_iter=0, seed=0)
        mean, _ = rio_predict(model, X[:3], yhat[:3], include_noise=False)
        for j in range(3):
            assert yhat[j] + mean[j] == pytest.approx(y[j], abs=1e-3)

    def test_returns_mean_and_std_per_row(self):
        X, y, yhat = _problem(42, n=12)
        model = fit_rio(X, yhat, y, n_starts=2, max_iter=30, seed=0)
        mean, std = rio_predict(model, X[:4], yhat[:4])
        assert mean.shape == std.shape == (4,)
        assert np.all(np.isfinite(mean)) and np.all(std >= 0.0)


class TestCholeskyEscalation:
    def test_near_singular_matrix_still_fits(self):
        # duplicated rows make the kernel matrix rank-deficient at tiny
        # noise; jitter escalation has to rescue the factorization
        rng = keyed_rng(43)
        base = rng.normal(size=(10, 2))
        X = np.vstack([base, base])
        yhat = np.concatenate([base[:, 0], base[:, 0]])
        y = yhat + 0.01 * rng.normal(size=20)
        config = KernelConfig(noise_variance=1e-12, jitter=1e-12)
        model = fit_rio(X, yhat, y, init=config, n_starts=1, max_iter=5, seed=0)
        assert np.all(np.isfinite(model.alpha))
