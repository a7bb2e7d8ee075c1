import math

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from uqshift.embedding import sq_distances
from uqshift.errors import ConfigError, NumericalError
from uqshift.rng import keyed_rng
from uqshift.uq_rio import (
    KernelConfig,
    _lml_and_grad,
    _Workspace,
    fit_rio,
    log_marginal_likelihood,
    rio_predict,
)

from oracles import composite_kernel


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


def _factor(D2x, D2y, theta, jitter):
    """Kernel terms and the Cholesky factor, with fresh n x n temporaries."""
    sv_in, ls_in, sv_out, ls_out, noise = np.exp(theta)
    K_in = sv_in * np.exp(-D2x / (2.0 * ls_in * ls_in))
    K_out = sv_out * np.exp(-D2y / (2.0 * ls_out * ls_out))
    n = D2x.shape[0]
    A = K_in + K_out + noise * np.eye(n)
    jitter = jitter if jitter is not None else 1e-8 * (sv_in + sv_out)
    for _ in range(4):
        try:
            L = scipy.linalg.cholesky(A + jitter * np.eye(n), lower=True)
            break
        except scipy.linalg.LinAlgError:
            jitter *= 10.0
    else:
        raise NumericalError("factorization failed")
    return K_in, K_out, L, jitter


def _value(L, r):
    alpha = scipy.linalg.cho_solve((L, True), r)
    n = r.shape[0]
    value = (
        -0.5 * float(r @ alpha)
        - float(np.sum(np.log(np.diag(L))))
        - 0.5 * n * math.log(2.0 * math.pi)
    )
    return value, alpha


def _allocating_lml_and_grad(D2x, D2y, r, theta, jitter):
    """The likelihood with fresh n x n temporaries for every evaluation:
    A^-1 from potri on the factor, and per kernel term one product
    M * K giving both of its gradient entries.  Returns the jitter used
    too."""
    _, ls_in, _, ls_out, noise = np.exp(theta)
    K_in, K_out, L, jitter = _factor(D2x, D2y, theta, jitter)
    value, alpha = _value(L, r)
    L_inv, info = scipy.linalg.lapack.dpotri(L, lower=1)
    assert info == 0
    A_inv = np.tril(L_inv) + np.tril(L_inv, -1).T
    M = np.ascontiguousarray(np.outer(alpha, alpha) - A_inv)
    grad = []
    for K, D2, ls in ((K_in, D2x, ls_in), (K_out, D2y, ls_out)):
        P = M * K
        grad += [0.5 * float(np.sum(P)), 0.5 * float(np.vdot(P, D2)) / (ls * ls)]
    grad.append(0.5 * noise * float(np.trace(M)))
    return value, np.array(grad), jitter


def _solved_lml_and_grad(D2x, D2y, r, theta, jitter):
    """The same likelihood by the textbook route: A^-1 from 2n triangular
    solves against the identity, and each gradient entry as
    1/2 sum(M * dA/dtheta_j)."""
    _, ls_in, _, ls_out, noise = np.exp(theta)
    K_in, K_out, L, _ = _factor(D2x, D2y, theta, jitter)
    value, alpha = _value(L, r)
    n = r.shape[0]
    M = np.outer(alpha, alpha) - scipy.linalg.cho_solve((L, True), np.eye(n))
    dK = (K_in, K_in * (D2x / (ls_in * ls_in)), K_out, K_out * (D2y / (ls_out * ls_out)),
          noise * np.eye(n))
    return value, np.array([0.5 * float(np.sum(M * dKj)) for dKj in dK])


def _distances(X, yhat):
    return sq_distances(X), (yhat[:, None] - yhat[None, :]) ** 2


def _allocating_rio_predict(model, Xs, ys, include_noise):
    """rio_predict's posterior with every n_train x n_test step allocated
    afresh."""
    cfg = model.kernel
    D2x = sq_distances(model.train_X, Xs)
    D2y = (model.train_yhat[:, None] - ys[None, :]) ** 2
    Ks = (
        cfg.signal_variance_in * np.exp(-D2x / (2.0 * cfg.length_scale_in ** 2))
        + cfg.signal_variance_out * np.exp(-D2y / (2.0 * cfg.length_scale_out ** 2))
    )
    mean = Ks.T @ model.alpha
    v = scipy.linalg.solve_triangular(model.chol, Ks, lower=True)
    variance = cfg.signal_variance_in + cfg.signal_variance_out - np.sum(v * v, axis=0)
    if include_noise:
        variance = variance + cfg.noise_variance
    return mean, np.sqrt(np.maximum(variance, 0.0))


class TestPredictBitIdentity:
    @pytest.mark.parametrize("include_noise", [True, False])
    def test_matches_allocating_expression(self, include_noise):
        X, y, yhat = _problem(46, n=40, d=4)
        model = fit_rio(X, yhat, y, n_starts=2, max_iter=30, seed=2)
        Xt, _, yhat_t = _problem(47, n=70, d=4)
        mean, std = rio_predict(model, Xt, yhat_t, include_noise=include_noise)
        want_mean, want_std = _allocating_rio_predict(model, Xt, yhat_t, include_noise)
        assert np.array_equal(mean, want_mean)
        assert np.array_equal(std, want_std)


class TestWorkspaceAllocations:
    def test_evaluation_allocates_no_n_by_n_array(self):
        import tracemalloc

        n = 300
        X, y, yhat = _problem(50, n=n, d=4)
        ws = _Workspace(X, yhat)
        theta = np.zeros(5)
        _lml_and_grad(ws, y - yhat, theta, None)
        tracemalloc.start()
        try:
            _lml_and_grad(ws, y - yhat, theta, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8


class TestWorkspaceBitIdentity:
    """The reused buffers give the allocating code's bits exactly."""

    def test_random_parameters(self):
        X, y, yhat = _problem(44, n=40, d=4)
        r = y - yhat
        D2x, D2y = _distances(X, yhat)
        ws = _Workspace(X, yhat)  # one workspace across evaluations, as in a fit
        rng = keyed_rng(45)
        for _ in range(20):
            theta = rng.uniform(-3.0, 3.0, size=5)
            value, grad = _lml_and_grad(ws, r, theta, None)
            want_value, want_grad, _ = _allocating_lml_and_grad(D2x, D2y, r, theta, None)
            assert np.array_equal(value, want_value)
            assert np.array_equal(grad, want_grad)

    def test_jitter_escalation(self):
        rng = keyed_rng(43)
        base = rng.normal(size=(10, 2))
        X = np.vstack([base, base])
        yhat = np.concatenate([base[:, 0], base[:, 0]])
        r = 0.01 * rng.normal(size=20)
        D2x, D2y = _distances(X, yhat)
        theta = np.log([1.0, 1.0, 1.0, 1.0, 1e-16])
        want_value, want_grad, used = _allocating_lml_and_grad(D2x, D2y, r, theta, 1e-16)
        assert used > 1e-16  # the input does force an escalation
        value, grad = _lml_and_grad(_Workspace(X, yhat), r, theta, 1e-16)
        assert np.array_equal(value, want_value)
        assert np.array_equal(grad, want_grad)


class TestInverseFromFactor:
    def test_matches_solved_inverse(self):
        # well-conditioned: the noise variance is at least e^-1 and the
        # kernel terms at most e, so cond(A) stays below about 600
        worst = 0.0
        for seed in (46, 47, 48):
            X, y, yhat = _problem(seed, n=40, d=4)
            r = y - yhat
            D2x, D2y = _distances(X, yhat)
            rng = keyed_rng(seed + 100)
            for _ in range(10):
                theta = rng.uniform(-1.0, 1.0, size=5)
                value, grad, _ = _allocating_lml_and_grad(D2x, D2y, r, theta, None)
                want_value, want_grad = _solved_lml_and_grad(D2x, D2y, r, theta, None)
                scale = np.max(np.abs(want_grad))
                worst = max(worst, abs(value - want_value) / abs(want_value),
                            np.max(np.abs(grad - want_grad)) / scale)
        # relative to the value and to the largest gradient entry; the
        # measured worst case is about 2e-16
        assert worst < 1e-10

    def test_failed_inversion_raises_and_skips_the_start(self, monkeypatch):
        from uqshift import uq_rio

        X, y, yhat = _problem(49, n=15)
        monkeypatch.setattr(uq_rio, "dpotri", lambda c, lower, overwrite_c: (c, 3))
        with pytest.raises(NumericalError, match="potri info 3"):
            log_marginal_likelihood(X, yhat, y - yhat, KernelConfig())
        with pytest.raises(NumericalError, match="every marginal-likelihood"):
            fit_rio(X, yhat, y, n_starts=2, max_iter=5, seed=0)
