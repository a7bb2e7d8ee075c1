"""Gaussian-process modeling of a regressor's residuals.

The model places a GP prior on the residuals r = y - yhat with a
composite kernel: a squared-exponential over the input features plus a
squared-exponential over the network outputs.  Hyperparameters (two
signal variances, two length scales, and a noise variance) live in log
space and are chosen by maximizing the log marginal likelihood with a
quasi-Newton line-search optimizer from several seeded restarts.

Predictions return two arrays, the posterior residual mean and the
noisy-target posterior standard deviation; the corrected prediction is
yhat + residual_mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cholesky, cho_solve, solve_triangular
from scipy.optimize import minimize

from .embedding import sq_distances
from .errors import ConfigError, DataError, NumericalError

_FAIL = 1e25
_LOG_BOUNDS = (-12.0, 12.0)
_PARAM_NAMES = ("signal_variance_in", "length_scale_in",
                "signal_variance_out", "length_scale_out", "noise_variance")


@dataclass(frozen=True)
class KernelConfig:
    signal_variance_in: float = 1.0
    length_scale_in: float = 1.0
    signal_variance_out: float = 1.0
    length_scale_out: float = 1.0
    noise_variance: float = 1.0
    jitter: float | None = None  # None: 1e-8 * mean kernel diagonal

    def __post_init__(self):
        for name in _PARAM_NAMES:
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be strictly positive")
        if self.jitter is not None and not self.jitter > 0:
            raise ConfigError("jitter must be strictly positive when given")

    def to_log_vector(self) -> np.ndarray:
        return np.log([getattr(self, name) for name in _PARAM_NAMES])

    @staticmethod
    def from_log_vector(theta: np.ndarray, jitter: float | None = None) -> "KernelConfig":
        values = np.exp(np.asarray(theta, dtype=float))
        return KernelConfig(*[float(v) for v in values], jitter=jitter)

    def base_jitter(self) -> float:
        if self.jitter is not None:
            return self.jitter
        return 1e-8 * (self.signal_variance_in + self.signal_variance_out)


@dataclass
class RioModel:
    """Fitted residual GP; treat as immutable once constructed."""

    train_X: np.ndarray
    train_yhat: np.ndarray
    residuals: np.ndarray
    kernel: KernelConfig
    chol: np.ndarray
    alpha: np.ndarray
    jitter_used: float


def composite_kernel(xi: np.ndarray, yhat_i: float, xj: np.ndarray, yhat_j: float,
                     config: KernelConfig) -> float:
    """Kernel value for one pair: input term plus output term."""
    xi = np.asarray(xi, dtype=float)
    xj = np.asarray(xj, dtype=float)
    d2x = float(np.sum((xi - xj) ** 2))
    d2y = (float(yhat_i) - float(yhat_j)) ** 2
    term_in = config.signal_variance_in * math.exp(-d2x / (2.0 * config.length_scale_in ** 2))
    term_out = config.signal_variance_out * math.exp(-d2y / (2.0 * config.length_scale_out ** 2))
    return term_in + term_out


def _kernel_parts(D2x: np.ndarray, D2y: np.ndarray, theta: np.ndarray):
    sv_in, ls_in, sv_out, ls_out, noise = np.exp(theta)
    K_in = sv_in * np.exp(-D2x / (2.0 * ls_in * ls_in))
    K_out = sv_out * np.exp(-D2y / (2.0 * ls_out * ls_out))
    return K_in, K_out, sv_in, ls_in, sv_out, ls_out, noise


def _chol_with_escalation(A: np.ndarray, base_jitter: float) -> tuple[np.ndarray, float]:
    """Cholesky of A + jitter*I, escalating jitter tenfold at most 3 times."""
    n = A.shape[0]
    jitter = base_jitter
    for _ in range(4):
        try:
            L = cholesky(A + jitter * np.eye(n), lower=True)
            return L, jitter
        except LinAlgError:
            jitter *= 10.0
    raise NumericalError(
        f"covariance factorization failed even with jitter {jitter / 10.0:.3e}"
    )


def _lml_and_grad(D2x: np.ndarray, D2y: np.ndarray, r: np.ndarray, theta: np.ndarray,
                  jitter: float | None):
    K_in, K_out, sv_in, ls_in, sv_out, ls_out, noise = _kernel_parts(D2x, D2y, theta)
    n = r.shape[0]
    A = K_in + K_out + noise * np.eye(n)
    base = jitter if jitter is not None else 1e-8 * (sv_in + sv_out)
    L, _ = _chol_with_escalation(A, base)
    alpha = cho_solve((L, True), r)
    value = (
        -0.5 * float(r @ alpha)
        - float(np.sum(np.log(np.diag(L))))
        - 0.5 * n * math.log(2.0 * math.pi)
    )
    A_inv = cho_solve((L, True), np.eye(n))
    M = np.outer(alpha, alpha) - A_inv
    dK = (
        K_in,                                # d/d log sv_in
        K_in * (D2x / (ls_in * ls_in)),      # d/d log ls_in
        K_out,                               # d/d log sv_out
        K_out * (D2y / (ls_out * ls_out)),   # d/d log ls_out
        noise * np.eye(n),                   # d/d log noise
    )
    grad = np.array([0.5 * float(np.sum(M * dKj)) for dKj in dK])
    return value, grad


def _training_inputs(train_X, train_yhat, residuals=None):
    X = np.asarray(train_X, dtype=float)
    yhat = np.asarray(train_yhat, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1:
        raise DataError("training features must be a non-empty 2-D matrix")
    if yhat.shape != (X.shape[0],):
        raise DataError("train_yhat must be one value per training row")
    if residuals is not None:
        r = np.asarray(residuals, dtype=float)
        if r.shape != (X.shape[0],):
            raise DataError("residuals must be one value per training row")
        return X, yhat, r
    return X, yhat, None


def log_marginal_likelihood(train_X, train_yhat, residuals, config: KernelConfig):
    """LML of the residuals and its gradient w.r.t. the log parameters.

    Gradient order: log signal_variance_in, log length_scale_in,
    log signal_variance_out, log length_scale_out, log noise_variance.
    """
    X, yhat, r = _training_inputs(train_X, train_yhat, residuals)
    D2x = sq_distances(X)
    D2y = (yhat[:, None] - yhat[None, :]) ** 2
    return _lml_and_grad(D2x, D2y, r, config.to_log_vector(), config.jitter)


def fit_rio(
    train_X,
    train_yhat,
    train_y,
    init: KernelConfig | None = None,
    n_starts: int = 5,
    max_iter: int = 150,
    seed: int = 0,
) -> RioModel:
    """Fit the residual GP by maximizing the marginal likelihood.

    The first start is the provided (or default) configuration; the
    remaining starts draw every log parameter uniformly from [-2, 2].
    The best final LML wins, with exact ties going to the lowest start
    index.  Starts whose factorization fails are skipped; all starts
    failing is an error.
    """
    X, yhat, _ = _training_inputs(train_X, train_yhat, np.zeros_like(np.asarray(train_yhat)))
    y = np.asarray(train_y, dtype=float)
    if y.shape != yhat.shape:
        raise DataError("train_y must be one value per training row")
    if n_starts < 1:
        raise ConfigError("n_starts must be >= 1")
    init = init or KernelConfig()
    r = y - yhat
    D2x = sq_distances(X)
    D2y = (yhat[:, None] - yhat[None, :]) ** 2

    def objective(theta):
        try:
            value, grad = _lml_and_grad(D2x, D2y, r, theta, init.jitter)
        except NumericalError:
            return _FAIL, np.zeros(5)
        if not np.isfinite(value):
            return _FAIL, np.zeros(5)
        return -value, -grad

    from .rng import keyed_rng

    rng = keyed_rng(seed)
    starts = [init.to_log_vector()]
    for _ in range(n_starts - 1):
        starts.append(rng.uniform(-2.0, 2.0, size=5))

    best_lml = -math.inf
    best_theta = None
    for theta0 in starts:
        result = minimize(
            objective,
            np.clip(theta0, *_LOG_BOUNDS),
            jac=True,
            method="L-BFGS-B",
            bounds=[_LOG_BOUNDS] * 5,
            options={"maxiter": max_iter},
        )
        if result.fun >= _FAIL * 0.5 or not np.isfinite(result.fun):
            continue
        lml = -float(result.fun)
        if lml > best_lml:
            best_lml = lml
            best_theta = result.x
    if best_theta is None:
        raise NumericalError("every marginal-likelihood optimization start failed")

    kernel = KernelConfig.from_log_vector(best_theta, jitter=init.jitter)
    K_in, K_out, sv_in, _, sv_out, _, noise = _kernel_parts(D2x, D2y, best_theta)
    A = K_in + K_out + noise * np.eye(X.shape[0])
    L, jitter_used = _chol_with_escalation(A, kernel.base_jitter())
    alpha = cho_solve((L, True), r)
    return RioModel(
        train_X=X,
        train_yhat=yhat,
        residuals=r,
        kernel=kernel,
        chol=L,
        alpha=alpha,
        jitter_used=jitter_used,
    )


def rio_predict(model: RioModel, test_X, test_yhat,
                include_noise: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Posterior residual means and standard deviations for new points.

    ``include_noise`` keeps the observation noise inside the predictive
    variance (the default); pass False for the latent-residual spread.
    A variance below -1e-10 is an internal error; tiny negatives in
    [-1e-10, 0] clamp to zero, and a NaN is a data error.
    """
    Xs = np.asarray(test_X, dtype=float)
    ys = np.asarray(test_yhat, dtype=float)
    if Xs.ndim != 2 or Xs.shape[1] != model.train_X.shape[1]:
        raise DataError(
            f"test features must be 2-D with {model.train_X.shape[1]} columns, got {Xs.shape}"
        )
    if ys.shape != (Xs.shape[0],):
        raise DataError("test_yhat must be one value per test row")

    cfg = model.kernel
    D2x = sq_distances(model.train_X, Xs)
    D2y = (model.train_yhat[:, None] - ys[None, :]) ** 2
    Ks = (
        cfg.signal_variance_in * np.exp(-D2x / (2.0 * cfg.length_scale_in ** 2))
        + cfg.signal_variance_out * np.exp(-D2y / (2.0 * cfg.length_scale_out ** 2))
    )
    residual_mean = Ks.T @ model.alpha
    v = solve_triangular(model.chol, Ks, lower=True)
    self_kernel = cfg.signal_variance_in + cfg.signal_variance_out
    variance = self_kernel - np.sum(v * v, axis=0)
    if include_noise:
        variance = variance + cfg.noise_variance
    if np.any(variance < -1e-10):
        raise NumericalError(
            f"posterior variance fell below tolerance: min {variance.min():.3e}"
        )
    std = np.sqrt(np.maximum(variance, 0.0))
    if not np.all(std >= 0.0):
        raise DataError("rio uncertainty must be non-negative, got NaN")
    return residual_mean, std
