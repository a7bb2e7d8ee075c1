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

Memory: a fit holds the two n x n squared-distance matrices (inputs and
network outputs) and a workspace of five more n x n buffers: the two
kernel terms, the covariance, its Cholesky factor and the gradient's
weight matrix.  The linear algebra is four LAPACK routines: ``potrf``
factors the covariance in place, ``potrs`` solves with the factor,
``potri`` turns it into the lower triangle of the inverse in place and
``trtrs`` makes the predictive solve.  One pass mirrors the inverse over
the covariance, which the factor has made free; each kernel term's
product with the weight matrix is written over that term, its last use.
The buffers are allocated once per fit and reused by every likelihood
evaluation of every start, so an evaluation allocates no n x n array;
``log_marginal_likelihood`` builds the same workspace for its single
evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs, dtrtrs
from scipy.optimize import minimize

from .config import require
from .dataset import as_matrix, as_vector
from .embedding import sq_distances
from .errors import ConfigError, DataError, NumericalError
from .rng import keyed_rng

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
    jitter: float | None = None  # None: 1e-8 * (signal_variance_in + signal_variance_out)

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


@dataclass
class RioModel:
    """Fitted residual GP; treat as immutable once constructed."""

    train_X: np.ndarray
    train_yhat: np.ndarray
    kernel: KernelConfig
    chol: np.ndarray
    alpha: np.ndarray
    jitter_used: float


class _Workspace:
    """The squared distances and the n x n buffers of one fit's
    likelihood evaluations.

    ``L`` is Fortran-ordered so ``potrf`` factors it, and ``potri`` then
    inverts it, in place; ``A`` receives the mirrored inverse once the
    covariance is factored.  The others are C-ordered, and the
    gradient's summed products ``M * K`` must stay so, because a sum
    walks memory in layout order and a different walk changes the
    gradient's bits.
    """

    def __init__(self, X: np.ndarray, yhat: np.ndarray):
        n = X.shape[0]
        self.D2x = sq_distances(X)
        self.D2y = (yhat[:, None] - yhat[None, :]) ** 2
        self.K_in, self.K_out, self.A, self.M = (np.empty((n, n)) for _ in range(4))
        self.L = np.empty((n, n), order="F")


def _diagonal(S: np.ndarray) -> np.ndarray:
    """Writable view of a contiguous square matrix's diagonal."""
    return S.ravel(order="K")[:: S.shape[0] + 1]


def _kernel_terms(D2x: np.ndarray, D2y: np.ndarray, cfg: KernelConfig, out=None):
    """The input and output terms of the composite kernel, each
    sv * exp(-D2 / (2 ls^2)), written into ``out`` (two arrays) or over
    D2x and D2y."""
    out = out or (D2x, D2y)
    for K, D2, sv, ls in zip(out, (D2x, D2y),
                             (cfg.signal_variance_in, cfg.signal_variance_out),
                             (cfg.length_scale_in, cfg.length_scale_out)):
        np.divide(D2, -2.0 * ls * ls, out=K)
        np.exp(K, out=K)
        K *= sv
    return out


def _factor(ws: _Workspace, cfg: KernelConfig) -> tuple[np.ndarray, float]:
    """Fill ws's kernel terms and covariance A = K_in + K_out + noise * I,
    and factor A + jitter * I into ws.L, escalating the jitter tenfold
    at most 3 times; potrf's last failure is a NumericalError."""
    _kernel_terms(ws.D2x, ws.D2y, cfg, out=(ws.K_in, ws.K_out))
    np.add(ws.K_in, ws.K_out, out=ws.A)
    _diagonal(ws.A)[:] += cfg.noise_variance
    jitter = cfg.jitter or 1e-8 * (cfg.signal_variance_in + cfg.signal_variance_out)
    for _ in range(4):
        np.copyto(ws.L.T, ws.A)  # A is symmetric bit for bit; a failure leaves L half factored
        _diagonal(ws.L)[:] += jitter
        L, info = dpotrf(ws.L, lower=1, clean=1, overwrite_a=1)
        if info == 0:
            return L, jitter
        jitter *= 10.0
    raise NumericalError(f"covariance factorization failed even with jitter "
                         f"{jitter / 10.0:.3e}")


def _lml_and_grad(ws: _Workspace, r: np.ndarray, theta: np.ndarray, jitter: float | None):
    cfg = KernelConfig.from_log_vector(theta, jitter)
    n = r.shape[0]
    L, _ = _factor(ws, cfg)
    # potrs (and trtrs) report only an illegal argument (or a zero on the
    # factor's diagonal, which potrf never leaves): info is not checked
    alpha, _ = dpotrs(L, r, lower=1)
    value = (
        -0.5 * float(r @ alpha)
        - float(np.sum(np.log(np.diag(L))))
        - 0.5 * n * math.log(2.0 * math.pi)
    )
    # L is spent: potri overwrites its lower triangle with that of A^-1.
    # Its upper triangle stays zero (potrf's clean=1 zeroes it), so L + L^T
    # is the whole inverse with the diagonal counted twice.  The factor
    # copied A, so A is free to hold it.
    L_inv, info = dpotri(L, lower=1, overwrite_c=1)
    if info != 0:
        raise NumericalError(f"covariance inversion failed (potri info {info})")
    A_inv = np.add(L_inv, L_inv.T, out=ws.A)
    _diagonal(A_inv)[:] = _diagonal(L_inv)
    # d LML / d theta_j = 1/2 tr((alpha alpha^T - A^-1) dA/d theta_j)
    M = np.outer(alpha, alpha, out=ws.M)
    M -= A_inv
    grad = []
    for K, D2, ls in ((ws.K_in, ws.D2x, cfg.length_scale_in),
                      (ws.K_out, ws.D2y, cfg.length_scale_out)):
        K *= M  # K's last use
        grad.append(0.5 * float(np.sum(K)))                   # log signal variance: K
        grad.append(0.5 * float(np.vdot(K, D2)) / (ls * ls))  # log length scale: K * D2 / ls^2
    grad.append(0.5 * cfg.noise_variance * float(np.trace(M)))  # log noise: noise * I
    return value, np.array(grad)


def _training_inputs(train_X, train_yhat, values, name: str):
    """The training features, network outputs and one more per-row
    vector (``name`` in its error message), as float arrays."""
    X = as_matrix(train_X, "train_X", min_rows=1)
    n = X.shape[0]
    return X, as_vector(train_yhat, "train_yhat", n), as_vector(values, name, n)


def log_marginal_likelihood(train_X, train_yhat, residuals, config: KernelConfig):
    """LML of the residuals and its gradient w.r.t. the log parameters.

    Gradient order: log signal_variance_in, log length_scale_in,
    log signal_variance_out, log length_scale_out, log noise_variance.
    """
    X, yhat, r = _training_inputs(train_X, train_yhat, residuals, "residuals")
    ws = _Workspace(X, yhat)
    return _lml_and_grad(ws, r, config.to_log_vector(), config.jitter)


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
    index.  Starts whose factorization fails, or whose likelihood is not
    finite (a non-finite covariance), are skipped; all failing is an error.
    """
    X, yhat, y = _training_inputs(train_X, train_yhat, train_y, "train_y")
    require("uq", "rio_starts", n_starts)
    require("uq", "rio_max_iter", max_iter)
    init = init or KernelConfig()
    r = y - yhat
    ws = _Workspace(X, yhat)

    def objective(theta):
        try:
            value, grad = _lml_and_grad(ws, r, theta, init.jitter)
        except NumericalError:
            return _FAIL, np.zeros(5)
        if not np.isfinite(value):
            return _FAIL, np.zeros(5)
        return -value, -grad

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
    L, jitter_used = _factor(ws, kernel)
    alpha, _ = dpotrs(L, r, lower=1)
    return RioModel(
        train_X=X,
        train_yhat=yhat,
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
    Xs = as_matrix(test_X, "test_X", cols=model.train_X.shape[1])
    ys = as_vector(test_yhat, "test_yhat", Xs.shape[0])

    cfg = model.kernel
    Ks, K_out = _kernel_terms(sq_distances(model.train_X, Xs),
                              np.square(model.train_yhat[:, None] - ys[None, :]), cfg)
    np.add(Ks, K_out, out=Ks)
    del K_out
    residual_mean = Ks.T @ model.alpha
    v, _ = dtrtrs(model.chol, Ks, lower=1)
    del Ks
    self_kernel = cfg.signal_variance_in + cfg.signal_variance_out
    np.multiply(v, v, out=v)
    variance = self_kernel - np.sum(v, axis=0)
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
