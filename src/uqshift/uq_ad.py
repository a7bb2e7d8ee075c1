"""Distance-based applicability domain scores.

Two novelty scores against a training set:

* distance distribution: the query's mean k-NN distance expressed as a
  rectified z-score under a normal fit of the training points' own mean
  k-NN distances (self excluded),
* local density: the query's mean k-NN distance divided by the mean of
  its neighbors' own mean k-NN distances.

Neighbor searches order candidates by (distance, row index), so exact
ties resolve to the lowest index.  All statistics use the population
convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericalError

METRICS = ("euclidean", "jaccard")

# Rational approximation coefficients for the standard normal quantile
# (Acklam), refined with one Halley step; worst-case error is far below
# the 1e-8 documentation threshold and the function is bit-deterministic.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)


def _lower_quantile(p: float) -> float:
    """Inverse normal CDF for p in (0, 0.5]; rational start, one Halley step."""
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / \
            ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
    else:
        q = p - 0.5
        r = q * q
        x = (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q / \
            (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)
    # the CDF of non-positive x via erfc keeps full relative precision,
    # so the step is accurate even deep in the tail
    err = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
    u = err * math.sqrt(2.0 * math.pi) * math.exp(0.5 * x * x)
    return x - u / (1.0 + 0.5 * x * u)


def standard_normal_quantile(p: float) -> float:
    """Inverse CDF of the standard normal distribution.

    Upper-tail arguments reflect to the lower tail, where the error
    term in the refinement step does not cancel."""
    if not 0.0 < p < 1.0:
        raise ConfigError(f"quantile argument must lie in (0, 1), got {p}")
    if p > 0.5:
        return -_lower_quantile(1.0 - p)
    return _lower_quantile(p)


@dataclass(frozen=True)
class AdModel:
    train_features: np.ndarray
    k: int
    metric: str
    mu_knn: float
    sigma_knn: float
    train_mean_knn_dists: np.ndarray

    def __post_init__(self):
        for name in ("train_features", "train_mean_knn_dists"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def _check_binary(X: np.ndarray, what: str) -> None:
    if not np.all((X == 0.0) | (X == 1.0)):
        raise DataError(f"jaccard metric requires binary {what}")


def _distances_to_train(train: np.ndarray, x: np.ndarray, metric: str) -> np.ndarray:
    """Distances from one query to every training row.

    Euclidean distances use explicit differences so a query equal to a
    training row yields a distance of exactly zero.
    """
    if metric == "euclidean":
        diff = train - x
        return np.sqrt(np.sum(diff * diff, axis=1))
    inter = np.sum(np.logical_and(train == 1.0, x == 1.0), axis=1).astype(float)
    union = np.sum(np.logical_or(train == 1.0, x == 1.0), axis=1).astype(float)
    out = np.ones(train.shape[0])
    nz = union > 0
    out[nz] = 1.0 - inter[nz] / union[nz]
    out[~nz] = 0.0  # two all-zero vectors are identical
    return out


def _knn_of_query(train: np.ndarray, x: np.ndarray, k: int, metric: str):
    dists = _distances_to_train(train, x, metric)
    order = np.argsort(dists, kind="stable")[:k]
    return dists[order], order


def fit_ad(train_features: np.ndarray, k: int, metric: str = "euclidean") -> AdModel:
    """Fit the reference distance distribution on the training rows.

    For every training row the k nearest other rows define its mean
    k-NN distance; a normal distribution (population std) is fitted to
    those means.  A degenerate fit (zero spread) is an error suggesting
    a larger k or jittered data.
    """
    X = np.asarray(train_features, dtype=float)
    if X.ndim != 2:
        raise DataError("training features must be 2-D")
    if metric not in METRICS:
        raise ConfigError(f"metric must be one of {METRICS}, got {metric!r}")
    if metric == "jaccard":
        _check_binary(X, "training features")
    n = X.shape[0]
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if n < k + 1:
        raise DataError(f"need at least k + 1 = {k + 1} training rows, got {n}")

    mean_dists = np.empty(n)
    for i in range(n):
        dists = _distances_to_train(X, X[i], metric)
        dists[i] = np.inf  # exclude the row itself
        order = np.argsort(dists, kind="stable")[:k]
        mean_dists[i] = dists[order].mean()

    mu = float(mean_dists.mean())
    sigma = float(mean_dists.std())  # population convention
    if sigma == 0.0:
        raise NumericalError(
            "training mean k-NN distances have zero spread; "
            "increase k or jitter the data"
        )
    return AdModel(
        train_features=X,
        k=int(k),
        metric=metric,
        mu_knn=mu,
        sigma_knn=sigma,
        train_mean_knn_dists=mean_dists,
    )


def _query_matrix(model: AdModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != model.train_features.shape[1]:
        raise DataError(
            f"query has {X.shape[1]} features, training data has "
            f"{model.train_features.shape[1]}"
        )
    if model.metric == "jaccard":
        _check_binary(X, "query features")
    return X


def ad_dd_scores(model: AdModel, X: np.ndarray) -> np.ndarray:
    """Rectified z-scores of the queries' mean k-NN distances."""
    X = _query_matrix(model, X)
    out = np.empty(X.shape[0])
    for i in range(X.shape[0]):
        dists, _ = _knn_of_query(model.train_features, X[i], model.k, model.metric)
        z = (dists.mean() - model.mu_knn) / model.sigma_knn
        out[i] = max(0.0, z)
    return out


def ad_dd_score(model: AdModel, x: np.ndarray) -> float:
    return float(ad_dd_scores(model, np.asarray(x, dtype=float)[None, :])[0])


def ad_ld_scores(model: AdModel, X: np.ndarray) -> np.ndarray:
    """Local density ratios.

    Numerator: the query's mean distance to its k nearest training
    rows.  Denominator: the mean of those rows' own mean k-NN distances
    (computed at fit time with the row itself excluded).  A zero
    numerator scores 0; a zero denominator with a positive numerator is
    reported as +inf.
    """
    X = _query_matrix(model, X)
    out = np.empty(X.shape[0])
    for i in range(X.shape[0]):
        dists, idx = _knn_of_query(model.train_features, X[i], model.k, model.metric)
        numerator = dists.mean()
        if numerator == 0.0:
            out[i] = 0.0
            continue
        denominator = model.train_mean_knn_dists[idx].mean()
        out[i] = math.inf if denominator == 0.0 else numerator / denominator
    return out


def ad_ld_score(model: AdModel, x: np.ndarray) -> float:
    return float(ad_ld_scores(model, np.asarray(x, dtype=float)[None, :])[0])
