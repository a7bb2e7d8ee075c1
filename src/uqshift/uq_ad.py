"""Distance-based applicability domain scores.

Two novelty scores against a training set:

* distance distribution: the query's mean k-NN distance expressed as a
  rectified z-score under a normal fit of the training points' own mean
  k-NN distances (self excluded),
* local density: the query's mean k-NN distance divided by the mean of
  its neighbors' own mean k-NN distances.

Neighbor searches order candidates by (distance, row index), so exact
ties resolve to the lowest index.  All statistics use the population
convention.  The novelty threshold at alpha is scipy's ``ndtri(1 - alpha)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .dataset import freeze
from .errors import ConfigError, DataError, NumericalError

METRICS = ("euclidean", "jaccard")


def standard_normal_quantile(p: float) -> float:
    """Inverse CDF of the standard normal distribution (scipy's ``ndtri``)."""
    if not 0.0 < p < 1.0:
        raise ConfigError(f"quantile argument must lie in (0, 1), got {p}")
    return float(ndtri(p))


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
            freeze(self, name, float)


def _check_binary(X: np.ndarray, what: str) -> None:
    if not np.all((X == 0.0) | (X == 1.0)):
        raise DataError(f"jaccard metric requires binary {what}")


# Query rows per block, fewer when one row's differences to the
# training set exceed a 64th of _BLOCK_ELEMENTS.
_BLOCK_ROWS = 64
_BLOCK_ELEMENTS = 1 << 22


def _distances_to_train(train: np.ndarray, Q: np.ndarray, metric: str) -> np.ndarray:
    """(queries, training rows) distances from each query row to every training row.

    Euclidean distances use explicit differences so a query equal to a
    training row yields a distance of exactly zero.
    """
    if metric == "euclidean":
        diff = np.subtract(train[None, :, :], Q[:, None, :])
        np.multiply(diff, diff, out=diff)
        return np.sqrt(np.sum(diff, axis=2))
    on_train, on_query = train[None, :, :] == 1.0, Q[:, None, :] == 1.0
    inter = np.sum(on_train & on_query, axis=2).astype(float)
    union = np.sum(on_train | on_query, axis=2).astype(float)
    with np.errstate(invalid="ignore"):  # 0/0 where the union is empty
        # two all-zero vectors are identical
        return np.where(union > 0, 1.0 - inter / union, 0.0)


def _nearest(train: np.ndarray, Q: np.ndarray, k: int, metric: str,
             exclude_self: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The k nearest training rows of every query row, nearest first:
    (queries, k) distances and row indices.

    Queries go in blocks of up to 64 rows.  A stable sort orders each
    row's candidates, so exact ties go to the lowest index.  With
    ``exclude_self`` the queries are the training rows themselves, and
    each row's distance to itself is set to +inf.
    """
    dists = np.empty((Q.shape[0], k))
    idx = np.empty((Q.shape[0], k), dtype=np.intp)
    block = max(1, min(_BLOCK_ROWS, _BLOCK_ELEMENTS // max(1, train.size)))
    for start in range(0, Q.shape[0], block):
        stop = min(start + block, Q.shape[0])
        D = _distances_to_train(train, Q[start:stop], metric)
        if exclude_self:
            rows = np.arange(stop - start)
            D[rows, start + rows] = np.inf
        order = np.argsort(D, axis=1, kind="stable")[:, :k]
        idx[start:stop] = order
        dists[start:stop] = np.take_along_axis(D, order, axis=1)
    return dists, idx


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

    mean_dists = _nearest(X, X, k, metric, exclude_self=True)[0].mean(axis=1)

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
    d = model.train_features.shape[1]
    if X.ndim != 2 or X.shape[1] != d:
        raise DataError(f"query features must be 2-D with {d} columns, got {X.shape}")
    if model.metric == "jaccard":
        _check_binary(X, "query features")
    return X


def ad_dd_scores(model: AdModel, X: np.ndarray) -> np.ndarray:
    """Rectified z-scores of the queries' mean k-NN distances."""
    X = _query_matrix(model, X)
    dists, _ = _nearest(model.train_features, X, model.k, model.metric)
    z = (dists.mean(axis=1) - model.mu_knn) / model.sigma_knn
    return np.where(z > 0.0, z, 0.0)


def ad_ld_scores(model: AdModel, X: np.ndarray) -> np.ndarray:
    """Local density ratios.

    Numerator: the query's mean distance to its k nearest training
    rows.  Denominator: the mean of those rows' own mean k-NN distances
    (computed at fit time with the row itself excluded).  A zero
    numerator scores 0; a zero denominator with a positive numerator is
    reported as +inf.
    """
    X = _query_matrix(model, X)
    dists, idx = _nearest(model.train_features, X, model.k, model.metric)
    numerator = dists.mean(axis=1)
    denominator = model.train_mean_knn_dists[idx].mean(axis=1)
    out = np.full(X.shape[0], math.inf)
    np.divide(numerator, denominator, out=out, where=denominator != 0.0)
    out[numerator == 0.0] = 0.0
    return out
