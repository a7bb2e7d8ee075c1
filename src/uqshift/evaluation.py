"""Experiment metrics: R^2, cross-cluster tables, removal curves, and
distribution summaries.

R^2 here is 1 - SSE/SST against the mean of the actual values; it can
be arbitrarily negative on shifted data and that is meaningful output,
not an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .clustering import ClusterLabels, SplitSpec
from .config import require
from .dataset import as_vector
from .errors import DataError
from .uq_ad import standard_normal_quantile


def r_squared(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Coefficient of determination.

    Requires at least two points and a non-constant actual vector
    (otherwise the total sum of squares is zero and the score is
    undefined).
    """
    a = as_vector(actual, "actual")
    p = as_vector(predicted, "predicted", a.size)
    if a.size < 2:
        raise DataError("R^2 requires at least two points")
    mean = a.mean()
    sst = float(np.sum((a - mean) ** 2))
    if sst == 0.0:
        raise DataError("actual values are constant; R^2 is undefined")
    sse = float(np.sum((a - p) ** 2))
    return 1.0 - sse / sst


def cross_cluster_table(
    predictions: Mapping[int, np.ndarray],
    target: np.ndarray,
    labels: ClusterLabels,
    splits: Sequence[SplitSpec],
) -> tuple[np.ndarray, list[int]]:
    """K x K matrix of R^2 values across training clusters.

    ``predictions[c]`` holds the predictions of the model trained on
    cluster c for every row of the dataset, aligned with ``target``.
    Entry (i, j) scores the model of cluster c_i against cluster c_j's
    evaluation rows: the whole cluster off the diagonal, and only rows
    outside train and valid on it.  Entries with fewer than two
    evaluation rows are NaN (absent), never fabricated.
    """
    clusters = sorted(s.train_cluster for s in splits)
    by_cluster = {s.train_cluster: s for s in splits}
    if sorted(predictions.keys()) != clusters:
        raise DataError("predictions and splits must cover the same training clusters")
    target = as_vector(target, "target", labels.labels.size)
    k = len(clusters)
    table = np.full((k, k), np.nan)
    for i, ci in enumerate(clusters):
        preds = as_vector(predictions[ci], f"predictions[{ci}]", target.size)
        for j, cj in enumerate(clusters):
            rows = by_cluster[ci].scored_rows(labels)[0] if ci == cj else labels.members(cj)
            if rows.size >= 2:
                table[i, j] = r_squared(target[rows], preds[rows])
    return table, clusters


@dataclass(frozen=True)
class RemovalCurvePoint:
    fraction_removed: float
    r2: float
    n_remaining: int


@dataclass(frozen=True)
class RemovalCurve:
    points: tuple[RemovalCurvePoint, ...]
    removal_order: np.ndarray  # all rows, most uncertain first


def removal_curve(
    uncertainty: np.ndarray,
    actual: np.ndarray,
    predicted: np.ndarray,
    step_fraction: float,
    min_remaining: int = 10,
) -> RemovalCurve:
    """R^2 of the surviving points as the most uncertain are dropped.

    Rows are ordered by uncertainty descending with ties broken by
    ascending row index.  Each step removes ceil(step_fraction * n0)
    rows, where n0 is the initial size; the curve always starts at
    fraction 0 and stops before the remainder would fall below
    min_remaining (never below two points).
    """
    u = as_vector(uncertainty, "uncertainty")
    a = as_vector(actual, "actual", u.size)
    p = as_vector(predicted, "predicted", u.size)
    require("eval", "step_fraction", step_fraction)
    n0 = u.size
    if n0 < 2:
        raise DataError("removal curve requires at least two points")

    order = np.lexsort((np.arange(n0), -u))  # primary: -uncertainty, secondary: index
    floor = max(int(min_remaining), 2)
    drop = math.ceil(step_fraction * n0)
    points = [RemovalCurvePoint(0.0, r_squared(a, p), n0)]
    removed = 0
    while n0 - removed - drop >= floor:
        removed += drop
        keep = order[removed:]
        points.append(
            RemovalCurvePoint(removed / n0, r_squared(a[keep], p[keep]), n0 - removed)
        )
    return RemovalCurve(points=tuple(points), removal_order=order)


@dataclass(frozen=True)
class BoxplotStats:
    median: float
    q1: float
    q3: float
    whisker_low: float
    whisker_high: float
    n_outliers: int


def boxplot_stats(values: np.ndarray) -> BoxplotStats:
    """Five-number boxplot summary with 1.5 IQR whiskers.

    Quartiles use linear interpolation.  Whiskers are the most extreme
    data points still inside the 1.5 IQR fences; everything outside
    counts as an outlier.
    """
    v = as_vector(values, "values")
    finite = v[np.isfinite(v)]
    if finite.size < 1:
        raise DataError("boxplot statistics require at least one finite value")
    q1, med, q3 = (float(np.quantile(finite, q)) for q in (0.25, 0.5, 0.75))
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    inside = finite[(finite >= lo_fence) & (finite <= hi_fence)]
    n_out = int(v.size - inside.size)  # non-finite values count as outliers
    return BoxplotStats(
        median=med,
        q1=q1,
        q3=q3,
        whisker_low=float(inside.min()),
        whisker_high=float(inside.max()),
        n_outliers=n_out,
    )


def uq_summary_stats(
    estimates: Mapping[str, np.ndarray],
    actual: np.ndarray,
    predicted: np.ndarray,
) -> dict[str, BoxplotStats]:
    """Boxplot summaries per method, and one extra ``actual_error``
    entry summarizing the signed errors y - yhat."""
    a = as_vector(actual, "actual")
    p = as_vector(predicted, "predicted", a.size)
    out: dict[str, BoxplotStats] = {}
    for name, values in estimates.items():
        out[name] = boxplot_stats(as_vector(values, f"estimates[{name!r}]", a.size))
    out["actual_error"] = boxplot_stats(a - p)
    return out


def novelty_separation(
    ad_scores: np.ndarray,
    in_cluster: np.ndarray,
    alpha: float,
) -> tuple[float | None, float | None]:
    """Fraction of each group flagged novel at the z threshold for alpha.

    Returns (in_cluster_rate, out_of_cluster_rate); an empty group has
    no rate and reports None.
    """
    scores = as_vector(ad_scores, "ad_scores")
    mask = as_vector(in_cluster, "in_cluster", scores.size).astype(bool)
    require("uq", "alpha", alpha)
    threshold = standard_normal_quantile(1.0 - alpha)

    def rate(group: np.ndarray) -> float | None:
        if group.size == 0:
            return None
        return float(np.mean(group > threshold))

    return rate(scores[mask]), rate(scores[~mask])
