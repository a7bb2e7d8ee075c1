"""Regression tables: loading, validation, scaling, and synthesis.

A dataset is a dense numeric table with one string id per row, one
target column, and named feature columns.  All statistics in this module
use the population convention (divide by n).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .csvio import parse_floats, read_csv, write_csv
from .errors import ConfigError, DataError
from .rng import keyed_rng


@dataclass(frozen=True)
class Dataset:
    ids: tuple[str, ...]
    features: np.ndarray
    feature_names: tuple[str, ...]
    target: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        tgt = np.asarray(self.target, dtype=float)
        if feats.ndim != 2:
            raise DataError(f"features must be 2-D, got shape {feats.shape}")
        n, d = feats.shape
        if n < 1 or d < 1:
            raise DataError(f"dataset needs at least one row and one feature, got {n}x{d}")
        if len(self.ids) != n or tgt.shape != (n,):
            raise DataError("ids, features, and target row counts disagree")
        if len(self.feature_names) != d:
            raise DataError("feature_names length does not match feature columns")
        if len(set(self.ids)) != n:
            raise DataError("row ids are not unique")
        if not np.all(np.isfinite(feats)):
            raise DataError("features contain non-finite values")
        if not np.all(np.isfinite(tgt)):
            raise DataError("target contains non-finite values")
        object.__setattr__(self, "ids", tuple(str(i) for i in self.ids))
        object.__setattr__(self, "feature_names", tuple(str(f) for f in self.feature_names))
        feats = feats.copy()
        tgt = tgt.copy()
        feats.flags.writeable = False
        tgt.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "target", tgt)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class ScalerParams:
    """Per-column centering/scaling parameters.

    Constant columns are flagged; they standardize to zero.
    """

    means: np.ndarray
    stddevs: np.ndarray
    constant_mask: np.ndarray

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float)
        stds = np.asarray(self.stddevs, dtype=float)
        mask = np.asarray(self.constant_mask, dtype=bool)
        if not (means.shape == stds.shape == mask.shape) or means.ndim != 1:
            raise DataError("scaler parameter arrays must be 1-D and aligned")
        if np.any(stds <= 0):
            raise DataError("scaler stddevs must be strictly positive")
        for name, arr in (("means", means), ("stddevs", stds), ("constant_mask", mask)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = (X - self.means) / self.stddevs
        if self.constant_mask.any():
            out[:, self.constant_mask] = 0.0
        return out


@dataclass(frozen=True)
class CorrelationRanking:
    """Features whose |Pearson r| against the target clears a threshold,
    strongest first."""

    entries: tuple[tuple[str, float], ...]

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.entries)


def fit_scaler(X: np.ndarray) -> ScalerParams:
    """Population-statistics scaler fitted on the rows of X."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise DataError("scaler requires a 2-D matrix with at least two rows")
    constant = np.all(X == X[0, :], axis=0)
    means = X.mean(axis=0)
    stds = X.std(axis=0)  # population std, ddof=0
    stds = np.where(constant, 1.0, stds)
    if np.any(stds <= 0):
        # non-constant column with zero std cannot occur; guard anyway
        raise DataError("zero standard deviation on a non-constant column")
    return ScalerParams(means=means, stddevs=stds, constant_mask=constant)


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float((xc * xc).sum()) * float((yc * yc).sum()))
    return float(np.clip((xc * yc).sum() / denom, -1.0, 1.0))


def rank_correlated_features(data: Dataset, threshold: float) -> CorrelationRanking:
    """Rank features by |Pearson correlation| with the target.

    Only features with |r| strictly above the threshold are kept, sorted
    by |r| descending; equal magnitudes keep column order.  Constant
    feature columns are skipped with a warning, and a constant target is
    an error because the correlation is undefined there.
    """
    if not 0.0 <= threshold < 1.0:
        raise ConfigError(f"correlation threshold must be in [0, 1), got {threshold}")
    y = data.target
    if np.all(y == y[0]):
        raise DataError("target column is constant; correlations are undefined")
    kept: list[tuple[str, float]] = []
    for j, name in enumerate(data.feature_names):
        col = data.features[:, j]
        if np.all(col == col[0]):
            warnings.warn(f"feature {name!r} is constant and was skipped in the ranking")
            continue
        r = _pearson(col, y)
        if abs(r) > threshold:
            kept.append((name, r))
    kept.sort(key=lambda item: -abs(item[1]))  # stable: ties keep column order
    return CorrelationRanking(entries=tuple(kept))


def load_dataset(path: str | Path) -> Dataset:
    """Read a dataset CSV with an ``id`` and a ``target`` column, the
    rest being features, validating every cell.

    Errors carry the 1-based data row number and the column name so bad
    cells can be located directly in the file.  The ids are checked
    first, then the cells column by column in header order.
    """
    path = Path(path)
    header, raw_rows = read_csv(path)

    for col in ("id", "target"):
        if col not in header:
            raise DataError(f"{path}: required column {col!r} missing from header")
    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate column names in header")
    if len(header) == 2:
        raise DataError(f"{path}: no feature columns")
    if not raw_rows:
        raise DataError(f"{path}: no data rows")

    id_pos = header.index("id")
    ids = [row[id_pos].strip() for row in raw_rows]
    first_row: dict[str, int] = {}
    for r, rid in enumerate(ids, start=1):
        if not rid:
            raise DataError(f"{path}: row {r}, column 'id': missing id")
        if rid in first_row:
            raise DataError(f"{path}: duplicate id {rid!r} on rows {first_row[rid]} and {r}")
        first_row[rid] = r
    columns = {}
    for pos, name in enumerate(header):
        if pos == id_pos:
            continue
        cells = [row[pos] for row in raw_rows]
        values = parse_floats(cells, lambda i: f"{path}: row {i + 1}, column {name!r}")
        infinite = np.flatnonzero(np.isinf(values))
        if infinite.size:
            i = infinite[0]
            raise DataError(f"{path}: row {i + 1}, column {name!r}: non-finite value {cells[i]!r}")
        columns[name] = values
    target = columns.pop("target")
    return Dataset(ids=tuple(ids), features=np.column_stack(list(columns.values())),
                   feature_names=tuple(columns), target=target)


def save_dataset(data: Dataset, path: str | Path) -> None:
    """Write a dataset CSV that loads back bit-identically."""
    rows = zip(data.ids, data.target.tolist(), data.features.tolist())
    write_csv(path, ["id", "target", *data.feature_names], ([rid, t, *f] for rid, t, f in rows))


def write_labels_csv(ids, labels, path: str | Path) -> None:
    write_csv(path, ["id", "cluster"], zip(ids, np.asarray(labels).tolist()))


@dataclass(frozen=True)
class SyntheticConfig:
    """Isotropic Gaussian clusters with per-cluster affine targets.

    Cluster centers are placed so every pairwise center distance is at
    least ``separation`` times the within-cluster standard deviation
    (which is fixed at 1).  Each cluster gets its own affine target map
    plus Gaussian observation noise.
    """

    clusters: int = 4
    points_per_cluster: int = 300
    dim: int = 10
    separation: float = 8.0
    coef_scale: float = 1.0
    noise: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.dim < 2:
            raise ConfigError(f"synthetic dimension must be >= 2, got {self.dim}")
        if self.clusters < 1 or self.points_per_cluster < 1:
            raise ConfigError("cluster count and points per cluster must be positive")
        if self.separation <= 0 or self.coef_scale <= 0:
            raise ConfigError("separation and coef_scale must be positive")
        if self.noise < 0:
            raise ConfigError("noise level must be non-negative")


def generate_synthetic(config: SyntheticConfig) -> tuple[Dataset, np.ndarray]:
    """Deterministic synthetic regression data with known cluster labels."""
    rng = keyed_rng(config.seed)
    k, m, d = config.clusters, config.points_per_cluster, config.dim
    centers = np.zeros((k, d))
    for c in range(k):
        axis = c % d
        ring = c // d + 1
        centers[c, axis] = config.separation * ring

    n = k * m
    features = np.empty((n, d))
    target = np.empty(n)
    labels = np.empty(n, dtype=int)
    for c in range(k):
        coefs = config.coef_scale * rng.standard_normal(d)
        intercept = config.coef_scale * rng.standard_normal()
        pts = centers[c] + rng.standard_normal((m, d))
        y = pts @ coefs + intercept
        if config.noise > 0:
            y = y + config.noise * rng.standard_normal(m)
        sl = slice(c * m, (c + 1) * m)
        features[sl] = pts
        target[sl] = y
        labels[sl] = c

    width = max(4, len(str(n - 1)))
    ids = tuple(f"p{i:0{width}d}" for i in range(n))
    names = tuple(f"f{j + 1:02d}" for j in range(d))
    data = Dataset(ids=ids, features=features, feature_names=names, target=target)
    return data, labels
