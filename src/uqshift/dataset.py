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


def _refuse(what: str, need: str, arr: np.ndarray) -> DataError:
    return DataError(f"{what} must be {need}, got shape {arr.shape}")


def freeze(obj, name: str, dtype, ndim: int | None = None) -> np.ndarray:
    """Replace the field name of the frozen dataclass obj with a read-only
    C-ordered copy of its value as a dtype array, and return that copy;
    a DataError naming the field unless the copy has ndim dimensions."""
    arr = np.array(getattr(obj, name), dtype=dtype, order="C")
    if ndim is not None and arr.ndim != ndim:
        raise _refuse(name, f"{ndim}-D", arr)
    arr.flags.writeable = False
    object.__setattr__(obj, name, arr)
    return arr


def as_matrix(values, what: str, *, min_rows: int = 0, cols: int | None = None) -> np.ndarray:
    """values as a float matrix; a DataError naming what unless it is 2-D
    with at least min_rows rows and, when cols is given, cols columns."""
    X = np.asarray(values, dtype=float)
    if X.ndim != 2 or X.shape[0] < min_rows or cols not in (None, X.shape[1]):
        terms = [f"at least {min_rows} row" + "s" * (min_rows != 1)] if min_rows else []
        terms += [] if cols is None else [f"{cols} column" + "s" * (cols != 1)]
        raise _refuse(what, "2-D with " + " and ".join(terms) if terms else "2-D", X)
    return X


def as_vector(values, what: str, n: int | None = None) -> np.ndarray:
    """values as a float vector; a DataError naming what unless it is 1-D
    and, when n is given, of length n."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or n not in (None, v.shape[0]):
        raise _refuse(what, "1-D" if n is None else f"1-D of length {n}", v)
    return v


@dataclass(frozen=True)
class Dataset:
    ids: tuple[str, ...]
    features: np.ndarray
    feature_names: tuple[str, ...]
    target: np.ndarray

    def __post_init__(self):
        feats = freeze(self, "features", float, ndim=2)
        tgt = freeze(self, "target", float, ndim=1)
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
        means = freeze(self, "means", float, ndim=1)
        stds = freeze(self, "stddevs", float, ndim=1)
        mask = freeze(self, "constant_mask", bool, ndim=1)
        if not means.size == stds.size == mask.size:
            raise DataError("scaler parameter arrays must be aligned")
        if np.any(stds <= 0):
            raise DataError("scaler stddevs must be strictly positive")

    def transform(self, features: np.ndarray) -> np.ndarray:
        """The standardized rows of a matrix with one column per scaler column."""
        X = as_matrix(features, "features", cols=self.means.size)
        out = (X - self.means) / self.stddevs
        if self.constant_mask.any():
            out[:, self.constant_mask] = 0.0
        return out


def fit_scaler(X: np.ndarray) -> ScalerParams:
    """Population-statistics scaler fitted on the rows of X."""
    X = as_matrix(X, "X", min_rows=2)
    constant = np.all(X == X[0, :], axis=0)
    means = X.mean(axis=0)
    stds = X.std(axis=0)  # population std, ddof=0
    stds = np.where(constant, 1.0, stds)
    return ScalerParams(means=means, stddevs=stds, constant_mask=constant)


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float((xc * xc).sum()) * float((yc * yc).sum()))
    return float(np.clip((xc * yc).sum() / denom, -1.0, 1.0))


def rank_correlated_features(data: Dataset, threshold: float) -> list[tuple[str, float]]:
    """The (feature name, Pearson r against the target) pairs, the rows
    of ``split/ranking.csv``.

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
    return kept


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


def generate_synthetic(*, clusters: int, points_per_cluster: int, dim: int,
                       separation: float, coef_scale: float, noise: float,
                       seed: int) -> tuple[Dataset, np.ndarray]:
    """Deterministic synthetic regression data with known cluster labels:
    the keys of the ``[synth]`` section, and a seed.

    Isotropic Gaussian clusters with per-cluster affine targets.  Cluster
    centers are placed so every pairwise center distance is at least
    ``separation`` times the within-cluster standard deviation (which is
    fixed at 1).  Each cluster gets its own affine target map plus
    Gaussian observation noise.
    """
    if dim < 2:
        raise ConfigError(f"synthetic dimension must be >= 2, got {dim}")
    if clusters < 1 or points_per_cluster < 1:
        raise ConfigError("cluster count and points per cluster must be positive")
    if separation <= 0 or coef_scale <= 0:
        raise ConfigError("separation and coef_scale must be positive")
    if noise < 0:
        raise ConfigError("noise level must be non-negative")
    rng = keyed_rng(seed)
    k, m, d = clusters, points_per_cluster, dim
    centers = np.zeros((k, d))
    for c in range(k):
        axis = c % d
        ring = c // d + 1
        centers[c, axis] = separation * ring

    n = k * m
    features = np.empty((n, d))
    target = np.empty(n)
    labels = np.empty(n, dtype=int)
    for c in range(k):
        coefs = coef_scale * rng.standard_normal(d)
        intercept = coef_scale * rng.standard_normal()
        pts = centers[c] + rng.standard_normal((m, d))
        y = pts @ coefs + intercept
        if noise > 0:
            y = y + noise * rng.standard_normal(m)
        sl = slice(c * m, (c + 1) * m)
        features[sl] = pts
        target[sl] = y
        labels[sl] = c

    width = max(4, len(str(n - 1)))
    ids = tuple(f"p{i:0{width}d}" for i in range(n))
    names = tuple(f"f{j + 1:02d}" for j in range(d))
    data = Dataset(ids=ids, features=features, feature_names=names, target=target)
    return data, labels
