"""Density clustering, the cluster labels file, and cluster-held-out splits.

The DBSCAN here (Ester et al. 1996) is deterministic by construction:
clusters are numbered in the order of their lowest row, and a border
point reachable from several clusters goes to the lowest-numbered one.
Noise rows get the label -1 and never participate in splits.  Without a
given eps, ``dbscan`` takes eps_factor times the median distance to each
point's (min_pts - 1)-th nearest other point from the one distance
matrix it builds, and ``ClusterLabels.eps`` records the radius used.
The labels file (``id``, ``cluster``) is written and read here.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from .config import require
from .csvio import keyed_cells, read_csv, write_csv
from .dataset import Dataset, as_matrix, freeze
from .embedding import _SEARCH_ROWS, sq_distances
from .errors import ConfigError, DataError, NumericalError
from .rng import keyed_rng


@dataclass(frozen=True)
class ClusterLabels:
    labels: np.ndarray
    k: int
    eps: float | None = None  # the DBSCAN radius used; None for labels read from a file

    def __post_init__(self):
        labels = freeze(self, "labels", int, ndim=1)
        if self.k < 0:
            raise DataError("cluster count cannot be negative")
        non_noise = labels[labels != -1]
        if non_noise.size and (non_noise.min() < 0 or non_noise.max() >= self.k):
            raise DataError("cluster labels must lie in [0, k) or be -1 for noise")
        present = set(non_noise.tolist())
        if present != set(range(self.k)):
            raise DataError("every cluster id in [0, k) must be non-empty")

    def members(self, cluster: int) -> np.ndarray:
        return np.flatnonzero(self.labels == cluster)


@dataclass(frozen=True)
class SplitSpec:
    """Index sets of one cluster-held-out split.

    Training and validation rows come from ``train_cluster``; test rows
    are every row of the other eligible clusters.
    """

    train_idx: np.ndarray
    valid_idx: np.ndarray
    test_idx: np.ndarray
    train_cluster: int

    def __post_init__(self):
        sets = [set(freeze(self, name, int, ndim=1).tolist())
                for name in ("train_idx", "valid_idx", "test_idx")]
        if sets[0] & sets[1] or sets[0] & sets[2] or sets[1] & sets[2]:
            raise DataError("split index sets must be pairwise disjoint")

    def scored_rows(self, labels: ClusterLabels) -> tuple[np.ndarray, np.ndarray]:
        """(heldout, scored), both ascending: heldout is the training
        cluster's rows outside train and valid, scored is heldout plus
        the test rows."""
        members = labels.members(self.train_cluster)
        heldout = members[~np.isin(members, np.concatenate([self.train_idx, self.valid_idx]))]
        return heldout, np.sort(np.concatenate([heldout, self.test_idx]))


def dbscan(coordinates: np.ndarray, eps: float | None, min_pts: int,
           eps_factor: float | None = None) -> ClusterLabels:
    """Density-based clustering with deterministic label assignment.

    A point is core when its closed eps-ball contains at least min_pts
    points (itself included).  Clusters are connected components of core
    points; border points attach to the lowest-numbered claiming
    cluster; everything else is noise (-1).  eps = None is the automatic
    rule: eps_factor times the median over rows of the square root of
    the min(min_pts - 1, n - 1)-th smallest (0-based) squared distance in
    the row, its own distance counted, so min_pts = 1 would give zero.
    """
    X = as_matrix(coordinates, "coordinates", min_rows=1)
    if eps is None and eps_factor is None:
        raise ConfigError("eps = None (the automatic rule) needs an eps_factor")
    require("split", "dbscan_eps", eps)
    if eps_factor is not None:
        require("split", "eps_factor", eps_factor)
    require("split", "min_pts", min_pts)
    d2 = sq_distances(X)
    if eps is None:
        n, rank = X.shape[0], min(min_pts - 1, X.shape[0] - 1)
        kth = np.empty(n)  # copied out per block: a kept view would keep its whole block
        for start in range(0, n, _SEARCH_ROWS):
            block = np.partition(d2[start:start + _SEARCH_ROWS], rank, axis=1)
            kth[start:start + _SEARCH_ROWS] = block[:, rank]
        eps = eps_factor * float(np.median(np.sqrt(kth)))
        if eps <= 0:
            raise NumericalError("auto eps came out non-positive; data may be degenerate")
    within = d2 <= eps * eps
    del d2
    core = np.flatnonzero(within.sum(axis=1) >= min_pts)
    labels = np.full(X.shape[0], -1, dtype=int)
    if core.size == 0:
        return ClusterLabels(labels=labels, k=0, eps=eps)
    # undirected components are numbered by their lowest row: row-scan order.
    # The relation is symmetric, so its upper triangle is the whole graph.
    k, labels[core] = connected_components(csr_array(np.triu(within[np.ix_(core, core)])),
                                           directed=False)
    # With the core columns ordered by cluster id, a border row's first
    # core neighbour is in its lowest-numbered claiming cluster.
    border = np.flatnonzero(labels == -1)
    by_id = core[np.argsort(labels[core], kind="stable")]
    hits = within[np.ix_(border, by_id)]
    first = hits.argmax(axis=1)
    claimed = hits[np.arange(border.size), first]
    labels[border[claimed]] = labels[by_id[first[claimed]]]
    return ClusterLabels(labels=labels, k=k, eps=eps)


def make_cluster_splits(
    data: Dataset,
    labels: ClusterLabels,
    train_n: int,
    valid_n: int,
    min_cluster_size: int,
    seed: int,
) -> list[SplitSpec]:
    """One split per eligible cluster.

    A cluster is eligible when its size reaches ``min_cluster_size``; an
    eligible cluster that still cannot supply train_n + valid_n rows is
    an error rather than a silent skip.  Sampling is without replacement
    from a stream keyed by the cluster's smallest row index, so
    relabeling clusters never changes the drawn index sets.
    """
    if len(labels.labels) != data.n:
        raise DataError("cluster labels are not aligned with the dataset rows")
    for key, value in (("train_n", train_n), ("valid_n", valid_n),
                       ("min_cluster_size", min_cluster_size)):
        require("split", key, value)

    sizes = np.bincount(labels.labels[labels.labels >= 0], minlength=labels.k)
    eligible = [c for c in range(labels.k) if sizes[c] >= min_cluster_size]
    for c in eligible:
        if sizes[c] < train_n + valid_n:
            raise DataError(
                f"cluster {c} has {sizes[c]} rows, fewer than train_n + valid_n = {train_n + valid_n}"
            )

    splits: list[SplitSpec] = []
    for c in eligible:
        members = labels.members(c)  # ascending row order
        rng = keyed_rng(seed, int(members[0]))
        perm = rng.permutation(members.size)
        chosen = members[perm[: train_n + valid_n]]
        train_idx = np.sort(chosen[:train_n])
        valid_idx = np.sort(chosen[train_n:])
        test_idx = np.sort(
            np.concatenate([labels.members(o) for o in eligible if o != c])
            if len(eligible) > 1
            else np.empty(0, dtype=int)
        )
        splits.append(SplitSpec(train_idx, valid_idx, test_idx, train_cluster=c))
    return splits


def write_labels_csv(ids, labels, path: str | Path) -> None:
    write_csv(path, ["id", "cluster"], zip(ids, np.asarray(labels).tolist()))


def load_external_labels(path: str | Path, data: Dataset) -> ClusterLabels:
    """Read a CSV with ``id`` and ``cluster`` columns and align it to the
    dataset row order.

    Every dataset id must appear exactly once.  Non-noise cluster values
    are remapped, in sorted order, onto 0..K-1 so downstream code can
    rely on contiguous ids; -1 stays noise.
    """
    header, rows = read_csv(path)
    at, (cells,) = keyed_cells(path, header, rows, data.ids, ["cluster"])
    if len(at) < data.n:
        missing = sorted(set(range(data.n)) - set(at))
        raise DataError(f"{path}: missing labels for dataset ids: "
                        f"{[data.ids[i] for i in missing[:5]]}")
    raw = np.empty(data.n, dtype=int)
    for r, (i, cell) in enumerate(zip(at, cells), start=1):
        try:
            raw[i] = int(cell)
        except (ValueError, OverflowError):
            raise DataError(f"{path}: row {r}: non-integer cluster {cell!r}") from None
    distinct = sorted(v for v in set(raw.tolist()) if v != -1)
    remap = {v: i for i, v in enumerate(distinct)}
    labels = np.array([remap.get(v, -1) for v in raw], dtype=int)
    return ClusterLabels(labels=labels, k=len(distinct))


def write_split_csv(split: SplitSpec, ids, path: str | Path) -> None:
    roles = [("train", split.train_idx), ("valid", split.valid_idx), ("test", split.test_idx)]
    write_csv(path, ["id", "role"], ((ids[i], role) for role, idx in roles for i in idx.tolist()))


def read_split_csv(path: str | Path, ids, train_cluster: int) -> SplitSpec:
    header, rows = read_csv(path)
    at, (roles,) = keyed_cells(path, header, rows, ids, ["role"])
    buckets: dict[str, list[int]] = {"train": [], "valid": [], "test": []}
    for r, (i, role) in enumerate(zip(at, roles), start=1):
        if role not in buckets:
            raise DataError(f"{path}: row {r}: unknown role {role!r}")
        buckets[role].append(i)
    return SplitSpec(*(np.sort(np.array(idx, dtype=int)) for idx in buckets.values()),
                     train_cluster=train_cluster)
