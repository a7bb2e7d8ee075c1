from collections import deque

import numpy as np
import pytest

from uqshift.clustering import (
    ClusterLabels,
    dbscan,
    load_external_labels,
    make_cluster_splits,
    read_split_csv,
    write_split_csv,
)
from uqshift.dataset import Dataset
from uqshift.embedding import sq_distances
from uqshift.errors import DataError
from uqshift.rng import keyed_rng


def _reference_dbscan(X, eps, min_pts):
    """Independent brute-force implementation used as the oracle.

    Returns (set of frozensets of row indices, set of noise rows); the
    partition is compared without caring about cluster numbering.
    """
    n = X.shape[0]
    d = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(-1))
    neighbors = [set(np.flatnonzero(d[i] <= eps).tolist()) for i in range(n)]
    core = [len(neighbors[i]) >= min_pts for i in range(n)]
    assigned = {}
    clusters = []
    for i in range(n):
        if not core[i] or i in assigned:
            continue
        stack = [i]
        cluster = set()
        while stack:
            p = stack.pop()
            if p in cluster:
                continue
            cluster.add(p)
            if core[p]:
                stack.extend(q for q in neighbors[p] if q not in cluster)
        for p in cluster:
            if core[p]:
                assigned[p] = len(clusters)
        clusters.append(cluster)
    # border points reachable from several clusters: membership is
    # ambiguous in the reference, so only core sets are compared exactly
    core_sets = set()
    for cluster in clusters:
        core_sets.add(frozenset(p for p in cluster if core[p]))
    covered = set().union(*clusters) if clusters else set()
    noise = {i for i in range(n) if i not in covered}
    return core_sets, noise


def _bfs_dbscan(X, eps, min_pts):
    """Row-scan DBSCAN with a breadth-first search per cluster: the
    numbering reference.  Clusters are numbered in the order their first
    core row is met, and a border row takes the lowest id among its core
    neighbours.  Returns (labels, k)."""
    n = X.shape[0]
    within = sq_distances(X) <= eps * eps
    neighbors = [np.flatnonzero(within[i]) for i in range(n)]
    core = np.array([len(nb) >= min_pts for nb in neighbors])
    labels = np.full(n, -1, dtype=int)
    k = 0
    for i in range(n):
        if not core[i] or labels[i] != -1:
            continue
        labels[i] = k
        queue = deque([i])
        while queue:
            p = queue.popleft()
            for q in neighbors[p]:
                if core[q] and labels[q] == -1:
                    labels[q] = k
                    queue.append(q)
        k += 1

    for i in range(n):
        if core[i]:
            continue
        claiming = [labels[j] for j in neighbors[i] if core[j]]
        if claiming:
            labels[i] = min(claiming)
    return labels, k


class TestDbscan:
    def test_two_groups_and_noise(self):
        X = np.array([
            [0.0, 0.0], [0.1, 0.0], [0.0, 0.1],
            [5.0, 5.0], [5.1, 5.0], [5.0, 5.1],
            [20.0, 20.0],
        ])
        labels = dbscan(X, eps=0.5, min_pts=2)
        assert labels.k == 2
        assert labels.labels[6] == -1
        assert len(set(labels.labels[:3])) == 1
        assert len(set(labels.labels[3:6])) == 1
        assert labels.labels[0] != labels.labels[3]

    def test_cluster_ids_follow_row_order(self):
        # first core point encountered starts cluster 0
        X = np.array([[10.0], [10.1], [0.0], [0.1]])
        labels = dbscan(X, eps=0.5, min_pts=2)
        assert labels.labels[0] == 0 and labels.labels[2] == 1

    def test_eps_ball_is_closed(self):
        X = np.array([[0.0], [1.0]])
        labels = dbscan(X, eps=1.0, min_pts=2)
        assert labels.labels[0] == labels.labels[1] == 0

    def test_border_point_takes_lowest_cluster_id(self):
        # point at x=2 is within eps of cores of both clusters but is
        # not core itself
        X = np.array([[0.0], [0.5], [2.0], [3.5], [4.0]])
        labels = dbscan(X, eps=1.5, min_pts=3)
        assert labels.labels[2] == min(labels.labels[0], labels.labels[4])
        # the border row 2.0 reaches core 0.5 (row 1, cluster 1) before
        # core 3.5 (row 3, cluster 0)
        X = np.array([[4.0], [0.5], [2.0], [3.5], [0.0], [-0.5], [0.2], [4.5], [3.8]])
        labels = dbscan(X, eps=1.5, min_pts=4)
        np.testing.assert_array_equal(labels.labels, [0, 1, 0, 0, 1, 1, 1, 0, 0])

    def test_matches_reference_on_random_data(self):
        rng = keyed_rng(77)
        for trial in range(8):
            X = rng.normal(size=(40, 2)) * 2.0
            eps = 0.8
            labels = dbscan(X, eps=eps, min_pts=3)
            ref_cores, ref_noise = _reference_dbscan(X, eps, 3)
            got_noise = set(np.flatnonzero(labels.labels == -1).tolist())
            assert got_noise == ref_noise
            d = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(-1))
            neighbor_counts = (d <= eps).sum(axis=1)
            got_cores = set()
            for c in range(labels.k):
                members = np.flatnonzero(labels.labels == c)
                got_cores.add(frozenset(
                    int(i) for i in members if neighbor_counts[i] >= 3
                ))
            assert got_cores == ref_cores

    def test_matches_bfs_reference_exactly(self):
        # one-decimal coordinates make distances tie with eps, copied rows
        # coincide, and the eps ladder runs from all noise to one cluster
        rng = keyed_rng(78)
        for trial in range(400):
            n, dim = int(rng.integers(1, 80)), int(rng.integers(1, 3))
            X = np.round(rng.uniform(0.0, 0.3 * n ** (1 / dim), size=(n, dim)), 1)
            X[rng.integers(0, n, size=n // 4)] = X[rng.integers(0, n, size=n // 4)]
            eps = float(rng.choice([0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 100.0]))
            min_pts = int(rng.integers(1, 9))
            got = dbscan(X, eps=eps, min_pts=min_pts)
            want_labels, want_k = _bfs_dbscan(X, eps, min_pts)
            assert got.k == want_k, (trial, eps, min_pts)
            np.testing.assert_array_equal(got.labels, want_labels, err_msg=f"trial {trial}")

    def test_one_cluster_peak_memory_is_the_distance_temporary(self):
        # eps joins every row, so the core x core graph is full: scipy's
        # sparse copies of both triangles outgrew sq_distances' two n x n
        # floats (30 bytes per n^2 against 16 at n = 1200)
        import tracemalloc

        n = 600
        rng = keyed_rng(79)
        X = np.vstack([rng.normal(size=(n // 4, 2)) + 10.0 * c for c in range(4)])
        tracemalloc.start()
        try:
            labels = dbscan(X, eps=100.0, min_pts=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert labels.k == 1
        assert peak <= 2 * n * n * 8 + 2 * n * n

    def test_all_noise(self):
        X = np.array([[0.0], [10.0], [20.0]])
        labels = dbscan(X, eps=1.0, min_pts=2)
        assert labels.k == 0
        np.testing.assert_array_equal(labels.labels, [-1, -1, -1])


def _dataset_of_size(n):
    rng = keyed_rng(50)
    return Dataset(
        ids=tuple(f"p{i:05d}" for i in range(n)),
        features=rng.normal(size=(n, 3)),
        feature_names=("f01", "f02", "f03"),
        target=rng.normal(size=n),
    )


def _labels_with_sizes(sizes):
    parts = [np.full(s, c) for c, s in enumerate(sizes)]
    labels = np.concatenate(parts).astype(int)
    return ClusterLabels(labels=labels, k=len(sizes))


class TestClusterSplits:
    SIZES = (2132, 2455, 3252, 1154, 7)  # smallest falls below the floor

    def test_small_cluster_excluded(self):
        data = _dataset_of_size(sum(self.SIZES))
        labels = _labels_with_sizes(self.SIZES)
        splits = make_cluster_splits(data, labels, train_n=1000, valid_n=100,
                                     min_cluster_size=100, seed=3)
        assert [s.train_cluster for s in splits] == [0, 1, 2, 3]
        for s in splits:
            assert s.train_idx.size == 1000
            assert s.valid_idx.size == 100
            # test rows come from the other eligible clusters only
            test_labels = set(labels.labels[s.test_idx].tolist())
            assert 4 not in test_labels
            assert test_labels == {c for c in range(4) if c != s.train_cluster}

    def test_disjoint_and_sorted(self):
        data = _dataset_of_size(600)
        labels = _labels_with_sizes((300, 300))
        splits = make_cluster_splits(data, labels, train_n=100, valid_n=20,
                                     min_cluster_size=50, seed=0)
        for s in splits:
            assert set(s.train_idx) & set(s.valid_idx) == set()
            assert set(s.train_idx) & set(s.test_idx) == set()
            assert np.all(np.diff(s.train_idx) > 0)
            assert np.all(np.diff(s.valid_idx) > 0)
            assert np.all(np.diff(s.test_idx) > 0)

    def test_train_rows_belong_to_train_cluster(self):
        data = _dataset_of_size(600)
        labels = _labels_with_sizes((300, 300))
        splits = make_cluster_splits(data, labels, train_n=100, valid_n=20,
                                     min_cluster_size=50, seed=0)
        for s in splits:
            assert set(labels.labels[s.train_idx]) == {s.train_cluster}
            assert set(labels.labels[s.valid_idx]) == {s.train_cluster}

    def test_eligible_but_too_small_is_error(self):
        data = _dataset_of_size(300)
        labels = _labels_with_sizes((150, 150))
        with pytest.raises(DataError, match="fewer than train_n"):
            make_cluster_splits(data, labels, train_n=140, valid_n=20,
                                min_cluster_size=100, seed=0)

    def test_deterministic(self):
        data = _dataset_of_size(400)
        labels = _labels_with_sizes((200, 200))
        a = make_cluster_splits(data, labels, 50, 10, 50, seed=7)
        b = make_cluster_splits(data, labels, 50, 10, 50, seed=7)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.train_idx, sb.train_idx)
            np.testing.assert_array_equal(sa.valid_idx, sb.valid_idx)

    def test_label_permutation_leaves_row_sets_unchanged(self):
        # renaming cluster ids must not change which rows are selected,
        # because each cluster's draw is keyed by its first member row
        data = _dataset_of_size(400)
        labels_a = _labels_with_sizes((200, 200))
        swapped = np.where(labels_a.labels == 0, 1, 0)
        labels_b = ClusterLabels(labels=swapped, k=2)
        a = make_cluster_splits(data, labels_a, 50, 10, 50, seed=7)
        b = make_cluster_splits(data, labels_b, 50, 10, 50, seed=7)
        by_rows_a = {frozenset(s.train_idx.tolist()) for s in a}
        by_rows_b = {frozenset(s.train_idx.tolist()) for s in b}
        assert by_rows_a == by_rows_b

    def test_noise_rows_never_selected(self):
        data = _dataset_of_size(250)
        labels = np.concatenate([np.full(200, 0), np.full(50, -1)])
        cl = ClusterLabels(labels=labels, k=1)
        splits = make_cluster_splits(data, cl, 50, 10, 50, seed=1)
        assert len(splits) == 1
        assert np.all(labels[splits[0].train_idx] == 0)
        assert splits[0].test_idx.size == 0

    def test_split_csv_round_trip(self, tmp_path):
        data = _dataset_of_size(400)
        labels = _labels_with_sizes((200, 200))
        splits = make_cluster_splits(data, labels, 50, 10, 50, seed=7)
        path = tmp_path / "split_0.csv"
        write_split_csv(splits[0], data.ids, path)
        back = read_split_csv(path, data.ids, 0)
        np.testing.assert_array_equal(back.train_idx, splits[0].train_idx)
        np.testing.assert_array_equal(back.valid_idx, splits[0].valid_idx)
        np.testing.assert_array_equal(back.test_idx, splits[0].test_idx)


class TestExternalLabels:
    def test_load_and_remap(self, tmp_path):
        data = _dataset_of_size(4)
        path = tmp_path / "labels.csv"
        lines = ["id,cluster"]
        for i, rid in enumerate(data.ids):
            lines.append(f"{rid},{[5, 5, 9, -1][i]}")
        path.write_text("\n".join(lines) + "\n")
        labels = load_external_labels(path, data)
        np.testing.assert_array_equal(labels.labels, [0, 0, 1, -1])
        assert labels.k == 2

    def test_columns_found_by_name(self, tmp_path):
        data = _dataset_of_size(4)
        path = tmp_path / "labels.csv"
        path.write_text("cluster,id\n" + "".join(
            f"{c},{rid}\n" for rid, c in zip(reversed(data.ids), [-1, 9, 5, 5])))
        labels = load_external_labels(path, data)
        np.testing.assert_array_equal(labels.labels, [0, 0, 1, -1])
        assert labels.k == 2

    def test_missing_cluster_column_is_named(self, tmp_path):
        data = _dataset_of_size(2)
        path = tmp_path / "labels.csv"
        path.write_text("id,label\np00000,0\np00001,0\n")
        with pytest.raises(DataError, match="missing column 'cluster'"):
            load_external_labels(path, data)

    def test_unknown_id_rejected(self, tmp_path):
        data = _dataset_of_size(2)
        path = tmp_path / "labels.csv"
        path.write_text("id,cluster\np00000,0\nzzz,0\n")
        with pytest.raises(DataError, match="zzz"):
            load_external_labels(path, data)

    def test_missing_id_rejected(self, tmp_path):
        data = _dataset_of_size(3)
        path = tmp_path / "labels.csv"
        path.write_text("id,cluster\np00000,0\np00001,0\n")
        with pytest.raises(DataError):
            load_external_labels(path, data)

    def test_duplicate_id_rejected(self, tmp_path):
        data = _dataset_of_size(2)
        path = tmp_path / "labels.csv"
        path.write_text("id,cluster\np00000,0\np00000,1\np00001,0\n")
        with pytest.raises(DataError):
            load_external_labels(path, data)

    def test_non_integer_cluster_names_its_row(self, tmp_path):
        data = _dataset_of_size(2)
        path = tmp_path / "labels.csv"
        path.write_text("id,cluster\np00000,0\np00001,99999999999999999999\n")
        with pytest.raises(DataError, match="row 2: non-integer cluster '99999999999999999999'"):
            load_external_labels(path, data)
