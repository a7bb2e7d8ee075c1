import math

import numpy as np
import pytest
from scipy.special import xlogy

from uqshift.embedding import (
    _DESCENT_ROWS,
    _bandwidth_search,
    joint_probabilities,
    pca,
    sq_distances,
    tsne,
)
from uqshift.errors import ConfigError, DataError
from uqshift.rng import keyed_rng


def _sq_dists(X):
    diff = X[:, None, :] - X[None, :, :]
    return np.sum(diff * diff, axis=-1)


def _conditional(sq, perplexity, max_iter=200):
    """The bandwidth search's conditional affinities, in a new buffer, and sigmas."""
    P = np.empty_like(sq)
    betas, _, _ = _bandwidth_search(sq, perplexity, max_iter, P)
    return P, np.sqrt(1.0 / (2.0 * betas))


def _reference_tsne(X, perplexity, iterations, seed, exaggeration_iters,
                    momentum_switch, early_exaggeration=12.0,
                    initial_momentum=0.5, final_momentum=0.8):
    """The allocating descent loop that ``tsne`` must reproduce bit for bit:
    1 + d^2 from one product of the n x 4 factors [-2Y, 1 + |y|^2, 1] and
    [Y, 1, |y|^2], and M Y with M's row sums from one product with [Y, 1].

    Returns the final Y, the log-form KL trace, the KL of every iteration
    gathered over P > 0 as sum P log(P / max(Q, 1e-300)), and P.
    """
    P, _ = joint_probabilities(X, perplexity)
    p_log_p = float(xlogy(P, P).sum())
    n = X.shape[0]
    ones = np.ones(n)
    lr = n / early_exaggeration
    Y = 1e-4 * keyed_rng(seed).standard_normal((n, 2))
    velocity = np.zeros_like(Y)
    trace = np.empty(iterations)
    gathered = np.empty(iterations)
    for it in range(iterations):
        sq = np.sum(Y * Y, axis=1)
        A = np.column_stack([-2.0 * Y, 1.0 + sq, ones])
        B = np.column_stack([Y, ones, sq])
        D = np.maximum(A @ B.T, 1.0)
        np.fill_diagonal(D, 1.0)
        W = 1.0 / D
        np.fill_diagonal(W, 0.0)
        Z = W.sum()
        Q = W * (1.0 / Z)
        trace[it] = p_log_p + float(np.vdot(P, np.log(D))) + float(P.sum()) * math.log(Z)
        mask = P > 0
        gathered[it] = float(np.sum(P[mask] * np.log(P[mask] / np.maximum(Q[mask], 1e-300))))
        P_eff = P * early_exaggeration if it < exaggeration_iters else P
        M = (P_eff - Q) * W
        G = M @ np.column_stack([Y, ones])
        grad = 4.0 * (G[:, 2:] * Y - G[:, :2])
        momentum = initial_momentum if it < momentum_switch else final_momentum
        velocity = momentum * velocity - lr * grad
        Y = Y + velocity
        Y = Y - Y.mean(axis=0)
    return Y, trace, gathered, P


def _blocked_reference_tsne(X, perplexity, iterations, seed, exaggeration_iters,
                            momentum_switch, early_exaggeration=12.0,
                            initial_momentum=0.5, final_momentum=0.8):
    """``_reference_tsne`` over the tiles of block pairs I <= J, allocating:
    the rows cut into ceil(n / _DESCENT_ROWS) blocks of equal size to one
    row, the diagonal tiles first, and each off-diagonal tile standing for
    its mirror image in the trace, in Z and in both blocks' gradients.

    Returns the final Y, the log-form KL trace, the KL of every iteration
    gathered over P > 0 from the full Q at the same Y, and P.
    """
    P, _ = joint_probabilities(X, perplexity)
    p_log_p = float(xlogy(P, P).sum())
    n = X.shape[0]
    k = -(-n // _DESCENT_ROWS)
    edges = [b * n // k for b in range(k + 1)]
    blocks = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    pairs = ([(I, I, True) for I in blocks]
             + [(I, J, False) for b, I in enumerate(blocks) for J in blocks[b + 1:]])
    ones = np.ones(n)
    lr = n / early_exaggeration
    Y = 1e-4 * keyed_rng(seed).standard_normal((n, 2))
    velocity = np.zeros_like(Y)
    trace = np.empty(iterations)
    gathered = np.empty(iterations)
    for it in range(iterations):
        sq = np.sum(Y * Y, axis=1)
        A = np.column_stack([-2.0 * Y, 1.0 + sq, ones])
        B = np.column_stack([Y, ones, sq])
        p_log_d, Z, Ws = 0.0, 0.0, []
        for I, J, diagonal in pairs:
            D = np.maximum(A[I] @ B[J].T, 1.0)
            if diagonal:
                np.fill_diagonal(D, 1.0)
            weight = 1.0 if diagonal else 2.0
            p_log_d += weight * float(np.vdot(P[I, J], np.log(D)))
            W = 1.0 / D
            if diagonal:
                np.fill_diagonal(W, 0.0)
            Z += weight * W.sum()
            Ws.append(W)
        trace[it] = p_log_p + p_log_d + float(P.sum()) * math.log(Z)
        D_full = np.maximum(A @ B.T, 1.0)
        np.fill_diagonal(D_full, 1.0)
        W_full = 1.0 / D_full
        np.fill_diagonal(W_full, 0.0)
        Q = W_full / W_full.sum()
        mask = P > 0
        gathered[it] = float(np.sum(P[mask] * np.log(P[mask] / np.maximum(Q[mask], 1e-300))))
        P_eff = P * early_exaggeration if it < exaggeration_iters else P
        Y1 = np.column_stack([Y, ones])
        G = np.empty((n, 3))
        for (I, J, diagonal), W in zip(pairs, Ws):
            M = (P_eff[I, J] - W * (1.0 / Z)) * W
            if diagonal:
                G[I] = M @ Y1[I]
            else:
                G[I] += M @ Y1[J]
                G[J] += M.T @ Y1[I]
        grad = 4.0 * (G[:, 2:] * Y - G[:, :2])
        momentum = initial_momentum if it < momentum_switch else final_momentum
        velocity = momentum * velocity - lr * grad
        Y = Y + velocity
        Y = Y - Y.mean(axis=0)
    return Y, trace, gathered, P


def _three_block_blobs(shift):
    """Two blobs of 3-D points, ``shift`` apart, in 2 * _DESCENT_ROWS + 40
    rows: three blocks for the descent's tiles."""
    n = 2 * _DESCENT_ROWS + 40
    rng = keyed_rng(38)
    return np.vstack([rng.normal(size=(n // 2, 3)), rng.normal(size=(n - n // 2, 3)) + shift])


def _allocating_d2_plus_one(Y):
    """1 + d^2 as the difference form takes it: |y_i|^2 + |y_j|^2 - 2 y_i.y_j,
    clipped at 0, with a zero diagonal, plus 1."""
    sq = np.sum(Y * Y, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (Y @ Y.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return 1.0 + d2


def _allocating_tsne(X, perplexity, iterations, seed, exaggeration_iters,
                     momentum_switch, early_exaggeration=12.0,
                     initial_momentum=0.5, final_momentum=0.8):
    """The difference-form descent: five n x n passes for 1 + d^2, and M Y
    and M's row sums taken separately.  Returns the final Y and the trace."""
    P, _ = joint_probabilities(X, perplexity)
    p_log_p = float(xlogy(P, P).sum())
    lr = X.shape[0] / early_exaggeration
    Y = 1e-4 * keyed_rng(seed).standard_normal((X.shape[0], 2))
    velocity = np.zeros_like(Y)
    trace = np.empty(iterations)
    for it in range(iterations):
        D = _allocating_d2_plus_one(Y)
        W = 1.0 / D
        np.fill_diagonal(W, 0.0)
        Q = W / W.sum()
        trace[it] = (p_log_p + float(np.vdot(P, np.log(D)))
                     + float(P.sum()) * math.log(W.sum()))
        P_eff = P * early_exaggeration if it < exaggeration_iters else P
        M = (P_eff - Q) * W
        grad = 4.0 * (M.sum(axis=1)[:, None] * Y - M @ Y)
        momentum = initial_momentum if it < momentum_switch else final_momentum
        velocity = momentum * velocity - lr * grad
        Y = Y + velocity
        Y = Y - Y.mean(axis=0)
    return Y, trace


def _per_row_conditional(sq_dists, perplexity, tol=1e-5, max_iter=200):
    """The bandwidth search one row at a time, with the entropy summed
    over the nonzero p.  Returns P, sigmas and each row's final
    |entropy - log2(perplexity)| in bits."""
    n = sq_dists.shape[0]
    target = math.log2(perplexity)
    P = np.zeros((n, n))
    betas = np.ones(n)
    errors = np.empty(n)
    others = np.arange(n)
    for i in range(n):
        mask = others != i
        d = sq_dists[i, mask]
        dmin = d.min()
        beta, lo, hi = 1.0, 0.0, math.inf
        for _ in range(max_iter):
            w = np.exp(-beta * (d - dmin))
            s = w.sum()
            p = w / s
            nz = p > 0
            entropy = -float(np.sum(p[nz] * np.log(p[nz]))) / math.log(2.0)
            diff = entropy - target
            if abs(diff) <= tol:
                break
            if diff > 0:
                lo = beta
                beta = beta * 2.0 if hi == math.inf else 0.5 * (beta + hi)
            else:
                hi = beta
                beta = beta / 2.0 if lo == 0.0 else 0.5 * (beta + lo)
        P[i, mask] = p
        betas[i] = beta
        errors[i] = abs(diff)
    return P, np.sqrt(1.0 / (2.0 * betas)), errors


def _peak_memory_in_n_by_n_arrays(fn, n):
    """tracemalloc's peak over fn() on three 5-D blobs of n rows, in n x n
    float64 arrays, less an allowance for the thin buffers: the n x 4,
    n x 3 and n x 2 buffers and their temporaries."""
    import tracemalloc

    rng = keyed_rng(36)
    X = np.vstack([rng.normal(size=(n // 3, 5)) + 8.0 * k for k in range(3)])
    tracemalloc.start()
    try:
        fn(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - 48 * n * 8) / (n * n * 8)


def _tsne_peak(n):
    return _peak_memory_in_n_by_n_arrays(
        lambda X: tsne(X, perplexity=20, iterations=5, seed=0, exaggeration_iters=3), n)


class TestPca:
    def test_matches_eigh_oracle(self):
        rng = keyed_rng(12)
        X = rng.normal(size=(40, 6)) @ rng.normal(size=(6, 6))
        _, basis, variances = pca(X, 3)
        centered = X - X.mean(axis=0)
        cov = centered.T @ centered / X.shape[0]
        eigvals = np.linalg.eigvalsh(cov)[::-1]
        np.testing.assert_allclose(variances, eigvals[:3], rtol=1e-10)

    def test_orthonormal_basis(self):
        rng = keyed_rng(13)
        X = rng.normal(size=(20, 5))
        _, basis, _ = pca(X, 4)
        np.testing.assert_allclose(basis.T @ basis, np.eye(4), atol=1e-12)

    def test_sign_convention(self):
        rng = keyed_rng(14)
        X = rng.normal(size=(25, 4))
        _, basis, _ = pca(X, 4)
        for j in range(4):
            col = basis[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_full_rank_reconstruction(self):
        rng = keyed_rng(15)
        X = rng.normal(size=(12, 3))
        coords, basis, _ = pca(X, 3)
        centered = X - X.mean(axis=0)
        np.testing.assert_allclose(coords @ basis.T, centered, atol=1e-10)

    def test_projection_consistency(self):
        rng = keyed_rng(16)
        X = rng.normal(size=(15, 4))
        coords, basis, _ = pca(X, 2)
        centered = X - X.mean(axis=0)
        np.testing.assert_allclose(coords, centered @ basis, atol=1e-12)


class TestConditionalProbabilities:
    def test_entropy_matches_perplexity(self):
        rng = keyed_rng(20)
        X = rng.normal(size=(30, 4))
        perplexity = 8.0
        P, sigmas = _conditional(_sq_dists(X), perplexity)
        target = np.log2(perplexity)
        for i in range(30):
            row = P[i].copy()
            row[i] = 0.0
            nz = row[row > 0]
            entropy = -np.sum(nz * np.log2(nz))
            assert entropy == pytest.approx(target, abs=1e-4)

    def test_rows_normalized_and_diag_zero(self):
        rng = keyed_rng(21)
        X = rng.normal(size=(20, 3))
        P, _ = _conditional(_sq_dists(X), 5.0)
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_array_equal(np.diag(P), np.zeros(20))

    def test_sigmas_positive(self):
        rng = keyed_rng(22)
        X = rng.normal(size=(20, 3))
        _, sigmas = _conditional(_sq_dists(X), 5.0)
        assert np.all(sigmas > 0)

    def test_wider_sigma_for_sparse_point(self):
        # a point far from everything needs a wider bandwidth to reach
        # the same entropy
        X = np.vstack([keyed_rng(23).normal(size=(15, 2)), [[40.0, 40.0]]])
        _, sigmas = _conditional(_sq_dists(X), 5.0)
        assert sigmas[-1] > sigmas[:-1].max()

    @pytest.mark.parametrize(
        "case, n, perplexity, max_iter",
        [
            ("random", 128, 8.0, 200),
            ("far_blobs", 90, 5.0, 200),  # underflowed p: exact zeros off the diagonal
            ("capped", 70, 10.0, 3),  # every row stops at max_iter
            ("ragged", 150, 12.0, 200),  # 150 = 64 + 64 + 22 rows
        ],
    )
    def test_matches_per_row_search_bitwise(self, case, n, perplexity, max_iter):
        rng = keyed_rng(33)
        if case == "far_blobs":
            X = np.vstack([rng.normal(size=(n // 3, 3)) + 60.0 * k for k in range(3)])
        else:
            X = rng.normal(size=(n, 5))
        sq = _sq_dists(X)
        want_P, want_sigmas, errors = _per_row_conditional(sq, perplexity, max_iter=max_iter)
        if case == "far_blobs":
            assert np.count_nonzero(want_P == 0.0) > n  # more zeros than the diagonal
        P, sigmas = _conditional(sq, perplexity, max_iter=max_iter)
        assert np.array_equal(P, want_P)
        assert np.array_equal(sigmas, want_sigmas)
        _, capped, worst = _bandwidth_search(sq, perplexity, max_iter, np.empty_like(sq))
        assert capped == (n if case == "capped" else 0)
        # the closed-form entropy and the summed one agree to rounding
        assert worst == pytest.approx(errors.max(), rel=1e-9, abs=1e-12)

    def test_max_iter_floor(self):
        with pytest.raises(ConfigError):
            _conditional(_sq_dists(keyed_rng(34).normal(size=(10, 2))), 3.0, max_iter=0)

    def test_distances_left_untouched(self):
        sq = _sq_dists(keyed_rng(40).normal(size=(150, 4)))
        before = sq.tobytes()
        _conditional(sq, 12.0)
        assert sq.tobytes() == before

    def test_diagonal_not_read(self):
        sq = _sq_dists(keyed_rng(34).normal(size=(20, 3)))
        P, sigmas = _conditional(sq, 5.0)
        np.fill_diagonal(sq, 7.0)
        P2, sigmas2 = _conditional(sq, 5.0)
        assert np.array_equal(P, P2) and np.array_equal(sigmas, sigmas2)


class TestSqDistances:
    @pytest.mark.parametrize("rows", [1, 64, 65, 150])
    @pytest.mark.parametrize("against_itself", [True, False])
    def test_matches_broadcast_expression_bitwise(self, rows, against_itself):
        rng = keyed_rng(39)
        A = 3.0 * rng.normal(size=(rows, 6))
        B = A if against_itself else rng.normal(size=(rows + 7, 6))
        sq_a, sq_b = np.sum(A * A, axis=1), np.sum(B * B, axis=1)
        want = np.maximum(sq_a[:, None] + sq_b[None, :] - 2.0 * (A @ B.T), 0.0)
        got = sq_distances(A) if against_itself else sq_distances(A, B)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


class TestJointProbabilities:
    def test_symmetric_and_normalized(self):
        rng = keyed_rng(24)
        X = rng.normal(size=(18, 3))
        P, _ = joint_probabilities(X, 5.0)
        np.testing.assert_allclose(P, P.T, atol=1e-15)
        assert P.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(P >= 0)

    @pytest.mark.parametrize("shift", [60.0, 0.0])
    def test_matches_symmetrized_conditionals_bitwise(self, shift):
        X = _three_block_blobs(shift)
        n = X.shape[0]
        assert n % _DESCENT_ROWS
        cond, _ = _conditional(sq_distances(X), 10.0)
        assert np.array_equal(joint_probabilities(X, 10.0)[0], (cond + cond.T) / (2.0 * n))

    @pytest.mark.parametrize("n", [300, 540, 700, 1200])
    def test_peak_memory_below_two_n_by_n_arrays(self, n):
        # the distances become the conditionals and then P in place
        assert _peak_memory_in_n_by_n_arrays(lambda X: joint_probabilities(X, 20.0), n) <= 2.0


class TestTsne:
    def test_output_shape_and_trace(self):
        rng = keyed_rng(25)
        X = rng.normal(size=(25, 4))
        emb = tsne(X, perplexity=5, iterations=50, seed=0)
        assert emb.coordinates.shape == (25, 2)
        assert len(emb.objective_trace) == 50
        assert np.all(np.isfinite(emb.coordinates))

    def test_kl_decreases(self):
        rng = keyed_rng(26)
        X = np.vstack([rng.normal(size=(12, 3)), rng.normal(size=(12, 3)) + 8.0])
        emb = tsne(X, perplexity=5, iterations=250, seed=1)
        trace = emb.objective_trace
        assert trace[-1] < trace[0]
        assert np.all(np.isfinite(trace))

    def test_deterministic(self):
        rng = keyed_rng(27)
        X = rng.normal(size=(20, 3))
        a = tsne(X, perplexity=4, iterations=60, seed=5)
        b = tsne(X, perplexity=4, iterations=60, seed=5)
        np.testing.assert_array_equal(a.coordinates, b.coordinates)
        np.testing.assert_array_equal(a.objective_trace, b.objective_trace)

    def test_seed_changes_layout(self):
        rng = keyed_rng(28)
        X = rng.normal(size=(20, 3))
        a = tsne(X, perplexity=4, iterations=30, seed=1)
        b = tsne(X, perplexity=4, iterations=30, seed=2)
        assert not np.array_equal(a.coordinates, b.coordinates)

    def test_centered_output(self):
        rng = keyed_rng(29)
        X = rng.normal(size=(20, 3))
        emb = tsne(X, perplexity=4, iterations=40, seed=0)
        np.testing.assert_allclose(emb.coordinates.mean(axis=0), 0.0, atol=1e-12)

    def test_too_few_points_rejected(self):
        X = keyed_rng(30).normal(size=(10, 3))
        with pytest.raises((ConfigError, DataError)):
            tsne(X, perplexity=5, iterations=10, seed=0)  # needs n > 15

    @pytest.mark.parametrize(
        "shift, iterations, exaggeration_iters, momentum_switch",
        [
            (60.0, 40, 25, 25),  # far-apart blobs: P has exact off-diagonal zeros
            (0.0, 60, 20, 35),  # both phase switches inside the run
            (0.0, 15, 30, 10),  # the run ends during early exaggeration
        ],
    )
    def test_matches_reference_loop_bitwise(self, shift, iterations, exaggeration_iters,
                                            momentum_switch):
        rng = keyed_rng(32)
        X = np.vstack([rng.normal(size=(14, 3)), rng.normal(size=(14, 3)) + shift])
        args = dict(perplexity=4, iterations=iterations, seed=3,
                    exaggeration_iters=exaggeration_iters, momentum_switch=momentum_switch)
        ref_Y, ref_trace, _, P = _reference_tsne(X, **args)
        if shift:
            assert np.count_nonzero(P == 0.0) > P.shape[0]  # more zeros than the diagonal
        emb = tsne(X, **args)
        assert np.array_equal(emb.coordinates, ref_Y)
        assert np.array_equal(emb.objective_trace, ref_trace)

    @pytest.mark.parametrize("shift", [60.0, 0.0])
    def test_trace_matches_gathered_kl(self, shift):
        # the log form sums in another order than the P > 0 gather it
        # replaced, so the two agree to rounding, not bit for bit
        rng = keyed_rng(32)
        X = np.vstack([rng.normal(size=(14, 3)), rng.normal(size=(14, 3)) + shift])
        args = dict(perplexity=4, iterations=40, seed=3, exaggeration_iters=25,
                    momentum_switch=25)
        _, _, gathered, P = _reference_tsne(X, **args)
        off_diagonal_zeros = np.count_nonzero(P == 0.0) - P.shape[0]
        assert (off_diagonal_zeros > 0) == bool(shift)
        emb = tsne(X, **args)
        np.testing.assert_allclose(emb.objective_trace, gathered, rtol=0, atol=1e-12)

    def test_close_to_difference_form_on_short_runs(self):
        # before t-SNE amplifies rounding, the product form follows the
        # difference form to within a millionth of the layout's scale
        rng = keyed_rng(32)
        X = np.vstack([rng.normal(size=(14, 3)), rng.normal(size=(14, 3)) + 6.0])
        args = dict(perplexity=4, iterations=15, seed=3, exaggeration_iters=10,
                    momentum_switch=10)
        want_Y, want_trace = _allocating_tsne(X, **args)
        emb = tsne(X, **args)
        scale = np.abs(want_Y).max()
        assert np.abs(emb.coordinates - want_Y).max() <= 1e-6 * scale
        np.testing.assert_allclose(emb.objective_trace, want_trace, rtol=1e-10, atol=0)

    @pytest.mark.parametrize(
        "shift, iterations, exaggeration_iters, momentum_switch",
        [
            (60.0, 40, 25, 25),  # far-apart blobs: P has exact off-diagonal zeros
            (0.0, 15, 30, 10),  # the run ends during early exaggeration
        ],
    )
    def test_tiled_matches_blocked_reference_bitwise(self, shift, iterations,
                                                     exaggeration_iters, momentum_switch):
        X = _three_block_blobs(shift)
        args = dict(perplexity=10, iterations=iterations, seed=3,
                    exaggeration_iters=exaggeration_iters, momentum_switch=momentum_switch)
        ref_Y, ref_trace, _, P = _blocked_reference_tsne(X, **args)
        if shift:
            assert np.count_nonzero(P == 0.0) > P.shape[0]  # more zeros than the diagonal
        emb = tsne(X, **args)
        assert np.array_equal(emb.coordinates, ref_Y)
        assert np.array_equal(emb.objective_trace, ref_trace)

    @pytest.mark.parametrize("shift", [60.0, 0.0])
    def test_tiled_trace_matches_gathered_kl(self, shift):
        # the mirror tiles count an upper tile of 1 + d^2 twice, which
        # differs from the lower one in rounding only
        X = _three_block_blobs(shift)
        args = dict(perplexity=10, iterations=40, seed=3, exaggeration_iters=25,
                    momentum_switch=25)
        _, _, gathered, P = _blocked_reference_tsne(X, **args)
        off_diagonal_zeros = np.count_nonzero(P == 0.0) - P.shape[0]
        assert (off_diagonal_zeros > 0) == bool(shift)
        emb = tsne(X, **args)
        np.testing.assert_allclose(emb.objective_trace, gathered, rtol=0, atol=1e-12)

    def test_tiled_close_to_difference_form_on_short_runs(self):
        # summing each block pair once reorders sums only, so over three
        # blocks the descent stays as close to the difference form as
        # the untiled one does
        X = _three_block_blobs(6.0)
        args = dict(perplexity=10, iterations=15, seed=3, exaggeration_iters=10,
                    momentum_switch=10)
        want_Y, want_trace = _allocating_tsne(X, **args)
        emb = tsne(X, **args)
        scale = np.abs(want_Y).max()
        assert np.abs(emb.coordinates - want_Y).max() <= 1e-6 * scale
        np.testing.assert_allclose(emb.objective_trace, want_trace, rtol=1e-10, atol=0)

    def test_d2_plus_one_from_one_product(self):
        # both forms cancel |y_i|^2 + |y_j|^2 against 2 y_i.y_j, so each is
        # off by a few ulps of 1 + 2 max |y|^2; since 1 + d^2 >= 1 that
        # bounds the relative difference
        Y = 10.0 * keyed_rng(35).normal(size=(60, 2))
        Y[7] = Y[3]  # coincident points: d^2 = 0 off the diagonal
        sq = np.sum(Y * Y, axis=1)
        ones = np.ones(len(Y))
        A = np.column_stack([-2.0 * Y, 1.0 + sq, ones])
        B = np.column_stack([Y, ones, sq])
        D = np.maximum(A @ B.T, 1.0)
        np.fill_diagonal(D, 1.0)
        tol = 8 * np.finfo(float).eps * (1.0 + 2.0 * sq.max())
        np.testing.assert_allclose(D, _allocating_d2_plus_one(Y), rtol=tol, atol=0)

    def test_peak_memory_with_two_blocks(self):
        # two blocks of 150 rows: P's three upper tiles, their exaggerated
        # copies and the affinity tiles are each 3/4 of n x n
        assert _tsne_peak(300) <= 2.6

    def test_peak_memory_above_block_rows(self):
        # P is freed once its tiles are copied, before the exaggerated
        # copies and the affinity tiles are allocated
        for n in (540, 700, 1200):
            assert n > 2 * _DESCENT_ROWS
            assert _tsne_peak(n) <= 2.25, n

    def test_params_report_search(self):
        X = keyed_rng(37).normal(size=(30, 3))
        emb = tsne(X, perplexity=5, iterations=5, seed=0)
        assert emb.params["perplexity_capped_rows"] == 0
        assert 0.0 <= emb.params["perplexity_max_error_bits"] <= 1e-5

    def test_perplexity_floor(self):
        X = keyed_rng(31).normal(size=(20, 3))
        with pytest.raises(ConfigError):
            tsne(X, perplexity=1.0, iterations=10, seed=0)
