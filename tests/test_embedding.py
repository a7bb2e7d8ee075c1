import math

import numpy as np
import pytest
from scipy.special import xlogy

from uqshift.embedding import (
    conditional_probabilities,
    joint_probabilities,
    pca,
    tsne,
)
from uqshift.errors import ConfigError, DataError
from uqshift.rng import keyed_rng


def _sq_dists(X):
    diff = X[:, None, :] - X[None, :, :]
    return np.sum(diff * diff, axis=-1)


def _reference_tsne(X, perplexity, iterations, seed, exaggeration_iters,
                    momentum_switch, early_exaggeration=12.0,
                    initial_momentum=0.5, final_momentum=0.8):
    """The allocating descent loop that ``tsne`` must reproduce bit for bit.

    Returns the final Y, the log-form KL trace, the KL of every iteration
    gathered over P > 0 as sum P log(P / max(Q, 1e-300)), and P.
    """
    P = joint_probabilities(X, perplexity)
    p_log_p = float(xlogy(P, P).sum())
    lr = X.shape[0] / early_exaggeration
    Y = 1e-4 * keyed_rng(seed).standard_normal((X.shape[0], 2))
    velocity = np.zeros_like(Y)
    trace = np.empty(iterations)
    gathered = np.empty(iterations)
    for it in range(iterations):
        sq = np.sum(Y * Y, axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (Y @ Y.T)
        np.maximum(d2, 0.0, out=d2)
        np.fill_diagonal(d2, 0.0)
        W = 1.0 / (1.0 + d2)
        np.fill_diagonal(W, 0.0)
        Q = W / W.sum()
        trace[it] = (p_log_p + float(np.vdot(P, np.log(1.0 + d2)))
                     + float(P.sum()) * math.log(W.sum()))
        mask = P > 0
        gathered[it] = float(np.sum(P[mask] * np.log(P[mask] / np.maximum(Q[mask], 1e-300))))
        P_eff = P * early_exaggeration if it < exaggeration_iters else P
        M = (P_eff - Q) * W
        grad = 4.0 * (M.sum(axis=1)[:, None] * Y - M @ Y)
        momentum = initial_momentum if it < momentum_switch else final_momentum
        velocity = momentum * velocity - lr * grad
        Y = Y + velocity
        Y = Y - Y.mean(axis=0)
    return Y, trace, gathered, P


class TestPca:
    def test_matches_eigh_oracle(self):
        rng = keyed_rng(12)
        X = rng.normal(size=(40, 6)) @ rng.normal(size=(6, 6))
        emb, basis, variances = pca(X, 3)
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
        emb, basis, _ = pca(X, 3)
        centered = X - X.mean(axis=0)
        np.testing.assert_allclose(emb.coordinates @ basis.T, centered, atol=1e-10)

    def test_projection_consistency(self):
        rng = keyed_rng(16)
        X = rng.normal(size=(15, 4))
        emb, basis, _ = pca(X, 2)
        centered = X - X.mean(axis=0)
        np.testing.assert_allclose(emb.coordinates, centered @ basis, atol=1e-12)


class TestConditionalProbabilities:
    def test_entropy_matches_perplexity(self):
        rng = keyed_rng(20)
        X = rng.normal(size=(30, 4))
        perplexity = 8.0
        P, sigmas = conditional_probabilities(_sq_dists(X), perplexity)
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
        P, _ = conditional_probabilities(_sq_dists(X), 5.0)
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_array_equal(np.diag(P), np.zeros(20))

    def test_sigmas_positive(self):
        rng = keyed_rng(22)
        X = rng.normal(size=(20, 3))
        _, sigmas = conditional_probabilities(_sq_dists(X), 5.0)
        assert np.all(sigmas > 0)

    def test_wider_sigma_for_sparse_point(self):
        # a point far from everything needs a wider bandwidth to reach
        # the same entropy
        X = np.vstack([keyed_rng(23).normal(size=(15, 2)), [[40.0, 40.0]]])
        _, sigmas = conditional_probabilities(_sq_dists(X), 5.0)
        assert sigmas[-1] > sigmas[:-1].max()


class TestJointProbabilities:
    def test_symmetric_and_normalized(self):
        rng = keyed_rng(24)
        X = rng.normal(size=(18, 3))
        P = joint_probabilities(X, 5.0)
        np.testing.assert_allclose(P, P.T, atol=1e-15)
        assert P.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(P >= 0)


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

    def test_perplexity_floor(self):
        X = keyed_rng(31).normal(size=(20, 3))
        with pytest.raises(ConfigError):
            tsne(X, perplexity=1.0, iterations=10, seed=0)
