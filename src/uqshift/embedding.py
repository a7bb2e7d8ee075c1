"""Low-dimensional embeddings: PCA and exact t-SNE.

``pca`` returns arrays.  ``tsne`` is exact O(n^2) t-SNE: per-point
Gaussian bandwidths found by binary search on the conditional-distribution
entropy, symmetrized joint probabilities, Student-t low-dimensional
affinities, and momentum gradient descent with an early exaggeration
phase; its ``Embedding`` holds the coordinates, the search's stats and
the KL trace.  Everything is deterministic for a given seed.

Memory: the affinities are built in one n x n buffer.  The squared
distances are one product, doubled in place and subtracted from
|a|^2 + |b|^2 64 rows at a time.  The bandwidth search bisects 64 rows
at a time, each block gathered from its own rows less the diagonal,
and writes each finished block's conditional rows over its distances.
Symmetrization forms P_IJ + P_JI^T once per pair of the descent's
blocks, writes it to both tiles, and then divides by 2n.  So
``joint_probabilities`` holds one n x n array plus a few (64, n) blocks
and one tile.  ``tsne`` holds about two: P with its P log P temporary,
then P and its upper tiles, then in the descent three sets of upper
tiles (P, its exaggerated copy and the affinities), each a little over
half of n x n, and one work tile; 2.5 with the large tiles of two
blocks (n = 300).

The descent splits the rows into equal blocks of at most
``_DESCENT_ROWS`` and works on the tiles of block pairs I <= J only:
P and the Student-t affinities are symmetric, so an off-diagonal tile
stands for its mirror image too and counts twice in the trace and in
the normalizer Z.  It holds P's upper tiles, tile by tile contiguous,
an exaggerated copy of them during early exaggeration only, one
affinity tile W_IJ per block pair, and one tile-sized work buffer,
plus thin buffers: n x 4 A = [-2Y, 1 + |y|^2, 1] and B = [Y, 1, |y|^2],
whose product A_I B_J^T is the tile of 1 + d^2, and n x 3 [Y, 1], whose
product with a tile of gradient weights gives their product with Y and
their row sums at once.  The full P is freed once its upper tiles are
copied, before the exaggerated copies are made.  An iteration makes two
passes over the tiles: the first takes 1 + d^2, its log against P for
the trace, W = 1 / (1 + d^2) and Z; the second the gradient weights
M_IJ = (P_IJ - W_IJ / Z) W_IJ, which add M_IJ [Y, 1]_J to block I's
gradient and, off the diagonal, M_IJ^T [Y, 1]_I to block J's.  An
iteration allocates no n x n array, and with one block
(n <= ``_DESCENT_ROWS``) it is the untiled loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .dataset import freeze
from .errors import ConfigError, DataError
from .rng import keyed_rng

_LOG2 = math.log(2.0)
_SEARCH_TOL = 1e-5  # bits
_SEARCH_MAX_ITER = 200
_SEARCH_ROWS = 64  # rows bisected, or distances finished, together
_DESCENT_ROWS = 240  # most rows in one block of the descent's tiles
_EXAGGERATION = 12.0  # P's factor in the early phase; the step is n / _EXAGGERATION
_MOMENTUM = (0.5, 0.8)  # before and from momentum_switch


@dataclass(frozen=True)
class Embedding:
    coordinates: np.ndarray
    params: dict
    objective_trace: np.ndarray

    def __post_init__(self):
        coords = freeze(self, "coordinates", float)
        if coords.ndim != 2:
            raise DataError(f"embedding coordinates must be 2-D, got shape {coords.shape}")
        if not np.all(np.isfinite(coords)):
            raise DataError("embedding coordinates contain non-finite values")


def pca(features: np.ndarray, n_components: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Principal component projection.

    Returns three arrays: the (n, n_components) projected coordinates,
    the orthonormal (d, n_components) component basis (columns are
    components), and the per-component variances of the projected data
    (population convention).  Component signs are fixed so the
    largest-magnitude basis entry of each component is positive.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2:
        raise DataError("pca expects a 2-D feature matrix")
    n, d = X.shape
    if not 1 <= n_components <= min(n, d):
        raise ConfigError(
            f"n_components must be in [1, min(n, d)] = [1, {min(n, d)}], got {n_components}"
        )
    centered = X - X.mean(axis=0)
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    basis = vt[:n_components].T.copy()
    for j in range(n_components):
        pivot = int(np.argmax(np.abs(basis[:, j])))
        if basis[pivot, j] < 0:
            basis[:, j] = -basis[:, j]
    coords = centered @ basis
    variances = (svals[:n_components] ** 2) / n
    return coords, basis, variances


def sq_distances(A: np.ndarray, B: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances between the rows of A and of B
    (default A), clipped at zero.  The diagonal of A against itself is
    left as computed, not forced to zero.  The result is built in the
    buffer of the one product A B^T; |a|^2 + |b|^2 is formed 64 rows at a
    time."""
    B = A if B is None else B
    sq_a = np.sum(A * A, axis=1)
    sq_b = sq_a if B is A else np.sum(B * B, axis=1)
    d2 = A @ B.T  # one product: A against itself goes through syrk
    d2 *= 2.0
    for start in range(0, d2.shape[0], _SEARCH_ROWS):
        rows = slice(start, start + _SEARCH_ROWS)
        np.subtract(sq_a[rows, None] + sq_b[None, :], d2[rows], out=d2[rows])
    np.maximum(d2, 0.0, out=d2)
    return d2


def _bandwidth_search(
    sq_dists: np.ndarray, perplexity: float, max_iter: int, out: np.ndarray,
) -> tuple[np.ndarray, int, float]:
    """Row-stochastic conditional affinities written into ``out``, with
    per-point precisions beta_i = 1 / (2 sigma_i^2) by bisection on blocks
    of rows; the diagonal of ``sq_dists`` is not read.

    Every row doubles or halves beta until the entropy of p(.|i) is
    bracketed, then takes midpoints, and stops within ``_SEARCH_TOL`` bits
    of log2(perplexity) or keeps its try at ``max_iter``.  The entropy is
    H = log s + beta <p, d> nats for p = w / s and w = exp(-beta d).  Each
    block reads only its own rows, so ``out`` may be ``sq_dists``: a
    finished block's rows replace its distances.  Returns (betas, the rows
    that hit ``max_iter``, the largest |entropy - log2(perplexity)| in bits).
    """
    n = sq_dists.shape[0]
    if max_iter < 1:
        raise ConfigError(f"max_iter must be >= 1, got {max_iter}")
    target = math.log2(perplexity)
    columns = np.arange(n)
    betas = np.ones(n)
    capped, worst = 0, 0.0
    for start in range(0, n, _SEARCH_ROWS):
        stop = min(start + _SEARCH_ROWS, n)
        off_diagonal = columns[None, :] != columns[start:stop, None]
        d = sq_dists[start:stop][off_diagonal].reshape(stop - start, n - 1)
        d -= d.min(axis=1, keepdims=True)
        kept = np.empty_like(d)
        w_buf = np.empty_like(d)
        rows = np.arange(d.shape[0])
        beta = np.ones(rows.size)
        lo = np.zeros(rows.size)
        hi = np.full(rows.size, math.inf)
        for it in range(max_iter):
            w = w_buf[:rows.size]
            np.multiply(-beta[:, None], d, out=w)
            np.exp(w, out=w)
            s = w.sum(axis=1)
            entropy = (np.log(s) + beta * np.einsum("ij,ij->i", w, d) / s) / _LOG2
            diff = entropy - target
            done = np.abs(diff) <= _SEARCH_TOL
            narrow = diff > 0  # too flat: narrow the kernel
            step = np.where(
                narrow,
                np.where(hi == math.inf, beta * 2.0, 0.5 * (beta + hi)),
                np.where(lo == 0.0, beta / 2.0, 0.5 * (beta + lo)),
            )
            lo = np.where(narrow, beta, lo)
            hi = np.where(narrow, hi, beta)
            beta = np.where(done, beta, step)
            if it == max_iter - 1:
                capped += int(np.count_nonzero(~done))
                done[:] = True
            if not done.any():
                continue
            kept[rows[done]] = w[done] / s[done, None]
            betas[start + rows[done]] = beta[done]
            worst = max(worst, float(np.abs(diff[done]).max()))
            todo = ~done
            rows, d, beta, lo, hi = rows[todo], d[todo], beta[todo], lo[todo], hi[todo]
            if not rows.size:
                break
        out[start:stop][off_diagonal] = kept.ravel()
        np.fill_diagonal(out[start:stop, start:stop], 0.0)
    return betas, capped, worst


def joint_probabilities(features: np.ndarray, perplexity: float) -> tuple[np.ndarray, dict]:
    """The symmetrized joint affinity matrix P (non-negative, sums to 1)
    and the bandwidth search's stats: ``perplexity_capped_rows`` (rows
    that hit the iteration cap) and ``perplexity_max_error_bits`` (the
    largest |entropy - log2 perplexity| over all rows).
    """
    P = sq_distances(np.asarray(features, dtype=float))
    _, capped, worst = _bandwidth_search(P, perplexity, _SEARCH_MAX_ITER, out=P)
    stats = {"perplexity_capped_rows": capped, "perplexity_max_error_bits": worst}
    # (cond + cond^T) / 2n in place: addition commutes exactly, so one
    # sum serves a tile and its mirror
    for I, J, diagonal in _block_pairs(P.shape[0]):
        S = P[I, J] + P[J, I].T
        P[I, J] = S
        if not diagonal:
            P[J, I] = S.T
    P /= 2.0 * P.shape[0]
    return P, stats


def _block_pairs(n: int) -> list[tuple[slice, slice, bool]]:
    """The descent's tiles: the rows cut into ceil(n / _DESCENT_ROWS)
    blocks of equal size to one row, and each pair of blocks I <= J as
    (rows of I, rows of J, I == J), the diagonal pairs first."""
    k = -(-n // _DESCENT_ROWS)
    edges = [b * n // k for b in range(k + 1)]
    blocks = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    return ([(I, I, True) for I in blocks]
            + [(I, J, False) for b, I in enumerate(blocks) for J in blocks[b + 1:]])


def tsne(
    features: np.ndarray,
    perplexity: float = 30.0,
    iterations: int = 1000,
    seed: int = 0,
    exaggeration_iters: int = 250,
    momentum_switch: int = 250,
) -> Embedding:
    """Exact t-SNE to two dimensions at learning rate n / 12, with P times
    12 before ``exaggeration_iters`` and momentum 0.5 before
    ``momentum_switch``, 0.8 from it.  The objective trace records the
    true KL divergence (without the exaggeration factor) at every
    iteration, in log form: sum P log P + sum P log(1 + d^2) + (sum P) log
    sum_{i != j} 1 / (1 + d^2_ij).  The result's ``params`` are the
    stats that ``joint_probabilities`` returns beside P.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2:
        raise DataError("tsne expects a 2-D feature matrix")
    n = X.shape[0]
    if perplexity <= 1.0:
        raise ConfigError(f"perplexity must be > 1, got {perplexity}")
    if n <= 3 * perplexity:
        raise ConfigError(f"tsne needs n > 3 * perplexity; n={n}, perplexity={perplexity}")
    if iterations < 1:
        raise ConfigError("iterations must be >= 1")
    if not np.all(np.isfinite(X)):
        raise DataError("tsne input contains non-finite values")

    P, search = joint_probabilities(X, perplexity)
    lr = n / _EXAGGERATION

    rng = keyed_rng(seed)
    Y = 1e-4 * rng.standard_normal((n, 2))
    velocity = np.zeros_like(Y)
    trace = np.empty(iterations)

    # The trace needs no gather of P > 0: P's zeros and the diagonal
    # (log 1) add exactly 0.
    p_log_p = float(xlogy(P, P).sum())
    p_sum = float(P.sum())
    tiles = _block_pairs(n)
    P_tiles = [np.ascontiguousarray(P[I, J]) for I, J, _ in tiles]
    del P
    P_eff = [t * _EXAGGERATION for t in P_tiles] if exaggeration_iters > 0 else P_tiles
    W_tiles = [np.empty_like(t) for t in P_tiles]
    work = np.empty(max(t.size for t in P_tiles))
    A = np.ones((n, 4))  # [-2Y, 1 + |y|^2, 1]
    B = np.ones((n, 4))  # [Y, 1, |y|^2]
    Y1 = np.ones((n, 3))  # [Y, 1]
    G = np.empty((n, 3))

    for it in range(iterations):
        if it == exaggeration_iters:
            P_eff = P_tiles  # frees the exaggerated copies
        sq = np.sum(Y * Y, axis=1)
        np.multiply(-2.0, Y, out=A[:, :2])
        np.add(1.0, sq, out=A[:, 2])
        B[:, :2] = Y
        B[:, 3] = sq
        p_log_d = 0.0
        Z = 0.0
        for (I, J, diagonal), Pt, W in zip(tiles, P_tiles, W_tiles):
            D = work[:W.size].reshape(W.shape)
            np.matmul(A[I], B[J].T, out=D)  # D = 1 + d^2
            np.maximum(D, 1.0, out=D)
            if diagonal:
                np.fill_diagonal(D, 1.0)
            np.log(D, out=W)
            weight = 1.0 if diagonal else 2.0  # and the mirror tile
            p_log_d += weight * float(np.vdot(Pt, W))
            np.divide(1.0, D, out=W)
            if diagonal:
                np.fill_diagonal(W, 0.0)
            Z += weight * W.sum()
        trace[it] = p_log_p + p_log_d + p_sum * math.log(Z)

        Y1[:, :2] = Y
        for (I, J, diagonal), Pt, W in zip(tiles, P_eff, W_tiles):
            M = work[:W.size].reshape(W.shape)
            np.multiply(W, 1.0 / Z, out=M)  # M = Q
            np.subtract(Pt, M, out=M)
            np.multiply(M, W, out=M)
            if diagonal:  # the diagonal tiles come first and set G
                np.matmul(M, Y1[I], out=G[I])  # G = [M Y, M 1]
            else:
                G[I] += M @ Y1[J]
                G[J] += M.T @ Y1[I]
        grad = 4.0 * (G[:, 2:] * Y - G[:, :2])
        momentum = _MOMENTUM[it >= momentum_switch]
        velocity = momentum * velocity - lr * grad
        Y = Y + velocity
        Y = Y - Y.mean(axis=0)

    return Embedding(coordinates=Y, params=search, objective_trace=trace)
