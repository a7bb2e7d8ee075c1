"""Low-dimensional embeddings: PCA and exact t-SNE.

The t-SNE here is the exact O(n^2) variant: per-point Gaussian
bandwidths found by binary search on the conditional-distribution
entropy, symmetrized joint probabilities, Student-t low-dimensional
affinities, and plain momentum gradient descent with an early
exaggeration phase.  Everything is deterministic for a given seed.

Memory: the descent holds the n x n joint affinities P, an exaggerated
copy of P during early exaggeration only, and two n x n work buffers D
and W reused by every iteration: an iteration allocates no n x n array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import xlogy

from .errors import ConfigError, DataError
from .rng import keyed_rng

_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class Embedding:
    coordinates: np.ndarray
    method: str
    params: dict = field(default_factory=dict)
    objective_trace: np.ndarray | None = None

    def __post_init__(self):
        coords = np.asarray(self.coordinates, dtype=float)
        if coords.ndim != 2:
            raise DataError(f"embedding coordinates must be 2-D, got shape {coords.shape}")
        if not np.all(np.isfinite(coords)):
            raise DataError("embedding coordinates contain non-finite values")
        coords = coords.copy()
        coords.flags.writeable = False
        object.__setattr__(self, "coordinates", coords)


def pca(features: np.ndarray, n_components: int) -> tuple[Embedding, np.ndarray, np.ndarray]:
    """Principal component projection.

    Returns the projected coordinates, the orthonormal component basis
    (columns are components), and the per-component variances of the
    projected data (population convention).  Component signs are fixed
    so the largest-magnitude basis entry of each component is positive.
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
    emb = Embedding(coordinates=coords, method="pca", params={"n_components": int(n_components)})
    return emb, basis, variances


def sq_distances(A: np.ndarray, B: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances between the rows of A and of B
    (default A), clipped at zero.  The diagonal of A against itself is
    left as computed, not forced to zero."""
    B = A if B is None else B
    sq_a = np.sum(A * A, axis=1)
    sq_b = sq_a if B is A else np.sum(B * B, axis=1)
    d2 = sq_a[:, None] + sq_b[None, :] - 2.0 * (A @ B.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def conditional_probabilities(
    sq_dists: np.ndarray, perplexity: float, tol: float = 1e-5, max_iter: int = 200
) -> tuple[np.ndarray, np.ndarray]:
    """Row-stochastic conditional affinities with per-point bandwidths.

    For each point i a precision beta_i = 1 / (2 sigma_i^2) is found by
    binary search so that the entropy of p(.|i) equals log2(perplexity)
    within ``tol`` bits.  Returns (P_conditional, sigmas).
    """
    n = sq_dists.shape[0]
    target = math.log2(perplexity)
    P = np.zeros((n, n))
    betas = np.ones(n)
    others = np.arange(n)
    for i in range(n):
        mask = others != i
        d = sq_dists[i, mask]
        dmin = d.min() if d.size else 0.0
        beta, lo, hi = 1.0, 0.0, math.inf
        p = np.full(d.shape, 1.0 / max(d.size, 1))
        for _ in range(max_iter):
            w = np.exp(-beta * (d - dmin))
            s = w.sum()
            p = w / s
            nz = p > 0
            entropy = -float(np.sum(p[nz] * np.log(p[nz]))) / _LOG2
            diff = entropy - target
            if abs(diff) <= tol:
                break
            if diff > 0:  # too flat: narrow the kernel
                lo = beta
                beta = beta * 2.0 if hi == math.inf else 0.5 * (beta + hi)
            else:
                hi = beta
                beta = beta / 2.0 if lo == 0.0 else 0.5 * (beta + lo)
        P[i, mask] = p
        betas[i] = beta
    sigmas = np.sqrt(1.0 / (2.0 * betas))
    return P, sigmas


def joint_probabilities(features: np.ndarray, perplexity: float) -> np.ndarray:
    """Symmetrized joint affinity matrix P (non-negative, sums to 1)."""
    d2 = sq_distances(np.asarray(features, dtype=float))
    np.fill_diagonal(d2, 0.0)
    cond, _ = conditional_probabilities(d2, perplexity)
    n = d2.shape[0]
    return (cond + cond.T) / (2.0 * n)


def tsne(
    features: np.ndarray,
    perplexity: float = 30.0,
    iterations: int = 1000,
    seed: int = 0,
    learning_rate: float | None = None,
    early_exaggeration: float = 12.0,
    exaggeration_iters: int = 250,
    momentum_switch: int = 250,
    initial_momentum: float = 0.5,
    final_momentum: float = 0.8,
) -> Embedding:
    """Exact t-SNE to two dimensions.

    The objective trace records the true KL divergence (without the
    exaggeration factor) at every iteration, in log form: sum P log P +
    sum P log(1 + d^2) + (sum P) log sum_{i != j} 1 / (1 + d^2_ij).  The
    learning rate defaults to n / early_exaggeration.
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

    P = joint_probabilities(X, perplexity)
    lr = float(learning_rate) if learning_rate is not None else n / early_exaggeration

    rng = keyed_rng(seed)
    Y = 1e-4 * rng.standard_normal((n, 2))
    velocity = np.zeros_like(Y)
    trace = np.empty(iterations)

    # Every n x n intermediate goes into D or W, allocated once.  The ufunc
    # calls keep the operations of the allocating form, and their order,
    # so coordinates and trace stay bit-identical to it.  The trace needs no
    # gather of P > 0: P's zeros and the diagonal (log 1) add exactly 0.
    p_log_p = float(xlogy(P, P).sum())
    p_sum = float(P.sum())
    D = np.empty((n, n))
    W = np.empty((n, n))
    P_eff = P * early_exaggeration if exaggeration_iters > 0 else P

    for it in range(iterations):
        if it == exaggeration_iters:
            P_eff = P  # frees the exaggerated copy
        sq = np.sum(Y * Y, axis=1)
        np.matmul(Y, Y.T, out=D)
        np.multiply(2.0, D, out=D)
        np.add(sq[:, None], sq[None, :], out=W)
        np.subtract(W, D, out=D)
        np.maximum(D, 0.0, out=D)
        np.fill_diagonal(D, 0.0)
        np.add(1.0, D, out=D)
        np.log(D, out=W)
        p_log_d = float(np.vdot(P, W))
        np.divide(1.0, D, out=W)
        np.fill_diagonal(W, 0.0)
        Z = W.sum()
        np.divide(W, Z, out=D)  # D = Q
        trace[it] = p_log_p + p_log_d + p_sum * math.log(Z)

        np.subtract(P_eff, D, out=D)
        np.multiply(D, W, out=D)  # D = M
        grad = 4.0 * (D.sum(axis=1)[:, None] * Y - D @ Y)
        momentum = initial_momentum if it < momentum_switch else final_momentum
        velocity = momentum * velocity - lr * grad
        Y = Y + velocity
        Y = Y - Y.mean(axis=0)

    params = {
        "perplexity": float(perplexity),
        "iterations": int(iterations),
        "seed": int(seed),
        "learning_rate": lr,
        "early_exaggeration": float(early_exaggeration),
    }
    return Embedding(coordinates=Y, method="tsne", params=params, objective_trace=trace)
