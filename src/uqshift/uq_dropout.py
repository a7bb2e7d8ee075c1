"""Monte Carlo dropout uncertainty.

T stochastic forward passes with dropout left on; ``mc_dropout`` returns
two arrays, the per-point mean (the prediction) and the population
standard deviation over the passes (the uncertainty).  Pass t draws its
masks from the stream keyed (seed, t, layer), so the estimate is
invariant to pass order and to how points are batched.

Cost: the first hidden layer sees no mask, so a call computes its
activations once; a pass folds each hidden layer's mask into the rows
of the next weight matrix, which gives the same bits as masking the
activations, and so starts at the second layer.  Memory: a call holds
the first layer's activations, one (rows, width) buffer per further
hidden layer, one masked copy of every weight matrix after the first
and the (passes, rows) sample matrix; every pass writes into those
buffers, its output layer straight into its row of the samples, so a
pass allocates only its per-layer masks of one entry per unit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import require
from .dataset import as_matrix
from .errors import DataError
from .mlp import MlpModel, inference_masks, predict


@dataclass(frozen=True)
class McDropoutConfig:
    passes: int = 100
    seed: int = 0

    def __post_init__(self):
        require("uq", "passes", self.passes)


def mc_dropout(model: MlpModel, features: np.ndarray,
               config: McDropoutConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-point means and spreads over stochastic dropout passes.

    With dropout disabled on the model there is nothing stochastic to
    sample, so the result collapses to the deterministic prediction with
    uncertainty exactly zero.
    """
    X = as_matrix(features, "features", min_rows=1)

    if model.dropout_rate == 0.0:
        point = predict(model, X)
        return point, np.zeros_like(point)

    # Masking the rows of the next weight matrix instead of the columns of
    # the activations leaves every product inside the matmul the same
    # double, so each pass is bit-identical to ``forward``'s.
    keep = 1.0 - model.dropout_rate
    weights, biases = model.weights, model.biases
    first = np.matmul(model.scaler.transform(X), weights[0])
    first += biases[0]
    np.maximum(first, 0.0, out=first)
    first /= keep
    buffers = [np.empty((X.shape[0], width)) for width in model.hidden_sizes[1:]]
    masked = [np.empty_like(w) for w in weights[1:]]
    samples = np.empty((config.passes, X.shape[0]))
    for t in range(config.passes):
        h = first
        for i, mask in enumerate(inference_masks(model, config.seed, t), start=1):
            w = np.multiply(mask[:, None], weights[i], out=masked[i - 1])
            if i == len(weights) - 1:
                column = samples[t].reshape(-1, 1)
                np.matmul(h, w, out=column)
                column += biases[i]
            else:
                h = np.matmul(h, w, out=buffers[i - 1])
                h += biases[i]
                np.maximum(h, 0.0, out=h)
                h /= keep
    means = samples.mean(axis=0)
    spreads = samples.std(axis=0)  # population convention
    if not np.all(spreads >= 0.0):
        raise DataError("dropout uncertainty must be non-negative, got NaN")
    return means, spreads
