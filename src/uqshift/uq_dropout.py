"""Monte Carlo dropout uncertainty.

T stochastic forward passes with dropout left on; ``mc_dropout`` returns
two arrays, the per-point mean (the prediction) and the population
standard deviation over the passes (the uncertainty).  Pass t draws its
masks from the stream keyed (seed, t, layer), so the estimate is
invariant to pass order and to how points are batched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .mlp import MlpModel, predict


@dataclass(frozen=True)
class McDropoutConfig:
    passes: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.passes < 1:
            raise ConfigError(f"passes must be >= 1, got {self.passes}")


def mc_dropout(model: MlpModel, features: np.ndarray,
               config: McDropoutConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-point means and spreads over stochastic dropout passes.

    With dropout disabled on the model there is nothing stochastic to
    sample, so the result collapses to the deterministic prediction with
    uncertainty exactly zero.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1:
        raise DataError("mc_dropout expects a non-empty 2-D feature matrix")

    if model.dropout_rate == 0.0:
        point = predict(model, X)
        return point, np.zeros_like(point)

    samples = np.empty((config.passes, X.shape[0]))
    for t in range(config.passes):
        samples[t] = predict(model, X, dropout_active=True, seed=config.seed, pass_index=t)
    means = samples.mean(axis=0)
    spreads = samples.std(axis=0)  # population convention
    if not np.all(spreads >= 0.0):
        raise DataError("dropout uncertainty must be non-negative, got NaN")
    return means, spreads
