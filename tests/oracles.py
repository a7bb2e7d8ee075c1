"""Brute-force references shared by the test modules."""

import math

import numpy as np


def composite_kernel(xi, yhat_i, xj, yhat_j, config) -> float:
    """RIO's kernel for one pair, term by term: a squared exponential over
    the inputs plus one over the network outputs, with ``config``'s
    (``uq_rio.KernelConfig``) signal variances and length scales."""
    d2x = float(np.sum((np.asarray(xi, dtype=float) - np.asarray(xj, dtype=float)) ** 2))
    d2y = (float(yhat_i) - float(yhat_j)) ** 2
    term_in = config.signal_variance_in * math.exp(-d2x / (2.0 * config.length_scale_in ** 2))
    term_out = config.signal_variance_out * math.exp(-d2y / (2.0 * config.length_scale_out ** 2))
    return term_in + term_out
