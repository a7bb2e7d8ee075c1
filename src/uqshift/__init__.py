"""Uncertainty quantification for regression models under cluster shift.

Estimators: Monte Carlo dropout, two anomaly-detection scores built on
k-nearest-neighbor distances, and a Gaussian process fit to model
residuals.  The rest of the package is the experimental harness around
them: synthetic data, 2-D embeddings, density clustering, cluster-held-
out splits, MLP training, and the evaluation protocol.
"""

__version__ = "0.1.0"

import os
import sys

# One BLAS thread: threaded dot products and LAPACK factorizations sum in
# an order that depends on the thread count, which would move output
# bits.  OpenBLAS reads these when numpy is first imported, so a caller
# that imported numpy before this package keeps its own setting.
if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

# The names of the README's library example; everything else is imported
# from its module.
from .mlp import predict, train_mlp
from .uq_ad import ad_dd_scores, fit_ad
from .uq_dropout import McDropoutConfig, mc_dropout
from .uq_rio import fit_rio, rio_predict

__all__ = [
    "McDropoutConfig",
    "ad_dd_scores",
    "fit_ad",
    "fit_rio",
    "mc_dropout",
    "predict",
    "rio_predict",
    "train_mlp",
]
