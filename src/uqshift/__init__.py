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

from .clustering import ClusterLabels, SplitSpec, dbscan, make_cluster_splits
from .dataset import Dataset, ScalerParams, fit_scaler, generate_synthetic, load_dataset
from .embedding import Embedding, pca, tsne
from .errors import ConfigError, DataError, NumericalError, TrainingDivergedError, UqshiftError
from .evaluation import boxplot_stats, cross_cluster_table, r_squared, removal_curve
from .mlp import HyperparamGrid, MlpModel, hyperparameter_search, predict, train_mlp
from .uq_ad import AdModel, ad_dd_scores, ad_ld_scores, fit_ad, standard_normal_quantile
from .uq_dropout import McDropoutConfig, mc_dropout
from .uq_rio import KernelConfig, RioModel, fit_rio, rio_predict

__all__ = [
    "AdModel",
    "ClusterLabels",
    "ConfigError",
    "DataError",
    "Dataset",
    "Embedding",
    "HyperparamGrid",
    "KernelConfig",
    "McDropoutConfig",
    "MlpModel",
    "NumericalError",
    "RioModel",
    "ScalerParams",
    "SplitSpec",
    "TrainingDivergedError",
    "UqshiftError",
    "ad_dd_scores",
    "ad_ld_scores",
    "boxplot_stats",
    "cross_cluster_table",
    "dbscan",
    "fit_ad",
    "fit_rio",
    "fit_scaler",
    "generate_synthetic",
    "hyperparameter_search",
    "load_dataset",
    "make_cluster_splits",
    "mc_dropout",
    "pca",
    "predict",
    "r_squared",
    "removal_curve",
    "rio_predict",
    "standard_normal_quantile",
    "train_mlp",
    "tsne",
]
