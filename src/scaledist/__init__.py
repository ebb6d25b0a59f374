"""Standardisation and Minkowski distance construction for high-dimensional,
low-sample-size clustering and classification, plus the simulation harness to
compare design choices."""

from .core import (
    CondensedDistanceMatrix,
    condensed_index,
    read_condensed,
    read_matrix_csv,
    write_condensed,
    write_matrix_csv,
)
from .distance import cross, cross_orders, minkowski, pairwise, pairwise_orders
from .evaluate import adjusted_rand_index, misclassification_rate
from .harness import ExperimentConfig, run_experiment, summarise
from .learn import Clustering, Dendrogram, cut_tree, knn_classify, linkage, pam
from .simgen import GeneratedDataset, SetupSpec, generate, setup_catalog
from .standardise import METHODS, BoxplotParams, Standardiser, fit_standardiser

__version__ = "0.1.0"

__all__ = [
    "CondensedDistanceMatrix", "condensed_index", "read_condensed", "read_matrix_csv",
    "write_condensed", "write_matrix_csv",
    "cross", "cross_orders", "minkowski", "pairwise", "pairwise_orders",
    "adjusted_rand_index", "misclassification_rate",
    "ExperimentConfig", "run_experiment", "summarise",
    "Clustering", "Dendrogram", "cut_tree", "knn_classify", "linkage", "pam",
    "GeneratedDataset", "SetupSpec", "generate", "setup_catalog",
    "BoxplotParams", "METHODS", "Standardiser", "fit_standardiser",
    "__version__",
]
