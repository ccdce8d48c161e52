"""Approximate k-nn search over random projection forests, with four
split-direction strategies, an exact brute-force oracle, and a benchmark CLI.
"""

from .core import Dataset, dispersion, random_unit_direction
from .forest import RpForest, build_forest, query_batch, query_knn, query_all_training
from .metrics import distance_error, missing_rate
from .oracle import NeighborList, NeighborTable, all_true_neighbors, exact_knn
from .stats import TTestResult, two_sample_ttest
from .strategies import Method, StrategyConfig
from .tree import TreeConfig

__all__ = [
    "Dataset",
    "Method",
    "NeighborList",
    "NeighborTable",
    "RpForest",
    "StrategyConfig",
    "TTestResult",
    "TreeConfig",
    "all_true_neighbors",
    "build_forest",
    "dispersion",
    "distance_error",
    "exact_knn",
    "missing_rate",
    "query_batch",
    "query_knn",
    "query_all_training",
    "random_unit_direction",
    "two_sample_ttest",
]

__version__ = "0.1.0"
