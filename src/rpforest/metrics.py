"""Search-quality metrics.

Two quality measures over a truth table (exact k-nn) and a found table
(forest k-nn): the average missing rate (fraction of true neighbors not
retrieved) and the average distance error (mean excess of the found k-th
neighbor distance over the true k-th neighbor distance).
"""

from typing import Sequence

import numpy as np

from .forest import NeighborList


def _check_tables(truth: Sequence[NeighborList], found: Sequence[NeighborList], k: int):
    if len(truth) != len(found):
        raise ValueError(f"row-count mismatch: truth has {len(truth)}, found has {len(found)}")
    if len(truth) == 0:
        raise ValueError("empty tables")
    for i, row in enumerate(truth):
        if len(row) != k:
            raise ValueError(f"truth row {i} has {len(row)} entries, expected k={k}")


def missing_rate(
    truth: Sequence[NeighborList], found: Sequence[NeighborList], k: int
) -> tuple[float, np.ndarray]:
    """Average missing rate: sum of per-point missed true neighbors over n*k."""
    _check_tables(truth, found, k)
    n = len(truth)
    missed = np.empty(n, dtype=np.intp)
    for i in range(n):
        missed[i] = np.setdiff1d(truth[i].ids, found[i].ids, assume_unique=True).size
    return float(missed.sum() / (n * k)), missed


def distance_error(
    truth: Sequence[NeighborList], found: Sequence[NeighborList], k: int
) -> tuple[float, int]:
    """Average excess of the found k-th distance over the true k-th distance.

    A found row shorter than k contributes its furthest available distance;
    empty found rows are excluded from the average and counted separately.
    Returns (mean error, number of excluded rows).
    """
    _check_tables(truth, found, k)
    errors = []
    excluded = 0
    for true_row, found_row in zip(truth, found):
        if len(found_row) == 0:
            excluded += 1
            continue
        d_true = true_row.distances[k - 1]
        d_found = found_row.distances[min(k, len(found_row)) - 1]
        errors.append(d_found - d_true)
    if not errors:
        return float("nan"), excluded
    return float(np.mean(errors)), excluded
