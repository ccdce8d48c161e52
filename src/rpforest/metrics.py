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
    # (row, id) keys: a true neighbour is missed when its key is not found
    true_ids = np.concatenate([row.ids for row in truth])
    found_ids = np.concatenate([row.ids for row in found]).astype(np.intp)
    span = 1 + max(int(true_ids.max()), int(found_ids.max(initial=0)))
    lengths = np.array([len(row) for row in found], dtype=np.intp)
    true_rows = np.arange(n).repeat(k)
    found_keys = np.arange(n).repeat(lengths) * span + found_ids
    hit = np.isin(true_rows * span + true_ids, found_keys, assume_unique=True)
    missed = k - np.bincount(true_rows[hit], minlength=n)
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
    lengths = np.array([len(row) for row in found])
    kept = lengths > 0
    if not kept.any():
        return float("nan"), int(lengths.size)
    d_true = np.concatenate([row.distances for row in truth])[k - 1 :: k]
    ends = np.cumsum(lengths) - lengths + np.minimum(k, lengths) - 1
    d_found = np.concatenate([row.distances for row in found])[ends[kept]]
    return float(np.mean(d_found - d_true[kept])), int(np.count_nonzero(~kept))
