"""Search-quality metrics.

Two quality measures over a truth table (exact k-nn) and a found table
(forest k-nn): the average missing rate (fraction of true neighbors not
retrieved) and the average distance error (mean excess of the found k-th
neighbor distance over the true k-th neighbor distance).
"""

from typing import Sequence

import numpy as np

from .core import check_int
from .oracle import NeighborList, NeighborTable


def _read(truth: Sequence[NeighborList], found: Sequence[NeighborList], k: int):
    """k and each table's rows, read once, as (row lengths, ids, distances):
    a NeighborTable's arrays, or a sequence of rows concatenated. Checks k,
    equal and non-zero row counts, truth rows of k entries and non-negative
    ids, else ValueError."""
    k = check_int(k, "k", 1)
    if len(truth) != len(found) or len(truth) == 0:
        raise ValueError(f"empty tables or a row-count mismatch: truth has {len(truth)} rows, found has {len(found)}")
    tables = []
    for name, table in (("truth", truth), ("found", found)):
        if not isinstance(table, NeighborTable):
            ids, dists = zip(*[(row.ids, row.distances) for row in table])
            indptr = np.concatenate([[0], np.cumsum(np.fromiter(map(len, ids), np.intp, len(ids)))])
            table = NeighborTable(indptr, np.concatenate(ids).astype(np.intp, copy=False), np.concatenate(dists))
        if (low := table.ids.min(initial=0)) < 0:
            raise ValueError(f"{name} ids must be non-negative, got {low}")
        tables.append((np.diff(table.indptr), table.ids, table.distances))
    if (bad := np.flatnonzero(tables[0][0] != k)).size:
        raise ValueError(f"truth row {bad[0]} has {tables[0][0][bad[0]]} entries, expected k={k}")
    return k, *tables


def missing_rate(
    truth: Sequence[NeighborList], found: Sequence[NeighborList], k: int
) -> tuple[float, np.ndarray]:
    """Average missing rate: sum of per-point missed true neighbors over n*k."""
    k, (_, true_ids, _), (lengths, found_ids, _) = _read(truth, found, k)
    n = lengths.size
    # (row, id) keys: a true neighbour is missed when its key is not found
    span = 1 + max(int(true_ids.max()), int(found_ids.max(initial=0)))
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
    k, (_, _, true_dists), (lengths, _, found_dists) = _read(truth, found, k)
    kept = lengths > 0
    if not kept.any():
        return float("nan"), int(lengths.size)
    ends = np.cumsum(lengths) - lengths + np.minimum(k, lengths) - 1
    return float(np.mean(found_dists[ends[kept]] - true_dists[k - 1 :: k][kept])), int(np.count_nonzero(~kept))
