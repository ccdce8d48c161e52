"""Exact brute-force k-nn: ground truth for every metric. It scores every
point with the forest query's differencing distances and selects by the
forest's own rule (forest.nearest), so any disagreement with the forest comes
from missing candidates. Its independent check is tests/reference.py."""

import numpy as np

from . import core
from .core import Dataset
from .forest import NeighborList, nearest

ORACLE_BYTES = 128 << 20  # the (chunk, n, d) difference tensors of all workers together


def _rows(data: Dataset, queries: np.ndarray, self_ids: np.ndarray, k: int) -> list[NeighborList]:
    """The k nearest points to each query row, without its self id (-1: none)."""
    diffs = queries[:, None, :] - data.points[None, :, :]
    dists = np.sqrt(np.einsum("ijk,ijk->ij", diffs, diffs))
    del diffs  # before the selection allocates: kept alive, it raised grid-2d peak RSS by 20 MB
    own = np.flatnonzero(self_ids >= 0)
    dists[own, self_ids[own]] = np.inf
    return nearest(dists, data.ids, k, np.full(queries.shape[0], k))


def exact_knn(data: Dataset, x, k: int, self_id: int | None = None) -> NeighborList:
    """The k nearest points to x by (distance, id), leaving out self_id."""
    limit = data.n - 1 if self_id is not None else data.n
    if k < 1 or k > limit:
        raise ValueError(f"k must be in [1, {limit}], got {k}")
    query = core.check_queries(np.asarray(x, dtype=np.float64)[None], data.d)
    return _rows(data, query, core.check_self_ids(None if self_id is None else [self_id], 1, data.n), k)[0]


def all_true_neighbors(data: Dataset, k: int) -> list[NeighborList]:
    """exact_knn for every dataset point with self-exclusion, in row chunks
    whose difference tensors fit ORACLE_BYTES, run on parallel_map's threads."""
    if k < 1 or k > data.n - 1:
        raise ValueError(f"k must be in [1, {data.n - 1}], got {k}")
    step = max(1, ORACLE_BYTES // (8 * core.WORKERS * data.n * data.d))

    def chunk(lo: int) -> list[NeighborList]:
        return _rows(data, data.points[lo : lo + step], data.ids[lo : lo + step], k)

    return [row for rows in core.parallel_map(chunk, range(0, data.n, step)) for row in rows]
