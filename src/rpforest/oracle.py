"""Exact brute-force k-nn: ground truth for every metric.

Deliberately a plain full scan with the same (distance, id) ordering as the
forest query, so any disagreement with the forest comes from missing
candidates, never from ordering.
"""

import numpy as np

from . import core
from .core import Dataset
from .forest import NeighborList


def exact_knn(data: Dataset, x, k: int, self_id: int | None = None) -> NeighborList:
    """Scan all points and return the k nearest by (distance, id)."""
    limit = data.n - 1 if self_id is not None else data.n
    if k < 1 or k > limit:
        raise ValueError(f"k must be in [1, {limit}], got {k}")
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != data.d:
        raise ValueError(f"dimension mismatch: query d={x.shape[0]}, data d={data.d}")
    diffs = data.points - x
    dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    if self_id is not None:
        dists[self_id] = np.inf
    order = np.argsort(dists, kind="stable")[:k]  # stable: ties go to smaller id
    return NeighborList(ids=order.astype(np.intp), distances=dists[order])


def all_true_neighbors(data: Dataset, k: int, chunk_size: int | None = None) -> list[NeighborList]:
    """exact_knn for every dataset point with self-exclusion, chunked.

    Distances use the same differencing formula as the forest query so the
    two paths agree bit-for-bit on shared pairs.
    """
    if k < 1 or k > data.n - 1:
        raise ValueError(f"k must be in [1, {data.n - 1}], got {k}")
    if chunk_size is None:
        # cap the (chunk, n, d) difference tensors of all workers at ~128 MB
        chunk_size = max(1, min(data.n, 16_777_216 // (core.WORKERS * data.n * data.d)))

    def chunk(start: int) -> list[NeighborList]:
        stop = min(start + chunk_size, data.n)
        diffs = data.points[start:stop, None, :] - data.points[None, :, :]
        dists = np.sqrt(np.einsum("ijk,ijk->ij", diffs, diffs))
        dists[np.arange(stop - start), np.arange(start, stop)] = np.inf
        order = np.argsort(dists, axis=1, kind="stable")[:, :k].astype(np.intp)
        return [NeighborList(ids=ids, distances=dists[row, ids]) for row, ids in enumerate(order)]

    return [row for rows in core.parallel_map(chunk, range(0, data.n, chunk_size)) for row in rows]
