"""Exact brute-force k-nn: ground truth for every metric. Filter, then the
query kernel's exact ranking.

Filter: one BLAS product per block of query rows gives approximate squared
distances g = |x|^2 + |y|^2 - 2 x.y between the mean-centred query x and
every mean-centred point y. Every column with g <= kth + tol survives, where
kth is the row's k-th smallest g (its own id left out) and tol bounds all
rounding (derived at _rows). Refine: the survivors are a CSR pool ranked by
forest._rank, the forest query's own differencing distances and (distance,
id) selection, so the rows are those a scan of every point would give and any
disagreement with the forest comes from missing candidates. Its independent
check is tests/reference.py.
"""

import numpy as np

from . import core
from .core import Dataset
from .forest import NeighborList, _rank, _spans

# the (rows x n) float64 Gram blocks of all workers together; the partition
# copy and the survivor mask of a block take about as much again
ORACLE_BYTES = 64 << 20
_EPS, _TINY, _HUGE = np.finfo(np.float64).eps / 2, np.finfo(np.float64).tiny, np.finfo(np.float64).max / 8


def _rows(data: Dataset, queries: np.ndarray, self_ids: np.ndarray, k: int) -> list[NeighborList]:
    """The k nearest points to each query row, without its self id (-1: none).

    Why tol = 16 (d + 4) (u sigma + tiny) keeps every true neighbour. Here
    u = 2^-53; gamma_m = m u / (1 - m u) bounds a sum of m products in any
    order (Higham, Accuracy and Stability of Numerical Algorithms, 3.1), so
    the bound holds for every BLAS kernel and thread count; and sigma =
    |x|^2 + max_j |y_j|^2 bounds |x|^2 + |y_j|^2 and (|x| + |y_j|)^2 / 2 for
    every column. Let r_j = |q - p_j|^2 exactly, s_j the kernel's differencing
    sum and D_j = sqrt(s_j) rounded. Take j among the true k nearest and s the
    one of the k smallest g with the largest D: D_j <= D_s, since those k
    columns reach D_s. To first order in u:
    - sqrt is correctly rounded, so D_j <= D_s, distances equal after sqrt
      included, gives s_j <= s_s (1 + 4u);
    - |s - r| <= gamma_{d+2} r and r <= 2 sigma, so r_j - r_s <= (4d + 16) u sigma;
    - centring rounds each coordinate once, so |x - y|^2 is within 4 u sigma
      of r, for j and for s: 8 u sigma;
    - g is within gamma_d (|x|^2 + |y|^2 + 2 |x||y|) plus two roundings of
      partial sums of at most 2 sigma of |x - y|^2, at most (2d + 4) u sigma,
      for j and for s: (4d + 8) u sigma.
    Together g_j <= g_s + (8d + 32) u sigma <= kth + tol / 2; the factor 2
    covers the higher orders and the rounding of kth + tol. Where results
    underflow, each of the at most 16d + 8 roundings above errs by at most
    tiny, the smallest normal double (so also where a kernel flushes
    subnormals to zero). The bound needs every term finite: a row with
    sigma > max / 8 could overflow in g or in s_s, and takes every column.
    """
    centre = data.points.mean(axis=0)
    x, y = queries - centre, data.points - centre
    own = np.flatnonzero(self_ids >= 0)
    with np.errstate(over="ignore", invalid="ignore"):  # rows that overflow take every column below
        x2, y2 = np.einsum("ij,ij->i", x, x), np.einsum("ij,ij->i", y, y)
        g = x @ y.T
        g *= -2.0
        g += y2
        g += x2[:, None]
        g[own, self_ids[own]] = np.inf
        sigma = x2 + y2.max()
        kth = np.partition(g, k - 1, axis=1)[:, k - 1]
        keep = g <= (kth + 16 * (data.d + 4) * (_EPS * sigma + _TINY))[:, None]
    del g
    keep[~(sigma <= _HUGE)] = True  # rows that could overflow: every column (_rank drops the self id)
    row, col = np.nonzero(keep)
    counts = np.bincount(row, minlength=queries.shape[0])
    indptr = np.concatenate([[0], np.cumsum(counts)])
    rows = []
    for a, b in _spans(counts, ORACLE_BYTES // core.WORKERS // (8 * (3 * data.d + 6))):
        rows += _rank(data.points, queries[a:b], indptr[a : b + 1], col, k, self_ids[a:b])
    return rows


def exact_knn(data: Dataset, x, k: int, self_id: int | None = None) -> NeighborList:
    """The k nearest points to x by (distance, id), leaving out self_id."""
    limit = data.n - 1 if self_id is not None else data.n
    if k < 1 or k > limit:
        raise ValueError(f"k must be in [1, {limit}], got {k}")
    query = core.check_queries(np.asarray(x, dtype=np.float64)[None], data.d)
    return _rows(data, query, core.check_self_ids(None if self_id is None else [self_id], 1, data.n), k)[0]


def all_true_neighbors(data: Dataset, k: int) -> list[NeighborList]:
    """exact_knn for every dataset point with self-exclusion, in row chunks
    whose Gram blocks fit ORACLE_BYTES, at least one chunk per worker, run on
    parallel_map's threads."""
    if k < 1 or k > data.n - 1:
        raise ValueError(f"k must be in [1, {data.n - 1}], got {k}")
    step = max(1, min(ORACLE_BYTES // (8 * core.WORKERS * data.n), -(-data.n // core.WORKERS)))

    def chunk(lo: int) -> list[NeighborList]:
        return _rows(data, data.points[lo : lo + step], data.ids[lo : lo + step], k)

    return [row for rows in core.parallel_map(chunk, range(0, data.n, step)) for row in rows]
