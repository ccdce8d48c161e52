"""Exact brute-force k-nn: ground truth for every metric. A Gram-matrix filter
is the pool source of the forest's search driver, forest._search.

Filter: one BLAS product per chunk of query rows gives approximate squared
distances g = |x|^2 + |y|^2 - 2 x.y between the mean-centred query x and
every mean-centred point y. Every column with g <= kth + tol survives, where
kth is the row's k-th smallest g (its own id left out) and tol bounds all
rounding (derived at _rows). The survivors are ranked as a forest query's
candidates are, so the rows are those a scan of every point would give and
any disagreement with the forest comes from missing candidates. Its
independent check is tests/reference.py.
"""

import numpy as np

from .core import Dataset, check_int, check_queries, check_self_ids
from .forest import NeighborList, _search

_EPS, _TINY, _HUGE = np.finfo(np.float64).eps / 2, np.finfo(np.float64).tiny, np.finfo(np.float64).max / 8


def _rows(data: Dataset, queries, self_ids, k: int) -> list[NeighborList]:
    """The k nearest points to each query row, without its self id (self_ids
    None: none). Queries, self ids and k are checked here, once for both entry
    points: k is at most n, or n - 1 when a row leaves out its self id.

    The data is centred once per call. Filtering a row holds 17 n bytes, its
    width in _search: the float64 Gram row, its partition copy, a bool mask.

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
    queries = check_queries(queries, data.d)
    self_ids = check_self_ids(self_ids, queries.shape[0], data.n)
    k = check_int(k, "k", 1, data.n - (self_ids is not None))
    centre = data.points.mean(axis=0)
    x, y = queries - centre, data.points - centre
    with np.errstate(over="ignore", invalid="ignore"):  # rows that overflow take every column below
        x2, y2 = np.einsum("ij,ij->i", x, x), np.einsum("ij,ij->i", y, y)
        sigma = x2 + y2.max()
        tol = 16 * (data.d + 4) * (_EPS * sigma + _TINY)

    def pool(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(over="ignore", invalid="ignore"):
            g = x[lo:hi] @ y.T
            g *= -2.0
            g += y2
            g += x2[lo:hi, None]
            if self_ids is not None:
                g[np.arange(hi - lo), self_ids[lo:hi]] = np.inf
            kth = np.partition(g, k - 1, axis=1)[:, k - 1]
            keep = g <= (kth + tol[lo:hi])[:, None]
        del g
        keep[~(sigma[lo:hi] <= _HUGE)] = True  # rows that could overflow: every column (_rank drops the self id)
        row, col = np.nonzero(keep)
        return np.concatenate([[0], np.cumsum(np.bincount(row, minlength=hi - lo))]), col

    return _search(data.points, queries, self_ids, k, np.full(queries.shape[0], 17 * data.n), pool)


def exact_knn(data: Dataset, x, k: int, self_id: int | None = None) -> NeighborList:
    """The k nearest points to x by (distance, id), leaving out self_id."""
    return _rows(data, np.asarray(x, dtype=np.float64)[None], None if self_id is None else [self_id], k)[0]


def all_true_neighbors(data: Dataset, k: int) -> list[NeighborList]:
    """exact_knn for every dataset point with self-exclusion."""
    return _rows(data, data.points, data.ids, k)
