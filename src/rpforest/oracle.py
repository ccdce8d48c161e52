"""Exact brute-force k-nn: ground truth for every metric. A Gram-matrix filter
is the pool source of the forest's search driver, forest._search.

Filter: one BLAS product per chunk of query rows, of [x, 1] and
[-2 y, |y|^2], gives h = |y|^2 - 2 x.y between the mean-centred query x and
every mean-centred point y: the squared distance less the row's |x|^2, so in
the order of the distances. Every column with h <= kth + tol survives, where
kth is the row's k-th smallest h (its own id left out) and tol bounds all
rounding (derived at _rows). A lone query skips the filter, as a lone forest
query skips _search: its pool is every point. The pools are ranked as a
forest query's candidates are, so the rows are those a scan of every point
would give and any disagreement with the forest comes from missing
candidates. Its independent check is tests/reference.py.
"""

import numpy as np

from .core import Dataset, check_int, check_queries, check_self_ids
from .forest import NeighborList, NeighborTable, _rank, _search

_EPS, _TINY, _HUGE = np.finfo(np.float64).eps / 2, np.finfo(np.float64).tiny, np.finfo(np.float64).max / 8


def _rows(data: Dataset, queries, self_ids, k: int) -> NeighborTable:
    """The k nearest points to each query row, without its self id (self_ids
    None: none), as one table (forest.NeighborTable). Queries, self ids and k are checked here, once for both entry
    points: k is at most n, or n - 1 when a row leaves out its self id.

    A lone row is ranked against every point: a filter costs O(n d) as that
    does. Otherwise the data is centred once per call, queries that are the
    points with it. Filtering a row holds 17 n bytes, its width in _search:
    the float64 product row, its partition copy, a bool mask.

    Why tol = 20 (d + 3) (u sigma + tiny) keeps every true neighbour. Here
    u = 2^-53; gamma_m = m u / (1 - m u) bounds a sum of m products in any
    order (Higham, Accuracy and Stability of Numerical Algorithms, 3.1), so
    the bound holds for every BLAS kernel and thread count; and sigma =
    |x|^2 + max_j |y_j|^2 bounds |x|^2 + |y_j|^2 and (|x| + |y_j|)^2 / 2 for
    every column. Let r_j = |q - p_j|^2 exactly, s_j the kernel's differencing
    sum and D_j = sqrt(s_j) rounded. Take j among the true k nearest and s the
    one of the k smallest h with the largest D: D_j <= D_s, since those k
    columns reach D_s. To first order in u:
    - sqrt is correctly rounded, so D_j <= D_s, distances equal after sqrt
      included, gives s_j <= s_s (1 + 4u);
    - |s - r| <= gamma_{d+2} r and r <= 2 sigma, so r_j - r_s <= (4d + 16) u sigma;
    - centring rounds each coordinate once, so |x - y|^2 is within 4 u sigma
      of r, for j and for s: 8 u sigma;
    - exact h is |x - y|^2 less |x|^2, one constant per row; -2 y and
      1 |y|^2 are exact, so h is within gamma_d |y|^2 (the norm) plus
      gamma_{d+1} (2 |x||y| + |y|^2) (d + 1 terms), at most (3d + 2) u sigma,
      for j and for s: (6d + 4) u sigma.
    Together h_j <= h_s + (10d + 28) u sigma <= kth + tol / 2; the factor 2
    covers the higher orders and the rounding of kth + tol. Where results
    underflow, each of the at most 19d roundings above errs by at most
    tiny, the smallest normal double (so also where a kernel flushes
    subnormals to zero). The bound needs every term finite: a row with
    sigma > max / 8 could overflow in h or in s_s, and takes every column.
    """
    queries = check_queries(queries, data.d)
    self_ids = check_self_ids(self_ids, queries.shape[0], data.n)
    k = check_int(k, "k", 1, data.n - (self_ids is not None))
    if queries.shape[0] == 1:  # every point but the self id, dropped before _rank allocates
        ids = data.ids if self_ids is None else np.delete(data.ids, self_ids)
        return _rank(data.points, queries, np.array([0, ids.size]), ids, k, None)
    centre = data.points.mean(axis=0)
    y = data.points - centre
    x = y if queries is data.points else queries - centre
    with np.errstate(over="ignore", invalid="ignore"):  # rows that overflow take every column below
        y2 = np.einsum("ij,ij->i", y, y)
        x2 = y2 if x is y else np.einsum("ij,ij->i", x, x)
        sigma = x2 + y2.max()
        tol = 20 * (data.d + 3) * (_EPS * sigma + _TINY)
        xa, ya = np.column_stack([x, np.ones(x.shape[0])]), np.column_stack([-2.0 * y, y2])
    del x, y  # the chunks read xa and ya alone

    def pool(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(over="ignore", invalid="ignore"):
            h = xa[lo:hi] @ ya.T
            if self_ids is not None:
                h[np.arange(hi - lo), self_ids[lo:hi]] = np.inf
            kth = np.partition(h, k - 1, axis=1)[:, k - 1]
            keep = h <= (kth + tol[lo:hi])[:, None]
        del h
        keep[~(sigma[lo:hi] <= _HUGE)] = True  # rows that could overflow: every column (_rank drops the self id)
        flat = np.flatnonzero(keep)
        return np.searchsorted(flat, np.arange(0, keep.size + 1, data.n)), flat % data.n

    return _search(data.points, queries, self_ids, k, np.full(queries.shape[0], 17 * data.n), pool)


def exact_knn(data: Dataset, x, k: int, self_id: int | None = None) -> NeighborList:
    """The k nearest points to x by (distance, id), leaving out self_id."""
    return _rows(data, np.asarray(x, dtype=np.float64)[None], None if self_id is None else [self_id], k)[0]


def all_true_neighbors(data: Dataset, k: int) -> NeighborTable:
    """exact_knn for every dataset point with self-exclusion, as one table;
    table.prefix(j) holds the rows for any j <= k."""
    return _rows(data, data.points, data.ids, k)
