"""Exact brute-force k-nn: ground truth for every metric. A Gram-matrix filter
is the pool source of the forest's search driver, forest._search.

Filter: one BLAS product per chunk of query rows, of [x, 1] and
[-2 y, |y|^2], gives h = |y|^2 - 2 x.y between the mean-centred query x and
every mean-centred point y: the squared distance less the row's |x|^2, so in
the order of the distances. Every column not above the row's forest._cut
survives: a bound at or above its k-th smallest h (forest._bound; its own
id left out) plus a slack that bounds all rounding, as in the forest's
ranking. A lone query skips the filter, as a lone forest query skips
_search: its pool is every point. The pools are ranked as a forest query's
candidates are, so the rows are those a scan of every point would give and
any disagreement with the forest comes from missing candidates. Its
independent check is tests/reference.py.
"""

import numpy as np

from .core import Dataset, check_int, check_queries, check_self_ids
from .forest import NeighborList, NeighborTable, _bound, _centred, _cut, _groups, _rank, _search


def _rows(data: Dataset, queries, self_ids, k: int) -> NeighborTable:
    """The k nearest points to each query row, without its self id (self_ids
    None: none), as one table (forest.NeighborTable). Queries, self ids and k are checked here, once for both entry
    points: k is at most n, or n - 1 when a row leaves out its self id.

    A lone row is ranked against every point: a filter costs O(n d) as that
    does. Otherwise the data is centred once per call (forest._centred), and
    the queries by the same mean. Filtering a row holds 9 n + 8 b bytes, its
    width in _search: the product row, a bool mask, b minima (forest._groups).
    """
    queries = check_queries(queries, data.d)
    self_ids = check_self_ids(self_ids, queries.shape[0], data.n)
    k = check_int(k, "k", 1, data.n - (self_ids is not None))
    if queries.shape[0] == 1:  # every point but the self id, dropped before _rank allocates
        ids = data.ids if self_ids is None else np.delete(data.ids, self_ids)
        return _rank(data.points, queries, np.array([0, ids.size]), ids, k, None)
    centre, ya = _centred(data.points)
    with np.errstate(over="ignore", invalid="ignore"):  # rows that overflow keep every column (_cut)
        x = queries - centre
        x2 = np.einsum("ij,ij->i", x, x)
        xa = np.column_stack([x, np.ones(x.shape[0])])
    del x  # the chunks read xa and ya alone
    y2_max = ya[:, -1].max()

    def pool(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(over="ignore", invalid="ignore"):
            h = xa[lo:hi] @ ya.T
            if self_ids is not None:
                h[np.arange(hi - lo), self_ids[lo:hi]] = np.inf  # _rank drops the self id
            drop = h > _cut(_bound(h, k), x2[lo:hi], y2_max, data.d)[:, None]
        del h
        flat = np.flatnonzero(np.logical_not(drop, out=drop))
        return np.searchsorted(flat, np.arange(0, drop.size + 1, data.n)), flat % data.n

    return _search(data.points, queries, self_ids, k, np.full(queries.shape[0], 9 * data.n + 8 * _groups(k, data.n)), pool)


def exact_knn(data: Dataset, x, k: int, self_id: int | None = None) -> NeighborList:
    """The k nearest points to x by (distance, id), leaving out self_id."""
    return _rows(data, np.asarray(x)[None], None if self_id is None else [self_id], k)[0]


def all_true_neighbors(data: Dataset, k: int) -> NeighborTable:
    """exact_knn for every dataset point with self-exclusion, as one table;
    table.prefix(j) holds the rows for any j <= k."""
    return _rows(data, data.points, data.ids, k)
