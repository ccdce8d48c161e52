"""Exact ranking: every candidate pool becomes ranked rows here, and the exact
oracle, ground truth for every metric, is the pool of every point.

A pool is CSR (indptr, indices), each query row's candidate ids. rank keeps a
row's k nearest by (distance, id); search cuts a batch into chunks and spans
within core.POOL_BYTES and ranks each chunk's pools. The forest's kernel gives
them its sparse-product pools, the oracle the survivors of a Gram filter of
every point, so any disagreement with the forest comes from missing
candidates (independent check: tests/reference.py). The filter: one BLAS
product of the mean-centred rows [x, 1] and [-2 y, |y|^2] gives h = |y|^2 -
2 x.y, the squared distance less |x|^2, and a candidate above its row's _cut
cannot place. rank filters a forest batch too, at d > _FILTER_WORDS where
its rule says that pays; a lone query is ranked directly.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import core
from .core import Dataset, check_int, check_queries, check_self_ids

# rank's rule, measured on a 2-vCPU x86-64 VM with one OpenBLAS thread: a
# candidate ranked directly costs d words (2.5 ns each), one filtered
# _FILTER_WORDS words plus its share of the block at _BLAS_RATE multiply-adds a word
_FILTER_WORDS, _BLAS_RATE = 8, 30
_EPS, _TINY, _HUGE = np.finfo(np.float64).eps / 2, np.finfo(np.float64).tiny, np.finfo(np.float64).max / 8


@dataclass(eq=False)
class NeighborList:
    """(id, distance) pairs sorted ascending by (distance, id). Rows compare
    and hash by identity."""

    ids: np.ndarray
    distances: np.ndarray

    def __len__(self) -> int:
        return int(self.ids.size)


@dataclass(eq=False)
class NeighborTable(Sequence):
    """Ranked rows in CSR form: row i is ids[indptr[i]:indptr[i + 1]] with its
    distances, sorted as a NeighborList; rows may be shorter than k. An
    integer index gives a row's NeighborList view, a slice or an index array
    a table of those rows. Tables compare and hash by identity."""

    indptr: np.ndarray
    ids: np.ndarray
    distances: np.ndarray

    def __len__(self) -> int:
        return self.indptr.size - 1

    def __getitem__(self, key):
        if isinstance(key, slice) or np.ndim(key):
            rows = np.arange(len(self))[key]
            return self._take(rows, np.diff(self.indptr)[rows])
        i = range(len(self))[key]  # negative and numpy integers too; IndexError past the end
        lo, hi = self.indptr[i : i + 2].tolist()
        return NeighborList(self.ids[lo:hi], self.distances[lo:hi])

    def __iter__(self):
        bounds = self.indptr.tolist()
        return (NeighborList(self.ids[lo:hi], self.distances[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))

    # + joins rows into a list, as on the row lists the table replaces
    __add__, __radd__ = (lambda self, other: [*self, *other]), (lambda self, other: [*other, *self])

    def prefix(self, k: int) -> "NeighborTable":
        """Each row's first k entries: the table ranked for k from a larger k's."""
        return self._take(np.arange(len(self)), np.minimum(np.diff(self.indptr), check_int(k, "k", 1)))

    def _take(self, rows, lengths) -> "NeighborTable":
        """The table of the given rows, in that order, each cut to its length."""
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        pos = np.repeat(self.indptr[:-1][rows] - indptr[:-1], lengths) + np.arange(indptr[-1])
        return NeighborTable(indptr, self.ids[pos], self.distances[pos])

    @classmethod
    def concat(cls, tables) -> "NeighborTable":
        """The rows of tables, one after another; a lone table as it is."""
        if len(tables) == 1:
            return tables[0]
        ends = np.cumsum([0] + [t.ids.size for t in tables]).tolist()
        indptr = np.concatenate([[0], *(t.indptr[1:] + e for t, e in zip(tables, ends))])
        ids = np.concatenate([np.empty(0, np.intp), *(t.ids for t in tables)])
        return cls(indptr, ids, np.concatenate([np.empty(0), *(t.distances for t in tables)]))


def _spans(counts: np.ndarray, cap: int, held=None):
    """Consecutive row ranges [lo, hi) holding at most cap: their entries
    padded to their longest row, or held(rows, widest, total) of each prefix
    (non-decreasing; counts taken as at least 1). A row holding more than cap
    gets a range of its own. The rows left are cut evenly into as many ranges
    as a greedy cut from lo needs."""
    lo = 0
    while lo < counts.size:
        c = np.maximum(counts[lo : lo + cap], 1)
        rows, widest = np.arange(1, c.size + 1), np.maximum.accumulate(c)
        size = rows * widest if held is None else held(rows, widest, np.cumsum(c))
        most = max(1, int(np.searchsorted(size, cap, side="right")))
        rest = counts.size - lo
        hi = lo + -(-rest // -(-rest // most))
        yield lo, hi
        lo = hi


def _direct_spans(counts: np.ndarray, d: int):
    """_spans of rows ranked directly: 3 d + 6 words a padded candidate in a worker's share of POOL_BYTES."""
    return _spans(counts, core.POOL_BYTES // core.WORKERS // (8 * (3 * d + 6)))


def centred(points) -> tuple[np.ndarray, np.ndarray]:
    """The Gram filter's point side: the points' mean, and the [-2 y, |y|^2]
    rows of the points y less it (see _cut)."""
    with np.errstate(over="ignore", invalid="ignore"):  # rows that overflow keep every candidate (_cut)
        centre = points.mean(axis=0)
        y = points - centre
        return centre, np.column_stack([-2.0 * y, np.einsum("ij,ij->i", y, y)])


def _lifted(queries, centre) -> tuple[np.ndarray, np.ndarray]:
    """The Gram filter's query side: the [x, 1] rows of the queries x less centre, and each |x|^2."""
    with np.errstate(over="ignore", invalid="ignore"):  # rows that overflow keep every candidate (_cut)
        x = queries - centre
        return np.column_stack([x, np.ones(x.shape[0])]), np.einsum("ij,ij->i", x, x)


def _cut(kth, x2, y2_max, d: int) -> np.ndarray:
    """Each row's cut-off for the Gram filter: a candidate whose
    h = |y|^2 - 2 x.y, from one product of the centred [x, 1] and
    [-2 y, |y|^2] rows, is above it (h > cut) is not among the row's k
    nearest. kth is the row's k-th smallest h, x2 its |x|^2 and y2_max the
    largest |y|^2 of its candidates. The cut-off is kth + tol, or inf where
    the bound needs terms that could overflow: nothing is above inf, nan h
    included, so such a row keeps every candidate.

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
    sigma > max / 8 could overflow in h or in s_s.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = x2 + y2_max
        return np.where(sigma <= _HUGE, kth + 20 * (d + 3) * (_EPS * sigma + _TINY), np.inf)


def _groups(k: int, width: int) -> int:
    """_bound's group count: the smallest prime at least max(61, 8 k), or the
    width (one column a group: the exact k-th) where groups would hold under
    4 columns and save less than they cost. A count sharing a factor with a
    period of the ids would put one cluster in each group."""
    if 32 * k > width:
        return width
    b = max(61, 8 * k)
    while any(b % p == 0 for p in range(2, math.isqrt(b) + 1)):
        b += 1
    return b if 4 * b <= width else width


def _bound(grid, k: int) -> np.ndarray:
    """A bound at or above each grid row's k-th smallest (nan last, as in
    np.partition): the k-th smallest minimum of b = _groups(k, width) strided
    column groups, column j in group j mod b. Those k minima are k distinct
    entries at or below it; a group holding nan has a nan minimum."""
    m, width = grid.shape
    b, last = _groups(k, width), min(k, width) - 1
    whole = width - width % b
    mins = grid[:, :whole].reshape(m, whole // b, b).min(axis=1)  # a view of the rows: no copy
    np.minimum(mins[:, : width - whole], grid[:, whole:], out=mins[:, : width - whole])
    mins.partition(last, axis=1)
    return mins[:, last]


def _kth(values, row, counts, k: int) -> np.ndarray:
    """An upper bound on each row's k-th smallest of the flat values (counts[i]
    in row i, row after row): _bound of the rows padded with inf to the
    longest row's width."""
    grid = np.full((counts.size, max(1, int(counts.max(initial=0)))), np.inf)
    grid[row, np.arange(values.size) - np.repeat(np.cumsum(counts) - counts, counts)] = values
    return _bound(grid, k)


def rank(points, queries, indptr, indices, k: int, self_ids, gram=None) -> NeighborTable:
    """The k best (distance, id) pairs of each pool row, minus the row's own id
    (self_ids None: none), as a table. A lone row partitions its distances for
    its k-th; 2+ rows take a bound at or above each row's k-th from the grid
    of their rows padded with inf (_kth). The flat candidates (in row order)
    up to it, ties included, get sorted, and each row's first k are kept.

    With gram (centred(points)), 2+ rows first drop the candidates above
    their _cut, which cannot place: BLAS products of the rows' centred
    [x, 1] and the [-2 y, |y|^2] rows of their candidates' union U (a mask
    over the points), in row blocks of at most a quarter of a worker's share
    of POOL_BYTES, give each h, and a padded grid each row's bound (_kth). The
    rule: filter unless the block's m |U| (d + 1) multiply-adds cost at least
    the words it saves, less a pass over the n points; else rank directly, in
    spans of the direct width."""
    m, ids = queries.shape[0], indices[indptr[0] : indptr[-1]]
    if m == 1:
        if self_ids is not None:
            ids = ids[ids != self_ids[0]]
        diffs = points.take(ids, axis=0)
        diffs -= queries[0]
        dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
        if k < ids.size:  # up to the k-th distance
            pick = dists <= np.partition(dists, k - 1)[k - 1]
            ids, dists = ids[pick], dists[pick]
        order = np.lexsort((ids, dists))[:k]
        return NeighborTable(np.array([0, order.size]), ids[order].astype(np.intp), dists[order])
    if gram is not None:  # the rule
        (n, d), mask = points.shape, None
        saved = (d - _FILTER_WORDS) * ids.size - n  # words saved, less the mask's pass over the points
        if saved > 0:
            mask = np.zeros(n, bool)
            mask[ids] = True
            union = np.flatnonzero(mask)
        if mask is None or m * union.size * (d + 1) >= saved * _BLAS_RATE:
            return NeighborTable.concat([
                rank(points, queries[a:b], indptr[a : b + 1], indices, k, None if self_ids is None else self_ids[a:b])
                for a, b in _direct_spans(np.diff(indptr), d)])
    row = np.repeat(np.arange(m), np.diff(indptr))
    if self_ids is not None:
        keep = ids != self_ids[row]
        ids, row = ids[keep], row[keep]
    counts = ranked = np.bincount(row, minlength=m)
    if gram is not None:  # U holds the self ids too: their columns go unread
        (centre, ya), slot = gram, np.empty(n, np.intp)
        slot[union] = np.arange(union.size)
        (xa, x2), yu = _lifted(queries, centre), ya.take(union, axis=0)
        h, ends = np.empty(ids.size), np.concatenate([[0], np.cumsum(counts)])
        step = max(1, core.POOL_BYTES // core.WORKERS // (32 * max(1, union.size)))  # blocks of a quarter of the share
        with np.errstate(over="ignore", invalid="ignore"):
            for a in range(0, m, step):
                lo, hi = ends[a], ends[min(a + step, m)]
                h[lo:hi] = (xa[a : a + step] @ yu.T)[row[lo:hi] - a, slot[ids[lo:hi]]]
            cut = _cut(_kth(h, row, counts, k), x2, yu[:, -1].max(initial=0), d)
        keep = ~(h > cut[row])
        ids, row = ids[keep], row[keep]
        ranked = np.bincount(row, minlength=m)  # at least min(k, counts) a row
    diffs = points.take(ids, axis=0)
    diffs -= queries.take(row, axis=0)
    dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    pick = dists <= _kth(dists, row, ranked, k)[row]  # up to each k-th distance
    row, ids, dists = row[pick], ids[pick], dists[pick]
    picked = np.bincount(row, minlength=m)
    order = np.lexsort((ids, dists, row))  # row after row: drop each row's entries past its k-th
    order = order[np.arange(order.size) - np.repeat(np.cumsum(picked) - picked, picked) < k]
    indptr = np.concatenate([[0], np.cumsum(np.minimum(counts, k))])
    return NeighborTable(indptr, ids[order].astype(np.intp), dists[order])


def search(points, queries, self_ids, k: int, widths, pool, gram=None) -> NeighborTable:
    """The one path from a batch of queries to ranked rows, for the forest and
    the oracle: chunks of queries whose widths (bytes held per query while
    pooled) fit POOL_BYTES over all workers run on parallel_map's threads, and
    the CSR (indptr, indices) pools that pool(lo, hi) gives are ranked in
    spans of the same share (_direct_spans). gram, a callable giving
    centred(points), is called only where rank's rule may filter (d >
    _FILTER_WORDS); with it (see rank) a span is sized by what the filter
    holds: 8 words a padded candidate, its rows x |U| block (at most a quarter
    of the share), U's d + 1 words a point (|U| at most n and the candidates),
    a mask and slot over the points, and k survivors a row ranked directly
    (ties add more)."""
    budget, (n, d) = core.POOL_BYTES // core.WORKERS, points.shape
    gram = gram() if gram is not None and d > _FILTER_WORDS else None

    def held(rows, widest, total) -> np.ndarray:
        union = np.minimum(n, total)
        block = np.minimum(8 * rows * union, budget // 4)
        return block + 8 * (8 * rows * widest + (d + 1) * union + 2 * n + (3 * d + 6) * rows * np.minimum(k, widest))

    def task(chunk) -> list[NeighborTable]:
        lo, hi = chunk
        indptr, indices = pool(lo, hi)
        xs, own = queries[lo:hi], None if self_ids is None else self_ids[lo:hi]
        spans = _direct_spans(np.diff(indptr), d) if gram is None else _spans(np.diff(indptr), budget, held)
        with core.span("rank"):
            return [rank(points, xs[a:b], indptr[a : b + 1], indices, k, None if own is None else own[a:b], gram) for a, b in spans]

    return NeighborTable.concat([t for part in core.parallel_map(task, _spans(widths, budget)) for t in part])


def _rows(data: Dataset, queries, self_ids, k: int) -> NeighborTable:
    """The k nearest points to each query row, without its self id (self_ids
    None: none), as one table. Queries, self ids and k are checked here, once
    for both entry points: k is at most n, or n - 1 when a row leaves out its
    self id.

    A lone row is ranked against every point: a filter costs O(n d) as that
    does. Otherwise the data is centred once per call (centred), and the
    queries by the same mean. Filtering a row holds 9 n + 8 b bytes, its
    width in search: the product row, a bool mask, b minima (_groups).
    """
    with core.span("oracle"):
        queries = check_queries(queries, data.d)
        self_ids = check_self_ids(self_ids, queries.shape[0], data.n)
        k = check_int(k, "k", 1, data.n - (self_ids is not None))
        if queries.shape[0] == 1:  # every point but the self id, dropped before rank allocates
            ids = data.ids if self_ids is None else np.delete(data.ids, self_ids)
            with core.span("rank"):
                return rank(data.points, queries, np.array([0, ids.size]), ids, k, None)
        centre, ya = centred(data.points)
        (xa, x2), y2_max = _lifted(queries, centre), ya[:, -1].max()  # the chunks read xa and ya alone

        def pool(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
            with np.errstate(over="ignore", invalid="ignore"):
                h = xa[lo:hi] @ ya.T
                if self_ids is not None:
                    h[np.arange(hi - lo), self_ids[lo:hi]] = np.inf  # rank drops the self id
                drop = h > _cut(_bound(h, k), x2[lo:hi], y2_max, data.d)[:, None]
            del h
            flat = np.flatnonzero(np.logical_not(drop, out=drop))
            return np.searchsorted(flat, np.arange(0, drop.size + 1, data.n)), flat % data.n

        return search(data.points, queries, self_ids, k, np.full(queries.shape[0], 9 * data.n + 8 * _groups(k, data.n)), pool)


def exact_knn(data: Dataset, x, k: int, self_id: int | None = None) -> NeighborList:
    """The k nearest points to x by (distance, id), leaving out self_id."""
    return _rows(data, [x], None if self_id is None else [self_id], k)[0]


def all_true_neighbors(data: Dataset, k: int) -> NeighborTable:
    """exact_knn for every dataset point with self-exclusion, as one table;
    table.prefix(j) holds the rows for any j <= k."""
    return _rows(data, data.points, data.ids, k)
