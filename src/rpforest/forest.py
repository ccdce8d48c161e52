"""Random projection forest: T independently seeded trees, pooled at query time.

One kernel answers all three query paths in three steps: route every (query,
tree) pair together (training points read their stored leaves), pool each
query's candidates with one sparse (queries x leaves) . (leaves x points)
product, and rank: keep each row's k nearest by (distance, id). A lone query
goes straight from routing to pooling to ranking; a batch is cut into chunks
that are pooled and ranked in _search, the oracle's driver too. Where it pays,
a batch's ranking spans first drop the candidates that cannot place, by the
Gram bound the oracle filters with (_cut).
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse
from scipy.sparse import _sparsetools

from . import core
from .core import Dataset, check_int, check_queries, check_self_ids
# build_tree stays importable from here: the benchmark's tracer wraps rpforest.forest.build_tree
from .tree import RpTree, TreeConfig, build_tree, build_trees, route, routing_table, tree_views  # noqa: F401

# working-set budget of all workers together: their query chunks, and the
# points their tree groups gather per level
POOL_BYTES = 16 << 20
# _rank's rule, measured on a 2-vCPU x86-64 VM with one OpenBLAS thread: a
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


@dataclass(eq=False)
class RpForest:
    """T trees in one node table. Tree t owns node rows node_base[t]:
    node_base[t + 1] (child codes local to the tree) and rows leaf_base[t]:
    leaf_base[t + 1] of the membership matrix. Forests compare and hash by
    identity."""

    tree_config: TreeConfig
    data: Dataset
    master_seed: int | np.random.SeedSequence
    directions: np.ndarray
    splits: np.ndarray
    children: np.ndarray
    node_base: np.ndarray
    leaf_base: np.ndarray
    membership: scipy.sparse.csr_matrix  # (leaves x points); its indptr/indices are the leaf CSR
    leaf_of: np.ndarray  # (T, n)

    @cached_property
    def trees(self) -> list[RpTree]:
        """Per-tree views of the tables, made on first read; queries do not use them."""
        csr = self.membership
        table = (self.directions, self.splits, self.children, self.node_base, self.leaf_base)
        return tree_views(*table, csr.indptr, csr.indices, self.leaf_of)

    # the router's table, made on first routed query
    routes = cached_property(lambda f: routing_table(f.directions, f.splits, f.children, f.node_base, f.leaf_base))
    # the Gram filter's centred points (_centred), made on the first batch query that may filter
    _gram = cached_property(lambda f: _centred(f.data.points))


def build_forest(
    data: Dataset,
    cfg: TreeConfig,
    n_trees: int,
    master_seed: int | np.random.SeedSequence,
) -> RpForest:
    """Build n_trees trees, tree t seeded from child stream t of master_seed.

    Child stream t is the SeedSequence whose spawn key is master_seed's with
    t appended: the stream a fresh seed's spawn gives tree t. The seed is
    never advanced, so one seed gives one forest however often it is passed,
    forest.master_seed rebuilds the forest, and tree t does not depend on how
    many trees follow it. Trees are built level by level in groups that
    share each level's numpy calls, run on parallel_map's threads: at least
    one group per worker, and no more trees to a group than the worker's
    share of POOL_BYTES holds gathered points for, but at least one. A tree
    does not depend on its group.

    The groups' tables (see build_trees) are concatenated once. node_base,
    leaf_base and the membership indptr are the cumulative sums of the nodes
    per tree, the leaves per tree and the leaf sizes; the members grouped by
    leaf are the membership indices, tree t's n ids at [t * n:(t + 1) * n].
    """
    check_int(n_trees, "n_trees", 1)
    ss = master_seed if isinstance(master_seed, np.random.SeedSequence) else np.random.SeedSequence(master_seed)
    rngs = [
        np.random.default_rng(np.random.SeedSequence(ss.entropy, spawn_key=(*ss.spawn_key, t), pool_size=ss.pool_size))
        for t in range(n_trees)
    ]
    group = max(1, min(POOL_BYTES // core.WORKERS // (8 * data.n * data.d), -(-n_trees // core.WORKERS)))
    groups = core.parallel_map(lambda lo: build_trees(data, cfg, rngs[lo : lo + group]), range(0, n_trees, group))
    directions, splits, children, *counts, members, leaf_of = (np.concatenate(a) for a in zip(*groups))
    node_base, leaf_base, indptr = (np.concatenate([[0], np.cumsum(a)]) for a in counts)
    membership = scipy.sparse.csr_matrix((np.ones(members.size, bool), members, indptr), (leaf_base[-1], data.n))
    return RpForest(cfg, data, master_seed, directions, splits, children, node_base, leaf_base, membership, leaf_of)


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


def _pool(forest: RpForest, leaves: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR (indptr, indices) of the (m, n) candidate pools of (m, T)
    membership rows: row q holds every point that shares a leaf with query q.
    scipy's compiled CSR product runs bare: for one query its wrappers cost more.
    The output is sized by the members of ind's leaves counted before merging,
    which the merged count cannot exceed: the kernel writes without bounds
    checks. The indices are then cut to the merged count in place, so their
    unwritten tail goes back to the allocator before ranking allocates."""
    csr, (m, n_trees) = forest.membership, leaves.shape
    ind = leaves.astype(csr.indices.dtype).ravel()  # the kernels take one index dtype
    lhs = (np.arange(0, ind.size + 1, n_trees, dtype=ind.dtype), ind)  # (queries x leaves) indptr, indices
    nnz = int((csr.indptr[ind + 1] - csr.indptr[ind]).sum())
    out = (np.empty(m + 1, ind.dtype), np.empty(nnz, ind.dtype), np.empty(nnz, bool))  # the pools' CSR
    _sparsetools.csr_matmat(m, forest.data.n, *lhs, np.ones(ind.size, bool), csr.indptr, csr.indices, csr.data, *out)
    out[1].resize(out[0][-1], refcheck=False)
    return out[:2]


def _centred(points) -> tuple[np.ndarray, np.ndarray]:
    """The Gram filter's point side: the points' mean, and the [-2 y, |y|^2]
    rows of the points y less it (see _cut)."""
    with np.errstate(over="ignore", invalid="ignore"):  # rows that overflow keep every candidate (_cut)
        centre = points.mean(axis=0)
        y = points - centre
        return centre, np.column_stack([-2.0 * y, np.einsum("ij,ij->i", y, y)])


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
    width (exact) where groups would hold under 4 columns and save less than
    they cost. A count sharing a factor with a period of the ids would put one
    cluster in each group."""
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
    if b == width:
        return np.partition(grid, last, axis=1)[:, last]
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


def _rank(points, queries, indptr, indices, k: int, self_ids, gram=None) -> NeighborTable:
    """The k best (distance, id) pairs of each pool row, minus the row's own id
    (self_ids None: none), as a table. A lone row partitions its distances for
    its k-th; 2+ rows take a bound at or above each row's k-th from the grid
    of their rows padded with inf (_kth). The flat candidates (in row order)
    up to it, ties included, get sorted, and each row's first k are kept.

    With gram (_centred(points)), 2+ rows first drop the candidates above
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
                _rank(points, queries[a:b], indptr[a : b + 1], indices, k, None if self_ids is None else self_ids[a:b])
                for a, b in _direct_spans(np.diff(indptr), d)])
    row = np.repeat(np.arange(m), np.diff(indptr))
    if self_ids is not None:
        keep = ids != self_ids[row]
        ids, row = ids[keep], row[keep]
    counts = ranked = np.bincount(row, minlength=m)
    if gram is not None:  # U holds the self ids too: their columns go unread
        centre, ya = gram
        slot = np.empty(n, np.intp)
        slot[union] = np.arange(union.size)
        with np.errstate(over="ignore", invalid="ignore"):
            x = queries - centre
            xa, yu = np.column_stack([x, np.ones(m)]), ya.take(union, axis=0)
            h, ends = np.empty(ids.size), np.concatenate([[0], np.cumsum(counts)])
            step = max(1, POOL_BYTES // core.WORKERS // (32 * max(1, union.size)))  # blocks of a quarter of the share
            for a in range(0, m, step):
                lo, hi = ends[a], ends[min(a + step, m)]
                h[lo:hi] = (xa[a : a + step] @ yu.T)[row[lo:hi] - a, slot[ids[lo:hi]]]
            cut = _cut(_kth(h, row, counts, k), np.einsum("ij,ij->i", x, x), yu[:, -1].max(initial=0), d)
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


def _direct_spans(counts: np.ndarray, d: int):
    """_spans of rows ranked directly: 3 d + 6 words a padded candidate in a worker's share of POOL_BYTES."""
    return _spans(counts, POOL_BYTES // core.WORKERS // (8 * (3 * d + 6)))


def _search(points, queries, self_ids, k: int, widths, pool, gram=None) -> NeighborTable:
    """The one path from queries to ranked rows, for the forest and the oracle:
    chunks of queries whose widths (bytes held per query while pooled) fit
    POOL_BYTES over all workers run on parallel_map's threads, and the CSR
    (indptr, indices) pools that pool(lo, hi) gives are ranked in spans of the
    same share (_direct_spans). With gram (see _rank) a span is sized by what
    the filter holds: 8 words a padded candidate, its rows x |U| block (at
    most a quarter of the share), U's d + 1 words a point (|U| at most n and
    the candidates), a mask and slot over the points, and k survivors a row
    ranked directly (ties add more)."""
    budget = POOL_BYTES // core.WORKERS
    n, d = points.shape

    def held(rows, widest, total) -> np.ndarray:
        union = np.minimum(n, total)
        block = np.minimum(8 * rows * union, budget // 4)
        return block + 8 * (8 * rows * widest + (d + 1) * union + 2 * n + (3 * d + 6) * rows * np.minimum(k, widest))

    def task(chunk) -> list[NeighborTable]:
        lo, hi = chunk
        indptr, indices = pool(lo, hi)
        tables = []
        for a, b in _direct_spans(np.diff(indptr), d) if gram is None else _spans(np.diff(indptr), budget, held):
            span = slice(lo + a, lo + b)
            own = None if self_ids is None else self_ids[span]
            tables.append(_rank(points, queries[span], indptr[a : b + 1], indices, k, own, gram))
        return tables

    return NeighborTable.concat([t for part in core.parallel_map(task, _spans(widths, budget)) for t in part])


def _kernel(forest: RpForest, queries, k: int, self_ids=None, leaves=None) -> NeighborTable:
    """The forest's query path: route (unless leaves are given), pool and
    rank. A lone query is pooled and ranked directly; a batch goes through
    _search, each query's width being 8 bytes per candidate before merging
    (the pooling product's input), with ranking spans sized after merging."""
    k = check_int(k, "k", 1)
    queries = check_queries(queries, forest.data.d)
    m = queries.shape[0]
    self_ids = check_self_ids(self_ids, m, forest.data.n)
    if leaves is None:  # route in blocks whose gathered points and directions fit the budget
        step = max(1, POOL_BYTES // (16 * forest.data.d * (forest.node_base.size - 1)))
        leaves = np.concatenate([route(*forest.routes, queries[lo : lo + step]) for lo in range(0, max(m, 1), step)])
    if m == 1:  # chunks, spans and the reorder below would all be identities
        return _rank(forest.data.points, queries, *_pool(forest, leaves), k, self_ids)
    # queries sharing a first-tree leaf share most candidates: taken together
    # they keep a chunk's gathered points in cache
    order = np.argsort(leaves[:, 0], kind="stable")
    leaves, queries = leaves[order], queries[order]
    self_ids = None if self_ids is None else self_ids[order]
    merged = (forest.membership.indptr[leaves + 1] - forest.membership.indptr[leaves]).sum(axis=1)
    # at d <= _FILTER_WORDS _rank's rule never filters: no centring, and spans of the direct width
    gram = forest._gram if forest.data.d > _FILTER_WORDS else None
    rows = _search(forest.data.points, queries, self_ids, k, 8 * merged, lambda lo, hi: _pool(forest, leaves[lo:hi]), gram)
    return rows[np.argsort(order)]


def query_knn(forest: RpForest, x, k: int, self_id: int | None = None) -> NeighborList:
    """Approximate k-nn: rank the defeatist candidate pool by distance.

    Returns fewer than k entries when the pool is smaller than k.
    """
    own = None if self_id is None else [self_id]
    return _kernel(forest, np.asarray(x)[None], k, own)[0]


def query_all_training(forest: RpForest, k: int) -> NeighborTable:
    """query_knn for every dataset point with self-exclusion; each point's
    leaves are read off the stored leaf_of instead of being routed, as int32
    where the forest's leaf count fits."""
    leaves = forest.leaf_of.T + forest.leaf_base[:-1].astype(np.int32 if forest.leaf_base[-1] < 2**31 else np.intp)
    return _kernel(forest, forest.data.points, k, forest.data.ids, leaves)


def query_batch(
    forest: RpForest, queries: np.ndarray, k: int, self_ids: np.ndarray | None = None
) -> NeighborTable:
    """query_knn for a batch of arbitrary query points."""
    return _kernel(forest, queries, k, self_ids)
