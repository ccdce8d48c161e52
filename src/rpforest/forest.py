"""Random projection forest: T independently seeded trees, pooled at query time.

One kernel answers all three query paths: route every (query, tree) pair
together (training points read their stored leaves), pool each query's
candidates with one sparse (queries x leaves) . (leaves x points) product, and
keep each row's k nearest by (distance, id) in _search, the oracle's driver too.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse
from scipy.sparse import _sparsetools

from . import core
from .core import Dataset, check_queries, check_self_ids
# build_tree stays importable from here: the benchmark's tracer wraps rpforest.forest.build_tree
from .tree import RpTree, TreeConfig, build_tree, build_trees, route, routing_table, tree_views  # noqa: F401

POOL_BYTES = 16 << 20  # working-set budget of the query chunks of all workers together
# budget of the points one group of trees gathers per level: a group shares
# each level's numpy calls among its trees; larger groups fall out of cache
BUILD_BYTES = 4 << 20


@dataclass
class NeighborList:
    """(id, distance) pairs sorted ascending by (distance, id)."""

    ids: np.ndarray
    distances: np.ndarray

    def __len__(self) -> int:
        return int(self.ids.size)


@dataclass
class RpForest:
    """T trees in one node table. Tree t owns node rows node_base[t]:
    node_base[t + 1] (child codes local to the tree) and rows leaf_base[t]:
    leaf_base[t + 1] of the membership matrix."""

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
    many trees follow it. Trees are built level by level, in groups whose
    gathered points fit BUILD_BYTES and at least one group per worker (run
    on parallel_map's threads); a tree does not depend on its group.

    The groups' tables (see build_trees) are concatenated once. node_base,
    leaf_base and the membership indptr are the cumulative sums of the nodes
    per tree, the leaves per tree and the leaf sizes; the members grouped by
    leaf are the membership indices, tree t's n ids at [t * n:(t + 1) * n].
    """
    if n_trees < 1:
        raise ValueError(f"need at least 1 tree, got {n_trees}")
    ss = master_seed if isinstance(master_seed, np.random.SeedSequence) else np.random.SeedSequence(master_seed)
    rngs = [
        np.random.default_rng(np.random.SeedSequence(ss.entropy, spawn_key=(*ss.spawn_key, t), pool_size=ss.pool_size))
        for t in range(n_trees)
    ]
    group = max(1, min(BUILD_BYTES // (8 * data.n * data.d), -(-n_trees // core.WORKERS)))
    groups = core.parallel_map(lambda lo: build_trees(data, cfg, rngs[lo : lo + group]), range(0, n_trees, group))
    directions, splits, children, *counts, members, leaf_of = (np.concatenate(a) for a in zip(*groups))
    node_base, leaf_base, indptr = (np.concatenate([[0], np.cumsum(a)]) for a in counts)
    membership = scipy.sparse.csr_matrix((np.ones(members.size, bool), members, indptr), (leaf_base[-1], data.n))
    return RpForest(cfg, data, master_seed, directions, splits, children, node_base, leaf_base, membership, leaf_of)


def _spans(counts: np.ndarray, cap: int):
    """Consecutive row ranges [lo, hi) holding at most cap entries when padded
    to their longest row; a row longer than cap gets a range of its own. The
    rows left are cut evenly into as many ranges as a greedy cut from lo needs."""
    lo = 0
    while lo < counts.size:
        width = np.maximum.accumulate(np.maximum(counts[lo : lo + cap], 1))
        most = max(1, int(np.searchsorted(width * np.arange(1, width.size + 1), cap, side="right")))
        rest = counts.size - lo
        hi = lo + -(-rest // -(-rest // most))
        yield lo, hi
        lo = hi


def _pool(forest: RpForest, leaves: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR (indptr, indices) of the (m, n) candidate pools of (m, T)
    membership rows: row q holds every point that shares a leaf with query q.
    scipy's compiled CSR product runs bare: for one query its wrappers cost more."""
    csr, (m, n_trees) = forest.membership, leaves.shape
    ind = leaves.astype(csr.indices.dtype).ravel()  # the kernels take one index dtype
    lhs = (np.arange(0, ind.size + 1, n_trees, dtype=ind.dtype), ind)  # (queries x leaves) indptr, indices
    nnz = _sparsetools.csr_matmat_maxnnz(m, forest.data.n, *lhs, csr.indptr, csr.indices)
    out = (np.empty(m + 1, ind.dtype), np.empty(nnz, ind.dtype), np.empty(nnz, bool))  # the pools' CSR
    _sparsetools.csr_matmat(m, forest.data.n, *lhs, np.ones(ind.size, bool), csr.indptr, csr.indices, csr.data, *out)
    return out[:2]


def _rank(points, queries, indptr, indices, k: int, self_ids) -> list[NeighborList]:
    """The k best (distance, id) pairs of each pool row, minus the row's own id.
    Rows padded with inf give each row's k-th distance by partitioning; the
    flat candidates (in row order) up to it, ties included, get sorted."""
    m = queries.shape[0]
    row = np.repeat(np.arange(m), np.diff(indptr))
    ids = indices[indptr[0] : indptr[-1]].astype(np.intp)
    keep = ids != self_ids[row]
    ids, row = ids[keep], row[keep]
    counts = np.bincount(row, minlength=m)
    diffs = points.take(ids, axis=0) - queries.take(row, axis=0)
    dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    grid = np.full((m, max(1, int(counts.max(initial=0)))), np.inf)  # rows padded to the longest
    grid[row, np.arange(ids.size) - np.repeat(np.cumsum(counts) - counts, counts)] = dists
    last = min(k, grid.shape[1]) - 1
    pick = dists <= np.partition(grid, last, axis=1)[row, last]  # up to each k-th distance
    row, ids, dists = row[pick], ids[pick], dists[pick]
    order = np.lexsort((ids, dists, row))
    ids, dists = ids[order], dists[order]
    starts = np.searchsorted(row, np.arange(m)).tolist()  # row stays sorted
    return [NeighborList(ids[s : s + n], dists[s : s + n]) for s, n in zip(starts, np.minimum(counts, k).tolist())]


def _search(points, queries, self_ids, k: int, widths, pool) -> list[NeighborList]:
    """The one path from queries to ranked rows, for the forest and the oracle:
    chunks of queries whose widths (bytes held per query while pooled) fit
    POOL_BYTES over all workers run on parallel_map's threads, and the CSR
    (indptr, indices) pools that pool(lo, hi) gives are ranked in spans."""
    budget = POOL_BYTES // core.WORKERS

    def task(chunk) -> list[NeighborList]:
        lo, hi = chunk
        indptr, indices = pool(lo, hi)
        rows = []
        for a, b in _spans(np.diff(indptr), budget // (8 * (3 * points.shape[1] + 6))):
            span = slice(lo + a, lo + b)
            rows += _rank(points, queries[span], indptr[a : b + 1], indices, k, self_ids[span])
        return rows

    return [row for part in core.parallel_map(task, _spans(widths, budget)) for row in part]


def _kernel(forest: RpForest, queries, k: int, self_ids=None, leaves=None) -> list[NeighborList]:
    """The forest's query path: route (unless leaves are given), then pool
    and rank in _search, each query's width being 8 bytes per candidate
    before merging (the pooling product's input); ranking spans are sized
    after merging."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    queries = check_queries(queries, forest.data.d)
    m = queries.shape[0]
    self_ids = check_self_ids(self_ids, m, forest.data.n)
    if leaves is None:  # route in blocks whose gathered points and directions fit the budget
        step = max(1, POOL_BYTES // (16 * forest.data.d * (forest.node_base.size - 1)))
        leaves = np.concatenate([route(*forest.routes, queries[lo : lo + step]) for lo in range(0, max(m, 1), step)])
    # queries sharing a first-tree leaf share most candidates: taken together
    # they keep a chunk's gathered points in cache
    order = np.argsort(leaves[:, 0], kind="stable")
    leaves, queries, self_ids = leaves[order], queries[order], self_ids[order]
    merged = (forest.membership.indptr[leaves + 1] - forest.membership.indptr[leaves]).sum(axis=1)
    rows = _search(forest.data.points, queries, self_ids, k, 8 * merged, lambda lo, hi: _pool(forest, leaves[lo:hi]))
    return [rows[i] for i in np.argsort(order).tolist()]


def query_knn(forest: RpForest, x, k: int, self_id: int | None = None) -> NeighborList:
    """Approximate k-nn: rank the defeatist candidate pool by distance.

    Returns fewer than k entries when the pool is smaller than k.
    """
    own = None if self_id is None else [self_id]
    return _kernel(forest, np.asarray(x, dtype=np.float64)[None], k, own)[0]


def query_all_training(forest: RpForest, k: int) -> list[NeighborList]:
    """query_knn for every dataset point with self-exclusion; each point's
    leaves are read off the stored leaf_of instead of being routed."""
    leaves = forest.leaf_of.T + forest.leaf_base[:-1]
    return _kernel(forest, forest.data.points, k, forest.data.ids, leaves)


def query_batch(
    forest: RpForest, queries: np.ndarray, k: int, self_ids: np.ndarray | None = None
) -> list[NeighborList]:
    """query_knn for a batch of arbitrary query points."""
    return _kernel(forest, queries, k, self_ids)
