"""Random projection forest: T independently seeded trees, pooled at query time.

One kernel answers all three query paths in three steps: route every (query,
tree) pair together (training points read their stored leaves), pool each
query's candidates with one sparse (queries x leaves) . (leaves x points)
product, and rank: keep each row's k nearest by (distance, id). A lone query
goes straight from routing to pooling to ranking; a batch is cut into chunks
that are pooled and ranked in _search, the oracle's driver too.
"""

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


@dataclass(eq=False)
class NeighborList:
    """(id, distance) pairs sorted ascending by (distance, id). Rows compare
    and hash by identity."""

    ids: np.ndarray
    distances: np.ndarray

    def __len__(self) -> int:
        return int(self.ids.size)


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


def _rank(points, queries, indptr, indices, k: int, self_ids) -> list[NeighborList]:
    """The k best (distance, id) pairs of each pool row, minus the row's own id
    (self_ids None: none). A lone row partitions its distances for its k-th;
    2+ rows padded with inf give each row's k-th by partitioning the grid.
    The flat candidates (in row order) up to it, ties included, get sorted."""
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
        return [NeighborList(ids[order].astype(np.intp), dists[order])]
    row = np.repeat(np.arange(m), np.diff(indptr))
    if self_ids is not None:
        keep = ids != self_ids[row]
        ids, row = ids[keep], row[keep]
    counts = np.bincount(row, minlength=m)
    diffs = points.take(ids, axis=0)
    diffs -= queries.take(row, axis=0)
    dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    grid = np.full((m, max(1, int(counts.max(initial=0)))), np.inf)  # rows padded to the longest
    grid[row, np.arange(ids.size) - np.repeat(np.cumsum(counts) - counts, counts)] = dists
    last = min(k, grid.shape[1]) - 1
    pick = dists <= np.partition(grid, last, axis=1)[row, last]  # up to each k-th distance
    row, ids, dists = row[pick], ids[pick], dists[pick]
    order = np.lexsort((ids, dists, row))
    ids, dists = ids[order].astype(np.intp), dists[order]
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
            own = None if self_ids is None else self_ids[span]
            rows += _rank(points, queries[span], indptr[a : b + 1], indices, k, own)
        return rows

    return [row for part in core.parallel_map(task, _spans(widths, budget)) for row in part]


def _kernel(forest: RpForest, queries, k: int, self_ids=None, leaves=None) -> list[NeighborList]:
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
