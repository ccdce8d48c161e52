"""Random projection forest: T independently seeded trees, pooled at query time.

One kernel answers all three query paths: route every (query, tree) pair
together (training points read their stored leaves), pool each query's
candidates with one sparse (queries x leaves) . (leaves x points) product,
and keep each row's k nearest by (distance, id), ties going to the smaller id.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .core import Dataset, check_queries
# build_tree stays importable from here: the benchmark's tracer wraps rpforest.forest.build_tree
from .tree import RpTree, TreeConfig, build_tree, build_trees, route  # noqa: F401

POOL_BYTES = 16 << 20  # working-set budget of one chunk of queries
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
    """T trees in one node table; each tree's arrays are views into it. Tree t
    owns node rows node_base[t]:node_base[t + 1] (child codes local to the
    tree) and rows leaf_base[t]:leaf_base[t + 1] of the membership matrix."""

    trees: list[RpTree]
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


def build_forest(
    data: Dataset,
    cfg: TreeConfig,
    n_trees: int,
    master_seed: int | np.random.SeedSequence,
) -> RpForest:
    """Build n_trees trees, tree t seeded from child stream t of master_seed.

    Child streams are spawned from the master seed, so tree t is identical
    regardless of how many trees follow it and trees can be built in parallel.
    Trees are built level by level in groups whose gathered points fit
    BUILD_BYTES; a tree does not depend on the group it is built in.
    """
    if n_trees < 1:
        raise ValueError(f"need at least 1 tree, got {n_trees}")
    if isinstance(master_seed, np.random.SeedSequence):
        ss = master_seed
    else:
        ss = np.random.SeedSequence(master_seed)
    rngs = [np.random.default_rng(child) for child in ss.spawn(n_trees)]
    group = max(1, BUILD_BYTES // (8 * data.n * data.d))
    trees = [tree for lo in range(0, n_trees, group) for tree in build_trees(data, cfg, rngs[lo : lo + group])]
    node_base = np.cumsum([0] + [t.splits.size for t in trees])
    leaf_base = np.cumsum([0] + [t.leaf_offsets.size - 1 for t in trees])
    offsets = np.concatenate([[0]] + [t.leaf_offsets[1:] + i * data.n for i, t in enumerate(trees)])
    members = np.concatenate([t.leaf_members for t in trees])
    membership = scipy.sparse.csr_matrix(
        (np.ones(members.size, bool), members, offsets), shape=(leaf_base[-1], data.n)
    )
    table = [np.concatenate([getattr(t, name) for t in trees]) for name in ("directions", "splits", "children")]
    leaf_of = np.stack([t.leaf_of for t in trees])
    for i, tree in enumerate(trees):
        nodes, (lo, hi) = slice(*node_base[i : i + 2]), leaf_base[i : i + 2]
        tree.directions, tree.splits, tree.children = (a[nodes] for a in table)
        tree.leaf_offsets, tree.leaf_members = membership.indptr[lo : hi + 1], membership.indices
        tree.leaf_of = leaf_of[i]
    return RpForest(trees, cfg, data, master_seed, *table, node_base, leaf_base, membership, leaf_of)


def _spans(counts: np.ndarray, cap: int):
    """Consecutive row ranges [lo, hi) holding at most cap entries when padded
    to their longest row; a row longer than cap gets a range of its own."""
    lo = 0
    while lo < counts.size:
        width = np.maximum.accumulate(np.maximum(counts[lo : lo + cap], 1))
        hi = lo + max(1, int(np.searchsorted(width * np.arange(1, width.size + 1), cap, side="right")))
        yield lo, hi
        lo = hi


def _pool(forest: RpForest, leaves: np.ndarray) -> scipy.sparse.csr_matrix:
    """(m, n) candidate pools from (m, T) membership rows: row q holds every
    point that shares a leaf with query q."""
    indptr = np.arange(0, leaves.size + 1, leaves.shape[1])
    shape = (leaves.shape[0], forest.leaf_base[-1])
    return scipy.sparse.csr_matrix((np.ones(leaves.size, bool), leaves.ravel(), indptr), shape) @ forest.membership


def _rank(points, queries, indptr, indices, k: int, self_ids) -> list[NeighborList]:
    """The k best (distance, id) pairs of each pool row, minus the row's own id."""
    m = queries.shape[0]
    row = np.repeat(np.arange(m), np.diff(indptr))
    ids = indices[indptr[0] : indptr[-1]].astype(np.intp)
    keep = ids != self_ids[row]
    ids, row = ids[keep], row[keep]
    counts = np.bincount(row, minlength=m)
    diffs = points[ids] - queries[row]
    dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    # each row's k-th smallest distance, from rows padded with inf
    grid = np.full((m, max(1, int(counts.max(initial=0)))), np.inf)
    grid[row, np.arange(ids.size) - np.repeat(np.cumsum(counts) - counts, counts)] = dists
    last = min(k, grid.shape[1]) - 1
    kth = np.partition(grid, last, axis=1)[:, last]
    # only candidates up to it (exact ties included) get sorted by (row, distance, id)
    near = np.flatnonzero(dists <= kth[row])
    near = near[np.lexsort((ids[near], dists[near], row[near]))]
    starts = np.searchsorted(row[near], np.arange(m)).tolist()
    ids, dists = ids[near], dists[near]
    sizes = np.minimum(counts, k).tolist()
    return [NeighborList(ids=ids[s : s + n], distances=dists[s : s + n]) for s, n in zip(starts, sizes)]


def _kernel(forest: RpForest, queries, k: int, self_ids=None, leaves=None) -> list[NeighborList]:
    """The one query path: route (unless leaves are given), pool, rank.

    Chunks are sized from each query's real candidate counts (before merging
    for the pooling product, after it for ranking) to stay within POOL_BYTES.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    queries = check_queries(queries, forest.data.d)
    m = queries.shape[0]
    self_ids = np.full(m, -1) if self_ids is None else np.asarray(self_ids)
    if self_ids.shape != (m,):
        raise ValueError(f"self_ids has shape {self_ids.shape}, expected ({m},)")
    if leaves is None:  # route in blocks whose gathered points and directions fit the budget
        step = max(1, POOL_BYTES // (16 * forest.data.d * len(forest.trees)))
        table = (forest.directions, forest.splits, forest.children, forest.node_base)
        leaves = np.concatenate([route(*table, queries[lo : lo + step]) for lo in range(0, max(m, 1), step)])
        leaves += forest.leaf_base[:-1]
    # queries sharing a first-tree leaf share most candidates: taken together
    # they keep a chunk's gathered points in cache
    order = np.argsort(leaves[:, 0], kind="stable")
    leaves, queries, self_ids = leaves[order], queries[order], self_ids[order]
    merged = (forest.membership.indptr[leaves + 1] - forest.membership.indptr[leaves]).sum(axis=1)
    rows = []
    for lo, hi in _spans(merged, POOL_BYTES // 8):
        pool = _pool(forest, leaves[lo:hi])
        for a, b in _spans(np.diff(pool.indptr), POOL_BYTES // (8 * (3 * forest.data.d + 5))):
            span = slice(lo + a, lo + b)
            rows += _rank(forest.data.points, queries[span], pool.indptr[a : b + 1], pool.indices, k, self_ids[span])
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
