"""Random projection forest: build T independently seeded trees into one
table, route queries through them and pool each query's candidates.

One kernel answers all three query paths: route every (query, tree) pair
together (training points read their stored leaves), pool each query's
candidates with one sparse (queries x leaves) . (leaves x points) product,
and rank the pools with the oracle's routines: a lone query's directly
(oracle.rank), a batch's in chunks (oracle.search).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse
from scipy.sparse import _sparsetools

from . import core, oracle
from .core import Dataset, check_int, check_queries, check_self_ids
# build_tree stays importable from here: the benchmark's tracer wraps rpforest.forest.build_tree
from .tree import RpTree, TreeConfig, build_tree, build_trees, route, routing_table, tree_views  # noqa: F401


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
    retries: np.ndarray  # (T,) direction rows each tree drew again after a split that left a side empty

    @cached_property
    def trees(self) -> list[RpTree]:
        """Per-tree views of the tables, made on first read; queries do not use them."""
        csr = self.membership
        table = (self.directions, self.splits, self.children, self.node_base, self.leaf_base)
        return tree_views(*table, csr.indptr, csr.indices, self.leaf_of)

    # the router's table, made on first routed query
    routes = cached_property(lambda f: routing_table(f.directions, f.splits, f.children, f.node_base, f.leaf_base))
    # the Gram filter's centred points (oracle.centred), made on the first batch query that may filter
    _gram = cached_property(lambda f: oracle.centred(f.data.points))


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
    share of core.POOL_BYTES holds gathered points for, but at least one. A tree
    does not depend on its group.

    The groups' tables (see build_trees) are concatenated once. node_base,
    leaf_base and the membership indptr are the cumulative sums of the nodes
    per tree, the leaves per tree and the leaf sizes; the members grouped by
    leaf are the membership indices, tree t's n ids at [t * n:(t + 1) * n].
    """
    check_int(n_trees, "n_trees", 1)
    seeded = isinstance(master_seed, np.random.SeedSequence)
    ss = master_seed if seeded else np.random.SeedSequence(check_int(master_seed, "master_seed", 0))
    rngs = [
        np.random.default_rng(np.random.SeedSequence(ss.entropy, spawn_key=(*ss.spawn_key, t), pool_size=ss.pool_size))
        for t in range(n_trees)
    ]
    group = max(1, min(core.POOL_BYTES // core.WORKERS // (8 * data.n * data.d), -(-n_trees // core.WORKERS)))
    with core.span("build"):
        groups = core.parallel_map(lambda lo: build_trees(data, cfg, rngs[lo : lo + group]), range(0, n_trees, group))
        directions, splits, children, *counts, members, leaf_of, retries = (np.concatenate(a) for a in zip(*groups))
        node_base, leaf_base, indptr = (np.concatenate([[0], np.cumsum(a)]) for a in counts)
        membership = scipy.sparse.csr_matrix((np.ones(members.size, bool), members, indptr), (leaf_base[-1], data.n))
    return RpForest(cfg, data, master_seed, directions, splits, children, node_base, leaf_base, membership, leaf_of, retries)


def _pool(forest: RpForest, leaves: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR (indptr, indices) of the (m, n) candidate pools of (m, T)
    membership rows: row q holds every point that shares a leaf with query q.
    scipy's compiled CSR product runs bare: for one query its wrappers cost more.
    The output is sized by the members of ind's leaves counted before merging,
    which the merged count cannot exceed: the kernel writes without bounds
    checks. The indices are then cut to the merged count in place, so their
    unwritten tail goes back to the allocator before ranking allocates."""
    with core.span("pool"):
        csr, (m, n_trees) = forest.membership, leaves.shape
        ind = leaves.astype(csr.indices.dtype).ravel()  # the kernels take one index dtype
        lhs = (np.arange(0, ind.size + 1, n_trees, dtype=ind.dtype), ind)  # (queries x leaves) indptr, indices
        nnz = int((csr.indptr[ind + 1] - csr.indptr[ind]).sum())
        out = (np.empty(m + 1, ind.dtype), np.empty(nnz, ind.dtype), np.empty(nnz, bool))  # the pools' CSR
        _sparsetools.csr_matmat(m, forest.data.n, *lhs, np.ones(ind.size, bool), csr.indptr, csr.indices, csr.data, *out)
        out[1].resize(out[0][-1], refcheck=False)
        return out[:2]


def _kernel(forest: RpForest, queries, k: int, self_ids=None, leaves=None) -> oracle.NeighborTable:
    """The forest's query path: route (unless leaves are given), pool and
    rank. A lone query is pooled and ranked directly; a batch goes through
    oracle.search, each query's width being 8 bytes per candidate before merging
    (the pooling product's input), with ranking spans sized after merging."""
    with core.span("query"):
        k = check_int(k, "k", 1)
        queries = check_queries(queries, forest.data.d)
        m = queries.shape[0]
        self_ids = check_self_ids(self_ids, m, forest.data.n)
        if leaves is None:  # route in blocks whose gathered points and directions fit the budget
            step = max(1, core.POOL_BYTES // (16 * forest.data.d * (forest.node_base.size - 1)))
            with core.span("route"):
                leaves = np.concatenate([route(*forest.routes, queries[lo : lo + step]) for lo in range(0, max(m, 1), step)])
        if m == 1:  # chunks, spans and the reorder below would all be identities
            pool = _pool(forest, leaves)
            with core.span("rank"):
                return oracle.rank(forest.data.points, queries, *pool, k, self_ids)
        # queries sharing a first-tree leaf share most candidates: taken together
        # they keep a chunk's gathered points in cache
        order = np.argsort(leaves[:, 0], kind="stable")
        leaves, queries = leaves[order], queries[order]
        self_ids = None if self_ids is None else self_ids[order]
        merged = (forest.membership.indptr[leaves + 1] - forest.membership.indptr[leaves]).sum(axis=1)
        rows = oracle.search(forest.data.points, queries, self_ids, k, 8 * merged,
                             lambda lo, hi: _pool(forest, leaves[lo:hi]), lambda: forest._gram)
        return rows[np.argsort(order)]


def query_knn(forest: RpForest, x, k: int, self_id: int | None = None) -> oracle.NeighborList:
    """Approximate k-nn: rank the defeatist candidate pool by distance.

    Returns fewer than k entries when the pool is smaller than k.
    """
    own = None if self_id is None else [self_id]
    return _kernel(forest, [x], k, own)[0]


def query_all_training(forest: RpForest, k: int) -> oracle.NeighborTable:
    """query_knn for every dataset point with self-exclusion; each point's
    leaves are read off the stored leaf_of instead of being routed, as int32
    where the forest's leaf count fits."""
    leaves = forest.leaf_of.T + forest.leaf_base[:-1].astype(np.int32 if forest.leaf_base[-1] < 2**31 else np.intp)
    return _kernel(forest, forest.data.points, k, forest.data.ids, leaves)


def query_batch(
    forest: RpForest, queries: np.ndarray, k: int, self_ids: np.ndarray | None = None
) -> oracle.NeighborTable:
    """query_knn for a batch of arbitrary query points."""
    return _kernel(forest, queries, k, self_ids)


def structure_counts(forest: RpForest) -> dict[str, float]:
    """The forest's shape, read off its arrays: node and leaf counts, the
    deepest leaf's depth, leaf sizes, forced leaves (leaf_capacity points or
    more), degenerate retries, and the training points' pool sizes less their own id."""
    base, sizes, (n_trees, n) = forest.node_base, np.diff(forest.membership.indptr), forest.leaf_of.shape
    tree, row, depth = np.repeat(np.arange(n_trees), np.diff(base)), base[:-1][np.diff(base) > 0], 0
    while row.size:  # every tree's internal nodes one level down
        kids = forest.children[row]
        row, depth = (kids + base[tree[row], None])[kids >= 0], depth + 1
    step = max(1, core.POOL_BYTES // (8 * n_trees * int(sizes.max())))  # pools of at most POOL_BYTES before merging
    pools = np.concatenate([np.diff(_pool(forest, forest.leaf_of[:, lo : lo + step].T + forest.leaf_base[:-1])[0])
                            for lo in range(0, n, step)]) - 1
    return dict(internal_nodes=forest.splits.size, leaves=sizes.size, depth_max=depth, leaf_size_min=int(sizes.min()),
                leaf_size_mean=float(sizes.mean()), leaf_size_max=int(sizes.max()),
                forced_leaves=int(np.count_nonzero(sizes >= forest.tree_config.leaf_capacity)),
                degenerate_retries=int(forest.retries.sum()), pool_size_mean=float(pools.mean()),
                pool_size_p95=float(np.percentile(pools, 95)))
