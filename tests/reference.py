"""Reference paths that the vectorised code in rpforest must match.

The query path first: the batched kernel in rpforest.forest must match it.

Routing descends each tree node by node, splitting the rows that reach a node
with the build's own projection (x.r < c goes left). Ranking handles one query
at a time: the deduplicated union of its leaves, minus its own id, ordered by
a stable argsort on distance, so ties go to the smaller id. The same
ranker, over every id except the query's own, is the exact oracle's
reference (tests/test_oracle.py).
"""

import numpy as np

from rpforest.forest import NeighborList
from rpforest.tree import Leaf


def route_recursive(tree, points) -> np.ndarray:
    """Leaf index of each row of points, one recursive descent per tree."""
    points = np.asarray(points, dtype=np.float64)
    out = np.empty(points.shape[0], dtype=np.intp)

    def descend(node, rows):
        if rows.size == 0:
            return
        if isinstance(node, Leaf):
            out[rows] = node.index
            return
        go_left = np.einsum("ij,j->i", points[rows], node.direction) < node.split
        descend(node.left, rows[go_left])
        descend(node.right, rows[~go_left])

    descend(tree.root, np.arange(points.shape[0]))
    return out


def rank(data, candidates: np.ndarray, x, k: int) -> NeighborList:
    """The k nearest candidates by (distance, id); candidates sorted ascending."""
    if candidates.size == 0:
        return NeighborList(ids=np.empty(0, dtype=np.intp), distances=np.empty(0))
    diffs = data.points[candidates] - np.asarray(x, dtype=np.float64)
    dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    order = np.argsort(dists, kind="stable")[:k]
    return NeighborList(ids=candidates[order], distances=dists[order])


def query(forest, queries, k: int, self_ids=None, leaves=None) -> list[NeighborList]:
    """One row per query; leaves (m x T, local per tree) skip the routing."""
    queries = np.asarray(queries, dtype=np.float64)
    if leaves is None:
        leaves = np.column_stack([route_recursive(tree, queries) for tree in forest.trees])
    members = [[leaf.member_ids for leaf in tree.leaves] for tree in forest.trees]
    rows = []
    for q in range(queries.shape[0]):
        pools = [members[t][leaves[q, t]] for t in range(len(forest.trees))]
        candidates = np.unique(np.concatenate(pools))
        if self_ids is not None:
            candidates = candidates[candidates != self_ids[q]]
        rows.append(rank(forest.data, candidates, queries[q], k))
    return rows


def query_all_training(forest, k: int) -> list[NeighborList]:
    leaves = np.column_stack([tree.leaf_of for tree in forest.trees])
    return query(forest, forest.data.points, k, self_ids=forest.data.ids, leaves=leaves)


def missing_rate(truth, found, k: int):
    """Per-row set difference, as rpforest.metrics.missing_rate must count it."""
    n = len(truth)
    missed = np.empty(n, dtype=np.intp)
    for i in range(n):
        missed[i] = np.setdiff1d(truth[i].ids, found[i].ids, assume_unique=True).size
    return float(missed.sum() / (n * k)), missed


def distance_error(truth, found, k: int):
    """Per-row k-th distance excess, averaged over the non-empty found rows."""
    errors = []
    excluded = 0
    for true_row, found_row in zip(truth, found):
        if len(found_row) == 0:
            excluded += 1
            continue
        d_true = true_row.distances[k - 1]
        d_found = found_row.distances[min(k, len(found_row)) - 1]
        errors.append(d_found - d_true)
    if not errors:
        return float("nan"), excluded
    return float(np.mean(errors)), excluded
