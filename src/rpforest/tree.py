"""Random projection tree: level-synchronous build into flat arrays, batched routing.

Internal node j projects onto directions[j], splits at splits[j] and has
child codes children[j] = (left, right): code c >= 0 is internal node c, code
c < 0 is leaf ~c, whose members are leaf_members[leaf_offsets[~c]:...]. The
build writes these arrays for a whole forest; an RpTree views one tree. The
router steps all (point, tree) pairs together through routing_table's global
rows, eight numpy calls a level, until every row is a leaf row. It splits as
the build does (x.r < c goes left) with the per-row einsum kernel of the
build's projection (core.Level), whose value for a row does not depend on the
rows computed with it, so training points route home.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import Dataset, Level, check_int, check_queries, span
from .strategies import StrategyConfig, choose_directions

MAX_DEGENERATE_RETRIES = 3  # fresh draws for a node whose split leaves a side empty


@dataclass(frozen=True)
class TreeConfig:
    leaf_capacity: int = 20
    strategy: StrategyConfig = field(default_factory=StrategyConfig)

    def __post_init__(self):
        check_int(self.leaf_capacity, "leaf_capacity", 2)


@dataclass
class RpTree:
    directions: np.ndarray  # (n_internal, d); internal nodes level by level, root first
    splits: np.ndarray  # (n_internal,)
    children: np.ndarray  # (n_internal, 2) child codes
    leaf_offsets: np.ndarray  # (n_leaves + 1,) positions in leaf_members
    leaf_members: np.ndarray  # point ids grouped by leaf (ascending), leaves left to right
    leaf_of: np.ndarray  # training point id -> leaf index

    def node(self, code: int) -> "Internal | Leaf":
        """Read-only view of the node with child code `code`."""
        if code >= 0:
            return Internal(self, int(code))
        lo, hi = self.leaf_offsets[~code : ~code + 2]
        return Leaf(member_ids=self.leaf_members[lo:hi], index=~int(code))

    root = property(lambda self: self.node(0 if self.splits.size else -1))
    leaves = property(lambda self: [self.node(~i) for i in range(self.leaf_offsets.size - 1)])


@dataclass(frozen=True)
class Leaf:
    """A leaf: its member ids (a view into the tree's arrays) and its index."""

    member_ids: np.ndarray
    index: int  # position in RpTree.leaves


@dataclass(frozen=True)
class Internal:
    """Read-only view of internal node `index` of a tree."""

    tree: RpTree
    index: int
    direction = property(lambda self: self.tree.directions[self.index])
    split = property(lambda self: float(self.tree.splits[self.index]))
    left = property(lambda self: self.tree.node(self.tree.children[self.index, 0]))
    right = property(lambda self: self.tree.node(self.tree.children[self.index, 1]))


def split_segments(values: np.ndarray, level: Level, u: np.ndarray):
    """Split every node of a level at the interpolated u-quantile of its values.

    Node i's values are those of its rows (see core.Level), of which it has
    at least 2. Returns `order`, which sorts every node's values ascending
    in place; the split value c of every node, a + frac * (b - a) between the
    order statistics a and b at positions floor(u * (size - 1)) and the one
    after; and n_left, the number of values below c, which are the first
    n_left of the sorted node.
    """
    sizes, seg, first = level.sizes, level.seg, level.starts
    if sizes.min(initial=2) < 2:
        raise ValueError(f"need at least 2 values per segment, got {sizes.min()}")
    # an unstable sort, then a radix sort by segment, is about twice as fast as
    # lexsort and gives its order wherever a segment's values are distinct
    order = np.argsort(values)
    order = order[np.argsort(seg[order].astype(np.min_scalar_type(sizes.size)), kind="stable")]
    ordered = values[order]
    tie = np.flatnonzero(ordered[1:] == ordered[:-1])
    tie = tie[seg[tie] == seg[tie + 1]]
    if tie.size:  # lexsort the segments holding a tie, in place: ties keep their order
        tied = np.flatnonzero(np.isin(seg, seg[tie]))
        # only equal values (0.0 and -0.0 among them) trade places: c and n_left keep their bits
        order[tied] = tied[np.lexsort((values[tied], seg[tied]))]
    pos = u * (sizes - 1)
    lo = np.minimum(pos.astype(np.intp), sizes - 2)
    a, b = ordered[first + lo], ordered[first + lo + 1]
    c = a + (pos - lo) * (b - a)
    n_left = np.bincount(seg, weights=ordered < c[seg], minlength=sizes.size).astype(np.intp)
    return order, c, n_left


def tree_views(directions, splits, children, node_base, leaf_base, indptr, members, leaf_of) -> list[RpTree]:
    """One RpTree per tree of a forest's tables (see RpForest), viewing their
    arrays: a tree's leaf_members are its own n ids, and its leaf_offsets (the
    one copied array) run from 0 to n."""
    views = []
    for t, (a, b, lo, hi) in enumerate(zip(node_base, node_base[1:], leaf_base, leaf_base[1:])):
        offsets, ids = indptr[lo : hi + 1] - indptr[lo], members[indptr[lo] : indptr[hi]]
        views.append(RpTree(directions[a:b], splits[a:b], children[a:b], offsets, ids, leaf_of[t]))
    return views


def build_tree(data: Dataset, cfg: TreeConfig, rng: np.random.Generator) -> RpTree:
    """Partition the dataset into an rpTree; see build_trees."""
    directions, splits, children, _, _, sizes, members, leaf_of, _ = build_trees(data, cfg, [rng])
    indptr = np.concatenate([[0], np.cumsum(sizes)])
    return tree_views(directions, splits, children, [0, splits.size], [0, sizes.size], indptr, members, leaf_of)[0]


def build_trees(data: Dataset, cfg: TreeConfig, rngs):
    """Build one rpTree per generator, splitting every node of a level at once.

    perm holds one permutation of the point ids per tree, each node's ids in
    one contiguous segment; a split node's children replace it in place, left
    child first, so leaves end up left to right. At each level every node of
    at least leaf_capacity points projects its points onto a direction and
    splits at a u-quantile of the values, u uniform on [0.25, 0.75] (x.r < c
    goes left). Each tree draws, from its own generator and per level, the
    directions of all its nodes in bulk, then their u values; a node whose
    split leaves a side empty draws again (direction and u, only the failing
    nodes) up to MAX_DEGENERATE_RETRIES times and is then forced into a leaf.
    Nodes of identical points become leaves at once. A tree depends only on
    its own generator, not on the trees built with it.

    Returns the trees' table in forest layout, tree after tree: the node rows
    (directions, splits, children; internal nodes level by level, child codes
    local to the tree), the nodes and the leaves of each tree, the leaf sizes
    and the members grouped by leaf (leaves left to right, members
    ascending), the (trees, n) table of each point's local leaf index, and
    each tree's degenerate retries (see _split_level).
    """
    n, cap, n_trees = data.n, cfg.leaf_capacity, len(rngs)
    perm = np.tile(data.ids, n_trees)
    # segments to split at the current level, by start position in perm
    start, size = np.arange(n_trees) * n, np.full(n_trees, n)
    parent, side, retries = np.full(n_trees, -1), np.zeros(n_trees, dtype=np.intp), 0
    nodes, leaves = [], []  # per level: (direction, split, start, parent, side)
    n_nodes = 0
    while start.size:
        small = size < cap
        leaves.append((start[small], size[small], parent[small], side[small]))
        start, size, parent, side = start[~small], size[~small], parent[~small], side[~small]
        direction, c, n_left, redrawn = _split_level(data.points, perm, start, size, cfg, rngs)
        retries += redrawn
        ok = n_left > 0
        leaves.append((start[~ok], size[~ok], parent[~ok], side[~ok]))
        row = n_nodes + np.arange(np.count_nonzero(ok))
        nodes.append((direction[ok], c[ok], start[ok], parent[ok], side[ok]))
        n_nodes += row.size
        start, n_left, size = start[ok], n_left[ok], size[ok]
        start = np.column_stack([start, start + n_left]).ravel()
        size = np.column_stack([n_left, size - n_left]).ravel()
        parent, side = row.repeat(2), np.tile([0, 1], row.size)
    with span("partition"):
        return *_assemble(data, perm, nodes, leaves), retries


def _split_level(points, perm, start, size, cfg: TreeConfig, rngs):
    """Split every segment of one level: its direction, split value and left
    size (0 where no split was found), and each tree's retries: the direction
    rows it drew, less its nodes that split and its nodes forced into leaves.
    perm is reordered in place so every segment is sorted by its projection,
    the left child first."""
    m = start.size
    direction, c, n_left = np.empty((m, points.shape[1])), np.empty(m), np.zeros(m, dtype=np.intp)
    todo, retries = np.arange(m), -np.bincount(start // points.shape[0], minlength=len(rngs))
    for _ in range(MAX_DEGENERATE_RETRIES + 1):
        if not todo.size:
            break
        sizes = size[todo]
        with span("partition"):  # each node's rows of perm, node after node: the level's gather offsets
            pos = np.repeat(start[todo] - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())
            ids = perm[pos]
            level = Level(points.take(ids, axis=0), sizes)
        pts, seg, first = level.points, level.seg, level.starts
        counts = np.bincount(start[todo] // points.shape[0], minlength=len(rngs))
        retries += counts
        with span("direction"):
            r, _ = choose_directions(level, cfg.strategy, rngs, counts)
        with span("split"):
            u = np.concatenate([rng.uniform(0.25, 0.75, k) for rng, k in zip(rngs, counts) if k])
            values = level.project(r)
            order, cut, left = split_segments(values, level, u)
        with span("partition"):
            perm[pos] = ids[order]
        failed = (left == 0) | (left == sizes)
        direction[todo], c[todo], n_left[todo] = r, cut, np.where(failed, 0, left)
        # all values equal: another direction helps only if the points differ
        identical = failed & (values[order[first]] == values[order[first + sizes - 1]])
        if identical.any():
            differs = np.any(pts != pts[first[seg]], axis=1)
            identical &= np.bincount(seg, weights=differs, minlength=todo.size) == 0
        todo = todo[failed & ~identical]
    return direction, c, n_left, retries


def _assemble(data: Dataset, perm, nodes, leaves):
    """The table build_trees returns, from its level records."""
    n = data.n
    n_trees = perm.size // n
    direction, splits, node_start, node_parent, node_side = (np.concatenate(a) for a in zip(*nodes))
    leaf_start, leaf_size, leaf_parent, leaf_side = (np.concatenate(a) for a in zip(*leaves))
    # rows and leaves of each tree, in build order and left to right
    node_tree = node_start // n
    node_order = np.argsort(node_tree, kind="stable")
    node_base = np.searchsorted(node_tree[node_order], np.arange(n_trees + 1))
    local = np.empty(node_tree.size, dtype=np.intp)
    local[node_order] = np.arange(node_tree.size) - node_base[node_tree[node_order]]
    leaf_order = np.argsort(leaf_start)
    leaf_tree = leaf_start[leaf_order] // n
    leaf_base = np.searchsorted(leaf_tree, np.arange(n_trees + 1))
    leaf_local = np.empty(leaf_start.size, dtype=np.intp)
    leaf_local[leaf_order] = np.arange(leaf_start.size) - leaf_base[leaf_tree]
    children = np.empty((node_tree.size, 2), dtype=np.intp)
    has = node_parent >= 0
    children[node_parent[has], node_side[has]] = local[has]
    has = leaf_parent >= 0
    children[leaf_parent[has], leaf_side[has]] = ~leaf_local[has]
    # leaf members ascending: sort perm by (leaf, id)
    label = np.repeat(np.arange(leaf_start.size), leaf_size[leaf_order])
    members = np.sort(label * n + perm) - label * n
    leaf_of = np.empty(perm.size, dtype=np.int32 if n < 2**31 else np.intp)  # a tree has at most n leaves
    leaf_of[np.arange(perm.size) // n * n + members] = leaf_local[leaf_order][label]
    rows = (direction[node_order], splits[node_order], children[node_order])
    return *rows, np.diff(node_base), np.diff(leaf_base), leaf_size[leaf_order], members, leaf_of.reshape(n_trees, n)


def routing_table(directions, splits, children, node_base, leaf_base) -> tuple:
    """route's table of a forest's node rows: their directions and splits, row
    r's two child rows at 2r and 2r + 1 (intp: take would convert narrower
    indices on every gather), and each tree's root row. Leaf l of tree t is
    row n_internal + leaf_base[t] + l, its own two children."""
    n_int = splits.size
    tree = np.repeat(np.arange(node_base.size - 1), np.diff(node_base))[:, None]
    child = np.where(children >= 0, node_base[tree] + children, n_int + leaf_base[tree] + ~children)
    root = np.where(np.diff(node_base) > 0, node_base[:-1], n_int + leaf_base[:-1])
    rows = [child.ravel(), np.arange(n_int, n_int + leaf_base[-1]).repeat(2)]
    return directions, splits, np.concatenate(rows), root


def route(directions, splits, child, root, points) -> np.ndarray:
    """(m, T) forest-wide leaf index of every (point, tree) pair; a pair at a
    leaf row gathers a clipped direction and split and steps to itself."""
    row, x, n_int = np.tile(root, points.shape[0]), np.repeat(points, root.size, axis=0), splits.size
    while row.min(initial=n_int) < n_int:
        proj = np.einsum("ij,ij->i", x, directions.take(row, axis=0, mode="clip"))
        row = child.take(row + row + (proj >= splits.take(row, mode="clip")))
    return (row - n_int).reshape(points.shape[0], root.size)


def assign_leaves(tree: RpTree, points: np.ndarray) -> np.ndarray:
    """Route a batch of query points; returns the leaf index for each row."""
    points = check_queries(points, tree.directions.shape[1])
    bases = np.array([0, tree.splits.size]), np.array([0, tree.leaf_offsets.size - 1])
    return route(*routing_table(tree.directions, tree.splits, tree.children, *bases), points)[:, 0]
