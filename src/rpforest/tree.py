"""Random projection tree: recursive build into flat arrays, batched routing.

Internal node j projects onto directions[j], splits at splits[j] and has
child codes children[j] = (left, right): code c >= 0 is internal node c, code
c < 0 is leaf ~c, whose members are leaf_members[leaf_offsets[~c]:...]. Routing
reuses the build's comparison (x.r < c goes left) and its projection, an
einsum whose value for a row does not depend on the rows computed with it, so
every training point routes back to its own leaf.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import Dataset, check_queries
from .strategies import DegenerateNodeError, StrategyConfig, choose_direction


class DegenerateSplitError(Exception):
    """All projected values coincide; no split point separates them."""


@dataclass(frozen=True)
class TreeConfig:
    leaf_capacity: int = 20
    strategy: StrategyConfig = field(default_factory=StrategyConfig)
    max_degenerate_retries: int = 3

    def __post_init__(self):
        if self.leaf_capacity < 2:
            raise ValueError(f"leaf_capacity must be >= 2, got {self.leaf_capacity}")
        if self.max_degenerate_retries < 0:
            raise ValueError("max_degenerate_retries must be >= 0")


@dataclass
class RpTree:
    directions: np.ndarray  # (n_internal, d); internal nodes in preorder
    splits: np.ndarray  # (n_internal,)
    children: np.ndarray  # (n_internal, 2) child codes
    leaf_offsets: np.ndarray  # (n_leaves + 1,) positions in leaf_members
    leaf_members: np.ndarray  # point ids grouped by leaf, leaves in build order
    leaf_of: np.ndarray  # training point id -> leaf index
    config: TreeConfig

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


def split_at_quantile(values: np.ndarray, u: float) -> float:
    """Empirical u-quantile by linear interpolation between order statistics."""
    pos = u * (values.size - 1)
    lo = int(pos)
    if lo + 1 >= values.size:
        return float(np.max(values))
    frac = pos - lo
    a, b = np.partition(values, (lo, lo + 1))[lo : lo + 2]
    return float(a + frac * (b - a))


def pick_split_point(values: np.ndarray, rng: np.random.Generator) -> float:
    """Draw u uniform on [0.25, 0.75] and return that quantile of the values."""
    v = np.asarray(values, dtype=np.float64)
    if v.size < 2:
        raise ValueError(f"need at least 2 values to split, got {v.size}")
    if v.max() == v.min():
        raise DegenerateSplitError("all projected values are equal")
    u = rng.uniform(0.25, 0.75)
    return split_at_quantile(v, u)


def build_tree(data: Dataset, cfg: TreeConfig, rng: np.random.Generator) -> RpTree:
    """Recursively partition the dataset into an rpTree.

    Nodes with fewer than leaf_capacity points become leaves. Degenerate
    splits (an empty child, or all projected values equal) are retried with a
    fresh direction up to max_degenerate_retries times, then the node is
    forced into a leaf so duplicate-heavy data still terminates.
    """
    if data.n == 0:
        raise ValueError("dataset is empty")
    directions, splits, children, members = [], [], [], []
    leaf_of = np.empty(data.n, dtype=np.intp)

    def make_leaf(ids: np.ndarray) -> int:
        leaf_of[ids] = len(members)
        members.append(ids)
        return ~(len(members) - 1)

    def partition(ids: np.ndarray) -> int:
        if ids.size < cfg.leaf_capacity:
            return make_leaf(ids)
        pts = data.points[ids]
        for _ in range(cfg.max_degenerate_retries + 1):
            try:
                choice = choose_direction(pts, cfg.strategy, rng)
            except DegenerateNodeError:
                break  # identical points: retrying cannot help
            r = np.ascontiguousarray(choice.direction, dtype=np.float64)
            values = np.einsum("ij,j->i", pts, r)
            try:
                c = pick_split_point(values, rng)
            except DegenerateSplitError:
                continue
            go_left = values < c
            if np.count_nonzero(go_left) in (0, ids.size):
                continue
            directions.append(r)
            splits.append(c)
            children.append(None)
            node = len(splits) - 1
            children[node] = (partition(ids[go_left]), partition(ids[~go_left]))
            return node
        return make_leaf(ids)

    partition(data.ids)
    return RpTree(
        directions=np.array(directions).reshape(len(splits), data.d),
        splits=np.array(splits, dtype=np.float64),
        children=np.array(children, dtype=np.intp).reshape(len(splits), 2),
        leaf_offsets=np.concatenate([[0], np.cumsum([m.size for m in members])]),
        leaf_members=np.concatenate(members),
        leaf_of=leaf_of,
        config=cfg,
    )


def route(directions, splits, children, node_base, points) -> np.ndarray:
    """(m, T) leaf index of every (point, tree) pair, all pairs descending
    together one tree level per step. Tree t's internal nodes are rows
    node_base[t]:node_base[t + 1] of the node arrays; child codes are local."""
    n_trees = node_base.size - 1
    code = np.tile(np.where(np.diff(node_base) > 0, 0, -1), points.shape[0])
    pair = np.flatnonzero(code >= 0)
    while pair.size:
        row = node_base[pair % n_trees] + code[pair]
        proj = np.einsum("ij,ij->i", points[pair // n_trees], directions[row])
        code[pair] = children[row, (proj >= splits[row]).astype(np.intp)]
        pair = pair[code[pair] >= 0]
    return (~code).reshape(points.shape[0], n_trees)


def assign_leaves(tree: RpTree, points: np.ndarray) -> np.ndarray:
    """Route a batch of query points; returns the leaf index for each row."""
    points = check_queries(points, tree.directions.shape[1])
    base = np.array([0, tree.splits.size])
    return route(tree.directions, tree.splits, tree.children, base, points)[:, 0]
