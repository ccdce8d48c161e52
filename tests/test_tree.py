import numpy as np
import pytest

import reference
from rpforest.core import Dataset, Level
from rpforest.strategies import Method, StrategyConfig
from rpforest.tree import (
    Internal,
    Leaf,
    RpTree,
    TreeConfig,
    assign_leaves,
    build_tree,
    split_segments,
)


def tree_depth(node):
    if isinstance(node, Leaf):
        return 0
    return 1 + max(tree_depth(node.left), tree_depth(node.right))


def random_dataset(seed, n=1000, d=2):
    return Dataset.from_points(np.random.default_rng(seed).uniform(size=(n, d)))


def split(values, sizes, u):
    """split_segments on a level of one-column points holding the values."""
    values = np.asarray(values, dtype=np.float64)
    return split_segments(values, Level(values[:, None], np.array(sizes)), np.array(u))


def split_point(values, u):
    """split_segments on one segment: its split value."""
    return split(values, [len(values)], [u])[1][0]


class TestPickSplitPoint:
    def test_within_interquartile_range(self):
        values = np.arange(101.0)
        rng = np.random.default_rng(0)
        for _ in range(100):
            c = split_point(values, rng.uniform(0.25, 0.75))
            assert 25.0 <= c <= 75.0

    def test_all_equal_is_degenerate(self):
        # no value lies below the split: the left side is empty
        _, c, n_left = split(np.full(10, 7.0), [10], [0.4])
        assert c[0] == 7.0 and n_left[0] == 0

    def test_too_few_values(self):
        with pytest.raises(ValueError):
            split([1.0, 2.0, 3.0], [2, 1], [0.5, 0.5])

    def test_median_interpolation(self):
        # {0,1,2,3} at u=0.5 interpolates to 1.5
        assert split_point([0.0, 1.0, 2.0, 3.0], 0.5) == 1.5

    def test_matches_numpy_quantile_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            v = rng.normal(size=rng.integers(2, 60))
            u = rng.uniform(0.25, 0.75)
            assert split_point(v, u) == pytest.approx(np.quantile(v, u), abs=1e-12)

    def test_unsorted_input(self):
        # several segments at once: each is sorted in place, left part first
        values = np.array([3.0, 0.0, 2.0, 1.0, 9.0, 5.0, 7.0])
        order, c, n_left = split(values, [4, 3], [0.5, 0.5])
        assert values[order].tolist() == [0.0, 1.0, 2.0, 3.0, 5.0, 7.0, 9.0]
        assert c.tolist() == [1.5, 7.0] and n_left.tolist() == [2, 1]


class TestBuildTree:
    def test_below_capacity_single_leaf(self):
        ds = random_dataset(0, n=10)
        tree = build_tree(ds, TreeConfig(leaf_capacity=20), np.random.default_rng(4))
        assert isinstance(tree.root, Leaf)
        np.testing.assert_array_equal(np.sort(tree.root.member_ids), np.arange(10))

    @pytest.mark.parametrize("method", list(Method))
    def test_leaves_partition_ids(self, method):
        ds = random_dataset(1)
        cfg = TreeConfig(leaf_capacity=20, strategy=StrategyConfig(method=method))
        tree = build_tree(ds, cfg, np.random.default_rng(5))
        all_ids = np.concatenate([leaf.member_ids for leaf in tree.leaves])
        assert all_ids.size == ds.n
        np.testing.assert_array_equal(np.sort(all_ids), np.arange(ds.n))

    def test_leaf_capacity_respected(self):
        ds = random_dataset(2)
        tree = build_tree(ds, TreeConfig(leaf_capacity=20), np.random.default_rng(6))
        assert all(1 <= leaf.member_ids.size < 20 for leaf in tree.leaves)

    def test_depth_bound(self):
        # quantile-bounded splits send 25-75% each way; depth stays logarithmic
        bound = 3 * np.log2(1000 / 20) + 10
        depths = []
        for seed in range(100):
            ds = random_dataset(seed)
            tree = build_tree(ds, TreeConfig(leaf_capacity=20), np.random.default_rng(seed))
            depths.append(tree_depth(tree.root))
        assert np.mean(depths) <= bound
        assert max(depths) <= 2 * bound

    def test_reproducible(self):
        ds = random_dataset(3)

        def digest(node):
            if isinstance(node, Leaf):
                return ("leaf", tuple(node.member_ids))
            return ("node", tuple(node.direction), node.split, digest(node.left), digest(node.right))

        t1 = build_tree(ds, TreeConfig(), np.random.default_rng(7))
        t2 = build_tree(ds, TreeConfig(), np.random.default_rng(7))
        assert digest(t1.root) == digest(t2.root)

    def test_duplicate_heavy_data_terminates(self):
        # 100 copies of the same point cannot be split: forced leaf
        ds = Dataset.from_points(np.ones((100, 3)))
        for method in list(Method):
            cfg = TreeConfig(leaf_capacity=20, strategy=StrategyConfig(method=method))
            tree = build_tree(ds, cfg, np.random.default_rng(8))
            assert isinstance(tree.root, Leaf)
            assert tree.root.member_ids.size == 100

    def test_internal_nodes_store_direction_and_split(self):
        ds = random_dataset(4)
        tree = build_tree(ds, TreeConfig(), np.random.default_rng(9))

        def check(node):
            if isinstance(node, Leaf):
                return
            assert np.linalg.norm(node.direction) == pytest.approx(1.0, abs=1e-9)
            assert np.isfinite(node.split)
            check(node.left)
            check(node.right)

        assert isinstance(tree.root, Internal)
        check(tree.root)

    def test_leaf_capacity_below_2_rejected(self):
        with pytest.raises(ValueError, match="leaf_capacity must be >= 2, got 1"):
            TreeConfig(leaf_capacity=1)

    def test_empty_dataset_rejected(self):
        # the Dataset rejects it, before any tree is built
        with pytest.raises(ValueError):
            build_tree(Dataset(np.empty((0, 1))), TreeConfig(), np.random.default_rng(0))


class TestTraverse:
    def test_self_routing(self):
        ds = random_dataset(5)
        tree = build_tree(ds, TreeConfig(), np.random.default_rng(10))
        routed = assign_leaves(tree, ds.points)
        np.testing.assert_array_equal(routed, tree.leaf_of)
        for i in range(0, ds.n, 37):
            assert i in tree.leaves[routed[i]].member_ids

    def test_single_leaf_tree(self):
        ds = random_dataset(6, n=5)
        tree = build_tree(ds, TreeConfig(leaf_capacity=20), np.random.default_rng(11))
        assert isinstance(tree.root, Leaf)
        np.testing.assert_array_equal(assign_leaves(tree, np.array([[100.0, -50.0]])), [0])

    def test_handcrafted_routing(self):
        # root splits on x[0] at 0: leaf 0 holds point 0, leaf 1 holds point 1
        tree = RpTree(
            directions=np.array([[1.0, 0.0]]),
            splits=np.array([0.0]),
            children=np.array([[~0, ~1]]),
            leaf_offsets=np.array([0, 1, 2]),
            leaf_members=np.array([0, 1]),
            leaf_of=np.array([0, 1]),
        )
        queries = np.array([[-1.0, 5.0], [2.0, -9.0], [0.0, 0.0]])
        # x.r == c goes right
        np.testing.assert_array_equal(assign_leaves(tree, queries), [0, 1, 1])
        assert tree.root.left.member_ids.tolist() == [0]
        assert tree.root.right.member_ids.tolist() == [1]

    def test_dimension_mismatch(self):
        ds = random_dataset(7)
        tree = build_tree(ds, TreeConfig(), np.random.default_rng(12))
        with pytest.raises(ValueError, match="dimension mismatch"):
            assign_leaves(tree, np.array([[1.0, 2.0, 3.0]]))

    def test_assign_leaves_matches_traverse(self):
        # the batched router agrees with the node-by-node reference descent
        ds = random_dataset(8)
        tree = build_tree(ds, TreeConfig(), np.random.default_rng(13))
        queries = np.random.default_rng(14).uniform(size=(50, 2))
        np.testing.assert_array_equal(assign_leaves(tree, queries), reference.route_recursive(tree, queries))
