"""Property tests: the level-synchronous build's invariants, and the batched
query kernel and the metrics against the references in reference.py."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
import rpforest.forest
from rpforest.core import Dataset
from rpforest.forest import NeighborList, build_forest, query_all_training, query_batch, query_knn
from rpforest.metrics import distance_error, missing_rate
from rpforest.strategies import Method, StrategyConfig
from rpforest.tree import Leaf, TreeConfig, assign_leaves, build_tree


@st.composite
def forests(draw):
    """Small forests over continuous, integer-grid (exact distance ties),
    duplicate-heavy (forced leaves) or huge data (near 1e200, where every
    distance is inf; method 1 only, as the others' dispersions overflow);
    some capacities exceed n, so the whole forest is one leaf per tree.
    Returns (forest, queries, k, kind)."""
    n = draw(st.integers(2, 50))
    d = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["continuous", "grid", "duplicates", "huge"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "continuous":
        points = rng.normal(size=(n, d))
    elif kind == "grid":
        points = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
    elif kind == "huge":
        points = 1e200 * rng.normal(size=(n, d))
    else:
        distinct = rng.normal(size=(draw(st.integers(1, 3)), d))
        points = distinct[rng.integers(0, distinct.shape[0], size=n)]
    capacity = draw(st.sampled_from([2, 3, 5, n + 1]))
    method = Method.RANDOM_DIRECTION if kind == "huge" else draw(st.sampled_from(list(Method)))
    cfg = TreeConfig(leaf_capacity=capacity, strategy=StrategyConfig(method=method))
    forest = build_forest(Dataset.from_points(points), cfg, draw(st.integers(1, 5)), int(rng.integers(2**32)))
    queries = np.concatenate([points[: draw(st.integers(0, n))], rng.integers(-3, 4, size=(draw(st.integers(1, 6)), d))])
    return forest, queries.astype(np.float64), draw(st.integers(1, n + 2)), kind


def assert_same_rows(found, expected):
    assert len(found) == len(expected)
    for row, ref in zip(found, expected):
        np.testing.assert_array_equal(row.ids, ref.ids)
        np.testing.assert_array_equal(row.distances, ref.distances)


@settings(max_examples=150, deadline=None)
@given(forests())
def test_query_paths_match_reference(case):
    forest, queries, k, _ = case
    assert_same_rows(query_all_training(forest, k), reference.query_all_training(forest, k))
    expected = reference.query(forest, queries, k)
    assert_same_rows(query_batch(forest, queries, k), expected)
    assert_same_rows([query_knn(forest, q, k) for q in queries], expected)
    self_ids = np.arange(queries.shape[0]) % forest.data.n
    assert_same_rows(
        query_batch(forest, queries, k, self_ids=self_ids),
        reference.query(forest, queries, k, self_ids=self_ids),
    )


@settings(max_examples=150, deadline=None)
@given(forests())
def test_assign_leaves_routes_training_points_home(case):
    forest, queries, _, _ = case
    for tree in forest.trees:
        np.testing.assert_array_equal(assign_leaves(tree, forest.data.points), tree.leaf_of)
        np.testing.assert_array_equal(assign_leaves(tree, queries), reference.route_recursive(tree, queries))


def interpolated_quantile(values, u):
    """The build's u-quantile: a + frac * (b - a) between neighbouring order statistics."""
    v = np.sort(values)
    pos = u * (v.size - 1)
    lo = min(int(pos), v.size - 2)
    return v[lo] + (pos - lo) * (v[lo + 1] - v[lo])


def check_node(node, points, capacity, continuous):
    """Member ids under node, left to right; asserts the split and leaf rules."""
    if isinstance(node, Leaf):
        ids = node.member_ids
        assert np.all(np.diff(ids) > 0), "leaf members ascending"
        # only a leaf whose node could not be split is allowed to be this large
        assert ids.size < capacity or not continuous
        return [node.index], ids
    left_leaves, left = check_node(node.left, points, capacity, continuous)
    right_leaves, right = check_node(node.right, points, capacity, continuous)
    assert left.size and right.size
    r = node.direction
    proj = lambda ids: np.einsum("ij,ij->i", points[ids], np.broadcast_to(r, (ids.size, r.size)))
    assert np.all(proj(left) < node.split) and np.all(proj(right) >= node.split)
    values = proj(np.concatenate([left, right]))
    slack = 1e-12 * (1.0 + np.abs(values).max())
    assert interpolated_quantile(values, 0.25) - slack <= node.split <= interpolated_quantile(values, 0.75) + slack
    return left_leaves + right_leaves, np.concatenate([left, right])


@settings(max_examples=150, deadline=None)
@given(forests())
def test_build_invariants(case):
    forest, _, _, kind = case
    data, capacity = forest.data, forest.tree_config.leaf_capacity
    for tree in forest.trees:
        order, ids = check_node(tree.root, data.points, capacity, kind == "continuous")
        assert order == list(range(len(tree.leaves))), "leaves numbered left to right"
        np.testing.assert_array_equal(np.sort(ids), data.ids)
        np.testing.assert_array_equal(assign_leaves(tree, data.points), tree.leaf_of)


@settings(max_examples=60, deadline=None)
@given(forests(), st.integers(1, 3))
def test_build_groups_equal_single_trees(case, group):
    """Trees built in groups of `group` equal the trees built one at a time."""
    forest = case[0]
    data, cfg = forest.data, forest.tree_config
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(forest.master_seed).spawn(len(forest.trees))]
    with mock.patch.object(rpforest.forest, "BUILD_BYTES", group * 8 * data.n * data.d):
        grouped = build_forest(data, cfg, len(forest.trees), forest.master_seed)

    names = ("directions", "splits", "children", "leaf_offsets", "leaf_members", "leaf_of")
    for a, b, rng in zip(forest.trees, grouped.trees, rngs):
        single = build_tree(data, cfg, rng)
        for name in names:
            np.testing.assert_array_equal(getattr(a, name), getattr(single, name), err_msg=name)
            np.testing.assert_array_equal(getattr(b, name), getattr(single, name), err_msg=name)


@st.composite
def tables(draw):
    """A truth table (k distinct ids per row, ascending distances) and a found
    table of 0..k distinct ids per row, some shared with the truth."""
    n, k = draw(st.integers(1, 30)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_ids = k + draw(st.integers(0, 10))
    truth, found = [], []
    for _ in range(n):
        ids = rng.permutation(n_ids)
        truth.append(NeighborList(ids=ids[:k], distances=np.sort(rng.uniform(size=k))))
        size = int(rng.integers(0, k + 1))
        pick = rng.choice(n_ids, size=size, replace=False)
        found.append(NeighborList(ids=pick, distances=np.sort(rng.uniform(size=size))))
    return truth, found, k


@settings(max_examples=200, deadline=None)
@given(tables())
def test_metrics_match_reference(case):
    truth, found, k = case
    m_bar, missed = missing_rate(truth, found, k)
    ref_bar, ref_missed = reference.missing_rate(truth, found, k)
    assert m_bar == ref_bar
    np.testing.assert_array_equal(missed, ref_missed)
    d_bar, excluded = distance_error(truth, found, k)
    ref_d, ref_excluded = reference.distance_error(truth, found, k)
    assert excluded == ref_excluded
    assert d_bar == ref_d or (np.isnan(d_bar) and np.isnan(ref_d))
