"""Property tests: the batched query kernel against the reference in reference.py."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from rpforest.core import Dataset
from rpforest.forest import build_forest, query_all_training, query_batch, query_knn
from rpforest.strategies import Method, StrategyConfig
from rpforest.tree import TreeConfig, assign_leaves


@st.composite
def forests(draw):
    """Small forests over continuous, integer-grid (exact distance ties) or
    duplicate-heavy (forced leaves) data; some capacities exceed n, so the
    whole forest is one leaf per tree."""
    n = draw(st.integers(2, 50))
    d = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["continuous", "grid", "duplicates"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "continuous":
        points = rng.normal(size=(n, d))
    elif kind == "grid":
        points = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
    else:
        distinct = rng.normal(size=(draw(st.integers(1, 3)), d))
        points = distinct[rng.integers(0, distinct.shape[0], size=n)]
    capacity = draw(st.sampled_from([2, 3, 5, n + 1]))
    method = draw(st.sampled_from(list(Method)))
    cfg = TreeConfig(leaf_capacity=capacity, strategy=StrategyConfig(method=method))
    forest = build_forest(Dataset.from_points(points), cfg, draw(st.integers(1, 5)), int(rng.integers(2**32)))
    queries = np.concatenate([points[: draw(st.integers(0, n))], rng.integers(-3, 4, size=(draw(st.integers(1, 6)), d))])
    return forest, queries.astype(np.float64), draw(st.integers(1, n + 2))


def assert_same_rows(found, expected):
    assert len(found) == len(expected)
    for row, ref in zip(found, expected):
        np.testing.assert_array_equal(row.ids, ref.ids)
        np.testing.assert_array_equal(row.distances, ref.distances)


@settings(max_examples=150, deadline=None)
@given(forests())
def test_query_paths_match_reference(case):
    forest, queries, k = case
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
    forest, queries, _ = case
    for tree in forest.trees:
        np.testing.assert_array_equal(assign_leaves(tree, forest.data.points), tree.leaf_of)
        np.testing.assert_array_equal(assign_leaves(tree, queries), reference.route_recursive(tree, queries))
