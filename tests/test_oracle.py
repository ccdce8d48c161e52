import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
import rpforest.core
import rpforest.forest
from rpforest.core import Dataset
from rpforest.oracle import all_true_neighbors, exact_knn


def double_loop_knn(points, qi, k):
    """Independent quadratic brute force with (distance, id) ordering."""
    scored = []
    for j in range(len(points)):
        if j == qi:
            continue
        scored.append((math.dist(points[qi], points[j]), j))
    scored.sort()
    return [j for _, j in scored[:k]], [d for d, _ in scored[:k]]


KINDS = ["continuous", "grid", "duplicates", "offset", "huge", "mixed", "tiny"]


def kind_points(kind, rng, shape):
    """Points of one kind. offset: 1e6 plus a 1e-3 spread (Gram terms cancel);
    huge: +-1e200 (squared distances overflow to inf); mixed: unit scale with
    a few points near +-1e160; tiny: near 1e-170 or 1e-160 (squares underflow)."""
    if kind == "continuous":
        return rng.normal(size=shape)
    if kind == "grid":  # exact distance ties
        return rng.integers(-2, 3, size=shape).astype(np.float64)
    if kind == "duplicates":
        distinct = rng.normal(size=(int(rng.integers(1, 4)), shape[1]))
        return distinct[rng.integers(0, distinct.shape[0], size=shape[0])]
    if kind == "offset":
        return 1e6 + 1e-3 * rng.normal(size=shape)
    if kind == "huge":
        return 1e200 * rng.normal(size=shape)
    if kind == "mixed":
        points = rng.normal(size=shape)
        few = rng.choice(shape[0], size=min(3, shape[0]), replace=False)
        points[few] = 1e160 * rng.normal(size=(few.size, shape[1]))
        return points
    return rng.choice([1e-170, 1e-160]) * rng.normal(size=shape)


@st.composite
def oracle_cases(draw):
    """Data of one of KINDS with a held-out query of the same kind, or one far
    from the data, k in 1..n-1, an optional self id and a column order.
    Returns (data, query, k, self_id, order)."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = kind_points(kind, rng, (n + 1, d))
    query = points[n] + draw(st.sampled_from([0.0, 1e3])) * (1.0 + np.abs(points).max())
    k = draw(st.one_of(st.just(n - 1), st.integers(1, n - 1)))
    self_id = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    order = np.array(draw(st.permutations(range(n))), dtype=np.intp)
    return Dataset.from_points(points[:n]), query, k, self_id, order


def assert_same_row(found, expected):
    np.testing.assert_array_equal(found.ids, expected.ids)
    np.testing.assert_array_equal(found.distances, expected.distances)


@settings(max_examples=200, deadline=None)
@given(oracle_cases())
def test_oracle_matches_full_stable_sort(case):
    """Both oracle paths and the shared ranker, forest._rank, equal a full
    stable argsort over every id except the query's own, bit for bit."""
    data, x, k, self_id, order = case
    others = data.ids if self_id is None else np.delete(data.ids, self_id)
    assert_same_row(exact_knn(data, x, k, self_id), reference.rank(data, others, x, k))
    expected = [reference.rank(data, np.delete(data.ids, i), data.points[i], k) for i in range(data.n)]
    for found, ref in zip(all_true_neighbors(data, k), expected, strict=True):
        assert_same_row(found, ref)
    # the ranker does not lean on candidates arriving in id order: each row's
    # pool is every id in the drawn order, own id included, and _rank drops it
    indices = np.tile(order, data.n)
    indptr = np.arange(0, indices.size + 1, data.n)
    shuffled = rpforest.forest._rank(data.points, data.points, indptr, indices, k, data.ids)
    for found, ref in zip(shuffled, expected, strict=True):
        assert_same_row(found, ref)


class TestExactKnn:
    def test_collinear_hand_case(self):
        ds = Dataset.from_points([[0.0], [1.0], [3.0]])
        found = exact_knn(ds, ds.points[0], 2, self_id=0)
        np.testing.assert_array_equal(found.ids, [1, 2])
        np.testing.assert_array_equal(found.distances, [1.0, 3.0])

    def test_matches_double_loop_oracle(self):
        pts = np.random.default_rng(0).normal(size=(500, 4))
        ds = Dataset.from_points(pts)
        for qi in range(0, 500, 10):  # 50 queries
            found = exact_knn(ds, pts[qi], 7, self_id=qi)
            ids, dists = double_loop_knn(pts, qi, 7)
            np.testing.assert_array_equal(found.ids, ids)
            np.testing.assert_allclose(found.distances, dists, atol=1e-12)

    def test_k_bounds(self):
        ds = Dataset.from_points(np.eye(5))
        with pytest.raises(ValueError):
            exact_knn(ds, ds.points[0], 5, self_id=0)  # k > n-1 with self excluded
        with pytest.raises(ValueError):
            exact_knn(ds, ds.points[0], 6)
        assert len(exact_knn(ds, ds.points[0], 5)) == 5

    def test_no_closer_point_excluded(self):
        pts = np.random.default_rng(1).normal(size=(200, 3))
        ds = Dataset.from_points(pts)
        found = exact_knn(ds, pts[3], 5, self_id=3)
        kth = found.distances[-1]
        excluded = np.setdiff1d(np.arange(200), np.append(found.ids, 3))
        dists = np.sqrt(np.sum((pts[excluded] - pts[3]) ** 2, axis=1))
        assert np.all(dists >= kth)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda ds: exact_knn(ds, [np.nan, 0.0], 3), "NaN or Inf"),
            (lambda ds: exact_knn(ds, [np.inf, 0.0], 3), "NaN or Inf"),
            (lambda ds: exact_knn(ds, 0.5, 3), "dimension mismatch"),
            (lambda ds: exact_knn(ds, [0.0, 0.0], 3, self_id=-1), "self ids"),
            (lambda ds: exact_knn(ds, [0.0, 0.0], 3, self_id=ds.n), "self ids"),
            (lambda ds: exact_knn(ds, [0.0, 0.0], 3, self_id=1.0), "self ids"),
        ],
    )
    def test_bad_inputs_rejected(self, call, message):
        ds = Dataset.from_points(np.random.default_rng(6).normal(size=(10, 2)))
        with pytest.raises(ValueError, match=message):
            call(ds)

    def test_tie_break_by_id(self):
        pts = np.array([[2.0], [1.0], [-1.0], [1.0]])
        ds = Dataset.from_points(pts)
        found = exact_knn(ds, np.array([0.0]), 3)
        np.testing.assert_array_equal(found.ids, [1, 2, 3])


class TestAllTrueNeighbors:
    def test_two_points(self):
        ds = Dataset.from_points([[0.0], [2.0]])
        table = all_true_neighbors(ds, 1)
        assert table[0].ids[0] == 1 and table[1].ids[0] == 0

    def test_row_count(self):
        ds = Dataset.from_points(np.random.default_rng(2).normal(size=(37, 3)))
        assert len(all_true_neighbors(ds, 4)) == 37

    def test_rows_match_exact_knn(self):
        pts = np.random.default_rng(3).normal(size=(120, 5))
        ds = Dataset.from_points(pts)
        table = all_true_neighbors(ds, 6)
        for i in range(0, 120, 11):
            single = exact_knn(ds, pts[i], 6, self_id=i)
            np.testing.assert_array_equal(table[i].ids, single.ids)
            np.testing.assert_array_equal(table[i].distances, single.distances)

    def test_mutual_nearest_neighbors_symmetric_distance(self):
        pts = np.random.default_rng(4).normal(size=(80, 2))
        ds = Dataset.from_points(pts)
        table = all_true_neighbors(ds, 1)
        for i in range(80):
            j = int(table[i].ids[0])
            if int(table[j].ids[0]) == i:
                assert table[i].distances[0] == table[j].distances[0]

    # each fails with one part of the oracle's filter slack taken out: the
    # huge and mixed ones without the overflow rule, grid with tol = 0, and
    # tiny (seed 2, 1-d) without the absolute term for underflow
    @pytest.mark.parametrize("kind, seed, d", [("huge", 13, 3), ("mixed", 13, 3), ("tiny", 2, 1), ("grid", 13, 3)])
    def test_regression_rows_where_gram_terms_round_overflow_or_underflow(self, kind, seed, d):
        data = Dataset.from_points(kind_points(kind, np.random.default_rng(seed), (12, d)))
        for k in (1, 5, 11):
            for i, row in enumerate(all_true_neighbors(data, k)):
                assert_same_row(row, reference.rank(data, np.delete(data.ids, i), data.points[i], k))
            far = np.full(d, 1e3)
            assert_same_row(exact_knn(data, far, k), reference.rank(data, data.ids, far, k))

    def test_overflowing_distances_order_by_id(self):
        # every squared distance is inf, so (distance, id) order is id order
        data = Dataset.from_points(kind_points("huge", np.random.default_rng(13), (12, 3)))
        found = exact_knn(data, np.zeros(3), 5)
        np.testing.assert_array_equal(found.ids, [0, 1, 2, 3, 4])
        assert np.all(found.distances == np.inf)

    def test_chunking_does_not_change_results(self):
        pts = np.random.default_rng(5).normal(size=(60, 3))
        ds = Dataset.from_points(pts)
        # chunks of 7 rows of 17 n bytes (the last one short), and on one worker one chunk of all 60
        with mock.patch.object(rpforest.forest, "POOL_BYTES", 17 * 60 * 7 * rpforest.core.WORKERS):
            a = all_true_neighbors(ds, 3)
        with mock.patch.object(rpforest.core, "WORKERS", 1):
            b = all_true_neighbors(ds, 3)
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.ids, rb.ids)
            np.testing.assert_array_equal(ra.distances, rb.distances)
