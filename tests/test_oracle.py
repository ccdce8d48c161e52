import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
import rpforest.core
import rpforest.oracle
from rpforest.core import Dataset
from rpforest.forest import nearest
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


@st.composite
def oracle_cases(draw):
    """Continuous, integer-grid (exact distance ties) or duplicate-heavy data
    with a held-out query of the same kind, k in 1..n-1, an optional self id
    and a column order. Returns (data, query, k, self_id, order)."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["continuous", "grid", "duplicates"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "continuous":
        points = rng.normal(size=(n + 1, d))
    elif kind == "grid":
        points = rng.integers(-2, 3, size=(n + 1, d)).astype(np.float64)
    else:
        distinct = rng.normal(size=(draw(st.integers(1, 3)), d))
        points = distinct[rng.integers(0, distinct.shape[0], size=n + 1)]
    k = draw(st.one_of(st.just(n - 1), st.integers(1, n - 1)))
    self_id = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    order = np.array(draw(st.permutations(range(n))), dtype=np.intp)
    return Dataset.from_points(points[:n]), points[n], k, self_id, order


def assert_same_row(found, expected):
    np.testing.assert_array_equal(found.ids, expected.ids)
    np.testing.assert_array_equal(found.distances, expected.distances)


@settings(max_examples=200, deadline=None)
@given(oracle_cases())
def test_oracle_matches_full_stable_sort(case):
    """Both oracle paths and the shared selection rule equal a full stable
    argsort over every id except the query's own, bit for bit."""
    data, x, k, self_id, order = case
    others = data.ids if self_id is None else np.delete(data.ids, self_id)
    assert_same_row(exact_knn(data, x, k, self_id), reference.rank(data, others, x, k))
    expected = [reference.rank(data, np.delete(data.ids, i), data.points[i], k) for i in range(data.n)]
    for found, ref in zip(all_true_neighbors(data, k), expected, strict=True):
        assert_same_row(found, ref)
    # the rule does not lean on candidates arriving in id order
    diffs = data.points[None, :, :] - data.points[:, None, :]
    grid = np.sqrt(np.einsum("ijk,ijk->ij", diffs, diffs))
    np.fill_diagonal(grid, np.inf)
    shuffled = nearest(grid[:, order], data.ids[order], k, np.full(data.n, k))
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

    def test_chunking_does_not_change_results(self):
        pts = np.random.default_rng(5).normal(size=(60, 3))
        ds = Dataset.from_points(pts)
        # chunks of 7 rows (the last one short) and one chunk of all 60
        with mock.patch.object(rpforest.oracle, "ORACLE_BYTES", 8 * 60 * 3 * 7 * rpforest.core.WORKERS):
            a = all_true_neighbors(ds, 3)
        with mock.patch.object(rpforest.oracle, "ORACLE_BYTES", 8 * 60 * 3 * 60 * rpforest.core.WORKERS):
            b = all_true_neighbors(ds, 3)
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.ids, rb.ids)
            np.testing.assert_array_equal(ra.distances, rb.distances)
