import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpforest.core import (
    Dataset,
    dispersion,
    euclidean_distance,
    project,
    random_unit_direction,
)


class TestDataset:
    def test_ids_are_row_indices(self):
        ds = Dataset.from_points([[1.0, 2.0], [3.0, 4.0]])
        assert ds.n == 2 and ds.d == 2
        np.testing.assert_array_equal(ds.ids, [0, 1])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Dataset.from_points([[1.0, np.nan]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Dataset.from_points(np.empty((0, 3)))


class TestProject:
    def test_axis_projections(self):
        assert project([3.0, 4.0], [1.0, 0.0]) == 3.0
        assert project([3.0, 4.0], [0.0, 1.0]) == 4.0

    def test_diagonal_direction(self):
        # hand-evaluated dot products, cross-checked against a scalar loop
        pts = np.array([[1.0, 1.0], [2.0, 2.0]])
        r = np.array([1.0, 1.0]) / np.sqrt(2)
        values = project(pts, r)
        expected = [sum(p[j] * r[j] for j in range(2)) for p in pts]
        np.testing.assert_allclose(values, expected, atol=1e-12)
        np.testing.assert_allclose(values, [np.sqrt(2), 2 * np.sqrt(2)], atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            project([1.0, 2.0], [1.0, 0.0, 0.0])

    def test_preserves_order(self):
        pts = np.random.default_rng(0).normal(size=(10, 3))
        r = np.array([1.0, 0.0, 0.0])
        np.testing.assert_array_equal(project(pts, r), pts[:, 0])

    @given(st.floats(min_value=-10, max_value=10, allow_nan=False))
    def test_linearity_in_direction(self, alpha):
        pts = np.arange(12.0).reshape(4, 3)
        r = np.array([0.5, -0.5, 1.0])
        np.testing.assert_allclose(project(pts, alpha * r), alpha * project(pts, r), atol=1e-9)


class TestEuclideanDistance:
    def test_3_4_5_triangle(self):
        assert euclidean_distance([0.0, 0.0], [3.0, 4.0]) == 5.0

    def test_identity(self):
        x = [1.5, -2.0, 7.0]
        assert euclidean_distance(x, x) == 0.0

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=5), rng.normal(size=5)
        expected = sum((ai - bi) ** 2 for ai, bi in zip(a, b)) ** 0.5
        assert abs(euclidean_distance(a, b) - expected) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            euclidean_distance([1.0], [1.0, 2.0])

    def test_triangle_inequality(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a, b, c = rng.normal(size=(3, 4))
            assert euclidean_distance(a, c) <= (
                euclidean_distance(a, b) + euclidean_distance(b, c) + 1e-12
            )


class TestDispersion:
    def test_constant_values(self):
        assert dispersion([5.0, 5.0, 5.0, 5.0]) == 0.0

    def test_analytic_case(self):
        # sum((x - mean)^2) / (m - 1) = 2/2 = 1
        assert dispersion([0.0, 1.0, 2.0]) == pytest.approx(1.0, abs=1e-12)

    def test_single_value(self):
        assert dispersion([3.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dispersion([])

    def test_matches_two_pass_oracle(self):
        values = np.random.default_rng(3).normal(size=100)
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        assert abs(dispersion(values) - var**0.5) < 1e-10

    @settings(max_examples=300)
    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=300),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )
    def test_bit_identical_to_numpy_std(self, values, offset):
        v = np.asarray(values) + offset
        assert dispersion(v) == float(np.std(v, ddof=1))

    def test_translation_invariant(self):
        values = np.random.default_rng(4).normal(size=30)
        assert dispersion(values + 17.5) == pytest.approx(dispersion(values), abs=1e-9)

    @given(st.floats(min_value=-100, max_value=100, allow_nan=False))
    @settings(max_examples=30)
    def test_scaling(self, alpha):
        values = np.linspace(-1, 2, 20)
        assert dispersion(alpha * values) == pytest.approx(abs(alpha) * dispersion(values), abs=1e-7)

    @settings(max_examples=100)
    @given(st.lists(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=30), min_size=1, max_size=8))
    def test_groups_match_one_group_at_a_time(self, groups):
        values = np.concatenate([np.asarray(g, dtype=np.float64) for g in groups])
        seg = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
        spread = dispersion(values, seg)
        assert spread.shape == (len(groups),)
        for i, g in enumerate(groups):
            # a group's result does not depend on the others
            assert spread[i] == dispersion(values[seg == i], np.zeros(len(g), dtype=np.intp))[0]
            assert spread[i] == pytest.approx(dispersion(g), rel=1e-9, abs=1e-6)


class TestRandomUnitDirection:
    def test_1d_is_sign(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            r = random_unit_direction(1, rng)
            assert r[0] in (pytest.approx(1.0), pytest.approx(-1.0))

    def test_unit_norm(self):
        rng = np.random.default_rng(6)
        for d in (1, 2, 3, 17, 64):
            assert np.linalg.norm(random_unit_direction(d, rng)) == pytest.approx(1.0, abs=1e-9)

    def test_seed_reproducibility(self):
        a = random_unit_direction(8, np.random.default_rng(7))
        b = random_unit_direction(8, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_sphere_symmetry(self):
        # per-component mean of 1e5 draws stays within 3 standard errors of 0
        rng = np.random.default_rng(8)
        draws = np.array([random_unit_direction(3, rng) for _ in range(100_000)])
        # variance of one component of a uniform unit 3-vector is 1/3
        se = np.sqrt(1.0 / 3.0 / draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0)) < 3 * se)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            random_unit_direction(0, np.random.default_rng(9))
