import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rpforest.cli
from rpforest.cli import ExperimentConfig, run_experiment_grid
from rpforest.core import (
    Dataset,
    Level,
    dispersion,
    random_unit_direction,
)
from rpforest.data import gen_concentric_rings, gen_gaussian_blobs, load_csv
from rpforest.forest import build_forest
from rpforest.strategies import StrategyConfig
from rpforest.tree import TreeConfig


@pytest.mark.parametrize("make", [Dataset, Dataset.from_points], ids=["Dataset", "from_points"])
class TestDataset:
    def test_ids_are_row_indices(self, make):
        ds = make([[1.0, 2.0], [3.0, 4.0]])
        assert ds.n == 2 and ds.d == 2
        np.testing.assert_array_equal(ds.ids, [0, 1])
        assert ds.points.dtype == np.float64 and ds.points.flags.c_contiguous
        assert [f.name for f in dataclasses.fields(ds)] == ["points"]

    def test_points_are_a_read_only_copy(self, make):
        source = np.zeros((3, 2))
        ds = make(source)
        source[0, 0] = np.nan
        assert np.isfinite(ds.points).all()
        with pytest.raises(ValueError, match="read-only"):
            ds.points[0, 0] = np.nan

    def test_rejects_nan(self, make):
        with pytest.raises(ValueError, match="NaN or Inf"):
            make([[1.0, np.nan]])

    def test_rejects_inf(self, make):
        with pytest.raises(ValueError, match="NaN or Inf"):
            make([[1.0, 2.0], [-np.inf, 0.0]])

    def test_rejects_1d(self, make):
        with pytest.raises(ValueError, match="2-d"):
            make([1.0, 2.0, 3.0])

    def test_rejects_empty(self, make):
        with pytest.raises(ValueError, match="n >= 1"):
            make(np.empty((0, 3)))

    def test_compares_and_hashes_by_identity(self, make):
        points = np.zeros((3, 2))
        a, b = make(points), make(points)
        assert (a == b) is False and (a == a) is True
        assert hash(a) == hash(a) and len({a, b}) == 2


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
        sizes = np.array([len(g) for g in groups])
        seg = np.repeat(np.arange(len(groups)), sizes)
        spread = dispersion(values, seg, sizes)
        assert spread.shape == (len(groups),)
        for i, g in enumerate(groups):
            # a group's result does not depend on the others
            assert spread[i] == dispersion(values[seg == i], np.zeros(len(g), dtype=np.intp), sizes[i : i + 1])[0]
            assert spread[i] == pytest.approx(dispersion(g), rel=1e-9, abs=1e-6)


class TestLevel:
    @settings(max_examples=200)
    @given(
        st.sampled_from([1, 2, 7, 8, 9, 64]),
        st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=12),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(8, [1, 1, 1, 2, 3, 9, 3], 0)  # a block over 5 nodes, one inside a node, a tail over 2
    @example(9, [16, 8, 1], 1)  # whole blocks only, then a one-row tail
    def test_project_equals_rowwise_einsum(self, d, sizes, seed):
        rng = np.random.default_rng(seed)
        sizes = np.array(sizes)
        n = sizes.sum()
        # a view into a larger buffer: Level takes any C-contiguous rows, not only a fresh gather
        points = np.empty((n + 3, d))[:n]
        points[:] = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
        r = rng.normal(size=(sizes.size, d))
        expected = np.einsum("ij,ij->i", points, r[np.repeat(np.arange(sizes.size), sizes)])
        assert Level(points, sizes).project(r).tobytes() == expected.tobytes()  # bit for bit


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


def _must_not_run(*args, **kwargs):
    raise AssertionError("work started before the arguments were checked")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: build_forest(Dataset(np.eye(3)), TreeConfig(), 2.5, 0), "n_trees must be an integer in [1, inf], got 2.5"),
        (lambda: build_forest(Dataset(np.eye(3)), TreeConfig(), 0, 0), "n_trees must be an integer in [1, inf], got 0"),
        (lambda: StrategyConfig(method=2, n_try=2.5), "n_try must be an integer in [1, inf], got 2.5"),
        (lambda: StrategyConfig(method=2, n_try=0), "n_try must be an integer in [1, inf], got 0"),
        (lambda: gen_gaussian_blobs(10.5, 2, 2, 1.0, 0), "n must be an integer in [2, inf], got 10.5"),
        (lambda: gen_gaussian_blobs(1, 2, 2, 1.0, 0), "n must be an integer in [2, inf], got 1"),
        (lambda: TreeConfig(leaf_capacity=20.5), "leaf_capacity must be an integer in [2, inf], got 20.5"),
        (lambda: TreeConfig(leaf_capacity="3"), "leaf_capacity must be an integer in [2, inf], got '3'"),
        (lambda: StrategyConfig(method=2.0), "method must be an integer in [1, 4], got 2.0"),
        (lambda: StrategyConfig(method=5), "method must be an integer in [1, 4], got 5"),
        (lambda: gen_gaussian_blobs(200, 2, 2.5, 1.0, 0), "centers must be an integer in [1, inf], got 2.5"),
        (lambda: gen_gaussian_blobs(200, 2.5, 2, 1.0, 0), "d must be an integer in [1, inf], got 2.5"),
        (lambda: gen_gaussian_blobs(200, -1, 2, 1.0, 0), "d must be an integer in [1, inf], got -1"),
        (lambda: gen_concentric_rings(2.5, [1.0], 0.0, 0), "n must be an integer in [1, inf], got 2.5"),
        (lambda: gen_concentric_rings(-3, [1.0], 0.0, 0), "n must be an integer in [1, inf], got -3"),
        (lambda: random_unit_direction(2.5, np.random.default_rng(0)), "d must be an integer in [1, inf], got 2.5"),
        (lambda: load_csv("no_such_file.csv", label_column=1.5), "label_column must be an integer, got 1.5"),
        (
            lambda: run_experiment_grid(Dataset(np.eye(3)), ExperimentConfig(k_values=(1,), repetitions=2.5)),
            "--reps must be an integer in [1, inf], got 2.5",
        ),
    ],
    ids=[
        "n_trees", "n_trees<1", "n_try", "n_try<1", "n", "n<2", "leaf_capacity", "leaf_capacity-str", "method",
        "method>4", "centers", "d", "d<1", "rings-n", "rings-n<1", "direction-d", "label_column", "reps",
    ],
)
def test_counts_are_integers_at_the_minimum_or_above(call, message, monkeypatch):
    # a non-integer count is a ValueError that names the argument, before any work:
    # load_csv does not open its file, and the grid does not start its exact oracle
    monkeypatch.setattr(rpforest.cli, "all_true_neighbors", _must_not_run)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
