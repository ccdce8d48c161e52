import numpy as np
import pytest

from rpforest.core import Dataset
from rpforest.forest import build_forest, query_all_training
from rpforest.oracle import NeighborList, NeighborTable
from rpforest.oracle import all_true_neighbors
from rpforest.tree import TreeConfig
from rpforest.metrics import distance_error, missing_rate


def row(ids, distances=None):
    ids = np.asarray(ids, dtype=np.intp)
    if distances is None:
        distances = np.arange(1.0, ids.size + 1)
    return NeighborList(ids=ids, distances=np.asarray(distances, dtype=np.float64))


class TestMissingRate:
    def test_perfect_retrieval(self):
        truth = [row([1, 2, 3]), row([4, 5, 6])]
        m_bar, missed = missing_rate(truth, truth, 3)
        assert m_bar == 0.0
        np.testing.assert_array_equal(missed, [0, 0])

    def test_partial_miss(self):
        # truth {a..e}, found {a,b,x,y,z}: 3 of 5 missed
        truth = [row([0, 1, 2, 3, 4])]
        found = [row([0, 1, 10, 11, 12])]
        m_bar, missed = missing_rate(truth, found, 5)
        assert missed[0] == 3
        assert m_bar == pytest.approx(0.6)

    def test_all_empty_found_rows(self):
        truth = [row([0, 1]), row([2, 3])]
        empty = [row([]), row([])]
        m_bar, missed = missing_rate(truth, empty, 2)
        assert m_bar == 1.0
        np.testing.assert_array_equal(missed, [2, 2])

    def test_short_found_row_misses_more(self):
        truth = [row([0, 1, 2])]
        found = [row([0])]
        m_bar, missed = missing_rate(truth, found, 3)
        assert missed[0] == 2

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            missing_rate([row([0])], [row([0]), row([1])], 1)

    def test_truth_row_length_enforced(self):
        with pytest.raises(ValueError):
            missing_rate([row([0, 1])], [row([0, 1])], 3)

    def test_normalization(self):
        # sum m_i / (n * k) exactly
        truth = [row([0, 1]), row([2, 3]), row([4, 5])]
        found = [row([0, 1]), row([2, 9]), row([8, 9])]
        m_bar, missed = missing_rate(truth, found, 2)
        assert m_bar == pytest.approx((0 + 1 + 2) / 6)


class TestDistanceError:
    def test_identical_tables(self):
        truth = [row([1, 2], [0.5, 1.5])]
        d_bar, excluded = distance_error(truth, truth, 2)
        assert d_bar == 0.0 and excluded == 0

    def test_hand_case(self):
        # truth k-th distances {1.0, 2.0}, found {1.5, 2.0} -> mean 0.25
        truth = [row([0, 1], [0.2, 1.0]), row([2, 3], [0.3, 2.0])]
        found = [row([0, 5], [0.2, 1.5]), row([2, 3], [0.3, 2.0])]
        d_bar, excluded = distance_error(truth, found, 2)
        assert d_bar == pytest.approx(0.25)
        assert excluded == 0

    def test_short_row_uses_last_distance(self):
        truth = [row([0, 1, 2], [1.0, 2.0, 3.0])]
        found = [row([0], [1.2])]
        d_bar, _ = distance_error(truth, found, 3)
        assert d_bar == pytest.approx(1.2 - 3.0)

    def test_empty_rows_excluded_and_counted(self):
        truth = [row([0], [1.0]), row([1], [2.0])]
        found = [row([]), row([1], [2.5])]
        d_bar, excluded = distance_error(truth, found, 1)
        assert excluded == 1
        assert d_bar == pytest.approx(0.5)

    def test_all_rows_empty(self):
        truth = [row([0], [1.0])]
        found = [row([])]
        d_bar, excluded = distance_error(truth, found, 1)
        assert excluded == 1
        assert np.isnan(d_bar)

    def test_nonnegative_when_found_is_subset_ranking(self):
        # found k-th order statistic dominates the true one
        rng = np.random.default_rng(0)
        for _ in range(50):
            dists = np.sort(rng.uniform(size=10))
            truth = [row(np.arange(5), dists[:5])]
            pick = np.sort(rng.choice(10, size=5, replace=False))
            found = [row(pick, dists[pick])]
            d_bar, _ = distance_error(truth, found, 5)
            assert d_bar >= -1e-15


@pytest.mark.parametrize("metric", [missing_rate, distance_error])
class TestBadTables:
    """Both metrics read and check the tables in one place."""

    @pytest.mark.parametrize(
        "truth, found, k, message",
        [
            # keyed as row * span + id, the -1 in found row 1 would match id 4 of row 0
            ([row([0, 4]), row([1, 2])], [row([0, 3]), row([1, -1])], 2, "found ids must be non-negative, got -1"),
            ([row([0, -1])], [row([0, 1])], 2, "truth ids must be non-negative"),
            ([], [], 1, "empty tables"),
            ([row([0, 1])], [row([0, 1])], 2.0, "k must be an integer in \\[1, inf\\], got 2.0"),
            ([row([0, 1])], [row([0, 1])], np.int64(0), "k must be an integer in \\[1, inf\\], got np.int64\\(0\\)"),
            ([row([0, 1]), row([2])], [row([0, 1]), row([2])], 2, "truth row 1 has 1 entries, expected k=2"),
        ],
    )
    def test_rejected(self, metric, truth, found, k, message):
        with pytest.raises(ValueError, match=message):
            metric(truth, found, k)

    def test_integer_k_of_any_type(self, metric):
        truth = [row([0, 1], [0.5, 1.0])]
        assert metric(truth, truth, np.int64(2))[0] == 0.0


class TestTables:
    """The metrics read a NeighborTable's arrays directly and a list of rows
    by concatenating them: both give the same floats."""

    def test_table_and_its_row_list_score_the_same(self):
        data = Dataset(np.random.default_rng(80).normal(size=(400, 3)))
        truth = all_true_neighbors(data, 6)
        for n_trees, capacity in ((1, 8), (4, 20)):
            found = query_all_training(build_forest(data, TreeConfig(leaf_capacity=capacity), n_trees, 81), 6)
            if n_trees == 1:  # leaves of at most 7 points: short found rows are scored too
                assert np.diff(found.indptr).min() < 6
            for k in (1, 6):
                t, f = truth.prefix(k), found.prefix(k)
                for score in (missing_rate, distance_error):
                    by_table = score(t, f, k)
                    for pair in ((list(t), list(f)), (list(t), f), (t, list(f))):
                        by_rows = score(*pair, k)
                        assert by_rows[0] == by_table[0]
                        np.testing.assert_array_equal(by_rows[1], by_table[1])

    def test_table_checks_match_row_checks(self):
        truth = NeighborTable(np.array([0, 2, 3]), np.array([0, 1, 2]), np.array([1.0, 2.0, 1.0]))
        with pytest.raises(ValueError, match="truth row 1 has 1 entries, expected k=2"):
            missing_rate(truth, truth, 2)
        with pytest.raises(ValueError, match="truth row 1 has 1 entries, expected k=2"):
            missing_rate(list(truth), truth, 2)
        negative = NeighborTable(np.array([0, 1]), np.array([-1]), np.array([1.0]))
        with pytest.raises(ValueError, match="found ids must be non-negative, got -1"):
            distance_error([row([0])], negative, 1)
