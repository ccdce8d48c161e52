import hashlib
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rpforest.core
import rpforest.forest
import rpforest.oracle
from rpforest.core import Dataset
from rpforest.data import gen_gaussian_blobs
from rpforest.forest import build_forest, query_all_training, query_batch, query_knn
from rpforest.oracle import (
    NeighborList,
    NeighborTable,
    _bound,
    _groups,
    _spans,
    all_true_neighbors,
    centred,
    exact_knn,
    rank,
)
from rpforest.strategies import StrategyConfig
from rpforest.tree import TreeConfig
from test_oracle import KINDS, kind_points


def random_dataset(seed, n=300, d=2):
    return Dataset.from_points(np.random.default_rng(seed).normal(size=(n, d)))


def assert_same_forest(a, b):
    """The two forests' tables are equal array by array, dtypes included."""
    arrays = [(f.directions, f.splits, f.children, f.node_base, f.leaf_base, f.membership.indptr, f.membership.indices, f.leaf_of) for f in (a, b)]
    for x, y in zip(*arrays):
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)


class TestBuildForest:
    def test_single_tree_forest(self):
        ds = random_dataset(0)
        forest = build_forest(ds, TreeConfig(), 1, master_seed=1)
        assert len(forest.trees) == 1

    def test_compares_and_hashes_by_identity(self):
        ds = random_dataset(1, n=50)
        a, b = (build_forest(ds, TreeConfig(), 2, master_seed=2) for _ in range(2))
        assert (a == b) is False and (a == a) is True
        assert hash(a) == hash(a) and len({a, b}) == 2

    def test_invalid_tree_count(self):
        with pytest.raises(ValueError):
            build_forest(random_dataset(1), TreeConfig(), 0, master_seed=2)

    def test_same_seed_same_answers(self):
        ds = random_dataset(2)
        f1 = build_forest(ds, TreeConfig(), 5, master_seed=3)
        f2 = build_forest(ds, TreeConfig(), 5, master_seed=3)
        queries = np.random.default_rng(4).normal(size=(100, 2))
        for q in queries:
            a = query_knn(f1, q, 5)
            b = query_knn(f2, q, 5)
            np.testing.assert_array_equal(a.ids, b.ids)
            np.testing.assert_array_equal(a.distances, b.distances)

    def test_tree_prefix_stable_in_forest_size(self):
        # tree t is identical whether the forest has 3 or 8 trees
        ds = random_dataset(3)

        def digests(forest):
            return [tuple(tuple(leaf.member_ids) for leaf in t.leaves) for t in forest.trees]

        small = digests(build_forest(ds, TreeConfig(), 3, master_seed=5))
        large = digests(build_forest(ds, TreeConfig(), 8, master_seed=5))
        assert large[:3] == small

    def test_seed_sequence_is_never_advanced(self):
        ds, cfg = random_dataset(4, n=120, d=3), TreeConfig(leaf_capacity=8)
        ss = np.random.SeedSequence(6, spawn_key=(2,))
        first, second = (build_forest(ds, cfg, 4, ss) for _ in range(2))
        assert ss.n_children_spawned == 0
        assert_same_forest(first, second)
        assert_same_forest(first, build_forest(ds, cfg, 4, np.random.SeedSequence(6, spawn_key=(2,))))
        spawned = np.random.SeedSequence(6, spawn_key=(2,))
        spawned.spawn(3)  # tree t is child stream t whatever the seed spawned before
        assert_same_forest(first, build_forest(ds, cfg, 4, spawned))

    @pytest.mark.parametrize("seed", [-3, 1.5, True, "1", None, np.random.default_rng(0)])
    def test_bad_master_seed_named(self, seed):
        message = f"master_seed must be an integer in [0, inf], got {seed!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_forest(random_dataset(1, n=20), TreeConfig(), 2, seed)

    @pytest.mark.parametrize("seed", [6, np.int64(6)], ids=["int", "int64"])
    def test_integer_master_seeds_agree(self, seed):
        ds, cfg = random_dataset(4, n=120, d=3), TreeConfig(leaf_capacity=8)
        assert_same_forest(build_forest(ds, cfg, 3, seed), build_forest(ds, cfg, 3, np.random.SeedSequence(6)))

    @pytest.mark.parametrize("seed", [6, np.random.SeedSequence(6, spawn_key=(2,))], ids=["int", "SeedSequence"])
    def test_master_seed_rebuilds_the_forest(self, seed):
        ds, cfg = random_dataset(4, n=120, d=3), TreeConfig(leaf_capacity=8)
        forest = build_forest(ds, cfg, 4, seed)
        assert_same_forest(forest, build_forest(ds, cfg, 4, forest.master_seed))


class TestGoldenForest:
    """Pinned forests at d = 12, where the build projects whole blocks of rows
    (core.Level), as it does at every d, and on an integer grid, where many of
    a level's nodes hold tied values and so take the split's stable sort.
    Method 4's eight trees share their nodes' principal components, so their
    levels tie across nodes but not within one. A change that alters RNG use
    or summation order updates the digests and says so."""

    DIGESTS = {
        ("blobs", 1): "bcece242f339b0ee9fd70ba89da640a74a09ed591ed51bca80225e90acd34742",
        ("blobs", 2): "29d1d3cdbedb41b7e7a3f8d3a351612544accc53203f8f4d11826921c4130f75",
        ("blobs", 3): "3ad6ab4c5ff25bc953adb811f436b1ffb6f41c97b0e5a0bc76d5b00ec5d4bab9",
        ("blobs", 4): "7d789d46975bdf796a5af886e6225954fe56b40bd3a87f513f68ff43c1bd1e68",  # LAPACK's eigh arithmetic
        ("grid", 1): "07736a193c66c1601d421a5d96a13caebf47cbd70da2561f531702341d1b9951",
        ("grid", 2): "59f6deeea460ac2a386f38b18497ee2069450d0284adbe0f82901c10bef244e0",
        ("grid", 3): "a38afc78650bfc16d2a7bc9870b4d516eb95865dde0219925bc9b4b4eb2e342d",
        ("grid", 4): "3b51626b4585299cc329ddb514df0b19891efeae0edcc49f2f4f5b37e55ffd4e",
    }
    DATA = {
        "blobs": lambda: gen_gaussian_blobs(300, 12, 4, 1.0, 7),
        # 300 points on 20^3 integer sites: a few sites repeat, so some nodes tie
        "grid": lambda: Dataset(np.random.default_rng(7).integers(0, 20, size=(300, 3)).astype(np.float64)),
    }

    # the blobs forests keep their older ids, [1] to [3]
    @pytest.mark.parametrize("data, method", sorted(DIGESTS), ids=[f"{m}" if s == "blobs" else f"{s}-{m}" for s, m in sorted(DIGESTS)])
    def test_forest_arrays_keep_their_bytes(self, data, method):
        forest = build_forest(self.DATA[data](), TreeConfig(strategy=StrategyConfig(method=method)), 8, 11)
        csr, h = forest.membership, hashlib.sha256()
        for a in (forest.directions, forest.splits, forest.children, forest.node_base, forest.leaf_base, csr.indptr, csr.indices, forest.leaf_of):
            h.update(np.ascontiguousarray(a, dtype=np.float64 if a.dtype.kind == "f" else np.int64).tobytes())
        assert h.hexdigest() == self.DIGESTS[data, method]


class TestQueryKnn:
    def test_single_leaf_equals_brute_force(self):
        ds = random_dataset(4, n=50)
        forest = build_forest(ds, TreeConfig(leaf_capacity=100), 1, master_seed=6)
        for i in range(ds.n):
            found = query_knn(forest, ds.points[i], 5, self_id=i)
            truth = exact_knn(ds, ds.points[i], 5, self_id=i)
            np.testing.assert_array_equal(found.ids, truth.ids)
            np.testing.assert_array_equal(found.distances, truth.distances)

    def test_tie_broken_by_ascending_id(self):
        # ids 4 and 9 equidistant from the query: id 4 must rank first
        pts = np.zeros((10, 2))
        pts[:, 0] = 100.0 + 10.0 * np.arange(10)
        pts[4] = [1.0, 1.0]
        pts[9] = [1.0, -1.0]
        ds = Dataset.from_points(pts)
        forest = build_forest(ds, TreeConfig(leaf_capacity=100), 1, master_seed=7)
        found = query_knn(forest, np.array([1.0, 0.0]), 2)
        assert found.ids[0] == 4 and found.ids[1] == 9
        assert found.distances[0] == found.distances[1] == 1.0

    def test_self_exclusion(self):
        ds = random_dataset(5)
        forest = build_forest(ds, TreeConfig(), 5, master_seed=8)
        for i in range(0, ds.n, 29):
            found = query_knn(forest, ds.points[i], 5, self_id=i)
            assert i not in found.ids

    def test_output_sorted_and_capped(self):
        ds = random_dataset(6)
        forest = build_forest(ds, TreeConfig(), 3, master_seed=9)
        q = np.array([0.3, -0.2])
        found = query_knn(forest, q, 7)
        assert len(found) <= 7
        assert np.all(np.diff(found.distances) >= 0)
        assert len(set(found.ids.tolist())) == len(found)

    def test_short_list_when_pool_small(self):
        ds = random_dataset(7, n=4)
        forest = build_forest(ds, TreeConfig(), 1, master_seed=10)
        found = query_knn(forest, ds.points[0], 10, self_id=0)
        assert len(found) == 3

    def test_invalid_k(self):
        ds = random_dataset(8)
        forest = build_forest(ds, TreeConfig(), 1, master_seed=11)
        with pytest.raises(ValueError):
            query_knn(forest, ds.points[0], 0)

    def test_rows_compare_and_hash_by_identity(self):
        ds = random_dataset(8, n=50)
        forest = build_forest(ds, TreeConfig(), 2, master_seed=11)
        a, b = (query_knn(forest, ds.points[0], 2) for _ in range(2))
        np.testing.assert_array_equal(a.ids, b.ids)
        assert (a == b) is False and (a == a) is True
        assert hash(a) == hash(a) and len({a, b}) == 2

    def test_distances_are_recomputed_euclidean(self):
        ds = random_dataset(9)
        forest = build_forest(ds, TreeConfig(), 4, master_seed=12)
        q = ds.points[17]
        found = query_knn(forest, q, 5, self_id=17)
        expected = np.sqrt(np.sum((ds.points[found.ids] - q) ** 2, axis=1))
        np.testing.assert_allclose(found.distances, expected, atol=1e-12)


class TestQueryValidation:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda f: query_knn(f, [1.0, 2.0, 3.0], 3), "dimension mismatch"),
            (lambda f: query_knn(f, [np.nan, 0.0], 3), "NaN or Inf"),
            (lambda f: query_knn(f, [1.0 + 0.5j, 0.0], 3), "queries must be real"),
            (lambda f: query_batch(f, np.zeros((4, 3)), 3), "dimension mismatch"),
            (lambda f: query_batch(f, np.zeros(2), 3), "dimension mismatch"),
            (lambda f: query_batch(f, [[0.0, np.inf]], 3), "NaN or Inf"),
            (lambda f: query_batch(f, np.zeros((4, 2)), 3, self_ids=[0, 1]), "self_ids"),
            (lambda f: query_knn(f, [0.0, 0.0], 3, self_id=-1), "self ids"),
            (lambda f: query_knn(f, [0.0, 0.0], 3, self_id=50), "self ids"),
            (lambda f: query_batch(f, np.zeros((2, 2)), 3, self_ids=[0, 50]), "self ids"),
            (lambda f: query_batch(f, np.zeros((2, 2)), 3, self_ids=[-1, 0]), "self ids"),
            (lambda f: query_batch(f, np.zeros((2, 2)), 3, self_ids=[0.0, 1.0]), "self ids"),
            (lambda f: query_batch(f, np.zeros((2, 2)), 5.0), "k must be an integer in \\[1, inf\\], got 5.0"),
            (lambda f: query_knn(f, [0.0, 0.0], np.float64(3)), "k must be an integer"),
            (lambda f: query_all_training(f, "3"), "k must be an integer"),
        ],
    )
    def test_bad_queries_rejected(self, call, message):
        forest = build_forest(random_dataset(14, n=50), TreeConfig(), 2, master_seed=17)
        with pytest.raises(ValueError, match=message):
            call(forest)

    @pytest.mark.parametrize(
        "call, cause",
        [
            (lambda f: query_knn(f, [10**400, 0.0], 3), "int too large to convert to float"),
            (lambda f: query_knn(f, [{}, 0.0], 3), "not 'dict'"),
            (lambda f: query_knn(f, ["x", 0.0], 3), "could not convert string to float"),
            (lambda f: query_batch(f, [[0.0, 10**400], [0.0, 0.0]], 3), "int too large to convert to float"),
            (lambda f: query_batch(f, [[0.0, 0.0], [0.0]], 3), "inhomogeneous shape"),
            (lambda f: query_knn(f, [[1, 2], [3]], 3), "inhomogeneous shape"),
            (lambda f: query_knn(f, ["1", "2"], 3), "could not convert string to float: '1'"),
        ],
        ids=["knn-beyond-float64", "knn-dict", "knn-word", "batch-beyond-float64", "batch-ragged", "knn-ragged",
             "knn-numeric-strings"],
    )
    def test_non_numeric_queries_named(self, call, cause):
        forest = build_forest(random_dataset(14, n=50), TreeConfig(), 2, master_seed=17)
        with pytest.raises(ValueError, match=f"^queries must be real numbers: .*{re.escape(cause)}"):
            call(forest)


def candidate_ids(forest, q):
    # with k = n every pooled candidate comes back
    return query_knn(forest, q, forest.data.n).ids


class TestMonotoneCandidates:
    def test_candidate_pool_grows_with_trees(self):
        ds = random_dataset(10)
        forest = build_forest(ds, TreeConfig(), 12, master_seed=13)
        q = np.array([0.1, 0.4])
        previous = set()
        for t in range(1, 13):
            sub = build_forest(ds, TreeConfig(), t, master_seed=13)
            current = set(candidate_ids(sub, q).tolist())
            assert previous <= current
            previous = current
        assert previous == set(candidate_ids(forest, q).tolist())


class TestQueryAllTraining:
    def test_matches_per_point_query(self):
        ds = random_dataset(11)
        forest = build_forest(ds, TreeConfig(), 6, master_seed=14)
        batched = query_all_training(forest, 5)
        for i in range(0, ds.n, 17):
            single = query_knn(forest, ds.points[i], 5, self_id=i)
            np.testing.assert_array_equal(batched[i].ids, single.ids)
            np.testing.assert_array_equal(batched[i].distances, single.distances)

    def test_recall_improves_with_more_trees(self):
        # averaged over seeds, T=40 recalls at least as much as T=1
        ds = random_dataset(12, n=300)
        truth = all_true_neighbors(ds, 5)
        true_sets = [set(row.ids.tolist()) for row in truth]

        def mean_recall(T, seeds):
            recalls = []
            for seed in seeds:
                forest = build_forest(ds, TreeConfig(), T, master_seed=seed)
                found = query_all_training(forest, 5)
                hit = sum(len(true_sets[i] & set(found[i].ids.tolist())) for i in range(ds.n))
                recalls.append(hit / (ds.n * 5))
            return np.mean(recalls)

        seeds = range(50)
        assert mean_recall(40, seeds) >= mean_recall(1, seeds)


class TestQueryBatch:
    @pytest.mark.parametrize("own", [False, True], ids=["no_self_ids", "self_ids"])
    def test_matches_query_knn(self, own):
        ds = random_dataset(13)
        forest = build_forest(ds, TreeConfig(), 5, master_seed=15)
        queries = np.random.default_rng(16).normal(size=(30, 2))
        self_ids = np.arange(0, ds.n, 10) if own else None
        if own:  # every other query sits on its own point
            queries[::2] = ds.points[self_ids[::2]]
        batched = query_batch(forest, queries, 4, self_ids)
        for i, row in enumerate(batched):
            single = query_knn(forest, queries[i], 4, None if self_ids is None else int(self_ids[i]))
            assert (single.ids.dtype, single.distances.dtype) == (row.ids.dtype, row.distances.dtype)
            np.testing.assert_array_equal(row.ids, single.ids)
            np.testing.assert_array_equal(row.distances, single.distances)

    def test_empty_batch_and_huge_k(self):
        ds = random_dataset(18)
        forest = build_forest(ds, TreeConfig(), 3, master_seed=19)
        assert len(query_batch(forest, np.empty((0, 2)), 4)) == 0  # a table of no rows
        # k beyond the pool returns the whole pool without sizing anything by k
        found = query_knn(forest, ds.points[0], 10**12, self_id=0)
        assert 0 < len(found) < ds.n


class TestNeighborTable:
    """A table reads as the list of rows it replaces: rows are views of its
    arrays, and slices, index arrays and prefix(k) give tables."""

    @staticmethod
    def table():
        # rows of 3, 0, 2 and 1 entries
        return NeighborTable(np.array([0, 3, 3, 5, 6]), np.array([4, 1, 7, 2, 0, 5]), np.array([0.5, 1.0, 1.0, 0.2, 0.3, 2.0]))

    @staticmethod
    def as_lists(rows):
        return [(r.ids.tolist(), r.distances.tolist()) for r in rows]

    def test_rows_by_index_and_iteration(self):
        t = self.table()
        expected = [([4, 1, 7], [0.5, 1.0, 1.0]), ([], []), ([2, 0], [0.2, 0.3]), ([5], [2.0])]
        assert len(t) == 4
        assert self.as_lists(t) == self.as_lists([t[i] for i in range(4)]) == expected
        assert isinstance(t[0], NeighborList) and len(t[0]) == 3 and len(t[1]) == 0
        assert self.as_lists([t[np.int64(2)], t[np.intp(3)], t[-1], t[-4]]) == [expected[i] for i in (2, 3, 3, 0)]
        with pytest.raises(IndexError):
            t[4]
        with pytest.raises(IndexError):
            t[-5]
        with pytest.raises(TypeError):
            t[1.0]

    def test_slices_and_index_arrays_give_tables(self):
        t, rows = self.table(), self.as_lists(self.table())
        for key in (slice(None, 2), slice(1, None), slice(None, None, -1), slice(0, 4, 2), slice(3, 1), slice(None)):
            part = t[key]
            assert isinstance(part, NeighborTable) and self.as_lists(part) == rows[key]
            assert part.indptr[0] == 0 and part.indptr[-1] == part.ids.size == part.distances.size
        assert self.as_lists(t[np.array([3, 0, 0])]) == [rows[3], rows[0], rows[0]]
        assert self.as_lists(t[np.array([True, False, True, False])]) == [rows[0], rows[2]]

    def test_prefix(self):
        t = self.table()
        assert self.as_lists(t.prefix(1)) == [([4], [0.5]), ([], []), ([2], [0.2]), ([5], [2.0])]
        assert self.as_lists(t.prefix(2)) == [([4, 1], [0.5, 1.0]), ([], []), ([2, 0], [0.2, 0.3]), ([5], [2.0])]
        assert self.as_lists(t.prefix(10)) == self.as_lists(t)
        with pytest.raises(ValueError, match="k must be an integer"):
            t.prefix(0)

    def test_the_benchmarks_call_patterns(self):
        """bench/ slices a table, indexes it with a numpy array's items, extends
        a list with it and checks its rows; a test adds tables."""
        t, rows = self.table(), self.as_lists(self.table())
        assert self.as_lists(t[:2]) == rows[:2]
        assert self.as_lists([t[i] for i in np.array([2, 0])]) == [rows[2], rows[0]]
        first = []
        first.extend(t)
        assert self.as_lists(first) == rows
        joined = t + t[:1]
        joined += [t[3]]
        joined += t
        assert isinstance(joined, list) and self.as_lists(joined) == rows + rows[:1] + [rows[3]] + rows
        assert self.as_lists([t[0]] + t) == rows[:1] + rows
        assert len(NeighborTable.concat([])) == 0
        assert self.as_lists(NeighborTable.concat([t, t[2:], t[:0]])) == rows + rows[2:]

    def test_query_paths_return_one_table(self):
        ds = random_dataset(70)
        forest = build_forest(ds, TreeConfig(), 3, master_seed=71)
        truth = all_true_neighbors(ds, 5)
        for table in (query_all_training(forest, 5), query_batch(forest, ds.points[:7], 5), truth):
            assert isinstance(table, NeighborTable) and table.ids.dtype == np.intp and table.indptr[0] == 0
            assert np.all(np.diff(table.indptr) <= 5)
        # each k's oracle rows are the widest rows' prefixes
        for k in (1, 3, 5):
            narrow, prefix = all_true_neighbors(ds, k), truth.prefix(k)
            for a in ("indptr", "ids", "distances"):
                np.testing.assert_array_equal(getattr(narrow, a), getattr(prefix, a))


@st.composite
def rank_calls(draw):
    """A rank call of 2+ rows, the row i to rank alone, and k. The pools are
    empty, only the row's self id, ids twice over or any ids; integer-grid
    points give exact distance ties, and points scaled by 1e200 inf distances.
    k is 1, row i's pool size or above it."""
    n, d, m = draw(st.integers(1, 12)), draw(st.integers(1, 3)), draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = draw(st.sampled_from([1.0, 1e200])) * rng.integers(-2, 3, size=(n, d))
    queries = rng.integers(-2, 3, size=(m, d)).astype(np.float64)
    self_ids = rng.integers(0, n, size=m) if draw(st.booleans()) else None
    pools = []
    for row in range(m):
        kind = draw(st.sampled_from(["empty", "own", "twice", "any"]))
        ids = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
        own = [ids[0] if self_ids is None else self_ids[row]]
        pools.append({"empty": [], "own": own, "twice": ids + ids, "any": ids}[kind])
    indptr = np.cumsum([0] + [len(p) for p in pools])
    indices = np.array(sum(pools, []), dtype=draw(st.sampled_from([np.int32, np.intp])))
    i = draw(st.integers(0, m - 1))
    k = draw(st.sampled_from([1, max(1, len(pools[i])), len(pools[i]) + 1, 10**12]))
    return points, queries, indptr, indices, self_ids, i, k


class TestRank:
    @settings(max_examples=300, deadline=None)
    @given(rank_calls())
    def test_lone_row_ranks_as_in_a_batch(self, call):
        """A lone row takes rank's one-row branch; the same row inside a call
        of 2+ rows takes the padded-grid path. Both give the same bytes."""
        points, queries, indptr, indices, self_ids, i, k = call
        own = None if self_ids is None else self_ids[i : i + 1]
        alone = rank(points, queries[i : i + 1], indptr[i : i + 2], indices, k, own)
        inside = rank(points, queries, indptr, indices, k, self_ids)[i]
        assert len(alone) == 1 and len(inside) <= k
        for a, b in ((alone[0].ids, inside.ids), (alone[0].distances, inside.distances)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def filter_calls(draw):
    """A rank call of 2+ rows on points of one of test_oracle's kinds (grid
    ties, duplicates, 1e6 offsets, 1e200 and 1e-170 scales, ...) or on a line
    of points up to 9e153 from 0, whose distances and Gram terms may overflow
    while the filter's sigma does not, and k. The rows are points with their
    self ids, points without, or other points of the kind; each pool is every
    point in a drawn order, some points, ids twice over, one id or none. k is
    1 up to one beyond the longest pool, or huge."""
    n, d, m = draw(st.integers(1, 40)), draw(st.sampled_from([1, 2, 3, 7, 16])), draw(st.integers(2, 6))
    kind = draw(st.sampled_from(KINDS + ["near-max"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "near-max":
        points = np.zeros((n + m, d))
        points[:, 0] = 9e153 * rng.uniform(-1, 1, size=n + m)
    else:
        points = kind_points(kind, rng, (n + m, d))
    rows = rng.integers(0, n, size=m)
    queries = points[rows] if draw(st.booleans()) else points[n:]
    self_ids = rows if draw(st.booleans()) else None
    pools = []
    for _ in range(m):
        pool = draw(st.sampled_from(["every", "some", "twice", "one", "none"]))
        ids = rng.permutation(n) if pool != "some" else rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        pools.append({"every": ids, "some": ids, "twice": np.concatenate([ids, ids]), "one": ids[:1], "none": ids[:0]}[pool])
    indptr = np.cumsum([0] + [p.size for p in pools])
    indices = np.concatenate(pools).astype(draw(st.sampled_from([np.int32, np.intp])))
    k = draw(st.one_of(st.integers(1, int(np.diff(indptr).max()) + 1), st.just(10**12)))
    return points[:n], np.ascontiguousarray(queries), indptr, indices, self_ids, k


# ids 2 and 6 are both at an overflowing distance from point 0, and the
# sixth nearest is id 2, whose h overflows too: only the overflow rule keeps it
NEAR_MAX = np.array([-8.51061019873184e153, -4.678566370855442e153, 8.544403018508252e153, -7.541432639475831e153,
                     -6.449383907177511e153, 1.3153907010189592e153, 4.9314982561401646e153])[:, None]


class TestGramFilter:
    """rank's Gram filter drops only candidates that cannot place: filtered
    and direct ranking give the same bytes."""

    @settings(max_examples=1000, deadline=None)
    @given(filter_calls())
    @example(call=(NEAR_MAX, NEAR_MAX[[3, 0]], np.array([0, 7, 14]), np.tile(np.arange(7), 2), None, 6))
    def test_filtered_rank_equals_direct_rank(self, call):
        points, queries, indptr, indices, self_ids, k = call
        direct = rank(points, queries, indptr, indices, k, self_ids)
        tables = []
        # the rule filters whatever has candidates (_cut must run), in one block or a block a row
        for budget in (rpforest.core.POOL_BYTES, 1):
            with mock.patch.object(rpforest.oracle, "_FILTER_WORDS", -1e9), \
                    mock.patch.object(rpforest.core, "POOL_BYTES", budget), \
                    mock.patch.object(rpforest.oracle, "_cut", wraps=rpforest.oracle._cut) as cut:
                tables.append(rank(points, queries, indptr, indices, k, self_ids, centred(points)))
            assert cut.called == (indptr[-1] > indptr[0])
        # the rule never filters: the rows are ranked directly, here one span a row
        with mock.patch.object(rpforest.oracle, "_FILTER_WORDS", 1e9), mock.patch.object(rpforest.core, "POOL_BYTES", 1):
            tables.append(rank(points, queries, indptr, indices, k, self_ids, centred(points)))
        for table in tables:
            for a in ("indptr", "ids", "distances"):
                x, y = getattr(table, a), getattr(direct, a)
                assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("d, n_trees", [(12, 1), (12, 20), (64, 5)])
    def test_query_paths_equal_direct_ranking(self, d, n_trees):
        """Through the kernel, spans and workers: with the rule (filtering or
        falling back, d > _FILTER_WORDS) and with it never filtering."""
        data = random_dataset(30, n=400, d=d)
        forest = build_forest(data, TreeConfig(), n_trees, master_seed=31)
        queries = np.random.default_rng(32).normal(size=(50, d))
        outputs = []
        for words in (rpforest.oracle._FILTER_WORDS, np.inf):
            with mock.patch.object(rpforest.oracle, "_FILTER_WORDS", words):
                outputs.append([query_all_training(forest, 5), query_batch(forest, queries, 7, self_ids=np.arange(50))])
        for a, b in zip(*outputs):
            for name in ("indptr", "ids", "distances"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
                assert getattr(a, name).dtype == getattr(b, name).dtype


@st.composite
def bound_grids(draw):
    """A grid for _bound and k. Values are normal, a few tied values, or
    +-0.0; or each row repeats its first b columns (b = _groups(k, width),
    the group count's period, or 61). Then some entries may be nan, and each
    row's tail inf padding. The width reaches past the widths where _bound
    groups (4 b at least), and k is 1 up to past the width, or huge."""
    m, width = draw(st.integers(1, 6)), draw(st.one_of(st.integers(1, 40), st.integers(100, 700)))
    k = draw(st.one_of(st.integers(1, 8), st.integers(1, width + 2), st.just(10**12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = draw(st.sampled_from(["normal", "ties", "zeros"]))
    grid = {"normal": rng.normal(size=(m, width)), "ties": rng.integers(-2, 3, size=(m, width)).astype(np.float64),
            "zeros": rng.choice([-0.0, 0.0], size=(m, width))}[values]
    if draw(st.booleans()):
        period = draw(st.sampled_from([_groups(k, width), 61]))
        grid = grid[:, np.arange(width) % period]
    if draw(st.booleans()):
        grid[rng.random((m, width)) < draw(st.sampled_from([0.01, 0.5]))] = np.nan
    if draw(st.booleans()):
        grid[np.arange(width) >= rng.integers(0, width + 1, size=m)[:, None]] = np.inf
    return grid, k


class TestBound:
    """_bound is at or above each row's k-th smallest, and is the k-th itself
    where the rows are too narrow to group."""

    @settings(max_examples=500, deadline=None)
    @given(bound_grids())
    def test_at_or_above_the_kth(self, case):
        grid, k = case
        last = min(k, grid.shape[1]) - 1
        exact, bound = np.partition(grid, last, axis=1)[:, last], _bound(grid, k)
        # nan sorts last, as np.partition orders it
        assert np.all(np.isnan(bound) | (~np.isnan(exact) & (bound >= exact)))
        if 8 * k >= grid.shape[1]:
            assert bound.tobytes() == exact.tobytes()

    def test_group_counts(self):
        # the smallest prime at least max(61, 8 k), or the width where that is past a quarter of it
        assert [_groups(k, 1800) for k in (1, 5, 8, 20, 50, 56, 57)] == [61, 61, 67, 163, 401, 449, 1800]
        assert _groups(5, 244) == 61 and _groups(5, 243) == 243 and _groups(10**12, 7) == 7


class TestWorkers:
    """Results do not depend on how many threads parallel_map runs on."""

    @staticmethod
    def outputs(method, group_bytes):
        data = random_dataset(7, n=160, d=3)
        cfg = TreeConfig(leaf_capacity=8, strategy=StrategyConfig(method=method))
        queries = np.random.default_rng(8).normal(size=(40, 3))
        # build with group_bytes as each worker's share (None: the unpatched
        # budget), then query under a small budget: several pooling chunks
        build = rpforest.core.POOL_BYTES if group_bytes is None else group_bytes * rpforest.core.WORKERS
        with mock.patch.object(rpforest.core, "POOL_BYTES", build):
            forest = build_forest(data, cfg, 7, master_seed=9)
        with mock.patch.object(rpforest.core, "POOL_BYTES", 1 << 14):
            rows = query_all_training(forest, 5) + query_batch(forest, queries, 5)
            rows += [query_knn(forest, q, 5, self_id=3) for q in queries[:3]]
        # at most 69, 34 or 23 rows a chunk for 1, 2 or 3 workers: 3, 5 or 7 chunks of near-equal size
        with mock.patch.object(rpforest.core, "POOL_BYTES", 17 * 160 * 69):
            rows += all_true_neighbors(data, 5)
        rows += all_true_neighbors(data, 5)
        arrays = [forest.directions, forest.splits, forest.children, forest.node_base, forest.leaf_base]
        arrays += [forest.membership.indptr, forest.membership.indices, forest.leaf_of]
        return arrays + [a for row in rows for a in (row.ids, row.distances)]

    @pytest.mark.parametrize("method", [1, 2, 3, 4])
    @pytest.mark.parametrize("group_bytes", [2 * 8 * 160 * 3, None])
    def test_bit_identical_for_1_2_3_workers(self, method, group_bytes):
        outputs = []
        for workers in (1, 2, 3):
            with mock.patch.object(rpforest.core, "WORKERS", workers):
                outputs.append(self.outputs(method, group_bytes))
        for other in outputs[1:]:
            assert len(other) == len(outputs[0])
            for a, b in zip(outputs[0], other):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "n_trees, sizes",
        [
            # 6 trees' gathered points fit the budget: groups of 6, 3 or 2 trees
            (10, {1: [6, 4], 2: [3, 3, 3, 1], 3: [2, 2, 2, 2, 2]}),
            # fewer trees than that: at least one group per worker
            (3, {1: [3], 2: [2, 1], 3: [1, 1, 1]}),
        ],
    )
    def test_groups_share_pool_bytes(self, n_trees, sizes):
        """Each worker's groups gather at most its share of POOL_BYTES."""
        data = random_dataset(13, n=100, d=2)
        for workers, expected in sizes.items():
            with mock.patch.object(rpforest.core, "WORKERS", workers), \
                    mock.patch.object(rpforest.core, "POOL_BYTES", 6 * 8 * 100 * 2), \
                    mock.patch.object(rpforest.forest, "build_trees", wraps=rpforest.forest.build_trees) as spy:
                build_forest(data, TreeConfig(), n_trees, master_seed=14)
            # threads may call in any order; the groups are cut from tree 0 on
            assert sorted((len(call.args[2]) for call in spy.call_args_list), reverse=True) == expected

    def test_single_queries_start_no_threads(self):
        forest = build_forest(random_dataset(10), TreeConfig(), 5, master_seed=11)
        queries = np.random.default_rng(12).normal(size=(4, 2))
        with mock.patch.object(rpforest.core, "WORKERS", 2), \
                mock.patch.object(rpforest.core, "ThreadPoolExecutor", side_effect=AssertionError("thread pool")):
            query_knn(forest, queries[0], 5)
            query_batch(forest, queries, 5)
            with mock.patch.object(rpforest.core, "POOL_BYTES", 1 << 14):  # several chunks: the patch is live
                with pytest.raises(AssertionError, match="thread pool"):
                    query_all_training(forest, 5)


class TestWorkingSet:
    """The query side's memory follows POOL_BYTES, in the forest and in the oracle."""

    @pytest.mark.parametrize("search", ["all_true_neighbors", "query_all_training"])
    def test_peak_follows_pool_bytes(self, search):
        data = random_dataset(20, n=2000, d=3)
        forest = build_forest(data, TreeConfig(), 50, master_seed=21)
        budget = 2 << 20
        with mock.patch.object(rpforest.core, "POOL_BYTES", budget):
            tracemalloc.start()
            try:
                all_true_neighbors(data, 5) if search == "all_true_neighbors" else query_all_training(forest, 5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 3 * budget  # the rows returned take about 0.8 MB of it

    def test_peak_follows_pool_bytes_where_ranking_filters(self):
        """At d = 64 query_all_training ranks in spans sized for the Gram filter."""
        data = random_dataset(22, n=2000, d=64)
        forest = build_forest(data, TreeConfig(), 50, master_seed=23)
        budget, cut, calls = 2 << 20, rpforest.oracle._cut, []

        def counted(*args):  # a Mock would keep every argument alive
            calls.append(None)
            return cut(*args)

        with mock.patch.object(rpforest.core, "POOL_BYTES", budget), mock.patch.object(rpforest.oracle, "_cut", counted):
            tracemalloc.start()
            try:
                query_all_training(forest, 5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert calls
        assert peak < 3 * budget  # the centred points take 1 MB of it


class TestSpans:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 40), max_size=60).map(lambda c: np.array(c, dtype=np.intp)), st.integers(1, 300))
    def test_ranges_cover_rows_within_cap(self, counts, cap):
        spans = list(_spans(counts, cap))
        assert [lo for lo, _ in spans] + [counts.size] == [0] + [hi for _, hi in spans]
        for lo, hi in spans:
            assert hi > lo
            # padded to the longest row, a range fits cap unless one row alone exceeds it
            assert hi - lo == 1 or (hi - lo) * max(1, counts[lo:hi].max()) <= cap

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3000), st.integers(0, 50), st.integers(1, 5000))
    @example(rows=1000, count=17 * 1000, cap=(16 << 20) // 2)  # the oracle on 1000 points, two workers
    def test_uniform_counts_give_greedy_count_of_even_ranges(self, rows, count, cap):
        sizes = [hi - lo for lo, hi in _spans(np.full(rows, count), cap)]
        most = max(1, cap // max(1, count))  # rows a greedy cut puts in a range
        assert len(sizes) == -(-rows // most)
        assert max(sizes) - min(sizes) <= 1
