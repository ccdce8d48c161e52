import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rpforest.core
import rpforest.forest
from rpforest.core import Dataset
from rpforest.data import gen_gaussian_blobs
from rpforest.forest import (
    _rank,
    _spans,
    build_forest,
    query_all_training,
    query_batch,
    query_knn,
)
from rpforest.oracle import all_true_neighbors, exact_knn
from rpforest.strategies import StrategyConfig
from rpforest.tree import TreeConfig


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
        assert query_batch(forest, np.empty((0, 2)), 4) == []
        # k beyond the pool returns the whole pool without sizing anything by k
        found = query_knn(forest, ds.points[0], 10**12, self_id=0)
        assert 0 < len(found) < ds.n


@st.composite
def rank_calls(draw):
    """A _rank call of 2+ rows, the row i to rank alone, and k. The pools are
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
        """A lone row takes _rank's one-row branch; the same row inside a call
        of 2+ rows takes the padded-grid path. Both give the same bytes."""
        points, queries, indptr, indices, self_ids, i, k = call
        own = None if self_ids is None else self_ids[i : i + 1]
        alone = _rank(points, queries[i : i + 1], indptr[i : i + 2], indices, k, own)
        inside = _rank(points, queries, indptr, indices, k, self_ids)[i]
        assert len(alone) == 1 and len(inside) <= k
        for a, b in ((alone[0].ids, inside.ids), (alone[0].distances, inside.distances)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestWorkers:
    """Results do not depend on how many threads parallel_map runs on."""

    @staticmethod
    def outputs(method, group_bytes):
        data = random_dataset(7, n=160, d=3)
        cfg = TreeConfig(leaf_capacity=8, strategy=StrategyConfig(method=method))
        queries = np.random.default_rng(8).normal(size=(40, 3))
        # build with group_bytes as each worker's share (None: the unpatched
        # budget), then query under a small budget: several pooling chunks
        build = rpforest.forest.POOL_BYTES if group_bytes is None else group_bytes * rpforest.core.WORKERS
        with mock.patch.object(rpforest.forest, "POOL_BYTES", build):
            forest = build_forest(data, cfg, 7, master_seed=9)
        with mock.patch.object(rpforest.forest, "POOL_BYTES", 1 << 14):
            rows = query_all_training(forest, 5) + query_batch(forest, queries, 5)
            rows += [query_knn(forest, q, 5, self_id=3) for q in queries[:3]]
        # at most 69, 34 or 23 rows a chunk for 1, 2 or 3 workers: 3, 5 or 7 chunks of near-equal size
        with mock.patch.object(rpforest.forest, "POOL_BYTES", 17 * 160 * 69):
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
                    mock.patch.object(rpforest.forest, "POOL_BYTES", 6 * 8 * 100 * 2), \
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
            with mock.patch.object(rpforest.forest, "POOL_BYTES", 1 << 14):  # several chunks: the patch is live
                with pytest.raises(AssertionError, match="thread pool"):
                    query_all_training(forest, 5)


class TestWorkingSet:
    """The query side's memory follows POOL_BYTES, in the forest and in the oracle."""

    @pytest.mark.parametrize("search", ["all_true_neighbors", "query_all_training"])
    def test_peak_follows_pool_bytes(self, search):
        data = random_dataset(20, n=2000, d=3)
        forest = build_forest(data, TreeConfig(), 50, master_seed=21)
        budget = 2 << 20
        with mock.patch.object(rpforest.forest, "POOL_BYTES", budget):
            tracemalloc.start()
            try:
                all_true_neighbors(data, 5) if search == "all_true_neighbors" else query_all_training(forest, 5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 3 * budget  # the rows returned take about 0.8 MB of it


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
