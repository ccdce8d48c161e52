"""The package's span recorder (core.span, core.recording) and the forest's
structure counts (forest.structure_counts)."""

import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
import scipy.sparse

import rpforest.core
import rpforest.tree
from rpforest import core
from rpforest.cli import ExperimentConfig, run_units
from rpforest.core import Dataset
from rpforest.data import gen_gaussian_blobs
from rpforest.forest import build_forest, query_all_training, query_batch, query_knn, structure_counts
from rpforest.strategies import StrategyConfig
from rpforest.tree import TreeConfig

# each span name and the names its parent may have (None: a top-level span)
PARENTS = {
    "oracle": {None},
    "build": {None},
    "direction": {"build"},
    "split": {"build"},
    "partition": {"build"},
    "query": {None},
    "route": {"query"},
    "pool": {"query"},
    "rank": {"oracle", "query"},
    "metrics": {None},
}


def small_grid():
    """The criterion-2 blobs at 200 points, methods 1-4, T 1 and 5, 2 repetitions."""
    data = gen_gaussian_blobs(200, 2, 3, 0.8, 1)
    cfg = ExperimentConfig(methods=(1, 2, 3, 4), forest_sizes=(1, 5), k_values=(5,), repetitions=2,
                           master_seed=3, include_timings=False)
    return data, cfg


def check_closed(spans):
    """Every span ended, ids are unique, and each child lies inside its parent's interval."""
    by_id = {s[1]: s for s in spans}
    assert len(by_id) == len(spans)
    for name, _, parent, start, end in spans:
        assert start <= end
        if parent >= 0:
            assert parent in by_id, f"{name}'s parent {parent} never ended"
            assert by_id[parent][3] <= start and end <= by_id[parent][4]
    return by_id


def parent_names(spans, by_id):
    return {(s[0], by_id[s[2]][0] if s[2] >= 0 else None) for s in spans}


def walk_counts(forest, leaf_capacity):
    """The structure counts by a walk of the per-tree views, as the benchmark counted them."""
    internal = leaves = forced = depth_max = size_max = 0
    size_min, sizes = np.inf, []
    for tree in forest.trees:
        stack = [(tree.root, 0)]
        while stack:
            node, depth = stack.pop()
            if hasattr(node, "member_ids"):
                leaves += 1
                size = int(node.member_ids.size)
                forced += size >= leaf_capacity
                size_max, size_min = max(size_max, size), min(size_min, size)
                sizes.append(size)
                depth_max = max(depth_max, depth)
            else:
                internal += 1
                stack.append((node.left, depth + 1))
                stack.append((node.right, depth + 1))
    return {"internal_nodes": internal, "leaves": leaves, "depth_max": depth_max, "leaf_size_min": size_min,
            "leaf_size_mean": float(np.mean(sizes)), "leaf_size_max": size_max, "forced_leaves": forced}


def walk_pool_sizes(forest):
    """Distinct points sharing a leaf with each training point, less the point itself, by an incidence product."""
    n_leaves = [len(tree.leaves) for tree in forest.trees]
    offsets = np.concatenate([[0], np.cumsum(n_leaves)[:-1]])
    cols = np.concatenate([np.asarray(tree.leaf_of) + off for tree, off in zip(forest.trees, offsets)])
    rows = np.tile(np.arange(forest.data.n), len(n_leaves))
    incidence = scipy.sparse.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(forest.data.n, sum(n_leaves)))
    return np.diff((incidence @ incidence.T.tocsr()).indptr) - 1


def assert_counts_match_walk(forest):
    counts = structure_counts(forest)
    walked = walk_counts(forest, forest.tree_config.leaf_capacity)
    assert {key: counts[key] for key in walked} == pytest.approx(walked)
    pools = walk_pool_sizes(forest)
    assert counts["pool_size_mean"] == pytest.approx(pools.mean())
    assert counts["pool_size_p95"] == np.percentile(pools, 95)


class TestRecording:
    def test_grid_spans_nest_at_the_layer_boundaries(self):
        data, cfg = small_grid()
        with core.recording() as spans:
            units = list(run_units(data, cfg))
            query_batch(units[-1][2], data.points[:3] + 0.1, 5)  # routed queries: a batch and a lone one
            query_knn(units[-1][2], data.points[0] + 0.1, 5)
        assert core._recording is None
        by_id = check_closed(spans)
        pairs = parent_names(spans, by_id)
        assert {name for name, _ in pairs} == set(PARENTS)
        assert all(parent in PARENTS[name] for name, parent in pairs)
        assert ("rank", "oracle") in pairs and ("rank", "query") in pairs
        names = [s[0] for s in spans]
        # one oracle, and per unit one build, one query and two metrics
        assert names.count("oracle") == 1
        assert names.count("build") == names.count("query") - 2 == len(units) == 16
        assert names.count("metrics") == 2 * len(units)

    def test_rows_do_not_depend_on_recording(self):
        data, cfg = small_grid()
        plain = [row for row, _, _ in run_units(data, cfg)]
        with core.recording():
            recorded = [row for row, _, _ in run_units(data, cfg)]
        assert plain == recorded

    def test_worker_spans_have_the_callers_span_as_parent(self):
        data = gen_gaussian_blobs(300, 2, 3, 0.8, 2)
        with mock.patch.object(rpforest.core, "WORKERS", 2), \
                mock.patch.object(rpforest.core, "POOL_BYTES", 1 << 14), \
                mock.patch.object(rpforest.core, "ThreadPoolExecutor", wraps=ThreadPoolExecutor) as pool:
            with core.recording() as spans:
                forest = build_forest(data, TreeConfig(), 6, master_seed=4)
                query_all_training(forest, 5)
        assert pool.call_count == 2  # the build's groups and the query's chunks ran on threads
        by_id = check_closed(spans)
        (build,) = [s for s in spans if s[0] == "build"]
        (query,) = [s for s in spans if s[0] == "query"]
        assert {s[2] for s in spans if s[0] in ("direction", "split", "partition")} == {build[1]}
        ranks = [s for s in spans if s[0] == "rank"]
        assert len(ranks) > 1 and {s[2] for s in ranks} == {query[1]}
        assert parent_names(spans, by_id) <= {(name, parent) for name in PARENTS for parent in PARENTS[name]}

    def test_many_workers_lose_no_span(self):
        """More workers than CPUs, switching threads every microsecond: every
        span is kept once, with a unique id and its own thread's parent."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def work(i):
                for _ in range(200):
                    with core.span(f"outer{i}"), core.span(f"inner{i}"):
                        pass

            with mock.patch.object(rpforest.core, "WORKERS", 8), core.recording() as spans:
                with core.span("caller"):
                    core.parallel_map(work, range(8))
        finally:
            sys.setswitchinterval(interval)
        by_id = check_closed(spans)
        assert len(spans) == 1 + 8 * 200 * 2
        (caller,) = [s for s in spans if s[0] == "caller"]
        for name, _, parent, _, _ in spans:
            if name.startswith("outer"):
                assert parent == caller[1]
            elif name.startswith("inner"):
                assert by_id[parent][0] == "outer" + name[5:]

    def test_exception_leaves_no_state(self):
        with pytest.raises(ZeroDivisionError):
            with core.recording() as spans:
                with core.span("outer"), core.span("inner"):
                    1 / 0
        assert core._recording is None
        assert [s[0] for s in spans] == ["inner", "outer"]
        check_closed(spans)
        with core.recording() as again:  # a new recording starts clean: no parent left over
            with core.span("next"):
                pass
        assert [(s[0], s[2]) for s in again] == [("next", -1)]

    def test_one_recording_at_a_time(self):
        with core.recording() as spans:
            with pytest.raises(RuntimeError, match="already open"):
                with core.recording():
                    pass
            with core.span("still"):
                pass
        assert [s[0] for s in spans] == ["still"]
        assert core._recording is None

    def test_off_is_one_shared_no_op(self):
        assert core._recording is None
        assert core.span("build") is core.span("query")
        with core.span("build") as value:
            assert value is None


class TestStructureCounts:
    def test_grid_forests_match_a_walk_of_the_views(self):
        data, cfg = small_grid()
        for _, _, forest in run_units(data, cfg):
            assert_counts_match_walk(forest)

    def test_pools_in_blocks(self):
        forest = build_forest(gen_gaussian_blobs(300, 2, 3, 0.8, 5), TreeConfig(), 7, master_seed=6)
        whole = structure_counts(forest)
        with mock.patch.object(rpforest.core, "POOL_BYTES", 1 << 12), \
                mock.patch.object(rpforest.forest, "_pool", wraps=rpforest.forest._pool) as spy:
            blocked = structure_counts(forest)
        assert spy.call_count > 1 and blocked == whole

    @pytest.mark.parametrize("method", [1, 2, 3, 4])
    def test_retries_are_rows_drawn_less_nodes(self, method):
        # three values per coordinate: most nodes hold many copies of few points
        data = Dataset(np.random.default_rng(0).integers(0, 3, (300, 2)) * 1.0)
        cfg = TreeConfig(leaf_capacity=10, strategy=StrategyConfig(method=method))
        with mock.patch.object(rpforest.tree, "choose_directions", wraps=rpforest.tree.choose_directions) as spy:
            forest = build_forest(data, cfg, 6, master_seed=1)
        drawn = sum(int(call.args[3].sum()) for call in spy.call_args_list)
        counts = structure_counts(forest)
        assert counts["degenerate_retries"] == drawn - counts["internal_nodes"] - counts["forced_leaves"] > 0
        assert_counts_match_walk(forest)
        # each tree's own count: tree t built alone from its child stream
        alone = [rpforest.tree.build_trees(data, cfg, [np.random.default_rng(np.random.SeedSequence(1, spawn_key=(t,)))])
                 for t in range(6)]
        np.testing.assert_array_equal(forest.retries, [table[-1][0] for table in alone])
