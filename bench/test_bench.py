"""Tests of the benchmark's own logic.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import rpforest  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, self_times  # noqa: E402


def test_self_time_subtracts_union_of_overlapping_children():
    # parent [0, 10]; children [1, 4] and [3, 6] overlap, [8, 12] leaves the
    # parent; grandchild [2, 3] lies inside the first child
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    own = self_times(start, end, parent)
    assert own.tolist() == [10.0 - 5.0 - 2.0, 3.0 - 1.0, 3.0, 4.0, 1.0]


def test_self_time_of_disjoint_children_is_duration_minus_their_sum():
    own = self_times([0.0, 1.0, 5.0], [10.0, 2.0, 7.0], [-1, 0, 0])
    assert own.tolist() == [7.0, 1.0, 2.0]


@pytest.mark.parametrize(
    "n, expected",
    [(10_000, 99.9), (9_999, 99.0), (1_000, 99.0), (999, 95.0), (200, 95.0), (100, 90.0), (99, None)],
)
def test_tail_percentile_needs_ten_samples_beyond_it(n, expected):
    assert workloads.tail_percentile(n) == expected


def _table(n=60, d=3, k=4):
    data = rpforest.Dataset.from_points(np.random.default_rng(0).normal(size=(n, d)))
    rows = [rpforest.exact_knn(data, data.points[i], k, self_id=i) for i in range(n)]
    return data, rows, k


def test_checker_accepts_oracle_rows():
    data, rows, k = _table()
    bad, problems = checks.check_rows(data.points, data.points, rows, k, self_ids=np.arange(data.n), truth=rows)
    assert not bad.any() and problems == []


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda r, i: (r.ids[[1, 0, 2, 3]], r.distances[[1, 0, 2, 3]]), "not sorted"),
        (lambda r, i: (np.r_[i, r.ids[1:]], np.r_[0.0, r.distances[1:]]), "self id"),
        (lambda r, i: (np.r_[r.ids[:3], r.ids[2]], np.r_[r.distances[:3], r.distances[2]]), "repeated id"),
        (lambda r, i: (r.ids, r.distances * (1 + 1e-15)), "differs from recomputed"),
    ],
)
def test_checker_rejects_corrupted_row(corrupt, message):
    data, rows, k = _table()
    row = 7
    ids, dists = corrupt(rows[row], row)
    rows[row] = rpforest.NeighborList(ids=ids, distances=dists)
    bad, problems = checks.check_rows(data.points, data.points, rows, k, self_ids=np.arange(data.n))
    assert np.flatnonzero(bad).tolist() == [row]
    assert any(message in p for p in problems)


def test_checker_rejects_row_closer_than_truth():
    data, rows, k = _table()
    truth = [rpforest.NeighborList(r.ids, r.distances.copy()) for r in rows]
    truth[3].distances[0] += 1.0
    bad, problems = checks.check_rows(data.points, data.points, rows, k, truth=truth)
    assert np.flatnonzero(bad).tolist() == [3]
    assert any("closer than the true" in p for p in problems)


def test_reference_quality_matches_package_metrics():
    data = rpforest.Dataset.from_points(np.random.default_rng(1).normal(size=(300, 2)))
    truth = rpforest.all_true_neighbors(data, 5)
    forest = rpforest.build_forest(data, rpforest.TreeConfig(leaf_capacity=20), 2, 3)
    found = rpforest.query_all_training(forest, 5)
    m_bar, _ = rpforest.missing_rate(truth, found, 5)
    d_bar, _ = rpforest.distance_error(truth, found, 5)
    assert m_bar > 0
    assert checks.check_quality(truth, found, 5, m_bar, d_bar) == []
    assert checks.check_quality(truth, found, 5, m_bar + 1e-3, d_bar) != []


def test_patched_restores_attributes_and_lists_absent_names():
    tracer = Tracer()
    original = rpforest.forest.build_tree
    targets = [("rpforest.forest", "build_tree", "tree.build_tree"), ("rpforest.forest", "gone", "x")]
    with tracer.patched(targets):
        assert rpforest.forest.build_tree is not original
    assert rpforest.forest.build_tree is original
    assert tracer.absent == {"rpforest.forest.gone"}


def test_traced_counts_repeat_for_the_same_seed(tmp_path):
    spec = workloads.GridSpec(n=200, d=2, centers=2, sigma=0.8, methods=(1, 3), trees=(1, 4))
    counts = []
    for _ in range(2):
        result = workloads.run_grid(spec, 5, 0.01, Tracer(), tmp_path)
        assert result.ledger.failed == 0, result.ledger.problems
        counts.append({name: result.per_layer.get(name) for name in run.EXACT_COUNTERS})
    assert counts[0] == counts[1]
    assert counts[0]["tree.nodes_internal"] > 0 and counts[0]["core.dispersion_calls"] > 0


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid-2d", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_zero_variance_report_is_accepted_only_when_such_a_comparison_exists(tmp_path):
    spec = workloads.GridSpec(n=10, d=2, centers=1, sigma=1.0, methods=(1, 2), trees=(100,))
    def rows(base, other):
        return [{"method": m, "T": 100, "k": 5, "missing_rate": v}
                for m, values in ((1, base), (2, other)) for v in values]
    csv = tmp_path / "r.csv"
    csv.write_text(",".join(workloads.rp_cli.RESULT_COLUMNS) + "\n" + "x\n" * 4)
    undefined = rows([0.0, 0.0], [0.1, 0.1])
    assert workloads.zero_variance_comparisons(undefined) == 1
    assert workloads.check_report(None, ValueError("zero variance"), undefined, spec, csv) == []
    defined = rows([0.0, 0.1], [0.1, 0.1])
    assert workloads.zero_variance_comparisons(defined) == 0
    assert workloads.check_report(None, ValueError("boom"), defined, spec, csv) != []
