"""Acceptance suite: one test per release criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Statistical criteria (2, 7, 8, 9) use the fixed seeds below; rerun
with the same seeds on failure.
"""

import time

import numpy as np
import pytest

from rpforest.cli import ExperimentConfig, main, run_experiment_grid, run_ttest_report
from rpforest.core import Dataset, Level, dispersion
from rpforest.data import gen_gaussian_blobs
from rpforest.forest import build_forest, query_all_training, query_knn
from rpforest.metrics import distance_error, missing_rate
from rpforest.oracle import all_true_neighbors, exact_knn
from rpforest.strategies import Method, StrategyConfig, choose_directions
from rpforest.tree import TreeConfig

MASTER_SEED = 20230915


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def tree_config(method: int, leaf_capacity: int = 20) -> TreeConfig:
    return TreeConfig(leaf_capacity=leaf_capacity, strategy=StrategyConfig(method=Method(method)))


@pytest.fixture(scope="module")
def blob_data():
    """Criterion-2 dataset: 1000 points, 2-d, 4 Gaussian centers."""
    return gen_gaussian_blobs(1000, 2, centers=4, sigma=0.8, seed=MASTER_SEED)


@pytest.fixture(scope="module")
def crit2_runs(blob_data):
    """All (method, T, rep) runs shared by criteria 2 and 4."""
    truth = all_true_neighbors(blob_data, 5)
    runs = {}
    start = time.perf_counter()
    for method in (1, 2, 3, 4):
        cfg = tree_config(method)
        for n_trees in (1, 100):
            cell = []
            for rep in range(20):
                ss = np.random.SeedSequence(MASTER_SEED, spawn_key=(method, n_trees, rep))
                forest = build_forest(blob_data, cfg, n_trees, ss)
                found = query_all_training(forest, 5)
                m_bar, _ = missing_rate(truth, found, 5)
                d_bar, excluded = distance_error(truth, found, 5)
                cell.append((m_bar, d_bar, excluded))
            runs[(method, n_trees)] = cell
    runs["elapsed"] = time.perf_counter() - start
    return runs


def test_criterion_1_oracle_equivalence():
    data = Dataset.from_points(np.random.default_rng(MASTER_SEED).normal(size=(200, 8)))
    start = time.perf_counter()
    forest = build_forest(data, tree_config(1, leaf_capacity=201), 1, MASTER_SEED)
    found = query_all_training(forest, 5)
    truth = [exact_knn(data, data.points[i], 5, self_id=i) for i in range(data.n)]
    identical = all(
        np.array_equal(f.ids, t.ids) and np.array_equal(f.distances, t.distances)
        for f, t in zip(found, truth)
    )
    m_bar, _ = missing_rate(truth, found, 5)
    d_bar, excluded = distance_error(truth, found, 5)
    elapsed = time.perf_counter() - start
    report(
        1,
        identical and m_bar == 0.0 and d_bar == 0.0 and excluded == 0 and elapsed < 1.0,
        f"single-leaf forest exact: m̄={m_bar}, d̄_k={d_bar}, {elapsed:.2f}s",
    )


def test_criterion_2_convergence_in_T(crit2_runs):
    ok = True
    details = []
    for method in (1, 2, 3, 4):
        m_at_1 = np.mean([r[0] for r in crit2_runs[(method, 1)]])
        m_at_100 = np.mean([r[0] for r in crit2_runs[(method, 100)]])
        ok &= m_at_100 <= 0.05 and m_at_100 < m_at_1
        details.append(f"M{method}: m̄(T=1)={m_at_1:.4f} m̄(T=100)={m_at_100:.5f}")
    elapsed = crit2_runs["elapsed"]
    ok &= elapsed < 120.0
    report(2, ok, "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_3_monotone_candidates():
    data = Dataset.from_points(np.random.default_rng(MASTER_SEED + 1).normal(size=(300, 2)))
    truth = all_true_neighbors(data, 5)
    true_sets = [set(row.ids.tolist()) for row in truth]
    forest = build_forest(data, tree_config(1), 40, MASTER_SEED + 1)
    violations = 0
    for i in range(data.n):
        candidates: set[int] = set()
        previous_missed = 5
        for tree in forest.trees:
            candidates |= set(tree.leaves[tree.leaf_of[i]].member_ids.tolist())
            missed = len(true_sets[i] - candidates)
            if missed > previous_missed:
                violations += 1
            previous_missed = missed
    report(3, violations == 0, f"0 expected monotonicity violations, got {violations}")


def test_criterion_4_distance_error_sign(crit2_runs):
    bad = 0
    total = 0
    for key, cell in crit2_runs.items():
        if key == "elapsed":
            continue
        for _, d_bar, excluded in cell:
            if excluded == 0:
                total += 1
                if d_bar < 0:
                    bad += 1
    report(4, bad == 0 and total > 0, f"d̄_k >= 0 on {total - bad}/{total} complete runs")


def test_criterion_5_pca_dispersion_optimality():
    rng = np.random.default_rng(MASTER_SEED + 2)
    angles = np.linspace(0, np.pi, 360, endpoint=False)
    grid_dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    pca_cfg = StrategyConfig(method=Method.PRINCIPAL_COMPONENT)
    random_cfg = StrategyConfig(method=Method.RANDOM_DIRECTION)
    ok = True
    for _ in range(100):
        scale = rng.uniform(1.0, 5.0, size=2)
        pts = rng.normal(size=(rng.integers(10, 80), 2)) * scale
        level = Level(pts, np.array([len(pts)]))  # one node holding every point
        pca = dispersion(pts @ choose_directions(level, pca_cfg, [], [])[0][0])
        grid_best = max(dispersion(pts @ g) for g in grid_dirs)
        rand = dispersion(pts @ choose_directions(level, random_cfg, [rng], [1])[0][0])
        ok &= pca >= grid_best - 1e-6
        ok &= pca >= rand
    report(5, ok, "PCA beat the 360-direction grid and method 1 on all 100 nodes")


def test_criterion_6_method3_monotone_tuning():
    rng = np.random.default_rng(MASTER_SEED + 3)
    cfg = StrategyConfig(method=Method.NOISE_TUNED_DISPERSION)
    ok = True
    for _ in range(200):
        pts = rng.normal(size=(rng.integers(5, 60), rng.integers(2, 6)))
        stages = choose_directions(Level(pts, np.array([len(pts)])), cfg, [rng], [1])[1][0]
        ok &= all(a <= b for a, b in zip(stages, stages[1:]))
    report(6, ok, "stage dispersions non-decreasing on all 200 seeded splits")


def test_criterion_7_runtime_ordering():
    data = gen_gaussian_blobs(1800, 64, centers=10, sigma=1.0, seed=MASTER_SEED + 4)
    medians = {}
    for method in (1, 2, 3):
        cfg = tree_config(method)
        times = []
        for rep in range(5):
            ss = np.random.SeedSequence(MASTER_SEED + 4, spawn_key=(method, rep))
            t0 = time.perf_counter()
            forest = build_forest(data, cfg, 100, ss)
            query_all_training(forest, 5)
            times.append(time.perf_counter() - t0)
        medians[method] = float(np.median(times))
    ok = medians[1] < medians[2] and medians[1] < medians[3]
    report(
        7,
        ok,
        f"median build+query seconds: M1={medians[1]:.2f} M2={medians[2]:.2f} M3={medians[3]:.2f}",
    )


def test_criterion_8_fail_to_reject_null(blob_data):
    cfg = ExperimentConfig(
        methods=(1, 2, 3, 4),
        forest_sizes=(40, 60, 80, 100),
        k_values=(5,),
        repetitions=10,
        master_seed=MASTER_SEED + 5,
        include_timings=False,
    )
    rows = run_experiment_grid(blob_data, cfg)
    table = run_ttest_report(rows, t_threshold=20)
    assert len(table) == 4 * 3
    ok = all(entry["p_value"] == "-" or float(entry["p_value"]) > 0.05 for entry in table)
    worst = min(
        (float(e["p_value"]) for e in table if e["p_value"] != "-"), default=float("nan")
    )
    report(8, ok, f"{len(table)} comparisons, all identical-means or p > 0.05 (min p={worst:.3g})")


def test_criterion_9_varying_k(blob_data):
    truth = {k: all_true_neighbors(blob_data, k) for k in (7, 21)}
    means = {}
    cfg = tree_config(1, leaf_capacity=30)
    for n_trees in (10, 100):
        samples = {7: [], 21: []}
        for rep in range(10):
            ss = np.random.SeedSequence(MASTER_SEED + 6, spawn_key=(n_trees, rep))
            forest = build_forest(blob_data, cfg, n_trees, ss)
            for k in (7, 21):
                found = query_all_training(forest, k)
                samples[k].append(missing_rate(truth[k], found, k)[0])
        for k in (7, 21):
            means[(k, n_trees)] = float(np.mean(samples[k]))
    ok = (
        means[(7, 10)] < means[(21, 10)]
        and means[(7, 100)] <= 0.1
        and means[(21, 100)] <= 0.1
    )
    report(
        9,
        ok,
        f"m̄(k=7,T=10)={means[(7, 10)]:.4f} < m̄(k=21,T=10)={means[(21, 10)]:.4f}; "
        f"at T=100: {means[(7, 100)]:.4f}, {means[(21, 100)]:.4f}",
    )


def test_criterion_10_determinism(tmp_path):
    args = [
        "--dataset", f"blobs:n=250,d=2,centers=3,sigma=0.8,seed={MASTER_SEED}",
        "--methods", "1", "2", "3", "4",
        "--trees", "1", "5", "10",
        "--k", "5",
        "--reps", "3",
        "--seed", str(MASTER_SEED + 7),
        "--no-timings",
    ]
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    report(10, identical, f"two grid runs byte-identical ({out1.stat().st_size} bytes)")
