"""The benchmark's workloads: two grid sweeps and one index-serving run.

Every call into the package goes through a module attribute looked up at call
time (`rpforest.build_forest`, `rp_data.load_csv`, ...), so the traced run can
swap those attributes for timing wrappers. Each workload is one closed loop
with one caller: the next call starts when the previous one returned.

grid-2d and grid-64d sweep (method, T) cells as `rpforest-bench` does: one
timed round runs one repetition of every cell (build, query_all_training,
scoring), then the t-test report and CSV write over the last two
repetitions. serve-16d builds one index from a CSV and answers queries in
three ways. Outputs are checked after each timed region, never inside it.
"""

import math
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse

import rpforest
import rpforest.cli as rp_cli
import rpforest.data as rp_data

import checks
from spans import Tracer, phase_table

LEAF_CAPACITY = 20
SETUP_REPS = 3
MIN_ROUNDS = 2
IDENTICAL_MEANS_TOL = 1e-12  # below this the t-test reports identical means

# (module, attribute, span name). Entry points are the calls this file makes;
# internals are the calls the package makes between its own modules.
ENTRY_POINTS = [
    ("rpforest.data", "gen_gaussian_blobs", "data.gen"),
    ("rpforest.data", "load_csv", "data.load_csv"),
    ("rpforest", "all_true_neighbors", "oracle.all_true_neighbors"),
    ("rpforest", "build_forest", "forest.build_forest"),
    ("rpforest", "query_all_training", "forest.query_all_training"),
    ("rpforest", "query_batch", "forest.query_batch"),
    ("rpforest", "query_knn", "forest.query_knn"),
    ("rpforest", "missing_rate", "metrics.missing_rate"),
    ("rpforest", "distance_error", "metrics.distance_error"),
    ("rpforest.cli", "run_ttest_report", "cli.run_ttest_report"),
    ("rpforest.cli", "write_results_csv", "cli.write_results_csv"),
]
INTERNALS = [
    ("rpforest.forest", "build_tree", "tree.build_tree"),
    ("rpforest.tree", "choose_direction", "strategies.choose_direction"),
    ("rpforest.tree", "pick_split_point", "tree.pick_split_point"),
    ("rpforest.strategies", "dispersion", "core.dispersion"),
    ("rpforest.forest", "traverse_to_leaf", "tree.traverse_to_leaf"),
    ("rpforest.forest", "assign_leaves", "tree.assign_leaves"),
    ("rpforest.forest", "_rank_candidates", "forest.rank"),
]
QUERY_SPANS = ("forest.query_all_training", "forest.query_batch", "forest.query_knn")
SERVE_ONLY = ("heldout_qps", "knn_ms_p50", "knn_ms_p99", "knn_samples")
ROUTE_SPANS = ("tree.traverse_to_leaf", "tree.assign_leaves")


@dataclass
class Ledger:
    """Operations attempted and failed, with a description of each failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def tally(self, label: str, attempted: int, failed: int, problems=()) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(f"{label}: {p}" for p in problems)
        if failed and not problems:
            self.problems.append(f"{label}: {failed} failed")

    def check(self, label: str, problems) -> None:
        """Record one operation that failed if any problem was found."""
        self.tally(label, 1, 1 if problems else 0, problems)


@dataclass
class Result:
    ledger: Ledger
    end_to_end: dict[str, float]
    reported: dict[str, float]  # printed with every run, not bounded
    per_layer: dict[str, float]
    inputs: dict
    rounds: int
    absent: list[str]


def traced(tracer: Tracer | None):
    return nullcontext() if tracer is None else tracer.patched(ENTRY_POINTS + INTERNALS)


def run_rounds(seconds: float, body) -> int:
    """Call body(0), body(1), ... so the total comes closest to `seconds`.

    At least MIN_ROUNDS rounds run, so every grid round after the first has
    a previous repetition for its t-test report.
    """
    start = time.perf_counter()
    done = 0
    while True:
        body(done)
        done += 1
        elapsed = time.perf_counter() - start
        if done >= MIN_ROUNDS and elapsed + elapsed / done / 2 >= seconds:
            return done


def tail_percentile(n_samples: int, candidates=(99.9, 99.0, 95.0, 90.0)) -> float | None:
    """Highest candidate percentile with at least ten samples beyond it."""
    for p in candidates:
        if n_samples * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            return p
    return None


def median(values) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------- counters


def structure_counts(forests, leaf_capacity: int) -> dict[str, float] | None:
    """Node, leaf, depth and leaf-size counts read off the returned trees.

    Returns None when the trees no longer expose root/left/right nodes.
    """
    internal = leaves = forced = depth_max = size_max = 0
    try:
        for forest in forests:
            for tree in forest.trees:
                stack = [(tree.root, 0)]
                while stack:
                    node, depth = stack.pop()
                    if hasattr(node, "member_ids"):
                        leaves += 1
                        size = int(node.member_ids.size)
                        forced += size >= leaf_capacity
                        size_max = max(size_max, size)
                        depth_max = max(depth_max, depth)
                    else:
                        internal += 1
                        stack.append((node.left, depth + 1))
                        stack.append((node.right, depth + 1))
    except AttributeError:
        return None
    return {
        "tree.nodes_internal": internal,
        "tree.leaves": leaves,
        "tree.depth_max": depth_max,
        "tree.leaf_size_max": size_max,
        "tree.forced_leaves": forced,
    }


def _incidence(leaf_columns: list[np.ndarray], n_leaves: list[int]) -> scipy.sparse.csr_matrix:
    """Row i has a 1 in the column of every leaf (over all trees) point i falls in."""
    offsets = np.concatenate([[0], np.cumsum(n_leaves)[:-1]])
    rows = np.concatenate([np.arange(c.size) for c in leaf_columns])
    cols = np.concatenate([c + off for c, off in zip(leaf_columns, offsets)])
    shape = (leaf_columns[0].size, int(sum(n_leaves)))
    return scipy.sparse.csr_matrix((np.ones(rows.size, dtype=np.int32), (rows, cols)), shape=shape)


def pool_sizes(forest, queries=None, chunk: int = 2000) -> np.ndarray | None:
    """Candidate-pool size of every query: distinct points in its leaves.

    Without queries, the training points themselves, excluding each point's
    own id. Returns None when the trees no longer expose leaf lists.
    """
    try:
        n_leaves = [len(tree.leaves) for tree in forest.trees]
        train = _incidence([np.asarray(tree.leaf_of) for tree in forest.trees], n_leaves)
        if queries is None:
            probe, self_hit = train, 1
        else:
            route = rpforest.tree.assign_leaves
            probe = _incidence([route(tree, queries) for tree in forest.trees], n_leaves)
            self_hit = 0
    except AttributeError:
        return None
    train_t = train.T.tocsr()
    sizes = [np.diff((probe[i : i + chunk] @ train_t).indptr) for i in range(0, probe.shape[0], chunk)]
    return np.concatenate(sizes) - self_hit


def pool_metrics(pools: list[np.ndarray], returned: int) -> dict[str, float]:
    if any(p is None for p in pools):
        return {}
    sizes = np.concatenate(pools)
    return {
        "forest.pool_size_mean": float(sizes.mean()),
        "forest.pool_size_p95": float(np.percentile(sizes, 95)),
        "forest.pool_yield": returned / float(sizes.sum()),
    }


def check_lengths(rows, pools, k: int) -> list[str]:
    """Each row returns min(k, pool size) neighbours."""
    if pools is None:
        return []
    lengths = np.array([len(r) for r in rows])
    wrong = np.flatnonzero(lengths != np.minimum(k, pools))
    return [f"{wrong.size} rows differ from min(k, pool size), first {wrong[0]}"] if wrong.size else []


def layer_metrics(tracer: Tracer, counts: dict[str, float], build_phase: str) -> dict[str, float]:
    """Per-layer metrics from the spans: times per phase (one set-up repetition
    or one round), median over the phases where the layer ran; call counts from
    `build_phase` (forests) or the first phase with the span (queries)."""
    table = phase_table(tracer)
    phases = sorted({phase for phase, _ in table}, key=tracer.phases.index)

    def time_of(names, key="self"):
        per_phase = [
            sum(table[(ph, nm)].get(key, 0.0) for nm in names if (ph, nm) in table)
            for ph in phases
            if any((ph, nm) in table for nm in names)
        ]
        return median(per_phase) if per_phase else 0.0

    def calls(names, phase=None):
        for ph in [phase] if phase else phases:
            total = sum(table[(ph, nm)]["count"] for nm in names if (ph, nm) in table)
            if total:
                return total
        return 0

    out = {
        "data.gen_s": time_of(["data.gen"], "total"),
        "data.load_csv_s": time_of(["data.load_csv"], "total"),
        "oracle.all_true_neighbors_s": time_of(["oracle.all_true_neighbors"], "total"),
        "forest.build_forest_s": time_of(["forest.build_forest"], "total"),
        "tree.build_tree_self_s": time_of(["tree.build_tree"]),
        "tree.pick_split_point_s": time_of(["tree.pick_split_point"]),
        "tree.pick_split_point_calls": calls(["tree.pick_split_point"], build_phase),
        "tree.route_s": time_of(ROUTE_SPANS),
        "tree.route_calls": calls(ROUTE_SPANS),
        "strategies.choose_direction_s": time_of(["strategies.choose_direction"]),
        "strategies.choose_direction_calls": calls(["strategies.choose_direction"], build_phase),
        "core.dispersion_s": time_of(["core.dispersion"]),
        "core.dispersion_calls": calls(["core.dispersion"], build_phase),
        "forest.query_all_training_s": time_of(["forest.query_all_training"], "total"),
        "forest.query_batch_s": time_of(["forest.query_batch"], "total"),
        "forest.query_knn_s": time_of(["forest.query_knn"], "total"),
        "forest.rank_s": time_of(["forest.rank"]),
        "forest.rank_calls": calls(["forest.rank"]),
        "forest.pool_self_s": time_of(QUERY_SPANS),
        "metrics.score_s": time_of(["metrics.missing_rate", "metrics.distance_error"], "total"),
        "cli.report_s": time_of(["cli.run_ttest_report", "cli.write_results_csv"], "total"),
    }
    for m in (1, 2, 3, 4):
        out[f"forest.build_forest_s.m{m}"] = time_of(["forest.build_forest"], f"total.m{m}")
        out[f"strategies.choose_direction_s.m{m}"] = time_of(["strategies.choose_direction"], f"self.m{m}")
    out.update(counts)
    if "tree.nodes_internal" in counts:
        out["tree.degenerate_retries"] = out["strategies.choose_direction_calls"] - counts["tree.nodes_internal"]
    return out


# ---------------------------------------------------------------- grids


@dataclass(frozen=True)
class GridSpec:
    n: int
    d: int
    centers: int
    sigma: float
    methods: tuple[int, ...]
    trees: tuple[int, ...]
    k: int = 5


GRIDS = {
    # acceptance criterion 2's setting: tiny nodes, so the build is per-node
    # Python and numpy call overhead; routing idle, oracle small
    "grid-2d": GridSpec(n=1000, d=2, centers=4, sigma=0.8, methods=(1, 2, 3, 4), trees=(1, 100)),
    # criterion 7's setting plus T=10: real O(d) work per node and a 10x
    # larger oracle; method 4's d=64 eigh would dominate, so it is left out
    "grid-64d": GridSpec(n=1800, d=64, centers=10, sigma=1.0, methods=(1, 2, 3), trees=(10, 100)),
}


def tree_config(method: int, leaf_capacity: int = LEAF_CAPACITY):
    strategy = rpforest.StrategyConfig(method=rpforest.Method(method))
    return rpforest.TreeConfig(leaf_capacity=leaf_capacity, strategy=strategy)


def run_grid(spec: GridSpec, seed: int, seconds: float, tracer: Tracer | None, out_dir: Path) -> Result:
    ledger = Ledger()
    k, n = spec.k, spec.n

    setup_times, tables = [], []
    for rep in range(SETUP_REPS):
        if tracer:
            tracer.begin_phase(f"setup{rep}")
        with traced(tracer):
            t0 = time.perf_counter()
            data = rp_data.gen_gaussian_blobs(spec.n, spec.d, spec.centers, spec.sigma, seed)
            truth = rpforest.all_true_neighbors(data, k)
            setup_times.append(time.perf_counter() - t0)
        tables.append((data, truth))
    data, truth = tables[0]
    for rep, (other_data, other_truth) in enumerate(tables[1:], start=1):
        same = np.array_equal(other_data.points, data.points) and checks.same_rows(other_truth, truth)
        ledger.check(f"set-up repetition {rep}", [] if same else ["differs from repetition 0"])
    del tables
    points, self_ids = data.points, np.arange(n)

    sample = np.sort(np.random.default_rng(seed).choice(n, size=16, replace=False))
    exact = [rpforest.exact_knn(data, points[i], k, self_id=int(i)) for i in sample]
    ledger.check("all_true_neighbors rows vs exact_knn", [] if checks.same_rows(exact, [truth[i] for i in sample]) else ["differ"])
    single = rpforest.build_forest(data, tree_config(1, leaf_capacity=n + 1), 1, seed)
    ledger.check(
        "single-leaf forest vs oracle",
        [] if checks.same_rows(rpforest.query_all_training(single, k), truth) else ["not bit-identical"],
    )
    del single

    cells = [(method, n_trees) for method in spec.methods for n_trees in spec.trees]
    configs = {method: tree_config(method) for method in spec.methods}
    csv_path = out_dir / "grid-results.csv"
    state = {"untraced": [], "traced": []}  # rows of each mode's previous repetition
    timings = {mode: {"cells_s": [], "report_s": [], "query_s": []} for mode in state}
    quality = {}
    untraced_found = {}
    counts: dict[str, float] = {}
    notes = {"ttest_zero_variance_raised": 0}

    def grid_round(rep: int, trace: Tracer | None):
        mode = "traced" if trace else "untraced"
        rows, outcomes = [], []
        query_s = 0.0
        start = time.perf_counter()
        with traced(trace):
            for cell_index, (method, n_trees) in enumerate(cells):
                if trace:
                    trace.set_op(rep * len(cells) + cell_index, method)
                ss = np.random.SeedSequence(seed, spawn_key=(cell_index, rep))
                try:
                    t0 = time.perf_counter()
                    forest = rpforest.build_forest(data, configs[method], n_trees, ss)
                    t1 = time.perf_counter()
                    found = rpforest.query_all_training(forest, k)
                    t2 = time.perf_counter()
                    m_bar, _ = rpforest.missing_rate(truth, found, k)
                    d_bar, _ = rpforest.distance_error(truth, found, k)
                except Exception as exc:  # a failed cell is counted, the sweep goes on
                    outcomes.append((method, n_trees, None, None, None, None, f"raised {exc!r}"))
                    continue
                query_s += t2 - t1
                rows.append(
                    {
                        "method": method,
                        "T": n_trees,
                        "k": k,
                        "n0": LEAF_CAPACITY,
                        "repetition": rep,
                        "missing_rate": m_bar,
                        "distance_error": d_bar,
                        "build_ms": (t1 - t0) * 1e3,
                        "query_ms": (t2 - t1) * 1e3,
                        "seed": int(ss.generate_state(1)[0]),
                    }
                )
                outcomes.append((method, n_trees, forest if trace else None, found, m_bar, d_bar, None))
        cells_s = time.perf_counter() - start

        if state[mode]:
            both = state[mode] + rows
            if trace:
                trace.set_op(-1)
            report, raised = None, None
            with traced(trace):
                t0 = time.perf_counter()
                try:
                    rp_cli.write_results_csv(both, csv_path)
                    report = rp_cli.run_ttest_report(both, 0)
                except Exception as exc:  # judged by check_report
                    raised = exc
                report_s = time.perf_counter() - t0
            problems = check_report(report, raised, both, spec, csv_path)
            if raised is not None and not problems:
                notes["ttest_zero_variance_raised"] += 1
            ledger.check(f"{mode} report rep {rep}", problems)
            timings[mode]["report_s"].append(report_s)
        state[mode] = rows
        timings[mode]["cells_s"].append(cells_s)
        timings[mode]["query_s"].append(query_s)

        pools, returned = [], 0
        for cell_index, (method, n_trees, forest, found, m_bar, d_bar, error) in enumerate(outcomes):
            label = f"{mode} cell m{method} T{n_trees} rep {rep}"
            if error:
                ledger.check(label, [error])
                continue
            _, problems = checks.check_rows(points, points, found, k, self_ids=self_ids, truth=truth)
            problems += checks.check_quality(truth, found, k, m_bar, d_bar)
            if trace:
                if not checks.same_rows(found, untraced_found.pop(cell_index, [])):
                    problems.append("traced rows differ from untraced rows")
                if rep == 0:
                    pools.append(pool_sizes(forest))
                    returned += sum(len(r) for r in found)
                    problems += check_lengths(found, pools[-1], k)
            else:
                untraced_found[cell_index] = found
                quality.setdefault("missing", []).append(m_bar)
                quality.setdefault("error", []).append(d_bar)
            ledger.check(label, problems)
        if trace and rep == 0:
            found_counts = structure_counts([o[2] for o in outcomes if o[2] is not None], LEAF_CAPACITY)
            counts.update(found_counts or {})
            counts.update(pool_metrics(pools, returned))

    def body(rep: int):
        grid_round(rep, None)
        if tracer:
            tracer.begin_phase(f"round{rep}")
            grid_round(rep, tracer)
        untraced_found.clear()

    rounds = run_rounds(seconds, body)

    def round_s(mode: str) -> float:
        return median(timings[mode]["cells_s"]) + median(timings[mode]["report_s"])

    e2e = {
        "setup_s": median(setup_times),
        "round_s": round_s("untraced"),
        "missing_rate": float(np.mean(quality["missing"])),
    }
    reported = {
        "train_qps": n * len(cells) * rounds / sum(timings["untraced"]["query_s"]),
        "distance_error": float(np.mean(quality["error"])),
    }
    per_layer = {}
    if tracer:
        counts["oracle.distance_evals"] = n * n  # one all_true_neighbors call per set-up
        per_layer = layer_metrics(tracer, counts, "round0")
        per_layer.update(overhead(round_s("traced"), e2e["round_s"]))
        per_layer.update(reported)
        per_layer.update(dict.fromkeys(SERVE_ONLY, 0))  # grids answer no held-out queries
    inputs = {"n": spec.n, "d": spec.d, "centers": spec.centers, "sigma": spec.sigma, "k": k,
              "leaf_capacity": LEAF_CAPACITY, "methods": list(spec.methods), "trees": list(spec.trees),
              "cells": len(cells), "setup_reps": SETUP_REPS, **notes,
              "samples": {"setup_s": setup_times, **timings["untraced"]}}
    return Result(ledger, e2e, reported, per_layer, inputs, rounds, sorted(tracer.absent) if tracer else [])


def zero_variance_comparisons(rows: list[dict]) -> int:
    """Comparisons (method 1 vs another, same T and k) whose two samples both
    have zero variance but differ in mean: the t-test statistic is undefined."""
    samples: dict[tuple, list[float]] = {}
    for row in rows:
        samples.setdefault((row["method"], row["T"], row["k"]), []).append(row["missing_rate"])
    count = 0
    for (method, n_trees, k), other in samples.items():
        base = samples.get((1, n_trees, k))
        if method != 1 and base and np.var(base) == 0 and np.var(other) == 0:
            count += abs(np.mean(base) - np.mean(other)) > IDENTICAL_MEANS_TOL
    return count


def check_report(report, raised, rows: list[dict], spec: GridSpec, csv_path: Path) -> list[str]:
    """The t-test report has one entry per (T, method != 1) with p in [0, 1],
    and the CSV a header and one line per row.

    The package raises ValueError instead of returning a marker when both
    samples of a comparison have zero variance and differing means (a known
    defect); that is accepted, and counted in the manifest, only when such a
    comparison really exists.
    """
    problems = []
    if raised is not None:
        if not (isinstance(raised, ValueError) and zero_variance_comparisons(rows)):
            return [f"raised {raised!r}"]
    else:
        expected = len(spec.trees) * (len(spec.methods) - 1)
        if len(report) != expected:
            problems.append(f"t-test report has {len(report)} entries, expected {expected}")
        for entry in report:
            p = entry.get("p_value")
            if p != "-" and not 0.0 <= float(p) <= 1.0:
                problems.append(f"p-value {p!r} outside [0, 1]")
    with open(csv_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) != len(rows) + 1 or lines[0] != ",".join(rp_cli.RESULT_COLUMNS):
        problems.append(f"results CSV has {len(lines)} lines, expected a header and {len(rows)} rows")
    return problems


def overhead(traced_s: float, untraced_s: float) -> dict[str, float]:
    return {
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
    }


# ---------------------------------------------------------------- serve

# 22000 blobs points: the first SERVE_TRAIN are the index, written once to
# CSV; the rest are held-out queries. The full oracle at this size takes
# over a minute, so quality is scored against exact_knn on a fixed subset.
SERVE_TRAIN, SERVE_QUERIES, SERVE_D, SERVE_CENTERS, SERVE_SIGMA = 20000, 2000, 16, 10, 1.0
SERVE_TREES, SERVE_K = 50, 10
QUALITY_QUERIES, CHECKED_TRAINING, PROBE_QUERIES = 1000, 200, 32


def run_serve(seed: int, seconds: float, tracer: Tracer | None, out_dir: Path) -> Result:
    ledger = Ledger()
    k = SERVE_K
    if tracer:
        tracer.begin_phase("inputs")
    with traced(tracer):
        full = rp_data.gen_gaussian_blobs(SERVE_TRAIN + SERVE_QUERIES, SERVE_D, SERVE_CENTERS, SERVE_SIGMA, seed)
    train_points = full.points[:SERVE_TRAIN]
    queries = np.ascontiguousarray(full.points[SERVE_TRAIN:])
    csv_path = out_dir / "serve-train.csv"
    np.savetxt(csv_path, train_points, delimiter=",", fmt="%.17g")
    config = tree_config(1)

    setup_times, forest, probe = [], None, None
    for rep in range(SETUP_REPS):
        if tracer:
            tracer.begin_phase(f"setup{rep}")
            tracer.set_op(-1, 1)
        with traced(tracer):
            t0 = time.perf_counter()
            data = rp_data.load_csv(csv_path)
            built = rpforest.build_forest(data, config, SERVE_TREES, seed)
            setup_times.append(time.perf_counter() - t0)
        problems = [] if np.array_equal(data.points, train_points) else ["load_csv changed the points"]
        rows = rpforest.query_batch(built, queries[:PROBE_QUERIES], k)
        if forest is None:
            forest, probe = built, rows
        elif not checks.same_rows(rows, probe):
            problems.append("forest differs from set-up repetition 0")
        ledger.check(f"set-up repetition {rep}", problems)
    points = data.points
    n, m = SERVE_TRAIN, SERVE_QUERIES

    truth_q = [rpforest.exact_knn(data, q, k) for q in queries[:QUALITY_QUERIES]]
    sample = np.sort(np.random.default_rng(seed).choice(n, size=CHECKED_TRAINING, replace=False))
    truth_t = [rpforest.exact_knn(data, points[i], k, self_id=int(i)) for i in sample]
    single = rpforest.build_forest(data, tree_config(1, leaf_capacity=n + 1), 1, seed)
    ledger.check(
        "single-leaf forest vs oracle",
        [] if checks.same_rows(rpforest.query_batch(single, queries[:PROBE_QUERIES], k), truth_q[:PROBE_QUERIES])
        else ["not bit-identical"],
    )
    del single

    timings = {"round_s": [], "train_s": [], "heldout_s": [], "knn_s": [], "traced_s": []}
    first_batch = []
    quality = {}
    counts: dict[str, float] = {}

    def serve_round(rep: int, trace: Tracer | None):
        knn_rows, latencies = [], []
        with traced(trace):
            if trace:
                trace.set_op(-1, 1)
            t0 = time.perf_counter()
            found_train = rpforest.query_all_training(forest, k)
            t1 = time.perf_counter()
            found_batch = rpforest.query_batch(forest, queries, k)
            t2 = time.perf_counter()
            for qi in range(m):
                if trace:
                    trace.set_op(qi, 1)
                s = time.perf_counter()
                knn_rows.append(rpforest.query_knn(forest, queries[qi], k))
                latencies.append(time.perf_counter() - s)
            t3 = time.perf_counter()
        if trace:
            timings["traced_s"].append(t3 - t0)
        else:
            timings["round_s"].append(t3 - t0)
            timings["train_s"].append(t1 - t0)
            timings["heldout_s"].append(t2 - t1)
            timings["knn_s"].extend(latencies)

        mode = "traced" if trace else "untraced"
        bad_train, problems = checks.check_rows(points, points, found_train, k, self_ids=np.arange(n))
        _, sampled = checks.check_rows(
            points, points[sample], [found_train[i] for i in sample], k, self_ids=sample, truth=truth_t
        )
        ledger.tally(f"{mode} query_all_training rep {rep}", n, int(bad_train.sum()), problems + sampled)
        bad_batch, problems = checks.check_rows(points, queries, found_batch, k)
        _, scored = checks.check_rows(points, queries[:QUALITY_QUERIES], found_batch[:QUALITY_QUERIES], k, truth=truth_q)
        ledger.tally(f"{mode} query_batch rep {rep}", m, int(bad_batch.sum()), problems + scored)
        differ = np.array([not checks.same_rows([a], [b]) for a, b in zip(knn_rows, found_batch)])
        ledger.tally(
            f"{mode} query_knn rep {rep}", m, int((differ | bad_batch).sum()),
            [f"{int(differ.sum())} rows differ from query_batch"] if differ.any() else [],
        )
        if not first_batch:
            first_batch.extend(found_batch)
            subset = found_batch[:QUALITY_QUERIES]
            quality["missing"], _ = rpforest.missing_rate(truth_q, subset, k)
            quality["error"], _ = rpforest.distance_error(truth_q, subset, k)
            ledger.check("quality metrics", checks.check_quality(truth_q, subset, k, quality["missing"], quality["error"]))
        elif not checks.same_rows(found_batch, first_batch):
            ledger.check(f"{mode} rep {rep} determinism", ["query_batch rows differ from round 0"])
        if trace and not counts:
            train_pools, query_pools = pool_sizes(forest), pool_sizes(forest, queries)
            returned = sum(len(r) for r in found_train) + 2 * sum(len(r) for r in found_batch)
            counts.update(structure_counts([forest], LEAF_CAPACITY) or {})
            counts.update(pool_metrics([train_pools, query_pools, query_pools], returned))
            ledger.check(
                "row lengths vs pool sizes",
                check_lengths(found_train, train_pools, k) + check_lengths(found_batch, query_pools, k),
            )

    def body(rep: int):
        serve_round(rep, None)
        if tracer:
            tracer.begin_phase(f"round{rep}")
            serve_round(rep, tracer)

    rounds = run_rounds(seconds, body)
    knn_ms = np.array(timings["knn_s"]) * 1e3
    tail = tail_percentile(knn_ms.size, candidates=(99.0,))
    reported = {
        "train_qps": n * rounds / sum(timings["train_s"]),
        "distance_error": float(quality["error"]),
        "heldout_qps": m * rounds / sum(timings["heldout_s"]),
        "knn_ms_p50": float(np.percentile(knn_ms, 50)),
        "knn_ms_p99": float(np.percentile(knn_ms, tail)) if tail else math.nan,
        "knn_samples": int(knn_ms.size),
    }
    e2e = {
        "setup_s": median(setup_times),
        "round_s": median(timings["round_s"]),
        "missing_rate": float(quality["missing"]),
    }
    per_layer = {}
    if tracer:
        counts["oracle.distance_evals"] = 0
        per_layer = layer_metrics(tracer, counts, "setup0")
        per_layer.update(reported)
        per_layer.update(overhead(median(timings["traced_s"]), e2e["round_s"]))
    inputs = {"n": n, "queries": m, "d": SERVE_D, "centers": SERVE_CENTERS, "sigma": SERVE_SIGMA, "k": k,
              "trees": SERVE_TREES, "leaf_capacity": LEAF_CAPACITY, "method": 1,
              "quality_queries": QUALITY_QUERIES, "setup_reps": SETUP_REPS,
              "samples": {"setup_s": setup_times, **{key: v for key, v in timings.items() if key not in ("knn_s", "traced_s")}}}
    return Result(ledger, e2e, reported, per_layer, inputs, rounds, sorted(tracer.absent) if tracer else [])


def run(workload: str, seed: int, seconds: float, tracer: Tracer | None, out_dir: Path) -> Result:
    if workload == "serve-16d":
        return run_serve(seed, seconds, tracer, out_dir)
    return run_grid(GRIDS[workload], seed, seconds, tracer, out_dir)
