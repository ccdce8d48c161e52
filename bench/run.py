"""Benchmark command for rpforest: one workload per process, checked outputs.

    python3 bench/run.py --workload grid-2d --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics with no wrappers installed.
--trace 1 also runs every round a second time through timing wrappers and
reports the per-layer metrics, exact counters and the tracing overhead.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics. Any failed check makes the command exit with code 1.
"""

import os

# One calling thread and one BLAS thread, pinned before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import platform
import resource
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("grid-2d", "grid-64d", "serve-16d")

END_TO_END_UNITS = {
    "setup_s": "s",
    "round_s": "s",
    "missing_rate": "ratio",
    "peak_rss_mb": "MB",
}
# Printed with every run but not bounded: they move with the host (the
# throughputs) or with the seed (distance error) by more than any bound
# a regression check could use.
REPORTED_UNITS = {
    "train_qps": "queries/s",
    "distance_error": "distance",
    "heldout_qps": "queries/s",
    "knn_ms_p50": "ms",
    "knn_ms_p99": "ms",
    "knn_samples": "count",
}


_S, _N = "s", "count"
PER_LAYER_UNITS = {
    "data.gen_s": _S,
    "data.load_csv_s": _S,
    "oracle.all_true_neighbors_s": _S,
    "oracle.distance_evals": _N,
    "forest.build_forest_s": _S,
    **{f"forest.build_forest_s.m{m}": _S for m in (1, 2, 3, 4)},
    "tree.build_tree_self_s": _S,
    "tree.pick_split_point_s": _S,
    "tree.pick_split_point_calls": _N,
    "tree.nodes_internal": _N,
    "tree.leaves": _N,
    "tree.depth_max": _N,
    "tree.leaf_size_max": _N,
    "tree.forced_leaves": _N,
    "tree.degenerate_retries": _N,
    "tree.route_s": _S,
    "tree.route_calls": _N,
    "strategies.choose_direction_s": _S,
    **{f"strategies.choose_direction_s.m{m}": _S for m in (1, 2, 3, 4)},
    "strategies.choose_direction_calls": _N,
    "core.dispersion_s": _S,
    "core.dispersion_calls": _N,
    "forest.query_all_training_s": _S,
    "forest.query_batch_s": _S,
    "forest.query_knn_s": _S,
    "forest.rank_s": _S,
    "forest.rank_calls": _N,
    "forest.pool_self_s": _S,
    "forest.pool_size_mean": _N,
    "forest.pool_size_p95": _N,
    "forest.pool_yield": "ratio",
    "metrics.score_s": _S,
    "cli.report_s": _S,
    **REPORTED_UNITS,
    "trace.overhead_s": _S,
    "trace.overhead_pct": "%",
    "trace.absent_wrappers": _N,
}
# Counters that depend only on the seed; two traced runs must agree on them.
EXACT_COUNTERS = [
    name for name, unit in PER_LAYER_UNITS.items()
    if unit == _N and name not in ("knn_samples", "trace.absent_wrappers")
] + ["forest.pool_yield"]


def git_revision(root: Path) -> str:
    """HEAD's commit id read from .git, or "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(args, result) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": result.rounds,
        "inputs": result.inputs,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(ROOT),
        "absent_wrappers": result.absent,
        "reported": result.reported,
    }


def run_one(args) -> int:
    package = ROOT / "src" / "rpforest" / "__init__.py"
    if not package.is_file():
        print(f"error: package source not found at {package.relative_to(ROOT)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from spans import Tracer

    out_dir = ROOT / ".bench_build"
    out_dir.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, tracer, out_dir)
    except Exception:
        traceback.print_exc()
        print(f"error: workload {args.workload} stopped before its result", file=sys.stderr)
        return 1

    ledger = result.ledger
    info = manifest(args, result)
    if tracer:
        tracer.save(out_dir / f"trace-{args.workload}.npz")
        measured = dict(result.per_layer, **{"trace.absent_wrappers": len(result.absent)})
        # a layer whose functions or structures are gone reads 0 and is listed
        info["absent_metrics"] = sorted(set(PER_LAYER_UNITS) - set(measured))
        metrics = {name: measured.get(name, 0) for name in PER_LAYER_UNITS}
        counts = {name: metrics[name] for name in EXACT_COUNTERS}
        info["counts_sha256"] = hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()
        units = PER_LAYER_UNITS
    else:
        metrics = dict(result.end_to_end)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END_UNITS
    print("manifest " + json.dumps(info, sort_keys=True))
    for problem in ledger.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    if not tracer:
        for name, value in result.reported.items():
            print(f"{name} {value:.6g} {REPORTED_UNITS[name]} (not bounded)")
    error_rate = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    print(f"error_rate {error_rate:.6g} ratio ({ledger.failed} failed of {ledger.attempted} attempted)")
    correct = ledger.failed == 0 and ledger.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS belongs to that workload."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        code = subprocess.run(cmd, check=False).returncode
        status = status or code
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
