"""Benchmark harness: sweep (method, T, k) grids and emit plot-ready CSV.

Every grid cell builds a fresh forest, queries every dataset point with
self-exclusion, and scores the results against a once-computed exact-neighbor
table, so all methods are measured against identical ground truth.
"""

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Dataset
from .data import CsvFormatError, gen_concentric_rings, gen_gaussian_blobs, load_csv
from .forest import NeighborList, build_forest, query_all_training
from .metrics import distance_error, missing_rate
from .oracle import all_true_neighbors
from .stats import two_sample_ttest
from .strategies import StrategyConfig
from .tree import TreeConfig

RESULT_COLUMNS = (
    "method",
    "T",
    "k",
    "n0",
    "repetition",
    "missing_rate",
    "distance_error",
    "build_ms",
    "query_ms",
    "seed",
)

DEFAULT_FOREST_SIZES = (1, 2, 3, 4, 5, 10, 20, 40, 60, 80, 100)

# generator recipes of --dataset: each key with its default
RECIPES = {
    "blobs": {"n": "1000", "d": "2", "centers": "4", "sigma": "1.0", "seed": "0"},
    "rings": {"n": "500", "radii": "1|5", "noise": "0.05", "seed": "0"},
}


class ConfigError(Exception):
    """Invalid experiment configuration."""


@dataclass
class ExperimentConfig:
    methods: tuple[int, ...] = (1, 2, 3, 4)
    forest_sizes: tuple[int, ...] = DEFAULT_FOREST_SIZES
    k_values: tuple[int, ...] = (5,)
    leaf_capacity: int = 20
    n_try: int = 3
    noise_sigmas: tuple[float, ...] = (0.1, 0.01)
    repetitions: int | None = None  # None: 100 for n <= 2000, else 10
    master_seed: int = 0
    include_timings: bool = True

    def validate(self, n: int | None = None) -> dict[int, TreeConfig]:
        """Raise ConfigError for an invalid grid; with n, also check k against it.

        Returns the tree configuration of every method of the grid.
        """
        if not self.methods or any(m not in (1, 2, 3, 4) for m in self.methods):
            raise ConfigError(f"methods must be a non-empty subset of 1..4, got {self.methods}")
        if not self.forest_sizes or any(t < 1 for t in self.forest_sizes):
            raise ConfigError(f"forest sizes must be positive, got {self.forest_sizes}")
        if not self.k_values or any(k < 1 for k in self.k_values):
            raise ConfigError(f"k values must be positive, got {self.k_values}")
        if self.leaf_capacity < 3:
            raise ConfigError(
                f"leaf capacity must be >= 3, got {self.leaf_capacity}: below 3 every leaf "
                "holds one point, so no training point has a candidate besides itself"
            )
        if max(self.k_values) >= self.leaf_capacity:
            raise ConfigError(
                f"max k ({max(self.k_values)}) must be below leaf capacity "
                f"({self.leaf_capacity}); raise --leaf-capacity"
            )
        if self.repetitions is not None and self.repetitions < 1:
            raise ConfigError(f"repetitions must be >= 1, got {self.repetitions}")
        if n is not None and max(self.k_values) > n - 1:
            raise ConfigError(f"max k ({max(self.k_values)}) must be at most n - 1 ({n - 1})")
        try:
            return {
                method: TreeConfig(
                    leaf_capacity=self.leaf_capacity,
                    strategy=StrategyConfig(method=method, n_try=self.n_try, noise_sigmas=self.noise_sigmas),
                )
                for method in self.methods
            }
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def effective_repetitions(self, n: int) -> int:
        if self.repetitions is not None:
            return self.repetitions
        return 100 if n <= 2000 else 10


def parse_dataset_spec(spec: str, args=None) -> Dataset:
    """Build a Dataset from a spec string: a CSV path or a generator recipe.

    Generator recipes: "blobs:n=1000,d=2,centers=4,sigma=0.6,seed=7" and
    "rings:n=500,radii=1|5,noise=0.05,seed=3".
    """
    kind, _, body = spec.partition(":")
    if kind in RECIPES:
        params = dict(RECIPES[kind])
        for item in filter(None, body.split(",")):
            key, _, value = (part.strip() for part in item.partition("="))
            if key not in params:
                raise ConfigError(f"bad dataset spec {spec!r}: unknown key {key!r}; {kind} takes {', '.join(params)}")
            params[key] = value
        try:
            if kind == "blobs":
                n, d, centers, seed = (int(params[key]) for key in ("n", "d", "centers", "seed"))
                return gen_gaussian_blobs(n, d, centers, float(params["sigma"]), seed)
            radii = [float(r) for r in params["radii"].split("|")]
            return gen_concentric_rings(int(params["n"]), radii, float(params["noise"]), int(params["seed"]))
        except ValueError as exc:
            raise ConfigError(f"bad dataset spec {spec!r}: {exc}") from exc
    return load_csv(
        spec,
        has_header=getattr(args, "csv_header", False),
        label_column=getattr(args, "label_column", None),
        standardize=getattr(args, "standardize", False),
    )


def run_experiment_grid(data: Dataset, cfg: ExperimentConfig) -> list[dict]:
    """Run every (method, T, k, repetition) cell; returns one row dict per run.

    Repetition r of cell c draws its seeds from the child stream keyed by
    (c, r) under the master seed, so reruns are bit-identical and cells are
    independent.
    """
    tree_configs = cfg.validate(data.n)
    with np.errstate(over="ignore"):
        span = np.ptp(data.points, axis=0)
        if not np.isfinite(span @ span):
            raise ConfigError("squared distances of the data overflow float64; rescale the data")
    reps = cfg.effective_repetitions(data.n)
    # rows sorted by (distance, id): each smaller k's rows are prefixes
    widest = all_true_neighbors(data, max(cfg.k_values))
    truth = {k: [NeighborList(row.ids[:k], row.distances[:k]) for row in widest] for k in cfg.k_values}
    cells = [
        (method, n_trees, k)
        for method in cfg.methods
        for n_trees in cfg.forest_sizes
        for k in cfg.k_values
    ]
    rows = []
    for cell_index, (method, n_trees, k) in enumerate(cells):
        for rep in range(reps):
            ss = np.random.SeedSequence(cfg.master_seed, spawn_key=(cell_index, rep))
            seed_id = int(ss.generate_state(1)[0])
            t0 = time.perf_counter()
            forest = build_forest(data, tree_configs[method], n_trees, ss)
            t1 = time.perf_counter()
            found = query_all_training(forest, k)
            t2 = time.perf_counter()
            m_bar, _ = missing_rate(truth[k], found, k)
            d_bar, _ = distance_error(truth[k], found, k)
            rows.append(
                {
                    "method": method,
                    "T": n_trees,
                    "k": k,
                    "n0": cfg.leaf_capacity,
                    "repetition": rep,
                    "missing_rate": m_bar,
                    "distance_error": d_bar,
                    "build_ms": (t1 - t0) * 1e3 if cfg.include_timings else 0.0,
                    "query_ms": (t2 - t1) * 1e3 if cfg.include_timings else 0.0,
                    "seed": seed_id,
                }
            )
    return rows


def format_float(x: float) -> str:
    return format(x, ".6g")


def write_results_csv(rows: list[dict], path) -> None:
    if not rows:
        raise ValueError("no result rows to write")
    lines = [",".join(RESULT_COLUMNS)]
    for row in rows:
        cells = []
        for col in RESULT_COLUMNS:
            value = row[col]
            cells.append(format_float(value) if isinstance(value, float) else str(value))
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def run_ttest_report(rows: list[dict], t_threshold: int) -> list[dict]:
    """Compare method 1's missing-rate samples against methods 2-4 for T above
    the threshold; emits one row per (T, k, method) with a p-value or the
    identical-means marker."""
    samples: dict[tuple, list[float]] = {}
    for row in rows:
        samples.setdefault((row["method"], row["T"], row["k"]), []).append(row["missing_rate"])
    report = []
    t_values = sorted({row["T"] for row in rows if row["T"] > t_threshold})
    k_values = sorted({row["k"] for row in rows})
    for n_trees in t_values:
        for k in k_values:
            baseline = samples.get((1, n_trees, k))
            if baseline is None:
                continue
            for method in (2, 3, 4):
                other = samples.get((method, n_trees, k))
                if other is None:
                    continue
                if len(baseline) < 2 or len(other) < 2:
                    raise ConfigError(
                        f"need >= 2 repetitions per cell for the t-test, "
                        f"got {len(baseline)} and {len(other)} at T={n_trees}"
                    )
                result = two_sample_ttest(baseline, other)
                report.append(
                    {
                        "T": n_trees,
                        "k": k,
                        "method": method,
                        "statistic": "-" if result.identical_means else format_float(result.statistic),
                        "p_value": "-" if result.identical_means else format_float(result.p_value),
                    }
                )
    return report


def _check_config_value(action: argparse.Action, key: str, value) -> None:
    """ConfigError unless value is what the flag would parse to: a non-empty
    list for nargs="+", and values of the flag's type (bool for switches)."""
    if value is None and action.default is None:
        return  # unset, as when the flag is not given
    kind, many = action.type or (bool if action.nargs == 0 else str), action.nargs == "+"
    values = value if many and isinstance(value, list) else [value]
    allowed = (int, float) if kind is float else kind  # JSON writes 1.0 as 1
    ok = all(isinstance(v, allowed) and (kind is bool or not isinstance(v, bool)) for v in values)
    if not ok or (many and not (isinstance(value, list) and value)):
        shape = f"a non-empty list of {kind.__name__}" if many else kind.__name__
        raise ConfigError(f"config key {key!r} must be {shape}, got {value!r}")


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    # parse once to find --config, load it as defaults, then parse for real so
    # explicit flags override file values
    pre, _ = parser.parse_known_args(argv)
    if pre.config:
        with open(pre.config, encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config file must hold a JSON object, got {type(file_cfg).__name__}")
        actions = {action.dest: action for action in parser._actions}
        unknown = set(file_cfg) - set(actions)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_cfg.items():
            _check_config_value(actions[key], key, value)
        parser.set_defaults(**file_cfg)
    return parser.parse_args(argv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpforest-bench",
        description="Benchmark k-nn search quality of random projection forests.",
    )
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument(
        "--dataset",
        help="CSV path or generator spec (blobs:n=...,d=...,centers=...,sigma=...,seed=... "
        "or rings:n=...,radii=a|b,noise=...,seed=...)",
    )
    parser.add_argument("--csv-header", action="store_true", help="CSV has a header row")
    parser.add_argument("--label-column", type=int, help="CSV column index to drop")
    parser.add_argument("--standardize", action="store_true", help="z-score each feature")
    parser.add_argument("--methods", type=int, nargs="+", default=[1, 2, 3, 4])
    parser.add_argument("--trees", type=int, nargs="+", default=list(DEFAULT_FOREST_SIZES))
    parser.add_argument("--k", type=int, nargs="+", default=[5])
    parser.add_argument("--leaf-capacity", type=int, default=20)
    parser.add_argument("--ntry", type=int, default=3)
    parser.add_argument("--noise-sigmas", type=float, nargs="+", default=[0.1, 0.01])
    parser.add_argument("--reps", type=int, help="repetitions per cell (default 100, 10 if n > 2000)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=False, help="output CSV path")
    parser.add_argument(
        "--ttest-threshold",
        type=int,
        help="also print a method-1-vs-others t-test table for T above this value",
    )
    parser.add_argument(
        "--no-timings",
        action="store_true",
        help="write 0 for timing columns so reruns are byte-identical",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _apply_config_file(parser, list(sys.argv[1:] if argv is None else argv))
        if not args.dataset:
            raise ConfigError("--dataset is required (flag or config file)")
        if not args.out:
            raise ConfigError("--out is required (flag or config file)")
        out = Path(args.out).resolve()
        if out.is_dir():
            raise IsADirectoryError(f"output path is a directory: {out}")
        if not out.parent.is_dir():
            raise FileNotFoundError(f"output directory does not exist: {out.parent}")
        data = parse_dataset_spec(args.dataset, args)
        cfg = ExperimentConfig(
            methods=tuple(args.methods),
            forest_sizes=tuple(args.trees),
            k_values=tuple(args.k),
            leaf_capacity=args.leaf_capacity,
            n_try=args.ntry,
            noise_sigmas=tuple(args.noise_sigmas),
            repetitions=args.reps,
            master_seed=args.seed,
            include_timings=not args.no_timings,
        )
        cfg.validate(data.n)
        reps = cfg.effective_repetitions(data.n)
        ttest = args.ttest_threshold is not None and max(cfg.forest_sizes) > args.ttest_threshold
        if ttest and reps < 2 and 1 in cfg.methods and {2, 3, 4} & set(cfg.methods):
            # run_ttest_report would compare cells of fewer than 2 samples
            raise ConfigError(f"the t-test needs >= 2 repetitions per cell, got {reps}")

        rows = run_experiment_grid(data, cfg)
        write_results_csv(rows, args.out)
        print(f"wrote {len(rows)} rows to {args.out}")
        if args.ttest_threshold is not None:
            report = run_ttest_report(rows, args.ttest_threshold)
            print("T,k,method,statistic,p_value")
            for row in report:
                print(f"{row['T']},{row['k']},{row['method']},{row['statistic']},{row['p_value']}")
    except (ConfigError, CsvFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, OSError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
