"""Benchmark harness: sweep (method, T, k) grids and emit plot-ready CSV.

Every grid cell builds a fresh forest, queries every dataset point with
self-exclusion, and scores the results against a once-computed exact-neighbor
table, so all methods are measured against identical ground truth.
"""

import argparse
import itertools
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Dataset, check_int
from .data import gen_concentric_rings, gen_gaussian_blobs, load_csv
from .forest import build_forest, query_all_training
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

# generator recipes of --dataset: each key with its default
RECIPES = {
    "blobs": {"n": "1000", "d": "2", "centers": "4", "sigma": "1.0", "seed": "0"},
    "rings": {"n": "500", "radii": "1|5", "noise": "0.05", "seed": "0"},
}


class ConfigError(ValueError):
    """Invalid experiment configuration."""


# argparse dest of each grid flag -> its ExperimentConfig field
GRID_FLAGS = {
    "methods": "methods", "trees": "forest_sizes", "k": "k_values", "leaf_capacity": "leaf_capacity",
    "ntry": "n_try", "noise_sigmas": "noise_sigmas", "reps": "repetitions", "seed": "master_seed",
}


@dataclass
class ExperimentConfig:
    methods: tuple[int, ...] = (1, 2, 3, 4)
    forest_sizes: tuple[int, ...] = (1, 2, 3, 4, 5, 10, 20, 40, 60, 80, 100)
    k_values: tuple[int, ...] = (5,)
    leaf_capacity: int = TreeConfig.leaf_capacity
    n_try: int = StrategyConfig.n_try
    noise_sigmas: tuple[float, ...] = StrategyConfig.noise_sigmas
    repetitions: int | None = None  # None: 100 for n <= 2000, else 10
    master_seed: int = 0
    include_timings: bool = True

    def validate(self, n: int | None = None) -> dict[int, TreeConfig]:
        """Raise ValueError for an invalid grid; with n, also check k against it.

        Returns the tree configuration of every method of the grid.
        """
        if not self.methods or any(m not in (1, 2, 3, 4) for m in self.methods):
            raise ConfigError(f"methods must be a non-empty subset of 1..4, got {self.methods}")
        for flag, values in (("--trees", self.forest_sizes), ("--k", self.k_values)):
            if not values:
                raise ConfigError(f"{flag} needs at least one value")
            for value in values:
                check_int(value, flag, 1)
        for flag, values in (("--methods", self.methods), ("--trees", self.forest_sizes), ("--k", self.k_values)):
            if len(set(values)) < len(values):
                raise ConfigError(f"{flag} must not repeat a value, got {values}")
        if check_int(self.leaf_capacity, "--leaf-capacity") < 3:
            raise ConfigError(
                f"leaf capacity must be >= 3, got {self.leaf_capacity}: below 3 every leaf "
                "holds one point, so no training point has a candidate besides itself"
            )
        if max(self.k_values) >= self.leaf_capacity:
            raise ConfigError(
                f"max k ({max(self.k_values)}) must be below leaf capacity "
                f"({self.leaf_capacity}); raise --leaf-capacity"
            )
        if self.repetitions is not None:
            check_int(self.repetitions, "--reps", 1)
        check_int(self.master_seed, "--seed", 0)
        if n is not None and max(self.k_values) > n - 1:
            raise ConfigError(f"max k ({max(self.k_values)}) must be at most n - 1 ({n - 1})")
        return {
            method: TreeConfig(
                leaf_capacity=self.leaf_capacity,
                strategy=StrategyConfig(method=method, n_try=self.n_try, noise_sigmas=self.noise_sigmas),
            )
            for method in self.methods
        }

    def effective_repetitions(self, n: int) -> int:
        if self.repetitions is not None:
            return self.repetitions
        return 100 if n <= 2000 else 10

    def cells(self) -> list[tuple[int, int, int]]:
        """The grid's (method, T, k) cells, in the order of its rows."""
        return list(itertools.product(self.methods, self.forest_sizes, self.k_values))


def parse_dataset_spec(spec: str, **csv_options) -> Dataset:
    """Build a Dataset from a spec string: a CSV path (read by load_csv with
    csv_options) or a generator recipe.

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
    return load_csv(spec, **csv_options)


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
        # n * max L1 norm bounds every projection onto a unit direction and every node's sum of them
        if data.n * np.abs(data.points).sum(axis=1).max() >= np.finfo(np.float64).max / 2:
            raise ConfigError("projections of the data overflow float64; rescale the data")
    reps = cfg.effective_repetitions(data.n)
    # rows sorted by (distance, id): each smaller k's rows are prefixes
    widest = all_true_neighbors(data, max(cfg.k_values))
    truth = {k: widest.prefix(k) for k in cfg.k_values}
    rows = []
    for cell_index, (method, n_trees, k) in enumerate(cfg.cells()):
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
            timings = ((t1 - t0) * 1e3, (t2 - t1) * 1e3) if cfg.include_timings else (0.0, 0.0)
            values = (method, n_trees, k, cfg.leaf_capacity, rep, m_bar, d_bar, *timings, seed_id)
            rows.append(dict(zip(RESULT_COLUMNS, values)))
    return rows


def format_float(x: float) -> str:
    return format(x, ".6g")


def write_results_csv(rows: list[dict], path) -> None:
    if not rows:
        raise ValueError("no result rows to write")
    lines = [",".join(RESULT_COLUMNS)]
    for row in rows:
        values = (row[col] for col in RESULT_COLUMNS)
        lines.append(",".join(format_float(v) if isinstance(v, float) else str(v) for v in values))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def run_ttest_report(rows: list[dict], t_threshold: int) -> list[dict]:
    """Compare method 1's missing-rate samples against methods 2-4 for T above
    the threshold; emits one row per (T, k, method) with a p-value or the
    identical-means marker."""
    samples: dict[tuple, list[float]] = {}
    for row in rows:
        samples.setdefault((row["T"], row["k"], row["method"]), []).append(row["missing_rate"])
    report = []
    for (n_trees, k, method), other in sorted(samples.items()):
        baseline = samples.get((n_trees, k, 1))
        if n_trees <= t_threshold or method not in (2, 3, 4) or baseline is None:
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
            try:
                file_cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{pre.config}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config file must hold a JSON object, got {type(file_cfg).__name__}")
        # --config and --help are not config values: a file naming them is refused
        actions = {action.dest: action for action in parser._actions if action.dest not in ("config", "help")}
        unknown = set(file_cfg) - set(actions)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_cfg.items():
            _check_config_value(actions[key], key, value)
        parser.set_defaults(**file_cfg)
    return parser.parse_args(argv)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a bad value or unknown flag: one error line from main, not usage and exit 2
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    # grid flags have no defaults here: an unset flag leaves ExperimentConfig's
    parser.add_argument("--methods", type=int, nargs="+")
    parser.add_argument("--trees", type=int, nargs="+")
    parser.add_argument("--k", type=int, nargs="+")
    parser.add_argument("--leaf-capacity", type=int)
    parser.add_argument("--ntry", type=int)
    parser.add_argument("--noise-sigmas", type=float, nargs="+")
    parser.add_argument("--reps", type=int, help="repetitions per cell (default 100, 10 if n > 2000)")
    parser.add_argument("--seed", type=int)
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
        for dest in ("dataset", "out"):
            if not getattr(args, dest):
                raise ConfigError(f"--{dest} is required (flag or config file)")
        kind = args.dataset.partition(":")[0]
        for dest in ("csv_header", "label_column", "standardize"):
            value = getattr(args, dest)  # None and False (also from a config file) leave it unset
            if kind in RECIPES and value is not None and value is not False:
                raise ConfigError(f"--{dest.replace('_', '-')} applies to CSV datasets only, not to the {kind} recipe")
        out = Path(args.out).resolve()
        if out.is_dir():
            raise IsADirectoryError(f"output path is a directory: {out}")
        if not out.parent.is_dir():
            raise FileNotFoundError(f"output directory does not exist: {out.parent}")
        data = parse_dataset_spec(
            args.dataset, has_header=args.csv_header, label_column=args.label_column, standardize=args.standardize
        )
        given = {field: getattr(args, dest) for dest, field in GRID_FLAGS.items()}
        cfg = ExperimentConfig(
            **{field: tuple(v) if isinstance(v, list) else v for field, v in given.items() if v is not None},
            include_timings=not args.no_timings,
        )
        cfg.validate(data.n)
        if args.ttest_threshold is not None:  # a dry run on the grid's cells: the report's own checks fail now
            cells = [{"method": m, "T": t, "k": k, "missing_rate": 0.0} for m, t, k in cfg.cells()]
            run_ttest_report(cells * cfg.effective_repetitions(data.n), args.ttest_threshold)

        rows = run_experiment_grid(data, cfg)
        write_results_csv(rows, args.out)
        print(f"wrote {len(rows)} rows to {args.out}")
        if args.ttest_threshold is not None:
            report = run_ttest_report(rows, args.ttest_threshold)
            print("T,k,method,statistic,p_value")
            for row in report:
                print(f"{row['T']},{row['k']},{row['method']},{row['statistic']},{row['p_value']}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, OSError) else 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
