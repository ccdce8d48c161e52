import dataclasses
import itertools
import json
import os
import pathlib
import subprocess
import sys
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest

import rpforest.cli
import rpforest.core
from rpforest.cli import (
    ConfigError,
    ExperimentConfig,
    RESULT_COLUMNS,
    main,
    parse_dataset_spec,
    run_experiment_grid,
    run_ttest_report,
    run_units,
    write_results_csv,
)
from rpforest.data import gen_gaussian_blobs
from rpforest.forest import query_all_training
from rpforest.metrics import missing_rate
from rpforest.oracle import all_true_neighbors


@pytest.fixture(scope="module")
def small_data():
    return gen_gaussian_blobs(120, 2, 3, 0.8, seed=42)


class TestConfigValidation:
    def test_k_must_fit_leaf_capacity(self):
        cfg = ExperimentConfig(k_values=(21,), leaf_capacity=20)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_bad_method(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(methods=(0, 5)).validate()

    def test_default_repetitions_by_size(self):
        cfg = ExperimentConfig()
        assert cfg.effective_repetitions(2000) == 100
        assert cfg.effective_repetitions(2001) == 10


class TestDatasetSpec:
    def test_blobs_spec(self):
        ds = parse_dataset_spec("blobs:n=50,d=3,centers=2,sigma=0.5,seed=9")
        assert ds.n == 50 and ds.d == 3

    def test_rings_spec(self):
        ds = parse_dataset_spec("rings:n=40,radii=1|4,noise=0.01,seed=9")
        assert ds.n == 40 and ds.d == 2

    def test_bad_spec(self):
        with pytest.raises(ConfigError):
            parse_dataset_spec("blobs:n=oops")

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("blobs:n=50,sigm=0.1", "unknown key 'sigm'; blobs takes n, d, centers, sigma, seed"),
            ("rings:n=40,radius=2", "unknown key 'radius'; rings takes n, radii, noise, seed"),
        ],
    )
    def test_unknown_key_named(self, spec, message):
        with pytest.raises(ConfigError, match=message):
            parse_dataset_spec(spec)

    def test_csv_path(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0,0\n1,1\n")
        ds = parse_dataset_spec(str(path))
        assert ds.n == 2


class TestExperimentGrid:
    def test_single_leaf_exactness(self, small_data):
        cfg = ExperimentConfig(
            methods=(1,), forest_sizes=(1,), k_values=(5,), leaf_capacity=200, repetitions=1
        )
        rows = run_experiment_grid(small_data, cfg)
        assert len(rows) == 1
        assert rows[0]["missing_rate"] == 0.0
        assert rows[0]["distance_error"] == 0.0

    def test_cartesian_row_count(self, small_data):
        cfg = ExperimentConfig(
            methods=(1, 2, 3, 4),
            forest_sizes=(1, 2, 3, 4, 5, 10),
            k_values=(5,),
            repetitions=10,
        )
        rows = run_experiment_grid(small_data, cfg)
        assert len(rows) == 4 * 6 * 1 * 10

    def test_one_oracle_call_for_all_k(self, small_data, monkeypatch):
        calls = []

        def counted(data, k):
            calls.append(k)
            return all_true_neighbors(data, k)

        monkeypatch.setattr(rpforest.cli, "all_true_neighbors", counted)
        cfg = ExperimentConfig(methods=(1,), forest_sizes=(2,), k_values=(5, 3), repetitions=1)
        rows = run_experiment_grid(small_data, cfg)
        assert calls == [5]
        assert [row["k"] for row in rows] == [5, 3]

    def test_validation_before_work(self, small_data):
        with pytest.raises(ConfigError):
            run_experiment_grid(small_data, ExperimentConfig(k_values=(50,), leaf_capacity=20))


class TestRunUnits:
    """The grid's work units: run_units yields (row, found, forest) for each
    (cell_index, rep) of cfg.units, seeded by spawn key (cell_index, rep)."""

    CFG = ExperimentConfig(methods=(1, 3), forest_sizes=(1, 3), k_values=(5, 2), repetitions=2, master_seed=7)

    def test_units_in_cell_then_repetition_order(self, small_data):
        expected = [(c, cell, rep) for c, cell in enumerate(self.CFG.cells()) for rep in range(2)]
        assert self.CFG.units(small_data.n) == expected
        rows = [row for row, _, _ in run_units(small_data, self.CFG)]
        assert [(row["method"], row["T"], row["k"], row["repetition"]) for row in rows] == [
            (*cell, rep) for _, cell, rep in expected
        ]

    def test_unit_seeds_and_results(self, small_data):
        for (row, found, forest), (c, (_, n_trees, k), rep) in zip(
            run_units(small_data, self.CFG), self.CFG.units(small_data.n), strict=True
        ):
            ss = np.random.SeedSequence(7, spawn_key=(c, rep))
            assert row["seed"] == ss.generate_state(1)[0]
            assert forest.master_seed.spawn_key == (c, rep) and forest.leaf_of.shape[0] == n_trees
            expected = query_all_training(forest, k)
            np.testing.assert_array_equal(found.ids, expected.ids)
            assert row["missing_rate"] == missing_rate(all_true_neighbors(small_data, k), found, k)[0]

    def test_rows_equal_run_experiment_grid(self, small_data):
        cfg = dataclasses.replace(self.CFG, include_timings=False)
        assert [row for row, _, _ in run_units(small_data, cfg)] == run_experiment_grid(small_data, cfg)

    def test_stopping_after_one_unit_builds_one_forest(self, small_data, monkeypatch):
        calls = {"build_forest": 0, "all_true_neighbors": 0}

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)

            return call

        for name in calls:
            monkeypatch.setattr(rpforest.cli, name, counted(name, getattr(rpforest.cli, name)))
        units = run_units(small_data, self.CFG)
        assert calls == {"build_forest": 0, "all_true_neighbors": 1}  # the oracle runs before the first unit
        next(units)
        units.close()
        assert calls == {"build_forest": 1, "all_true_neighbors": 1}

    def test_invalid_grid_raises_before_iteration(self, small_data):
        with pytest.raises(ConfigError, match="max k"):
            run_units(small_data, ExperimentConfig(k_values=(50,), leaf_capacity=20))


class TestWriteResultsCsv:
    def test_schema(self, small_data, tmp_path):
        cfg = ExperimentConfig(methods=(1,), forest_sizes=(2,), k_values=(3,), repetitions=1)
        rows = run_experiment_grid(small_data, cfg)
        path = tmp_path / "out.csv"
        write_results_csv(rows, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[0] == ",".join(RESULT_COLUMNS)
        assert all(len(line.split(",")) == 10 for line in lines)

    def test_round_trip(self, small_data, tmp_path):
        cfg = ExperimentConfig(methods=(1, 4), forest_sizes=(2,), k_values=(3,), repetitions=2)
        rows = run_experiment_grid(small_data, cfg)
        path = tmp_path / "out.csv"
        write_results_csv(rows, path)
        parsed = np.genfromtxt(path, delimiter=",", names=True)
        assert parsed.shape[0] == len(rows)
        for row, rec in zip(rows, parsed):
            assert rec["missing_rate"] == pytest.approx(row["missing_rate"], rel=1e-5)
            assert rec["method"] == row["method"]

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_results_csv([], tmp_path / "x.csv")


class TestTTestReport:
    def test_identical_means_marker(self):
        rows = []
        for method in (1, 2):
            for rep in range(5):
                rows.append(
                    {"method": method, "T": 40, "k": 5, "missing_rate": 0.01 * rep}
                )
        report = run_ttest_report(rows, t_threshold=20)
        assert len(report) == 1
        assert report[0]["p_value"] == "-" and report[0]["statistic"] == "-"

    def test_pvalues_in_unit_interval(self, small_data):
        cfg = ExperimentConfig(
            methods=(1, 2, 3, 4), forest_sizes=(5, 10), k_values=(5,), repetitions=6
        )
        rows = run_experiment_grid(small_data, cfg)
        report = run_ttest_report(rows, t_threshold=4)
        assert report  # both T values exceed the threshold
        for entry in report:
            assert entry["method"] in (2, 3, 4)
            if entry["p_value"] != "-":
                assert 0.0 <= float(entry["p_value"]) <= 1.0

    def test_insufficient_repetitions(self):
        rows = [
            {"method": 1, "T": 40, "k": 5, "missing_rate": 0.0},
            {"method": 2, "T": 40, "k": 5, "missing_rate": 0.1},
            {"method": 2, "T": 40, "k": 5, "missing_rate": 0.2},
        ]
        with pytest.raises(ConfigError):
            run_ttest_report(rows, t_threshold=20)

    def test_entries_in_T_k_method_order(self):
        rows = [
            {"method": m, "T": t, "k": k, "missing_rate": 0.01 * r}
            for t in (40, 30, 10)
            for m in (4, 1, 2)
            for k in (5, 3)
            for r in range(2)
        ]
        report = run_ttest_report(rows, t_threshold=20)
        assert [(e["T"], e["k"], e["method"]) for e in report] == sorted(itertools.product((30, 40), (3, 5), (2, 4)))


class TestMain:
    def test_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        code = main(
            [
                "--dataset", "blobs:n=100,d=2,centers=2,sigma=0.7,seed=3",
                "--methods", "1", "2",
                "--trees", "1", "5",
                "--k", "3",
                "--reps", "2",
                "--seed", "11",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        assert len(out.read_text().strip().split("\n")) == 1 + 2 * 2 * 2

    def test_golden_csv_is_byte_identical(self, tmp_path):
        # the behaviour contract: for fixed seeds the --no-timings CSV keeps its
        # bytes; a change that alters RNG use or summation order updates the
        # file and says so
        out = tmp_path / "results.csv"
        code = main(
            [
                "--dataset", "blobs:n=200,d=2,centers=3,sigma=0.8,seed=1",
                "--methods", "1", "2", "3", "4",
                "--trees", "1", "5",
                "--k", "5",
                "--reps", "2",
                "--seed", "3",
                "--no-timings",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.read_bytes() == (pathlib.Path(__file__).parent / "golden_grid.csv").read_bytes()

    def test_validation_error_exit_code(self, tmp_path, capsys):
        code = main(
            [
                "--dataset", "blobs:n=100",
                "--k", "30",
                "--leaf-capacity", "20",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_dataset_is_validation_error(self, tmp_path):
        assert main(["--out", str(tmp_path / "x.csv")]) == 1

    def test_io_error_exit_code(self, tmp_path, capsys):
        code = main(
            [
                "--dataset", "blobs:n=60,d=2,centers=2,sigma=0.5,seed=1",
                "--trees", "1",
                "--reps", "1",
                "--k", "3",
                "--out", str(tmp_path / "no_such_dir" / "x.csv"),
            ]
        )
        assert code == 2

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        out = tmp_path / "r.csv"
        cfg_path.write_text(
            json.dumps(
                {
                    "dataset": "blobs:n=80,d=2,centers=2,sigma=0.5,seed=2",
                    "trees": [1],
                    "k": [3],
                    "reps": 2,
                    "methods": [1],
                    "out": str(out),
                }
            )
        )
        # --reps on the command line overrides the config file value
        code = main(["--config", str(cfg_path), "--reps", "1"])
        assert code == 0
        assert len(out.read_text().strip().split("\n")) == 2

    @pytest.mark.parametrize("via_config", [False, True])
    def test_unset_grid_flags_take_experiment_config_defaults(self, tmp_path, via_config):
        spec = "blobs:n=60,d=2,centers=2,sigma=0.5,seed=4"
        expected, out = tmp_path / "expected.csv", tmp_path / "r.csv"
        cfg = ExperimentConfig(forest_sizes=(1,), repetitions=1, include_timings=False)
        write_results_csv(run_experiment_grid(parse_dataset_spec(spec), cfg), expected)
        if via_config:
            # null leaves a key unset, as an absent flag does
            values = {"dataset": spec, "out": str(out), "trees": [1], "reps": 1, "no_timings": True, "methods": None}
            (tmp_path / "cfg.json").write_text(json.dumps(values))
            argv = ["--config", str(tmp_path / "cfg.json")]
        else:
            argv = ["--dataset", spec, "--out", str(out), "--trees", "1", "--reps", "1", "--no-timings"]
        assert main(argv) == 0
        assert out.read_bytes() == expected.read_bytes()

    def test_unknown_config_key(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bogus": 1}))
        assert main(["--config", str(cfg_path)]) == 1

    def test_ttest_report_printed(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(
            [
                "--dataset", "blobs:n=100,d=2,centers=2,sigma=0.7,seed=3",
                "--methods", "1", "2", "3", "4",
                "--trees", "10",
                "--k", "3",
                "--reps", "4",
                "--out", str(out),
                "--ttest-threshold", "5",
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "T,k,method,statistic,p_value" in captured

    def test_ttest_without_comparison_needs_one_repetition(self, tmp_path, capsys):
        # method 1 alone is compared with nothing, so one repetition is enough
        argv = ["--dataset", "blobs:n=50,d=2,centers=2,sigma=0.7,seed=3", "--methods", "1", "--trees", "1", "--k", "3"]
        assert main(argv + ["--reps", "1", "--ttest-threshold", "0", "--out", str(tmp_path / "r.csv")]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "T,k,method,statistic,p_value"

    def test_ttest_zero_variance_row_printed(self, tmp_path, capsys, monkeypatch):
        # method 1 always finds every neighbour, method 2 always misses 25%:
        # both samples are constant, so the row reports the test's limit
        rows = [
            {"method": m, "T": 40, "k": 3, "n0": 20, "repetition": r, "missing_rate": 0.25 * (m - 1),
             "distance_error": 0.0, "build_ms": 0.0, "query_ms": 0.0, "seed": r}
            for m in (1, 2)
            for r in range(3)
        ]
        monkeypatch.setattr(rpforest.cli, "run_experiment_grid", lambda data, cfg: rows)
        argv = ["--dataset", "blobs:n=50,d=2,centers=2,sigma=0.7,seed=3", "--trees", "40", "--k", "3"]
        code = main(argv + ["--out", str(tmp_path / "r.csv"), "--ttest-threshold", "20"])
        assert code == 0
        assert "40,3,2,-inf,0" in capsys.readouterr().out.splitlines()


class Run(NamedTuple):
    """One rpforest-bench run writing a --no-timings CSV: its flags, the files
    it reads (name -> text), and core.WORKERS for an in-process run (None: as
    it is) or OPENBLAS_NUM_THREADS for a `python -m rpforest.cli` child."""

    args: list
    files: dict = {}
    workers: int | None = None
    blas_threads: int | None = None


def csv_text(rows) -> str:
    return "".join(",".join(row) + "\n" for row in rows)


GRID = ["--methods", "1", "2", "3", "4", "--trees", "1", "5", "--k", "5", "--reps", "2", "--seed", "3", "--no-timings"]
BLOBS_SPEC = "blobs:n=200,d=2,centers=3,sigma=0.8,seed=1"
BLOBS_GRID = Run(["--dataset", BLOBS_SPEC, *GRID])
CONFIG = {"dataset": BLOBS_SPEC, "methods": [1, 2, 3, 4], "trees": [1, 5], "k": [5], "reps": 2, "seed": 3, "no_timings": True}
HEADED = [["a", "b", "c", "label"]] + [
    [*map(repr, p), str(i % 3)] for i, p in enumerate(np.random.default_rng(1).normal(size=(80, 3)).tolist())
]
HEADED_GRID = Run(
    ["--dataset", "headed.csv", "--csv-header", "--label-column", "3", "--standardize", *GRID], {"headed.csv": csv_text(HEADED)}
)
READ = np.random.default_rng(2).normal(scale=1e6, size=(120, 3))  # >= 4 integer digits: underscores appear
LABELLED = np.random.default_rng(5).normal(size=(80, 3)).tolist()
TIED = np.tile(np.random.default_rng(4).integers(0, 6, size=(60, 2)), (3, 1))  # every point three times
TIED_GRID = Run(["--dataset", "tied.csv", *GRID], {"tied.csv": csv_text(TIED.astype(str))})
D64 = ["--dataset", "blobs:n=300,d=64,centers=4", "--methods", "1", "2", "--trees", "1", "5", "--reps", "2", "--no-timings"]


def reader_run(fmt: str) -> Run:
    name = f"points{fmt}.csv"
    return Run(["--dataset", name, *GRID], {name: csv_text([format(x, fmt) for x in row] for row in READ)})


def label_run(label: str) -> Run:
    name = f"label_{label}.csv"
    return Run(["--dataset", name, "--label-column", "3", *GRID], {name: csv_text([*map(repr, p), label] for p in LABELLED)})


class TestRerunContract:
    """The behaviour contract: runs that differ only in how they reach the
    same points and grid write the same --no-timings CSV bytes."""

    ROWS = [
        pytest.param(BLOBS_GRID, BLOBS_GRID, id="rerun"),
        pytest.param(BLOBS_GRID, BLOBS_GRID._replace(workers=1), id="one-worker"),  # as under taskset -c 0
        pytest.param(BLOBS_GRID, Run(["--config", "args.json"], {"args.json": json.dumps(CONFIG)}), id="config-file"),
        pytest.param(*[HEADED_GRID] * 2, id="csv-header-label-standardize"),
        pytest.param(*[Run(["--dataset", "rings:n=200,radii=1|3,noise=0.1,seed=2", *GRID])] * 2, id="rings"),
        # digit-group underscores only the line reader reads, plain digits numpy's C reader reads
        pytest.param(reader_run("_.6f"), reader_run(".6f"), id="line-reader-vs-c-reader"),
        pytest.param(label_run("nan"), label_run("0"), id="nan-labels"),
        pytest.param(TIED_GRID, TIED_GRID._replace(workers=1), id="tied-one-worker"),
        # the oracle's filter is a BLAS product with real work at d = 64
        pytest.param(Run(D64, blas_threads=1), Run(D64, blas_threads=2), id="blas-threads"),
    ]

    @staticmethod
    def written(run: Run, out: str) -> bytes:
        for name, text in run.files.items():
            pathlib.Path(name).write_text(text)
        argv = [*run.args, "--out", out]
        if run.blas_threads is None:
            with mock.patch.object(rpforest.core, "WORKERS", run.workers or rpforest.core.WORKERS):
                assert main(argv) == 0
        else:  # a child, as BLAS reads its thread count at load; filterwarnings cannot see its warnings
            src = str(pathlib.Path(rpforest.cli.__file__).parents[1])
            path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
            env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": str(run.blas_threads)}
            child = subprocess.run([sys.executable, "-m", "rpforest.cli", *argv], env=env, capture_output=True, text=True)
            assert child.returncode == 0 and child.stderr == "", child.stderr
        return pathlib.Path(out).read_bytes()

    @pytest.mark.parametrize("a, b", ROWS)
    def test_same_bytes(self, tmp_path, monkeypatch, a, b):
        monkeypatch.chdir(tmp_path)
        if a.files and b.files and a.files.keys() != b.files.keys():  # else the row is a plain rerun
            assert list(a.files.values()) != list(b.files.values())
        assert self.written(a, "a.csv") == self.written(b, "b.csv")


class TestFailFast:
    BLOBS = "blobs:n=10,d=2,centers=2,sigma=0.5,seed=1"

    # (csv_text, flags, exit code, a substring of the error line naming the cause)
    ROWS = [
        (None, ["--dataset", BLOBS, "--k", "10"], 1, "max k (10) must be at most n - 1"),
        ("1,2,0\n3,4,1\n5,6,0\n", ["--label-column", "3"], 1, "label column 3 out of range"),
        ("1,2\n3,x\n", [], 1, "non-numeric cell at row 2, column 1"),
        ("1,2\n3\n", [], 1, "row 2 has 1 columns, expected 2"),  # ragged row
        ("1,nan\n3,4\n", [], 1, "d.csv: non-finite value at row 1, column 1"),
        (None, ["--dataset", "no_such_file.csv"], 2, "No such file or directory: 'no_such_file.csv'"),
        (None, ["--dataset", BLOBS, "--out", "no_such_dir/r.csv"], 2, "output directory does not exist"),
        (None, ["--dataset", BLOBS, "--ntry", "0"], 1, "n_try must be an integer in [1, inf], got 0"),
        (None, ["--dataset", BLOBS, "--noise-sigmas", "0.01", "0.1"], 1, "strictly decreasing"),
        (None, ["--dataset", BLOBS, "--noise-sigmas", "-1"], 1, "noise sigmas must be finite and positive"),
        (None, ["--dataset", BLOBS, "--ttest-threshold", "0"], 1, "need >= 2 repetitions per cell"),
        # config files: the value after --config is the file's JSON content
        (None, ["--dataset", BLOBS, "--config", {"methods": 5}], 1, "config key 'methods' must be a non-empty list"),
        (None, ["--dataset", BLOBS, "--config", {"noise_sigmas": ["a"]}], 1, "config key 'noise_sigmas'"),
        (None, ["--dataset", BLOBS, "--config", 5], 1, "config file must hold a JSON object"),
        (None, ["--dataset", BLOBS, "--config", {"leaf_capacity": "20"}], 1, "config key 'leaf_capacity' must be int"),
        (None, ["--dataset", BLOBS, "--config", {"config": "other.json"}], 1, "unknown config keys: ['config']"),
        (None, ["--dataset", BLOBS, "--config", {"help": True}], 1, "unknown config keys: ['help']"),
        (None, ["--dataset", "blobs:n=50,sigm=0.1"], 1, "unknown key 'sigm'"),
        (None, ["--dataset", "rings:n=40,radius=2"], 1, "unknown key 'radius'"),
        (None, ["--dataset", BLOBS, "--out", "."], 2, "output path is a directory"),
        (None, ["--dataset", BLOBS, "--k", "1", "--leaf-capacity", "2"], 1, "leaf capacity must be >= 3"),
        ("1e160,1\n-1e160,2\n0,3\n5,4\n6,5\n", [], 1, "squared distances of the data overflow"),
        ("5,1\n", ["--standardize"], 1, "standardizing needs at least 2 data rows"),
        ("1e160,1\n-1e160,2\n0,3\n5,4\n6,5\n", ["--standardize"], 1, "standardizing column 0 overflows"),
        # a span of 119, but projections near 3.4e308: every tree would be one forced leaf
        ("".join(f"1.7e308,1.7e308,{v}\n" for v in range(120)), [], 1, "projections of the data overflow"),
        # spans near 6e153 pass both checks above, but method 4's covariance sums of 200 squares overflow
        ("".join(f"{a!r},{b!r}\n" for a, b in (1e153 * np.random.default_rng(0).normal(size=(200, 2))).tolist()), [], 1,
         "covariances of the data overflow float64 (method 4)"),
        (None, ["--dataset", BLOBS, "--seed", "-1"], 1, "--seed must be an integer in [0, inf], got -1"),
        (None, ["--dataset", BLOBS, "--methods", "1", "1"], 1, "--methods must not repeat a value"),
        (None, ["--dataset", BLOBS, "--trees", "5", "5"], 1, "--trees must not repeat a value"),
        (None, ["--dataset", BLOBS, "--k", "3", "3"], 1, "--k must not repeat a value"),
        (None, ["--dataset", BLOBS, "--noise-sigmas", "nan"], 1, "noise sigmas must be finite and positive"),
        (None, ["--dataset", BLOBS, "--noise-sigmas", "inf", "1"], 1, "noise sigmas must be finite and positive"),
        (None, ["--dataset", "rings:noise=nan"], 1, "noise_sigma must be non-negative and finite, got nan"),
        (None, ["--dataset", "rings:n=3,radii=inf"], 1, "radii must be positive and finite, got [inf]"),  # no numpy warning first
        # CSV-only flags name themselves when the data is a generator recipe
        (None, ["--dataset", BLOBS, "--standardize"], 1, "--standardize applies to CSV datasets only"),
        (None, ["--dataset", BLOBS, "--label-column", "0"], 1, "--label-column applies to CSV datasets only"),
        (None, ["--dataset", "rings:n=40", "--csv-header"], 1, "--csv-header applies to CSV datasets only"),
        (None, ["--dataset", BLOBS, "--config", {"standardize": True}], 1, "--standardize applies to CSV"),
        (None, ["--dataset", BLOBS, "--config", {"label_column": 0}], 1, "--label-column applies to CSV"),
        # grid values and CSV files with no valid rows
        (None, ["--dataset", BLOBS, "--trees", "0"], 1, "--trees must be an integer in [1, inf], got 0"),
        (None, ["--dataset", BLOBS, "--k", "0"], 1, "--k must be an integer in [1, inf], got 0"),
        (None, ["--dataset", BLOBS, "--reps", "0"], 1, "--reps must be an integer in [1, inf], got 0"),
        ("1,2\n\n3,x\n", [], 1, "non-numeric cell at row 3, column 1"),  # blank lines skipped, still counted
        ("\n", [], 1, "d.csv: no data rows"),
        # malformed flags and config files: one error line, not argparse's usage
        (None, ["--dataset", BLOBS, "--trees", "x"], 1, "argument --trees: invalid int value: 'x'"),
        (None, ["--dataset", BLOBS, "--bogus"], 1, "unrecognized arguments: --bogus"),
        (None, ["--dataset", BLOBS, "--k"], 1, "argument --k: expected at least one argument"),
        (None, ["--dataset", BLOBS, "--config", '{"reps": 1,}'], 1, "c.json: Expecting property name"),  # written as is
        # files the csv module or the UTF-8 decoder refuses, and an empty file, on which numpy's reader warns
        ("1" * 200_000 + ",2\n3,4\n", [], 1, "d.csv: row 1: field larger than field limit (131072)"),
        (b"1,2\n\xff,4\n", [], 1, "d.csv: not UTF-8 text: invalid start byte"),
        ("", [], 1, "d.csv: no data rows"),
    ]

    @pytest.mark.filterwarnings("error")  # a warning is a second line on stderr
    @pytest.mark.parametrize(
        "csv_text, flags, code", [row[:3] for row in ROWS], ids=lambda v: f"{len(v)}-chars" if isinstance(v, str) and len(v) > 1000 else None
    )
    def test_bad_input_gives_one_error_line(self, tmp_path, monkeypatch, capsys, csv_text, flags, code):
        cause = next(row[3] for row in self.ROWS if row[:3] == (csv_text, flags, code))

        def must_not_run(*args, **kwargs):
            raise AssertionError("work started before validation finished")

        monkeypatch.setattr(rpforest.cli, "all_true_neighbors", must_not_run)
        monkeypatch.setattr(rpforest.cli, "build_forest", must_not_run)
        monkeypatch.chdir(tmp_path)
        argv = ["--trees", "1", "--reps", "1", "--k", "3", "--out", "r.csv"]
        if csv_text is not None:
            path = tmp_path / "d.csv"
            path.write_bytes(csv_text) if isinstance(csv_text, bytes) else path.write_text(csv_text)
            argv += ["--dataset", "d.csv"]
        if "--config" in flags:  # a str is the file's text, anything else is dumped as JSON
            (tmp_path / "c.json").write_text(flags[-1] if isinstance(flags[-1], str) else json.dumps(flags[-1]))
            flags = [*flags[:-1], "c.json"]
        assert main(argv + flags) == code
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and cause in err[0], err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0 and "usage: rpforest-bench" in capsys.readouterr().out

    def test_unset_csv_flags_in_config_pass(self, tmp_path, monkeypatch):
        # false and null read as the flag not given, also for a generator recipe
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.json").write_text(json.dumps({"csv_header": False, "label_column": None, "standardize": False}))
        assert main(["--config", "c.json", "--dataset", self.BLOBS, "--trees", "1", "--reps", "1", "--k", "3", "--out", "r.csv"]) == 0

    def test_out_of_memory_gives_one_error_line(self, tmp_path, monkeypatch, capsys):
        # a real oversized array is never requested: the generator raises as numpy would
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 37.3 GiB for an array with shape (50, 100000000) and data type float64")

        monkeypatch.setattr(rpforest.cli, "gen_gaussian_blobs", too_large)
        monkeypatch.chdir(tmp_path)
        assert main(["--dataset", "blobs:n=50,d=100000000", "--out", "r.csv"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: out of memory: Unable to allocate 37.3 GiB"), err

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma_named(self, tmp_path, monkeypatch, capsys, sigma):
        # rejected before drawing, not as the NaN or Inf points it would give
        monkeypatch.chdir(tmp_path)
        assert main(["--dataset", f"blobs:n=10,d=2,centers=2,sigma={sigma},seed=1", "--trees", "1", "--reps", "1", "--out", "r.csv"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].endswith(f"sigma must be positive and finite, got {sigma}"), err
