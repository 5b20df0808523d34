import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cpls.cli import DEFAULTS, build_parser, load_config_file, main

from conftest import flaky_quantile_box, quantile_box_failing_on


def test_benchmark_defaults_pinned():
    assert DEFAULTS["dt"] == 0.02
    assert DEFAULTS["n_steps"] == 500
    assert DEFAULTS["drop"] == 20
    assert DEFAULTS["sigma"] == 1.5
    assert DEFAULTS["sigma_y"] == 2.0
    assert DEFAULTS["kappa"] == 8.0
    assert DEFAULTS["cutoff"] == 1e14
    assert DEFAULTS["basis_phi"] == DEFAULTS["basis_psi"] == "hermite"
    assert DEFAULTS["max_m1"] == DEFAULTS["max_m2"] == 39


def test_runtime_loads_no_scipy():
    # numpy is the one runtime dependency; scipy comes with the test extra
    # only. A fresh interpreter, since this one has loaded scipy for the tests.
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    code = "import sys, cpls, cpls.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_import_loads_no_executors():
    # cpls.experiments.worker_pool imports the process-pool machinery when it
    # starts a pool, and the design pass its thread executor when it runs, so
    # `import cpls` loads neither.
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    code = ("import sys, cpls, cpls.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


FAST = [
    "--n-steps", "60", "--dt", "0.05", "--drop", "3",
    "--max-m1", "3", "--max-m2", "3",
]


def run_cli(args):
    return main(args)


class TestExperimentCommand:
    def test_writes_summary_and_reps(self, tmp_path, capsys):
        code = run_cli([
            "experiment", "--model", "2", "--y", "A", "--n", "8", "--reps", "2",
            "--seed", "7", "--out", str(tmp_path), *FAST,
        ])
        assert code == 0
        summary = (tmp_path / "experiment_summary.csv").read_text().splitlines()
        header = summary[0].split(",")
        assert header[0] == "function"
        # four MSE columns and two dimension columns per function row
        assert sum("mse" in h for h in header) == 4
        assert sum(h.startswith("dim") for h in header) == 2
        assert [row.split(",")[0] for row in summary[1:]] == ["a", "b"]
        reps = (tmp_path / "experiment_reps.csv").read_text().splitlines()
        assert len(reps) == 3  # header + 2 repetitions
        meta = json.loads((tmp_path / "experiment_meta.json").read_text())
        assert meta["settings"]["seed"] == 7
        assert len(meta["rep_seeds"]) == 2
        assert meta["workers"] == 1 and meta["wall_s"] > 0
        out = capsys.readouterr().out
        assert "repetitions" in out

    def test_failed_repetition_in_csv_and_meta(self, tmp_path, monkeypatch):
        import cpls.experiments as expmod

        monkeypatch.setattr(expmod, "quantile_box", flaky_quantile_box(fail_call=2))
        code = run_cli([
            "experiment", "--model", "2", "--y", "B", "--n", "8", "--reps", "3",
            "--seed", "7", "--out", str(tmp_path), *FAST,
        ])
        assert code == 0
        reps = [line.split(",") for line in (tmp_path / "experiment_reps.csv").read_text().splitlines()]
        assert [row[reps[0].index("failed")] for row in reps[1:]] == ["0", "1", "0"]
        meta = json.loads((tmp_path / "experiment_meta.json").read_text())
        assert meta["n_failed"] == 1
        assert meta["failures"] == {"ValueError": 1}

    def test_meta_records_versions_and_blas_threads(self, tmp_path, monkeypatch):
        import platform

        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        code = run_cli([
            "experiment", "--model", "3", "--y", "B", "--n", "8", "--reps", "1",
            "--seed", "7", "--out", str(tmp_path), *FAST,
        ])
        assert code == 0
        meta = json.loads((tmp_path / "experiment_meta.json").read_text())
        assert meta["python"] == platform.python_version()
        assert meta["numpy"] == np.__version__
        assert "scipy" not in meta  # not a runtime dependency
        assert meta["blas_threads"]["OPENBLAS_NUM_THREADS"] == "3"
        assert meta["blas_threads"]["MKL_NUM_THREADS"] is None
        assert set(meta["blas_threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
        assert meta["cpus"] == len(os.sched_getaffinity(0))
        assert meta["failures"] == {}

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "experiment", "--model", "3", "--y", "B", "--n", "8", "--reps", "2",
            "--seed", "3", *FAST,
        ]
        run_cli(args + ["--out", str(tmp_path / "one")])
        run_cli(args + ["--out", str(tmp_path / "two")])
        for name in ("experiment_summary.csv", "experiment_reps.csv"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_curves_flag_writes_beams(self, tmp_path):
        code = run_cli([
            "experiment", "--model", "3", "--y", "B", "--n", "8", "--reps", "3",
            "--seed", "1", "--curves", "2", "--out", str(tmp_path), *FAST,
        ])
        assert code == 0
        header = (tmp_path / "beam_a.csv").read_text().splitlines()[0]
        assert header.split(",") == ["x", "truth", "rep_1", "rep_2"]
        assert (tmp_path / "beam_b.csv").exists()

    def test_curves_capped_at_successful_reps(self, tmp_path):
        code = run_cli([
            "experiment", "--model", "3", "--y", "B", "--n", "8", "--reps", "3",
            "--seed", "1", "--curves", "5", "--out", str(tmp_path), *FAST,
        ])
        assert code == 0
        for name in ("beam_a.csv", "beam_b.csv"):
            header = (tmp_path / name).read_text().splitlines()[0].split(",")
            assert header == ["x", "truth", "rep_1", "rep_2", "rep_3"]


class TestFitCommand:
    def test_fit_outputs(self, tmp_path, capsys):
        code = run_cli([
            "fit", "--model", "2", "--y", "B", "--n", "10", "--seed", "2",
            "--out", str(tmp_path), "--dump-design", *FAST,
        ])
        assert code == 0
        assert "selected dims" in capsys.readouterr().out
        coeffs = (tmp_path / "fit_coefficients.csv").read_text().splitlines()
        assert coeffs[0] == "component,basis_index,value"
        table = (tmp_path / "fit_criterion_table.csv").read_text().splitlines()
        assert table[0] == "m1,m2,gamma,pen,admissible,criterion"
        assert len(table) == 1 + 9  # 3 x 3 scan
        gram = np.loadtxt(tmp_path / "fit_gram.csv", delimiter=",")
        meta = json.loads((tmp_path / "fit_meta.json").read_text())
        chosen = meta["chosen"]
        assert gram.shape == (sum(chosen), sum(chosen))

    def test_meta_without_sched_getaffinity(self, tmp_path, monkeypatch):
        # macOS has no os.sched_getaffinity; the core count falls back to os.cpu_count.
        monkeypatch.delattr(os, "sched_getaffinity")
        code = run_cli(["fit", "--n", "40", "--max-m1", "5", "--max-m2", "5", "--out", str(tmp_path)])
        assert code == 0
        assert json.loads((tmp_path / "fit_meta.json").read_text())["cpus"] == os.cpu_count()


class TestTable1Command:
    def test_grid_layout(self, tmp_path):
        code = run_cli([
            "table1", "--reps", "1", "--seed", "1", "--out", str(tmp_path),
            "--n-steps", "40", "--dt", "0.05", "--drop", "2",
            "--max-m1", "2", "--max-m2", "2",
        ])
        assert code == 0
        rows = (tmp_path / "table1.csv").read_text().splitlines()
        assert len(rows) == 13  # header + 12 combinations
        header = rows[0].split(",")
        assert header[:3] == ["model", "y", "n_paths"]

    def test_failures_by_cell_in_meta(self, tmp_path, monkeypatch):
        import cpls.experiments as expmod
        from cpls.experiments import rep_seed
        from cpls.simulate import GridSpec, explanatory_by_name, generate_sample, make_model

        # A degenerate box for model 1 x Y (B)'s only repetition: the box
        # comes from path 0, which N = 400 and N = 1000 share.
        grid = GridSpec(n_steps=30, dt=0.05, drop_first=2)
        first = generate_sample(make_model(1), explanatory_by_name("B"), grid, 1, rep_seed(1, 0)).x[0]
        monkeypatch.setattr(expmod, "quantile_box", quantile_box_failing_on(first))
        code = run_cli([
            "table1", "--reps", "1", "--seed", "1", "--out", str(tmp_path),
            "--n-steps", "30", "--dt", "0.05", "--drop", "2",
            "--max-m1", "2", "--max-m2", "2",
        ])
        assert code == 0
        meta = json.loads((tmp_path / "table1_meta.json").read_text())
        assert meta["failures"] == {"1B-400": {"ValueError": 1}, "1B-1000": {"ValueError": 1}}
        assert {"python", "numpy", "blas_threads"} <= set(meta)
        assert meta["cpus"] == len(os.sched_getaffinity(0))
        assert meta["workers"] == 1 and meta["wall_s"] > 0
        assert meta["rep_seeds"] == [rep_seed(1, 0)]
        rows = (tmp_path / "table1.csv").read_text().splitlines()
        # cells run in the order (1, A, 400), (1, A, 1000), (1, B, 400), ...
        for line, n in zip(rows[3:5], ("400", "1000")):
            row = line.split(",")
            assert row[:3] == ["1", "B", n] and row[3] == "nan"
        assert all(line.split(",")[3] != "nan" for line in rows[1:3] + rows[5:])

    def test_table1_uses_default_n_grid(self, tmp_path):
        # the benchmark grid always covers N in {400, 1000}; with tiny reps we
        # only check the row keys, not the statistics
        code = run_cli([
            "table1", "--reps", "1", "--seed", "1", "--out", str(tmp_path),
            "--n-steps", "30", "--dt", "0.05", "--drop", "2",
            "--max-m1", "2", "--max-m2", "2",
        ])
        assert code == 0
        rows = [r.split(",")[:3] for r in (tmp_path / "table1.csv").read_text().splitlines()[1:]]
        assert rows == [
            [m, y, n] for m in ("1", "2", "3") for y in ("A", "B") for n in ("400", "1000")
        ]


class TestBasesCheck:
    def test_hermite_passes(self, capsys):
        code = run_cli(["bases-check", "--basis", "hermite", "--m", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "residual" in out

    def test_unknown_basis_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run_cli(["bases-check", "--basis", "wavelet", "--m", "5"])
        assert err.value.code == 2


class TestConfigHandling:
    def test_bad_arguments_exit_2(self):
        for command in ("experiment", "fit"):
            for flag in (["--model", "9"], ["--model", "4"], ["--y", "C"], ["--stability", "loose"],
                         ["--basis-phi", "foo"], ["--basis-psi", "foo"]):
                with pytest.raises(SystemExit) as err:
                    run_cli([command, *flag])
                assert err.value.code == 2

    def test_flags_unused_by_a_command_exit_2(self):
        for args in (["table1", "--n", "5"], ["fit", "--threads", "2"]):
            with pytest.raises(SystemExit) as err:
                run_cli(args)
            assert err.value.code == 2

    @pytest.mark.parametrize("key", sorted(DEFAULTS))
    def test_every_setting_is_an_experiment_flag(self, key):
        flag = "--" + key.replace("_", "-")
        args = build_parser().parse_args(["experiment", flag, str(DEFAULTS[key])])
        assert type(getattr(args, key)) is type(DEFAULTS[key])
        assert getattr(args, key) == DEFAULTS[key]

    @pytest.mark.parametrize("line, message", [
        ("y = b", r"run\.cfg:2: y = 'b', choose from \['A', 'B'\]"),
        ("stability = loose", r"run\.cfg:2: stability = 'loose', choose from \['practical', 'theoretical'\]"),
    ])
    def test_config_values_checked_like_flags(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = 1\n{line}\n")
        with pytest.raises(ValueError, match=message):
            load_config_file(str(cfg))
        code = run_cli([
            "experiment", "--config", str(cfg), "--n", "8", "--reps", "1",
            "--out", str(tmp_path / "out"), *FAST,
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error [ValueError]: {cfg}:2: ")
        assert not (tmp_path / "out" / "experiment_meta.json").exists()

    def test_runtime_failure_exits_1(self, tmp_path, capsys):
        # reps larger than zero but invalid sample size triggers a runtime error
        code = run_cli([
            "experiment", "--model", "2", "--y", "A", "--n", "0", "--reps", "1",
            "--seed", "1", "--out", str(tmp_path), *FAST,
        ])
        assert code == 1
        assert capsys.readouterr().err == "error [ValueError]: n_paths must be >= 2, got 0\n"

    _INVALID_SETTINGS = [
        (["fit", "--cutoff", "nan"], "cutoff must be finite and positive, got nan"),
        (["fit", "--kappa", "inf"], "kappa must be finite and positive, got inf"),
        (["fit", "--stability", "theoretical", "--r", "nan"], "r must be finite and positive, got nan"),
        (["experiment", "--sigma", "nan"], "sigma_sq must be finite and nonnegative, got nan"),
        (["experiment", "--sigma-y", "nan"], "sigma_y must be finite and positive, got nan"),
        (["experiment", "--sigma-y", "inf"], "sigma_y must be finite and positive, got inf"),
        (["experiment", "--sigma-y", "-1"], "sigma_y must be finite and positive, got -1.0"),
        (["experiment", "--x0", "inf"], "x0 must be finite, got inf"),
        (["experiment", "--dt", "inf"], "need n_steps >= 1 and dt > 0 with a finite horizon n_steps * dt, "
                                        "got GridSpec(n_steps=60, dt=inf, drop_first=3)"),
        # The stability event's budget N / log N needs two paths.
        (["experiment", "--n", "1"], "n_paths must be >= 2, got 1"),
        (["fit", "--n", "1"], "n_paths must be >= 2, got 1"),
        (["experiment", "--threads", "0"], "workers must be >= 1, got 0"),
        (["table1", "--threads", "-4"], "workers must be >= 1, got -4"),
        (["experiment", "--curves", "-2"], "curves must be >= 0, got -2"),
        # With two workers a pool would start before the first repetition.
        (["experiment", "--seed", "-1", "--threads", "2"], "seed must be >= 0, got -1"),
        (["table1", "--seed", "-1", "--threads", "2"], "seed must be >= 0, got -1"),
        (["fit", "--seed", "-1"], "seed must be >= 0, got -1"),
    ]

    @pytest.mark.parametrize("args, message", _INVALID_SETTINGS,
                             ids=[" ".join(args) for args, _ in _INVALID_SETTINGS])
    def test_invalid_settings_fail_before_any_repetition(self, tmp_path, capsys, monkeypatch,
                                                        args, message):
        import cpls.experiments as expmod
        import cpls.simulate as simmod

        def no_repetition(task):
            raise AssertionError("a repetition ran")

        def no_sample(*args):
            raise AssertionError("a sample was simulated")

        def no_pool(workers):
            raise AssertionError("a pool started")

        monkeypatch.setattr(expmod, "_run_rep", no_repetition)
        monkeypatch.setattr(expmod, "worker_pool", no_pool)
        monkeypatch.setattr(simmod, "_simulate", no_sample)
        # The probe's flags come last, so they override the fast settings.
        out = tmp_path / "out"
        code = run_cli([args[0], "--out", str(out), *FAST, *args[1:]])
        assert code == 1
        assert capsys.readouterr().err == f"error [ValueError]: {message}\n"
        assert not out.exists()

    def test_config_file_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nmodel = 3\nseed = 11\nkappa = 4.0\nmax-m1 = 12\nsigma = 2\n")
        parsed = load_config_file(str(cfg))
        assert parsed == {"model": 3, "seed": 11, "kappa": 4.0, "max_m1": 12, "sigma": 2.0}
        assert type(parsed["max_m1"]) is int and type(parsed["sigma"]) is float
        out = tmp_path / "out"
        code = run_cli([
            "experiment", "--config", str(cfg), "--y", "B", "--n", "8", "--reps", "1",
            "--seed", "5", "--out", str(out), *FAST,
        ])
        assert code == 0
        meta = json.loads((out / "experiment_meta.json").read_text())
        assert meta["settings"]["model"] == 3  # from file
        assert meta["settings"]["sigma"] == 2.0  # from file
        assert meta["settings"]["max_m1"] == 3  # flag overrides file
        assert meta["settings"]["seed"] == 5  # flag overrides file

    def test_settings_without_a_flag_not_recorded(self, tmp_path):
        # One config format serves every command; a command records only
        # the settings it has flags for.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 5\nmodel = 3\nreps = 1\ncurves = 2\nthreads = 1\n")
        code = run_cli([
            "table1", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "table1"),
            "--n-steps", "30", "--dt", "0.05", "--drop", "2", "--max-m1", "2", "--max-m2", "2",
        ])
        assert code == 0
        settings = json.loads((tmp_path / "table1" / "table1_meta.json").read_text())["settings"]
        assert settings["reps"] == 1
        assert set(settings) == set(DEFAULTS) - {"model", "y", "n", "curves"}
        code = run_cli(["fit", "--config", str(cfg), "--out", str(tmp_path / "fit"), *FAST])
        assert code == 0
        settings = json.loads((tmp_path / "fit" / "fit_meta.json").read_text())["settings"]
        assert settings["n"] == 5 and settings["model"] == 3
        assert set(settings) == set(DEFAULTS) - {"reps", "threads", "curves"}

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\nsigma_x = 2\n")
        with pytest.raises(ValueError, match="run.cfg:2: unknown key 'sigma_x'"):
            load_config_file(str(cfg))

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CPLS_OUTPUT_DIR", str(tmp_path / "envout"))
        code = run_cli([
            "experiment", "--model", "3", "--y", "B", "--n", "8", "--reps", "1",
            "--seed", "5", *FAST,
        ])
        assert code == 0
        assert (tmp_path / "envout" / "experiment_summary.csv").exists()
