import dataclasses
import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from cpls.bases import HERMITE, TRIG, TRIG_NO_CONST
from cpls.design import DesignSystem, DimPair, build_design
from cpls.estimator import FitResult, StabilityRule, evaluate_fit
from cpls.experiments import (
    ExperimentConfig,
    QuantileBox,
    emit_beam,
    mse_box,
    quantile_box,
    rep_seed,
    run_cells,
    run_experiment,
    summarize,
    worker_pool,
)
from cpls.selection import SelectionConfig, scan_design, scan_dimension_grid, select_adaptive, select_oracle_from_scan
from cpls.simulate import GridSpec, SdeModel, explanatory_by_name, generate_sample, make_model

from conftest import flaky_quantile_box, forced_small_hull, make_sample, window_length
from oracles import scan_from_fits


def assert_same_records(got, expected):
    """Every field of every repetition record equal, arrays bit for bit."""
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        np.testing.assert_equal(dataclasses.asdict(a), dataclasses.asdict(b))


def tiny_config(**kw):
    defaults = dict(
        grid=GridSpec(n_steps=60, dt=0.05, drop_first=3),
        selection=SelectionConfig(max_m1=4, max_m2=3),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_penalty_sigma_sq_must_be_sigma_squared():
    with pytest.raises(ValueError, match=r"sigma_sq = 2\.25 is not sigma \*\* 2 = 4\.0"):
        ExperimentConfig(sigma=2.0)
    assert ExperimentConfig(sigma=2.0, selection=SelectionConfig(sigma_sq=4.0)).sigma == 2.0


class TestQuantileBox:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuantileBox(1.0, 1.0, 0.0, 1.0)

    def test_from_first_path_excluding_burnin(self):
        grid = GridSpec(n_steps=9, dt=0.1, drop_first=2)
        x = np.arange(10.0)[None, :].repeat(2, axis=0)
        y = -np.arange(10.0)[None, :].repeat(2, axis=0)
        sample = make_sample(grid, x, y)
        box = quantile_box(sample)
        kept_x = x[0, 2:]
        np.testing.assert_allclose(
            [box.a_x, box.b_x], np.quantile(kept_x, [0.02, 0.98]), rtol=1e-14
        )
        np.testing.assert_allclose(
            [box.a_y, box.b_y], np.quantile(y[0, 2:], [0.01, 0.99]), rtol=1e-14
        )


def fits_scan(phi, psi, dims, fits):
    """A scan of the rectangle ``dims`` holding ``fits`` (pair -> FitResult); no other pair is admissible."""
    k = dims.total
    design = DesignSystem(dims, np.eye(k), np.zeros(k), np.zeros(k), 1.0)
    return scan_from_fits(design, phi, psi, 100, SelectionConfig(), fits)


def a3_b3_box_integrals(box):
    """Closed-form integrals of a3^2 = (x - 0.5)^2 and b3^2 = tanh(y)^2 / 4 over ``box``."""
    int_a = ((box.b_x - 0.5) ** 3 - (box.a_x - 0.5) ** 3) / 3.0
    int_b = 0.25 * ((box.b_y - math.tanh(box.b_y)) - (box.a_y - math.tanh(box.a_y)))
    return int_a, int_b


class TestMseBox:
    def test_perfect_fit_is_zero(self):
        # truth equal to the constant expansion of phi_1 on [0, 1]
        model = SdeModel(
            a=lambda x: np.full_like(x, 2.0),
            b=lambda y: np.zeros_like(y),
            sigma=lambda x: np.ones_like(x),
        )
        fit = FitResult(dims=DimPair(1, 1), theta=np.array([2.0, 0.0]))
        scan = fits_scan(TRIG, TRIG_NO_CONST, DimPair(1, 1), {fit.dims: fit})
        err_a, err_b = mse_box(scan, model, QuantileBox(0.0, 1.0, 0.0, 1.0))
        assert err_a.shape == err_b.shape == (1, 1)
        assert err_a[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert err_b[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_constant_gap_closed_form(self):
        # fitted constant c against zero truth over a length-L box: c^2 L
        c, lo, hi = 0.75, 0.1, 0.9
        model = SdeModel(
            a=lambda x: np.zeros_like(x),
            b=lambda y: np.zeros_like(y),
            sigma=lambda x: np.ones_like(x),
        )
        fit = FitResult(dims=DimPair(1, 1), theta=np.array([c, 0.0]))
        scan = fits_scan(TRIG, TRIG_NO_CONST, DimPair(1, 1), {fit.dims: fit})
        err_a, _ = mse_box(scan, model, QuantileBox(lo, hi, 0.0, 1.0))
        assert err_a[0, 0] == pytest.approx(c * c * (hi - lo), abs=1e-10)

    def test_truncated_fit_against_linear_truth(self):
        # no admissible pair: every entry is the zero fit's error against
        # a3 = -x + 0.5 on [-2, 2], the integral of (x - 0.5)^2
        scan = fits_scan(HERMITE, HERMITE, DimPair(3, 3), {})
        box = QuantileBox(-2.0, 2.0, -1.0, 1.0)
        err_a, err_b = mse_box(scan, make_model(3), box)
        exact_a, exact_b = a3_b3_box_integrals(box)
        assert exact_a == pytest.approx(19.0 / 3.0)
        # int_{-1}^{1} tanh(y)^2 / 4 dy = (2 - 2 tanh 1) / 4
        assert exact_b == pytest.approx(0.119202922022117, rel=1e-14)
        assert np.all(err_a == err_a[0, 0]) and np.all(err_b == err_b[0, 0])
        assert err_a[0, 0] == pytest.approx(exact_a, rel=1e-10)
        assert err_b[0, 0] == pytest.approx(exact_b, rel=1e-8)


class TestRunExperiment:
    def test_deterministic_reports(self):
        r1 = run_experiment(2, "B", 8, 2, seed=5, config=tiny_config())
        r2 = run_experiment(2, "B", 8, 2, seed=5, config=tiny_config())
        for a, b in zip(r1.per_rep, r2.per_rep):
            assert a.mse_a == b.mse_a
            assert a.mse_b == b.mse_b
            assert a.dims == b.dims
            np.testing.assert_array_equal(a.theta, b.theta)
        assert r1.summary == r2.summary

    def test_workers_do_not_change_results(self):
        serial = run_experiment(3, "B", 8, 4, seed=2, config=tiny_config(), workers=1)
        parallel = run_experiment(3, "B", 8, 4, seed=2, config=tiny_config(), workers=2)
        for a, b in zip(serial.per_rep, parallel.per_rep):
            assert a.mse_a == b.mse_a
            assert a.oracle_mse_b == b.oracle_mse_b
            assert a.dims == b.dims and a.oracle_dims == b.oracle_dims

    def test_workers_match_serial_on_a_blas_sized_design(self):
        # 64 paths x 480 window steps at the default 39 x 39 bound: large
        # enough that a threaded BLAS splits the design products, while the
        # workers run single-threaded
        serial = run_experiment(1, "B", 64, 2, seed=3, workers=1)
        parallel = run_experiment(1, "B", 64, 2, seed=3, workers=2)
        for a, b in zip(serial.per_rep, parallel.per_rep):
            np.testing.assert_array_equal(a.theta, b.theta)
            np.testing.assert_array_equal(a.oracle_theta, b.oracle_theta)
            assert a.dims == b.dims and a.oracle_dims == b.oracle_dims
            assert a.max_residuals == b.max_residuals  # covers every fitted pair

    def test_spawned_worker_assembles_the_same_design(self):
        sample = generate_sample(make_model(1), explanatory_by_name("B"), GridSpec(), 64, seed=3)
        dims = DimPair(39, 39)
        serial = build_design(sample, HERMITE, HERMITE, dims, window_length(sample))
        with worker_pool(1) as pool:
            spawned = pool.submit(build_design, sample, HERMITE, HERMITE, dims, window_length(sample)).result()
        np.testing.assert_array_equal(serial.gram, spawned.gram)
        np.testing.assert_array_equal(serial.zvec, spawned.zvec)

    def test_cells_share_one_pool_and_match_serial_runs(self, monkeypatch):
        import cpls.experiments as expmod

        pools = []
        sizes = []
        real_pool = expmod.worker_pool
        real_stream = expmod.PathStream

        def counting_pool(workers):
            pools.append(workers)
            return real_pool(workers)

        def counting_stream(model, spec, grid, n_paths, seed):
            sizes.append(n_paths)
            return real_stream(model, spec, grid, n_paths, seed)

        monkeypatch.setattr(expmod, "worker_pool", counting_pool)
        monkeypatch.setattr(expmod, "PathStream", counting_stream)
        # (1, A) at N = 8 and 12 share one 4 x 3 scan rectangle, so one
        # sample; (2, B) at N = 3 scans 3 x 3 and at N = 10 scans 4 x 3, so
        # each N draws its own.
        cells = [(1, "A", 8), (2, "B", 10), (1, "A", 12), (3, "B", 8), (2, "B", 3)]
        serial = {cell: run_experiment(*cell, 2, seed=6, config=tiny_config()) for cell in cells}
        for workers in (1, 2):
            pools.clear()
            sizes.clear()
            pooled = list(run_cells(cells, 2, seed=6, config=tiny_config(), workers=workers))
            assert pools == ([2] if workers == 2 else [])
            if workers == 1:  # spawned workers do not see the counting wrapper
                assert sorted(sizes) == [3, 3, 8, 8, 10, 10, 12, 12]
            assert [(r.model_id, r.y_type, r.n_paths) for r in pooled] == cells
            for cell, report in zip(cells, pooled):
                assert report.summary == serial[cell].summary
                assert_same_records(report.per_rep, serial[cell].per_rep)

    def test_diverging_path_beyond_the_small_n_fails_only_the_large_n(self, monkeypatch):
        # Repetition 1's stream diverges at path 9, which only N = 12 draws:
        # the shared step fails inside its design pass, each N reruns on its
        # own, and N = 8 keeps the record of a standalone run.
        import cpls.experiments as expmod
        from cpls.simulate import SimulationError

        real_stream = expmod.PathStream
        sizes = []

        def diverging(model, spec, grid, n_paths, seed):
            sizes.append(n_paths)
            stream = real_stream(model, spec, grid, n_paths, seed)
            if seed == rep_seed(6, 1) and n_paths > 9:
                def chunks(stop=None):
                    raise SimulationError("path 9 became non-finite at step 5", path=9, step=5)
                    yield

                stream.chunks = chunks
            return stream

        monkeypatch.setattr(expmod, "PathStream", diverging)
        small, large = run_cells([(2, "B", 8), (2, "B", 12)], 2, seed=6, config=tiny_config())
        assert sizes == [12, 12, 8, 12]  # rep 0 shared; rep 1 shared, then each N alone
        monkeypatch.undo()
        assert_same_records(small.per_rep, run_experiment(2, "B", 8, 2, seed=6, config=tiny_config()).per_rep)
        assert small.n_failed == 0
        assert large.n_failed == 1 and large.failures == {"SimulationError": 1}
        assert large.per_rep[1].error == "SimulationError: path 9 became non-finite at step 5"
        alone = run_experiment(2, "B", 12, 1, seed=6, config=tiny_config())
        assert_same_records(large.per_rep[:1], alone.per_rep)

    def test_records_match_the_public_selectors(self):
        # A repetition assembles and scans its design itself; its record is
        # what the public selectors choose on the same sample.
        cfg = tiny_config()
        report = run_experiment(2, "B", 12, 2, seed=9, config=cfg)
        model = make_model(2, sigma=cfg.sigma, x0=cfg.x0)
        spec = explanatory_by_name("B", sigma_y=cfg.sigma_y)
        for r, record in enumerate(report.per_rep):
            sample = generate_sample(model, spec, cfg.grid, 12, rep_seed(9, r))
            box = quantile_box(sample)
            adaptive = select_adaptive(sample, cfg.phi, cfg.psi, cfg.selection)
            scan = scan_dimension_grid(sample, cfg.phi, cfg.psi, cfg.selection)
            oracle = select_oracle_from_scan(scan, *mse_box(scan, model, box))
            assert record.box == box
            assert record.dims == adaptive.chosen and record.oracle_dims == oracle.chosen
            np.testing.assert_array_equal(record.theta, adaptive.fit.theta)
            np.testing.assert_array_equal(record.oracle_theta, oracle.fit.theta)

    @pytest.mark.parametrize("cutoff", [1e14, 1e-30])
    def test_mse_columns_are_the_box_error_table(self, cutoff):
        # A repetition's four MSE values are the entries of mse_box's tables
        # at its chosen pairs, bit for bit. At cutoff 1e-30 no pair is
        # admissible, and both fits are the zero fit, whose errors are the
        # integrals of a3^2 and b3^2 over the box.
        cfg = tiny_config(selection=SelectionConfig(max_m1=4, max_m2=3, stability=StabilityRule(cutoff=cutoff)))
        report = run_experiment(3, "B", 20, 2, seed=4, config=cfg)
        model = make_model(3, sigma=cfg.sigma, x0=cfg.x0)
        spec = explanatory_by_name("B", sigma_y=cfg.sigma_y)
        for r, record in enumerate(report.per_rep):
            assert not record.failed
            sample = generate_sample(model, spec, cfg.grid, 20, rep_seed(4, r))
            scan = scan_dimension_grid(sample, cfg.phi, cfg.psi, cfg.selection)
            err_a, err_b = mse_box(scan, model, record.box)
            for dims, mse in ((record.dims, (record.mse_a, record.mse_b)),
                              (record.oracle_dims, (record.oracle_mse_a, record.oracle_mse_b))):
                at = dims.m1 - 1, dims.m2 - 1
                assert mse == (err_a[at], err_b[at])
            if cutoff == 1e-30:
                assert record.truncated and record.oracle_truncated
                exact = a3_b3_box_integrals(record.box)
                np.testing.assert_allclose((record.mse_a, record.mse_b), exact, rtol=1e-10)
                np.testing.assert_allclose((record.oracle_mse_a, record.oracle_mse_b), exact, rtol=1e-10)
            else:
                assert record.dims != record.oracle_dims and not record.truncated

    def test_summary_recomputable_from_per_rep(self):
        report = run_experiment(2, "B", 10, 5, seed=9, config=tiny_config())
        fresh = summarize(report.per_rep)
        assert fresh == report.summary
        good = [r for r in report.per_rep if not r.failed]
        manual = 100.0 * np.mean([r.mse_a for r in good])
        assert report.summary["mse100_a_mean"] == pytest.approx(manual, abs=1e-12)

    def test_rep_seed_derivation(self):
        assert rep_seed(5, 0) != rep_seed(5, 1)
        assert rep_seed(5, 3) == rep_seed(5, 3)

    def test_failed_reps_recorded_not_fatal(self):
        # explosive drift: Euler diverges to overflow for some paths
        config = tiny_config(grid=GridSpec(n_steps=80, dt=0.5, drop_first=2))
        bad = SdeModel(a=lambda x: x**3, b=lambda y: np.zeros_like(y), sigma=lambda x: np.ones_like(x), x0=2.0)
        import cpls.experiments as expmod

        orig = expmod.make_model
        expmod.make_model = lambda *a, **k: bad
        try:
            report = run_experiment(1, "B", 6, 3, seed=0, config=config)
        finally:
            expmod.make_model = orig
        assert report.n_failed == 3
        assert report.summary["n_failed"] == 3.0
        assert all(r.error for r in report.per_rep)

    def test_any_error_in_a_repetition_is_recorded(self, monkeypatch):
        # A degenerate quantile box (a ValueError, not a SimulationError) in
        # the second of three repetitions fails that repetition only.
        import cpls.experiments as expmod

        clean = run_experiment(2, "B", 10, 3, seed=9, config=tiny_config())
        monkeypatch.setattr(expmod, "quantile_box", flaky_quantile_box(fail_call=2))
        report = run_experiment(2, "B", 10, 3, seed=9, config=tiny_config())
        assert report.n_failed == 1
        bad = report.per_rep[1]
        assert bad.failed and bad.error.startswith("ValueError: degenerate quantile box")
        assert bad.dims is None and math.isnan(bad.mse_a)
        assert report.failures == {"ValueError": 1}
        kept = [clean.per_rep[0], clean.per_rep[2]]
        for a, b in zip(kept, [report.per_rep[0], report.per_rep[2]]):
            assert a.mse_a == b.mse_a and a.dims == b.dims
        assert report.summary["n_reps"] == 3.0 and report.summary["n_failed"] == 1.0
        assert report.summary["mse100_a_mean"] == pytest.approx(100.0 * np.mean([r.mse_a for r in kept]), rel=1e-14)
        assert report.summary["dim_b_mean"] == np.mean([r.dims.m2 for r in kept])

    def test_failed_factorization_fails_one_repetition(self, monkeypatch):
        # A scan whose Cholesky factorization fails raises; the run records
        # that repetition as failed and goes on. The second repetition's
        # design is made indefinite and the stability event forced to pass
        # on it, which no real design needs (see cpls.estimator).
        import cpls.experiments as expmod
        import cpls.selection as selection

        clean = run_experiment(2, "B", 10, 3, seed=9, config=tiny_config())
        real_scan = expmod.scan_design
        calls = []

        def scan_failing_second(design, n_paths, phi, psi, config, dims):
            calls.append(design)
            if len(calls) == 2:
                design.gram[-1, -1] = -1.0
                with monkeypatch.context() as patch:
                    patch.setattr(selection, "stability_event", lambda *args: True)
                    return real_scan(design, n_paths, phi, psi, config, dims)
            return real_scan(design, n_paths, phi, psi, config, dims)

        monkeypatch.setattr(expmod, "scan_design", scan_failing_second)
        report = run_experiment(2, "B", 10, 3, seed=9, config=tiny_config())
        assert len(calls) == 3
        bad = report.per_rep[1]
        assert bad.failed and bad.error.startswith("SingularDesignError: ")
        assert report.failures == {"SingularDesignError": 1}
        assert_same_records([report.per_rep[0], report.per_rep[2]], [clean.per_rep[0], clean.per_rep[2]])

    def test_invalid_cell_is_raised_not_recorded(self):
        with pytest.raises(ValueError):
            run_experiment(2, "B", 0, 2, seed=9, config=tiny_config())


@pytest.fixture(scope="module")
def report():
    return run_experiment(3, "B", 12, 4, seed=4, config=tiny_config())


class TestCurvesAndBeam:

    def test_beam_truth_only(self, report, tmp_path):
        path = tmp_path / "beam.csv"
        emit_beam(report, "a", 0, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,truth"
        assert len(lines) == 401

    def test_beam_column_count(self, report, tmp_path):
        path = tmp_path / "beam.csv"
        emit_beam(report, "b", 4, path)
        header = path.read_text().splitlines()[0].split(",")
        assert len(header) == 2 + 4  # grid, truth, one column per repetition

    def test_beam_matches_reevaluated_theta(self, report, tmp_path):
        path = tmp_path / "beam.csv"
        emit_beam(report, "a", 4, path)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        box = report.per_rep[0].box
        xg = np.linspace(box.a_x, box.b_x, 400)
        np.testing.assert_array_equal(rows[:, 0], xg)
        cfg = report.config
        for j, rec in enumerate(r for r in report.per_rep if not r.failed):
            fit = FitResult(dims=rec.dims, theta=rec.theta, truncated=rec.truncated)
            a_hat, _ = evaluate_fit(fit, cfg.phi, cfg.psi, xg, xg)
            np.testing.assert_allclose(rows[:, 2 + j], a_hat, atol=1e-12)

    def test_beam_rejects_more_curves_than_successful_reps(self, report, tmp_path):
        with pytest.raises(ValueError, match=r"n_curves must lie in \[0, 4\]"):
            emit_beam(report, "a", 5, tmp_path / "beam.csv")
        with pytest.raises(ValueError):
            emit_beam(report, "c", 1, tmp_path / "beam.csv")


def test_trimmed_pass_falls_back_to_the_full_design(monkeypatch):
    # With the hull forced too small, each repetition's trimmed pass cuts
    # its design to (10, 10), the certificate fails, and the builder
    # reassembles the full design of the same paths; the record is that of
    # the full pass, bit for bit.
    import cpls.design as designmod
    import cpls.experiments as expmod

    forced_small_hull(monkeypatch)
    cut, rebuilt = [], []
    real_designs = designmod._designs

    def designs(*args, trim):
        out = real_designs(*args, trim=trim)
        (cut if trim else rebuilt).extend(out)
        return out

    monkeypatch.setattr(designmod, "_designs", designs)
    cfg = ExperimentConfig()
    report = run_experiment(3, "B", 400, 2, seed=5, config=cfg)
    assert [d.dims for d in cut] == [DimPair(10, 10)] * 2
    assert [d.dims for d in rebuilt] == [DimPair(39, 39)] * 2
    monkeypatch.undo()
    model = make_model(3, sigma=cfg.sigma, x0=cfg.x0)
    spec = explanatory_by_name("B", sigma_y=cfg.sigma_y)
    for r, record in enumerate(report.per_rep):
        seed = rep_seed(5, r)
        sample = generate_sample(model, spec, cfg.grid, 400, seed)
        full = build_design(sample, cfg.phi, cfg.psi, DimPair(39, 39), sample.grid.total_time)
        scan = scan_design(full, 400, cfg.phi, cfg.psi, cfg.selection)
        assert_same_records([record], [expmod._record(r, seed, model, quantile_box(sample), scan)])


@pytest.mark.parametrize("forced_fallback", [False, True])
def test_trimmed_prefix_report_is_the_standalone_one(monkeypatch, forced_fallback):
    # A Y (B) cell at N = 400 run with N = 1000, on one sample and one
    # trimmed pass, reports bit for bit what it reports alone; also when
    # both scans fall back to the full design of their own paths.
    if forced_fallback:
        forced_small_hull(monkeypatch)
    cfg = ExperimentConfig()
    shared, _ = run_cells([(3, "B", 400), (3, "B", 1000)], 2, seed=8, config=cfg)
    alone = run_experiment(3, "B", 400, 2, seed=8, config=cfg)
    assert shared.summary == alone.summary
    assert_same_records(shared.per_rep, alone.per_rep)


def test_stream_shared_step_memory_is_flat_in_n():
    # A repetition's shared step streams its sample through the design pass:
    # at a 5 x 5 bound it holds the two block buffers (1.4 MB), one chunk of
    # 256 paths (2.1 MB) and its simulator's scratch, whatever N is. The
    # whole sample's X and Y alone take 8 MB at N = 1000 and 32 MB at 4000.
    import tracemalloc

    import cpls.experiments as expmod

    cfg = ExperimentConfig(selection=SelectionConfig(max_m1=5, max_m2=5))

    def peak(n):
        task = expmod._RepTask(model_id=2, y_type="A", n_paths=(n,), rep=0, master_seed=3, config=cfg)
        tracemalloc.start()
        try:
            expmod._shared_designs(task, rep_seed(3, 0))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(300)  # the first call's one-time allocations
    small, large = peak(1000), peak(4000)
    whole = 2 * 1000 * (cfg.grid.n_steps + 1) * 8
    assert small < whole and large < whole
    assert large <= 1.02 * small


def test_traced_names_resolve():
    # The benchmark tracer swaps these module attributes for timing
    # wrappers; a renamed or deleted one breaks every traced run.
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for mod_name, attr in [t[:2] for t in tracing.TARGETS] + [("cpls.experiments", "worker_pool")]:
        assert callable(getattr(importlib.import_module(mod_name), attr)), (mod_name, attr)
