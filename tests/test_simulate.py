import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpls import simulate as sim
from cpls.simulate import (
    ExplanatorySpec,
    GridSpec,
    SdeModel,
    SimulationError,
    YKind,
)


def flat(value):
    def fn(x, _v=value):
        return np.full_like(np.asarray(x, dtype=float), _v)

    return fn


class TestSpecs:
    def test_grid_invariants(self):
        g = GridSpec(n_steps=500, dt=0.02, drop_first=20)
        assert g.total_time == pytest.approx(10.0)
        assert g.t0 == pytest.approx(0.4)
        with pytest.raises(ValueError):
            GridSpec(n_steps=10, dt=0.02, drop_first=10)
        with pytest.raises(ValueError):
            GridSpec(n_steps=0, dt=0.02)
        # an infinite or NaN step, and a finite step whose horizon overflows
        for dt in (math.inf, math.nan, 1e308):
            with pytest.raises(ValueError):
                GridSpec(n_steps=10, dt=dt, drop_first=0)

    def test_model_probe_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SdeModel(a=lambda x: x / (x - x), b=flat(0.0), sigma=flat(1.0))
        with pytest.raises(ValueError):
            SdeModel(a=flat(0.0), b=flat(0.0), sigma=flat(1.0), x0=math.inf)

    def test_model_probe_rejects_b_not_elementwise_on_blocks(self):
        # the simulator applies b to 2-D blocks of Y; these pass a 1-D probe
        for b in (lambda y: np.full(len(y), 0.5), lambda y: y - y.mean(axis=0)):
            with pytest.raises(ValueError, match="^b must"):
                SdeModel(a=flat(0.0), b=b, sigma=flat(1.0))

    def test_explanatory_validation(self):
        with pytest.raises(ValueError):
            ExplanatorySpec(kind=YKind.POLYNOMIAL_BM, sigma_y=0.0)


class TestSimulateY:
    def test_poly_bm_starts_at_zero(self):
        spec = sim.explanatory_by_name("A")
        y = sim._simulate_y_batch(spec, GridSpec(), [3])[0]
        assert y[0] == 0.0

    def test_poly_bm_matches_transform_of_bm(self):
        # same seed: Y must equal sigma_y * W (1 + W^2) for the W built from
        # the same increments
        grid = GridSpec(n_steps=50, dt=0.1, drop_first=0)
        spec = sim.explanatory_by_name("A")
        y = sim._simulate_y_batch(spec, grid, [11])[0]
        dw = np.random.default_rng(11).standard_normal(50) * math.sqrt(0.1)
        w = np.concatenate([[0.0], np.cumsum(dw)])
        np.testing.assert_allclose(y, 2.0 * w * (1 + w * w), rtol=1e-12)

    def test_ou_stationary_variance(self):
        # Var(Y_T / sigma_y) = gamma^2 / (4 rate) within 3 standard errors
        spec = sim.explanatory_by_name("B")
        grid = GridSpec(n_steps=25, dt=0.02, drop_first=1)
        n_total = 100_000
        vals = []
        for chunk in range(10):
            seeds = [p[0] for p in sim.path_seeds(900 + chunk, n_total // 10)]
            yb = sim._simulate_y_batch(spec, grid, seeds)
            vals.append(yb[:, -1] / spec.sigma_y)
        u = np.concatenate(vals)
        target = 1.0 / 8.0
        se = target * math.sqrt(2.0 / (n_total - 1))
        assert abs(u.var(ddof=1) - target) < 3 * se

    def test_ou_lag_autocorrelation(self):
        spec = sim.explanatory_by_name("B")
        grid = GridSpec(n_steps=5, dt=0.02, drop_first=1)
        seeds = [p[0] for p in sim.path_seeds(17, 100_000)]
        yb = sim._simulate_y_batch(spec, grid, seeds)
        u_prev, u_last = yb[:, -2], yb[:, -1]
        corr = np.corrcoef(u_prev, u_last)[0, 1]
        target = math.exp(-0.5 * sim.OU_RATE * grid.dt)
        # delta-method standard error of the correlation estimate
        se = (1 - target**2) / math.sqrt(100_000)
        assert abs(corr - target) < 3 * se

    def test_ou_one_step_moments_exact(self):
        # decay and noise scale match closed forms computed via independent
        # routes: stationary-variance identity and quadrature of the kernel
        rate, gamma, dt = 2.0, 1.0, 0.02
        decay, step_sd, stat_sd = sim._ou_coefficients(rate, gamma, dt)
        assert decay == pytest.approx(math.exp(-rate * dt / 2.0), abs=1e-15)
        stat_var = gamma**2 / (4 * rate)
        assert stat_sd**2 == pytest.approx(stat_var, abs=1e-15)
        # route 1: stationarity: step_var = stat_var (1 - decay^2)
        assert step_sd**2 == pytest.approx(stat_var * (1 - decay**2), abs=1e-12)
        # route 2: Ito isometry integral of the transition kernel
        grid = np.linspace(0.0, dt, 20001)
        kernel = (gamma / 2.0) ** 2 * np.exp(-rate * (dt - grid))
        h = dt / (len(grid) - 1)
        w = np.full(len(grid), 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        assert step_sd**2 == pytest.approx(float(w @ kernel) * h / 3.0, abs=1e-12)


class TestSimulateX:
    def test_degenerate_dynamics_constant(self):
        grid = GridSpec(n_steps=20, dt=0.1, drop_first=0)
        model = SdeModel(a=flat(0.0), b=flat(0.0), sigma=flat(0.0), x0=1.25)
        x = sim._simulate_x_batch(model, np.zeros((1, 21)), grid, [0])[0]
        np.testing.assert_array_equal(x, np.full(21, 1.25))

    def test_euler_matches_linear_ode(self):
        # a(x) = -x + 0.5, sigma = 0: x(t) = 0.5 + (x0 - 0.5) e^{-t}
        grid = GridSpec(n_steps=500, dt=0.02, drop_first=0)
        model = SdeModel(a=lambda x: -x + 0.5, b=flat(0.0), sigma=flat(0.0), x0=2.0)
        x = sim._simulate_x_batch(model, np.zeros((1, 501)), grid, [0])[0]
        exact = 0.5 + 1.5 * np.exp(-grid.times())
        assert np.max(np.abs(x - exact)) < 5 * grid.dt

    def test_martingale_and_variance(self):
        # a = b = 0, sigma = 1.5: E X_T = x0 and Var X_T = sigma^2 T
        grid = GridSpec()
        model = SdeModel(a=flat(0.0), b=flat(0.0), sigma=flat(1.5), x0=0.0)
        spec = sim.explanatory_by_name("A")
        finals = []
        for chunk in range(5):
            s = sim.generate_sample(model, spec, grid, 20_000, 5000 + chunk)
            finals.append(s.x[:, -1])
        xt = np.concatenate(finals)
        assert abs(xt.mean()) < 3 * 1.5 * math.sqrt(10.0) / math.sqrt(xt.size)
        assert abs(xt.var(ddof=1) - 22.5) < 0.05 * 22.5

    def test_simulation_failure_reports_step(self):
        # dX = (X^3 + y_i) dt from X = 0 blows up first on the path with the
        # highest constant Y row; path and step are those of a per-step loop.
        grid = GridSpec(n_steps=100, dt=0.1, drop_first=0)
        model = SdeModel(a=lambda x: x**3, b=lambda y: y, sigma=flat(0.0), x0=0.0)
        cases = [
            # paths 2 and 3 diverge together, path 1 later: the lower index
            ([0.0, 0.4, 1.5, 1.5], 2, 18),
            # the last step of the first block of steps, and the first of the next
            ([0.0, 1.0, 2.0], 2, 16),
            ([0.0, 1.7, 0.5, 0.0], 1, 17),
        ]
        for levels, path, step in cases:
            y = np.repeat(np.asarray(levels)[:, None], 101, axis=1)
            with pytest.raises(SimulationError) as err:
                sim._simulate_x_batch(model, y, grid, list(range(len(levels))))
            assert (err.value.path, err.value.step) == (path, step)

    def test_batch_memory_bounded(self):
        # the noise and the time-major steps share one buffer: the batch
        # holds about two copies of X, not one per stage
        grid = GridSpec()
        model = sim.make_model(2)
        spec = sim.explanatory_by_name("A")
        pairs = sim.path_seeds(3, 1000)
        y = sim._simulate_y_batch(spec, grid, [p[0] for p in pairs])
        tracemalloc.start()
        try:
            x = sim._simulate_x_batch(model, y, grid, [p[1] for p in pairs])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * x.nbytes


class TestGenerateSample:
    def test_determinism(self):
        grid = GridSpec(n_steps=40, dt=0.05, drop_first=2)
        model = sim.make_model(2)
        spec = sim.explanatory_by_name("A")
        s1 = sim.generate_sample(model, spec, grid, 6, seed=9)
        s2 = sim.generate_sample(model, spec, grid, 6, seed=9)
        np.testing.assert_array_equal(s1.x, s2.x)
        np.testing.assert_array_equal(s1.y, s2.y)

    def test_seed_separation(self):
        grid = GridSpec(n_steps=40, dt=0.05, drop_first=2)
        model = sim.make_model(2)
        spec = sim.explanatory_by_name("A")
        s1 = sim.generate_sample(model, spec, grid, 4, seed=9)
        s2 = sim.generate_sample(model, spec, grid, 4, seed=10)
        assert not np.array_equal(s1.x, s2.x)

    def test_benchmark_shapes(self):
        grid = GridSpec(n_steps=500, dt=0.02, drop_first=20)
        model = sim.make_model(3)
        spec = sim.explanatory_by_name("B")
        s = sim.generate_sample(model, spec, grid, 400, seed=1)
        assert s.x.shape == (400, 501)
        assert s.y.shape == (400, 501)
        assert grid.total_time == pytest.approx(10.0)

    def test_rows_match_per_path_simulation(self):
        # Bitwise, on every benchmark (model, Y) pair: a path does not depend
        # on the others simulated with it, which the prefix sharing of the
        # experiment cells relies on.
        grid = GridSpec(n_steps=60, dt=0.05, drop_first=3)
        for model_id in sim.DRIFT_PAIRS:
            for y_type in sim.Y_TYPES:
                model = sim.make_model(model_id)
                spec = sim.explanatory_by_name(y_type)
                s = sim.generate_sample(model, spec, grid, 5, seed=77)
                for i, (sy, sx) in enumerate(sim.path_seeds(77, 5)):
                    y_i = sim._simulate_y_batch(spec, grid, [sy])[0]
                    x_i = sim._simulate_x_batch(model, y_i[None, :], grid, [sx])[0]
                    np.testing.assert_array_equal(s.y[i], y_i)
                    np.testing.assert_array_equal(s.x[i], x_i)

    def test_constant_sigma_equals_a_function_of_x(self):
        # Bitwise, on every benchmark (model, Y) pair: the Euler step's
        # multiplication by make_model's constant sigma gives the samples of
        # the same sigma passed as an arbitrary function of x.
        grid = GridSpec(n_steps=60, dt=0.05, drop_first=3)
        for model_id in sim.DRIFT_PAIRS:
            model = sim.make_model(model_id)
            assert isinstance(model.sigma, sim.ConstantSigma)
            general = SdeModel(a=model.a, b=model.b, sigma=lambda x: np.full(x.shape, 1.5))
            for y_type in sim.Y_TYPES:
                spec = sim.explanatory_by_name(y_type)
                fast = sim.generate_sample(model, spec, grid, 37, seed=5)
                slow = sim.generate_sample(general, spec, grid, 37, seed=5)
                np.testing.assert_array_equal(_bits(fast.x), _bits(slow.x))
                np.testing.assert_array_equal(_bits(fast.y), _bits(slow.y))

    def test_sample_is_immutable(self):
        grid = GridSpec(n_steps=10, dt=0.1, drop_first=0)
        model = sim.make_model(2)
        s = sim.generate_sample(model, sim.explanatory_by_name("A"), grid, 2, seed=0)
        with pytest.raises(ValueError):
            s.x[0, 0] = 99.0


_SEED_EDGES = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**130 + 12345]


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


class TestSeeding:
    """The batched seeding against numpy's SeedSequence and default_rng."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.one_of(st.sampled_from(_SEED_EDGES), st.integers(0, 2**160)),
        n_paths=st.integers(1, 300),
    )
    def test_path_seeds_equal_numpy_spawn(self, seed, n_paths):
        children = np.random.SeedSequence(seed).spawn(n_paths)
        expected = [tuple(int(v) for v in c.generate_state(2, np.uint64)) for c in children]
        assert sim.path_seeds(seed, n_paths) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        seeds=st.lists(
            st.one_of(
                st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1]),
                st.integers(0, 2**32 - 1),
                st.integers(0, 2**64 - 1),
            ),
            min_size=1,
            max_size=8,
        ),
        n=st.integers(1, 300),
    )
    def test_normals_equal_default_rng(self, seeds, n):
        out = sim._normals(seeds, n)
        assert out.shape == (len(seeds), n)
        for row, s in zip(out, seeds):
            np.testing.assert_array_equal(_bits(row), _bits(np.random.default_rng(s).standard_normal(n)))

    def test_normals_of_path_streams(self):
        flat_seeds = [s for pair in sim.path_seeds(2**64 + 5, 40) for s in pair]
        out = sim._normals(flat_seeds, 64)
        for row, s in zip(out, flat_seeds):
            np.testing.assert_array_equal(_bits(row), _bits(np.random.default_rng(s).standard_normal(64)))

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError):
            sim.path_seeds(-1, 3)
        with pytest.raises(ValueError):
            sim._normals([5, -1], 3)


def test_drift_pair_registry():
    model2 = sim.make_model(2)
    assert model2.a(1.0) == pytest.approx(-0.75)
    assert model2.b(1.0) == pytest.approx(0.5)
    model3 = sim.make_model(3)
    assert model3.a(0.0) == pytest.approx(0.5)
    assert model3.b(np.asarray([0.0]))[0] == pytest.approx(0.0)
    with pytest.raises(ValueError, match=r"^unknown model id 4; choose from \[1, 2, 3\]$"):
        sim.make_model(4)
