import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpls.bases import HERMITE, LAGUERRE, TRIG, TRIG_NO_CONST, sup_norm_bound
from cpls.design import DesignSystem, DimPair
from cpls.estimator import StabilityRule, fit_leading_blocks, stability_event
from cpls.experiments import QuantileBox
from cpls.selection import (
    SelectionConfig,
    criterion_table_rows,
    oracle_errors,
    scan_design,
    scan_dimension_grid,
    select_adaptive,
    select_adaptive_from_scan,
    select_oracle_from_scan,
)
from cpls.simulate import (
    GridSpec,
    SdeModel,
    explanatory_by_name,
    generate_sample,
    make_model,
)

from conftest import make_sample
from oracles import scan_pairwise


def small_config(**kw):
    defaults = dict(kappa=8.0, sigma_sq=2.25, max_m1=4, max_m2=4)
    defaults.update(kw)
    return SelectionConfig(**defaults)


@pytest.fixture(scope="module")
def bench_sample():
    grid = GridSpec(n_steps=120, dt=0.05, drop_first=6)
    model = make_model(3)
    return generate_sample(model, explanatory_by_name("B"), grid, 60, seed=21)


class TestSelectAdaptive:
    def test_degenerate_zero_z_chooses_smallest(self):
        # constant X (phi_1 = 1 stays informative), wiggly Y: Z = 0 so every
        # admissible gamma is 0 and the penalty picks (1, 1)
        grid = GridSpec(n_steps=30, dt=0.1, drop_first=0)
        rng = np.random.default_rng(0)
        x = np.full((8, 31), 0.37)
        y = 0.05 + 0.9 * rng.random((8, 31))
        sample = make_sample(grid, x, y)
        result = select_adaptive(sample, TRIG, TRIG_NO_CONST, small_config(max_m1=3, max_m2=3))
        assert result.chosen == DimPair(1, 1)
        assert not result.fit.truncated
        for dims, entry in result.criterion_table.items():
            if entry.admissible:
                assert entry.gamma == pytest.approx(0.0, abs=1e-12)

    def test_chosen_minimizes_stored_table(self, bench_sample):
        cfg = small_config(max_m1=5, max_m2=4)
        result = select_adaptive(bench_sample, HERMITE, HERMITE, cfg)
        values = {
            dims: e.criterion for dims, e in result.criterion_table.items() if e.admissible
        }
        best = min(values.values())
        assert values[result.chosen] == best
        # tie-break: nothing strictly better at smaller total dimension
        for dims, val in values.items():
            if val == best:
                assert (result.chosen.total, result.chosen.m1) <= (dims.total, dims.m1)

    def test_penalty_formula_exact(self, bench_sample):
        cfg = small_config()
        scan = scan_dimension_grid(bench_sample, HERMITE, HERMITE, cfg)
        n = bench_sample.n_paths
        t_norm = bench_sample.grid.total_time
        for dims, entry in select_adaptive_from_scan(scan).criterion_table.items():
            expected = 8.0 * 2.25 * dims.total / (n * t_norm)
            assert entry.penalty == expected

    def test_gamma_equals_quadratic_form(self, bench_sample):
        cfg = small_config()
        scan = scan_dimension_grid(bench_sample, HERMITE, HERMITE, cfg)
        for dims, fit in scan.fits.items():
            from cpls.design import subsystem

            sub = subsystem(scan.design, dims)
            assert fit.gamma_value == pytest.approx(
                -(fit.theta @ sub.gram @ fit.theta), rel=1e-12, abs=1e-15
            )

    def test_doubling_kappa_never_grows_dims(self):
        grid = GridSpec(n_steps=60, dt=0.05, drop_first=3)
        model = make_model(2)
        spec = explanatory_by_name("B")
        for seed in range(20):
            sample = generate_sample(model, spec, grid, 30, seed=seed)
            scan = scan_dimension_grid(sample, HERMITE, HERMITE, small_config())
            r1 = select_adaptive_from_scan(scan)
            scan.config = small_config(kappa=16.0)
            r2 = select_adaptive_from_scan(scan)
            assert r2.chosen.total <= r1.chosen.total

    def test_all_inadmissible_flags_zero_fit(self):
        # rank-deficient design everywhere: constant X and constant Y
        grid = GridSpec(n_steps=20, dt=0.1, drop_first=0)
        sample = make_sample(grid, np.full((5, 21), 0.4), np.full((5, 21), 0.6))
        cfg = small_config(max_m1=2, max_m2=2)
        result = select_adaptive(sample, TRIG, TRIG, cfg)
        assert result.fit.truncated
        assert result.chosen == DimPair(1, 1)
        np.testing.assert_array_equal(result.fit.theta, np.zeros(2))

    def test_stability_rule_forwarded(self, bench_sample):
        # an absurdly tight practical cutoff rejects everything
        cfg = small_config(stability=StabilityRule(mode="practical", cutoff=1e-12))
        result = select_adaptive(bench_sample, HERMITE, HERMITE, cfg)
        assert result.fit.truncated


class TestSelectOracle:
    def test_exactly_representable_truth(self):
        # truth inside the spans: a = first two Hermite members, b = odd
        # member (integral zero); tiny noise makes projection near exact
        from cpls.bases import eval_matrix

        def a_true(x):
            v = eval_matrix(HERMITE, 2, np.asarray(x, dtype=float))
            return 0.8 * v[..., 0] - 0.5 * v[..., 1]

        def b_true(y):
            v = eval_matrix(HERMITE, 2, np.asarray(y, dtype=float))
            return 0.6 * v[..., 1]

        model = SdeModel(a=a_true, b=b_true, sigma=lambda x: np.full_like(x, 0.05), x0=0.3)
        grid = GridSpec(n_steps=100, dt=0.05, drop_first=2)
        sample = generate_sample(model, explanatory_by_name("B"), grid, 150, seed=11)
        box = QuantileBox(-1.5, 1.5, -1.5, 1.5)
        cfg = small_config(max_m1=3, max_m2=3, sigma_sq=0.0025)
        scan = scan_dimension_grid(sample, HERMITE, HERMITE, cfg)
        errors = oracle_errors(scan, model, box)
        target = DimPair(2, 2)
        for dims, err in errors.items():
            if dims.m1 <= 2 and dims.m2 <= 2 and dims != target:
                assert sum(errors[target]) < sum(err)

    def test_oracle_sum_dominates_adaptive_on_every_rep(self, bench_sample):
        cfg = small_config(max_m1=5, max_m2=4)
        box = QuantileBox(-1.5, 2.5, -1.5, 1.5)
        model = make_model(3)
        scan = scan_dimension_grid(bench_sample, HERMITE, HERMITE, cfg)
        adaptive = select_adaptive_from_scan(scan)
        oracle = select_oracle_from_scan(scan, model, box)
        errors = oracle_errors(scan, model, box)
        assert sum(errors[oracle.chosen]) <= sum(errors[adaptive.chosen]) + 1e-15


def test_criterion_table_rows_layout(bench_sample):
    result = select_adaptive(bench_sample, HERMITE, HERMITE, small_config(max_m1=2, max_m2=2))
    rows = criterion_table_rows(result)
    assert len(rows) == 4
    assert rows[0][:2] == (1, 1)
    for row in rows:
        m1, m2, gamma, pen, admissible, criterion = row
        if admissible:
            assert criterion == pytest.approx(gamma + pen, rel=1e-15)
        else:
            assert math.isnan(criterion)


def test_residual_maxima_collected(bench_sample):
    scan = scan_dimension_grid(bench_sample, HERMITE, HERMITE, small_config())
    assert set(scan.max_residuals) == {"constraint", "optimality", "kkt"}
    assert all(v < 1e-8 for v in scan.max_residuals.values())


# --- the scan against the pair-by-pair reference --------------------------
#
# The scan decides the admissible set from its frontier and fits each m1's
# pairs from one Cholesky factor; tests/oracles.py keeps the pair-by-pair
# loop (a stability event and a dense LU solve for every pair). The
# admissible sets must be equal. The fits are two roundings of one closed
# form: an admissible block here can have a condition number up to about
# 1e8, and theta = u - ratio * v can cancel, so over 3000 random cases the
# two differed by up to 3.4e-9 of max|theta|, 6.6e-9 in gamma (relative)
# and 2.3e-9 in a residual maximum. A wrong block, a missed zeroing or a
# dropped constraint moves them by order 1, far outside these tolerances.

THETA_RTOL = 1e-6
RESIDUAL_ATOL = 1e-7


def synthetic_design(rng, m1, m2, dependent=None, d_kind="hermite", noise=1e-9):
    """Design at (m1, m2) from random basis values, optionally with one dependent member.

    ``dependent`` = r makes member r (in [phi.., psi..] order) a combination
    of the members before it, up to ``noise``: every block holding it and
    its predecessors is numerically singular and fails the stability event.
    ``d_kind`` picks the constraint vector: "hermite" (odd psi members
    integrate to zero), "dense" or "zero".
    """
    k = m1 + m2
    # members of unequal size, so that the smallest eigenvalue falls with k
    v = rng.standard_normal((k, 4 * k + 8)) * 10.0 ** -rng.uniform(0.0, 2.0, (k, 1))
    if dependent is not None and dependent > 0:
        w = rng.standard_normal(dependent)
        v[dependent] = w @ v[:dependent] + noise * rng.standard_normal(v.shape[1])
    gram = v @ v.T / v.shape[1]
    gram = 0.5 * (gram + gram.T)
    delta = rng.standard_normal(m2)
    if d_kind == "hermite":
        delta[1::2] = 0.0
    elif d_kind == "zero":
        delta[:] = 0.0
    return DesignSystem(
        dims=DimPair(m1, m2),
        gram=gram,
        zvec=rng.standard_normal(k) / 10,
        dvec=np.concatenate([np.zeros(m1), delta]),
        t_norm=1.0,
    )


def assert_scan_matches_reference(design, n_paths, config, phi=HERMITE, psi=HERMITE):
    scan = scan_design(design, n_paths, phi, psi, config)
    admissible, fits, max_res = scan_pairwise(design, n_paths, phi, psi, config)
    assert scan.admissible == admissible
    assert list(scan.admissible) == list(admissible)  # scan order
    assert list(scan.fits) == [d for d, ok in admissible.items() if ok]
    for dims, (theta, lam, gamma) in fits.items():
        fit = scan.fits[dims]
        scale = np.max(np.abs(theta))
        np.testing.assert_allclose(fit.theta, theta, rtol=0, atol=THETA_RTOL * scale)
        assert fit.gamma_value == pytest.approx(gamma, rel=THETA_RTOL, abs=1e-300)
        assert fit.lambda_multiplier == pytest.approx(lam, rel=THETA_RTOL, abs=THETA_RTOL * scale)
    for key, value in max_res.items():
        assert abs(scan.max_residuals[key] - value) <= RESIDUAL_ATOL
    return scan


dims_strategy = st.tuples(st.integers(1, 7), st.integers(1, 7))


@settings(max_examples=40, deadline=None)
@given(
    dims=dims_strategy,
    seed=st.integers(0, 2**32 - 1),
    log_cutoff=st.floats(-1.0, 4.0),
    log_n=st.floats(0.5, 6.0),
    d_kind=st.sampled_from(["hermite", "dense", "zero"]),
)
def test_scan_matches_reference_practical_rule(dims, seed, log_cutoff, log_n, d_kind):
    # cutoffs and path counts around the eigenvalues of the generated Grams,
    # so that the rectangle is often cut by a staircase, not all in or out
    rng = np.random.default_rng(seed)
    design = synthetic_design(rng, *dims, d_kind=d_kind)
    config = SelectionConfig(stability=StabilityRule(mode="practical", cutoff=10.0**log_cutoff))
    assert_scan_matches_reference(design, max(2, int(10.0**log_n)), config)


@settings(max_examples=40, deadline=None)
@given(
    dims=dims_strategy,
    seed=st.integers(0, 2**32 - 1),
    log_n=st.floats(2.0, 8.0),
    r=st.floats(0.1, 20.0),
    bases=st.sampled_from([(HERMITE, HERMITE), (TRIG, TRIG_NO_CONST)]),
)
def test_scan_matches_reference_theoretical_rule(dims, seed, log_n, r, bases):
    rng = np.random.default_rng(seed)
    design = synthetic_design(rng, *dims, d_kind="dense")
    config = SelectionConfig(stability=StabilityRule(mode="theoretical", r=r))
    assert_scan_matches_reference(design, max(2, int(10.0**log_n)), config, *bases)


@settings(max_examples=40, deadline=None)
@given(
    dims=dims_strategy,
    seed=st.integers(0, 2**32 - 1),
    dependent=st.integers(0, 13),
    d_kind=st.sampled_from(["hermite", "dense", "zero"]),
)
def test_scan_matches_reference_near_singular(dims, seed, dependent, d_kind):
    # the largest block (and every block holding the dependent member) fails
    m1, m2 = dims
    rng = np.random.default_rng(seed)
    design = synthetic_design(rng, m1, m2, dependent=min(dependent, m1 + m2 - 1), d_kind=d_kind)
    config = SelectionConfig()
    scan = assert_scan_matches_reference(design, 1000, config)
    if 0 < dependent < m1 + m2:
        assert not scan.admissible[DimPair(m1, m2)]


def test_frontier_walk_calls_the_event_at_most_m1_plus_m2_times(monkeypatch):
    import cpls.selection as selection

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].dims)
        return stability_event(*args, **kwargs)

    monkeypatch.setattr(selection, "stability_event", counting)
    rng = np.random.default_rng(5)
    for dependent in (None, 9, 20):
        calls.clear()
        design = synthetic_design(rng, 12, 15, dependent=dependent)
        scan = scan_design(design, 400, HERMITE, HERMITE, SelectionConfig())
        assert len(calls) <= 12 + 15
        assert len(scan.admissible) == 12 * 15


def test_factorization_failure_falls_back_pair_by_pair(monkeypatch):
    # Every pair holding the last psi member is indefinite, so the Cholesky
    # factorization of each m1's system fails. The stability event is
    # replaced by one that passes everything, so that those pairs reach the
    # solver: the pairs without the last member take their own Cholesky
    # solve, those with it the symmetric indefinite solve.
    import cpls.selection as selection

    rng = np.random.default_rng(3)
    design = synthetic_design(rng, 3, 4)
    design.gram[-1, -1] -= 50.0
    assert np.linalg.eigvalsh(design.gram)[0] < 0
    assert fit_leading_blocks(design, [design.size]) is None

    def always(*args, **kwargs):
        return True

    monkeypatch.setattr(selection, "stability_event", always)
    scan = scan_design(design, 100, HERMITE, HERMITE, SelectionConfig())
    admissible, fits, _ = scan_pairwise(
        design, 100, HERMITE, HERMITE, SelectionConfig(), event=always
    )
    assert all(scan.admissible.values()) and scan.admissible == admissible
    for dims, (theta, _, gamma) in fits.items():
        scale = np.max(np.abs(theta))
        np.testing.assert_allclose(scan.fits[dims].theta, theta, rtol=0, atol=1e-10 * scale)
        assert scan.fits[dims].gamma_value == pytest.approx(gamma, rel=1e-10)
    assert max(scan.max_residuals.values()) < 1e-10


def test_sampled_scan_matches_reference(bench_sample):
    # a simulated design: model 3, Y (B), 60 paths, 8 x 8 scan
    cfg = small_config(max_m1=8, max_m2=8)
    design = scan_dimension_grid(bench_sample, HERMITE, HERMITE, cfg).design
    assert_scan_matches_reference(design, bench_sample.n_paths, cfg)


@pytest.mark.parametrize("family", [HERMITE, TRIG, TRIG_NO_CONST, LAGUERRE])
def test_sup_norm_bound_never_decreases(family):
    # the theoretical stability threshold grows with m, which makes the
    # admissible set a down-set
    bounds = [sup_norm_bound(family, m) for m in range(1, 61)]
    assert all(b <= c for b, c in zip(bounds, bounds[1:]))


_THREAD_CHILD = """
import hashlib, sys
import numpy as np
from cpls.bases import HERMITE
from cpls.design import DesignSystem, DimPair
from cpls.experiments import QuantileBox
from cpls.selection import SelectionConfig, oracle_errors, scan_design
from cpls.simulate import make_model

rng = np.random.default_rng(11)
v = rng.standard_normal((78, 4000))
design = DesignSystem(DimPair(39, 39), v @ v.T / 4000, rng.standard_normal(78) / 10,
                      np.concatenate([np.zeros(39), rng.standard_normal(39)]), 1.0)
scan = scan_design(design, 400, HERMITE, HERMITE, SelectionConfig())
errors = oracle_errors(scan, make_model(2), QuantileBox(-2.0, 2.0, -3.0, 3.0))
h = hashlib.sha256()
for dims, fit in scan.fits.items():
    h.update(repr((tuple(dims), fit.gamma_value, fit.lambda_multiplier, errors[dims])).encode())
    h.update(fit.theta.tobytes())
h.update(repr(sorted(scan.max_residuals.items())).encode())
print(len(scan.fits), h.hexdigest())
"""


def test_scan_independent_of_blas_threads():
    # The batched products G @ X and the triangular solves run through the
    # BLAS, which splits them over its threads; a thread count is read when
    # a process loads the BLAS, hence one child process per count.
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        proc = subprocess.run([sys.executable, "-c", _THREAD_CHILD], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.split())
    assert outputs[0][0] == str(39 * 39)
    assert outputs[0] == outputs[1]
