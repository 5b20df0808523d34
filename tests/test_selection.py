import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpls.bases import HERMITE, LAGUERRE, TRIG, TRIG_NO_CONST, eval_rows, simpson_grid, sup_norm_bound
from cpls.design import DesignSystem, DimPair, build_design, build_prefix_designs, build_trimmed_designs, subsystem
from cpls.estimator import (
    FitResult,
    SingularDesignError,
    StabilityRule,
    fit_nested_pairs,
    stability_event,
)
from cpls.experiments import ExperimentConfig, QuantileBox, mse_box, quantile_box, rep_seed
from cpls.selection import (
    SelectionConfig,
    scan_design,
    scan_dimension_grid,
    scan_trimmed,
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
from oracles import box_errors_by_quadrature, pair_residuals, scan_from_fits, scan_pairwise


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
        criterion = result.gamma + result.penalty  # NaN off the admissible set
        best = np.nanmin(criterion)
        chosen = result.chosen
        assert criterion[chosen.m1 - 1, chosen.m2 - 1] == best
        # tie-break: nothing strictly better at smaller total dimension
        for i, j in zip(*np.nonzero(criterion == best)):
            assert (chosen.total, chosen.m1) <= (i + j + 2, i + 1)

    def test_tie_break_is_a_key_not_the_fit_order(self):
        # The admissible set is the 3 x 3 rectangle less (3, 3), handed over
        # in reverse tie-break order, and gamma = -pen makes every criterion
        # 0. The entry of (3, 3), not admissible, is given the least value.
        dims = DimPair(3, 3)
        design = DesignSystem(dims, np.eye(6), np.zeros(6), np.zeros(6), 1.0)
        pairs = [DimPair(m1, m2) for m1 in range(1, 4) for m2 in range(1, 4)][:-1]
        pairs.sort(key=lambda d: (d.total, d.m1), reverse=True)
        fits = {d: FitResult(d, np.arange(1.0, d.total + 1)) for d in pairs}
        scan = scan_from_fits(design, HERMITE, HERMITE, 100, SelectionConfig(), fits)
        scan.gamma[:] = -scan.penalty
        scan.gamma[2, 2] = -1e9

        result = select_adaptive_from_scan(scan)
        assert result.chosen == DimPair(1, 1)
        np.testing.assert_array_equal(result.fit.theta, fits[DimPair(1, 1)].theta)
        assert len(result.criterion_table) == 9
        assert math.isnan(result.criterion_table[dims].gamma)
        assert {d for d, e in result.criterion_table.items() if e.admissible} == set(pairs)
        # lifting the pairs with m1 + m2 < 3 leaves (1, 2) and (2, 1) tied: m1 decides
        scan.gamma[0, 0] += 1.0
        assert select_adaptive_from_scan(scan).chosen == DimPair(1, 2)
        # with (1, 2) lifted too, m1 + m2 decides before the m1-major order: (2, 1), not (1, 3)
        scan.gamma[0, 1] += 1.0
        assert select_adaptive_from_scan(scan).chosen == DimPair(2, 1)
        # a criterion that is not finite never wins
        scan.gamma[0, 1] = math.nan
        scan.gamma[1, 0] = -math.inf
        assert select_adaptive_from_scan(scan).chosen == DimPair(1, 3)

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
        assert scan.admissible.any()
        for i, j in zip(*np.nonzero(scan.admissible)):
            fit = scan.fit_at(i + 1, j + 1)
            sub = subsystem(scan.design, fit.dims)
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
        # the oracle has no fit to score either: every entry is the zero fit's error
        scan = scan_dimension_grid(sample, TRIG, TRIG, cfg)
        errors = mse_box(scan, make_model(2), QuantileBox(0.0, 1.0, 0.0, 1.0))
        assert all(np.all(err == err[0, 0]) for err in errors)
        assert select_oracle_from_scan(scan, *errors).fit.truncated

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
        total = sum(mse_box(scan, model, box))
        # (2, 2) beats every smaller pair that is admissible
        others = total[:2, :2].ravel()[:3]
        assert scan.admissible[1, 1]
        assert np.all(total[1, 1] < others[scan.admissible[:2, :2].ravel()[:3]])

    def test_oracle_sum_dominates_adaptive_on_every_rep(self, bench_sample):
        cfg = small_config(max_m1=5, max_m2=4)
        box = QuantileBox(-1.5, 2.5, -1.5, 1.5)
        model = make_model(3)
        scan = scan_dimension_grid(bench_sample, HERMITE, HERMITE, cfg)
        adaptive = select_adaptive_from_scan(scan)
        errors = mse_box(scan, model, box)
        oracle = select_oracle_from_scan(scan, *errors)
        total = sum(errors)
        oracle_err = total[oracle.chosen.m1 - 1, oracle.chosen.m2 - 1]
        adaptive_err = total[adaptive.chosen.m1 - 1, adaptive.chosen.m2 - 1]
        assert oracle_err <= adaptive_err + 1e-15


# Tolerance of the QR oracle against node-by-node quadrature, fixed before
# the test was first run: 1e-9 relative per error, three orders above the
# 5.4e-12 worst case measured over 36 benchmark scans of table 1's cells.
ORACLE_RTOL = 1e-9


def _projection(family, m, fn, lo, hi):
    # Coefficients <fn, f_k> on [lo, hi], a wide part of the family's support.
    nodes, weights = simpson_grid(lo, hi, 4001)
    return eval_rows(family, m, nodes) @ (weights * fn(nodes))


def _synthetic_scan(phi, psi, dims, model, support_x, support_y):
    """A scan whose fit at every pair of ``dims`` is the truncated projection of
    the truth plus noise of size 1e-3, so most errors are small against the
    integral of the truth squared, the regime in which cancellation shows."""
    rng = np.random.default_rng(0)
    ca = _projection(phi, dims.m1, model.a, *support_x)
    cb = _projection(psi, dims.m2, model.b, *support_y)
    pairs = [DimPair(m1, m2) for m1 in range(1, dims.m1 + 1) for m2 in range(1, dims.m2 + 1)]
    fits = {
        d: FitResult(d, np.concatenate([ca[: d.m1], cb[: d.m2]]) + 1e-3 * rng.standard_normal(d.total))
        for d in pairs
    }
    k = dims.total
    design = DesignSystem(dims, np.eye(k), np.zeros(k), np.zeros(k), 1.0)
    return scan_from_fits(design, phi, psi, 100, SelectionConfig(), fits)


def _truth(a, b):
    return SdeModel(a=a, b=b, sigma=lambda x: np.ones_like(x))


def _inside(lo, hi, fn):
    return lambda x: np.where((x >= lo) & (x <= hi), fn(x), 0.0)


# (phi, psi, dims, truth, box, support of each side for the projections).
# Each truth is in or near the span on the box wherever the basis lives;
# the Hermite a and the wholly-outside b leave a part no fit reaches
# (rho > 0).
_ORACLE_CASES = {
    "hermite": (HERMITE, HERMITE, DimPair(12, 10),
                _truth(lambda x: (1.0 + x) * np.exp(-0.5 * x * x) + 0.2 * x * np.exp(-0.1 * x * x),
                       lambda y: np.tanh(y) * np.exp(-0.25 * y * y)),
                QuantileBox(-2.5, 2.5, -3.0, 3.0), (-12.0, 12.0), (-12.0, 12.0)),
    # 39 Hermite functions on a Y box 2.7 long, as on the Y (B) cells: the
    # factor is nearly singular.
    "hermite-short-box": (HERMITE, HERMITE, DimPair(39, 39),
                          _truth(lambda x: (x * x - 0.5) * np.exp(-0.5 * x * x),
                                 lambda y: 0.5 * np.sin(y) * np.exp(-0.25 * y * y)),
                          QuantileBox(-2.2, 2.2, -1.35, 1.35), (-12.0, 12.0), (-12.0, 12.0)),
    # X box half outside [0, 1]; Y box wholly outside, so every psi column
    # is zero and R has zero diagonal entries.
    "trig-outside": (TRIG, TRIG_NO_CONST, DimPair(9, 8),
                     _truth(_inside(0.0, 1.0, lambda x: 0.5 + np.cos(2 * np.pi * x)),
                            lambda y: y - 0.5),
                     QuantileBox(-0.25, 1.25, 1.5, 2.5), (0.0, 1.0), (0.0, 1.0)),
    # Laguerre on [0, inf): X box partly, Y box wholly below 0.
    "laguerre-outside": (LAGUERRE, LAGUERRE, DimPair(10, 7),
                         _truth(_inside(0.0, np.inf, lambda x: x * np.exp(-x)),
                                lambda y: np.exp(-0.5 * y)),
                         QuantileBox(-1.0, 4.0, -3.0, -1.0), (0.0, 40.0), (0.0, 40.0)),
}


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_oracle_errors_match_quadrature(case):
    phi, psi, dims, model, box, support_x, support_y = _ORACLE_CASES[case]
    scan = _synthetic_scan(phi, psi, dims, model, support_x, support_y)
    if case.endswith("outside"):
        # the hard part of the case: the Y side sees only zero columns
        assert not eval_rows(psi, dims.m2, np.linspace(box.a_y, box.b_y, 101)).any()
    admissible = scan.admissible
    assert admissible.all()
    for got, ref in zip(mse_box(scan, model, box), box_errors_by_quadrature(scan, model, box)):
        assert got.shape == ref.shape == admissible.shape
        assert np.all(got >= 0.0)
        np.testing.assert_allclose(got, ref, rtol=ORACLE_RTOL, atol=0.0)


@pytest.mark.parametrize("case", ["staircase", "all", "none"])
def test_oracle_errors_zero_fit_off_the_admissible_set(case):
    # Off the admissible set an entry is the zero fit's error, whatever the
    # scan's coefficient row holds there.
    rng = np.random.default_rng(7)
    design = synthetic_design(rng, 6, 7, dependent=9 if case == "staircase" else None)
    cutoff = 1e-30 if case == "none" else 1e14
    config = SelectionConfig(stability=StabilityRule(cutoff=cutoff))
    scan = scan_design(design, 400, HERMITE, HERMITE, config)
    admissible = scan.admissible
    assert {"staircase": 0 < admissible.sum() < admissible.size,
            "all": admissible.all(), "none": not admissible.any()}[case]
    model, box = make_model(2), QuantileBox(-2.0, 2.0, -3.0, 3.0)
    zero_fit = mse_box(dataclasses.replace(scan, frontier=np.zeros_like(scan.frontier)), model, box)
    scan.coef[~admissible] = 1.0
    for err, zero in zip(mse_box(scan, model, box), zero_fit):
        assert err.shape == zero.shape == admissible.shape
        assert np.all(zero == zero[0, 0]) and zero[0, 0] > 0.0
        np.testing.assert_array_equal(err[~admissible], zero[~admissible])


def test_criterion_table_rows_layout(tmp_path, monkeypatch):
    # The criterion table that ``cpls fit`` writes holds the selection's
    # arrays, one row per pair of the rectangle, m1-major.
    import cpls.cli as cli

    results = []

    def keep(scan):
        results.append(select_adaptive_from_scan(scan))
        return results[-1]

    monkeypatch.setattr(cli, "select_adaptive_from_scan", keep)
    args = ["fit", "--model", "3", "--y", "B", "--n", "30", "--seed", "4", "--n-steps", "60",
            "--dt", "0.05", "--drop", "3", "--max-m1", "3", "--max-m2", "4", "--out", str(tmp_path)]
    assert cli.main(args) == 0
    (result,) = results
    lines = (tmp_path / "fit_criterion_table.csv").read_text().splitlines()
    assert lines[0] == "m1,m2,gamma,pen,admissible,criterion"
    rows = [line.split(",") for line in lines[1:]]
    assert [(int(r[0]), int(r[1])) for r in rows] == [(m1, m2) for m1 in range(1, 4) for m2 in range(1, 5)]
    assert [r[4] for r in rows] == [str(ok) for ok in result.admissible.ravel().tolist()]
    table = np.array([[float(r[k]) for k in (2, 3, 5)] for r in rows]).T.reshape(3, 3, 4)
    gamma, penalty, criterion = table
    np.testing.assert_array_equal(gamma, result.gamma)
    np.testing.assert_array_equal(penalty, result.penalty)
    np.testing.assert_array_equal(criterion, result.gamma + result.penalty)
    np.testing.assert_array_equal(np.isnan(criterion), ~result.admissible)


def test_residual_maxima_collected(bench_sample):
    scan = scan_dimension_grid(bench_sample, HERMITE, HERMITE, small_config())
    assert set(scan.max_residuals) == {"constraint", "optimality", "kkt"}
    assert all(v < 1e-8 for v in scan.max_residuals.values())


# --- the scan against the pair-by-pair reference --------------------------
#
# The scan decides the admissible set from its frontier and fits every pair
# from one factor of the phi block and a stacked factor of the psi Schur
# complements; tests/oracles.py keeps the pair-by-pair loop (a stability
# event and a dense LU solve for every pair). The admissible sets must be
# equal. The fits are two roundings of one closed form: an admissible
# block here can have a condition number up to about 1e8, and theta =
# u - ratio * v can cancel. Over 9000 random cases drawn as these tests
# draw them, the two differed by up to 2.0e-7 of max|theta|, 3.2e-7 in
# gamma (relative) and 8.9e-8 in a residual maximum, all on near-singular
# blocks; a solver with one Cholesky factor per m1 and a refinement step
# differed by up to 1.3e-7, 2.6e-7 and 4.4e-8 on the same cases. A wrong
# block, a missed zeroing or a dropped constraint moves them by order 1,
# far outside these tolerances.

THETA_RTOL = 1e-6
RESIDUAL_ATOL = 1e-7


def synthetic_design(rng, m1, m2, dependent=None, d_kind="hermite", noise=1e-9):
    """Design at (m1, m2) from random basis values, optionally with one dependent member.

    ``dependent`` = r makes member r (in [phi.., psi..] order) a combination
    of the members before it, up to ``noise``: every block holding it and
    its predecessors is numerically singular and fails the stability event.
    ``d_kind`` picks the constraint vector: "hermite" (odd psi members
    integrate to zero), "dense", "zero" (all three zero on the phi entries)
    or "full" (nonzero on the phi entries too).
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
    on_phi = rng.standard_normal(m1) if d_kind == "full" else np.zeros(m1)
    return DesignSystem(
        dims=DimPair(m1, m2),
        gram=gram,
        zvec=rng.standard_normal(k) / 10,
        dvec=np.concatenate([on_phi, delta]),
        t_norm=1.0,
    )


def assert_scan_matches_reference(design, n_paths, config, phi=HERMITE, psi=HERMITE):
    scan = scan_design(design, n_paths, phi, psi, config)
    admissible, fits, max_res = scan_pairwise(design, n_paths, phi, psi, config)
    assert {(i + 1, j + 1) for i, j in zip(*np.nonzero(scan.admissible))} == {
        tuple(d) for d, ok in admissible.items() if ok
    }
    for dims, (theta, lam, gamma) in fits.items():
        fit = scan.fit_at(*dims)
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
    d_kind=st.sampled_from(["hermite", "dense", "zero", "full"]),
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
    d_kind=st.sampled_from(["hermite", "dense", "zero", "full"]),
)
def test_scan_matches_reference_near_singular(dims, seed, dependent, d_kind):
    # the largest block (and every block holding the dependent member) fails
    m1, m2 = dims
    rng = np.random.default_rng(seed)
    design = synthetic_design(rng, m1, m2, dependent=min(dependent, m1 + m2 - 1), d_kind=d_kind)
    config = SelectionConfig()
    scan = assert_scan_matches_reference(design, 1000, config)
    if 0 < dependent < m1 + m2:
        assert not scan.admissible[m1 - 1, m2 - 1]


@pytest.mark.parametrize("d_kind", ["full", "zero"])
def test_scan_matches_reference_on_the_staircase(d_kind):
    # A constraint vector that is nonzero on the phi entries, or zero
    # everywhere, on designs whose admissible set is a proper staircase.
    for seed in range(8):
        design = synthetic_design(np.random.default_rng(seed), 6, 7, dependent=9, d_kind=d_kind)
        scan = assert_scan_matches_reference(design, 400, SelectionConfig())
        assert 0 < scan.admissible.sum() < scan.admissible.size


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
        if dependent is None:
            # well conditioned: the corner passes, and decides the rectangle
            assert calls == [DimPair(12, 15)] and scan.admissible.all()
        else:
            assert calls[0] == DimPair(12, 15) and not scan.admissible.all()
            assert len(calls) <= 12 + 15
        assert select_adaptive_from_scan(scan).gamma.shape == (12, 15)


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


@pytest.mark.parametrize("dependent", [None, 9])
def test_views_equal_the_arrays(dependent):
    # With dependent = 9 the m1 = 6 row stops short of M2: the table must
    # mark the pairs above the frontier as not admissible.
    rng = np.random.default_rng(7)
    design = synthetic_design(rng, 6, 7, dependent=dependent)
    scan = scan_design(design, 400, HERMITE, HERMITE, SelectionConfig())
    big = design.dims
    rectangle = [DimPair(m1, m2) for m1 in range(1, big.m1 + 1) for m2 in range(1, big.m2 + 1)]
    admissible = scan.admissible
    np.testing.assert_array_equal(admissible.sum(axis=1), scan.frontier)
    assert admissible.all() == (dependent is None)

    result = select_adaptive_from_scan(scan)
    table = result.criterion_table
    assert table is result.criterion_table  # built once
    assert list(table) == rectangle
    for dims, entry in table.items():
        i, j = dims.m1 - 1, dims.m2 - 1
        assert entry.admissible == admissible[i, j]
        assert _bits(entry.penalty) == _bits(scan.penalty[i, j])
        assert _bits(entry.gamma) == _bits(scan.gamma[i, j] if entry.admissible else math.nan)
    with pytest.raises(TypeError):
        table[DimPair(1, 1)] = None


def test_selection_result_does_not_keep_the_scan_arrays(bench_sample):
    # A caller keeps results (a benchmark round keeps four), each scan's
    # coefficient array is M1 x M2 x (M1 + M2) floats.
    import gc
    import weakref

    model = make_model(3)
    scan = scan_dimension_grid(bench_sample, HERMITE, HERMITE, small_config(max_m1=8, max_m2=8))
    coef = weakref.ref(scan.coef)
    errors = mse_box(scan, model, quantile_box(bench_sample))
    results = [select_adaptive_from_scan(scan), select_oracle_from_scan(scan, *errors)]
    for result in results:
        assert result.criterion_table
    del scan
    gc.collect()
    assert coef() is None
    assert all(not r.fit.truncated for r in results)


def test_factorization_failure_raises(monkeypatch):
    # Every pair holding the last psi member is indefinite, so the Cholesky
    # factorization of each m1's system fails. No Gram that passes the
    # stability event does this (see cpls.estimator), so the event is
    # replaced by one that passes everything; there is no fallback solver,
    # and the scan raises.
    import cpls.selection as selection

    rng = np.random.default_rng(3)
    design = synthetic_design(rng, 3, 4)
    design.gram[-1, -1] -= 50.0
    assert np.linalg.eigvalsh(design.gram)[0] < 0

    def always(*args, **kwargs):
        return True

    monkeypatch.setattr(selection, "stability_event", always)
    with pytest.raises(SingularDesignError, match=r"DimPair\(m1=1, m2=4\)"):
        scan_design(design, 100, HERMITE, HERMITE, SelectionConfig())


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


def mc_corner_design():
    """The 39 x 39 design of one ``mc-2A-400`` repetition: model 2, Y (A), N = 400, default grid."""
    sample = generate_sample(make_model(2), explanatory_by_name("A"), GridSpec(), 400, seed=rep_seed(1, 0))
    return build_design(sample, HERMITE, HERMITE, DimPair(39, 39), sample.grid.total_time)


def test_leading_blocks_of_the_mc_corner_design():
    # Every pair of the 39 x 39 corner system, from one factor of the phi
    # block and one stacked factor of the psi complements: the padding stays
    # exactly zero and each fit meets its constraint and KKT identities, on
    # a Gram whose larger blocks are near singular.
    design = mc_corner_design()
    big = design.dims
    coef, lam, gamma, max_res = fit_nested_pairs(design, np.full(big.m1, big.m2))
    assert np.all(np.isfinite(coef)) and np.all(np.isfinite(lam)) and np.all(np.isfinite(gamma))
    cols = np.arange(design.size)
    for m1 in range(1, big.m1 + 1):
        for m2 in range(1, big.m2 + 1):
            row = coef[m1 - 1, m2 - 1]
            assert np.all(row[(cols >= m1) & (cols < big.m1)] == 0.0)
            assert np.all(row[big.m1 + m2 :] == 0.0)
            sub = subsystem(design, DimPair(m1, m2))
            theta = np.concatenate([row[:m1], row[big.m1 : big.m1 + m2]])
            res = pair_residuals(sub.gram, sub.zvec, sub.dvec, theta, lam[m1 - 1, m2 - 1])
            assert res["kkt"] <= 1e-8 and res["constraint"] <= 1e-8
    assert max_res["kkt"] <= 1e-8 and max_res["constraint"] <= 1e-8


def test_scan_temporaries_bounded():
    # Besides the coefficient array it returns (M1 x M2 x (M1 + M2) floats),
    # the scan holds at most two stacks of the psi complements (M1 x M2 x M2
    # each, together the size of that array) and per-m1 rows. A temporary
    # with a row per pair and coordinate, such as G theta of every fit at
    # once, would take the peak above 3x that array.
    design = mc_corner_design()
    tracemalloc.start()
    try:
        scan = scan_design(design, 400, HERMITE, HERMITE, SelectionConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scan.admissible.all()
    assert peak <= 2.5 * scan.coef.nbytes


_THREAD_CHILD = """
import hashlib, sys
import numpy as np
from cpls.bases import HERMITE
from cpls.design import DesignSystem, DimPair
from cpls.experiments import QuantileBox, mse_box
from cpls.selection import SelectionConfig, scan_design
from cpls.simulate import make_model
from test_selection import mc_corner_design

rng = np.random.default_rng(11)
v = rng.standard_normal((78, 4000))
synthetic = DesignSystem(DimPair(39, 39), v @ v.T / 4000, rng.standard_normal(78) / 10,
                         np.concatenate([np.zeros(39), rng.standard_normal(39)]), 1.0)
for design in (synthetic, mc_corner_design()):
    scan = scan_design(design, 400, HERMITE, HERMITE, SelectionConfig())
    errors = mse_box(scan, make_model(2), QuantileBox(-2.0, 2.0, -3.0, 3.0))
    h = hashlib.sha256()
    for array in (scan.frontier, scan.gamma, scan.lam, scan.coef, *errors):
        h.update(np.ascontiguousarray(array).tobytes())
    h.update(repr(sorted(scan.max_residuals.items())).encode())
    print(scan.admissible.sum(), h.hexdigest())
"""


def test_scan_independent_of_blas_threads():
    # The factor's inverse and the batched products with it and with G run
    # through the BLAS, which splits them over its threads; a thread count
    # is read when a process loads the BLAS, hence one child process per
    # count. The scans are of a synthetic design and of a simulated one.
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ)
        env["PYTHONPATH"] = path + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        proc = subprocess.run([sys.executable, "-c", _THREAD_CHILD], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.split())
    assert outputs[0][::2] == [str(39 * 39)] * 2
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("model_id, y_type", [(m, y) for m in (1, 2, 3) for y in ("A", "B")])
def test_trimmed_scan_matches_the_full_scan(model_id, y_type):
    # The N = 400 and N = 1000 designs of three seeded samples: the scan of
    # each trimmed design has the full design's admissible set and the same
    # adaptive and oracle pairs, their theta within 1e-9 relative (a product
    # of fewer rows may sum an entry in another order). Every Y (B) sample
    # is cut on its psi side.
    cfg = ExperimentConfig()
    model = make_model(model_id, sigma=cfg.sigma)
    spec = explanatory_by_name(y_type, sigma_y=cfg.sigma_y)
    bounds = DimPair(cfg.selection.max_m1, cfg.selection.max_m2)
    counts = (400, 1000)
    for r in range(3):
        sample = generate_sample(model, spec, cfg.grid, 1000, rep_seed(12, r))
        box = quantile_box(sample)
        t_norm = sample.grid.total_time
        cut = build_trimmed_designs(sample, cfg.phi, cfg.psi, bounds, counts, t_norm)
        full = build_prefix_designs(sample, cfg.phi, cfg.psi, bounds, counts, t_norm)
        assert [d.dims.m2 < bounds.m2 for d in cut] == [y_type == "B"] * 2
        for n, trimmed, design in zip(counts, cut, full):
            got = scan_trimmed(trimmed, sample, n, cfg.phi, cfg.psi, cfg.selection)
            ref = scan_design(design, n, cfg.phi, cfg.psi, cfg.selection)
            np.testing.assert_array_equal(got.frontier, ref.frontier)
            adaptive = [select_adaptive_from_scan(s) for s in (got, ref)]
            oracle = [select_oracle_from_scan(s, *mse_box(s, model, box)) for s in (got, ref)]
            for a, b in (adaptive, oracle):
                assert a.chosen == b.chosen
                assert np.abs(a.fit.theta - b.fit.theta).max() <= 1e-9 * np.abs(b.fit.theta).max()


def test_untrimmed_designs_keep_their_bits():
    # A model 2 x Y (A), N = 400 design passes the floor at its corner after
    # 128 paths, so its scan reads the full design; and no design of at most
    # 144 paths (the deciding blocks and the one in flight) is trimmed.
    cfg = SelectionConfig()
    sample = generate_sample(make_model(2), explanatory_by_name("A"), GridSpec(), 400, seed=rep_seed(1, 0))
    scan = scan_dimension_grid(sample, HERMITE, HERMITE, cfg)
    ref = scan_design(mc_corner_design(), 400, HERMITE, HERMITE, cfg)
    for name in ("frontier", "gamma", "lam", "coef"):
        np.testing.assert_array_equal(getattr(scan, name), getattr(ref, name))
    for name in ("gram", "zvec", "dvec"):
        np.testing.assert_array_equal(getattr(scan.design, name), getattr(ref.design, name))
    sample = generate_sample(make_model(3), explanatory_by_name("B"), GridSpec(), 144, seed=3)
    counts = (64, 128, 144)
    dims = DimPair(39, 39)
    for got, full in zip(build_trimmed_designs(sample, HERMITE, HERMITE, dims, counts),
                         build_prefix_designs(sample, HERMITE, HERMITE, dims, counts)):
        assert got.dims == dims
        np.testing.assert_array_equal(got.gram, full.gram)
        np.testing.assert_array_equal(got.zvec, full.zvec)
