"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-3 depend on heavy Monte-Carlo runs (50 repetitions per
configuration) that are shared through module-scoped fixtures. Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines as
they complete. Expected duration: about 1.5 minutes on two cores.

Criteria 1 and 2 (oracle-dimension half) compare against benchmark-table
magnitudes whose protocol (MSE convention, quantile box, scale of Y (A)) the
repository does not hold; they are implemented at their stated tolerances
and fail. docs/acceptance_diagnosis.md records the measurements, and
scripts/acceptance_diagnosis.py reproduces them.
"""

import math
import os
import time

import numpy as np
import pytest
import scipy.integrate

from cpls import bases
from cpls.bases import HERMITE, LAGUERRE, TRIG, TRIG_NO_CONST
from cpls.design import DimPair, build_design
from cpls.estimator import solve_constrained
from cpls.experiments import TABLE1_CELLS, run_cells, run_experiment
from cpls.simulate import (
    GridSpec,
    SdeModel,
    explanatory_by_name,
    generate_sample,
    _simulate_x_batch,
    make_model,
)

from conftest import window_length
from oracles import constrained_qp_nullspace, empirical_norm_sq
from test_estimator import random_spd_system

WORKERS = min(2, os.cpu_count() or 1)
MASTER_SEED = 1
REPS = 50


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


@pytest.fixture(scope="module")
def bench_run():
    """Criterion 1/2/5 shared run: model 2, Y (A), N = 400, 50 repetitions."""
    start = time.time()
    rep = run_experiment(2, "A", 400, REPS, MASTER_SEED, workers=WORKERS)
    rep.runtime = time.time() - start
    return rep


@pytest.fixture(scope="module")
def grid_runs(bench_run):
    """Criterion 3 grid: {1,2,3} x {A,B} x {400,1000} at 50 repetitions.

    The 11 cells other than the criterion-1 run share one process pool; each
    equals its own ``run_experiment`` bit for bit.
    """
    out = {(2, "A", 400): bench_run.summary}
    cells = [cell for cell in TABLE1_CELLS if cell not in out]
    for rep in run_cells(cells, REPS, MASTER_SEED, workers=WORKERS):
        out[(rep.model_id, rep.y_type, rep.n_paths)] = rep.summary
    return out


def test_criterion_1_table_reproduction(bench_run):
    s = bench_run.summary
    mse_a = s["mse100_a_mean"]
    mse_b = s["mse100_b_mean"]
    ok_a = 0.30 <= mse_a <= 0.90
    ok_b = 0.10 <= mse_b <= 0.40
    ok_t = bench_run.runtime < 600.0
    ok = report(
        "criterion 1",
        ok_a and ok_b and ok_t,
        f"mean 100*MSE(a2) = {mse_a:.3f} (band [0.30, 0.90]), "
        f"100*MSE(b2) = {mse_b:.3f} (band [0.10, 0.40]), "
        f"runtime {bench_run.runtime:.0f}s (< 600s)",
    )
    assert ok, (
        "Table-1 MSE bands not reached under the repository's protocol "
        "(see docs/acceptance_diagnosis.md)"
    )


def test_criterion_2_selected_dimensions(bench_run):
    s = bench_run.summary
    pairs = [
        ("adaptive m1", s["dim_a_mean"], 5.16),
        ("adaptive m2", s["dim_b_mean"], 2.03),
        ("oracle m1", s["dim_oracle_a_mean"], 6.66),
        ("oracle m2", s["dim_oracle_b_mean"], 3.64),
    ]
    gaps = {name: abs(val - target) for name, val, target in pairs}
    ok = all(g <= 2.0 for g in gaps.values())
    detail = ", ".join(f"{name} = {val:.2f} (target {target} +- 2)" for name, val, target in pairs)
    report("criterion 2", ok, detail)
    assert ok, f"dimension gaps {gaps} (see docs/acceptance_diagnosis.md)"


def test_criterion_3_direction_checks(grid_runs):
    cells = [(m, y, fn) for m in (1, 2, 3) for y in ("A", "B") for fn in ("a", "b")]
    not_decreasing = []
    not_dominated = []
    for model_id, y_type, fn in cells:
        small = grid_runs[(model_id, y_type, 400)]
        large = grid_runs[(model_id, y_type, 1000)]
        mse = (small[f"mse100_{fn}_mean"], large[f"mse100_{fn}_mean"])
        oracle = (small[f"mse100_oracle_{fn}_mean"], large[f"mse100_oracle_{fn}_mean"])
        cell = f"model {model_id} Y ({y_type}) {fn}"
        if not mse[1] < mse[0]:
            not_decreasing.append(
                f"{cell}: 100*MSE {mse[0]:.3f} at N = 400, {mse[1]:.3f} at N = 1000"
            )
        if not (oracle[0] <= mse[0] and oracle[1] <= mse[1]):
            not_dominated.append(
                f"{cell}: oracle/adaptive 100*MSE {oracle[0]:.3f}/{mse[0]:.3f} at N = 400, "
                f"{oracle[1]:.3f}/{mse[1]:.3f} at N = 1000"
            )
    n_dec = len(cells) - len(not_decreasing)
    n_dom = len(cells) - len(not_dominated)
    ok = n_dec == 12 and n_dom >= 11
    failing = "".join(f"; not decreasing: {c}" for c in not_decreasing)
    failing += "".join(f"; not dominated: {c}" for c in not_dominated)
    report(
        "criterion 3",
        ok,
        f"MSE decreases with N in {n_dec}/12 cells (need 12), "
        f"oracle <= adaptive in {n_dom}/12 cells (need >= 11){failing}",
    )
    assert ok, f"direction checks failed{failing}"


def test_criterion_4_closed_form_vs_qp_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(500):
        k = int(rng.integers(2, 13))
        sys = random_spd_system(rng, k)
        fit = solve_constrained(sys)
        oracle = constrained_qp_nullspace(sys.gram, sys.zvec, sys.dvec)
        worst = max(worst, float(np.max(np.abs(fit.theta - oracle))))
    ok = report("criterion 4", worst < 1e-8, f"max coordinate gap {worst:.2e} (< 1e-8)")
    assert ok


def test_criterion_5_constraint_kkt_suite(bench_run):
    maxima = {"constraint": 0.0, "optimality": 0.0, "kkt": 0.0}
    for rec in bench_run.per_rep:
        if rec.failed or rec.max_residuals is None:
            continue
        for key in maxima:
            maxima[key] = max(maxima[key], rec.max_residuals[key])
    ok = all(v < 1e-8 for v in maxima.values())
    report(
        "criterion 5",
        ok,
        "max relative residuals over all fits: "
        + ", ".join(f"{k} {v:.2e}" for k, v in maxima.items())
        + " (< 1e-8)",
    )
    assert ok


def test_criterion_6_basis_suite():
    families = [TRIG, TRIG_NO_CONST, LAGUERRE, HERMITE]
    ortho = {f.name: bases.orthonormality_residual(f, 30) for f in families}
    ok_ortho = all(v < 1e-6 for v in ortho.values())

    worst_delta = 0.0
    for family in families:
        delta = bases.delta_vector(family, 12)
        for k in range(12):
            fn = lambda x, k=k: bases.eval_matrix(family, k + 1, np.asarray([x]))[0, k]
            if family.name == "laguerre":
                val, _ = scipy.integrate.quad(fn, 0.0, np.inf, limit=400)
            elif family.name == "hermite":
                val, _ = scipy.integrate.quad(fn, -40.0, 40.0, limit=400)
            else:
                val, _ = scipy.integrate.quad(fn, 0.0, 1.0, limit=200)
            worst_delta = max(worst_delta, abs(delta[k] - val))
    ok_delta = worst_delta < 1e-8

    rng = np.random.default_rng(6)
    xs = rng.uniform(-5.0, 5.0, 100)
    step = 1e-5
    up = bases.eval_matrix(HERMITE, 12, xs + step)
    down = bases.eval_matrix(HERMITE, 12, xs - step)
    mid = bases.eval_matrix(HERMITE, 12, xs)
    worst_rec = 0.0
    for j in range(1, 11):
        lhs = math.sqrt(2.0) * (up[:, j] - down[:, j]) / (2 * step)
        rhs = math.sqrt(j) * mid[:, j - 1] - math.sqrt(j + 1) * mid[:, j + 1]
        worst_rec = max(worst_rec, float(np.max(np.abs(lhs - rhs))))
    ok_rec = worst_rec < 1e-6

    ok = report(
        "criterion 6",
        ok_ortho and ok_delta and ok_rec,
        f"orthonormality residual max {max(ortho.values()):.2e} (< 1e-6), "
        f"delta-vs-quadrature max {worst_delta:.2e} (< 1e-8), "
        f"Hermite derivative recurrence max {worst_rec:.2e} (< 1e-6)",
    )
    assert ok


def test_criterion_7_simulator_suite():
    from cpls.simulate import _ou_coefficients, _simulate_y_batch

    # OU one-step moments against closed forms, deterministic check
    rate, gamma, dt = 2.0, 1.0, 0.02
    decay, step_sd, stat_sd = _ou_coefficients(rate, gamma, dt)
    gap_mean = abs(decay - math.exp(-rate * dt / 2))
    stat_var = gamma**2 / (4 * rate)
    gap_var = abs(step_sd**2 - stat_var * (1 - math.exp(-rate * dt)))
    gap_stat = abs(stat_sd**2 - stat_var)
    ok_ou = max(gap_mean, gap_var, gap_stat) < 1e-12

    # zero-drift martingale and variance checks at 1e5 paths
    grid = GridSpec()
    model = SdeModel(
        a=lambda x: np.zeros_like(x),
        b=lambda y: np.zeros_like(y),
        sigma=lambda x: np.full_like(x, 1.5),
        x0=0.0,
    )
    spec = explanatory_by_name("A")
    finals = []
    for chunk in range(5):
        s = generate_sample(model, spec, grid, 20_000, 7100 + chunk)
        finals.append(s.x[:, -1])
    xt = np.concatenate(finals)
    mean_tol = 3 * 1.5 * math.sqrt(10.0) / math.sqrt(xt.size)
    ok_mart = abs(xt.mean()) < mean_tol
    ok_var = abs(xt.var(ddof=1) - 22.5) < 0.05 * 22.5

    # Euler against the linear ODE for a3 with sigma = 0
    ode_grid = GridSpec(n_steps=500, dt=0.02, drop_first=0)
    ode_model = SdeModel(
        a=lambda x: -x + 0.5,
        b=lambda y: np.zeros_like(y),
        sigma=lambda x: np.zeros_like(x),
        x0=2.0,
    )
    x = _simulate_x_batch(ode_model, np.zeros((1, 501)), ode_grid, [0])[0]
    exact = 0.5 + 1.5 * np.exp(-ode_grid.times())
    ode_gap = float(np.max(np.abs(x - exact)))
    ok_ode = ode_gap < 5 * ode_grid.dt

    ok = report(
        "criterion 7",
        ok_ou and ok_mart and ok_var and ok_ode,
        f"OU one-step gaps < 1e-12: {ok_ou}, martingale |mean| = {abs(xt.mean()):.4f} "
        f"(< {mean_tol:.4f}), Var(X_T) = {xt.var(ddof=1):.2f} (22.5 +- 5%), "
        f"Euler-ODE gap {ode_gap:.4f} (< {5 * ode_grid.dt})",
    )
    assert ok


def test_truncation_rarity_diagnostic(bench_run):
    # not a numbered criterion: under the benchmark defaults fewer than 1% of
    # adaptive fits may be truncated; more indicates a conditioning bug
    frac = bench_run.summary["truncated_frac"]
    ok = report("diagnostic", frac < 0.01, f"truncated adaptive fits {100 * frac:.1f}% (< 1%)")
    assert ok


def test_criterion_8_norm_identity():
    rng = np.random.default_rng(88)
    grid = GridSpec(n_steps=50, dt=0.05, drop_first=4)
    model = make_model(2)
    spec = explanatory_by_name("B")
    dims = DimPair(4, 3)
    worst = 0.0
    for s_idx in range(10):
        sample = generate_sample(model, spec, grid, 12, seed=880 + s_idx)
        gram = build_design(sample, HERMITE, HERMITE, dims, window_length(sample)).gram
        for _ in range(10):
            coeffs = rng.standard_normal(dims.total)
            quad_form = coeffs @ gram @ coeffs
            direct = empirical_norm_sq(sample, HERMITE, HERMITE, coeffs, dims)
            worst = max(worst, abs(quad_form - direct))
    ok = report(
        "criterion 8", worst < 1e-10, f"max |x'Gx - direct norm| = {worst:.2e} (< 1e-10)"
    )
    assert ok
