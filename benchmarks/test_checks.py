"""Tests of the benchmark's own output checks: each passes on right outputs and fails on wrong ones.

Run from the root of a checkout with ``python3 -m pytest benchmarks/test_checks.py``.
A plain ``pytest`` from the root collects ``tests/`` only.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from cpls.bases import HERMITE, delta_vector, eval_matrix  # noqa: E402
from cpls.simulate import GridSpec, PathSample  # noqa: E402


def test_hermite_integrals_match_the_closed_form():
    np.testing.assert_allclose(checks.hermite_integrals(39), delta_vector(HERMITE, 39), rtol=0, atol=1e-13)


def test_hermite_series_matches_the_package_recurrence():
    x = np.linspace(-8.0, 8.0, 301)
    coef = np.random.default_rng(0).standard_normal(39)
    np.testing.assert_allclose(checks.hermite_series(coef, x), eval_matrix(HERMITE, 39, x) @ coef,
                               rtol=0, atol=1e-12)


def test_integral_of_b():
    delta = delta_vector(HERMITE, 3)
    odd = np.array([0.3, 0.0, 1.0, 0.0])  # a = 0.3 h_0; b = h_1, an odd function
    balanced = np.array([0.3, -delta[2] / delta[0], 0.0, 1.0])  # b = h_2 - (int h_2 / int h_0) h_0
    assert checks.integral_of_b([(odd, 1), (balanced, 1)], "zero").ok
    assert not checks.integral_of_b([(odd, 0)], "b = 0.3 h_0 + h_2").ok


def _kkt_system(k=6, seed=1):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((k, 3 * k))
    gram, z, d = a @ a.T / k, rng.standard_normal(k), rng.standard_normal(k)
    u, v = np.linalg.solve(gram, z), np.linalg.solve(gram, d)
    return gram, z, d, u - (d @ u) / (d @ v) * v


def test_theta_is_kkt_solution():
    gram, z, d, theta = _kkt_system()
    assert checks.theta_is_kkt_solution(gram, z, d, theta, "exact").ok
    assert not checks.theta_is_kkt_solution(gram, z, d, theta * (1 + 1e-6), "scaled").ok


def _rec(rep, mse, oracle):
    return SimpleNamespace(rep=rep, mse_a=mse, mse_b=mse, oracle_mse_a=oracle, oracle_mse_b=oracle)


def test_oracle_dominates():
    assert checks.oracle_dominates([_rec(0, 0.2, 0.1), _rec(1, 0.3, 0.3)], "ok").ok
    assert not checks.oracle_dominates([_rec(0, 0.2, 0.1), _rec(1, 0.3, 0.3 * (1 + 1e-9))], "worse").ok


def test_euler_residuals_and_variance():
    grid = GridSpec(n_steps=200, dt=0.02, drop_first=0)
    rng = np.random.default_rng(3)
    n = 400
    y = np.zeros((n, grid.n_steps + 1))
    dx = 1.5 * np.sqrt(grid.dt) * rng.standard_normal((n, grid.n_steps))
    x = np.zeros_like(y)
    for ell in range(grid.n_steps):  # model 3 with Y = 0: a(x) = -x + 0.5, b(0) = 0
        x[:, ell + 1] = x[:, ell] + (-x[:, ell] + 0.5) * grid.dt + dx[:, ell]
    sample = PathSample(grid, x, y)
    assert checks.euler_residuals(sample, 3, 1.5, "right sigma").ok
    assert not checks.euler_residuals(sample, 3, 1.4, "wrong sigma").ok
    assert not checks.ou_variance(sample, 2.0, 2.0, 1.0, "Y = 0 is not stationary OU").ok


def test_table1_checks():
    header = "model,y,n_paths," + ",".join(checks.TABLE1_SUMMARY_KEYS)
    summary = {key: 1.0 + i / 7 for i, key in enumerate(checks.TABLE1_SUMMARY_KEYS.values())}
    row = ",".join(repr(summary[k]) for k in checks.TABLE1_SUMMARY_KEYS.values())
    text = "\n".join([header] + [f"{m},{y},{n},{row}" for m, y, n in checks.TABLE1_CELLS])
    rows = checks.parse_table1(text)
    assert checks.table1_rows_sane(rows, 39, "sane").ok
    assert checks.table1_row_matches(rows, (2, "A", 400), summary, "same").ok
    moved = dict(summary, mse100_b_mean=np.nextafter(summary["mse100_b_mean"], 2.0))
    assert not checks.table1_row_matches(rows, (2, "A", 400), moved, "one ulp").ok
    assert not checks.table1_rows_sane(rows[:11], 39, "short").ok
    assert not checks.table1_rows_sane(rows, 1, "dimension above bound").ok


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
