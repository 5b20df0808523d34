"""Output checks made apart from the program, or from properties the method must have.

Hermite functions, their integrals, the empirical norm, the dense KKT solve,
the penalised argmin and the true drift pairs are computed here, not taken
from cpls. Each check returns a :class:`Check`; none raises on a wrong
result, so one run reports every failure it meets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import hermite as H

#: Largest relative or absolute deviations the checks allow.
RESIDUAL_TOL = 1e-8
INTEGRAL_TOL = 1e-10
GAMMA_RTOL = 1e-9
KKT_RTOL = 1e-8
ORACLE_RTOL = 1e-12  # same error on the same nodes, summed in another order
PENALTY_RTOL = 1e-12
Z_SIGMAS = 5.0  # statistical checks: deviation allowed in standard errors

#: The drift pairs (a, b) of the benchmark models the workloads simulate.
DRIFTS = {
    2: (lambda x: -1.5 * x / (1.0 + x * x), lambda y: y / (1.0 + y * y)),
    3: (lambda x: -x + 0.5, lambda y: -0.5 * np.tanh(y)),
}


@dataclass
class Check:
    name: str
    ok: bool
    detail: str

    def __str__(self) -> str:
        return f"{'ok  ' if self.ok else 'FAIL'} {self.name}: {self.detail}"


def _log_norms(m: int) -> np.ndarray:
    """log sqrt(2^k k! sqrt(pi)), the normaliser of the degree-k Hermite function."""
    return np.array([0.5 * (k * math.log(2.0) + math.lgamma(k + 1) + 0.5 * math.log(math.pi))
                     for k in range(m)])


def hermite_series(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k coef[k] h_k(x) for the orthonormal Hermite functions h_k.

    Clenshaw summation of the physicists' Hermite series with log-scaled
    normalisation, times the Gaussian envelope.
    """
    coef = np.asarray(coef, dtype=float)
    return H.hermval(x, coef * np.exp(-_log_norms(coef.size))) * np.exp(-0.5 * x * x)


def hermite_integrals(m: int) -> np.ndarray:
    """Integrals over the line of h_0 .. h_{m-1}, by Gauss-Hermite quadrature.

    With y = sqrt(2) u, the integral of H_k(y) exp(-y^2/2) is sqrt(2) times
    that of H_k(sqrt(2) u) against exp(-u^2), exact for k < 2 * nodes.
    """
    u, w = H.hermgauss(m // 2 + 40)
    vals = H.hermvander(math.sqrt(2.0) * u, m - 1)  # H_k(sqrt(2) u_i)
    return math.sqrt(2.0) * (w @ vals) * np.exp(-_log_norms(m))


def integral_of_b(fits, name: str) -> Check:
    """Each fitted b integrates to zero over the line (the identifiability constraint).

    ``fits`` holds (theta, m1) pairs; the worst of them is reported.
    """
    worst = 0.0
    for theta, m1 in fits:
        b_coef = np.asarray(theta, dtype=float)[m1:]
        if b_coef.size:
            worst = max(worst, abs(float(b_coef @ hermite_integrals(b_coef.size))))
    return Check(name, worst <= INTEGRAL_TOL, f"|int b_hat| = {worst:.2e} (tol {INTEGRAL_TOL:g})")


def oracle_dominates(records, name: str) -> Check:
    """Per repetition, the oracle's box error (a + b) is at most the adaptive one's.

    The oracle minimises that error over the same admissible set with the
    same quadrature nodes, so a larger oracle error is a program fault.
    """
    worst = -math.inf
    for r in records:
        adaptive = r.mse_a + r.mse_b
        oracle = r.oracle_mse_a + r.oracle_mse_b
        if not (math.isfinite(adaptive) and math.isfinite(oracle)):
            return Check(name, False, f"rep {r.rep}: non-finite box error")
        worst = max(worst, (oracle - adaptive) / max(adaptive, 1e-300))
    ok = worst <= ORACLE_RTOL
    return Check(name, ok, f"max (oracle - adaptive) / adaptive = {worst:.2e} over {len(records)} reps")


def reps_clean(report, name: str) -> Check:
    """No repetition failed, and the scan's constraint/KKT residuals stay below 1e-8."""
    if report.n_failed:
        errors = sorted({r.error for r in report.per_rep if r.failed})
        return Check(name, False, f"{report.n_failed} failed repetitions: {errors}")
    worst = max(max(r.max_residuals.values()) for r in report.per_rep)
    return Check(name, worst <= RESIDUAL_TOL, f"max scan residual = {worst:.2e} (tol {RESIDUAL_TOL:g})")


def _window(sample):
    g = sample.grid
    return g.drop_first, g.n_steps, g.dt


def gamma_is_norm(sample, theta: np.ndarray, m1: int, gamma: float, t_norm: float, name: str) -> Check:
    """-gamma equals the pointwise empirical norm of a_hat(X) + b_hat(Y) on the window."""
    lo, hi, dt = _window(sample)
    theta = np.asarray(theta, dtype=float)
    total = 0.0
    for start in range(0, sample.n_paths, 100):
        fx = hermite_series(theta[:m1], sample.x[start:start + 100, lo:hi])
        fy = hermite_series(theta[m1:], sample.y[start:start + 100, lo:hi])
        total += float(np.sum((fx + fy) ** 2)) * dt
    norm = total / (sample.n_paths * t_norm)
    rel = abs(-gamma - norm) / norm
    return Check(name, rel <= GAMMA_RTOL, f"|-gamma - norm| / norm = {rel:.2e} (tol {GAMMA_RTOL:g})")


def theta_is_kkt_solution(gram, zvec, dvec, theta: np.ndarray, name: str) -> Check:
    """theta solves min t'Gt - 2t'z s.t. <t, d> = 0, by a dense solve of the KKT system."""
    k = gram.shape[0]
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = 2.0 * gram
    kkt[:k, k] = -dvec
    kkt[k, :k] = dvec
    rhs = np.concatenate([2.0 * zvec, [0.0]])
    dense = np.linalg.solve(kkt, rhs)[:k]
    rel = float(np.linalg.norm(theta - dense) / np.linalg.norm(dense))
    return Check(name, rel <= KKT_RTOL, f"|theta - dense| / |dense| = {rel:.2e} (tol {KKT_RTOL:g})")


def chosen_is_argmin(result, n_paths: int, t_norm: float, kappa: float, sigma_sq: float,
                     bound: int, name: str) -> Check:
    """The chosen pair minimises gamma + pen over the admissible pairs.

    The penalty is recomputed as kappa sigma^2 (m1 + m2) / (N T); ties go to
    the smallest m1 + m2, then the smallest m1 (the documented tie-break).
    """
    table = result.criterion_table
    if len(table) != bound * bound:
        return Check(name, False, f"{len(table)} pairs scanned, expected {bound * bound}")
    best_key, best = None, None
    for dims, entry in table.items():
        pen = kappa * sigma_sq * (dims.m1 + dims.m2) / (n_paths * t_norm)
        if abs(entry.penalty - pen) > PENALTY_RTOL * pen:
            return Check(name, False, f"penalty at {dims} is {entry.penalty!r}, expected {pen!r}")
        if entry.admissible:
            key = (entry.gamma + pen, dims.m1 + dims.m2, dims.m1)
            if best_key is None or key < best_key:
                best_key, best = key, dims
    ok = best == result.chosen and table[best].gamma == result.fit.gamma_value
    return Check(name, ok, f"argmin {best} (m1, m2), chosen {result.chosen}")


def euler_residuals(sample, model_id: int, sigma: float, name: str) -> Check:
    """Standardised Euler residuals of X under the true drift are i.i.d. N(0, 1)."""
    a, b = DRIFTS[model_id]
    dt = sample.grid.dt
    x, y = sample.x, sample.y
    res = (x[:, 1:] - x[:, :-1] - (a(x[:, :-1]) + b(y[:, :-1])) * dt) / (sigma * math.sqrt(dt))
    n = res.size
    mean, var = float(res.mean()), float(res.var())
    tol_mean = Z_SIGMAS / math.sqrt(n)
    tol_var = Z_SIGMAS * math.sqrt(2.0 / n)
    ok = abs(mean) <= tol_mean and abs(var - 1.0) <= tol_var
    return Check(name, ok, f"mean {mean:+.4f} (tol {tol_mean:.4f}), var {var:.4f} "
                           f"(tol 1 +- {tol_var:.4f}) over {n} steps")


def ou_variance(sample, sigma_y: float, rate: float, gamma: float, name: str) -> Check:
    """The sample variance of Y (B) matches the stationary sigma_Y^2 gamma^2 / (4 rate).

    Y is stationary from its start. Its correlation decays as exp(-rate t / 2),
    so the variance estimate has standard error about v sqrt(2 / n_eff) with
    n_eff = N T rate / 2 (the squares decorrelate at rate `rate`); the check
    halves n_eff for margin.
    """
    expected = sigma_y ** 2 * gamma ** 2 / (4.0 * rate)
    n_eff = 0.5 * sample.n_paths * sample.grid.total_time * rate / 2.0
    tol = Z_SIGMAS * expected * math.sqrt(2.0 / n_eff)
    var = float(sample.y.var())
    return Check(name, abs(var - expected) <= tol,
                 f"var {var:.4f}, stationary {expected:.4f} (tol {tol:.4f})")


TABLE1_CELLS = [(m, y, n) for m in (1, 2, 3) for y in ("A", "B") for n in (400, 1000)]


def parse_table1(text: str) -> list[dict]:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def table1_rows_sane(rows: list[dict], bound: int, name: str) -> Check:
    """All 12 cells, in grid order, with finite numbers and mean dimensions in [1, bound]."""
    cells = [(int(r["model"]), r["y"], int(r["n_paths"])) for r in rows]
    if cells != TABLE1_CELLS:
        return Check(name, False, f"cells {cells}")
    for r in rows:
        values = {k: float(v) for k, v in r.items() if k not in ("model", "y", "n_paths")}
        if not all(math.isfinite(v) for v in values.values()):
            return Check(name, False, f"non-finite entry in row {r}")
        dims = [v for k, v in values.items() if k.startswith("dim")]
        if not all(1.0 <= d <= bound for d in dims):
            return Check(name, False, f"dimension outside [1, {bound}] in row {r}")
    return Check(name, True, f"{len(rows)} rows finite, dimensions in [1, {bound}]")


#: table1.csv column -> summary key of cpls.experiments.summarize.
TABLE1_SUMMARY_KEYS = {
    "mse_a": "mse100_a_mean", "std_a": "mse100_a_std",
    "mse_oracle_a": "mse100_oracle_a_mean", "std_oracle_a": "mse100_oracle_a_std",
    "dim_a": "dim_a_mean", "dim_oracle_a": "dim_oracle_a_mean",
    "mse_b": "mse100_b_mean", "std_b": "mse100_b_std",
    "mse_oracle_b": "mse100_oracle_b_mean", "std_oracle_b": "mse100_oracle_b_std",
    "dim_b": "dim_b_mean", "dim_oracle_b": "dim_oracle_b_mean",
}


def table1_row_matches(rows: list[dict], cell: tuple, summary: dict, name: str) -> Check:
    """The pooled command's row for ``cell`` equals a serial run's summary bit for bit."""
    row = rows[TABLE1_CELLS.index(cell)]
    diff = [col for col, key in TABLE1_SUMMARY_KEYS.items() if float(row[col]) != summary[key]]
    return Check(name, not diff, f"cell {cell}: " + (f"differs in {diff}" if diff else "identical to the serial run"))
