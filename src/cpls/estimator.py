"""Constrained least-squares solve, stability events, and fit evaluation.

The coefficient vector minimizes the quadratic contrast
``J(theta) = theta' G theta - 2 theta' z`` over the hyperplane
``<theta, d> = 0``. Solving the Lagrangian stationarity conditions gives the
closed form

    theta = G^{-1} z - (d' G^{-1} z) / (d' G^{-1} d) * G^{-1} d,

with multiplier ``lambda = -2 (d' G^{-1} z) / (d' G^{-1} d)``. When d = 0 the
constraint is vacuous and theta = G^{-1} z. Solves use a Cholesky
factorization with one step of iterative refinement, falling back to a
symmetric indefinite solve when the Gram is nearly singular. Because the
Cholesky factor of a leading block of G is the leading block of G's factor,
:func:`fit_leading_blocks` solves every leading block of one system from a
single factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from .bases import BasisFamily, eval_matrix, sup_norm_bound
from .design import DesignSystem, DimPair, inv_opnorm


class SingularDesignError(RuntimeError):
    """The Gram matrix is numerically singular; callers decide truncation."""


@dataclass
class FitResult:
    """Solved coefficients for one dimension pair.

    The first ``m1`` entries of ``theta`` are the coefficients of the
    x-drift expansion, the remaining ``m2`` those of the y-drift.
    ``gamma_value`` stores the empirical contrast at the minimizer,
    ``-theta' G theta``.
    """

    dims: DimPair
    theta: np.ndarray
    truncated: bool = False
    lambda_multiplier: float = 0.0
    gamma_value: float = 0.0

    @classmethod
    def zero(cls, dims: DimPair) -> "FitResult":
        return cls(dims=dims, theta=np.zeros(dims.total), truncated=True)


def _cholesky_solver(gram: np.ndarray, mask: np.ndarray):
    """Refine-once solver for the leading blocks of ``gram``, or None if not positive definite.

    Column j of a right-hand side belongs to the leading block whose size is
    the number of True entries of ``mask[:, j]`` (a leading run). The
    Cholesky factor of a leading block is the leading block of the factor,
    so one factorization serves every column; the forward-solve result is
    cut to the column's size before the back-solve, which then returns the
    block's solution padded with zeros.
    """
    chol, info = scipy.linalg.lapack.dpotrf(gram, lower=1)
    if info != 0:
        return None
    # LAPACK's triangular solve, called directly, as scipy's solve_triangular
    # only wraps this call in checks: the factor's diagonal is positive, so
    # the solve cannot fail.
    trtrs = scipy.linalg.lapack.dtrtrs

    def solve_once(rhs: np.ndarray) -> np.ndarray:
        y, _ = trtrs(chol, rhs, lower=1)
        y[~mask] = 0.0
        return trtrs(chol, y, lower=1, trans=1)[0]

    def solve(rhs: np.ndarray) -> np.ndarray:
        sol = solve_once(rhs)
        sol += solve_once(np.where(mask, rhs - gram @ sol, 0.0))
        return sol

    return solve


def _indefinite_solver(gram: np.ndarray):
    """Refine-once pivoted symmetric indefinite solver, for a marginal Gram."""

    def solve(rhs: np.ndarray) -> np.ndarray:
        sol = scipy.linalg.solve(gram, rhs, assume_a="sym", check_finite=False)
        sol += scipy.linalg.solve(gram, rhs - gram @ sol, assume_a="sym", check_finite=False)
        return sol

    return solve


def _colsum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise inner products of two equally shaped matrices."""
    return np.einsum("ij,ij->j", a, b)


def _minimizers(gram: np.ndarray, z: np.ndarray, d: np.ndarray, solve):
    """(theta, lambda, gamma) of the closed form, one column per column of ``z`` and ``d``."""
    n_cols = z.shape[1]
    sol = solve(np.concatenate([z, d], axis=1))
    u, v = sol[:, :n_cols], sol[:, n_cols:]
    has_d = np.any(d, axis=0)
    ratio = np.zeros(n_cols)
    ratio[has_d] = _colsum(d, u)[has_d] / _colsum(d, v)[has_d]
    theta = u - ratio * v
    lam = np.where(has_d, -2.0 * ratio, 0.0)
    return theta, lam, -_colsum(theta, gram @ theta)


def _leading_blocks(system: DesignSystem, sizes):
    """(mask, z, d) for the leading blocks of ``system`` of the given sizes.

    Entry (i, j) of the mask is True when i < sizes[j]; column j of ``z``
    and ``d`` is ``zvec[:sizes[j]]`` and ``dvec[:sizes[j]]`` padded with zeros.
    """
    mask = np.arange(system.size)[:, None] < np.asarray(sizes)[None, :]
    z = np.where(mask, system.zvec[:, None], 0.0)
    return mask, z, np.where(mask, system.dvec[:, None], 0.0)


def fit_leading_blocks(system: DesignSystem, sizes):
    """Constrained minimizers on the leading blocks of ``system`` of the given sizes.

    Returns ``(theta, lam, gamma)``: column j of ``theta`` (shape
    ``(size, len(sizes))``) holds the minimizer on the leading block of size
    ``sizes[j]``, padded with zeros, and ``lam[j]``, ``gamma[j]`` its
    multiplier and contrast. One Cholesky factorization of the whole Gram
    serves every block, and all solves run as two batched triangular solves
    plus one refinement step. Returns None when that factorization fails.
    """
    mask, z, d = _leading_blocks(system, sizes)
    solve = _cholesky_solver(system.gram, np.concatenate([mask, mask], axis=1))
    if solve is None:
        return None
    return _minimizers(system.gram, z, d, solve)


def solve_constrained(system: DesignSystem, check_singular: bool = True) -> FitResult:
    """Closed-form constrained minimizer of the empirical contrast.

    Raises :class:`SingularDesignError` when the Gram fails the scale-aware
    eigenvalue threshold; no explicit matrix inversion is performed.
    ``check_singular=False`` skips that eigenvalue test, for a system that
    has already passed :func:`stability_event` (which implies it).
    """
    if check_singular and not math.isfinite(inv_opnorm(system.gram)):
        raise SingularDesignError(
            f"Gram matrix at dims {system.dims} is numerically singular"
        )
    solved = fit_leading_blocks(system, [system.size])
    if solved is None:
        # Marginal smallest eigenvalue: pivoted symmetric indefinite solve.
        solved = _minimizers(
            system.gram,
            system.zvec[:, None],
            system.dvec[:, None],
            _indefinite_solver(system.gram),
        )
    theta, lam, gamma = solved
    return FitResult(
        dims=system.dims,
        theta=theta[:, 0],
        truncated=False,
        lambda_multiplier=float(lam[0]),
        gamma_value=float(gamma[0]),
    )


def leading_block_residuals(
    system: DesignSystem, theta: np.ndarray, lam: np.ndarray, sizes
) -> dict[str, np.ndarray]:
    """The residuals of :func:`fit_residuals`, one per column of ``theta``.

    Column j of ``theta`` is a fit on the leading block of size ``sizes[j]``,
    padded with zeros, and ``lam[j]`` its multiplier.
    """
    mask, z, d = _leading_blocks(system, sizes)
    tiny = 1e-300
    g_theta = np.where(mask, system.gram @ theta, 0.0)

    def norm(a: np.ndarray) -> np.ndarray:
        return np.sqrt(_colsum(a, a))

    constraint = np.abs(_colsum(theta, d)) / np.maximum(norm(theta) * norm(d), tiny)
    r = g_theta - z
    optimality = np.abs(_colsum(theta, r)) / np.maximum(
        np.maximum(np.abs(_colsum(theta, g_theta)), np.abs(_colsum(theta, z))), tiny
    )
    kkt = norm(2.0 * r - lam * d) / np.maximum(
        np.maximum(2.0 * norm(g_theta), 2.0 * norm(z)),
        np.maximum(np.abs(lam) * norm(d), tiny),
    )
    return {"constraint": constraint, "optimality": optimality, "kkt": kkt}


def fit_residuals(system: DesignSystem, fit: FitResult) -> dict[str, float]:
    """Relative residuals of the constraint, optimality, and KKT identities.

    * ``constraint``: |<theta, d>| / (|theta| |d|)
    * ``optimality``: |theta'(G theta - z)| / max(|theta' G theta|, |theta' z|)
    * ``kkt``:        |2(G theta - z) - lambda d| / max(|2 G theta|, |2 z|, |lambda d|)

    All scales are floored to avoid division by zero for the zero fit.
    """
    res = leading_block_residuals(
        system, fit.theta[:, None], np.array([fit.lambda_multiplier]), [system.size]
    )
    return {key: float(val[0]) for key, val in res.items()}


@dataclass(frozen=True)
class StabilityRule:
    """Well-conditioning test applied to each candidate dimension pair.

    ``practical`` mode requires ``(m1 + m2) * |G^{-1}|_op <= cutoff * N / log N``
    (default cutoff 1e14). ``theoretical`` mode requires
    ``(L_phi(m1) + L_psi(m2)) * (|G^{-1}|_op v 1) <= c_r * N / log N`` with
    ``c_r = (1 - log 2) / (1 + r)``.
    """

    MODES = ("practical", "theoretical")

    mode: str = "practical"
    cutoff: float = 1e14
    r: float = 7.0

    def __post_init__(self):
        if self.mode not in self.MODES:
            raise ValueError(f"unknown stability mode {self.mode!r}")
        for name in ("cutoff", "r"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")

    @property
    def c_r(self) -> float:
        return (1.0 - math.log(2.0)) / (1.0 + self.r)


def stability_event(
    system: DesignSystem,
    n_paths: int,
    rule: StabilityRule = StabilityRule(),
    phi: BasisFamily | None = None,
    psi: BasisFamily | None = None,
) -> bool:
    """Whether the empirical design passes the conditioning event at ``rule``.

    The theoretical mode needs the two basis families to evaluate their
    sup-norm bounds. A singular Gram (infinite inverse norm) always fails.
    """
    if n_paths < 2:
        raise ValueError("stability event requires n_paths >= 2")
    op = inv_opnorm(system.gram)
    if not math.isfinite(op):
        return False
    budget = n_paths / math.log(n_paths)
    if rule.mode == "practical":
        return system.dims.total * op <= rule.cutoff * budget
    if phi is None or psi is None:
        raise ValueError("theoretical stability mode requires phi and psi")
    lsum = 0.0
    if system.dims.m1 > 0:
        lsum += sup_norm_bound(phi, system.dims.m1)
    if system.dims.m2 > 0:
        lsum += sup_norm_bound(psi, system.dims.m2)
    return lsum * max(op, 1.0) <= rule.c_r * budget


def evaluate_fit(
    fit: FitResult,
    phi: BasisFamily,
    psi: BasisFamily,
    x: np.ndarray | float,
    y: np.ndarray | float,
) -> tuple[np.ndarray | float, np.ndarray | float]:
    """Evaluate the fitted drift pair (a_hat(x), b_hat(y)).

    Accepts scalars or arrays; a truncated fit evaluates to zero everywhere.
    """
    m1, m2 = fit.dims.m1, fit.dims.m2
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if fit.truncated or m1 == 0:
        a_hat = np.zeros(x_arr.shape)
    else:
        a_hat = eval_matrix(phi, m1, x_arr) @ fit.theta[:m1]
    if fit.truncated or m2 == 0:
        b_hat = np.zeros(y_arr.shape)
    else:
        b_hat = eval_matrix(psi, m2, y_arr) @ fit.theta[m1:]
    if np.isscalar(x) or x_arr.ndim == 0:
        a_hat = float(a_hat)
    if np.isscalar(y) or y_arr.ndim == 0:
        b_hat = float(b_hat)
    return a_hat, b_hat
