"""Constrained least-squares solve, stability events, and fit evaluation.

The coefficient vector minimizes the quadratic contrast
``J(theta) = theta' G theta - 2 theta' z`` over the hyperplane
``<theta, d> = 0``. Solving the Lagrangian stationarity conditions gives the
closed form

    theta = G^{-1} z - (d' G^{-1} z) / (d' G^{-1} d) * G^{-1} d,

with multiplier ``lambda = -2 (d' G^{-1} z) / (d' G^{-1} d)``. When d = 0 the
constraint is vacuous and theta = G^{-1} z. Solves use a Cholesky
factorization with one step of iterative refinement. Because the Cholesky
factor of a leading block of G is the leading block of G's factor, and its
inverse the leading block of the factor's inverse,
:func:`fit_leading_blocks` solves every leading block of one system from a
single factorization and a single inverse of the factor. numpy has no
triangular solve, so the solves are products with that inverse; the module
needs numpy alone.

There is no second solver: a failed factorization raises
:class:`SingularDesignError`, and no Gram the package factorizes can make it
fail. Each passed the stability event or the singularity test of
:func:`solve_constrained`, or is a principal block of one that did. Both
tests demand a smallest eigenvalue above ``1e-12 k`` (the floor of
:func:`cpls.design.inv_opnorm`), and a principal block keeps that floor
(Cauchy interlacing). Each diagonal entry is a time average of one f_j^2,
so at most max_j sup f_j^2 <= 2 for all four families (trig and Laguerre
members reach sqrt(2), Hermite ones pi^{-1/4}) whenever the normalization
``t_norm`` is at least the window length T - t0; every caller in the package
passes T. So the unit-diagonal scaling ``H = D^{-1/2} G D^{-1/2}``,
D = diag(G), has ``lambda_min(H) >= lambda_min(G) / max_i G_ii > 5e-13 k``.
Demmel's sufficient condition (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., SIAM 2002, section 10.1, Theorem 10.7) reads: "If
lambda_min(H) > n gamma_{n+1} / (1 - n gamma_{n+1}) then Cholesky
succeeds (barring underflow and overflow) and produces a nonsingular R",
for n = k, gamma_j = j u / (1 - j u) and u = 2^-53. The right side is about
``k (k + 1) 1.1e-16``, so the condition holds for every k below about
4 500; at the protocol's k = 78 the margin is 57x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def _cholesky_solver(system: DesignSystem, mask: np.ndarray):
    """Refine-once solver for the leading blocks of ``system``'s Gram.

    Column j of a right-hand side belongs to the leading block whose size is
    the number of True entries of ``mask[:, j]`` (a leading run). The
    Cholesky factor of a leading block is the leading block of the factor,
    and so is the factor's inverse, so one factorization and one inverse
    serve every column: each triangular solve is a product with that
    inverse, its result cut to the column's block, which leaves the block's
    solution padded with exact zeros. Raises :class:`SingularDesignError`
    when the Gram is not numerically positive definite.
    """
    gram = system.gram
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise SingularDesignError(
            f"Cholesky factorization of the Gram matrix at dims {system.dims} failed"
        ) from None
    # The inverse of the factor, by inverting its transpose: an LU with
    # partial pivoting of an upper triangular matrix swaps no rows, so this
    # is a back substitution per column, and entry (i, j) of the result
    # depends on the leading (j + 1) x (j + 1) block alone.
    inv = np.linalg.inv(chol.T).T

    def solve_once(rhs: np.ndarray) -> np.ndarray:
        y = inv @ rhs
        y[~mask] = 0.0
        sol = inv.T @ y
        sol[~mask] = 0.0
        return sol

    def solve(rhs: np.ndarray) -> np.ndarray:
        sol = solve_once(rhs)
        sol += solve_once(np.where(mask, rhs - gram @ sol, 0.0))
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
    serves every block, and all solves run as two batched products with the
    factor's inverse plus one refinement step. Raises
    :class:`SingularDesignError` when that factorization fails, which no
    Gram with a smallest eigenvalue above ``1e-12 * size`` and a diagonal of
    at most 2 can make happen (Demmel's condition, see the module
    docstring): every Gram the scan factorizes is one.
    """
    mask, z, d = _leading_blocks(system, sizes)
    solve = _cholesky_solver(system, np.concatenate([mask, mask], axis=1))
    return _minimizers(system.gram, z, d, solve)


def solve_constrained(system: DesignSystem) -> FitResult:
    """Closed-form constrained minimizer of the empirical contrast.

    Raises :class:`SingularDesignError` when the Gram fails the scale-aware
    eigenvalue threshold of :func:`cpls.design.inv_opnorm`; no explicit
    matrix inversion is performed. A Gram that passes it has a smallest
    eigenvalue above ``1e-12 * size``, so with a diagonal of at most 2 its
    Cholesky factorization succeeds (see the module docstring).
    """
    if not math.isfinite(inv_opnorm(system.gram)):
        raise SingularDesignError(
            f"Gram matrix at dims {system.dims} is numerically singular"
        )
    theta, lam, gamma = fit_leading_blocks(system, [system.size])
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
    rule: StabilityRule,
    phi: BasisFamily,
    psi: BasisFamily,
) -> bool:
    """Whether the empirical design passes the conditioning event at ``rule``.

    The theoretical mode bounds the design by the sup-norm bounds of the
    basis families ``phi`` and ``psi``; the practical mode does not read
    them. A singular Gram (infinite inverse norm) always fails.
    """
    if n_paths < 2:
        raise ValueError("stability event requires n_paths >= 2")
    op = inv_opnorm(system.gram)
    if not math.isfinite(op):
        return False
    budget = n_paths / math.log(n_paths)
    if rule.mode == "practical":
        return system.dims.total * op <= rule.cutoff * budget
    lsum = sup_norm_bound(phi, system.dims.m1) + sup_norm_bound(psi, system.dims.m2)
    return lsum * max(op, 1.0) <= rule.c_r * budget


def evaluate_fit(
    fit: FitResult,
    phi: BasisFamily,
    psi: BasisFamily,
    x: np.ndarray,
    y: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the fitted drift pair (a_hat(x), b_hat(y)) at the points of two arrays.

    Returns arrays of the shapes of ``x`` and ``y``; a truncated fit
    evaluates to zero everywhere.
    """
    if fit.truncated:
        return np.zeros(x.shape), np.zeros(y.shape)
    m1, m2 = fit.dims
    return eval_matrix(phi, m1, x) @ fit.theta[:m1], eval_matrix(psi, m2, y) @ fit.theta[m1:]
