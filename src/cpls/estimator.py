"""Constrained least-squares solve, stability events, and fit evaluation.

The coefficient vector minimizes the quadratic contrast
``J(theta) = theta' G theta - 2 theta' z`` over the hyperplane
``<theta, d> = 0``. Solving the Lagrangian stationarity conditions gives the
closed form

    theta = G^{-1} z - (d' G^{-1} z) / (d' G^{-1} d) * G^{-1} d,

with multiplier ``lambda = -2 (d' G^{-1} z) / (d' G^{-1} d)``. When d = 0 the
constraint is vacuous and theta = G^{-1} z.

One solver, :func:`fit_nested_pairs`, fits every pair (m1, m2) of a scan
rectangle at once by block elimination in the [phi | psi] order. With A, B
and C the phi-phi, psi-phi and psi-psi blocks of G, the Cholesky factor of
pair (m1, m2) is [[L11, 0], [L21, L22]] cut to its block: L11 and L21 are
leading blocks of the factor of A and of B L11^-T, and L22 of the factor
of the Schur complement S(m1) = C - L21[:, :m1] L21[:, :m1]'. So A is
factored once, and the complements of all m1, a running sum, in one
stacked call. With z and d as two right-hand sides, running sums of the
forward solves give every pair's d'G^-1 z and d'G^-1 d, and two stacked
products with the factors' inverses every theta. numpy has no triangular
solve, so the module inverts the factors by forward substitution. There is
no refinement step: over 36 scans of the 12 cells of table 1 (N = 400 and
1000, 3 repetitions each) the largest KKT residual was 5.4e-12 relative.

There is no second solver: a failed factorization raises
:class:`SingularDesignError`, and no Gram the package factorizes can make it
fail. Each factored phi block is a principal block of a pair that passed
the stability event or the singularity test of :func:`solve_constrained`.
Both tests demand a smallest eigenvalue above ``1e-12 k`` (the floor of
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

The stacked complements meet the same condition. The inverse of pair (m1,
m2)'s complement S is the psi-psi block of its G^-1, so ``lambda_min(S) >=
lambda_min(G)``, and S is C less a positive semidefinite matrix, so
``diag(S) <= diag(C) <= 2``. Each is padded with the identity past its
frontier, so ``lambda_min(H) > 5e-13 (m1 + m2) >= 1e-12``, against a right
side of 1.7e-13 at the protocol's M2 = 39. This bounds the exact
complements; ``tests/test_estimator.py`` factors computed ones at the floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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


def _cholesky(matrix: np.ndarray, dims: DimPair) -> np.ndarray:
    """Cholesky factor of ``matrix``, the Gram (or a Schur complement in it) at ``dims``."""
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        raise SingularDesignError(
            f"Cholesky factorization of the Gram matrix at dims {dims} failed"
        ) from None


def _invert_lower(factor: np.ndarray) -> np.ndarray:
    """Invert a stack of lower triangular factors (..., n, n) in place, by forward substitution.

    Row i of an inverse overwrites row i of its factor, the last row it
    reads, so the inverse of a leading block is the leading block of the
    inverse, with exact zeros above the diagonal. On 39 factors of 39 x 39
    it takes a third of the time of ``numpy.linalg.inv``.
    """
    unit = np.eye(factor.shape[-1])
    for i in range(factor.shape[-1]):
        known = np.einsum("...k,...kj->...j", factor[..., i, :i], factor[..., :i, :])
        factor[..., i, :] = (unit[i] - known) / factor[..., i, i, None]
    return factor


def _residual_dots(theta, g_theta, z, d, lam) -> list[np.ndarray]:
    """The inner products that :func:`_residuals` reads, per row: one fit, its G theta,
    z and d (each zero off the fit's block) and multiplier."""
    r = g_theta - z
    kkt = 2.0 * r - lam[:, None] * d
    pairs = ((theta, d), (theta, r), (theta, g_theta), (theta, z), (theta, theta),
             (d, d), (g_theta, g_theta), (z, z), (kkt, kkt))
    return [np.einsum("ij,ij->i", a, b) for a, b in pairs]


def _residuals(dots, lam) -> dict[str, np.ndarray]:
    """The residuals of :func:`fit_residuals` from the inner products of :func:`_residual_dots`."""
    tiny = 1e-300
    t_d, t_r, t_g, t_z, t_t, d_d, g_g, z_z, kkt = dots
    return {
        "constraint": np.abs(t_d) / np.maximum(np.sqrt(t_t * d_d), tiny),
        "optimality": np.abs(t_r) / np.maximum(np.maximum(np.abs(t_g), np.abs(t_z)), tiny),
        "kkt": np.sqrt(kkt) / np.maximum(
            np.maximum(2.0 * np.sqrt(g_g), 2.0 * np.sqrt(z_z)),
            np.maximum(np.abs(lam) * np.sqrt(d_d), tiny),
        ),
    }


def fit_nested_pairs(system: DesignSystem, frontier):
    """Constrained minimizers of every pair (m1, m2) with ``m2 <= frontier[m1 - 1]``.

    ``frontier`` is nonincreasing, one entry per m1 of ``system.dims`` = (M1,
    M2). Returns ``(coef, lam, gamma, max_residuals)``: ``coef`` (M1 x M2 x
    (M1 + M2)) holds the minimizer of pair (m1, m2) at [m1 - 1, m2 - 1] as
    ``[a-part | 0 | b-part | 0]``, the padding exactly zero; ``lam`` and
    ``gamma`` (M1 x M2) its multiplier and contrast, NaN off the fitted
    pairs; ``max_residuals`` the largest residuals of :func:`fit_residuals`
    over them, from products with G formed one m1 at a time. Raises
    :class:`SingularDesignError` when a factorization fails, naming the
    smallest m1 whose system does (see the module docstring).
    """
    big_m1, big_m2 = system.dims
    frontier = np.asarray(frontier)
    top = int(np.count_nonzero(frontier))
    fitted = np.arange(big_m2) < frontier[:, None]
    coef = np.zeros((big_m1, big_m2, system.size))
    lam = np.full((big_m1, big_m2), np.nan)
    if top == 0:
        return coef, lam, lam.copy(), dict.fromkeys(("constraint", "optimality", "kkt"), 0.0)
    gram, rhs = system.gram, np.stack([system.zvec, system.dvec], axis=1)
    inv11 = _invert_lower(_cholesky(gram[:top, :top], DimPair(top, int(frontier[top - 1]))))
    l21t = inv11 @ gram[:top, big_m1:]  # L21', one row per phi member
    # Stack entry i belongs to m1 = i + 1: its complement, padded with the
    # identity past the frontier, and the psi-part of its forward solves.
    psi_idx, past = np.arange(big_m2), ~fitted[:top]
    comp = l21t[:, :, None] * l21t[:, None, :]
    np.cumsum(comp, axis=0, out=comp)
    np.subtract(gram[big_m1:, big_m1:], comp, out=comp)
    comp[past[:, :, None] | past[:, None, :]] = 0.0
    comp[:, psi_idx, psi_idx] += past
    try:
        inv22 = _invert_lower(np.linalg.cholesky(comp))
    except np.linalg.LinAlgError:
        for i, block in enumerate(comp):  # name the first pair whose system fails
            _cholesky(block, DimPair(i + 1, int(frontier[i])))
        raise
    del comp
    y1 = inv11 @ rhs[:top]
    y2 = inv22 @ (rhs[big_m1:] - np.cumsum(l21t[:, :, None] * y1[:, None, :], axis=0))
    # d'G^-1 z and d'G^-1 d of every pair, as running sums over m1 and m2.
    dz, dd = (np.cumsum(y1[:, 1] * y1[:, k])[:, None] + np.cumsum(y2[:, :, 1] * y2[:, :, k], axis=1)
              for k in (0, 1))
    ratio = np.divide(dz, dd, out=np.zeros_like(dz), where=~past & (dd > 0.0))
    lam[fitted] = np.where(dd > 0.0, -2.0 * ratio, 0.0)[~past]
    # y[i, :, j] = y_z - ratio y_d on the psi block of pair (i + 1, j + 1),
    # cut to its m2 = j + 1 entries; the b-parts are L22^-T y, stored transposed.
    y = y2[:, :, 1:] * ratio[:, None, :]
    np.subtract(y2[:, :, :1], y, out=y)
    y *= (psi_idx[:, None] <= psi_idx) & ~past[:, None, :]
    b_part = coef[:top, :, big_m1:]
    np.matmul(y.swapaxes(1, 2), inv22, out=b_part)
    del y, inv22
    # The a-parts, L11^-T (y_z - ratio y_d - L21' theta_b) cut to m1 = i + 1, also transposed.
    x = b_part @ l21t.T
    np.subtract(y1[:, 0], x, out=x)
    x -= ratio[:, :, None] * y1[:, 1]
    x *= (np.arange(top) <= np.arange(top)[:, None, None]) & ~past[:, :, None]
    np.matmul(x, inv11, out=coef[:top, :, :top])
    # The contrasts and the residuals' inner products, one m1 at a time.
    cols = np.arange(system.size)
    in_b = (cols >= big_m1) & (cols - big_m1 <= cols[:big_m2, None])  # row j: m2 = j + 1
    dots = np.zeros((9, big_m1, big_m2))
    for m1, last in enumerate(frontier[:top].tolist(), 1):
        theta = coef[m1 - 1, :last]
        keep = in_b[:last] | (cols < m1)
        g_theta = theta @ gram
        g_theta *= keep
        dots[:, m1 - 1, :last] = _residual_dots(
            theta, g_theta, keep * system.zvec, keep * system.dvec, lam[m1 - 1, :last]
        )
    res = _residuals(dots[:, fitted], lam[fitted])
    max_res = {key: float(value.max(initial=0.0)) for key, value in res.items()}
    return coef, lam, np.where(fitted, -dots[2], np.nan), max_res


def solve_constrained(system: DesignSystem) -> FitResult:
    """Closed-form constrained minimizer of the empirical contrast, by :func:`fit_nested_pairs`.

    Raises :class:`SingularDesignError` when the Gram fails the scale-aware
    eigenvalue threshold of :func:`cpls.design.inv_opnorm`; the Gram itself
    is never inverted. A Gram that passes it has a smallest eigenvalue above
    ``1e-12 * size``, so with a diagonal of at most 2 its factorizations
    succeed (see the module docstring).
    """
    if not math.isfinite(inv_opnorm(system.gram)):
        raise SingularDesignError(
            f"Gram matrix at dims {system.dims} is numerically singular"
        )
    # Relabelled with one phi member, the whole system is the one pair
    # (1, size - 1): one complement and one row of fits.
    whole = replace(system, dims=DimPair(1, system.size - 1))
    coef, lam, gamma, _ = fit_nested_pairs(whole, [system.size - 1])
    return FitResult(
        dims=system.dims,
        theta=coef[0, -1].copy(),
        truncated=False,
        lambda_multiplier=float(lam[0, -1]),
        gamma_value=float(gamma[0, -1]),
    )


def fit_residuals(system: DesignSystem, fit: FitResult) -> dict[str, float]:
    """Relative residuals of the constraint, optimality, and KKT identities.

    * ``constraint``: |<theta, d>| / (|theta| |d|)
    * ``optimality``: |theta'(G theta - z)| / max(|theta' G theta|, |theta' z|)
    * ``kkt``:        |2(G theta - z) - lambda d| / max(|2 G theta|, |2 z|, |lambda d|)

    All scales are floored to avoid division by zero for the zero fit.
    """
    theta, lam = fit.theta[None, :], np.array([fit.lambda_multiplier])
    dots = _residual_dots(theta, theta @ system.gram, system.zvec[None, :], system.dvec[None, :], lam)
    return {key: float(val[0]) for key, val in _residuals(dots, lam).items()}


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
