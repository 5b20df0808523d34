"""Adaptive dimension selection and the truth-based oracle selector.

Both selectors read one scan of the dimension pairs in
[1, max_m1] x [1, max_m2] that pass the stability event. The projection
spaces are nested, so the scan assembles the design once, at the maximal
dimensions, and works per m1: with the coordinates ordered
[phi_1..phi_m1, psi_1..psi_max_m2], every pair (m1, m2) is a leading block
of one system.

* The admissible set is found on its frontier alone. Both stability rules
  reduce to "the smallest Gram eigenvalue is at least a threshold", and the
  threshold never decreases as m1 + m2 grows (``1e-12 k`` and
  ``k log N / (cutoff N)`` in the practical rule, a sum of squared basis
  functions in the theoretical one). By Cauchy interlacing the smallest
  eigenvalue of a principal block is at least that of the whole matrix, so
  the admissible pairs form a down-set: if (m1, m2) passes, so does every
  smaller pair. A staircase walk, lowering m2 from max_m2 while the event
  fails and moving on to the next m1, decides the whole rectangle with at
  most max_m1 + max_m2 stability events.
* Every admissible pair of one m1 is fitted from one Cholesky factor of the
  system up to the frontier (:func:`cpls.estimator.fit_leading_blocks`).

The adaptive criterion is ``gamma + pen`` with ``gamma = -|fit|_N^2`` and
``pen = kappa * sigma_sq * (m1 + m2) / (N * T)``, T the full horizon. The
oracle criterion is the box-restricted integrated squared error against the
true drift pair, computable only when the truth is known. :func:`_select`
takes the admissible pair of smallest key ``(criterion, m1 + m2, m1)``: ties
break toward the smallest ``m1 + m2``, then the smallest ``m1``.

The oracle's errors come from one QR factor per side of the box, not from a
quadrature per fit. Factor the weighted Simpson-node matrix
``sqrt(w) * [phi_1 .. phi_M | a]`` as QR once; as Q has orthonormal columns,
a fit's error is ``|R [theta, 0, -1]|^2``, a sum of M + 1 squares. It can
never be negative and cancels nothing, unlike the expanded form
``theta' B theta - 2 theta' c + int a^2``, which was up to 6.0e-8 relative
off on short boxes, where 39 Hermite functions are nearly dependent (the
Y (B) cells of table 1). See :func:`oracle_errors`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .bases import BasisFamily, eval_rows
from .design import DesignSystem, DimPair, build_design, subsystem
from .estimator import (
    FitResult,
    StabilityRule,
    fit_leading_blocks,
    fit_residuals,
    leading_block_residuals,
    solve_constrained,
    stability_event,
)
from .quadrature import simpson_grid
from .simulate import PathSample, SdeModel

#: Simpson nodes per axis of every box-error integral (oracle criterion, box MSE).
MSE_NODES = 2001

#: Default scan bound for both dimensions: the smallest value at which no
#: adaptive choice on the benchmark grid sits on the edge of the scan
#: rectangle, so the selector returns the penalized minimizer rather than the
#: bound. At 25, model 1 (a1 = -1.5 cos(2x), not in L2) chose m1 = 25 in most
#: N = 1000 repetitions and the error the fit could not capture leaked into b
#: as a constant. See docs/acceptance_diagnosis.md.
SCAN_BOUND = 39


@dataclass(frozen=True)
class SelectionConfig:
    """Scan bounds, penalty constants, and the stability rule.

    ``sigma_sq`` is the squared sup-norm of the (known) diffusion
    coefficient. The empirical norm and the penalty are normalized by the
    full horizon T of the sample's grid.
    """

    kappa: float = 8.0
    sigma_sq: float = 2.25
    max_m1: int = SCAN_BOUND
    max_m2: int = SCAN_BOUND
    stability: StabilityRule = field(default_factory=StabilityRule)

    def __post_init__(self):
        if not (self.kappa > 0):
            raise ValueError(f"kappa must be positive, got {self.kappa!r}")
        if self.sigma_sq < 0:
            raise ValueError(f"sigma_sq must be nonnegative, got {self.sigma_sq!r}")
        if self.max_m1 < 1 or self.max_m2 < 1:
            raise ValueError("scan bounds must be at least 1")


@dataclass
class TableEntry:
    gamma: float
    penalty: float
    admissible: bool

    @property
    def criterion(self) -> float:
        return self.gamma + self.penalty


@dataclass
class SelectionResult:
    """Every pair's criterion and the chosen fit (zero at (1, 1), with
    ``fit.truncated`` set, when no pair is admissible)."""

    criterion_table: dict[DimPair, TableEntry]
    fit: FitResult

    @property
    def chosen(self) -> DimPair:
        return self.fit.dims


@dataclass
class DimensionScan:
    """All admissible fits from one cached design assembly: the keys of
    ``fits`` are the admissible set, a down-set of ``design.dims``."""

    design: DesignSystem
    phi: BasisFamily
    psi: BasisFamily
    n_paths: int
    config: SelectionConfig
    fits: dict[DimPair, FitResult]
    max_residuals: dict[str, float]

    def penalty(self, dims: DimPair) -> float:
        cfg = self.config
        return cfg.kappa * cfg.sigma_sq * dims.total / (self.n_paths * self.design.t_norm)


_RESIDUAL_KEYS = ("constraint", "optimality", "kkt")


def _fit_block(block: DesignSystem) -> tuple[list[FitResult], dict[str, float]]:
    """Fits of every pair (m1, 1..m2) of ``block`` = the system at (m1, m2).

    Also returns the largest residual of each kind over those fits.
    """
    m1, top = block.dims
    m2s = range(1, top + 1)
    sizes = [m1 + m2 for m2 in m2s]
    solved = fit_leading_blocks(block, sizes)
    if solved is None:
        # The factorization failed: pair by pair, each with its own fallback.
        pairs = [subsystem(block, DimPair(m1, m2)) for m2 in m2s]
        fits = [solve_constrained(pair, check_singular=False) for pair in pairs]
        res = [fit_residuals(pair, fit) for pair, fit in zip(pairs, fits)]
        return fits, {key: max(r[key] for r in res) for key in _RESIDUAL_KEYS}
    theta, lam, gamma = solved
    fits = [
        FitResult(
            dims=DimPair(m1, m2),
            theta=theta[:size, j].copy(),
            lambda_multiplier=float(lam[j]),
            gamma_value=float(gamma[j]),
        )
        for j, (m2, size) in enumerate(zip(m2s, sizes))
    ]
    res = leading_block_residuals(block, theta, lam, sizes)
    return fits, {key: float(res[key].max()) for key in _RESIDUAL_KEYS}


def scan_design(
    design: DesignSystem,
    n_paths: int,
    phi: BasisFamily,
    psi: BasisFamily,
    config: SelectionConfig,
) -> DimensionScan:
    """Fit every admissible pair of the rectangle [1, M1] x [1, M2] = ``design.dims``.

    The stability event runs only along the frontier of the admissible
    set (at most M1 + M2 calls): the set is a down-set (see the module
    docstring), so a pair below the frontier passes and a pair above it
    fails. Per m1, one Cholesky factor of the system up to the frontier
    fits every admissible m2.
    """
    max_m1, max_m2 = design.dims
    fitted: dict[DimPair, FitResult] = {}
    max_res = dict.fromkeys(_RESIDUAL_KEYS, 0.0)
    m2 = max_m2
    for m1 in range(1, max_m1 + 1):
        # Every pair (m1, m2) is a leading block of this system.
        block = subsystem(design, DimPair(m1, max_m2))
        while m2 > 0 and not stability_event(
            subsystem(block, DimPair(m1, m2)), n_paths, config.stability, phi, psi
        ):
            m2 -= 1
        if m2 == 0:
            break
        fits, res = _fit_block(subsystem(block, DimPair(m1, m2)))
        fitted.update((fit.dims, fit) for fit in fits)
        max_res = {key: max(max_res[key], res[key]) for key in _RESIDUAL_KEYS}
    return DimensionScan(
        design=design,
        phi=phi,
        psi=psi,
        n_paths=n_paths,
        config=config,
        fits=fitted,
        max_residuals=max_res,
    )


def scan_bounds(config: SelectionConfig, n_paths: int) -> DimPair:
    """The scan rectangle for ``n_paths`` paths: each bound capped at the number of paths."""
    return DimPair(min(config.max_m1, n_paths), min(config.max_m2, n_paths))


def scan_dimension_grid(
    sample: PathSample,
    phi: BasisFamily,
    psi: BasisFamily,
    config: SelectionConfig,
) -> DimensionScan:
    """Fit every admissible pair in the scan rectangle, sharing one design.

    The design is assembled once at the scan bounds (each capped at the
    number of paths); :func:`scan_design` does the rest.
    """
    n = sample.n_paths
    design = build_design(sample, phi, psi, scan_bounds(config, n), sample.grid.total_time)
    return scan_design(design, n, phi, psi, config)


@functools.cache
def _rectangle(dims: DimPair) -> tuple[DimPair, ...]:
    """Every pair of [1, m1] x [1, m2], made once per rectangle."""
    return tuple(DimPair(m1, m2) for m1 in range(1, dims.m1 + 1) for m2 in range(1, dims.m2 + 1))


def _select(scan: DimensionScan, gamma, penalty) -> SelectionResult:
    """Minimize ``gamma(fit) + penalty(dims)`` over ``scan.fits``. The table
    covers the rectangle, with gamma NaN at each pair that is not admissible."""
    table = {}
    for dims in _rectangle(scan.design.dims):
        fit = scan.fits.get(dims)
        value = math.nan if fit is None else gamma(fit)
        table[dims] = TableEntry(value, penalty(dims), fit is not None)
    # The tie-break key; a criterion that is not finite never wins.
    best = min(
        ((crit, dims.total, dims.m1, dims) for dims, entry in table.items()
         if entry.admissible and math.isfinite(crit := entry.criterion)),
        default=None,
    )
    fit = FitResult.zero(DimPair(1, 1)) if best is None else scan.fits[best[-1]]
    return SelectionResult(criterion_table=table, fit=fit)


def select_adaptive_from_scan(scan: DimensionScan) -> SelectionResult:
    return _select(scan, lambda fit: fit.gamma_value, scan.penalty)


def select_adaptive(
    sample: PathSample,
    phi: BasisFamily,
    psi: BasisFamily,
    config: SelectionConfig,
) -> SelectionResult:
    """Penalized-contrast dimension selection over the admissible scan."""
    return select_adaptive_from_scan(scan_dimension_grid(sample, phi, psi, config))


def _box_factor(family: BasisFamily, m: int, lo: float, hi: float, truth) -> np.ndarray:
    """R of the QR factor of ``sqrt(w) * [f_1(g) .. f_m(g) | truth(g)]``.

    g and w are the Simpson nodes and weights of [lo, hi], and f_k the
    members of ``family``. For any coefficients theta of length m,
    ``|R @ [theta, -1]|^2`` is the Simpson error of ``sum_k theta_k f_k``
    against ``truth``.
    """
    nodes, weights = simpson_grid(lo, hi, MSE_NODES)
    rows = np.empty((m + 1, MSE_NODES))
    eval_rows(family, m, nodes, out=rows[:m])
    rows[m] = truth(nodes)
    rows *= np.sqrt(weights)
    return np.linalg.qr(rows.T, mode="r")


def oracle_errors(
    scan: DimensionScan, truth: SdeModel, bounds
) -> dict[DimPair, tuple[float, float]]:
    """Box-restricted squared errors (a-part, b-part) of every fitted pair.

    The quadrature runs once per component, not once per fit. On the
    Simpson nodes g (weights w) of one side of the box, :func:`_box_factor`
    factors ``F = sqrt(w) * [phi_1(g) .. phi_M(g) | a(g)] = Q R`` with
    orthonormal columns in Q, so ``|F v| = |R v|`` for every v. Name the
    pieces of R: ``q = R[:M, M]`` is the truth column and ``rho = R[M, M]``
    its last entry. A fit with m members is ``v = [theta, 0 .. 0, -1]``, and
    its Simpson error ``sum w (sum_k theta_k phi_k - a)^2`` is

        |R[:m, :m] theta - q[:m]|^2 + sum_{k >= m} q_k^2 + rho^2,

    M + 1 squares per fit in place of 2001 nodes. Every term is a square, so
    an error can never come out negative, and the sum cancels nothing. The
    expanded normal-equation form ``theta' B theta - 2 theta' c + int a^2``
    (B the box Gram matrix) was rejected: it takes a small error as the
    difference of terms the size of ``int a^2``, and B has the square of
    F's condition number. On short boxes, where 39 Hermite functions are
    nearly dependent (the Y (B) cells), it was up to 6.0e-8 relative off the
    node-by-node quadrature over 36 scans covering the 12 cells of table 1,
    against 5.4e-12 for this form.

    ``R v`` for every fit is one matrix product per component; the sums of
    squares are plain column sums (``einsum``, not a BLAS product), so they
    do not depend on the BLAS thread count.
    """
    if not scan.fits:
        return {}
    big = scan.design.dims
    r_a = _box_factor(scan.phi, big.m1, bounds.a_x, bounds.b_x, truth.a)
    r_b = _box_factor(scan.psi, big.m2, bounds.a_y, bounds.b_y, truth.b)
    fits = scan.fits.values()
    m1 = np.array([fit.dims.m1 for fit in fits])[:, None]
    m2 = np.array([fit.dims.m2 for fit in fits])[:, None]
    # Row j: fit j's a-coefficients, zeros up to M1, its b-coefficients,
    # zeros up to M2. A boolean mask fills its True places in row-major
    # order, which is the order of the concatenated thetas.
    col = np.arange(big.total)
    coef = np.zeros((len(fits), big.total))
    coef[(col < m1) | ((col >= big.m1) & (col < big.m1 + m2))] = np.concatenate(
        [fit.theta for fit in fits]
    )
    # R @ [theta, -1] for every fit at once, one product per component.
    res_a = coef[:, : big.m1] @ r_a[:, :-1].T - r_a[:, -1]
    res_b = coef[:, big.m1 :] @ r_b[:, :-1].T - r_b[:, -1]
    err_a = np.einsum("ji,ji->j", res_a, res_a).tolist()
    err_b = np.einsum("ji,ji->j", res_b, res_b).tolist()
    return dict(zip(scan.fits, zip(err_a, err_b)))


def select_oracle_from_scan(scan: DimensionScan, truth: SdeModel, bounds) -> SelectionResult:
    errors = oracle_errors(scan, truth, bounds)
    return _select(scan, lambda fit: sum(errors[fit.dims]), lambda dims: 0.0)


def criterion_table_rows(result: SelectionResult) -> list[tuple]:
    """Rows (m1, m2, gamma, pen, admissible, criterion), m1-major, for CSV dumps."""
    return [
        (dims.m1, dims.m2, entry.gamma, entry.penalty, entry.admissible, entry.criterion)
        for dims, entry in result.criterion_table.items()
    ]
