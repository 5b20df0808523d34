"""Adaptive dimension selection and the oracle selector.

Both selectors read one scan of the dimension pairs in
[1, max_m1] x [1, max_m2] that pass the stability event. The projection
spaces are nested, so the scan assembles the design once, at the maximal
dimensions, and every pair (m1, m2) is a principal block of it: with the
coordinates ordered [phi_1..phi_max_m1, psi_1..psi_max_m2], the block of
the first m1 phi and the first m2 psi members.

* The admissible set is found on its frontier alone. Both stability rules
  reduce to "the smallest Gram eigenvalue is at least a threshold", and the
  threshold never decreases as m1 + m2 grows (``1e-12 k`` and
  ``k log N / (cutoff N)`` in the practical rule, a sum of squared basis
  functions in the theoretical one). By Cauchy interlacing the smallest
  eigenvalue of a principal block is at least that of the whole matrix, so
  the admissible pairs form a down-set: if (m1, m2) passes, so does every
  smaller pair. The scan first tries the corner (max_m1, max_m2); if it
  passes, the whole rectangle is admissible after one stability event.
  Otherwise a staircase walk, lowering m2 from max_m2 while the event fails
  and moving on to the next m1, decides the rectangle; it reuses the
  corner's outcome, so the scan never makes more than max_m1 + max_m2
  events.
* The design holds only the rows the admissible pairs can reach
  (:func:`cpls.design.build_trimmed_designs`): when the first 128 paths
  show the pairs (m1, 1) and (1, m2) clearing the eigenvalue floor well
  inside the rectangle, the pass cuts its later blocks to
  (M1', M2'), a margin past those edges. The cut rests on an estimate, so
  the scan checks it (:func:`scan_trimmed`): with the set a down-set, no
  admissible pair lies past the cut when (M1', 1) fails the event (or
  M1' = max_m1) and (1, M2') fails it (or M2' = max_m2). The staircase
  walk decides both pairs anyway, so the check is two reads of the
  frontier: its last entry 0, its first below M2'. When it fails, the scan
  assembles the full design of the same paths and scans that, so the
  result is bitwise the untrimmed scan's. A trimmed scan's tables keep the
  rectangle's shape and layout; its pairs past the cut are not admissible.
* Every admissible pair is fitted at once, by block elimination in the
  [phi | psi] order (:func:`cpls.estimator.fit_nested_pairs`): one Cholesky
  factor of the phi block up to the last m1 with an admissible pair, and
  one stacked factor of the psi Schur complements of all m1, each cut at
  its frontier. The residual maxima are taken one m1 at a time.
* The scan is stored as arrays, not as one object per pair: the frontier
  (the largest admissible m2 of each m1), the contrast and multiplier of
  each pair as M1 x M2 tables, and every fit's coefficients in one array
  of rows ``[a-part | 0 | b-part | 0]``. Every reader indexes these arrays;
  only the chosen pair's ``FitResult`` is built
  (:meth:`DimensionScan.fit_at`).

The adaptive criterion is ``gamma + pen`` with ``gamma = -|fit|_N^2`` and
``pen = kappa * sigma_sq * (m1 + m2) / (N * T)``, T the full horizon. The
oracle criterion is the box-restricted integrated squared error against the
true drift pair, computable only when the truth is known; its tables come
from :func:`cpls.experiments.mse_box`. :func:`_select` takes the admissible
pair of smallest key ``(criterion, m1 + m2, m1)``: ties break toward the
smallest ``m1 + m2``, then the smallest ``m1``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .bases import BasisFamily
from .design import DesignSystem, DimPair, build_design, build_trimmed_designs, subsystem
from .estimator import FitResult, StabilityRule, fit_nested_pairs, stability_event
# Unused here: the benchmark's tracer (benchmarks/tracing.py) wraps these two bindings.
from .estimator import fit_residuals, solve_constrained
from .simulate import PathSample

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
        if not (math.isfinite(self.kappa) and self.kappa > 0):
            raise ValueError(f"kappa must be finite and positive, got {self.kappa!r}")
        if not (math.isfinite(self.sigma_sq) and self.sigma_sq >= 0):
            raise ValueError(f"sigma_sq must be finite and nonnegative, got {self.sigma_sq!r}")
        if self.max_m1 < 1 or self.max_m2 < 1:
            raise ValueError("scan bounds must be at least 1")


@dataclass
class TableEntry:
    gamma: float
    penalty: float
    admissible: bool


@dataclass
class SelectionResult:
    """The chosen fit (zero at (1, 1), with ``fit.truncated`` set, when no
    pair is admissible) and every pair's criterion.

    ``gamma``, ``penalty`` and ``admissible`` are M1 x M2 arrays over the
    scan rectangle, entry [m1 - 1, m2 - 1] for pair (m1, m2); ``gamma`` is
    NaN where the pair is not admissible.
    """

    fit: FitResult
    gamma: np.ndarray
    penalty: np.ndarray
    admissible: np.ndarray

    @property
    def chosen(self) -> DimPair:
        return self.fit.dims

    @functools.cached_property
    def criterion_table(self) -> Mapping[DimPair, TableEntry]:
        """Every pair's entry, m1-major; a read-only view built on first access.

        Kept for the benchmark's argmin check
        (``benchmarks/checks.py::chosen_is_argmin``), which reads the table
        pair by pair; the program reads the arrays.
        """
        big_m1, big_m2 = self.gamma.shape
        pairs = (DimPair(m1, m2) for m1 in range(1, big_m1 + 1) for m2 in range(1, big_m2 + 1))
        entries = zip(self.gamma.ravel().tolist(), self.penalty.ravel().tolist(),
                      self.admissible.ravel().tolist())
        return MappingProxyType({dims: TableEntry(*entry) for dims, entry in zip(pairs, entries)})


@dataclass
class DimensionScan:
    """All admissible fits from one cached design assembly, as arrays.

    Pair (m1, m2) of the rectangle [1, M1] x [1, M2] = :attr:`dims` is
    admissible when ``m2 <= frontier[m1 - 1]``. ``gamma`` and ``lam`` (M1 x
    M2) hold each admissible pair's contrast and multiplier at
    [m1 - 1, m2 - 1]; ``coef`` (M1 x M2 x (M1 + M2)) holds its coefficients
    as ``[a-part | 0 | b-part | 0]``, the a-part from column 0 and the
    b-part from column M1. Entries of pairs that are not admissible are
    never read. ``design`` spans the rectangle, or, for a trimmed design
    (:func:`scan_trimmed`), fewer rows that still hold every admissible
    pair.
    """

    design: DesignSystem
    phi: BasisFamily
    psi: BasisFamily
    n_paths: int
    config: SelectionConfig
    frontier: np.ndarray
    gamma: np.ndarray
    lam: np.ndarray
    coef: np.ndarray
    max_residuals: dict[str, float]

    @property
    def dims(self) -> DimPair:
        """The scan rectangle (M1, M2), the shape of the tables."""
        return DimPair(*self.gamma.shape)

    @property
    def admissible(self) -> np.ndarray:
        """M1 x M2 mask of the admissible pairs."""
        return np.arange(1, self.dims.m2 + 1) <= self.frontier[:, None]

    @property
    def penalty(self) -> np.ndarray:
        """``kappa * sigma_sq * (m1 + m2) / (N * T)`` at every pair, M1 x M2."""
        cfg = self.config
        m1, m2 = self.dims
        total = np.add.outer(np.arange(1, m1 + 1), np.arange(1, m2 + 1))
        return cfg.kappa * cfg.sigma_sq * total / (self.n_paths * self.design.t_norm)

    def fit_at(self, m1: int, m2: int) -> FitResult:
        """The fit of one admissible pair, its coefficients copied out of ``coef``."""
        row = self.coef[m1 - 1, m2 - 1]
        big_m1 = self.dims.m1
        return FitResult(
            dims=DimPair(m1, m2),
            theta=np.concatenate([row[:m1], row[big_m1 : big_m1 + m2]]),
            lambda_multiplier=float(self.lam[m1 - 1, m2 - 1]),
            gamma_value=float(self.gamma[m1 - 1, m2 - 1]),
        )


def scan_design(
    design: DesignSystem,
    n_paths: int,
    phi: BasisFamily,
    psi: BasisFamily,
    config: SelectionConfig,
) -> DimensionScan:
    """Fit every admissible pair of the rectangle [1, M1] x [1, M2] = ``design.dims``.

    The stability event runs at the corner (M1, M2) and, only when that
    fails, along the frontier of the admissible set, at most M1 + M2 calls
    in all: the set is a down-set (see the module docstring), so every pair
    passes when the corner does, and otherwise a pair below the frontier
    passes and a pair above it fails. Then one call fits every admissible
    pair from one factor of the phi block and a stacked factor of the psi
    Schur complements. Every system it factors passed the event or is a
    principal block (or a Schur complement in one) of a system that did, so
    no factorization can fail (see :mod:`cpls.estimator`); if one does, the
    scan raises :class:`cpls.estimator.SingularDesignError`.
    """
    return _scan(design, design.dims, n_paths, phi, psi, config)


def _scan(design, dims, n_paths, phi, psi, config) -> DimensionScan | None:
    """:func:`scan_design` over the rectangle ``dims``, from a design that spans it or fewer rows.

    None when a trimmed side's certificate fails: the admissible set of a
    design cut to (M1', M2') lies inside it when, in that design, (M1', 1)
    fails if M1' < M1 and (1, M2') fails if M2' < M2 (the set is a
    down-set). The frontier decides both: its last entry is 0, its first
    below M2'. The fits are then copied into the rectangle's layout.
    """
    max_m1, max_m2 = design.dims
    frontier = np.full(max_m1, max_m2)
    if not stability_event(design, n_paths, config.stability, phi, psi):
        m2 = max_m2
        for m1 in range(1, max_m1 + 1):
            # lower m2 while the event fails; the corner is known to fail
            while m2 > 0 and ((m1, m2) == (max_m1, max_m2) or not stability_event(
                    subsystem(design, DimPair(m1, m2)), n_paths, config.stability, phi, psi)):
                m2 -= 1
            frontier[m1 - 1] = m2
    if (max_m1 < dims.m1 and frontier[-1] > 0) or (max_m2 < dims.m2 and frontier[0] == max_m2):
        return None
    coef, lam, gamma, max_res = fit_nested_pairs(design, frontier)
    if design.dims != dims:
        full = np.zeros((dims.m1, dims.m2, dims.total))
        full[:max_m1, :max_m2, :max_m1] = coef[:, :, :max_m1]
        full[:max_m1, :max_m2, dims.m1 : dims.m1 + max_m2] = coef[:, :, max_m1:]
        tables = np.full((2, dims.m1, dims.m2), np.nan)
        tables[:, :max_m1, :max_m2] = lam, gamma
        coef, (lam, gamma) = full, tables
        frontier = np.pad(frontier, (0, dims.m1 - max_m1))
    return DimensionScan(
        design=design,
        phi=phi,
        psi=psi,
        n_paths=n_paths,
        config=config,
        frontier=frontier,
        gamma=gamma,
        lam=lam,
        coef=coef,
        max_residuals=max_res,
    )


def scan_trimmed(
    design: DesignSystem,
    sample: PathSample,
    n_paths: int,
    phi: BasisFamily,
    psi: BasisFamily,
    config: SelectionConfig,
) -> DimensionScan:
    """The scan of the first ``n_paths`` paths of ``sample`` over :func:`scan_bounds`'s rectangle.

    ``design`` is their design by :func:`cpls.design.build_trimmed_designs`.
    When it was cut and the certificate fails (an admissible pair may lie
    past its rows; see :func:`_scan`), the full design is assembled from
    those paths and scanned, so the result is then bitwise what
    :func:`scan_design` gives on :func:`cpls.design.build_design`'s design.
    """
    dims = scan_bounds(config, n_paths)
    scan = _scan(design, dims, n_paths, phi, psi, config)
    if scan is None:
        head = PathSample(sample.grid, sample.x[:n_paths], sample.y[:n_paths])
        scan = scan_design(build_design(head, phi, psi, dims, design.t_norm), n_paths, phi, psi, config)
    return scan


def scan_bounds(config: SelectionConfig, n_paths: int) -> DimPair:
    """The scan rectangle for ``n_paths`` paths: each bound capped at the number of paths.

    Raises ValueError for fewer than two paths, where the stability event's
    budget ``N / log N`` is undefined.
    """
    if n_paths < 2:
        raise ValueError(f"n_paths must be >= 2, got {n_paths}")
    return DimPair(min(config.max_m1, n_paths), min(config.max_m2, n_paths))


def scan_dimension_grid(
    sample: PathSample,
    phi: BasisFamily,
    psi: BasisFamily,
    config: SelectionConfig,
) -> DimensionScan:
    """Fit every admissible pair in the scan rectangle, sharing one design.

    The design is assembled once at the scan bounds (each capped at the
    number of paths), trimmed to the rows an admissible pair can reach
    (:func:`cpls.design.build_trimmed_designs`); :func:`scan_trimmed` does
    the rest.
    """
    n = sample.n_paths
    (design,) = build_trimmed_designs(sample, phi, psi, scan_bounds(config, n), (n,), sample.grid.total_time)
    return scan_trimmed(design, sample, n, phi, psi, config)


def _select(scan: DimensionScan, gamma: np.ndarray, penalty: np.ndarray) -> SelectionResult:
    """Minimize ``gamma + penalty`` (M1 x M2 arrays) over the admissible pairs.

    The key is ``(criterion, m1 + m2, m1)``, and a criterion that is not
    finite never wins. Only the chosen pair's fit is built.
    """
    admissible = scan.admissible
    gamma = np.where(admissible, gamma, np.nan)
    criterion = gamma + penalty  # NaN off the admissible set
    finite = np.isfinite(criterion)
    if finite.any():
        i1, i2 = np.nonzero(finite & (criterion == criterion[finite].min()))
        k = np.lexsort((i1, i1 + i2))[0]
        fit = scan.fit_at(int(i1[k]) + 1, int(i2[k]) + 1)
    else:
        fit = FitResult.zero(DimPair(1, 1))
    return SelectionResult(fit=fit, gamma=gamma, penalty=penalty, admissible=admissible)


def select_adaptive_from_scan(scan: DimensionScan) -> SelectionResult:
    return _select(scan, scan.gamma, scan.penalty)


def select_adaptive(
    sample: PathSample,
    phi: BasisFamily,
    psi: BasisFamily,
    config: SelectionConfig,
) -> SelectionResult:
    """Penalized-contrast dimension selection over the admissible scan."""
    return select_adaptive_from_scan(scan_dimension_grid(sample, phi, psi, config))


def select_oracle_from_scan(scan: DimensionScan, err_a: np.ndarray, err_b: np.ndarray) -> SelectionResult:
    """Minimize the box error ``err_a + err_b`` (M1 x M2 tables) over the admissible pairs."""
    return _select(scan, err_a + err_b, np.zeros(err_a.shape))
