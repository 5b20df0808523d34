"""Orthonormal function families used as projection spaces.

Four families are supported, each orthonormal in L2 of its support:

* ``trig``          -- [0,1] trigonometric basis including the constant:
                       1, sqrt(2)cos(2*pi*x), sqrt(2)sin(2*pi*x),
                       sqrt(2)cos(4*pi*x), sqrt(2)sin(4*pi*x), ...
* ``trig-noconst``  -- same frequencies without the constant function, so
                       every element integrates to zero over [0,1].
* ``laguerre``      -- Laguerre functions on [0, inf):
                       l_k(x) = sqrt(2) L_k(2x) exp(-x), with L_k the
                       Laguerre polynomials.
* ``hermite``       -- Hermite functions on the whole line:
                       h_k(x) = (2^k k! sqrt(pi))^{-1/2} H_k(x) exp(-x^2/2).

Outside its support a family evaluates to zero (indicator convention).
Evaluation uses stable normalized recurrences throughout; the classical
polynomial definitions overflow long before k = 200.

The Hermite family is also exactly zero in its far tail, where
|x| > max(x0, sqrt(2m + 1) + 17) for the first ``m`` members. There
x0 = 26.605 is the point where h_0 = 2^-511, so below x0 every product of
two members is a normal number; beyond it the recurrence would make
subnormal values, whose products slow the design's BLAS product: about
30 % of a Y (A) sample's points lie that far out, and there a design
block's product took 2.15 ms against 1.93 ms with the zeros, as long as a
Y (B) block takes. The zeros keep the designs' bits. A scaled
recurrence, which cannot underflow, puts every member below 1e-111 at the
cut for m = 1 ... 1000; a cut at x0 alone would not be safe, as the members
of m = 300 reach 5e-8 there. For m <= 45, which covers the default scan
bound, the cut is x0, so every such call gives the same values.

Every integral-type diagnostic of the package (orthonormality checks, box
MSEs, oracle criteria) uses the fixed-grid Simpson rule :func:`simpson_grid`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

SQRT2 = math.sqrt(2.0)


class BasisKind(enum.Enum):
    TRIG = "trig"
    TRIG_NO_CONST = "trig-noconst"
    LAGUERRE = "laguerre"
    HERMITE = "hermite"


@dataclass(frozen=True)
class BasisFamily:
    """An orthonormal family identified by kind, with its support interval."""

    kind: BasisKind

    @property
    def support(self) -> tuple[float, float]:
        if self.kind in (BasisKind.TRIG, BasisKind.TRIG_NO_CONST):
            return (0.0, 1.0)
        if self.kind is BasisKind.LAGUERRE:
            return (0.0, math.inf)
        return (-math.inf, math.inf)

    @property
    def name(self) -> str:
        return self.kind.value


TRIG = BasisFamily(BasisKind.TRIG)
TRIG_NO_CONST = BasisFamily(BasisKind.TRIG_NO_CONST)
LAGUERRE = BasisFamily(BasisKind.LAGUERRE)
HERMITE = BasisFamily(BasisKind.HERMITE)

_BY_NAME = {f.name: f for f in (TRIG, TRIG_NO_CONST, LAGUERRE, HERMITE)}


def family_by_name(name: str) -> BasisFamily:
    """Look up a family by its CLI identifier."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown basis {name!r}; choose from {sorted(_BY_NAME)}"
        ) from None


def _check_m(m: int) -> int:
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"dimension m must be a positive integer, got {m!r}")
    return int(m)


def _trig_rows(x: np.ndarray, m: int, first: int, out: np.ndarray) -> None:
    # Row k is trig member first + k, zero outside [0, 1]; ``first = 1``
    # skips the constant: 1, sqrt(2) cos(2 pi j x) for odd c = 2j - 1,
    # sqrt(2) sin(2 pi j x) for even c = 2j.
    out[...] = 0.0
    inside = (x >= 0.0) & (x <= 1.0)
    two_pi_x = 2.0 * math.pi * x[inside]
    for k in range(m):
        c = first + k
        if c == 0:
            row = np.ones_like(two_pi_x)
        elif c % 2 == 1:
            row = SQRT2 * np.cos(((c + 1) // 2) * two_pi_x)
        else:
            row = SQRT2 * np.sin((c // 2) * two_pi_x)
        out[k, ...][inside] = row


def _laguerre_rows(x: np.ndarray, m: int, out: np.ndarray) -> None:
    # Recurrence on u_k = L_k(2x) exp(-x), from u_{-1} = 0; |u_k| <= 1, so
    # no overflow even for very large x where L_k(2x) itself would.
    out[...] = 0.0
    inside = x >= 0.0
    xi = x[inside]
    z = 2.0 * xi
    u_prev, u = 0.0, np.exp(-xi)
    for k in range(m):
        out[k, ...][inside] = SQRT2 * u
        u, u_prev = ((2 * k + 1 - z) * u - k * u_prev) / (k + 1), u


# Where h_0 = 2^-511: the start of the Hermite zero tail (module docstring).
_HERMITE_TAIL = math.sqrt(2.0 * (511 * math.log(2.0) - 0.25 * math.log(math.pi)))


def _hermite_rows(x: np.ndarray, m: int, out: np.ndarray) -> None:
    # Each recurrence step writes one row in place, with the same operation
    # order as the textbook expression
    # h_{k+1} = x sqrt(2/(k+1)) h_k - sqrt(k/(k+1)) h_{k-1}.
    # A zero h_0 beyond the tail cut makes every later row zero there.
    np.multiply(-0.5 * x, x, out=out[0, ...])
    np.exp(out[0, ...], out=out[0, ...])
    out[0, ...] *= math.pi ** -0.25
    out[0, ...][np.abs(x) > max(_HERMITE_TAIL, math.sqrt(2.0 * m + 1.0) + 17.0)] = 0.0
    if m > 1:
        np.multiply(SQRT2 * x, out[0, ...], out=out[1, ...])
    tmp = np.empty(x.shape)
    for k in range(1, m - 1):
        np.multiply(x, math.sqrt(2.0 / (k + 1)), out=out[k + 1, ...])
        out[k + 1, ...] *= out[k, ...]
        np.multiply(out[k - 1, ...], math.sqrt(k / (k + 1)), out=tmp)
        out[k + 1, ...] -= tmp


def eval_rows(
    family: BasisFamily, m: int, x: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Evaluate the first ``m`` family members at every point of ``x``, member-major.

    ``m`` is a positive integer. Returns an array of shape
    ``(m,) + x.shape`` whose entry ``[k, ...]`` is member ``k + 1`` at
    ``x``; points outside the support give zeros. Every family fills its
    rows in place, one member at a time, which is the cheap layout to fill
    and to take ``V @ V.T`` products of.

    With ``out`` (shape ``(m,) + x.shape``, for instance a block of rows of
    a larger buffer), the values are written into it and ``out`` is
    returned; otherwise a C-contiguous array is allocated.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("basis evaluation requires finite arguments")
    m = _check_m(m)
    if out is None:
        out = np.empty((m,) + x.shape)
    elif out.shape != (m,) + x.shape:
        raise ValueError(f"out must have shape {(m,) + x.shape}, got {out.shape}")
    if family.kind is BasisKind.HERMITE:
        _hermite_rows(x, m, out)
    elif family.kind is BasisKind.LAGUERRE:
        _laguerre_rows(x, m, out)
    else:
        _trig_rows(x, m, 0 if family.kind is BasisKind.TRIG else 1, out)
    return out


def eval_matrix(family: BasisFamily, m: int, x: np.ndarray) -> np.ndarray:
    """:func:`eval_rows` point-major: shape ``x.shape + (m,)``, C-contiguous."""
    return np.ascontiguousarray(np.moveaxis(eval_rows(family, m, x), 0, -1))


def delta_vector(family: BasisFamily, m: int) -> np.ndarray:
    """Integrals of the first ``m`` family members over the support.

    Closed forms per family:

    * trig:          (1, 0, ..., 0)
    * trig-noconst:  all zeros
    * laguerre:      entry k (1-based) is sqrt(2) * (-1)^(k-1)
    * hermite:       odd-degree functions integrate to zero; degree 2k gives
                     sqrt(2) pi^{1/4} sqrt((2k)!) / (2^k k!)
    """
    m = _check_m(m)
    if family.kind is BasisKind.TRIG:
        out = np.zeros(m)
        out[0] = 1.0
        return out
    if family.kind is BasisKind.TRIG_NO_CONST:
        return np.zeros(m)
    if family.kind is BasisKind.LAGUERRE:
        signs = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
        return SQRT2 * signs
    out = np.zeros(m)
    for idx in range(m):
        deg = idx  # family entry idx is the Hermite function of degree idx
        if deg % 2 == 0:
            k = deg // 2
            log_ratio = 0.5 * math.lgamma(2 * k + 1) - k * math.log(2.0) - math.lgamma(k + 1)
            out[idx] = SQRT2 * math.pi ** 0.25 * math.exp(log_ratio)
    return out


def _hermite_sup_grid(m: int) -> float:
    # Grid maximum of sum_k h_k^2 on a symmetric interval wide enough to
    # contain the oscillatory region of every member; step 1e-3. The small
    # relative margin covers the off-grid remainder (second-order in the
    # step, observed < 2e-7).
    half = max(10.0, math.sqrt(2.0 * m + 1.0) + 2.0)
    n = int(round(2 * half / 1e-3)) + 1
    x = np.linspace(-half, half, n)
    total = np.zeros_like(x)
    for h in eval_rows(HERMITE, m, x):
        total += h * h
    return float(total.max()) * (1.0 + 1e-6)


@lru_cache(maxsize=None)
def _sup_norm_bound_cached(kind: BasisKind, m: int) -> float:
    if kind is BasisKind.HERMITE:
        return _hermite_sup_grid(m)
    # Laguerre: each member is bounded by sqrt(2), and the bound 2m is tight.
    # Trigonometric: 2m is a valid upper bound for both variants.
    return 2.0 * m


def sup_norm_bound(family: BasisFamily, m: int) -> float:
    """Upper bound (Hermite: dense-grid estimate) of sup_x sum_{j<=m} phi_j(x)^2."""
    m = _check_m(m)
    return _sup_norm_bound_cached(family.kind, m)


def simpson_grid(a: float, b: float, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Return nodes and weights of the composite Simpson rule on [a, b].

    ``n_nodes`` must be odd and at least 3 (an even number of subintervals).
    ``sum(w * f(x))`` then approximates the integral of ``f`` over ``[a, b]``.
    """
    if n_nodes < 3 or n_nodes % 2 == 0:
        raise ValueError(f"n_nodes must be odd and >= 3, got {n_nodes}")
    if not (np.isfinite(a) and np.isfinite(b)) or b <= a:
        raise ValueError(f"invalid interval [{a}, {b}]")
    x = np.linspace(a, b, n_nodes)
    h = (b - a) / (n_nodes - 1)
    w = np.full(n_nodes, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return x, w * (h / 3.0)


# Truncation of unbounded supports: wide enough that every member up to
# m = 30 has negligible mass outside (the Laguerre oscillatory region ends
# near x = 2k + 1, so 60 would clip the top members).
_QUAD_DOMAIN = {
    BasisKind.TRIG: (0.0, 1.0, 20001),
    BasisKind.TRIG_NO_CONST: (0.0, 1.0, 20001),
    BasisKind.LAGUERRE: (0.0, 100.0, 200001),
    BasisKind.HERMITE: (-20.0, 20.0, 40001),
}


def quadrature_gram(family: BasisFamily, m: int) -> np.ndarray:
    """Simpson-quadrature Gram matrix of the first ``m`` members.

    Unbounded supports are truncated where the members are numerically
    negligible; for an orthonormal family the result is the identity up to
    quadrature error.
    """
    m = _check_m(m)
    lo, hi, n_nodes = _QUAD_DOMAIN[family.kind]
    x, w = simpson_grid(lo, hi, n_nodes)
    vals = eval_matrix(family, m, x)
    return (vals * w[:, None]).T @ vals


def orthonormality_residual(family: BasisFamily, m: int) -> float:
    """Max absolute deviation of the quadrature Gram from the identity."""
    gram = quadrature_gram(family, m)
    return float(np.abs(gram - np.eye(_check_m(m))).max())
