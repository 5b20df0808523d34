"""Path simulation for the SDE model and its explanatory processes.

Generates N independent discretized path pairs (X^i, Y^i) on a uniform time
grid. X follows the explicit Euler scheme for
``dX = (a(X) + b(Y)) dt + sigma(X) dW1``; Y is simulated first from an
independent Brownian motion W2, via one of three mechanisms:

* ``poly-bm``      -- Y_t = sigma_y * W2(t) * (1 + W2(t)^2)
* ``ou``           -- Y = sigma_y * U with U an Ornstein-Uhlenbeck process
                      (drift -rate/2 * U, diffusion gamma/2), simulated with
                      the exact transition and a stationary start
* ``transformed``  -- Y_t = g(H_t), H the Ito integral of a deterministic
                      h against W2 (left-point discretization)

Per-path randomness comes from child streams of ``numpy.random.SeedSequence``
spawned from the master seed and the path index, so samples are reproducible
regardless of how path generation is scheduled. Normal variates use numpy's
PCG64 generator (ziggurat method).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class SimulationError(RuntimeError):
    """A simulated path left the finite range; carries path/step indices."""

    def __init__(self, message: str, path: int | None = None, step: int | None = None):
        super().__init__(message)
        self.path = path
        self.step = step


class YKind(enum.Enum):
    POLYNOMIAL_BM = "poly-bm"
    ORNSTEIN_UHLENBECK = "ou"
    TRANSFORMED_ITO = "transformed"


_PROBE = np.linspace(-20.0, 20.0, 81)


def _check_probe(fn: Callable, name: str) -> None:
    try:
        with np.errstate(all="ignore"):
            vals = np.asarray(fn(_PROBE), dtype=float)
    except Exception as exc:
        raise ValueError(f"{name} must accept numpy arrays: {exc}") from exc
    if vals.shape != _PROBE.shape or not np.all(np.isfinite(vals)):
        raise ValueError(f"{name} must return finite values elementwise on a probe grid")


@dataclass(frozen=True)
class SdeModel:
    """The data-generating triple (a, b, sigma) plus the initial condition."""

    a: Callable[[np.ndarray], np.ndarray]
    b: Callable[[np.ndarray], np.ndarray]
    sigma: Callable[[np.ndarray], np.ndarray]
    x0: float = 0.0

    def __post_init__(self):
        for fn, name in ((self.a, "a"), (self.b, "b"), (self.sigma, "sigma")):
            _check_probe(fn, name)
        if not math.isfinite(self.x0):
            raise ValueError(f"x0 must be finite, got {self.x0!r}")


@dataclass(frozen=True)
class ExplanatorySpec:
    """Configuration of the exogenous explanatory process Y."""

    kind: YKind
    sigma_y: float = 2.0
    ou_rate: float = 2.0
    ou_gamma: float = 1.0
    g: Callable[[np.ndarray], np.ndarray] | None = None
    h: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if not (math.isfinite(self.sigma_y) and self.sigma_y > 0):
            raise ValueError(f"sigma_y must be finite and positive, got {self.sigma_y!r}")
        if self.kind is YKind.ORNSTEIN_UHLENBECK:
            if not (self.ou_rate > 0 and self.ou_gamma > 0):
                raise ValueError("Ornstein-Uhlenbeck requires ou_rate > 0 and ou_gamma > 0")
        if self.kind is YKind.TRANSFORMED_ITO:
            if self.g is None or self.h is None:
                raise ValueError("transformed kind requires both g and h")


@dataclass(frozen=True)
class GridSpec:
    """Uniform time grid with an initial burn-in that later stages discard."""

    n_steps: int = 500
    dt: float = 0.02
    drop_first: int = 20

    def __post_init__(self):
        if self.n_steps < 1 or not (self.dt > 0):
            raise ValueError("need n_steps >= 1 and dt > 0")
        if not (0 <= self.drop_first < self.n_steps):
            raise ValueError("drop_first must lie in [0, n_steps)")

    @property
    def total_time(self) -> float:
        return self.n_steps * self.dt

    @property
    def t0(self) -> float:
        return self.drop_first * self.dt

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


class PathSample:
    """N i.i.d. path pairs on a common grid; arrays are frozen after build."""

    def __init__(self, grid: GridSpec, x: np.ndarray, y: np.ndarray):
        x = np.ascontiguousarray(x, dtype=float)
        y = np.ascontiguousarray(y, dtype=float)
        expected = (x.shape[0], grid.n_steps + 1)
        if x.shape != expected or y.shape != expected:
            raise ValueError(f"path matrices must have shape {expected}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("path matrices must be finite")
        x.flags.writeable = False
        y.flags.writeable = False
        self.grid = grid
        self.x = x
        self.y = y

    @property
    def n_paths(self) -> int:
        return self.x.shape[0]


def path_seeds(seed: int, n_paths: int) -> list[tuple[int, int]]:
    """Derive one (Y-stream, X-stream) integer seed pair per path index."""
    children = np.random.SeedSequence(seed).spawn(n_paths)
    return [tuple(int(s) for s in c.generate_state(2, dtype=np.uint64)) for c in children]


def _ou_coefficients(rate: float, gamma: float, dt: float) -> tuple[float, float, float]:
    """Exact one-step decay, one-step noise sd, and stationary sd of U."""
    decay = math.exp(-0.5 * rate * dt)
    stat_var = gamma * gamma / (4.0 * rate)
    step_sd = math.sqrt(stat_var * (1.0 - math.exp(-rate * dt)))
    return decay, step_sd, math.sqrt(stat_var)


def _simulate_y_batch(spec: ExplanatorySpec, grid: GridSpec, seeds: Sequence[int]) -> np.ndarray:
    n = grid.n_steps
    n_paths = len(seeds)
    if spec.kind is YKind.ORNSTEIN_UHLENBECK:
        out = np.empty((n_paths, n + 1))
        decay, step_sd, stat_sd = _ou_coefficients(spec.ou_rate, spec.ou_gamma, grid.dt)
        u0 = np.empty(n_paths)
        xi = np.empty((n_paths, n))
        for i, s in enumerate(seeds):
            rng = np.random.default_rng(s)
            u0[i] = rng.standard_normal()
            xi[i] = rng.standard_normal(n)
        out[:, 0] = stat_sd * u0
        xi *= step_sd
        for ell in range(n):
            out[:, ell + 1] = decay * out[:, ell] + xi[:, ell]
        out *= spec.sigma_y
    else:
        dw = np.empty((n_paths, n))
        for i, s in enumerate(seeds):
            dw[i] = np.random.default_rng(s).standard_normal(n)
        dw *= math.sqrt(grid.dt)
        if spec.kind is YKind.POLYNOMIAL_BM:
            w = np.zeros((n_paths, n + 1))
            np.cumsum(dw, axis=1, out=w[:, 1:])
            out = spec.sigma_y * w * (1.0 + w * w)
        else:
            h_vals = np.asarray(spec.h(grid.times()[:-1]), dtype=float)
            hmat = np.zeros((n_paths, n + 1))
            np.cumsum(h_vals * dw, axis=1, out=hmat[:, 1:])
            out = np.asarray(spec.g(hmat), dtype=float)
    bad = ~np.isfinite(out)
    if bad.any():
        i = int(np.argwhere(bad.any(axis=1))[0, 0])
        raise SimulationError(f"explanatory path {i} became non-finite", path=i)
    return out


def _simulate_x_batch(
    model: SdeModel, y: np.ndarray, grid: GridSpec, seeds: Sequence[int]
) -> np.ndarray:
    n = grid.n_steps
    n_paths = y.shape[0]
    xi = np.empty((n_paths, n))
    for i, s in enumerate(seeds):
        xi[i] = np.random.default_rng(s).standard_normal(n)
    dt = grid.dt
    sqdt = math.sqrt(dt)
    x = np.empty((n_paths, n + 1))
    x[:, 0] = model.x0
    # Overflow in a diverging path is caught via the finiteness check below.
    with np.errstate(over="ignore", invalid="ignore"):
        for ell in range(n):
            cur = x[:, ell]
            if not np.all(np.isfinite(cur)):
                i = int(np.argwhere(~np.isfinite(cur))[0, 0])
                raise SimulationError(f"path {i} became non-finite at step {ell}", path=i, step=ell)
            drift = model.a(cur) + model.b(y[:, ell])
            x[:, ell + 1] = cur + drift * dt + model.sigma(cur) * (sqdt * xi[:, ell])
    if not np.all(np.isfinite(x[:, n])):
        i = int(np.argwhere(~np.isfinite(x[:, n]))[0, 0])
        raise SimulationError(f"path {i} became non-finite at step {n}", path=i, step=n)
    return x


def generate_sample(
    model: SdeModel,
    spec: ExplanatorySpec,
    grid: GridSpec,
    n_paths: int,
    seed: int,
) -> PathSample:
    """Generate ``n_paths`` i.i.d. path pairs, deterministically from the seed.

    Each path owns two child streams (one for W2 driving Y, one for W1
    driving X), derived from (seed, path index), so the W1 and W2 noises are
    independent within each path and across paths.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    pairs = path_seeds(seed, n_paths)
    y = _simulate_y_batch(spec, grid, [p[0] for p in pairs])
    x = _simulate_x_batch(model, y, grid, [p[1] for p in pairs])
    return PathSample(grid, x, y)


# ---------------------------------------------------------------------------
# Named models and explanatory processes of the benchmark experiments.
# ---------------------------------------------------------------------------

def _a1(x):
    return -1.5 * np.cos(2.0 * x)


def _b1(y):
    return np.sin(4.0 * y)


def _a2(x):
    return -1.5 * x / (1.0 + x * x)


def _b2(y):
    return y / (1.0 + y * y)


def _a3(x):
    return -x + 0.5


def _b3(y):
    return -0.5 * np.tanh(y)


#: The benchmark drift pair (a, b) of each model id.
DRIFT_PAIRS = {1: (_a1, _b1), 2: (_a2, _b2), 3: (_a3, _b3)}

#: The explanatory process of each benchmark Y type: its kind and parameters
#: other than ``sigma_y``.
Y_TYPES = {
    "A": {"kind": YKind.POLYNOMIAL_BM},
    "B": {"kind": YKind.ORNSTEIN_UHLENBECK, "ou_rate": 2.0, "ou_gamma": 1.0},
}


def drift_pair(model_id: int) -> tuple[Callable, Callable]:
    """The benchmark drift pair (a, b) of a model id in ``DRIFT_PAIRS``."""
    try:
        return DRIFT_PAIRS[int(model_id)]
    except (KeyError, ValueError):
        raise ValueError(f"unknown model id {model_id!r}; choose from {sorted(DRIFT_PAIRS)}") from None


def make_model(model_id: int, sigma: float = 1.5, x0: float = 0.0) -> SdeModel:
    """Benchmark SDE model with constant diffusion (default 1.5)."""
    a, b = drift_pair(model_id)
    sig = float(sigma)

    def sigma_fn(x, _s=sig):
        return np.full_like(np.asarray(x, dtype=float), _s)

    return SdeModel(a=a, b=b, sigma=sigma_fn, x0=x0)


def explanatory_by_name(y_type: str, sigma_y: float = 2.0) -> ExplanatorySpec:
    """Explanatory process (A) = polynomial of BM, (B) = Ornstein-Uhlenbeck."""
    try:
        params = Y_TYPES[str(y_type).upper()]
    except KeyError:
        raise ValueError(f"unknown explanatory type {y_type!r}; choose from {sorted(Y_TYPES)}") from None
    return ExplanatorySpec(sigma_y=sigma_y, **params)
