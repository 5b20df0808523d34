"""Path simulation for the SDE model and its explanatory processes.

Generates N independent discretized path pairs (X^i, Y^i) on a uniform time
grid. X follows the explicit Euler scheme for
``dX = (a(X) + b(Y)) dt + sigma(X) dW1``; Y is simulated first from an
independent Brownian motion W2, as one of the two processes of the
benchmark protocol:

* ``poly-bm``  -- Y_t = sigma_y * W2(t) * (1 + W2(t)^2)
* ``ou``       -- Y = sigma_y * U with U an Ornstein-Uhlenbeck process
                  (drift -rate/2 * U, diffusion gamma/2, with rate
                  ``OU_RATE`` and gamma ``OU_GAMMA``), simulated with the
                  exact transition and a stationary start

Per-path randomness comes from child streams of ``numpy.random.SeedSequence``
spawned from the master seed and the path index, so samples are reproducible
regardless of how path generation is scheduled. Each path takes one draw of
normals from each of its two streams (:func:`_normals`): the Y stream gives
the n increments of W2, or for the Ornstein-Uhlenbeck process its start and
then its n steps; the X stream gives the n increments of W1. Normal variates
use numpy's PCG64 generator (ziggurat method).

The streams are numpy's, bit for bit, but no per-path ``SeedSequence`` or
``Generator`` is made: :func:`path_seeds` and :func:`_normals` restate
numpy's ``SeedSequence`` hash and PCG64 seeding as uint32 and 128-bit
integer arithmetic over all paths at once, and one generator, set to each
path's state in turn, draws every row. numpy's stream-compatibility policy
keeps the two equal; ``tests/test_simulate.py`` checks them against numpy.
The Euler scheme and the Ornstein-Uhlenbeck recursion step all paths
together over a time-major copy, in the same floating-point order as a
path-by-path loop, so every path's values do not depend on the batch.
"""

from __future__ import annotations

import enum
import math
import operator
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


_PROBE = np.linspace(-20.0, 20.0, 81)


def _check_probe(fn: Callable, name: str, points: np.ndarray = _PROBE) -> np.ndarray:
    try:
        with np.errstate(all="ignore"):
            vals = np.asarray(fn(points), dtype=float)
    except Exception as exc:
        raise ValueError(f"{name} must accept numpy arrays: {exc}") from exc
    if vals.shape != points.shape or not np.all(np.isfinite(vals)):
        raise ValueError(f"{name} must return finite values elementwise on a probe grid")
    return vals


@dataclass(frozen=True)
class SdeModel:
    """The data-generating triple (a, b, sigma) plus the initial condition.

    All three act elementwise. ``a`` and ``sigma`` take one time step of all
    paths, a 1-D array; ``b`` takes whole 2-D blocks of Y (steps by paths) at
    once, so each of its outputs must depend on the matching input alone.
    """

    a: Callable[[np.ndarray], np.ndarray]
    b: Callable[[np.ndarray], np.ndarray]
    sigma: Callable[[np.ndarray], np.ndarray]
    x0: float = 0.0

    def __post_init__(self):
        for fn, name in ((self.a, "a"), (self.b, "b"), (self.sigma, "sigma")):
            _check_probe(fn, name)
        block = _PROBE.reshape(9, 9)
        if not np.array_equal(_check_probe(self.b, "b", block), _check_probe(self.b, "b").reshape(block.shape)):
            raise ValueError("b must act elementwise on 2-D arrays of Y")
        if not math.isfinite(self.x0):
            raise ValueError(f"x0 must be finite, got {self.x0!r}")


@dataclass(frozen=True)
class ConstantSigma:
    """A diffusion coefficient that does not depend on x; the Euler step multiplies by ``value``."""

    value: float

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(x, dtype=float), self.value)


@dataclass(frozen=True)
class ExplanatorySpec:
    """Configuration of the exogenous explanatory process Y."""

    kind: YKind
    sigma_y: float = 2.0

    def __post_init__(self):
        if not (math.isfinite(self.sigma_y) and self.sigma_y > 0):
            raise ValueError(f"sigma_y must be finite and positive, got {self.sigma_y!r}")


@dataclass(frozen=True)
class GridSpec:
    """Uniform time grid with an initial burn-in that later stages discard."""

    n_steps: int = 500
    dt: float = 0.02
    drop_first: int = 20

    def __post_init__(self):
        if self.n_steps < 1 or not (self.dt > 0 and math.isfinite(self.n_steps * self.dt)):
            raise ValueError(f"need n_steps >= 1 and dt > 0 with a finite horizon n_steps * dt, got {self}")
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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64
# seeding (numpy/random/src/pcg64), restated for whole arrays of paths.
_MASK32 = 0xFFFF_FFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_L, _MIX_R = 0xCA01_F9DD, 0x4973_F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _hash_constants(init: int, mult: int):
    """The (xor, multiplier) pair of each successive call of the word hash."""
    while True:
        nxt = init * mult & _MASK32
        yield init, nxt
        init = nxt


def _hash(word, consts):
    """Hash a uint32 word (an int or a uint32 array) with the next constant pair."""
    xor, mult = next(consts)
    word = (word ^ xor) * mult & _MASK32
    return word ^ word >> 16


def _mix(x, y):
    """Combine two uint32 words (ints or uint32 arrays) into one."""
    out = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return out ^ out >> 16


def _pool(entropy: list) -> list:
    """SeedSequence's entropy pool; each word is an int or a uint32 array."""
    consts = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hash(entropy[k] if k < len(entropy) else 0, consts) for k in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], consts))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hash(word, consts))
    return pool


def _state_words(pool: list, n_words: int) -> list[np.ndarray]:
    """``SeedSequence.generate_state(n_words, np.uint64)``, one array per word."""
    consts = _hash_constants(_INIT_B, _MULT_B)
    w = [np.asarray(_hash(pool[k % _POOL_SIZE], consts), dtype=np.uint64) for k in range(2 * n_words)]
    return [w[2 * k] | w[2 * k + 1] << 32 for k in range(n_words)]


def check_seed(seed: int) -> int:
    """The master seed as an int; raises ValueError when it is negative."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def path_seeds(seed: int, n_paths: int) -> list[tuple[int, int]]:
    """Derive one (Y-stream, X-stream) integer seed pair per path index.

    Path i's pair is ``SeedSequence(seed).spawn(n)[i].generate_state(2,
    np.uint64)``, for any ``n > i``. The hash runs once over the uint32
    words of the master seed and once, as array arithmetic, over the path
    indices, which enter last as the one word of each child's spawn key.
    """
    seed = check_seed(seed)
    words = [seed >> 32 * k & _MASK32 for k in range(max(1, (seed.bit_length() + 31) // 32))]
    words += [0] * (_POOL_SIZE - len(words))
    pool = _pool(words + [np.arange(n_paths, dtype=np.uint32)])
    y_seeds, x_seeds = _state_words(pool, 2)
    return list(zip(y_seeds.tolist(), x_seeds.tolist()))


#: Rate and gamma of the Ornstein-Uhlenbeck process U of Y type (B).
OU_RATE = 2.0
OU_GAMMA = 1.0


def _ou_coefficients(rate: float, gamma: float, dt: float) -> tuple[float, float, float]:
    """Exact one-step decay, one-step noise sd, and stationary sd of U."""
    decay = math.exp(-0.5 * rate * dt)
    stat_var = gamma * gamma / (4.0 * rate)
    step_sd = math.sqrt(stat_var * (1.0 - math.exp(-rate * dt)))
    return decay, step_sd, math.sqrt(stat_var)


def _normals(seeds: Sequence[int], n: int, out: np.ndarray | None = None) -> np.ndarray:
    """The first ``n`` standard normals of each seed's stream, one row per seed.

    Row i equals ``np.random.default_rng(seeds[i]).standard_normal(n)``, for
    seeds in [0, 2^64). The rows go into ``out`` when it is given (shape
    ``(len(seeds), n)``, each row contiguous, such as ``a[:, 1:]`` of a
    C-ordered ``a``), else into a new array. The PCG64 state of every seed
    comes from one pass of array arithmetic; one generator then takes each
    state in turn and draws its row.
    """
    if not all(0 <= s < 1 << 64 for s in seeds):
        raise ValueError("stream seeds must lie in [0, 2^64)")
    s = np.array(seeds, dtype=np.uint64).reshape(-1)
    pool = _pool([(s & _MASK32).astype(np.uint32), (s >> 32).astype(np.uint32)])
    words = [w.tolist() for w in _state_words(pool, 4)]
    if out is None:
        out = np.empty((len(s), n))
    bit_gen = np.random.PCG64(0)
    gen = np.random.Generator(bit_gen)
    for row, s_hi, s_lo, q_hi, q_lo in zip(out, *words):
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        bit_gen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                         "has_uint32": 0, "uinteger": 0}
        gen.standard_normal(out=row)
    return out


# Each batch allocates its result first and its one full-size scratch array
# after it, so that freeing the scratch array leaves no hole below the
# result: such holes stay resident, and with the scratch arrays allocated
# first a table1 worker's peak RSS was 7 MB (11 %) higher.


def _simulate_y_batch(spec: ExplanatorySpec, grid: GridSpec, seeds: Sequence[int]) -> np.ndarray:
    n = grid.n_steps
    out = np.empty((len(seeds), n + 1))
    if spec.kind is YKind.ORNSTEIN_UHLENBECK:
        decay, step_sd, stat_sd = _ou_coefficients(OU_RATE, OU_GAMMA, grid.dt)
        # Draw 0 is the stationary start, draws 1..n the steps; the path
        # replaces its noise in place, stepped time-major.
        _normals(seeds, n + 1, out=out)
        u = np.ascontiguousarray(out.T)
        u[0] *= stat_sd
        u[1:] *= step_sd
        for ell in range(n):
            u[ell + 1] += decay * u[ell]
        np.multiply(u.T, spec.sigma_y, out=out)
    else:
        # The n increments of W2, summed in place into W2 at 1..n, then
        # sigma_y * W * (1 + W^2).
        out[:, 0] = 0.0
        dw = _normals(seeds, n, out=out[:, 1:])
        dw *= math.sqrt(grid.dt)
        np.cumsum(dw, axis=1, out=dw)
        poly = out * out
        poly += 1.0
        out *= spec.sigma_y
        out *= poly
    if not np.isfinite(out).all():
        i = int(np.argwhere(~np.isfinite(out))[0, 0])
        raise SimulationError(f"explanatory path {i} became non-finite", path=i)
    return out


#: Steps per block of b(Y) values and of finiteness checks in the X batch:
#: b runs on 16 x N blocks (128 kB at N = 1000), not on a copy of all of Y.
_STEP_BLOCK = 16


def _simulate_x_batch(
    model: SdeModel, y: np.ndarray, grid: GridSpec, seeds: Sequence[int]
) -> np.ndarray:
    n = grid.n_steps
    dt = grid.dt
    x = np.empty((len(seeds), n + 1))
    _normals(seeds, n, out=x[:, 1:])
    # Time-major: row ell + 1 holds sqrt(dt) times the W1 draw of step ell
    # until the step overwrites it with X at ell + 1.
    xt = np.empty((n + 1, len(seeds)))
    np.multiply(x[:, 1:].T, math.sqrt(dt), out=xt[1:])
    xt[0] = model.x0
    drift = np.empty(len(seeds))
    constant = model.sigma.value if isinstance(model.sigma, ConstantSigma) else None
    # Overflow in a diverging path is caught via the finiteness check below.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, _STEP_BLOCK):
            stop = min(start + _STEP_BLOCK, n)
            b_y = model.b(np.ascontiguousarray(y[:, start:stop].T))
            for ell in range(start, stop):
                cur = xt[ell]
                # cur + (a + b) dt + sigma(cur) sqrt(dt) xi, summed in that order
                np.add(model.a(cur), b_y[ell - start], out=drift)
                drift *= dt
                drift += cur
                nxt = xt[ell + 1]
                nxt *= model.sigma(cur) if constant is None else constant
                nxt += drift
            block = xt[start + 1 : stop + 1]
            if not np.isfinite(block).all():
                row, i = np.argwhere(~np.isfinite(block))[0].tolist()
                step = start + 1 + row
                raise SimulationError(f"path {i} became non-finite at step {step}", path=i, step=step)
    np.copyto(x, xt.T)
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

#: The explanatory process kind of each benchmark Y type.
Y_TYPES = {"A": YKind.POLYNOMIAL_BM, "B": YKind.ORNSTEIN_UHLENBECK}


def make_model(model_id: int, sigma: float = 1.5, x0: float = 0.0) -> SdeModel:
    """Benchmark SDE model: ``DRIFT_PAIRS[model_id]`` with constant diffusion (default 1.5)."""
    try:
        a, b = DRIFT_PAIRS[int(model_id)]
    except (KeyError, ValueError):
        raise ValueError(f"unknown model id {model_id!r}; choose from {sorted(DRIFT_PAIRS)}") from None
    return SdeModel(a=a, b=b, sigma=ConstantSigma(float(sigma)), x0=x0)


def explanatory_by_name(y_type: str, sigma_y: float = 2.0) -> ExplanatorySpec:
    """Explanatory process (A) = polynomial of BM, (B) = Ornstein-Uhlenbeck."""
    try:
        kind = Y_TYPES[str(y_type).upper()]
    except KeyError:
        raise ValueError(f"unknown explanatory type {y_type!r}; choose from {sorted(Y_TYPES)}") from None
    return ExplanatorySpec(kind=kind, sigma_y=sigma_y)
