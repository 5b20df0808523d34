"""Monte-Carlo harness: repeated estimation runs and summary statistics.

Each repetition draws a fresh sample of N path pairs, derives a quantile box
from the first path (2%/98% quantiles for X, 1%/99% for Y, over the
observations kept after the burn-in), runs the adaptive and oracle selectors
off one shared dimension scan, and integrates the squared estimation errors
over the box with composite Simpson quadrature.

The box errors of every pair's fit come from one QR factor per side of the
box (:func:`mse_box`), and both the oracle's criterion and the MSE columns
read that one table. Factor the weighted Simpson-node matrix
``F = sqrt(w) * [phi_1(g) .. phi_M(g) | a(g)] = Q R`` once; as Q has
orthonormal columns, ``|F v| = |R v|`` for every v. A fit with m members is
``v = [theta, 0 .. 0, -1]``, and with ``q = R[:M, M]`` and ``rho = R[M, M]``
its Simpson error ``sum w (sum_k theta_k phi_k - a)^2`` is

    |R[:m, :m] theta - q[:m]|^2 + sum_{k >= m} q_k^2 + rho^2,

M + 1 squares per fit in place of 2001 nodes; the zero fit's error is
``|R[:, M]|^2``. Every term is a square, so an error can never come out
negative, and the sum cancels nothing. The expanded normal-equation form
``theta' B theta - 2 theta' c + int a^2`` (B the box Gram matrix) was
rejected: it takes a small error as the difference of terms the size of
``int a^2``, and B has the square of F's condition number. On short boxes,
where 39 Hermite functions are nearly dependent (the Y (B) cells), it was up
to 6.0e-8 relative off the node-by-node quadrature over 36 scans covering
the 12 cells of table 1, against 5.4e-12 for this form. ``R v`` for every
fit is one matrix product per component over the rows of the scan's
coefficient array, which already hold the padded ``v``; the sums of squares
are plain row sums (``einsum``, not a BLAS product), so they do not depend
on the BLAS thread count.

Repetition seeds derive from (master seed, repetition index), so runs are
reproducible and repetitions can execute in a process pool without changing
any number (no step's result depends on the BLAS thread count, and the
pool's workers run a single-threaded BLAS; see :func:`worker_pool`).
Summaries report 100 * MSE means with per-repetition standard deviations and
mean selected dimensions, one block per drift component.
"""

from __future__ import annotations

import collections
import concurrent.futures
import contextlib
import math
import multiprocessing
import os
from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence

import numpy as np

from .bases import BasisFamily, HERMITE, eval_rows, simpson_grid
from .design import DesignSystem, DimPair, build_trimmed_designs
from .estimator import FitResult, evaluate_fit
from .selection import (
    DimensionScan,
    SelectionConfig,
    scan_bounds,
    scan_design,
    select_adaptive_from_scan,
    select_oracle_from_scan,
)
# Unused here: the benchmark's tracer (benchmarks/tracing.py) wraps this binding.
from .selection import scan_dimension_grid
from .simulate import (
    DRIFT_PAIRS,
    Y_TYPES,
    GridSpec,
    PathSample,
    SdeModel,
    check_seed,
    explanatory_by_name,
    generate_sample,
    make_model,
)

BEAM_GRID_POINTS = 400

#: Simpson nodes per axis of every box-error integral (box MSE, oracle criterion).
MSE_NODES = 2001

#: The (model_id, y_type, n_paths) cells of the benchmark table, in row order.
TABLE1_CELLS = tuple((m, y, n) for m in DRIFT_PAIRS for y in Y_TYPES for n in (400, 1000))


@dataclass(frozen=True)
class QuantileBox:
    """Integration box from one path: [a_x, b_x] for X, [a_y, b_y] for Y."""

    a_x: float
    b_x: float
    a_y: float
    b_y: float

    def __post_init__(self):
        if not (self.a_x < self.b_x and self.a_y < self.b_y):
            raise ValueError(f"degenerate quantile box {self}")


def quantile_box(sample: PathSample) -> QuantileBox:
    """Quantile box of path 0, burn-in observations excluded."""
    lo = sample.grid.drop_first
    xs = sample.x[0, lo:]
    ys = sample.y[0, lo:]
    qx = np.quantile(xs, [0.02, 0.98])
    qy = np.quantile(ys, [0.01, 0.99])
    return QuantileBox(a_x=float(qx[0]), b_x=float(qx[1]), a_y=float(qy[0]), b_y=float(qy[1]))


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


def _box_errors(r: np.ndarray, parts: np.ndarray, off: np.ndarray) -> np.ndarray:
    """``|R @ [theta, -1]|^2`` of every row theta of ``parts``; the zero fit's where ``off`` is set."""
    res = parts @ r[:, :-1].T - r[:, -1]
    res[off] = -r[:, -1]
    return np.einsum("ji,ji->j", res, res)


def mse_box(scan: DimensionScan, truth: SdeModel, box: QuantileBox) -> tuple[np.ndarray, np.ndarray]:
    """Box-integrated squared errors (a-part, b-part) of every pair's fit, as M1 x M2 tables.

    Entry [m1 - 1, m2 - 1] is the error of the fit of pair (m1, m2) where
    that pair is admissible, and the error of the zero fit elsewhere: the
    MSE of a truncated fit and the oracle's criterion are both read off
    these tables. See the module docstring for the QR form.
    """
    big = scan.dims
    coef = scan.coef.reshape(-1, big.total)  # m1-major, one row per pair
    off = ~scan.admissible
    r_a = _box_factor(scan.phi, big.m1, box.a_x, box.b_x, truth.a)
    r_b = _box_factor(scan.psi, big.m2, box.a_y, box.b_y, truth.b)
    err_a = _box_errors(r_a, coef[:, : big.m1], off.ravel())
    err_b = _box_errors(r_b, coef[:, big.m1 :], off.ravel())
    return err_a.reshape(off.shape), err_b.reshape(off.shape)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full experiment protocol; defaults match the benchmark settings.

    The penalty's ``selection.sigma_sq`` must be ``sigma ** 2``, the squared
    diffusion coefficient the paths are simulated with.
    """

    grid: GridSpec = field(default_factory=GridSpec)
    sigma: float = 1.5
    sigma_y: float = 2.0
    x0: float = 0.0
    phi: BasisFamily = HERMITE
    psi: BasisFamily = HERMITE
    selection: SelectionConfig = field(default_factory=SelectionConfig)

    def __post_init__(self):
        if self.selection.sigma_sq != self.sigma ** 2:
            raise ValueError(f"selection.sigma_sq = {self.selection.sigma_sq!r} is not "
                             f"sigma ** 2 = {self.sigma ** 2!r} (sigma = {self.sigma!r})")


@dataclass
class RepRecord:
    """Everything retained from one repetition."""

    rep: int
    seed: int
    failed: bool = False
    error: str = ""
    mse_a: float = math.nan
    mse_b: float = math.nan
    oracle_mse_a: float = math.nan
    oracle_mse_b: float = math.nan
    dims: DimPair | None = None
    oracle_dims: DimPair | None = None
    truncated: bool = False
    oracle_truncated: bool = False
    theta: np.ndarray | None = None
    oracle_theta: np.ndarray | None = None
    box: QuantileBox | None = None
    max_residuals: dict[str, float] | None = None


@dataclass
class ExperimentReport:
    model_id: int
    y_type: str
    n_paths: int
    reps: int
    seed: int
    config: ExperimentConfig
    per_rep: list[RepRecord]
    summary: dict[str, float]

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.per_rep if r.failed)

    @property
    def failures(self) -> dict[str, int]:
        """Failed repetitions counted by exception class."""
        counts = collections.Counter(r.error.split(":", 1)[0] for r in self.per_rep if r.failed)
        return dict(sorted(counts.items()))


#: Thread-count variables of the BLAS and OpenMP runtimes numpy may load.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextlib.contextmanager
def worker_pool(workers: int):
    """Process pool whose workers run a single-threaded BLAS.

    Each worker runs one repetition at a time, so a multi-threaded BLAS in
    every worker puts ``workers`` x (BLAS threads) busy threads on the cores.
    On 2 cores, 8 repetitions of model 1 x Y (B) at N = 1000 took 27.9 s on
    two forked workers, 13.7 s in one process and 8.1 s on two workers with
    a single-threaded BLAS. The thread-count variables are read once, when a process loads its
    BLAS, so workers are spawned (not forked from a parent that has loaded
    one) with the variables set to 1; a value the caller already set is kept.
    """
    saved = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    for var, value in saved.items():
        if value is None:
            os.environ[var] = "1"
    try:
        ctx = multiprocessing.get_context("spawn")
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            yield pool
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)


def rep_seed(master_seed: int, rep_index: int) -> int:
    """Integer sample seed for one repetition, derived from the master seed."""
    return int(np.random.SeedSequence((master_seed, rep_index)).generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class _RepTask:
    """One repetition of one (model, Y type) at each N of ``n_paths`` (increasing)."""

    model_id: int
    y_type: str
    n_paths: tuple[int, ...]
    rep: int
    master_seed: int
    config: ExperimentConfig


def _run_rep(task: _RepTask) -> list[RepRecord]:
    """One record per N of the task; any error inside a repetition is recorded, not raised.

    One sample of the largest N, its quantile box and the designs of every N
    (:func:`_shared_designs`) serve all of them; the scan, the selection and
    the box MSE then run per N, and an error there fails that N's record
    only. A task of one N is the one-count case of the same path. If the
    shared step of a task of several N raises, say because a path beyond the
    smallest N diverged, each N reruns as a task of its own, so the error
    reaches only the N whose own sample meets it; a task of one N records
    the error.
    """
    seed = rep_seed(task.master_seed, task.rep)
    try:
        model, box, designs = _shared_designs(task, seed)
    except Exception as exc:
        if len(task.n_paths) == 1:
            return [_failed(task.rep, seed, exc)]
        return [record for n in task.n_paths for record in _run_rep(replace(task, n_paths=(n,)))]
    cfg = task.config
    records = []
    for n, design in zip(task.n_paths, designs):
        try:
            scan = scan_design(design, n, cfg.phi, cfg.psi, cfg.selection, scan_bounds(cfg.selection, n))
            records.append(_record(task.rep, seed, model, box, scan))
        except Exception as exc:
            records.append(_failed(task.rep, seed, exc))
    return records


def _failed(rep: int, seed: int, exc: Exception) -> RepRecord:
    """The record of a repetition that raised: ``error = "<class>: <message>"`` and no estimates.

    So one bad sample or degenerate box cannot abort a run.
    """
    return RepRecord(rep=rep, seed=seed, failed=True, error=f"{type(exc).__name__}: {exc}")


def _shared_designs(task: _RepTask, seed: int) -> tuple[SdeModel, QuantileBox, list[DesignSystem]]:
    """The model, the quantile box of the largest N's sample and the trimmed scan design of every N."""
    cfg = task.config
    model = make_model(task.model_id, sigma=cfg.sigma, x0=cfg.x0)
    spec = explanatory_by_name(task.y_type, sigma_y=cfg.sigma_y)
    sample = generate_sample(model, spec, cfg.grid, task.n_paths[-1], seed)
    box = quantile_box(sample)
    bounds = scan_bounds(cfg.selection, task.n_paths[0])  # the same for every N of the task
    designs = build_trimmed_designs(sample, cfg.phi, cfg.psi, bounds, task.n_paths, sample.grid.total_time)
    return model, box, designs


def _record(rep: int, seed: int, model: SdeModel, box: QuantileBox, scan: DimensionScan) -> RepRecord:
    err_a, err_b = mse_box(scan, model, box)
    adaptive = select_adaptive_from_scan(scan)
    oracle = select_oracle_from_scan(scan, err_a, err_b)
    # A truncated fit is the zero fit at (1, 1). It is chosen only when no
    # pair is admissible (an admissible pair's criteria are finite), so its
    # entry is the zero fit's error whatever row (1, 1) of the scan holds.
    at = adaptive.chosen.m1 - 1, adaptive.chosen.m2 - 1
    oracle_at = oracle.chosen.m1 - 1, oracle.chosen.m2 - 1
    return RepRecord(
        rep=rep,
        seed=seed,
        mse_a=float(err_a[at]),
        mse_b=float(err_b[at]),
        oracle_mse_a=float(err_a[oracle_at]),
        oracle_mse_b=float(err_b[oracle_at]),
        dims=adaptive.chosen,
        oracle_dims=oracle.chosen,
        truncated=adaptive.fit.truncated,
        oracle_truncated=oracle.fit.truncated,
        theta=adaptive.fit.theta,
        oracle_theta=oracle.fit.theta,
        box=box,
        max_residuals=scan.max_residuals,
    )


def summarize(per_rep: Sequence[RepRecord]) -> dict[str, float]:
    """Table-style summary over successful repetitions (100 * MSE scale)."""
    good = [r for r in per_rep if not r.failed]
    out: dict[str, float] = {"n_reps": float(len(per_rep)), "n_failed": float(len(per_rep) - len(good))}
    if not good:
        return out

    def stats(values: list[float], prefix: str, scale: float = 1.0) -> None:
        arr = np.asarray(values, dtype=float) * scale
        out[f"{prefix}_mean"] = float(arr.mean())
        out[f"{prefix}_std"] = float(arr.std(ddof=1)) if arr.size > 1 else 0.0

    stats([r.mse_a for r in good], "mse100_a", 100.0)
    stats([r.mse_b for r in good], "mse100_b", 100.0)
    stats([r.oracle_mse_a for r in good], "mse100_oracle_a", 100.0)
    stats([r.oracle_mse_b for r in good], "mse100_oracle_b", 100.0)
    out["dim_a_mean"] = float(np.mean([r.dims.m1 for r in good]))
    out["dim_b_mean"] = float(np.mean([r.dims.m2 for r in good]))
    out["dim_oracle_a_mean"] = float(np.mean([r.oracle_dims.m1 for r in good]))
    out["dim_oracle_b_mean"] = float(np.mean([r.oracle_dims.m2 for r in good]))
    out["truncated_frac"] = float(np.mean([r.truncated for r in good]))
    return out


def run_cells(
    cells: Sequence[tuple[int, str, int]],
    reps: int,
    seed: int,
    config: ExperimentConfig | None = None,
    workers: int = 1,
) -> Iterator[ExperimentReport]:
    """Reports of several (model_id, y_type, n_paths) cells, yielded in order.

    All repetitions go through one process pool when ``workers > 1`` (and
    in this process otherwise), so a grid of cells pays for one pool
    start-up. Each report equals ``run_experiment`` of its cell with the
    same ``reps``, ``seed`` and ``config``, bit for bit; a report is yielded
    as soon as its cell's repetitions are done.

    Every repetition runs one pipeline. A repetition's seed does not depend
    on N, and path i draws from the same streams for every N, so the sample of
    size n is the first n paths of any larger one, and the quantile box,
    taken from path 0, is the same. Cells of one (model, Y type) whose scan
    rectangles ``min(max_m, N)`` agree therefore run as one task per
    repetition: it simulates the largest N once, takes the box once, and
    assembles every N's design in one pass, each checkpointed at its path
    count and trimmed alike (:func:`cpls.design.build_trimmed_designs`).
    The designs are bitwise those of standalone runs; scan, selection and
    box MSE then run per N. A cell that shares its rectangle with no other
    N is a task of one N on the same path, as in ``run_experiment``.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    check_seed(seed)
    cells = [tuple(cell) for cell in cells]
    config = config or ExperimentConfig()
    for model_id, y_type, n_paths in cells:
        # A bad cell or setting is the caller's error, not a failed repetition.
        make_model(model_id, sigma=config.sigma, x0=config.x0)
        explanatory_by_name(y_type, sigma_y=config.sigma_y)
    groups: dict[tuple, set[int]] = {}
    for model_id, y_type, n_paths in cells:  # scan_bounds rejects N < 2
        key = (model_id, y_type, scan_bounds(config.selection, n_paths))
        groups.setdefault(key, set()).add(n_paths)
    tasks = [
        _RepTask(model_id=model_id, y_type=y_type, n_paths=tuple(sorted(ns)), rep=r,
                 master_seed=seed, config=config)
        for (model_id, y_type, _), ns in groups.items()
        for r in range(reps)
    ]
    per_cell: dict[tuple[int, str, int], list[RepRecord]] = {}
    with contextlib.ExitStack() as stack:
        if workers > 1 and len(tasks) > 1:
            pool = stack.enter_context(worker_pool(workers))
            results = pool.map(_run_rep, tasks, chunksize=1)
        else:
            results = map(_run_rep, tasks)
        cell_iter = iter(cells)
        cell = next(cell_iter, None)
        for task, records in zip(tasks, results):
            for n_paths, record in zip(task.n_paths, records):
                per_cell.setdefault((task.model_id, task.y_type, n_paths), []).append(record)
            while cell is not None and len(per_cell.get(cell, ())) == reps:
                model_id, y_type, n_paths = cell
                yield ExperimentReport(
                    model_id=model_id,
                    y_type=y_type,
                    n_paths=n_paths,
                    reps=reps,
                    seed=seed,
                    config=config,
                    per_rep=per_cell[cell],
                    summary=summarize(per_cell[cell]),
                )
                cell = next(cell_iter, None)


def run_experiment(
    model_id: int,
    y_type: str,
    n_paths: int,
    reps: int,
    seed: int,
    config: ExperimentConfig | None = None,
    workers: int = 1,
) -> ExperimentReport:
    """Run ``reps`` independent estimation repetitions and summarize them.

    Deterministic given all arguments; ``workers > 1`` distributes
    repetitions over processes without changing any result. Those processes
    are spawned (see :func:`worker_pool`), so a script that asks for them
    must guard its entry point with ``if __name__ == "__main__":``. A
    repetition that raises is recorded as failed, with its error, and left
    out of the summary rather than aborting the run. Estimated curves for
    plotting are evaluated from the records by :func:`emit_beam`.
    """
    # Unpacking runs the generator to its end, which shuts the pool down.
    (report,) = run_cells([(model_id, y_type, n_paths)], reps, seed, config, workers)
    return report


def emit_beam(report: ExperimentReport, which: str, n_curves: int, path) -> None:
    """Write the true ``a`` or ``b`` and the first ``n_curves`` successful estimates as CSV.

    Columns are (grid point, truth, rep_1, ..., rep_k), on ``BEAM_GRID_POINTS``
    points spanning the first successful repetition's quantile box. Each
    estimate is evaluated from its repetition's theta and dimensions.
    """
    if which not in ("a", "b"):
        raise ValueError(f"which must be 'a' or 'b', got {which!r}")
    good = [r for r in report.per_rep if not r.failed]
    if not good:
        raise ValueError("report has no successful repetition")
    if not 0 <= n_curves <= len(good):
        raise ValueError(f"n_curves must lie in [0, {len(good)}]")
    cfg = report.config
    box = good[0].box
    xg = np.linspace(box.a_x, box.b_x, BEAM_GRID_POINTS)
    yg = np.linspace(box.a_y, box.b_y, BEAM_GRID_POINTS)
    col = "ab".index(which)
    grid = (xg, yg)[col]
    model = make_model(report.model_id, sigma=cfg.sigma, x0=cfg.x0)
    truth = np.asarray((model.a, model.b)[col](grid), dtype=float)
    beams = [
        evaluate_fit(FitResult(dims=r.dims, theta=r.theta, truncated=r.truncated),
                     cfg.phi, cfg.psi, xg, yg)[col]
        for r in good[:n_curves]
    ]
    header = ",".join(["x", "truth"] + [f"rep_{j + 1}" for j in range(n_curves)])
    body = np.column_stack([grid, truth, *beams])
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in body:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
