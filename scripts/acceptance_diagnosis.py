"""Reproduce the measurements behind docs/acceptance_diagnosis.md.

Two sections, both seeded like the acceptance module (master seed 1,
50 repetitions):

* ``grid``  -- the 12-cell benchmark grid {1,2,3} x {A,B} x {400,1000} run
  through ``run_cells`` (one process pool per bound; each cell equals its
  own ``run_experiment`` bit for bit) at scan bound 25 and at the default
  ``SCAN_BOUND``: MSE means, selected dimensions, the share of repetitions
  whose choice sits on the scan bound, the criterion-3 direction checks,
  and the wall time of each grid. These are the numbers the acceptance
  module sees at each bound.
* ``leads`` -- per-repetition analysis of the model-1 cells and of model 2
  at N = 400, one 48 x 48 scan per repetition, from which the choices at
  every smaller bound are read off the nested sub-rectangles. It tests the
  candidate causes of the criterion 1-3 failures one at a time: the scan
  bound, the MSE convention (integral or box average), a single-path or a
  pooled quantile box, the length of the Y (A) box, a joint or
  per-component oracle, and the a/b constant offset.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/acceptance_diagnosis.py --section leads
    PYTHONPATH=src python scripts/acceptance_diagnosis.py --section grid --workers 2

On two cores the grid section takes about 2.5 minutes and the leads
section about 1.7.
"""

from __future__ import annotations

import argparse
import dataclasses
import time

import numpy as np

from cpls.bases import HERMITE, eval_matrix, simpson_grid
from cpls.estimator import evaluate_fit
from cpls.experiments import (
    MSE_NODES,
    TABLE1_CELLS,
    ExperimentConfig,
    QuantileBox,
    mse_box,
    quantile_box,
    rep_seed,
    run_cells,
    worker_pool,
)
from cpls.selection import (
    SCAN_BOUND,
    DimensionScan,
    SelectionConfig,
    _select,
    scan_dimension_grid,
    select_adaptive_from_scan,
    select_oracle_from_scan,
)
from cpls.simulate import explanatory_by_name, generate_sample, make_model

GRID_BOUNDS = (25, SCAN_BOUND)
REFERENCE_BOUND = 48
PROFILE_BOUNDS = tuple(range(25, REFERENCE_BOUND + 1))
LEAD_CELLS = ((1, "A", 400), (1, "A", 1000), (1, "B", 400), (1, "B", 1000), (2, "A", 400), (2, "B", 400))


def config_at(bound: int) -> ExperimentConfig:
    return ExperimentConfig(selection=SelectionConfig(max_m1=bound, max_m2=bound))


# ---------------------------------------------------------------- grid section


def run_grid(reps: int, seed: int, workers: int) -> None:
    for bound in GRID_BOUNDS:
        cfg = config_at(bound)
        print(f"\n== grid at scan bound {bound} x {bound} ({reps} repetitions, seed {seed}) ==")
        print("cell      100MSE(a)  100MSE(b)  orc(a)   orc(b)   m1     m2     orc m1  orc m2  "
              "on-bound adapt/oracle  max m1,m2")
        start = time.time()
        summaries = {}
        for report in run_cells(TABLE1_CELLS, reps, seed, cfg, workers=workers):
            model_id, y_type, n = report.model_id, report.y_type, report.n_paths
            good = [r for r in report.per_rep if not r.failed]
            s = report.summary
            summaries[(model_id, y_type, n)] = s
            on_a = np.mean([bound in (r.dims.m1, r.dims.m2) for r in good])
            on_o = np.mean([bound in (r.oracle_dims.m1, r.oracle_dims.m2) for r in good])
            max_m1 = max(r.dims.m1 for r in good)
            max_m2 = max(r.dims.m2 for r in good)
            print(
                f"{model_id}{y_type} N={n:<5d}{s['mse100_a_mean']:9.3f}  {s['mse100_b_mean']:9.3f}  "
                f"{s['mse100_oracle_a_mean']:7.3f}  {s['mse100_oracle_b_mean']:7.3f}  "
                f"{s['dim_a_mean']:5.2f}  {s['dim_b_mean']:5.2f}  "
                f"{s['dim_oracle_a_mean']:6.2f}  {s['dim_oracle_b_mean']:6.2f}  "
                f"{100 * on_a:5.0f}% / {100 * on_o:3.0f}%         {max_m1},{max_m2}",
                flush=True,
            )
            if (model_id, y_type, n) == (2, "A", 400):
                res = {k: max(r.max_residuals[k] for r in good) for k in good[0].max_residuals}
                print("          criterion-5 residuals: "
                      + ", ".join(f"{k} {v:.2e}" for k, v in res.items()))
        elapsed = time.time() - start
        n_dec = n_dom = 0
        for model_id in (1, 2, 3):
            for y_type in ("A", "B"):
                small, large = summaries[(model_id, y_type, 400)], summaries[(model_id, y_type, 1000)]
                for fn in ("a", "b"):
                    dec = large[f"mse100_{fn}_mean"] < small[f"mse100_{fn}_mean"]
                    dom = (small[f"mse100_oracle_{fn}_mean"] <= small[f"mse100_{fn}_mean"]
                           and large[f"mse100_oracle_{fn}_mean"] <= large[f"mse100_{fn}_mean"])
                    n_dec += dec
                    n_dom += dom
                    if not dec:
                        print(f"  not decreasing: model {model_id} Y ({y_type}) {fn}: "
                              f"{small[f'mse100_{fn}_mean']:.1f} -> {large[f'mse100_{fn}_mean']:.1f}")
        print(f"criterion 3 at bound {bound}: {n_dec}/12 decreasing, {n_dom}/12 dominated")
        print(f"grid wall time at bound {bound}: {elapsed:.0f} s ({workers} workers)")


# --------------------------------------------------------------- leads section


def pooled_box(sample) -> QuantileBox:
    """Quantile box over all paths' kept observations (not just path 0)."""
    lo = sample.grid.drop_first
    qx = np.quantile(sample.x[:, lo:], [0.02, 0.98])
    qy = np.quantile(sample.y[:, lo:], [0.01, 0.99])
    return QuantileBox(a_x=float(qx[0]), b_x=float(qx[1]), a_y=float(qy[0]), b_y=float(qy[1]))


def restrict(scan: DimensionScan, bound: int) -> DimensionScan:
    """The scan over the nested [1, bound]^2 sub-rectangle.

    Only the frontier is clipped; the design and the scan's arrays stay the
    full ones, so the oracle's box factors keep their size.
    """
    m1 = np.arange(1, len(scan.frontier) + 1)
    return dataclasses.replace(scan, frontier=np.where(m1 <= bound, np.minimum(scan.frontier, bound), 0))


def box_errors(fit, model, box: QuantileBox) -> dict[str, float]:
    """Integrated and box-averaged squared errors, and the box-mean offsets."""
    xg, wx = simpson_grid(box.a_x, box.b_x, MSE_NODES)
    yg, wy = simpson_grid(box.a_y, box.b_y, MSE_NODES)
    a_hat, b_hat = evaluate_fit(fit, HERMITE, HERMITE, xg, yg)
    ra = a_hat - model.a(xg)
    rb = b_hat - model.b(yg)
    len_x, len_y = box.b_x - box.a_x, box.b_y - box.a_y
    out = {"int_a": wx @ (ra * ra), "int_b": wy @ (rb * rb)}
    out["avg_a"], out["avg_b"] = out["int_a"] / len_x, out["int_b"] / len_y
    out["off_a"], out["off_b"] = (wx @ ra) / len_x, (wy @ rb) / len_y
    out["cen_a"] = out["avg_a"] - out["off_a"] ** 2
    out["cen_b"] = out["avg_b"] - out["off_b"] ** 2
    return out


def best_fit_bias(fn, m: int, lo: float, hi: float) -> float:
    """Box-averaged squared error of the best m-term Hermite fit of fn on [lo, hi]."""
    xg, w = simpson_grid(lo, hi, MSE_NODES)
    sw = np.sqrt(w)
    basis = eval_matrix(HERMITE, m, xg)
    coef, *_ = np.linalg.lstsq(basis * sw[:, None], fn(xg) * sw, rcond=None)
    resid = basis @ coef - fn(xg)
    return float(w @ (resid * resid)) / (hi - lo)


def lead_rep(task: tuple[int, str, int, int, int]) -> dict:
    model_id, y_type, n, rep, seed = task
    cfg = config_at(REFERENCE_BOUND)
    model = make_model(model_id, sigma=cfg.sigma, x0=cfg.x0)
    spec = explanatory_by_name(y_type, sigma_y=cfg.sigma_y)
    sample = generate_sample(model, spec, cfg.grid, n, rep_seed(seed, rep))
    box, pbox = quantile_box(sample), pooled_box(sample)
    full = scan_dimension_grid(sample, cfg.phi, cfg.psi, cfg.selection)
    out: dict = {"len_x": box.b_x - box.a_x, "len_y": box.b_y - box.a_y, "pooled_len_y": pbox.b_y - pbox.a_y}
    reference = select_adaptive_from_scan(full).chosen
    for bound in PROFILE_BOUNDS:
        chosen = select_adaptive_from_scan(restrict(full, bound)).chosen
        out[f"on_bound_{bound}"] = bound in (chosen.m1, chosen.m2)
        out[f"censored_{bound}"] = chosen != reference
    for bound in GRID_BOUNDS:
        scan = restrict(full, bound)
        adaptive = select_adaptive_from_scan(scan)
        err_a, err_b = mse_box(scan, model, box)
        oracle = select_oracle_from_scan(scan, err_a, err_b)
        row = {"m1": adaptive.chosen.m1, "m2": adaptive.chosen.m2,
               "on_bound": bound in (adaptive.chosen.m1, adaptive.chosen.m2),
               "oracle": (oracle.chosen.m1, oracle.chosen.m2)}
        row.update(box_errors(adaptive.fit, model, box))
        pooled = box_errors(adaptive.fit, model, pbox)
        row["pooled_avg_a"], row["pooled_avg_b"] = pooled["avg_a"], pooled["avg_b"]
        # The selector's own minimum and tie-break, on other criteria.
        row["oracle_per_component"] = (_select(scan, err_a, 0.0).chosen.m1,
                                       _select(scan, err_b, 0.0).chosen.m2)
        row["oracle_box_avg"] = tuple(
            _select(scan, err_a / out["len_x"], err_b / out["len_y"]).chosen)
        row["bias_a"] = best_fit_bias(model.a, adaptive.chosen.m1, box.a_x, box.b_x)
        out[bound] = row
    return out


def _ranks(v: np.ndarray) -> np.ndarray:
    return np.argsort(np.argsort(v)).astype(float)


def run_leads(reps: int, seed: int, workers: int) -> None:
    tasks = [(m, y, n, r, seed) for (m, y, n) in LEAD_CELLS for r in range(reps)]
    start = time.time()
    with worker_pool(workers) as pool:
        results = list(pool.map(lead_rep, tasks, chunksize=1))
    by_cell = {cell: results[i * reps:(i + 1) * reps] for i, cell in enumerate(LEAD_CELLS)}
    print(f"\n== leads ({reps} repetitions, seed {seed}; {time.time() - start:.0f} s) ==")

    print("\n-- share of repetitions whose adaptive choice at each bound sits on that bound /"
          f" differs from the choice of the {REFERENCE_BOUND} x {REFERENCE_BOUND} scan --")
    print("bound " + "".join(f"{m}{y}/{n:<12d}" for m, y, n in LEAD_CELLS))
    for bound in PROFILE_BOUNDS:
        shares = [
            (np.mean([r[f"on_bound_{bound}"] for r in by_cell[c]]),
             np.mean([r[f"censored_{bound}"] for r in by_cell[c]]))
            for c in LEAD_CELLS
        ]
        print(f"{bound:5d} " + "".join(f"{100 * on:4.0f}% /{100 * cen:4.0f}%   " for on, cen in shares))

    def mean(rows: list[dict], key: str) -> float:
        return float(np.mean([row[key] for row in rows]))

    for cell in LEAD_CELLS:
        rows_all = by_cell[cell]
        len_x = np.array([r["len_x"] for r in rows_all])
        len_y = np.array([r["len_y"] for r in rows_all])
        print(f"\n-- model {cell[0]}, Y ({cell[1]}), N = {cell[2]} --")
        print(f"box length X: median {np.median(len_x):.2f}, mean {len_x.mean():.2f}; "
              f"Y: median {np.median(len_y):.1f}, mean {len_y.mean():.1f}; "
              f"pooled Y box length: median {np.median([r['pooled_len_y'] for r in rows_all]):.1f}")
        for bound in GRID_BOUNDS:
            rows = [r[bound] for r in rows_all]
            orc = np.array([r["oracle"] for r in rows], dtype=float)
            pcs = np.array([r["oracle_per_component"] for r in rows], dtype=float)
            bav = np.array([r["oracle_box_avg"] for r in rows], dtype=float)
            # a rank correlation needs two repetitions
            rho = (f"{np.corrcoef(_ranks(orc[:, 1]), _ranks(np.log(len_y)))[0, 1]:+.2f}"
                   if reps > 1 else "n/a")
            print(f" bound {bound}: adaptive m1 {mean(rows, 'm1'):.2f}, m2 {mean(rows, 'm2'):.2f}, "
                  f"on bound {100 * mean(rows, 'on_bound'):.0f}%")
            print(f"   100*MSE integral      a {100 * mean(rows, 'int_a'):8.3f}  b {100 * mean(rows, 'int_b'):8.3f}")
            print(f"   100*MSE box average   a {100 * mean(rows, 'avg_a'):8.3f}  b {100 * mean(rows, 'avg_b'):8.3f}")
            print(f"   100*MSE pooled box    a {100 * mean(rows, 'pooled_avg_a'):8.3f}  "
                  f"b {100 * mean(rows, 'pooled_avg_b'):8.3f}  (box average)")
            print(f"   box-mean offset       a {mean(rows, 'off_a'):+8.3f}  b {mean(rows, 'off_b'):+8.3f}")
            print(f"   100*offset^2          a {100 * np.mean([r['off_a'] ** 2 for r in rows]):8.3f}  "
                  f"b {100 * np.mean([r['off_b'] ** 2 for r in rows]):8.3f}")
            print(f"   100*MSE offset removed a {100 * mean(rows, 'cen_a'):7.3f}  b {100 * mean(rows, 'cen_b'):8.3f}  "
                  "(box average)")
            print(f"   100*best-fit bias^2 of a at the adaptive m1 (box average) {100 * mean(rows, 'bias_a'):.3f}")
            print(f"   oracle m1, m2: joint {orc[:, 0].mean():.2f}, {orc[:, 1].mean():.2f}; "
                  f"per component {pcs[:, 0].mean():.2f}, {pcs[:, 1].mean():.2f}; "
                  f"box-averaged joint {bav[:, 0].mean():.2f}, {bav[:, 1].mean():.2f}")
            print(f"   rank correlation of oracle m2 with log Y-box length: {rho}")

    print("\n-- best m-term Hermite fit of a2 on [-2.5, 2.5], 100 * box-averaged bias^2 --")
    a2 = make_model(2).a
    print("  " + ", ".join(f"m={m}: {100 * best_fit_bias(a2, m, -2.5, 2.5):.3f}" for m in range(3, 9)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--section", choices=["grid", "leads", "all"], default="all")
    parser.add_argument("--reps", type=int, default=50)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()
    if args.section in ("leads", "all"):
        run_leads(args.reps, args.seed, args.workers)
    if args.section in ("grid", "all"):
        run_grid(args.reps, args.seed, args.workers)


if __name__ == "__main__":
    main()
