"""Command-line front end for fits, experiments, and basis checks.

Subcommands:

* ``experiment``  -- Monte-Carlo run for one (model, explanatory type, N);
                     writes per-repetition and summary CSVs plus a JSON
                     metadata file with the fully resolved configuration.
* ``table1``      -- the full benchmark grid {1,2,3} x {A,B} x {400,1000}
                     as one 12-row wide summary.
* ``fit``         -- a single adaptive fit on one fresh sample; writes the
                     selected coefficients and the criterion table.
* ``bases-check`` -- orthonormality residual of a basis family.

Option precedence: command-line flags override a plain ``key = value``
config file (``--config``), which overrides the built-in defaults. The
default output directory comes from ``CPLS_OUTPUT_DIR`` when set.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .bases import BasisKind, family_by_name, orthonormality_residual
from .design import subsystem
from .estimator import StabilityRule
from .experiments import (
    BLAS_THREAD_VARS,
    TABLE1_CELLS,
    ExperimentConfig,
    emit_beam,
    quantile_box,
    rep_seed,
    run_cells,
    run_experiment,
)
from .selection import (
    SelectionConfig,
    criterion_table_rows,
    scan_dimension_grid,
    select_adaptive_from_scan,
)
from .simulate import (
    DRIFT_PAIRS,
    Y_TYPES,
    GridSpec,
    explanatory_by_name,
    generate_sample,
    make_model,
)

_PROTOCOL = ExperimentConfig()

#: Built-in settings: the benchmark protocol of ``ExperimentConfig()`` plus
#: the run's own choices (model, Y type, N, repetitions, seed, pool size,
#: retained curves).
DEFAULTS = {
    "model": 2,
    "y": "A",
    "n": 400,
    "reps": 50,
    "seed": 0,
    "basis_phi": _PROTOCOL.phi.name,
    "basis_psi": _PROTOCOL.psi.name,
    "kappa": _PROTOCOL.selection.kappa,
    "max_m1": _PROTOCOL.selection.max_m1,
    "max_m2": _PROTOCOL.selection.max_m2,
    "stability": _PROTOCOL.selection.stability.mode,
    "cutoff": _PROTOCOL.selection.stability.cutoff,
    "r": _PROTOCOL.selection.stability.r,
    "n_steps": _PROTOCOL.grid.n_steps,
    "dt": _PROTOCOL.grid.dt,
    "drop": _PROTOCOL.grid.drop_first,
    "sigma": _PROTOCOL.sigma,
    "sigma_y": _PROTOCOL.sigma_y,
    "x0": _PROTOCOL.x0,
    "threads": 1,
    "curves": 0,
}

_BASIS_NAMES = [kind.value for kind in BasisKind]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def load_config_file(path: str) -> dict:
    """Parse a plain key=value config file (``#`` starts a comment).

    Each value takes the type of the key's built-in default.
    """
    settings: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in DEFAULTS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        settings[key] = type(DEFAULTS[key])(value)
    return settings


def _resolve_settings(args: argparse.Namespace) -> dict:
    settings = dict(DEFAULTS)
    if getattr(args, "config", None):
        settings.update(load_config_file(args.config))
    for key in settings:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            settings[key] = flag_val
    return settings


def _experiment_config(settings: dict) -> ExperimentConfig:
    grid = GridSpec(n_steps=settings["n_steps"], dt=settings["dt"], drop_first=settings["drop"])
    stability = StabilityRule(
        mode=settings["stability"], cutoff=settings["cutoff"], r=settings["r"]
    )
    selection = SelectionConfig(
        kappa=settings["kappa"],
        sigma_sq=settings["sigma"] ** 2,
        max_m1=settings["max_m1"],
        max_m2=settings["max_m2"],
        stability=stability,
    )
    return ExperimentConfig(
        grid=grid,
        sigma=settings["sigma"],
        sigma_y=settings["sigma_y"],
        x0=settings["x0"],
        phi=family_by_name(settings["basis_phi"]),
        psi=family_by_name(settings["basis_psi"]),
        selection=selection,
    )


def _out_dir(args: argparse.Namespace) -> Path:
    out = getattr(args, "out", None) or os.environ.get("CPLS_OUTPUT_DIR") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_meta(path: Path, settings: dict, extra: dict) -> None:
    meta = {
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        # As this process saw them; None means unset (the BLAS default).
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "settings": settings,
    }
    meta.update(extra)
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


_SUMMARY_HEADER = [
    "function",
    "mse100_mean",
    "mse100_std",
    "mse100_oracle_mean",
    "mse100_oracle_std",
    "dim_mean",
    "dim_oracle_mean",
]


def _summary_rows(summary: dict) -> list[list]:
    rows = []
    for fn in ("a", "b"):
        rows.append([
            fn,
            summary.get(f"mse100_{fn}_mean", math.nan),
            summary.get(f"mse100_{fn}_std", math.nan),
            summary.get(f"mse100_oracle_{fn}_mean", math.nan),
            summary.get(f"mse100_oracle_{fn}_std", math.nan),
            summary.get(f"dim_{fn}_mean", math.nan),
            summary.get(f"dim_oracle_{fn}_mean", math.nan),
        ])
    return rows


def _print_summary(title: str, summary: dict) -> None:
    print(title)
    print("  " + ",".join(_SUMMARY_HEADER))
    for row in _summary_rows(summary):
        print("  " + ",".join(_fmt(v) for v in row))


def _rep_rows(report) -> list[list]:
    rows = []
    for r in report.per_rep:
        rows.append([
            r.rep,
            int(r.failed),
            r.mse_a,
            r.mse_b,
            r.oracle_mse_a,
            r.oracle_mse_b,
            r.dims.m1 if r.dims else -1,
            r.dims.m2 if r.dims else -1,
            r.oracle_dims.m1 if r.oracle_dims else -1,
            r.oracle_dims.m2 if r.oracle_dims else -1,
            int(r.truncated),
            int(r.oracle_truncated),
        ])
    return rows


_REP_HEADER = [
    "rep", "failed", "mse_a", "mse_b", "oracle_mse_a", "oracle_mse_b",
    "m1", "m2", "oracle_m1", "oracle_m2", "truncated", "oracle_truncated",
]


def _cmd_experiment(args: argparse.Namespace) -> int:
    settings = _resolve_settings(args)
    config = _experiment_config(settings)
    out = _out_dir(args)
    keep_curves = settings["curves"] > 0
    start = time.perf_counter()
    report = run_experiment(
        settings["model"], settings["y"], settings["n"], settings["reps"],
        settings["seed"], config, workers=settings["threads"], keep_curves=keep_curves,
    )
    wall_s = time.perf_counter() - start
    _write_csv(out / "experiment_reps.csv", _REP_HEADER, _rep_rows(report))
    _write_csv(out / "experiment_summary.csv", _SUMMARY_HEADER, _summary_rows(report.summary))
    _write_meta(
        out / "experiment_meta.json",
        settings,
        {"rep_seeds": [rep_seed(settings["seed"], r) for r in range(settings["reps"])],
         "n_failed": report.n_failed, "failures": report.failures,
         "workers": settings["threads"], "wall_s": wall_s},
    )
    if keep_curves and report.curves is not None:
        n_curves = min(settings["curves"], report.curves["a"].shape[0])
        emit_beam(report, "a", n_curves, out / "beam_a.csv")
        emit_beam(report, "b", n_curves, out / "beam_b.csv")
    _print_summary(
        f"model {settings['model']}, Y ({settings['y']}), N = {settings['n']}, "
        f"{settings['reps']} repetitions ({report.n_failed} failed)",
        report.summary,
    )
    return 0


_TABLE1_HEADER = [
    "model", "y", "n_paths",
    "mse_a", "std_a", "mse_oracle_a", "std_oracle_a", "dim_a", "dim_oracle_a",
    "mse_b", "std_b", "mse_oracle_b", "std_oracle_b", "dim_b", "dim_oracle_b",
]


def _cmd_table1(args: argparse.Namespace) -> int:
    settings = _resolve_settings(args)
    config = _experiment_config(settings)
    out = _out_dir(args)
    rows = []
    failures = {}
    start = time.perf_counter()
    for report in run_cells(TABLE1_CELLS, settings["reps"], settings["seed"], config,
                            workers=settings["threads"]):
        row_a, row_b = _summary_rows(report.summary)
        rows.append([report.model_id, report.y_type, report.n_paths, *row_a[1:], *row_b[1:]])
        if report.n_failed:
            failures[f"{report.model_id}{report.y_type}-{report.n_paths}"] = report.failures
        print(f"done: model {report.model_id}, Y ({report.y_type}), N = {report.n_paths}")
    wall_s = time.perf_counter() - start
    _write_csv(out / "table1.csv", _TABLE1_HEADER, rows)
    _write_meta(
        out / "table1_meta.json",
        settings,
        {"rep_seeds": [rep_seed(settings["seed"], r) for r in range(settings["reps"])],
         "rows": len(rows), "failures": failures, "workers": settings["threads"], "wall_s": wall_s},
    )
    print(f"wrote {out / 'table1.csv'} ({len(rows)} rows)")
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    settings = _resolve_settings(args)
    config = _experiment_config(settings)
    out = _out_dir(args)
    model = make_model(settings["model"], sigma=settings["sigma"], x0=settings["x0"])
    spec = explanatory_by_name(settings["y"], sigma_y=settings["sigma_y"])
    sample = generate_sample(model, spec, config.grid, settings["n"], settings["seed"])
    scan = scan_dimension_grid(sample, config.phi, config.psi, config.selection)
    result = select_adaptive_from_scan(scan)
    box = quantile_box(sample)
    m1 = result.chosen.m1
    coef_rows = []
    for idx, value in enumerate(result.fit.theta):
        component = "a" if idx < m1 else "b"
        basis_index = idx + 1 if idx < m1 else idx - m1 + 1
        coef_rows.append([component, basis_index, value])
    _write_csv(out / "fit_coefficients.csv", ["component", "basis_index", "value"], coef_rows)
    _write_csv(
        out / "fit_criterion_table.csv",
        ["m1", "m2", "gamma", "pen", "admissible", "criterion"],
        [list(row) for row in criterion_table_rows(result)],
    )
    _write_meta(
        out / "fit_meta.json",
        settings,
        {
            "chosen": [result.chosen.m1, result.chosen.m2],
            "gamma": result.fit.gamma_value,
            "lambda": result.fit.lambda_multiplier,
            "truncated": result.fit.truncated,
            "admissible_any": result.admissible_any,
            "quantile_box": [box.a_x, box.b_x, box.a_y, box.b_y],
        },
    )
    if getattr(args, "dump_design", False):
        sub = subsystem(scan.design, result.chosen)
        np.savetxt(out / "fit_gram.csv", sub.gram, delimiter=",", fmt="%.17g")
        np.savetxt(out / "fit_zvec.csv", sub.zvec, delimiter=",", fmt="%.17g")
        np.savetxt(out / "fit_dvec.csv", sub.dvec, delimiter=",", fmt="%.17g")
    print(
        f"selected dims (m1, m2) = ({result.chosen.m1}, {result.chosen.m2}), "
        f"gamma = {_fmt(result.fit.gamma_value)}, truncated = {result.fit.truncated}"
    )
    return 0


def _cmd_bases_check(args: argparse.Namespace) -> int:
    family = family_by_name(args.basis)
    residual = orthonormality_residual(family, args.m)
    ok = residual < 1e-6
    print(f"basis {family.name}, m = {args.m}: orthonormality residual = {residual:.3e} "
          f"({'ok' if ok else 'FAIL'})")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpls",
        description="Constrained projection least-squares drift estimation for SDE pairs.",
    )
    parser.add_argument("--version", action="version", version=f"cpls {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_reps: bool = True) -> None:
        p.add_argument("--config", help="key=value config file (flags take precedence)")
        p.add_argument("--out", help="output directory (default: $CPLS_OUTPUT_DIR or .)")
        p.add_argument("--seed", type=int)
        p.add_argument("--threads", type=int, help="process pool size for repetitions")
        if with_reps:
            p.add_argument("--reps", type=int)
        p.add_argument("--kappa", type=float)
        p.add_argument("--max-m1", dest="max_m1", type=int)
        p.add_argument("--max-m2", dest="max_m2", type=int)
        p.add_argument("--basis-phi", dest="basis_phi", choices=_BASIS_NAMES)
        p.add_argument("--basis-psi", dest="basis_psi", choices=_BASIS_NAMES)
        p.add_argument("--stability", choices=StabilityRule.MODES)
        p.add_argument("--cutoff", type=float)
        p.add_argument("--r", type=float)
        p.add_argument("--n-steps", dest="n_steps", type=int)
        p.add_argument("--dt", type=float)
        p.add_argument("--drop", type=int)
        p.add_argument("--sigma", type=float)
        p.add_argument("--sigma-y", dest="sigma_y", type=float)
        p.add_argument("--x0", type=float)

    p_exp = sub.add_parser("experiment", help="Monte-Carlo run for one configuration")
    p_exp.add_argument("--model", type=int, choices=list(DRIFT_PAIRS))
    p_exp.add_argument("--y", choices=list(Y_TYPES))
    p_exp.add_argument("--n", type=int, help="number of path copies per repetition")
    p_exp.add_argument("--curves", type=int, help="retain and emit this many estimator curves")
    add_common(p_exp)
    p_exp.set_defaults(handler=_cmd_experiment)

    p_tab = sub.add_parser("table1", help="full benchmark grid, 12 summary rows")
    add_common(p_tab)
    p_tab.set_defaults(handler=_cmd_table1)

    p_fit = sub.add_parser("fit", help="single adaptive fit on one fresh sample")
    p_fit.add_argument("--model", type=int, choices=list(DRIFT_PAIRS))
    p_fit.add_argument("--y", choices=list(Y_TYPES))
    p_fit.add_argument("--n", type=int)
    p_fit.add_argument("--dump-design", action="store_true", help="also write gram/zvec/dvec CSVs")
    add_common(p_fit, with_reps=False)
    p_fit.set_defaults(handler=_cmd_fit)

    p_bas = sub.add_parser("bases-check", help="orthonormality residual of a basis family")
    p_bas.add_argument("--basis", required=True, choices=_BASIS_NAMES)
    p_bas.add_argument("--m", type=int, required=True)
    p_bas.set_defaults(handler=_cmd_bases_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except Exception as exc:  # argparse errors exit(2) before reaching here
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
