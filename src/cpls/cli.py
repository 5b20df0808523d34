"""Command-line front end for fits, experiments, and basis checks.

Subcommands:

* ``experiment``  -- Monte-Carlo run for one (model, explanatory type, N);
                     writes per-repetition and summary CSVs plus a JSON
                     metadata file with the fully resolved configuration.
* ``table1``      -- the full benchmark grid {1,2,3} x {A,B} x {400,1000}
                     as one 12-row wide summary.
* ``fit``         -- a single adaptive fit on one fresh sample, streamed
                     through the design pass; writes the selected
                     coefficients and the criterion table.
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
    scan_dimension_grid,
    select_adaptive_from_scan,
)
from .simulate import (
    DRIFT_PAIRS,
    Y_TYPES,
    GridSpec,
    PathStream,
    explanatory_by_name,
    make_model,
)

_PROTOCOL = ExperimentConfig()

#: Built-in settings: the benchmark protocol of ``ExperimentConfig()`` plus
#: the run's own choices (model, Y type, N, repetitions, seed, pool size,
#: written curves). Setting ``key`` is the flag ``--key-with-dashes`` and
#: the config key ``key``; both take the default's type and ``_CHOICES[key]``.
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

#: The allowed values of the settings that have a fixed set of them.
_CHOICES = {
    "model": list(DRIFT_PAIRS),
    "y": list(Y_TYPES),
    "basis_phi": _BASIS_NAMES,
    "basis_psi": _BASIS_NAMES,
    "stability": list(StabilityRule.MODES),
}

_HELP = {
    "n": "number of path copies per repetition",
    "threads": "process pool size for repetitions",
    "curves": "write this many estimated curves of a and of b (beam_a.csv, beam_b.csv)",
}


def _fmt(value) -> str:
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def _write_csv(path: Path, header: list[str], rows: list) -> None:
    # Every command writes a CSV first, so a run that fails its checks
    # leaves no output directory behind.
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def load_config_file(path: str) -> dict:
    """Parse a plain key=value config file (``#`` starts a comment).

    Each value takes the type of the key's built-in default and must be one
    of the key's choices, as the matching flag requires.
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
        kind = type(DEFAULTS[key])
        try:
            settings[key] = kind(value)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: {key} takes {kind.__name__}, got {value!r}") from None
        if key in _CHOICES and settings[key] not in _CHOICES[key]:
            raise ValueError(f"{path}:{lineno}: {key} = {value!r}, choose from {_CHOICES[key]}")
    return settings


def _resolve_settings(args: argparse.Namespace) -> dict:
    """The settings that the command has flags for; a config file's other keys are ignored."""
    settings = {key: default for key, default in DEFAULTS.items() if key in vars(args)}
    if args.config:
        from_file = load_config_file(args.config)
        settings.update((key, value) for key, value in from_file.items() if key in settings)
    for key in settings:
        flag_val = getattr(args, key)
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
    return Path(getattr(args, "out", None) or os.environ.get("CPLS_OUTPUT_DIR") or ".")


def _write_meta(path: Path, settings: dict, extra: dict) -> None:
    meta = {
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        # As this process saw them; None means unset (the BLAS default).
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        # A serial design pass uses a second thread, so the cores matter too.
        # macOS has no sched_getaffinity.
        "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "settings": settings,
    }
    meta.update(extra)
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


#: Summary keys of one function, "{}" standing for "a" or "b"; the CSV
#: column is the key without its "_{}".
_SUMMARY_KEYS = (
    "mse100_{}_mean", "mse100_{}_std", "mse100_oracle_{}_mean", "mse100_oracle_{}_std",
    "dim_{}_mean", "dim_oracle_{}_mean",
)
_SUMMARY_HEADER = ["function"] + [key.replace("_{}", "") for key in _SUMMARY_KEYS]


def _summary_rows(summary: dict) -> list[list]:
    return [[fn] + [summary.get(key.format(fn), math.nan) for key in _SUMMARY_KEYS] for fn in "ab"]


def _print_summary(title: str, summary: dict) -> None:
    print(title)
    print("  " + ",".join(_SUMMARY_HEADER))
    for row in _summary_rows(summary):
        print("  " + ",".join(_fmt(v) for v in row))


def _rep_rows(report) -> list[list]:
    def dims(pair):
        return [pair.m1, pair.m2] if pair else [-1, -1]

    return [
        [r.rep, int(r.failed), r.mse_a, r.mse_b, r.oracle_mse_a, r.oracle_mse_b,
         *dims(r.dims), *dims(r.oracle_dims), int(r.truncated), int(r.oracle_truncated)]
        for r in report.per_rep
    ]


_REP_HEADER = [
    "rep", "failed", "mse_a", "mse_b", "oracle_mse_a", "oracle_mse_b",
    "m1", "m2", "oracle_m1", "oracle_m2", "truncated", "oracle_truncated",
]


def _cmd_experiment(args: argparse.Namespace) -> int:
    settings = _resolve_settings(args)
    config = _experiment_config(settings)
    if settings["curves"] < 0:
        raise ValueError(f"curves must be >= 0, got {settings['curves']}")
    out = _out_dir(args)
    start = time.perf_counter()
    report = run_experiment(
        settings["model"], settings["y"], settings["n"], settings["reps"],
        settings["seed"], config, workers=settings["threads"],
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
    n_curves = min(settings["curves"], report.reps - report.n_failed)
    if n_curves > 0:
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
    # The scan's design pass simulates the paths chunk by chunk as it reads
    # them, after its scan_bounds has rejected N < 2.
    stream = PathStream(model, spec, config.grid, settings["n"], settings["seed"])
    scan = scan_dimension_grid(stream, config.phi, config.psi, config.selection)
    result = select_adaptive_from_scan(scan)
    box = quantile_box(stream)
    theta, m1 = result.fit.theta, result.chosen.m1
    coef_rows = [["a", j + 1, v] for j, v in enumerate(theta[:m1])]
    coef_rows += [["b", j + 1, v] for j, v in enumerate(theta[m1:])]
    _write_csv(out / "fit_coefficients.csv", ["component", "basis_index", "value"], coef_rows)
    # One row per pair of the scan rectangle, m1-major.
    m1s, m2s = np.indices(result.gamma.shape) + 1
    columns = (m1s, m2s, result.gamma, result.penalty, result.admissible,
               result.gamma + result.penalty)
    _write_csv(
        out / "fit_criterion_table.csv",
        ["m1", "m2", "gamma", "pen", "admissible", "criterion"],
        zip(*(column.ravel().tolist() for column in columns)),
    )
    _write_meta(
        out / "fit_meta.json",
        settings,
        {
            "chosen": [result.chosen.m1, result.chosen.m2],
            "gamma": result.fit.gamma_value,
            "lambda": result.fit.lambda_multiplier,
            "truncated": result.fit.truncated,
            "admissible_any": not result.fit.truncated,
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

    def add_run_command(name: str, summary: str, handler, omit: tuple[str, ...] = ()):
        """Subcommand with ``--config``, ``--out`` and one flag per setting not in ``omit``.

        It takes no abbreviated flags: ``table1 --n`` would set ``--n-steps``.
        """
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.add_argument("--config", help="key=value config file (flags take precedence)")
        p.add_argument("--out", help="output directory (default: $CPLS_OUTPUT_DIR or .)")
        for key, default in DEFAULTS.items():
            if key not in omit:
                p.add_argument("--" + key.replace("_", "-"), dest=key, type=type(default),
                               choices=_CHOICES.get(key), help=_HELP.get(key))
        p.set_defaults(handler=handler)
        return p

    add_run_command("experiment", "Monte-Carlo run for one configuration", _cmd_experiment)
    add_run_command("table1", "full benchmark grid, 12 summary rows", _cmd_table1,
                    omit=("model", "y", "n", "curves"))
    p_fit = add_run_command("fit", "single adaptive fit on one fresh sample", _cmd_fit,
                            omit=("reps", "threads", "curves"))
    p_fit.add_argument("--dump-design", action="store_true", help="also write gram/zvec/dvec CSVs")

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
