"""The three workloads: a scan-heavy Monte-Carlo cell, a design-heavy fit, the pooled Table 1.

Each workload prepares its inputs and warms up outside the timed region
(``prepare``), runs whole rounds of identical operations (``round``), and
checks the outputs of every round afterwards (``check``). The program is
always called through module attributes (``experiments.run_experiment``),
so the traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import os
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import checks
import tracing
from cpls import design, experiments, selection, simulate
from cpls.bases import HERMITE
from cpls.design import DimPair
from cpls.experiments import ExperimentConfig

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

#: Process-pool size of the pooled workload, and its repetitions per cell.
TABLE1_THREADS = 2
TABLE1_REPS = 2
#: The cell whose pooled row is compared with a serial run of it.
TABLE1_REFERENCE_CELL = (2, "A", 400)


@dataclass
class RoundOut:
    units: int  # repetitions, or fits, completed
    failed: int
    payload: object


class McCell:
    """``run_experiment(2, "A", 400, ...)`` in one process, one repetition a round.

    Under Y (A) every one of the 39 x 39 pairs passes the stability event, so
    the per-pair estimator work of the scan dominates the repetition.
    """

    name = "mc-2A-400"
    units = 1  # repetitions a round
    per_command = False

    def __init__(self, seed: int):
        self.seed = seed
        self.config = ExperimentConfig()

    def master_seed(self, r: int) -> int:
        return self.seed * 1000 + r

    def prepare(self) -> None:
        experiments.run_experiment(2, "A", 400, 1, self.master_seed(999), self.config)

    def round(self, r: int, tracer=None) -> RoundOut:
        report = experiments.run_experiment(2, "A", 400, self.units, self.master_seed(r), self.config, workers=1)
        return RoundOut(units=self.units, failed=report.n_failed, payload=report)

    def check(self, outs: list[RoundOut]) -> list[checks.Check]:
        reports = [o.payload for o in outs]
        records = [rec for rep in reports for rec in rep.per_rep if not rec.failed]
        result = [checks.reps_clean(rep, f"round {i}: no failure, residuals") for i, rep in enumerate(reports)]
        result.append(checks.oracle_dominates(records, "oracle box error <= adaptive"))
        fits = [(rec.theta, rec.dims.m1) for rec in records]
        fits += [(rec.oracle_theta, rec.oracle_dims.m1) for rec in records]
        result.append(checks.integral_of_b(fits, f"int b_hat = 0 over {len(fits)} fits"))
        cfg = self.config
        sample = simulate.generate_sample(
            simulate.make_model(2, sigma=cfg.sigma), simulate.explanatory_by_name("A", sigma_y=cfg.sigma_y),
            cfg.grid, 400, experiments.rep_seed(self.master_seed(0), 0))
        result.append(checks.euler_residuals(sample, 2, cfg.sigma, "simulator: Euler residuals of X"))
        return result


class Fit:
    """``select_adaptive`` on model 3 x Y (B), N = 1000; samples made before timing.

    Only about a third of the pairs are admissible, so the design assembly
    dominates; simulation, the oracle and the box MSE are not on this path.
    """

    name = "fit-3B-1000"
    units = 4  # samples, each fitted once a round
    per_command = False

    def __init__(self, seed: int):
        self.seed = seed
        self.config = ExperimentConfig()
        self.samples = []
        self.first = None  # the full results of the first round

    def prepare(self) -> None:
        cfg = self.config
        model = simulate.make_model(3, sigma=cfg.sigma)
        spec = simulate.explanatory_by_name("B", sigma_y=cfg.sigma_y)
        self.samples = [simulate.generate_sample(model, spec, cfg.grid, 1000, self.seed * 16 + k)
                        for k in range(self.units)]
        selection.select_adaptive(self.samples[0], HERMITE, HERMITE, cfg.selection)

    def round(self, r: int, tracer=None) -> RoundOut:
        sel = self.config.selection
        fits = [selection.select_adaptive(s, HERMITE, HERMITE, sel) for s in self.samples]
        # Later rounds keep only what the checks compare, so that memory does
        # not grow with the number of rounds a run completes.
        if self.first is None:
            self.first = fits
        return RoundOut(units=self.units, failed=0, payload=[(f.chosen, f.fit.theta) for f in fits])

    def check(self, outs: list[RoundOut]) -> list[checks.Check]:
        cfg = self.config
        sel = cfg.selection
        t_norm = cfg.grid.total_time
        result = []
        for k, (sample, fit) in enumerate(zip(self.samples, self.first)):
            chosen, theta = fit.chosen, fit.fit.theta
            tag = f"sample {k} {tuple(chosen)}"
            result.append(checks.euler_residuals(sample, 3, cfg.sigma, f"{tag}: Euler residuals of X"))
            result.append(checks.ou_variance(sample, cfg.sigma_y, 2.0, 1.0, f"{tag}: Y (B) variance"))
            result.append(checks.integral_of_b([(theta, chosen.m1)], f"{tag}: int b_hat = 0"))
            result.append(checks.gamma_is_norm(sample, theta, chosen.m1, fit.fit.gamma_value, t_norm,
                                               f"{tag}: -gamma = empirical norm"))
            big = design.build_design(sample, HERMITE, HERMITE, DimPair(sel.max_m1, sel.max_m2), t_norm)
            sub = design.subsystem(big, chosen)
            result.append(checks.theta_is_kkt_solution(sub.gram, sub.zvec, sub.dvec, theta,
                                                       f"{tag}: theta = dense KKT solve"))
            result.append(checks.chosen_is_argmin(fit, sample.n_paths, t_norm, sel.kappa, sel.sigma_sq,
                                                  sel.max_m1, f"{tag}: chosen = argmin gamma + pen"))
            same = all(o.payload[k][0] == chosen and (o.payload[k][1] == theta).all() for o in outs)
            result.append(checks.Check(f"{tag}: repeated fits identical", same, f"{len(outs)} rounds"))
        return result


class Table1Pool:
    """``cpls table1 --threads 2 --reps 2`` through ``cpls.cli.main`` in a child process.

    All 12 cells, one spawned pool each; the only workload on the pool path.
    """

    name = "table1-pool"
    per_command = True
    units = 12 * TABLE1_REPS  # repetitions a round

    def __init__(self, seed: int):
        self.seed = seed
        self.reference = None

    def table_seed(self, r: int) -> int:
        return self.seed * 100 + r

    def prepare(self) -> None:
        # Also the warm-up: the serial run of the reference cell at round 0's seed.
        model, y, n = TABLE1_REFERENCE_CELL
        self.reference = experiments.run_experiment(model, y, n, TABLE1_REPS, self.table_seed(0),
                                                    ExperimentConfig(), workers=1).summary

    def round(self, r: int, tracer=None) -> RoundOut:
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            cmd = [sys.executable, str(HERE / "table1_child.py")]
            spans_path = Path(tmp) / "spans.jsonl"
            if tracer is not None:
                cmd += ["--spans", str(spans_path)]
            cmd += ["table1", "--reps", str(TABLE1_REPS), "--threads", str(TABLE1_THREADS),
                    "--seed", str(self.table_seed(r)), "--out", tmp]
            log_path = Path(tmp) / "log.txt"
            with open(log_path, "w") as log:
                # A session of its own, so a timeout also ends the pool's workers.
                proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=child_env(),
                                        start_new_session=True)
                try:
                    code = proc.wait(timeout=170)
                except subprocess.TimeoutExpired:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
                    raise
            if code != 0:
                raise RuntimeError(f"table1 exited with {code}:\n{log_path.read_text()}")
            if tracer is not None:
                tracer.extend(tracing.load_spans(spans_path), parent=tracer.current())
            text = (Path(tmp) / "table1.csv").read_text()
        return RoundOut(units=self.units, failed=0, payload=(r, text))

    def check(self, outs: list[RoundOut]) -> list[checks.Check]:
        bound = ExperimentConfig().selection.max_m1
        result = []
        for r, text in (o.payload for o in outs):
            print(f"info: round {r} table1.csv sha256 {hashlib.sha256(text.encode()).hexdigest()}")
            rows = checks.parse_table1(text)
            result.append(checks.table1_rows_sane(rows, bound, f"round {r}: rows"))
            if r == 0:  # the reference cell was run serially at round 0's seed
                result.append(checks.table1_row_matches(rows, TABLE1_REFERENCE_CELL, self.reference,
                                                        "workers change no number"))
        return result


WORKLOADS = {w.name: w for w in (McCell, Fit, Table1Pool)}


def child_env() -> dict:
    """Environment of child interpreters: this checkout's cpls first on the path."""
    env = dict(os.environ)
    src = str(HERE.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
