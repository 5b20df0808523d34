"""Spans around the calls into each cpls module, recorded from outside the package.

Every module of cpls looks its collaborators up in its own namespace at call
time (``cpls.selection`` calls ``build_design`` as a global of
``cpls.selection``), so replacing those attributes with timing wrappers
traces each call without a change to the package. A span is
``[name, start_ns, end_ns, parent, attrs]``; spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import resource
import time

#: (module, attribute, span name). One function can be bound in several
#: modules; every binding a benchmarked path reaches is listed.
TARGETS = (
    ("cpls.cli", "main", "cli.main"),
    ("cpls.cli", "run_experiment", "experiments.run_experiment"),
    ("cpls.experiments", "run_experiment", "experiments.run_experiment"),
    ("cpls.experiments", "generate_sample", "simulate.generate_sample"),
    ("cpls.experiments", "quantile_box", "experiments.quantile_box"),
    ("cpls.experiments", "mse_box", "experiments.mse_box"),
    ("cpls.experiments", "scan_dimension_grid", "selection.scan_dimension_grid"),
    ("cpls.experiments", "select_adaptive_from_scan", "selection.select_adaptive_from_scan"),
    ("cpls.experiments", "select_oracle_from_scan", "selection.select_oracle_from_scan"),
    ("cpls.selection", "select_adaptive", "selection.select_adaptive"),
    ("cpls.selection", "scan_dimension_grid", "selection.scan_dimension_grid"),
    ("cpls.selection", "select_adaptive_from_scan", "selection.select_adaptive_from_scan"),
    ("cpls.selection", "build_design", "design.build_design"),
    ("cpls.selection", "stability_event", "estimator.stability_event"),
    ("cpls.selection", "solve_constrained", "estimator.solve_constrained"),
    ("cpls.selection", "fit_residuals", "estimator.fit_residuals"),
    ("cpls.estimator", "inv_opnorm", "design.inv_opnorm"),
    ("cpls.design", "eval_rows", "bases.eval_rows"),
)


def _cpu_children() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _gram_gflop(args) -> float:
    # build_design(sample, phi, psi, dims, ...): the Gram product V V' costs
    # 2 k^2 flops per (path, time) point, k = m1 + m2 (computed, not counted).
    sample, dims = args[0], args[3]
    window = sample.grid.n_steps - sample.grid.drop_first
    return 2.0 * dims.total ** 2 * sample.n_paths * window / 1e9


class Tracer:
    """Span recorder; ``installed()`` swaps the wrappers in and back out."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str, attrs: dict | None = None) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self.current(), attrs])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def current(self) -> int:
        return self._stack[-1] if self._stack else -1

    @contextlib.contextmanager
    def span(self, name: str, attrs: dict | None = None):
        idx = self.open(name, attrs)
        try:
            yield idx
        finally:
            self.close(idx)

    def _wrap(self, fn, name: str):
        design = name == "design.build_design"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name, {"gflop": _gram_gflop(args)} if design else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def _wrap_pool(self, fn):
        # worker_pool is a context manager: the span covers the with-body and
        # the pool's shutdown, which joins the workers, so their CPU has been
        # added to this process's RUSAGE_CHILDREN when the span closes.
        @contextlib.contextmanager
        def wrapper(workers):
            attrs = {"workers": workers}
            idx = self.open("experiments.worker_pool", attrs)
            cpu0 = _cpu_children()
            try:
                with fn(workers) as pool:
                    yield pool
            finally:
                attrs["child_cpu_s"] = _cpu_children() - cpu0
                self.close(idx)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        for mod_name, attr, name in TARGETS + (("cpls.experiments", "worker_pool", None),):
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap_pool(fn) if name is None else self._wrap(fn, name))
        try:
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def extend(self, spans: list[list], parent: int) -> None:
        """Append spans recorded by another process under ``parent``."""
        base = len(self.spans)
        for name, start, end, par, attrs in spans:
            self.spans.append([name, start, end, parent if par < 0 else par + base, attrs])

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "attrs": attrs}) + "\n")


def load_spans(path) -> list[list]:
    spans = []
    with open(path) as fh:
        for line in fh:
            s = json.loads(line)
            spans.append([s["name"], s["start_ns"], s["end_ns"], s["parent"], s["attrs"]])
    return spans


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration in seconds minus the durations of its direct children."""
    own = [(end - start) * 1e-9 for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= (end - start) * 1e-9
    return own


#: Per-layer metrics, in report order, with their units.
LAYER_METRICS = (
    ("simulate.generate_sample_s", "s"),
    ("bases.eval_rows_s", "s"),
    ("design.build_design_s", "s"),
    ("design.self_s", "s"),
    ("design.gram_gflop", "GFLOP"),
    ("design.gflops", "GFLOP/s"),
    ("design.inv_opnorm_s", "s"),
    ("estimator.stability_event_s", "s"),
    ("estimator.stability_event_calls", "count"),
    ("estimator.solve_constrained_s", "s"),
    ("estimator.solve_constrained_calls", "count"),
    ("estimator.fit_residuals_s", "s"),
    ("selection.scan_s", "s"),
    ("selection.scan_self_s", "s"),
    ("selection.pairs_scanned", "count"),
    ("selection.admissible_ratio", "ratio"),
    ("selection.adaptive_s", "s"),
    ("selection.oracle_s", "s"),
    ("experiments.quantile_box_s", "s"),
    ("experiments.mse_box_s", "s"),
    ("experiments.run_experiment_s", "s"),
    ("experiments.self_s", "s"),
    ("experiments.pools_started", "count"),
    ("experiments.pool_s", "s"),
    ("experiments.core_utilisation", "ratio"),
    ("cli.self_s", "s"),
    ("trace.op_s", "s"),
    ("trace.self_sum_s", "s"),
    ("trace.remainder_s", "s"),
    ("trace.overhead_pct", "%"),
)


def layer_metrics(spans: list[list], units: int, commands: int, overhead_pct: float) -> dict:
    """Per-layer figures from the spans of the traced operations.

    Times and call counts are totals per unit of work (``units``: repetitions
    or fits); ``experiments.pools_started`` is per command run (``commands``).
    ``bench.op`` spans are the benchmark's operations: every other span's self
    time plus ``trace.remainder_s`` (the benchmark's own share of an
    operation) adds up to ``trace.op_s``. ``overhead_pct`` is the traced
    rounds' wall time against the untraced rounds' on the same inputs.
    """
    own = self_times(spans)
    total: dict[str, float] = {}
    self_of: dict[str, float] = {}
    calls: dict[str, int] = {}
    gflop = pool_cpu = pool_capacity = 0.0
    for (name, start, end, _, attrs), own_s in zip(spans, own):
        dur = (end - start) * 1e-9
        total[name] = total.get(name, 0.0) + dur
        self_of[name] = self_of.get(name, 0.0) + own_s
        calls[name] = calls.get(name, 0) + 1
        if name == "design.build_design":
            gflop += attrs["gflop"]
        elif name == "experiments.worker_pool":
            pool_cpu += attrs["child_cpu_s"]
            pool_capacity += attrs["workers"] * dur

    def per(x: float) -> float:
        return x / units

    stability = calls.get("estimator.stability_event", 0)
    solves = calls.get("estimator.solve_constrained", 0)
    op_s = total.get("bench.op", 0.0)
    traced_self = sum(v for k, v in self_of.items() if k != "bench.op")
    design_s = total.get("design.build_design", 0.0)
    m = {
        "simulate.generate_sample_s": per(total.get("simulate.generate_sample", 0.0)),
        "bases.eval_rows_s": per(total.get("bases.eval_rows", 0.0)),
        "design.build_design_s": per(design_s),
        "design.self_s": per(self_of.get("design.build_design", 0.0)),
        "design.gram_gflop": per(gflop),
        "design.gflops": gflop / design_s if design_s else 0.0,
        "design.inv_opnorm_s": per(total.get("design.inv_opnorm", 0.0)),
        "estimator.stability_event_s": per(total.get("estimator.stability_event", 0.0)),
        "estimator.stability_event_calls": per(stability),
        "estimator.solve_constrained_s": per(total.get("estimator.solve_constrained", 0.0)),
        "estimator.solve_constrained_calls": per(solves),
        "estimator.fit_residuals_s": per(total.get("estimator.fit_residuals", 0.0)),
        "selection.scan_s": per(total.get("selection.scan_dimension_grid", 0.0)),
        "selection.scan_self_s": per(self_of.get("selection.scan_dimension_grid", 0.0)),
        "selection.pairs_scanned": per(stability),
        "selection.admissible_ratio": solves / stability if stability else 0.0,
        "selection.adaptive_s": per(total.get("selection.select_adaptive_from_scan", 0.0)),
        "selection.oracle_s": per(total.get("selection.select_oracle_from_scan", 0.0)),
        "experiments.quantile_box_s": per(total.get("experiments.quantile_box", 0.0)),
        "experiments.mse_box_s": per(total.get("experiments.mse_box", 0.0)),
        "experiments.run_experiment_s": per(total.get("experiments.run_experiment", 0.0)),
        "experiments.self_s": per(self_of.get("experiments.run_experiment", 0.0)),
        "experiments.pools_started": calls.get("experiments.worker_pool", 0) / commands if commands else 0.0,
        "experiments.pool_s": per(total.get("experiments.worker_pool", 0.0)),
        "experiments.core_utilisation": pool_cpu / pool_capacity if pool_capacity else 0.0,
        "cli.self_s": per(self_of.get("cli.main", 0.0)),
        "trace.op_s": per(op_s),
        "trace.self_sum_s": per(traced_self),
        "trace.remainder_s": per(self_of.get("bench.op", 0.0)),
        "trace.overhead_pct": overhead_pct,
    }
    return m
