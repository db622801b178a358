"""Spans around calls into varsearch's layers, recorded from outside the package.

Every public function of a layer module (a plain function named in the
module's ``__all__``) is replaced by a timing wrapper at *every* name that
refers to it in a loaded ``varsearch`` module.  Replacing the attribute of
the defining module alone would miss call sites that did
``from .ols import fit`` and hold their own reference.

A span is ``[name, parent, start_ns, end_ns, op, extra]``: ``parent`` is the
index of the enclosing span (-1 for a root), ``op`` the operation id the
benchmark set before the call, and ``extra`` a small tuple of sizes taken
from the arguments or the result (see ``_EXTRAS``).  Spans stay in memory
until ``write_spans`` saves them at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import sys
import time

import numpy as np

# layer name -> module that defines it; the layer's functions are the
# plain functions in the module's __all__
LAYERS = {
    "cli": "varsearch.cli",
    "csvio": "varsearch.csvio",
    "model": "varsearch.model",
    "design": "varsearch.design",
    "ols": "varsearch.ols",
    "criteria": "varsearch.criteria",
    "space": "varsearch.search.space",
    "evaluation": "varsearch.search.evaluation",
    "engines": "varsearch.search.engines",
    "coeffsearch": "varsearch.coeffsearch",
    "reports": "varsearch.reports",
    "simulate": "varsearch.simulate",
}

_ENGINE_FUNCTIONS = (
    "exhaustive_search",
    "ga_search",
    "tabu_search",
    "grasp_search",
    "scatter_search",
    "hybrid_search",
)


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _file_size(path):
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


def _engine_extra(args, kwargs, result):
    return (result.evaluations_used, result.skipped_invalid, len(result.trajectory))


# sizes recorded per call: function name -> f(args, kwargs, result) -> tuple
_EXTRAS = {
    "design.build_regression_system": lambda a, k, r: (
        r.x.shape[0], r.x.shape[1], r.y.shape[1]
    ),
    "ols.solve_least_squares": lambda a, k, r: _first_arg(a, k, "sys").x.shape,
    "evaluation.evaluate_config": lambda a, k, r: (int(r[0] == float("inf")),),
    "reports.write_report": lambda a, k, r: (len(r),),
    "csvio.read_matrix_csv": lambda a, k, r: (
        r[1].shape[0], _file_size(_first_arg(a, k, "path"))
    ),
    "simulate.generate": lambda a, k, r: (
        _first_arg(a, k, "spec").burn_in + _first_arg(a, k, "spec").t,
    ),
    "coeffsearch.search_coefficients_full": lambda a, k, r: (r.evaluations_used,),
    **{f"engines.{name}": _engine_extra for name in _ENGINE_FUNCTIONS},
}


class Tracer:
    """Installs timing wrappers and keeps the spans they record."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        extra = _EXTRAS.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, stack[-1] if stack else -1, clock(), 0, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if extra is not None:
                    span[5] = extra(args, kwargs, result)
                return result
            finally:
                span[3] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        """Wrap every layer function at every varsearch name bound to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer, modname in LAYERS.items():
            module = sys.modules[modname]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == modname:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "varsearch" and not modname.startswith("varsearch."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in self._patches:
            setattr(module, attr, original)
        self._patches = []

    def write_spans(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, parent, start, end, op, extra in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "parent": parent, "start_ns": start,
                         "end_ns": end, "op": op, "extra": extra},
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def _op_summary(spans, op):
    """Per-function calls, inclusive time, extras, and self time per layer."""
    indices = [i for i, span in enumerate(spans) if span[4] == op]
    calls, inclusive, extras = {}, {}, {}
    child_time = {i: 0 for i in indices}
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    for i in indices:
        _, parent, start, end, _, _ = spans[i]
        if parent >= 0:
            child_time[parent] += end - start
    for i in indices:
        name, _, start, end, _, extra = spans[i]
        duration = end - start
        calls[name] = calls.get(name, 0) + 1
        inclusive[name] = inclusive.get(name, 0.0) + duration / 1e9
        if extra is not None:
            extras.setdefault(name, []).append(extra)
        layer = name.split(".", 1)[0]
        self_by_layer[layer] += (duration - child_time[i]) / 1e9
    return calls, inclusive, extras, self_by_layer


def _ratio(num, den):
    return num / den if den else 0.0


def op_metrics(spans, op, op_seconds):
    """Layer metrics of one traced operation.

    Returns ``(metrics, counts)``: counts are the values that must repeat
    exactly between two traced runs of the same operation.
    """
    calls, incl, extras, self_by_layer = _op_summary(spans, op)

    def n(name):
        return calls.get(name, 0)

    def t(name):
        return incl.get(name, 0.0)

    builds = extras.get("design.build_regression_system", [])
    solves = extras.get("ols.solve_least_squares", [])
    reads = extras.get("csvio.read_matrix_csv", [])
    engine_runs = [e for f in _ENGINE_FUNCTIONS for e in extras.get(f"engines.{f}", [])]
    coeff_evals = sum(e[0] for e in extras.get("coeffsearch.search_coefficients_full", []))
    evaluations = sum(e[0] for e in engine_runs)
    read_rows = sum(r[0] for r in reads)
    read_bytes = sum(r[1] for r in reads)
    invalid = sum(e[0] for e in extras.get("evaluation.evaluate_config", []))
    counts = {
        "design.build_calls": n("design.build_regression_system"),
        "design.bytes_built": sum(8 * tr * (k + m) for tr, k, m in builds),
        "ols.fit_calls": n("ols.fit"),
        "ols.solve_calls": n("ols.solve_least_squares"),
        "ols.qr_flops": sum(2 * tr * k * k - 2 * k**3 / 3 for tr, k in solves),
        "criteria.log_det_calls": n("criteria.log_det_cov"),
        "model.validate_calls": n("model.validate_config"),
        "evaluation.calls": n("evaluation.evaluate_config"),
        "evaluation.invalid": invalid,
        "engines.evaluations_used": evaluations,
        "engines.skipped_invalid": sum(e[1] for e in engine_runs),
        "reports.bytes": sum(e[0] for e in extras.get("reports.write_report", [])),
    }
    search_s = t("coeffsearch.search_coefficients_full")
    metrics = dict(counts)
    metrics.update(
        {
            "csvio.read_s": t("csvio.read_matrix_csv"),
            "csvio.rows_per_s": _ratio(read_rows, t("csvio.read_matrix_csv")),
            "csvio.bytes_per_s": _ratio(read_bytes, t("csvio.read_matrix_csv")),
            "design.build_s": t("design.build_regression_system"),
            "ols.fit_s": t("ols.fit"),
            "ols.solve_s": t("ols.solve_least_squares"),
            "criteria.log_det_s": t("criteria.log_det_cov"),
            "space.enumerate_s": t("space.enumerate_space"),
            "model.validate_s": t("model.validate_config"),
            "evaluation.s": t("evaluation.evaluate_config"),
            "evaluation.invalid_ratio": _ratio(invalid, n("evaluation.evaluate_config")),
            "engines.self_s": self_by_layer["engines"],
            "engines.improvement_ratio": _ratio(sum(e[2] for e in engine_runs), evaluations),
            "coeffsearch.search_s": search_s,
            "coeffsearch.us_per_eval": _ratio(search_s * 1e6, coeff_evals),
            "coeffsearch.ols_ref_s": t("coeffsearch.compare_with_ols") - search_s
            if n("coeffsearch.compare_with_ols") else 0.0,
            "reports.write_s": t("reports.write_report"),
            "trace.accounted_ratio": _ratio(sum(self_by_layer.values()), op_seconds),
        }
    )
    # the simulate layer runs only in set-up; see setup_metrics
    for layer, seconds in self_by_layer.items():
        if layer != "simulate":
            metrics[f"{layer}.self_s"] = seconds
    return metrics, counts


def setup_metrics(spans, op):
    """Set-up layers: data generation and CSV writing."""
    _, incl, extras, self_by_layer = _op_summary(spans, op)
    rows = sum(e[0] for e in extras.get("simulate.generate", []))
    generate_s = incl.get("simulate.generate", 0.0)
    return {
        "csvio.write_s": incl.get("csvio.write_csv", 0.0),
        "simulate.generate_s": generate_s,
        "simulate.rows_per_s": _ratio(rows, generate_s),
        "simulate.self_s": self_by_layer["simulate"],
    }


def solve_percentiles_us(spans, ops):
    """p50 and p99 of single solve_least_squares calls, pooled over ops."""
    ops = set(ops)
    durations = [
        (end - start) / 1e3
        for name, _, start, end, op, _ in spans
        if op in ops and name == "ols.solve_least_squares"
    ]
    if not durations:
        return 0.0, 0.0
    p50, p99 = np.percentile(durations, [50, 99])
    return float(p50), float(p99)


def median_metrics(per_op):
    """Median of each metric over operations."""
    return {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}
