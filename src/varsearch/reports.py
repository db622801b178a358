"""Human-readable and machine-readable result reports.

The machine format is strict JSON: ``NaN`` and the infinities are never
emitted as bare tokens but wrapped as ``{"$float": "NaN"}`` style objects,
so any standards-compliant parser can read a report.  Identical inputs
produce byte-identical reports: keys are sorted, no timestamps or
environment details are embedded, and every number comes from the
deterministic computation itself.

Human reports format floats with ``#.6g`` (six significant digits,
trailing zeros kept) in a fixed layout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__
from .coeffsearch import CoeffSearchOutcome, ComparisonReport
from .model import CoefficientSet, FitResult, ModelConfig
from .search.space import SearchResult

__all__ = [
    "RunConfig",
    "ForecastReport",
    "SimulationReport",
    "write_report",
    "parse_report",
]

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    """What was asked of the tool; embedded verbatim in every report."""

    command: str
    settings: dict = field(default_factory=dict)


@dataclass
class ForecastReport:
    """Iterative h-step predictions for the dependent columns."""

    values: np.ndarray
    columns: tuple
    horizon: int


@dataclass
class SimulationReport:
    """Provenance of one generated dataset."""

    names: tuple
    t: int
    burn_in: int
    seed: int
    noise_scale: float
    radius: float
    coefficients: CoefficientSet


def _fmt(value: float) -> str:
    value = float(value)
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return format(value, "#.6g")


def _encode(obj):
    """JSON-safe tree; non-finite floats become {"$float": name} objects."""
    if obj is None or isinstance(obj, (bool, str, int)):
        return obj
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if math.isnan(value):
            return {"$float": "NaN"}
        if value == math.inf:
            return {"$float": "Infinity"}
        if value == -math.inf:
            return {"$float": "-Infinity"}
        return value
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _encode(obj.tolist())
    if isinstance(obj, dict):
        return {str(k): _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def _revive(obj: dict):
    if set(obj) == {"$float"}:
        name = obj["$float"]
        if name == "NaN":
            return math.nan
        if name == "Infinity":
            return math.inf
        if name == "-Infinity":
            return -math.inf
    return obj


def parse_report(text) -> dict:
    """Parse a machine report (bytes or str), reviving the non-finite
    float objects."""
    return json.loads(text, object_hook=_revive)


def _config_payload(cfg: ModelConfig, names=None) -> dict:
    payload = {
        "p": cfg.p,
        "q": cfg.q,
        "dependent_mask": [bool(b) for b in cfg.dependent_mask],
        "include_constant": cfg.include_constant,
    }
    if names is not None:
        payload["dependent"] = [names[i] for i in cfg.dependent_indices]
        payload["independent"] = [names[i] for i in cfg.independent_indices]
    return payload


def _coefficients_payload(coef: CoefficientSet) -> dict:
    return {
        "a": [m.tolist() for m in coef.a],
        "b": [m.tolist() for m in coef.b],
        "c": coef.c[0].tolist() if coef.c is not None else None,
    }


def _fit_payload(result: FitResult, names=None) -> dict:
    return {
        "config": _config_payload(result.config, names),
        "coefficients": _coefficients_payload(result.coefficients),
        "criteria": {k.value: v for k, v in result.criterion_values.items()},
        "log_det_sigma": result.log_det,
        "sigma": result.sigma.tolist(),
        "n_params": result.n_params,
        "effective_t": result.effective_t,
        "row_start": result.row_start,
        "degenerate": result.degenerate,
    }


def _search_payload(result: SearchResult, names=None) -> dict:
    return {
        "method": result.method,
        "best_value": result.best_value,
        "evaluations_used": result.evaluations_used,
        "skipped_invalid": result.skipped_invalid,
        "trajectory": [[int(i), v] for i, v in result.trajectory],
        "best": _fit_payload(result.best_fit, names),
    }


def _comparison_payload(report: ComparisonReport, names=None) -> dict:
    return {
        "config": _config_payload(report.config, names),
        "criterion": report.kind.value,
        "method": report.method.value,
        "ols_value": report.ols_value,
        "search_value": report.search_value,
        "gap": report.gap,
        "coefficient_distance": report.coefficient_distance,
        "evaluations_used": report.evaluations_used,
        "degenerate": report.degenerate,
        "effective_t": report.effective_t,
        "per_criterion": report.per_criterion,
        "ols_coefficients": _coefficients_payload(report.ols_coefficients),
        "search_coefficients": _coefficients_payload(report.search_coefficients),
    }


def _coeff_outcome_payload(outcome: CoeffSearchOutcome, names=None) -> dict:
    return {
        "method": outcome.method,
        "criterion": outcome.criterion,
        "best_value": outcome.value,
        "evaluations_used": outcome.evaluations_used,
        "trajectory": [[int(i), v] for i, v in outcome.trajectory],
        "config": _config_payload(outcome.config, names),
        "coefficients": _coefficients_payload(outcome.coefficients),
    }


def _forecast_payload(report: ForecastReport, names=None) -> dict:
    return {
        "horizon": report.horizon,
        "columns": list(report.columns),
        "values": report.values.tolist(),
    }


def _simulation_payload(report: SimulationReport, names=None) -> dict:
    return {
        "names": list(report.names),
        "t": report.t,
        "burn_in": report.burn_in,
        "seed": report.seed,
        "noise_scale": report.noise_scale,
        "companion_radius": report.radius,
        "coefficients": _coefficients_payload(report.coefficients),
    }


def _matrix_lines(matrix, indent="    ") -> list:
    rows = np.atleast_2d(np.asarray(matrix, dtype=float))
    return [indent + "  ".join(f"{_fmt(v):>12s}" for v in row) for row in rows]


def _human_config(cfg: ModelConfig, names=None) -> list:
    lines = [
        "configuration",
        f"  p = {cfg.p}, q = {cfg.q}, constant = "
        f"{'yes' if cfg.include_constant else 'no'}",
    ]
    if names is not None:
        dep = ", ".join(names[i] for i in cfg.dependent_indices)
        indep = ", ".join(names[i] for i in cfg.independent_indices)
        lines.append(f"  dependent: {dep}")
        lines.append(f"  independent: {indep if indep else '(none)'}")
    else:
        lines.append(f"  dependent mask: {''.join('1' if b else '0' for b in cfg.dependent_mask)}")
    return lines


def _human_coefficients(coef: CoefficientSet) -> list:
    lines = ["coefficients"]
    for t, mat in enumerate(coef.a, start=1):
        lines.append(f"  A_{t}:")
        lines.extend(_matrix_lines(mat))
    for t, mat in enumerate(coef.b, start=1):
        lines.append(f"  B_{t}:")
        lines.extend(_matrix_lines(mat))
    if coef.c is not None:
        lines.append("  C:")
        lines.extend(_matrix_lines(coef.c))
    return lines


def _human_fit(result: FitResult, names=None) -> list:
    crit = result.criterion_values
    lines = []
    lines.extend(_human_config(result.config, names))
    lines.append("")
    lines.extend(_human_coefficients(result.coefficients))
    lines.append("")
    lines.append("fit")
    lines.append(
        f"  effective sample T' = {result.effective_t} "
        f"(first regression row {result.row_start})"
    )
    lines.append(f"  parameters k = {result.n_params}")
    lines.append(f"  ln det(sigma) = {_fmt(result.log_det)}")
    ordered = sorted(crit.items(), key=lambda kv: kv[0].value)
    lines.append(
        "  " + "  ".join(f"{k.value.upper()} = {_fmt(v)}" for k, v in ordered)
    )
    if result.degenerate:
        lines.append("  degenerate fit: sigma is singular, so the criteria are -inf")
    return lines


def _human_search(result: SearchResult, names=None) -> list:
    lines = [
        "search",
        f"  method = {result.method}",
        f"  best value = {_fmt(result.best_value)}",
        f"  evaluations used = {result.evaluations_used}",
        f"  improvements = {len(result.trajectory)}",
        f"  invalid candidates seen = {result.skipped_invalid}",
        "",
        "best model",
    ]
    lines.extend(_human_fit(result.best_fit, names))
    return lines


def _human_comparison(report: ComparisonReport, names=None) -> list:
    lines = [
        "comparison of least squares and direct coefficient search",
        f"  criterion = {report.kind.value}",
        f"  method = {report.method.value}",
        f"  least-squares value = {_fmt(report.ols_value)}",
        f"  search value        = {_fmt(report.search_value)}",
        f"  gap (search - ols)  = {_fmt(report.gap)}",
        f"  coefficient distance = {_fmt(report.coefficient_distance)}",
        f"  evaluations used = {report.evaluations_used}",
        f"  effective sample T' = {report.effective_t}",
    ]
    if report.degenerate:
        lines.append("  least-squares sigma is singular (degenerate); gap pinned to 0")
    lines.append("  per criterion (ols | search):")
    for kind in sorted(report.per_criterion["ols"]):
        ols_v = report.per_criterion["ols"][kind]
        sea_v = report.per_criterion["search"][kind]
        lines.append(f"    {kind.upper()}: {_fmt(ols_v)} | {_fmt(sea_v)}")
    lines.append("")
    lines.append("least-squares coefficients")
    lines.extend(_human_coefficients(report.ols_coefficients)[1:])
    lines.append("")
    lines.append("search coefficients")
    lines.extend(_human_coefficients(report.search_coefficients)[1:])
    return lines


def _human_coeff_outcome(outcome: CoeffSearchOutcome, names=None) -> list:
    lines = [
        "coefficient search",
        f"  method = {outcome.method}",
        f"  criterion = {outcome.criterion}",
        f"  best value = {_fmt(outcome.value)}",
        f"  evaluations used = {outcome.evaluations_used}",
        f"  improvements = {len(outcome.trajectory)}",
        "",
    ]
    lines.extend(_human_config(outcome.config, names))
    lines.append("")
    lines.extend(_human_coefficients(outcome.coefficients))
    return lines


def _human_forecast(report: ForecastReport, names=None) -> list:
    lines = [
        "forecast",
        f"  horizon = {report.horizon}",
        "  step  " + "  ".join(f"{c:>12s}" for c in report.columns),
    ]
    for h, row in enumerate(report.values, start=1):
        lines.append(
            f"  {h:>4d}  " + "  ".join(f"{_fmt(v):>12s}" for v in row)
        )
    return lines


def _human_simulation(report: SimulationReport, names=None) -> list:
    lines = [
        "simulation",
        f"  columns: {', '.join(report.names)}",
        f"  rows generated = {report.t} (after burn-in {report.burn_in})",
        f"  noise scale = {_fmt(report.noise_scale)}",
        f"  companion spectral radius = {_fmt(report.radius)}",
        f"  seed = {report.seed}",
        "",
    ]
    lines.extend(_human_coefficients(report.coefficients))
    return lines


# result class -> (report kind, JSON payload, human body); each takes
# (result, names)
_WRITERS = [
    (FitResult, "fit", _fit_payload, _human_fit),
    (SearchResult, "search", _search_payload, _human_search),
    (ComparisonReport, "comparison", _comparison_payload, _human_comparison),
    (
        CoeffSearchOutcome,
        "coefficient-search",
        _coeff_outcome_payload,
        _human_coeff_outcome,
    ),
    (ForecastReport, "forecast", _forecast_payload, _human_forecast),
    (SimulationReport, "simulation", _simulation_payload, _human_simulation),
]


def write_report(result, fmt: str, run_config: RunConfig, names=None) -> bytes:
    """Render one result as UTF-8 report bytes.

    Parameters
    ----------
    result : FitResult, SearchResult, CoeffSearchOutcome, ComparisonReport,
        ForecastReport or SimulationReport
    fmt : {"human", "json"}
    run_config : RunConfig
        Command and resolved settings, embedded in the report.
    names : sequence of str, optional
        Dataset column names, used to label configurations.

    Identical inputs produce byte-identical output.
    """
    if fmt not in ("human", "json"):
        raise ValueError(f"unknown report format {fmt!r}")
    for cls, kind, payload_fn, human_fn in _WRITERS:
        if isinstance(result, cls):
            break
    else:
        raise TypeError(f"no report writer for {type(result).__name__}")

    if fmt == "json":
        document = {
            "schema_version": SCHEMA_VERSION,
            "tool": {"name": "varsearch", "version": __version__},
            "run": {
                "command": run_config.command,
                "settings": _encode(run_config.settings),
            },
            "kind": kind,
            "result": _encode(payload_fn(result, names)),
        }
        text = json.dumps(document, sort_keys=True, indent=2, allow_nan=False)
        return (text + "\n").encode("utf-8")

    header = [
        f"varsearch {run_config.command} report (tool version {__version__})",
    ]
    if run_config.settings:
        parts = [
            f"{key}={run_config.settings[key]}"
            for key in sorted(run_config.settings)
        ]
        header.append("settings: " + ", ".join(parts))
    header.append("")
    body = human_fn(result, names)
    return ("\n".join(header + body) + "\n").encode("utf-8")
