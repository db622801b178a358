"""Command-line interface.

Subcommands: fit, select, search-coeffs, compare, simulate, forecast.
Exit codes: 0 success, 1 usage error, 2 runtime error (bad data, invalid
configuration, unreadable file).  Human reports go to stdout; ``--out``
writes the primary artifact to a file and ``--out-json`` writes the
machine-readable report.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ._version import __version__
from .coeffsearch import compare_with_ols, search_coefficients_full
from .criteria import CriterionKind
from .csvio import load_dataset, load_future_matrix, write_csv
from .errors import MissingColumnError, VarsearchError
from .model import ModelConfig
from .ols import fit
from .reports import ForecastReport, RunConfig, SimulationReport, write_report
from .search import (
    PartitionMode,
    SearchBudget,
    SearchMethod,
    SearchSpace,
    derive_candidate_seed,
    exhaustive_search,
    ga_search,
    grasp_search,
    hybrid_search,
    scatter_search,
    tabu_search,
)
from .simulate import (
    GeneratorSpec,
    companion_spectral_radius,
    forecast,
    generate,
    random_stable_coefficients,
)

__all__ = ["cli_main", "main"]

_ENGINES = {
    SearchMethod.EXHAUSTIVE: exhaustive_search,
    SearchMethod.GA: ga_search,
    SearchMethod.TABU: tabu_search,
    SearchMethod.GRASP: grasp_search,
    SearchMethod.SCATTER: scatter_search,
    SearchMethod.HYBRID: hybrid_search,
}

# evaluation allowance when a metaheuristic select omits --budget
_DEFAULT_BUDGET = 1000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_io_flags(sub):
    sub.add_argument("--input", required=True, help="input CSV file")
    sub.add_argument(
        "--dependent",
        action="append",
        metavar="NAME",
        help="column explained by the model (repeatable)",
    )
    sub.add_argument(
        "--independent",
        action="append",
        metavar="NAME",
        help="exogenous column (repeatable)",
    )


def _add_model_flags(sub):
    sub.add_argument("--p", type=int, required=True, help="endogenous lag order")
    sub.add_argument("--q", type=int, default=0, help="exogenous lag order")
    sub.add_argument(
        "--no-constant", action="store_true", help="drop the intercept column"
    )
    sub.add_argument(
        "--criterion", default="aic", help="information criterion: aic, bic or hqc"
    )


def _add_report_flags(sub):
    sub.add_argument("--out", help="write the human report to this file")
    sub.add_argument("--out-json", help="write the machine report to this file")


def _add_budget_flags(sub, budget_required):
    budget_help = "maximum number of fitness evaluations"
    if not budget_required:
        budget_help += f" (metaheuristics default: {_DEFAULT_BUDGET})"
    sub.add_argument("--budget", type=int, required=budget_required, help=budget_help)
    sub.add_argument(
        "--stagnation",
        type=int,
        default=200,
        help="stop after this many evaluations without improvement",
    )
    sub.add_argument("--seed", type=int, default=0, help="master random seed")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="varsearch", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_fit = subs.add_parser("fit", help="estimate one configuration by least squares")
    _add_io_flags(p_fit)
    _add_model_flags(p_fit)
    _add_report_flags(p_fit)
    p_fit.set_defaults(handler=_cmd_fit)

    p_sel = subs.add_parser(
        "select", help="search configurations for the best criterion value"
    )
    _add_io_flags(p_sel)
    p_sel.add_argument(
        "--method",
        default="exhaustive",
        help="exhaustive, ga, tabu, grasp, scatter or hybrid",
    )
    p_sel.add_argument("--criterion", default="aic")
    p_sel.add_argument("--p-max", type=int, required=True)
    p_sel.add_argument("--q-max", type=int, default=0)
    p_sel.add_argument(
        "--search-partition",
        action="append",
        metavar="NAME",
        help="column whose dependent/independent role is searched (repeatable); "
        "candidates with different numbers of dependent columns compare ln det "
        "of different sizes, so the winner can depend on the units of the data",
    )
    p_sel.add_argument("--no-constant", action="store_true")
    _add_budget_flags(p_sel, budget_required=False)
    _add_report_flags(p_sel)
    p_sel.set_defaults(handler=_cmd_select)

    for name, help_text in (
        ("search-coeffs", "search coefficient space directly"),
        ("compare", "coefficient search versus least squares"),
    ):
        p_coef = subs.add_parser(name, help=help_text)
        _add_io_flags(p_coef)
        _add_model_flags(p_coef)
        p_coef.add_argument("--method", default="ga")
        _add_budget_flags(p_coef, budget_required=True)
        _add_report_flags(p_coef)
        p_coef.set_defaults(handler=_cmd_coefficients)

    p_sim = subs.add_parser("simulate", help="generate a synthetic dataset")
    p_sim.add_argument("--n-vars", type=int, required=True, help="dependent columns")
    p_sim.add_argument("--t", type=int, required=True, help="rows to keep")
    p_sim.add_argument("--p", type=int, default=1)
    p_sim.add_argument(
        "--n-exog", type=int, default=0, help="exogenous random-walk columns"
    )
    p_sim.add_argument(
        "--q", type=int, default=None, help="exogenous lag order (default 1 if n-exog > 0)"
    )
    p_sim.add_argument("--noise", type=float, default=1.0)
    p_sim.add_argument("--radius", type=float, default=0.9)
    p_sim.add_argument("--burn-in", type=int, default=100)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--no-constant", action="store_true")
    p_sim.add_argument(
        "--out", help="write the CSV here (default: print CSV to stdout)"
    )
    p_sim.add_argument("--out-json", help="write generation metadata as JSON")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_fc = subs.add_parser(
        "forecast", help="fit a configuration and forecast the dependent block"
    )
    _add_io_flags(p_fc)
    _add_model_flags(p_fc)
    p_fc.add_argument("--horizon", type=int, required=True)
    p_fc.add_argument(
        "--future-input",
        help="CSV of future independent values (needed when q >= 1 and horizon >= 2)",
    )
    p_fc.add_argument("--out", help="write the forecasts as CSV to this file")
    p_fc.add_argument("--out-json", help="write the machine report to this file")
    p_fc.set_defaults(handler=_cmd_forecast)

    return parser


def _settings(args, *flag_names, **resolved) -> dict:
    """The settings a report records: the named flags as given, ``constant``,
    the sorted role lists where the command has role flags, and the values
    the command resolved (a canonical name, a default it filled in)."""
    settings = {name: getattr(args, name) for name in flag_names}
    settings["constant"] = not args.no_constant
    if hasattr(args, "dependent"):
        settings["dependent"] = sorted(args.dependent or [])
        settings["independent"] = sorted(args.independent or [])
    return {**settings, **resolved}


def _emit(args, result, settings, names, artifact=None) -> int:
    """Write one command's output and return its exit code.

    stdout gets the human report, ``--out`` the ``artifact`` (a CSV table
    ``(names, matrix)``) or the human report when there is none, and
    ``--out-json`` the JSON report.  ``simulate`` without ``--out`` streams
    its CSV to stdout instead of the human report.
    """
    run_config = RunConfig(args.command, settings)
    human = write_report(result, "human", run_config, names)
    if args.command == "simulate" and not args.out:
        write_csv(sys.stdout, *artifact)
    else:
        sys.stdout.write(human.decode("utf-8"))
    if args.out:
        if artifact is None:
            Path(args.out).write_bytes(human)
        else:
            write_csv(args.out, *artifact)
    if args.out_json:
        Path(args.out_json).write_bytes(write_report(result, "json", run_config, names))
    return 0


def _model_config(args, ds) -> ModelConfig:
    return ModelConfig(
        p=args.p,
        q=args.q,
        dependent_mask=ds.base_mask,
        include_constant=not args.no_constant,
    )


def _load_and_fit(args):
    """The dataset, criterion, configuration and fit of fit and forecast."""
    ds = load_dataset(args.input, args.dependent, args.independent)
    kind = CriterionKind.from_string(args.criterion)
    cfg = _model_config(args, ds)
    return ds, kind, cfg, fit(ds, cfg)


def _cmd_fit(args) -> int:
    ds, kind, _, result = _load_and_fit(args)
    settings = _settings(args, "input", "p", "q", criterion=kind.value)
    return _emit(args, result, settings, ds.names)


def _cmd_select(args) -> int:
    ds = load_dataset(args.input, args.dependent, args.independent)
    kind = CriterionKind.from_string(args.criterion)
    method = SearchMethod.from_string(args.method)
    switch_names = args.search_partition or []
    for name in switch_names:
        if name not in ds.names:
            raise MissingColumnError(name)
    space = SearchSpace(
        p_max=args.p_max,
        q_max=args.q_max,
        partition_mode=PartitionMode.SEARCH if switch_names else PartitionMode.FIXED,
        switchable=tuple(ds.names.index(name) for name in switch_names),
        include_constant=not args.no_constant,
    )
    budget_value = args.budget
    if budget_value is None and method is not SearchMethod.EXHAUSTIVE:
        budget_value = _DEFAULT_BUDGET
    budget = None
    if budget_value is not None:
        budget = SearchBudget(budget_value, args.stagnation, args.seed)
    result = _ENGINES[method](ds, space, kind, budget)
    settings = _settings(
        args, "input", "p_max", "q_max", "stagnation", "seed",
        criterion=kind.value, method=method.value,
        search_partition=sorted(switch_names), budget=budget_value,
    )
    return _emit(args, result, settings, ds.names)


def _cmd_coefficients(args) -> int:
    """search-coeffs, and compare: the same search against least squares."""
    ds = load_dataset(args.input, args.dependent, args.independent)
    kind = CriterionKind.from_string(args.criterion)
    method = SearchMethod.from_string(args.method)
    if method is SearchMethod.EXHAUSTIVE:
        raise _UsageError(
            "exhaustive does not apply to coefficient space; choose "
            "ga, tabu, grasp, scatter or hybrid"
        )
    search = (
        compare_with_ols if args.command == "compare" else search_coefficients_full
    )
    cfg = _model_config(args, ds)
    budget = SearchBudget(args.budget, args.stagnation, args.seed)
    result = search(ds, cfg, kind, method, budget)
    settings = _settings(
        args, "input", "p", "q", "budget", "stagnation", "seed",
        criterion=kind.value, method=method.value,
    )
    return _emit(args, result, settings, ds.names)


def _cmd_simulate(args) -> int:
    q = args.q
    if q is None:
        q = 1 if args.n_exog > 0 else 0
    coefficients = random_stable_coefficients(
        n=args.n_vars,
        p=args.p,
        d=args.n_exog,
        q=q,
        include_constant=not args.no_constant,
        radius=args.radius,
        seed=derive_candidate_seed(args.seed, 0),
    )
    spec = GeneratorSpec(
        coefficients=coefficients,
        t=args.t,
        noise_scale=args.noise,
        burn_in=args.burn_in,
        seed=derive_candidate_seed(args.seed, 1),
        exogenous="random_walk" if q > 0 else None,
    )
    ds = generate(spec)
    report = SimulationReport(
        names=ds.names,
        t=args.t,
        burn_in=args.burn_in,
        seed=args.seed,
        noise_scale=args.noise,
        radius=companion_spectral_radius(coefficients),
        coefficients=coefficients,
    )
    flags = ("n_vars", "t", "p", "n_exog", "noise", "radius", "burn_in", "seed")
    settings = _settings(args, *flags, q=q)
    return _emit(args, report, settings, ds.names, (ds.names, ds.observations))


def _cmd_forecast(args) -> int:
    ds, kind, cfg, result = _load_and_fit(args)
    future_z = None
    if args.future_input:
        indep_names = [ds.names[i] for i in cfg.independent_indices]
        future_z = load_future_matrix(args.future_input, indep_names)
    values = forecast(ds, result, args.horizon, future_z)
    dep_names = tuple(ds.names[i] for i in cfg.dependent_indices)
    report = ForecastReport(values=values, columns=dep_names, horizon=args.horizon)
    flags = ("input", "p", "q", "horizon", "future_input")
    settings = _settings(args, *flags, criterion=kind.value)
    return _emit(args, report, settings, ds.names, (dep_names, values))


def cli_main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (VarsearchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
