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

from ._version import __version__
from .coeffsearch import compare_with_ols, search_coefficients_full
from .criteria import CriterionKind
from .csvio import format_csv, load_dataset, load_future_matrix, write_csv
from .errors import MissingColumnError, VarsearchError
from .model import ModelConfig
from .ols import fit
from .reports import (
    ForecastReport,
    RunConfig,
    SimulationReport,
    write_report,
)
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
        budget_help += " (metaheuristics default: 1000)"
    sub.add_argument(
        "--budget",
        type=int,
        required=budget_required,
        help=budget_help,
    )
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
        help="column whose dependent/independent role is searched (repeatable)",
    )
    p_sel.add_argument("--no-constant", action="store_true")
    _add_budget_flags(p_sel, budget_required=False)
    _add_report_flags(p_sel)
    p_sel.set_defaults(handler=_cmd_select)

    p_sc = subs.add_parser(
        "search-coeffs", help="search coefficient space directly"
    )
    _add_io_flags(p_sc)
    _add_model_flags(p_sc)
    p_sc.add_argument("--method", default="ga")
    _add_budget_flags(p_sc, budget_required=True)
    _add_report_flags(p_sc)
    p_sc.set_defaults(handler=_cmd_search_coeffs)

    p_cmp = subs.add_parser(
        "compare", help="coefficient search versus least squares"
    )
    _add_io_flags(p_cmp)
    _add_model_flags(p_cmp)
    p_cmp.add_argument("--method", default="ga")
    _add_budget_flags(p_cmp, budget_required=True)
    _add_report_flags(p_cmp)
    p_cmp.set_defaults(handler=_cmd_compare)

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


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_bytes(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def _emit(result, run_config: RunConfig, names, args) -> None:
    human = write_report(result, "human", run_config, names)
    sys.stdout.write(human.decode("utf-8"))
    if getattr(args, "out", None):
        _write_bytes(args.out, human)
    if getattr(args, "out_json", None):
        _write_bytes(args.out_json, write_report(result, "json", run_config, names))


def _role_settings(args) -> dict:
    return {
        "dependent": sorted(args.dependent or []),
        "independent": sorted(args.independent or []),
    }


def _model_config(args, ds) -> ModelConfig:
    return ModelConfig(
        p=args.p,
        q=args.q,
        dependent_mask=ds.base_mask,
        include_constant=not args.no_constant,
    )


def _cmd_fit(args) -> int:
    ds = load_dataset(args.input, args.dependent, args.independent)
    CriterionKind.from_string(args.criterion)
    result = fit(ds, _model_config(args, ds))
    run_config = RunConfig(
        "fit",
        {
            "input": args.input,
            "criterion": args.criterion,
            "p": args.p,
            "q": args.q,
            "constant": not args.no_constant,
            **_role_settings(args),
        },
    )
    _emit(result, run_config, ds.names, args)
    return 0


def _cmd_select(args) -> int:
    ds = load_dataset(args.input, args.dependent, args.independent)
    kind = CriterionKind.from_string(args.criterion)
    method = SearchMethod.from_string(args.method)
    switch_names = args.search_partition or []
    switchable = []
    for name in switch_names:
        if name not in ds.names:
            raise MissingColumnError(name)
        switchable.append(ds.names.index(name))
    space = SearchSpace(
        p_max=args.p_max,
        q_max=args.q_max,
        partition_mode=PartitionMode.SEARCH if switchable else PartitionMode.FIXED,
        switchable=tuple(switchable),
        include_constant=not args.no_constant,
    )
    if method is SearchMethod.EXHAUSTIVE:
        budget_value = args.budget
        budget = None
        if args.budget is not None:
            budget = SearchBudget(args.budget, args.stagnation, args.seed)
        result = exhaustive_search(ds, space, kind, budget)
    else:
        budget_value = args.budget if args.budget is not None else _DEFAULT_BUDGET
        budget = SearchBudget(budget_value, args.stagnation, args.seed)
        result = _ENGINES[method](ds, space, kind, budget)
    run_config = RunConfig(
        "select",
        {
            "input": args.input,
            "criterion": kind.value,
            "method": method.value,
            "p_max": args.p_max,
            "q_max": args.q_max,
            "search_partition": sorted(switch_names),
            "budget": budget_value,
            "stagnation": args.stagnation,
            "seed": args.seed,
            "constant": not args.no_constant,
            **_role_settings(args),
        },
    )
    _emit(result, run_config, ds.names, args)
    return 0


def _coeff_common(args):
    ds = load_dataset(args.input, args.dependent, args.independent)
    kind = CriterionKind.from_string(args.criterion)
    method = SearchMethod.from_string(args.method)
    if method is SearchMethod.EXHAUSTIVE:
        raise _UsageError(
            "exhaustive does not apply to coefficient space; choose "
            "ga, tabu, grasp, scatter or hybrid"
        )
    cfg = _model_config(args, ds)
    budget = SearchBudget(args.budget, args.stagnation, args.seed)
    settings = {
        "input": args.input,
        "criterion": kind.value,
        "method": method.value,
        "p": args.p,
        "q": args.q,
        "budget": args.budget,
        "stagnation": args.stagnation,
        "seed": args.seed,
        "constant": not args.no_constant,
        **_role_settings(args),
    }
    return ds, cfg, kind, method, budget, settings


def _cmd_search_coeffs(args) -> int:
    ds, cfg, kind, method, budget, settings = _coeff_common(args)
    outcome = search_coefficients_full(ds, cfg, kind, method, budget)
    _emit(outcome, RunConfig("search-coeffs", settings), ds.names, args)
    return 0


def _cmd_compare(args) -> int:
    ds, cfg, kind, method, budget, settings = _coeff_common(args)
    report = compare_with_ols(ds, cfg, kind, method, budget)
    _emit(report, RunConfig("compare", settings), ds.names, args)
    return 0


def _cmd_simulate(args) -> int:
    q = args.q
    if q is None:
        q = 1 if args.n_exog > 0 else 0
    if q > 0 and args.n_exog < 1:
        raise ValueError("--q > 0 requires --n-exog >= 1")
    if args.n_exog > 0 and q < 1:
        raise ValueError("--n-exog > 0 requires --q >= 1")
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
    csv_text = format_csv(ds.names, ds.observations)
    if args.out:
        _write_text(args.out, csv_text)
    else:
        sys.stdout.write(csv_text)
    report = SimulationReport(
        names=ds.names,
        t=args.t,
        burn_in=args.burn_in,
        seed=args.seed,
        noise_scale=args.noise,
        radius=companion_spectral_radius(coefficients),
        coefficients=coefficients,
    )
    run_config = RunConfig(
        "simulate",
        {
            "n_vars": args.n_vars,
            "t": args.t,
            "p": args.p,
            "n_exog": args.n_exog,
            "q": q,
            "noise": args.noise,
            "radius": args.radius,
            "burn_in": args.burn_in,
            "seed": args.seed,
            "constant": not args.no_constant,
        },
    )
    if args.out:
        human = write_report(report, "human", run_config, ds.names)
        sys.stdout.write(human.decode("utf-8"))
    if args.out_json:
        _write_bytes(
            args.out_json, write_report(report, "json", run_config, ds.names)
        )
    return 0


def _cmd_forecast(args) -> int:
    ds = load_dataset(args.input, args.dependent, args.independent)
    CriterionKind.from_string(args.criterion)
    cfg = _model_config(args, ds)
    result = fit(ds, cfg)
    future_z = None
    if args.future_input:
        indep_names = [ds.names[i] for i in cfg.independent_indices]
        future_z = load_future_matrix(args.future_input, indep_names)
    values = forecast(ds, result, args.horizon, future_z)
    dep_names = tuple(ds.names[i] for i in cfg.dependent_indices)
    report = ForecastReport(values=values, columns=dep_names, horizon=args.horizon)
    run_config = RunConfig(
        "forecast",
        {
            "input": args.input,
            "criterion": args.criterion,
            "p": args.p,
            "q": args.q,
            "horizon": args.horizon,
            "constant": not args.no_constant,
            "future_input": args.future_input,
            **_role_settings(args),
        },
    )
    human = write_report(report, "human", run_config, ds.names)
    sys.stdout.write(human.decode("utf-8"))
    if args.out:
        write_csv(args.out, dep_names, values)
    if args.out_json:
        _write_bytes(
            args.out_json, write_report(report, "json", run_config, ds.names)
        )
    return 0


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
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
