"""The benchmark's workloads: seeded inputs, one operation, answer checks.

Workloads call varsearch only through attribute lookups on the package
(``vs.exhaustive_search``) or on ``varsearch.cli`` at call time, so the
tracer's wrappers see the benchmark's own calls too.

An answer is a JSON-able summary plus the sha256 of the report bytes.
Summaries of the default seed are compared with ``reference.json``
(criterion values within ``TOLERANCE``, hashes exactly); for every seed the
winner is refitted with the public ``fit`` as a self-consistency check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np

import varsearch as vs
import varsearch.cli

TOLERANCE = 1e-8
DATA_FILE = "data.csv"


def _seeds(seed: int, workload_id: int):
    """Coefficient, noise and search seeds derived from the benchmark seed."""
    state = np.random.SeedSequence([seed, workload_id]).generate_state(3, np.uint64)
    return [int(s) for s in state]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _config(cfg) -> dict:
    return {
        "p": cfg.p,
        "q": cfg.q,
        "dependent_mask": list(cfg.dependent_mask),
        "include_constant": cfg.include_constant,
    }


def _search_summary(result) -> dict:
    return {
        "best_config": _config(result.best_config),
        "best_value": result.best_value,
        "evaluations_used": result.evaluations_used,
        "skipped_invalid": result.skipped_invalid,
        "candidate_values": [v for _, v in result.candidate_log],
    }


def _reports(result, command, settings, names) -> dict:
    run_config = vs.RunConfig(command, settings)
    return {
        fmt: _sha(vs.write_report(result, fmt, run_config, names))
        for fmt in ("human", "json")
    }


def _check_search(ds, space, kind, summary, label) -> list:
    """Winner refit and best-of-candidates checks for one search result."""
    problems = []
    best = summary["best_config"]
    cfg = vs.ModelConfig(
        p=best["p"],
        q=best["q"],
        dependent_mask=tuple(best["dependent_mask"]),
        include_constant=best["include_constant"],
    )
    refit = vs.fit(ds, cfg, row_start=space.common_row_start).criterion(kind)
    if not abs(refit - summary["best_value"]) <= TOLERANCE:
        problems.append(f"{label}: refit {refit!r} != best {summary['best_value']!r}")
    values = summary.get("candidate_values")
    if values is not None:
        if len(values) != summary["evaluations_used"]:
            problems.append(f"{label}: {len(values)} candidates logged, "
                            f"{summary['evaluations_used']} evaluations used")
        if min(values) != summary["best_value"]:
            problems.append(f"{label}: best value is not the smallest candidate value")
    return problems


class Workload:
    """One seeded input set and the operation the benchmark repeats."""

    name = ""
    workload_id = 0
    # (n dependent, d exogenous, generator lag p, generator lag q, rows T)
    data = (1, 0, 1, 0, 1)
    # times the CLI as its own process (spawn/finish) instead of run()
    uses_cli = False
    # what evals_per_s counts on this workload
    evals_name = "configs_per_s"

    def __init__(self, seed: int):
        self.seed = seed
        self.coef_seed, self.noise_seed, self.search_seed = _seeds(
            seed, self.workload_id
        )

    def generate(self):
        n, d, p, q, t = self.data
        coefficients = vs.random_stable_coefficients(
            n=n, p=p, d=d, q=q, radius=0.9, seed=self.coef_seed
        )
        spec = vs.GeneratorSpec(
            coefficients=coefficients,
            t=t,
            seed=self.noise_seed,
            exogenous="random_walk" if q else None,
        )
        return vs.generate(spec)

    def setup(self, workdir: str):
        """Generate the inputs and write them as CSV into ``workdir``."""
        self.workdir = workdir
        self.ds = self.generate()
        vs.write_csv(os.path.join(workdir, DATA_FILE), self.ds.names, self.ds.observations)

    def load(self, workdir: str):
        """Read the inputs a previous ``setup`` wrote, as a user would."""
        self.workdir = workdir
        independent = [f"z{i + 1}" for i in range(self.data[1])]
        self.ds = vs.load_dataset(os.path.join(workdir, DATA_FILE), independent=independent)

    def run(self) -> dict:
        """The timed operation; returns the answer."""
        raise NotImplementedError

    def check(self, answer: dict) -> list:
        """Self-consistency problems of one answer (empty when sound)."""
        raise NotImplementedError

    def evaluations(self, answer: dict) -> int:
        """Candidate evaluations the operation made (for evals_per_s)."""
        return answer["summary"]["evaluations_used"]


class ExhaustiveT5k(Workload):
    name = "exhaustive-t5k"
    workload_id = 1
    data = (4, 2, 2, 1, 5000)
    # p 1..8 x q 0..3 x 4 masks, less the 24 with q > 0 and no exogenous column
    valid_configs = 104

    def space(self):
        return vs.SearchSpace(
            p_max=8, q_max=3, partition_mode=vs.PartitionMode.SEARCH, switchable=(4, 5)
        )

    def run(self) -> dict:
        result = vs.exhaustive_search(self.ds, self.space(), vs.CriterionKind.BIC)
        return {
            "summary": _search_summary(result),
            "reports": _reports(result, "select", {"workload": self.name}, self.ds.names),
        }

    def check(self, answer):
        summary = answer["summary"]
        problems = _check_search(self.ds, self.space(), vs.CriterionKind.BIC, summary, self.name)
        if summary["evaluations_used"] != self.valid_configs:
            problems.append(f"{summary['evaluations_used']} evaluations, "
                            f"expected {self.valid_configs}")
        return problems


class EnginesT500M12(Workload):
    name = "engines-t500-m12"
    workload_id = 4
    data = (6, 6, 2, 1, 500)
    engines = ("ga_search", "tabu_search", "grasp_search", "scatter_search", "hybrid_search")

    def space(self):
        return vs.SearchSpace(
            p_max=8, q_max=3, partition_mode=vs.PartitionMode.SEARCH,
            switchable=tuple(range(6, 12)),
        )

    def run(self) -> dict:
        summary, reports = {}, {}
        budget = vs.SearchBudget(400, 100, self.search_seed)
        for engine in self.engines:
            result = getattr(vs, engine)(self.ds, self.space(), vs.CriterionKind.AIC, budget)
            summary[engine] = _search_summary(result)
            reports[engine] = _reports(
                result, "select", {"workload": self.name, "engine": engine}, self.ds.names
            )
        return {"summary": summary, "reports": reports}

    def check(self, answer):
        problems = []
        for engine, summary in answer["summary"].items():
            problems += _check_search(
                self.ds, self.space(), vs.CriterionKind.AIC, summary, engine
            )
            if summary["evaluations_used"] > 400:
                problems.append(f"{engine}: budget of 400 exceeded")
        return problems

    def evaluations(self, answer):
        return sum(s["evaluations_used"] for s in answer["summary"].values())


class CoeffGaT5k(Workload):
    name = "coeff-ga-t5k"
    workload_id = 3
    data = (3, 0, 2, 0, 5000)
    evals_name = "coeff_evals_per_s"

    def config(self):
        return vs.ModelConfig(p=2, q=0, dependent_mask=(True,) * 3)

    def run(self) -> dict:
        report = vs.compare_with_ols(
            self.ds, self.config(), vs.CriterionKind.AIC, vs.SearchMethod.GA,
            vs.SearchBudget(3000, 3000, self.search_seed),
        )
        summary = {
            "ols_value": report.ols_value,
            "search_value": report.search_value,
            "gap": report.gap,
            "coefficient_distance": report.coefficient_distance,
            "evaluations_used": report.evaluations_used,
        }
        return {
            "summary": summary,
            "reports": _reports(report, "compare", {"workload": self.name}, self.ds.names),
        }

    def check(self, answer):
        summary = answer["summary"]
        problems = []
        refit = vs.fit(self.ds, self.config()).criterion(vs.CriterionKind.AIC)
        if not abs(refit - summary["ols_value"]) <= TOLERANCE:
            problems.append(f"OLS refit {refit!r} != ols_value {summary['ols_value']!r}")
        if summary["search_value"] < summary["ols_value"] - TOLERANCE:
            problems.append("coefficient search beat least squares")
        if summary["evaluations_used"] != 3000:
            problems.append(f"{summary['evaluations_used']} evaluations, expected 3000")
        return problems


class CliSelectT100k(Workload):
    name = "cli-select-t100k"
    workload_id = 2
    data = (4, 0, 2, 0, 100_000)
    uses_cli = True
    p_max = 6

    def argv(self):
        return [
            "select", "--input", DATA_FILE, "--p-max", str(self.p_max),
            "--criterion", "bic", "--out", "report.txt", "--out-json", "report.json",
        ]

    def _answer(self) -> dict:
        files = {}
        for fmt, filename in (("human", "report.txt"), ("json", "report.json")):
            with open(os.path.join(self.workdir, filename), "rb") as fh:
                files[fmt] = fh.read()
            os.remove(os.path.join(self.workdir, filename))
        doc = vs.parse_report(files["json"])["result"]
        best = doc["best"]["config"]
        summary = {
            "best_config": {
                "p": best["p"],
                "q": best["q"],
                "dependent_mask": best["dependent_mask"],
                "include_constant": best["include_constant"],
            },
            "best_value": doc["best_value"],
            "evaluations_used": doc["evaluations_used"],
            "skipped_invalid": doc["skipped_invalid"],
            "trajectory_values": [v for _, v in doc["trajectory"]],
        }
        return {"summary": summary, "reports": {k: _sha(v) for k, v in files.items()}}

    def run(self) -> dict:
        """``cli_main`` in-process, as the traced pass measures it."""
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = varsearch.cli.cli_main(self.argv())
        finally:
            os.chdir(cwd)
        if code != 0:
            raise RuntimeError(f"cli_main exited with {code}")
        return self._answer()

    def spawn(self, env):
        """Start ``varsearch select`` as its own process, as a user runs it."""
        return subprocess.Popen(
            [sys.executable, "-m", "varsearch.cli", *self.argv()],
            cwd=self.workdir,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def finish(self, code: int) -> dict:
        if code != 0:
            raise RuntimeError(f"varsearch select exited with {code}")
        return self._answer()

    def space(self):
        return vs.SearchSpace(p_max=self.p_max)

    def check(self, answer):
        summary = answer["summary"]
        problems = _check_search(self.ds, self.space(), vs.CriterionKind.BIC, summary, self.name)
        if summary["evaluations_used"] != self.p_max:
            problems.append(f"{summary['evaluations_used']} evaluations, expected {self.p_max}")
        if min(summary["trajectory_values"]) != summary["best_value"]:
            problems.append("trajectory does not end at the best value")
        return problems


WORKLOADS = {w.name: w for w in (ExhaustiveT5k, CliSelectT100k, CoeffGaT5k, EnginesT500M12)}


def digest(answer: dict) -> str:
    """Exact identity of an answer: every float at full precision."""
    return _sha(json.dumps(answer, sort_keys=True).encode("utf-8"))


def compare_with_reference(answer, reference, path="") -> list:
    """Differences from a stored answer: floats within TOLERANCE, rest exact."""
    if isinstance(reference, dict):
        if not isinstance(answer, dict) or set(answer) != set(reference):
            return [f"{path or 'answer'}: keys differ from the reference"]
        problems = []
        for key in sorted(reference):
            problems += compare_with_reference(answer[key], reference[key], f"{path}.{key}")
        return problems
    if isinstance(reference, list):
        if not isinstance(answer, list) or len(answer) != len(reference):
            return [f"{path}: length differs from the reference"]
        problems = []
        for i, (a, r) in enumerate(zip(answer, reference)):
            problems += compare_with_reference(a, r, f"{path}[{i}]")
        return problems
    if isinstance(reference, float) and not isinstance(answer, bool) and isinstance(answer, (int, float)):
        if math.isinf(reference) or math.isnan(reference):
            same = answer == reference or (math.isnan(reference) and math.isnan(answer))
        else:
            same = abs(answer - reference) <= TOLERANCE
        return [] if same else [f"{path}: {answer!r} != reference {reference!r}"]
    return [] if answer == reference else [f"{path}: {answer!r} != reference {reference!r}"]
