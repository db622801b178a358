"""Benchmark of varsearch: seeded workloads, answer checks, layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exhaustive-t5k --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seconds 45 --trace 0

One client runs the workload's operation in a closed loop for ``--seconds``
and checks every answer.  With ``--trace 0`` the metrics are the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` they are the
per-layer metrics, from spans recorded around the calls into each layer.
The program runs as a user gets it: BLAS threading variables and the
worker count are left at their defaults.  Human-readable lines come first;
the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
WORKLOAD_NAMES = ("exhaustive-t5k", "cli-select-t100k", "coeff-ga-t5k", "engines-t500-m12")
# set-up repeats at least this often and for at least this long
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 1.0
# (child, baseline) pairs timed for cli.import_s
IMPORT_PAIRS = 3


def _median(values):
    return statistics.median(values) if values else 0.0


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _wait(proc):
    """Reap a child; returns (exit code, peak RSS in MiB) from wait4."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "cpus": len(os.sched_getaffinity(0)),
        "commit": commit,
    }


class Checker:
    """Counts operations and failures; an answer must pass its workload's
    checks, match the reference for the default seed, and equal the first
    answer of the run exactly."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.first = None
        self.verdicts = {}
        self.attempted = 0
        self.failed = 0

    def __call__(self, answer) -> None:
        from workloads import compare_with_reference, digest

        self.attempted += 1
        if answer is None:
            self.failed += 1
            return
        key = digest(answer)
        if self.first is None:
            self.first = key
        if key not in self.verdicts:
            problems = self.workload.check(answer)
            if self.reference is not None:
                problems += compare_with_reference(answer, self.reference)
            if key != self.first:
                problems.append("answer differs from the first operation of the run")
            for problem in problems:
                print(f"check failed: {self.workload.name}: {problem}", file=sys.stderr)
            self.verdicts[key] = not problems
        if not self.verdicts[key]:
            self.failed += 1


def closed_loop(operation, seconds, on_result):
    """Start the next operation when the previous one ends, for ``seconds``.

    Returns the wall time of each operation; an operation that raises is
    reported with an answer of None.
    """
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        try:
            answer = operation()
        except Exception:
            traceback.print_exc()
            answer = None
        times.append(time.perf_counter() - t0)
        on_result(answer)
    return times


def fresh_dir(path: Path) -> str:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return str(path)


def timed_setups(workload, workdir: Path):
    """Set up repeatedly; every repeat writes its own directory."""
    times, reference = [], None
    start = time.perf_counter()
    while len(times) < SETUP_MIN_REPS or time.perf_counter() - start < SETUP_MIN_SECONDS:
        target = fresh_dir(workdir / f"setup-{len(times) % 2}")
        t0 = time.perf_counter()
        workload.setup(target)
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
        times.append(time.perf_counter() - t0)
    return times, reference


def workload_reference(workload, reference):
    if workload.seed != DEFAULT_SEED:
        return None
    return reference.get(workload.name)


def end_to_end(workload, seconds, workdir: Path, lines):
    env = _subprocess_env()
    setup_times, reference = timed_setups(workload, workdir)
    checker = Checker(workload, workload_reference(workload, reference))
    rss = []

    if workload.uses_cli:
        def operation():
            proc = workload.spawn(env)
            code, peak = _wait(proc)
            rss.append(peak)
            return workload.finish(code)
    else:
        operation = workload.run
    answers = []
    times = closed_loop(operation, seconds, lambda a: (answers.append(a), checker(a)))

    if not workload.uses_cli:
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__)), "--workload", workload.name,
             "--seed", str(workload.seed), "--child", workload.workdir],
            env=env, stdout=subprocess.PIPE,
        )
        out = proc.stdout.read()
        proc.stdout.close()
        code, peak = _wait(proc)
        rss.append(peak)
        checker(json.loads(out) if code == 0 else None)

    rates = [
        workload.evaluations(a) / t for a, t in zip(answers, times) if a is not None
    ]
    metrics = {
        "op_s": _median(times),
        "evals_per_s": _median(rates),
        "setup_s": _median(setup_times),
        "peak_rss_mb": _median(rss),
    }
    lines += [
        f"op_s = {metrics['op_s']:.6f} s (median of {len(times)} operations; "
        f"each: {', '.join(f'{t:.3f}' for t in times)})",
        f"evals_per_s = {metrics['evals_per_s']:.6f} 1/s ({workload.evals_name}, median of {len(rates)} operations)",
        f"setup_s = {metrics['setup_s']:.6f} s (median of {len(setup_times)} set-ups)",
        f"peak_rss_mb = {metrics['peak_rss_mb']:.3f} MiB (median of {len(rss)} fresh processes)",
        f"failed_op_ratio = {checker.failed / checker.attempted:.6f} "
        f"({checker.failed} of {checker.attempted} operations)",
    ]
    return metrics, checker, True


def import_seconds(env):
    """Start-up cost of ``import varsearch.cli`` over a bare interpreter."""
    def spawn(code):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        return time.perf_counter() - t0

    return _median([spawn("import varsearch.cli") - spawn("pass") for _ in range(IMPORT_PAIRS)])


def per_layer(workload, seconds, workdir: Path, lines):
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    tracer.op = "setup"
    try:
        workload.setup(fresh_dir(workdir / "setup-0"))
    finally:
        tracer.op = None
        tracer.uninstall()
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    checker = Checker(workload, workload_reference(workload, reference))

    untraced = closed_loop(workload.run, seconds / 2, checker)

    op_ids = []
    tracer.install()
    try:
        def traced_op():
            tracer.op = len(op_ids)
            op_ids.append(tracer.op)
            try:
                return workload.run()
            finally:
                tracer.op = None
        traced = closed_loop(traced_op, seconds / 2, checker)
    finally:
        tracer.uninstall()

    tracemalloc.start()
    try:
        heap_answer = workload.run()
    except Exception:
        traceback.print_exc()
        heap_answer = None
    heap_peak = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    checker(heap_answer)

    per_op, counts = [], []
    for op, seconds_taken in zip(op_ids, traced):
        metrics, op_counts = tracing.op_metrics(tracer.spans, op, seconds_taken)
        per_op.append(metrics)
        counts.append(op_counts)
    counts_repeat = all(c == counts[0] for c in counts)
    if not counts_repeat:
        print(f"check failed: {workload.name}: layer counts differ between traced "
              f"operations: {counts}", file=sys.stderr)

    metrics = tracing.median_metrics(per_op)
    metrics.update(tracing.setup_metrics(tracer.spans, "setup"))
    metrics["ols.solve_us_p50"], metrics["ols.solve_us_p99"] = tracing.solve_percentiles_us(
        tracer.spans, op_ids
    )
    metrics["cli.import_s"] = import_seconds(_subprocess_env())
    metrics["cli.inproc_s"] = _median(untraced) if workload.uses_cli else 0.0
    metrics["heap_peak_mb"] = heap_peak
    metrics["trace.overhead_ratio"] = _median(traced) / _median(untraced)

    spans_path = OUT / f"spans-{workload.name}-seed{workload.seed}.jsonl"
    tracer.write_spans(spans_path)
    lines += [
        f"traced {len(traced)} and untraced {len(untraced)} operations; "
        f"traced op_s = {_median(traced):.6f} s, untraced op_s = {_median(untraced):.6f} s",
        f"layer self times account for {metrics['trace.accounted_ratio']:.4f} of traced op_s",
        f"layer counts repeat exactly across traced operations: {counts_repeat}",
        f"spans written to {spans_path.relative_to(ROOT)}",
    ]
    return metrics, checker, counts_repeat


def run_workload(name, seed, seconds, trace) -> dict:
    from workloads import WORKLOADS

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    workload = WORKLOADS[name](seed)
    workdir = WORK / f"{name}-seed{seed}-{os.getpid()}"
    lines = [f"workload {name} seed {seed} seconds {seconds:g} trace {trace}",
             f"environment {json.dumps(environment(), sort_keys=True)}"]
    try:
        measure = per_layer if trace else end_to_end
        metrics, checker, sound = measure(workload, seconds, workdir, lines)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    if trace:
        lines += [f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}" for m in declared]
    for line in lines:
        print(f"[{name}] {line}")
    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ {m['name'] for m in declared})} "
            "are not declared in BENCHMARK.json, or declared but not measured"
        )
    return {
        "correct": sound and checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in declared
        },
    }


def run_all(seed, seconds, trace) -> dict:
    """Every workload, each in its own process; combined result last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True,
        )
        out = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(out[:-1]) + "\n")
        if proc.returncode != 0 or not out:
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        result = json.loads(out[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    return combined


def record_reference() -> dict:
    """Answers of the default seed at the current commit."""
    from workloads import WORKLOADS

    answers = {}
    for name in WORKLOAD_NAMES:
        workload = WORKLOADS[name](DEFAULT_SEED)
        workdir = Path(fresh_dir(WORK / f"record-{name}"))
        try:
            workload.setup(str(workdir))
            answer = workload.run()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        problems = workload.check(answer)
        if problems:
            raise RuntimeError(f"{name}: {problems}")
        answers[name] = answer
    return answers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument(
        "--record-reference", action="store_true",
        help=f"rewrite {REFERENCE.name} from seed {DEFAULT_SEED} at this commit",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload is None and not args.record_reference:
        parser.error("--workload is required")
    if not (SRC / "varsearch" / "__init__.py").is_file():
        print(f"error: no varsearch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import varsearch

    if Path(varsearch.__file__).resolve().parent != SRC / "varsearch":
        print(f"error: imported varsearch from {varsearch.__file__}", file=sys.stderr)
        return 2

    if args.child:
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload](args.seed)
        workload.load(args.child)
        print(json.dumps(workload.run()))
        return 0
    if args.record_reference:
        with open(REFERENCE, "w", encoding="utf-8") as fh:
            json.dump(record_reference(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
