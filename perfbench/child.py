"""Runs one workload's CLI sequence in this fresh interpreter until the
time is up, driving ``kappasim.cli.main(argv)`` in-process.

Usage: ``child.py PLAN.json`` with the working directory holding the
workload's inputs; ``run.py`` writes the plan and starts this script with
``src`` on ``PYTHONPATH``. The result (timings, output digests per
iteration, peak RSS, versions) goes to the plan's ``result`` path and, in
a traced run, the spans to its ``spans`` path.

Iteration 0 warms caches and is not timed. Each iteration is bracketed
by the host-speed reference loop (``hostref.py``), whose times are
returned as ``refs``. In a traced run the remaining
iterations alternate traced and untraced, so the difference between their
medians is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from hostref import reference_seconds

PROBE_ORDERINGS = 200
PROBE_REPEATS = 5


def digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def call_cli(main, argv: list[str]) -> tuple[int | str, str]:
    """Run one CLI call; returns (exit code or error text, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        return f"{argv[0]}: {traceback.format_exc(limit=3)}", out.getvalue()
    if code != 0:
        return f"{argv[0]}: exit {code}: {err.getvalue().strip()[-300:]}", out.getvalue()
    return 0, out.getvalue()


def probe_prefix_kappas(kappasim, matrix_path: str, team, seed: int) -> float | None:
    """Microseconds per ordering of the public prefix_kappas on ``team``."""
    prefix_kappas = getattr(kappasim.mc, "prefix_kappas", None)
    read_matrix = getattr(kappasim.corpus, "read_matrix", None)
    if prefix_kappas is None or read_matrix is None or team is None:
        return None
    matrix = read_matrix(matrix_path)
    rng = random.Random(seed)
    orderings = [rng.sample(team, len(team)) for _ in range(PROBE_ORDERINGS)]
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        for ordering in orderings:
            prefix_kappas(matrix, team, ordering)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / PROBE_ORDERINGS * 1e6


def thread_count(kappasim) -> int:
    """The pool size the program resolves by default; 1 once the pool is gone."""
    resolve = getattr(kappasim.mc, "thread_count", None)
    return int(resolve()) if resolve is not None else 1


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    import kappasim
    import kappasim.cli
    import numpy

    src = Path(plan["src"]).resolve()
    if src not in Path(kappasim.__file__).resolve().parents:
        print(f"kappasim imported from {kappasim.__file__}, not from {src}", file=sys.stderr)
        return 3

    trace = plan["trace"]
    tracer = None
    if trace:
        from tracer import ROOT_SPAN, Tracer

        tracer = Tracer()
    outputs = [Path(name) for name in plan["outputs"]]
    calls = plan["calls"]
    walls: list[float] = []
    refs: list[float] = []
    traced_walls: list[float] = []
    digests: list[dict[str, str | None]] = []
    failures: list[str] = []
    n_calls = n_failed = 0

    deadline = time.perf_counter() + plan["seconds"]
    min_iterations = 3 if trace else 2
    iteration = 0
    last = 0.0
    # Stop before an iteration that would likely end after the deadline,
    # so a run lasts at most --seconds plus set-up.
    while iteration < min_iterations or time.perf_counter() + last < deadline:
        started = time.perf_counter()
        traced = tracer is not None and iteration % 2 == 1
        for path in outputs:
            path.unlink(missing_ok=True)
        captured: dict[str, str] = {}
        results = []
        if traced:
            tracer.run_id = iteration
            tracer.install()
        ref_before = reference_seconds()
        t0 = time.perf_counter()
        for argv, stdout_name in calls:
            if traced:
                with tracer.span(ROOT_SPAN):
                    code, out = call_cli(kappasim.cli.main, argv)
            else:
                code, out = call_cli(kappasim.cli.main, argv)
            results.append(code)
            if stdout_name:
                captured[stdout_name] = out
        wall = time.perf_counter() - t0
        ref_after = reference_seconds()
        if traced:
            tracer.uninstall()
        for name, text in captured.items():
            Path(name).write_text(text, encoding="utf-8", newline="")
        n_calls += len(results)
        for code in results:
            if code != 0:
                n_failed += 1
                if len(failures) < 5:
                    failures.append(str(code))
        digests.append({str(path): digest(path) for path in outputs})
        if iteration > 0:
            refs += [ref_before, ref_after]
            (traced_walls if traced else walls).append(wall)
        iteration += 1
        last = time.perf_counter() - started

    result = {
        "walls": walls,
        "refs": refs,
        "traced_walls": traced_walls,
        "iterations": iteration,
        "calls": n_calls,
        "failed_calls": n_failed,
        "failures": failures,
        "digests": digests,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "kappasim": getattr(kappasim, "__version__", None),
        "threads": thread_count(kappasim),
    }
    if tracer is not None:
        result["absent_sites"] = tracer.absent
        result["absent_spans"] = tracer.absent_spans
        result["team"] = tracer.team
        result["kappa_hat"] = tracer.kappa_hat
        result["prefix_us_per_ordering"] = (
            probe_prefix_kappas(kappasim, plan["probe_input"], tracer.team, plan["seed"])
            if plan["probe_input"]
            else None
        )
        Path(plan["spans"]).write_text(json.dumps(tracer.spans))
    Path(plan["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
