"""kappasim benchmark: times the ``kappasim`` CLI end to end on a workload
and, with ``--trace 1``, each of its layers from outside.

Run from the root of a kappasim source tree (the package is imported from
``./src``; nothing is installed)::

    python3 perfbench/run.py --workload twin-simulate --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in one fresh interpreter (``child.py``) that calls
``kappasim.cli.main(argv)`` in-process, repeating the workload's CLI
sequence until ``--seconds`` have passed. Set-up time is sampled in
separate fresh interpreters. End-to-end timings are given at a reference
host speed measured next to them (``hostref.py``), because the host's own
speed drifts by more than the regressions the benchmark must catch. The
outputs are checked against an exact-rational oracle and file invariants
(``checks.py``) and their sha256 digests must not change between
iterations. The program's default thread pool is used:
``KAPPASIM_THREADS`` is removed from the child's environment, as are the
variables that turn off or move bytecode caching.

Standard output is a readable report followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``; ``--trace 0`` reports
the ``end_to_end`` metrics of ``BENCHMARK.json``, ``--trace 1`` its
``per_layer`` metrics. The full record (metadata, checks, digests) is
also written under ``.perfbench_out/``. Exits with 2, printing no
result, when the source tree or a run is broken.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from checks import check_outputs
from hostref import REF_SECONDS, adjust
from tracer import ROOT_SPAN, SITES
from workloads import FIT_STAGES, MATRIX_INPUT, OUTPUT_STEMS, WORKLOAD_NAMES, Workload, build

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 0
SETUP_SAMPLES = 15
# Times the imports between two runs of the host-speed reference loop and
# prints the adjusted and the raw seconds and where kappasim came from.
SETUP_CODE = (
    f"import sys, time; sys.path.insert(0, {str(HERE)!r}); "
    "from hostref import adjust, reference_seconds; before = reference_seconds(); "
    "t = time.perf_counter(); import numpy, kappasim; seconds = time.perf_counter() - t; "
    "after = reference_seconds(); print(adjust(seconds, (before + after) / 2)); print(seconds); "
    "print(kappasim.__file__)"
)


# Rates named after what they count, keyed to the span they divide by.
DERIVED = {"mc.orderings_per_s": "mc.run_experiment", "dispersion.teams_per_s": "dispersion.run_variation"}


class BenchError(Exception):
    """The benchmark could not measure: broken tree or crashed run."""


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def child_env() -> dict[str, str]:
    # The program's default thread pool and Python's default bytecode
    # caching are measured, whatever the caller's environment sets.
    drop = ("KAPPASIM_THREADS", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(what: str, argv: list[str], cwd: Path, timeout: float) -> str:
    try:
        proc = subprocess.run(
            argv, cwd=cwd, env=child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{what} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def setup_samples(cwd: Path) -> tuple[list[float], list[float]]:
    """Seconds for fresh interpreters to import NumPy and kappasim, at the
    reference host speed and as measured."""
    adjusted, raw = [], []
    for _ in range(SETUP_SAMPLES):
        out = run_process("set-up probe", [sys.executable, "-c", SETUP_CODE], cwd, 30)
        adjusted_s, raw_s, location = out.split("\n")[:3]
        if SRC not in Path(location).resolve().parents:
            raise BenchError(f"kappasim imported from {location}, not from {SRC}")
        adjusted.append(float(adjusted_s))
        raw.append(float(raw_s))
    return adjusted, raw


def source_metadata() -> dict:
    files = sorted(SRC.rglob("*.py"))
    tree = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        lines += data.count(b"\n")
        tree.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"git_commit": commit, "src_lines": lines, "src_sha256": tree.hexdigest(), "nproc": os.cpu_count()}


def output_counts(workdir: Path) -> dict[str, tuple[int, int]]:
    counts = {}
    for stem, names in OUTPUT_STEMS.items():
        rows = size = 0
        for name in names:
            path = workdir / name
            if path.exists():
                data = path.read_bytes()
                rows += data.count(b"\n")
                size += len(data)
        counts[stem] = (rows, size)
    return counts


def digest_checks(digests: list[dict[str, str | None]]) -> list[tuple[str, bool, str]]:
    """Every output exists, and no iteration's bytes differ from the first's."""
    first = digests[0]
    missing = sorted(name for name, value in first.items() if value is None)
    checks = [("every output written", not missing, f"missing: {missing}" if missing else "")]
    for i, later in enumerate(digests[1:], 1):
        changed = sorted(name for name in first if later.get(name) != first[name])
        checks.append((f"iteration {i} outputs identical to iteration 0", not changed, f"differ: {changed}" if changed else ""))
    return checks


def adjusted_walls(child: dict) -> list[float]:
    """The iterations' wall times at the reference host speed.

    One factor for the whole run, from the mean of every reference time
    taken in it: the reference samples the host's speed at evenly spaced
    moments, and a single sample is too short to stand for the seconds of
    program time next to it."""
    reference = statistics.mean(child["refs"])
    return [adjust(w, reference) for w in child["walls"]]


def end_to_end(wl: Workload, child: dict, setup: list[float]) -> dict[str, tuple[float, int]]:
    """Every timing at the reference host speed. ``wall_s`` is the mean
    iteration, the run's total time over its iteration count, since the
    reference factor stands for the whole run's time; ``setup_s`` is the
    median of the set-up samples, each adjusted on its own."""
    walls = adjusted_walls(child)
    wall = statistics.mean(walls)
    return {
        "wall_s": (wall, len(walls)),
        "work_per_s": (wl.work / wall, len(walls)),
        "setup_s": (statistics.median(setup), len(setup)),
        "peak_rss_mb": (child["peak_rss_kb"] / 1024.0, 1),
    }


def per_layer(wl: Workload, child: dict, spans: list, workdir: Path) -> tuple[dict[str, tuple[float, int]], list[str]]:
    """Per-layer metrics from the traced iterations' spans, and the names
    of metrics whose wrapped functions no longer exist."""
    run_ids = sorted({span[4] for span in spans}) or [0]
    total = defaultdict(lambda: defaultdict(float))
    calls = defaultdict(lambda: defaultdict(int))
    own = defaultdict(lambda: defaultdict(float))
    children = [0.0] * len(spans)
    for name, start, end, parent, run_id, _, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    cpu = wall = 0.0
    for i, (name, start, end, _, run_id, cpu0, cpu1) in enumerate(spans):
        total[run_id][name] += end - start
        calls[run_id][name] += 1
        own[run_id][name] += end - start - children[i]
        if name == "mc.run_experiment":
            cpu += cpu1 - cpu0
            wall += end - start
    n = len(run_ids)

    def seconds(name):
        return (median_or_zero(total[r][name] for r in run_ids), n)

    def count(name):
        return (median_or_zero(calls[r][name] for r in run_ids), n)

    def self_seconds(name):
        return (median_or_zero(own[r][name] for r in run_ids), n)

    def rate(work, name):
        busy = seconds(name)[0]
        return (work / busy if busy else 0.0, n)

    metrics = {f"{name}.s": seconds(name) for _, _, name in SITES}
    metrics.update(
        {
            "corpus.read_matrix.cells_per_s": rate(wl.cells_read, "corpus.read_matrix"),
            "agreement.fleiss_kappa.calls": count("agreement.fleiss_kappa"),
            "mc.run_experiment.calls": count("mc.run_experiment"),
            "mc.run_experiment.cpu_per_wall": (cpu / wall if wall else 0.0, n),
            "mc.orderings_per_s": rate(wl.orderings, "mc.run_experiment"),
            "mc.prefix_kappas.us_per_ordering": (child.get("prefix_us_per_ordering") or 0.0, 1),
            "mc.read_runs.calls": count("mc.read_runs"),
            "dispersion.run_variation.self_s": self_seconds("dispersion.run_variation"),
            "dispersion.teams_per_s": rate(wl.teams, "dispersion.run_variation"),
            "cli.self_s": self_seconds(ROOT_SPAN),
            "host.ref_s": (median_or_zero(child["refs"]), len(child["refs"])),
            "trace.wall_s": (median_or_zero(child["traced_walls"]), len(child["traced_walls"])),
            "trace.overhead_s": (
                median_or_zero(child["traced_walls"]) - median_or_zero(child["walls"]),
                len(child["traced_walls"]),
            ),
            "trace.absent_sites": (len(child["absent_sites"]), 1),
            "work.orderings": (wl.orderings, 1),
            "work.prefix_values": (wl.prefix_values, 1),
            "work.matrix_cells": (wl.cells_written + wl.cells_read, 1),
        }
    )
    for stage in FIT_STAGES:
        path = workdir / f"fit_{stage}.json"
        report = json.loads(path.read_text()) if path.exists() else {}
        metrics[f"minfit.fit.{stage}.iterations"] = (report.get("iterations", 0), 1)
        metrics[f"minfit.fit.{stage}.r2"] = (report.get("r2", 0.0), 1)
    for stem, (rows, size) in output_counts(workdir).items():
        metrics[f"out.{stem}.rows"] = (rows, 1)
        metrics[f"out.{stem}.bytes"] = (size, 1)
    metrics["mc.write_runs.bytes"] = metrics["out.runs.bytes"]

    absent = [
        metric
        for metric in metrics
        for span in child["absent_spans"]
        if metric.startswith(span + ".") or DERIVED.get(metric) == span
    ]
    if child.get("prefix_us_per_ordering") is None and wl.orderings:
        absent.append("mc.prefix_kappas.us_per_ordering")
    return metrics, absent


def declared_metrics(spec: dict) -> dict[str, dict[str, str]]:
    """Metric name -> {"unit", "kind"} from the BENCHMARK.json spec."""
    declared = {m["name"]: {"unit": m["unit"], "kind": "end_to_end"} for m in spec["end_to_end"]}
    declared.update({m["name"]: {"unit": m["unit"], "kind": "per_layer"} for m in spec["per_layer"]})
    return declared


def seed_digests(name: str) -> dict[str, str] | None:
    path = HERE / "seed_digests.json"
    return json.loads(path.read_text()).get(name) if path.exists() else None


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Measure one workload; returns the full record of the run."""
    wl = build(name, seed)
    workdir = OUT / f"work-{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        for filename, text in wl.inputs.items():
            (workdir / filename).write_text(text, encoding="utf-8", newline="")
        setup, raw_setup = ([], []) if trace else setup_samples(workdir)
        tag = f"{name}-seed{seed}-trace{int(trace)}"
        plan = {
            "src": str(SRC),
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "calls": [[list(call.argv), call.stdout] for call in wl.calls],
            "outputs": list(wl.outputs),
            "probe_input": MATRIX_INPUT if MATRIX_INPUT in wl.inputs else None,
            "result": str(workdir / "child_result.json"),
            "spans": str(OUT / f"spans-{tag}.json"),
        }
        (workdir / "plan.json").write_text(json.dumps(plan))
        run_process("child.py", [sys.executable, str(HERE / "child.py"), str(workdir / "plan.json")], workdir, seconds + 120)
        child = json.loads((workdir / "child_result.json").read_text())
        checks = check_outputs(wl, workdir, child.get("kappa_hat"), child.get("team"))
        checks += digest_checks(child["digests"])
        failed_checks = sum(1 for _, ok, _ in checks if not ok)
        attempted = child["calls"] + len(checks)
        failed = child["failed_calls"] + failed_checks
        if trace:
            spans = json.loads(Path(plan["spans"]).read_text())
            metrics, absent = per_layer(wl, child, spans, workdir)
        else:
            metrics, absent = end_to_end(wl, child, setup), []
        expected = seed_digests(name) if seed == DEFAULT_SEED else None
        record = {
            "workload": name,
            "seed": seed,
            "cli_seed": wl.cli_seed,
            "seconds": seconds,
            "trace": trace,
            "meta": {
                **source_metadata(),
                "python": child["python"],
                "numpy": child["numpy"],
                "kappasim": child["kappasim"],
                "threads": child["threads"],
            },
            "work": {
                "unit": wl.work_unit,
                "count": wl.work,
                "orderings": wl.orderings,
                "prefix_values": wl.prefix_values,
                "teams": wl.teams,
                "cells_written": wl.cells_written,
                "cells_read": wl.cells_read,
                "outputs": {stem: {"rows": r, "bytes": b} for stem, (r, b) in output_counts(workdir).items() if b},
            },
            "iterations": child["iterations"],
            "walls": child["walls"],
            "adjusted_walls": adjusted_walls(child) if child["walls"] else [],
            "refs": child["refs"],
            "traced_walls": child["traced_walls"],
            "setup_samples": setup,
            "raw_setup_samples": raw_setup,
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted,
            "call_failures": child["failures"],
            "checks": checks,
            "digests": child["digests"][0],
            "outputs_changed": None if expected is None else expected != child["digests"][0],
            "absent_sites": child.get("absent_sites", []),
            "absent_metrics": absent,
            "metrics": {k: {"value": v, "samples": n} for k, (v, n) in metrics.items()},
        }
        (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def print_report(record: dict, declared: dict[str, dict[str, str]]) -> None:
    meta, work = record["meta"], record["work"]
    print(f"== {record['workload']}  seed {record['seed']} (cli seed {record['cli_seed']})  "
          f"trace {int(record['trace'])}  {record['iterations']} iterations in {record['seconds']} s")
    print(f"   nproc {meta['nproc']}  python {meta['python']}  numpy {meta['numpy']}  "
          f"threads {meta['threads']}  commit {meta['git_commit']}  src lines {meta['src_lines']}")
    print(f"   work: {work['count']} {work['unit']}; orderings {work['orderings']}, "
          f"prefix values {work['prefix_values']}, cells written {work['cells_written']}, "
          f"read {work['cells_read']}")
    for stem, counts in work["outputs"].items():
        print(f"   output {stem}: {counts['rows']} rows, {counts['bytes']} bytes")
    traced_wall = record["metrics"].get("trace.wall_s", {}).get("value")
    for name in declared:
        if name not in record["metrics"]:
            continue
        metric, unit = record["metrics"][name], declared[name]["unit"]
        note = "absent" if name in record["absent_metrics"] else ""
        if not note and traced_wall and unit == "s" and not name.startswith(("trace.", "host.")):
            note = f"{metric['value'] / traced_wall:6.1%} of traced wall"
        print(f"   {name:<36} {metric['value']:>14.6g} {unit:<6} n={metric['samples']:<3} {note}")
    if record["walls"] and not record["trace"]:
        for label, walls in (("adjusted", record["adjusted_walls"]), ("raw", record["walls"])):
            q = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
            print(f"   wall_s {label:<8} quartiles {q[0]:.4f} / {q[1]:.4f} / {q[2]:.4f}")
        print(f"   setup_s raw median {statistics.median(record['raw_setup_samples']):.4f}; host reference "
              f"median {statistics.median(record['refs']) * 1e3:.3f} ms (nominal {REF_SECONDS * 1e3:g} ms); "
              f"{record['work']['unit']}_per_s = work_per_s")
    print(f"   error_rate {record['error_rate']:.4g} ({record['failed']} failed of {record['attempted']} attempted)")
    for check, ok, detail in record["checks"]:
        if not ok or not check.startswith("iteration"):
            print(f"   [{'ok' if ok else 'FAIL'}] {check} {detail}")
    for failure in record["call_failures"]:
        print(f"   [FAIL] {failure}")
    print("   sha256: " + ", ".join(f"{name} {value[:12] if value else None}" for name, value in record["digests"].items()))
    if record["outputs_changed"] is not None:
        print(f"   outputs_changed vs seed-commit digests: {str(record['outputs_changed']).lower()} (informational)")
    if record["absent_sites"]:
        print(f"   absent wrapped names: {', '.join(record['absent_sites'])}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kappasim" / "__init__.py").is_file():
        print(f"run.py: no kappasim source tree at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared_metrics(spec)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    kind = "per_layer" if args.trace else "end_to_end"
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    OUT.mkdir(exist_ok=True)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            record = run_workload(name, args.seed, seconds, bool(args.trace))
        except BenchError as exc:
            print(f"run.py: {name}: {exc}", file=sys.stderr)
            return 2
        wanted = {m for m, d in declared.items() if d["kind"] == kind}
        if set(record["metrics"]) != wanted:
            print(f"run.py: metrics differ from BENCHMARK.json: {sorted(set(record['metrics']) ^ wanted)}", file=sys.stderr)
            return 2
        print_report(record, declared)
        correct = correct and record["failed"] == 0
        attempted += record["attempted"]
        failed += record["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update(
            {prefix + m: {"value": v["value"], "unit": declared[m]["unit"]} for m, v in record["metrics"].items()}
        )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
