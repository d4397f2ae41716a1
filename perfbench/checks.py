"""Output checks: an exact-rational Fleiss' kappa oracle and the invariants
each workload's outputs must satisfy.

Plain Python (``fractions``, ``csv``, ``json``) only, so the checks share
no code with the program they check. Each check returns ``(name, ok,
detail)``; a check that raises while reading an output counts as failed.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Sequence

from workloads import (
    CATEGORIES,
    FIT_STAGES,
    LARGE_ITEMS,
    LARGE_RATERS,
    MATRIX_INPUT,
    TWIN_M,
    TWIN_RATERS,
    VARIATION_K,
    Workload,
)

KAPPA_TOL = Fraction(1, 10**12)
# A %.6f cell is the exact value rounded to the nearest 1e-6.
CELL_ROUNDING = Fraction(1, 2 * 10**6)

Check = tuple[str, bool, str]


def kappa_fraction(counts: Sequence[Sequence[int]]) -> Fraction:
    """Fleiss' kappa of an (items x categories) count table, exactly.

    Straight off the defining formula; the all-one-category grid is the
    degenerate case reported as 1.
    """
    n = sum(counts[0])
    n_items = len(counts)
    p_bar = sum((Fraction(sum(c * c for c in row) - n, n * (n - 1)) for row in counts), Fraction(0))
    p_bar /= n_items
    totals = [sum(row[j] for row in counts) for j in range(len(counts[0]))]
    if sum(1 for t in totals if t) == 1:
        return Fraction(1)
    p_bar_e = sum((Fraction(t, n_items * n) ** 2 for t in totals), Fraction(0))
    return (p_bar - p_bar_e) / (1 - p_bar_e)


def matrix_counts(path: Path, raters: Iterable[str] | None = None) -> tuple[list[list[int]], int, int]:
    """Per-item category counts of a complete ``rater,item,label`` file,
    restricted to ``raters`` when given; also returns the file's rater and
    item totals. Raises ValueError on a duplicate, incomplete or unknown
    cell."""
    keep = None if raters is None else set(raters)
    code = {label: j for j, label in enumerate(CATEGORIES)}
    counts: dict[str, list[int]] = {}
    seen: set[tuple[str, str]] = set()
    all_raters: set[str] = set()
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["rater", "item", "label"]:
            raise ValueError(f"{path.name}: bad header")
        for rater, item, label in reader:
            if (rater, item) in seen:
                raise ValueError(f"{path.name}: duplicate cell {rater},{item}")
            seen.add((rater, item))
            all_raters.add(rater)
            row = counts.setdefault(item, [0] * len(CATEGORIES))
            if keep is None or rater in keep:
                row[code[label]] += 1
    if len(seen) != len(all_raters) * len(counts):
        raise ValueError(f"{path.name}: incomplete matrix")
    return list(counts.values()), len(all_raters), len(counts)


def _within(value: Fraction, oracle: Fraction, tol: Fraction) -> tuple[bool, str]:
    error = abs(value - oracle)
    return error <= tol, f"|value - oracle| = {float(error):.3g} (tolerance {float(tol):.3g})"


def _csv_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _twin_simulate(workdir: Path, kappa_hat: float | None, team) -> Iterable[tuple[str, Callable]]:
    # k equals the cohort size, so the simulated team is every rater.
    oracle = kappa_fraction(matrix_counts(workdir / MATRIX_INPUT)[0])

    def runs_rows():
        header, rows = _csv_rows(workdir / "runs.csv")
        expected = TWIN_M * (TWIN_RATERS - 1)
        return header == ["run_id", "n", "kappa"] and len(rows) == expected, f"{len(rows)} rows, expected {expected}"

    def stats_final_row():
        header, rows = _csv_rows(workdir / "stats.csv")
        row = dict(zip(header, rows[-1]))
        if row["n"] != str(TWIN_RATERS) or row["min"] != row["max"]:
            return False, f"n={row['n']} min={row['min']} max={row['max']}"
        return _within(Fraction(row["min"]), oracle, CELL_ROUNDING + KAPPA_TOL)

    def fit_report(stage):
        def check():
            r2 = json.loads((workdir / f"fit_{stage}.json").read_text())["r2"]
            return isinstance(r2, float) and math.isfinite(r2), f"r2 = {r2}"

        return check

    yield "runs file has m*(k-1) rows", runs_rows
    yield "stats row n=k: min = max = oracle kappa-hat", stats_final_row
    for stage in FIT_STAGES:
        yield f"fit {stage} report parses with finite r2", fit_report(stage)
    if kappa_hat is not None:
        yield "traced kappa-hat within 1e-12 of oracle", lambda: _within(Fraction(kappa_hat), oracle, KAPPA_TOL)


def _twin_variation(workdir: Path, kappa_hat: float | None, team) -> Iterable[tuple[str, Callable]]:
    def cv_at_k():
        header, rows = _csv_rows(workdir / "variation.csv")
        row = dict(zip(header, rows[-1]))
        return row["n"] == str(VARIATION_K) and row["cv"] == "0.000000", f"n={row['n']} cv={row['cv']}"

    def intervals_rows():
        header, rows = _csv_rows(workdir / "variation.csv")
        defined = {row[0] for row in rows if row[header.index("cv")] != "nan"}
        _, intervals = _csv_rows(workdir / "intervals.csv")
        per_n = Counter(row[0] for row in intervals)
        return per_n == Counter({n: 3 for n in defined}), f"{len(intervals)} rows for {len(defined)} defined n"

    yield "variation cv at n=k is 0.000000", cv_at_k
    yield "intervals file has 3 rows per defined n", intervals_rows
    if kappa_hat is not None and team is not None:
        def team_kappa():
            oracle = kappa_fraction(matrix_counts(workdir / MATRIX_INPUT, team)[0])
            return _within(Fraction(kappa_hat), oracle, KAPPA_TOL)

        yield "traced first-team kappa-hat within 1e-12 of oracle", team_kappa


def _large_corpus(workdir: Path, kappa_hat: float | None, team) -> Iterable[tuple[str, Callable]]:
    def whole_matrix():
        counts, raters, items = matrix_counts(workdir / "large.csv")
        report = json.loads((workdir / "kappa.stdout").read_text())
        if (raters, items) != (LARGE_RATERS, LARGE_ITEMS):
            return False, f"matrix is {raters} x {items}"
        if (report["raters"], report["items"]) != (raters, items):
            return False, f"kappa report says {report['raters']} x {report['items']}"
        return _within(Fraction(report["kappa"]), kappa_fraction(counts), KAPPA_TOL)

    yield "synth matrix complete and kappa within 1e-12 of oracle", whole_matrix


_CHECKS = {
    "twin-simulate": _twin_simulate,
    "twin-variation": _twin_variation,
    "large-corpus": _large_corpus,
}


def check_outputs(
    workload: Workload, workdir: Path, kappa_hat: float | None = None, team=None
) -> list[Check]:
    """Run the workload's output checks on the files in ``workdir``.

    ``kappa_hat`` and ``team`` are the traced run's first full-precision
    run_experiment result, when there was one.
    """
    results: list[Check] = []
    try:
        checks = list(_CHECKS[workload.name](workdir, kappa_hat, team))
    except (OSError, ValueError, KeyError) as exc:
        return [("read matrix for the oracle", False, repr(exc))]
    for name, check in checks:
        try:
            ok, detail = check()
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            ok, detail = False, repr(exc)
        results.append((name, bool(ok), detail))
    return results
