"""Command-line interface: file-to-file runs of the full pipeline.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 numeric
failure (fit non-convergence under --strict). Primary output of each
subcommand goes to its --out/--stats-out path, or to standard output when
the flag is omitted; progress and context lines go to standard error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Iterable, NoReturn, Sequence

from kappasim import __version__
from kappasim.corpus import (
    generate_synthetic,
    load_mapping,
    load_raw,
    open_text_dest,
    preprocess,
    read_matrix,
    write_matrix,
    write_table,
)
from kappasim.agreement import fleiss_kappa
from kappasim.dispersion import (
    IntervalEstimate,
    VariationConfig,
    interval_estimate,
    read_variation,
    run_variation,
    write_intervals,
    write_variation,
)
from kappasim.errors import DataError
from kappasim.mc import (
    ExperimentConfig,
    read_runs,
    read_stats,
    run_experiment,
    summarize,
    summarize_table,
    write_runs,
    write_stats,
)
from kappasim.minfit import (
    STAGES,
    extract_minima,
    eval_min_model,
    fit,
    fit_report_json,
    format_fit_report,
    write_minima,
)

REPORT_HEADER = ("total_in", "removed_non_developers", "removed_incomplete", "retained")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for data
    # errors, so remap to 1.
    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_at_least(minimum: int, what: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{what} must be an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{what} must be >= {minimum}, got {value}")
        return value

    return parse


def _probability(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be within [0, 1], got {value}")
    return value


_seed_type = _int_at_least(0, "seed")


def _cmd_preprocess(args: argparse.Namespace) -> int:
    mapping = load_mapping(args.mapping)
    raw = load_raw(args.raw, mapping)
    matrix, report = preprocess(raw)
    write_matrix(matrix, args.out)
    if args.report:
        write_table(args.report, REPORT_HEADER, [dataclasses.astuple(report)])
    print(
        f"retained {report.retained}/{report.total_in} respondents "
        f"({report.removed_non_developers} non-developers, "
        f"{report.removed_incomplete} incomplete)",
        file=sys.stderr,
    )
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    matrix = generate_synthetic(
        raters=args.raters,
        items=args.items,
        categories=args.categories,
        noise=args.noise,
        seed=args.seed,
    )
    write_matrix(matrix, args.out)
    return 0


def _cmd_kappa(args: argparse.Namespace) -> int:
    matrix = read_matrix(args.input)
    value = fleiss_kappa(matrix)
    if args.json:
        print(
            json.dumps(
                {
                    "kappa": value.kappa,
                    "p_bar": value.p_bar,
                    "p_bar_e": value.p_bar_e,
                    "degenerate": value.degenerate,
                    "raters": len(matrix.raters),
                    "items": len(matrix.items),
                    "categories": len(matrix.categories),
                }
            )
        )
    else:
        print(f"kappa = {value.kappa:.6f}")
        print(f"p_bar = {value.p_bar:.6f}")
        print(f"p_bar_e = {value.p_bar_e:.6f}")
        print(f"degenerate = {'true' if value.degenerate else 'false'}")
        print(f"raters = {len(matrix.raters)}")
        print(f"items = {len(matrix.items)}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    matrix = read_matrix(args.input)
    k = args.k if args.k is not None else len(matrix.raters)
    run_set = run_experiment(matrix, ExperimentConfig(k=k, m=args.m, seed=args.seed))
    stats = summarize(run_set)
    # kappa-hat/team context would corrupt the stats stream, so it moves to
    # stderr when the stats fall back to stdout.
    info = sys.stdout if args.stats_out else sys.stderr
    print(f"kappa_hat = {run_set.kappa_hat:.6f}", file=info)
    print(f"team = {','.join(run_set.team)}", file=info)
    if args.runs_out:
        write_runs(run_set, args.runs_out)
    write_stats(stats, args.stats_out)
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    if args.stats:
        stats = read_stats(args.stats)
    else:
        ns, table = read_runs(args.runs)
        stats = summarize_table(ns, table)
    k = args.k if args.k is not None else stats.ns[-1]
    kappa_hat = args.kappa_hat
    if kappa_hat is None:
        if stats.ns[-1] != k:
            raise DataError(f"stats cover n up to {stats.ns[-1]}, expected k={k}")
        kappa_hat = float(stats.means[-1])
    points = extract_minima(stats, kappa_hat, k, include_final=not args.drop_final)
    result = fit(points, args.stage)
    report = fit_report_json(result) if args.json else format_fit_report(result)
    with open_text_dest(args.out) as fh:
        fh.write(report)
    if args.minima_out:
        write_minima(points, args.minima_out)
    if args.strict and not result.converged:
        print(
            f"kappasim: fit did not converge within {result.iterations} iterations",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_minmodel(args: argparse.Namespace) -> int:
    print(f"{eval_min_model(args.n, args.k, args.kappa_hat):.6f}")
    return 0


def _interval_rows(
    kappa_hat: float, rows_of_n_cv: Iterable[tuple[int, float]], zs: Sequence[int]
) -> list[tuple[int, IntervalEstimate]]:
    """(n, interval) rows per (n, cv) and z, skipping (with a note) undefined cv."""
    rows = []
    for n, cv in rows_of_n_cv:
        if not math.isfinite(cv):
            print(f"kappasim: cv undefined at n={n}, skipped", file=sys.stderr)
            continue
        rows.extend((n, interval_estimate(kappa_hat, cv, z)) for z in zs)
    return rows


def _cmd_variation(args: argparse.Namespace) -> int:
    matrix = read_matrix(args.input)
    config = VariationConfig(k=args.k, m=args.m, j=args.j, seed=args.seed)
    table = run_variation(matrix, config)
    print(f"dataset kappa_hat = {table.dataset_kappa_hat:.6f}", file=sys.stderr)
    print(f"mean team kappa_hat = {table.mean_team_kappa_hat:.6f}", file=sys.stderr)
    write_variation(table, args.out)
    if args.intervals_out:
        rows = _interval_rows(table.dataset_kappa_hat, zip(table.ns, table.cv.tolist()), (1, 2, 3))
        write_intervals(rows, args.intervals_out)
    return 0


def _cmd_intervals(args: argparse.Namespace) -> int:
    if args.variation:
        pairs = [(n, cv) for n, _, _, cv in read_variation(args.variation)]
    else:
        if args.n is None:
            print("kappasim: error: --n is required with --cv", file=sys.stderr)
            return 1
        pairs = [(args.n, args.cv)]
    write_intervals(_interval_rows(args.kappa_hat, pairs, args.z), args.out)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="kappasim", description=__doc__)
    parser.add_argument("--version", action="version", version=f"kappasim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("preprocess", help="filter a raw survey file into a label matrix")
    p.add_argument("--raw", required=True, help="raw survey file (delimited, header row)")
    p.add_argument("--mapping", required=True, help="column mapping config file")
    p.add_argument("--out", help="matrix output path (default: stdout)")
    p.add_argument("--report", help="write the filter-count report here")
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("synth", help="generate a synthetic label matrix")
    p.add_argument("--raters", required=True, type=_int_at_least(2, "raters"))
    p.add_argument("--items", required=True, type=_int_at_least(1, "items"))
    p.add_argument("--categories", type=_int_at_least(2, "categories"), default=3)
    p.add_argument("--noise", type=_probability, default=0.0, help="label noise in [0, 1]")
    p.add_argument("--seed", type=_seed_type, default=0)
    p.add_argument("--out", help="matrix output path (default: stdout)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("kappa", help="agreement of a matrix file")
    p.add_argument("--input", required=True, help="matrix file")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.set_defaults(func=_cmd_kappa)

    p = sub.add_parser("simulate", help="random-ordering prefix agreement experiment")
    p.add_argument("--input", required=True, help="matrix file")
    p.add_argument("--k", type=int, help="team size (default: all raters)")
    p.add_argument("--m", type=int, default=1000, help="repetitions (default 1000)")
    p.add_argument("--seed", type=_seed_type, default=0)
    p.add_argument("--runs-out", help="write the per-run progressions here")
    p.add_argument("--stats-out", help="stats output path (default: stdout)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="fit the minimum-agreement model to experiment output")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--stats", help="stats file from simulate")
    source.add_argument("--runs", help="runs file from simulate")
    p.add_argument("--stage", choices=STAGES, default="S0")
    p.add_argument("--k", type=int, help="team size (default: largest n in the input)")
    p.add_argument("--kappa-hat", type=float, help="full-team agreement (default: from input)")
    p.add_argument(
        "--drop-final",
        action="store_true",
        help="fit without the pinned point at n = k",
    )
    p.add_argument("--minima-out", help="write the extracted minima here")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--out", help="report output path (default: stdout)")
    p.add_argument("--strict", action="store_true", help="exit 3 if the fit does not converge")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("minmodel", help="closed-form minimum-agreement prediction")
    p.add_argument("--n", required=True, type=_int_at_least(2, "n"), help="subset size")
    p.add_argument("--k", required=True, type=_int_at_least(3, "k"), help="team size")
    p.add_argument("--kappa-hat", required=True, type=float)
    p.set_defaults(func=_cmd_minmodel)

    p = sub.add_parser("variation", help="cross-team dispersion of subset agreement")
    p.add_argument("--input", required=True, help="matrix file")
    p.add_argument("--k", type=int, default=7, help="team size (default 7)")
    p.add_argument("--m", type=int, default=100, help="repetitions per team (default 100)")
    p.add_argument("--j", type=int, default=100, help="number of teams (default 100)")
    p.add_argument("--seed", type=_seed_type, default=0)
    p.add_argument("--out", help="variation table path (default: stdout)")
    p.add_argument("--intervals-out", help="write empirical-rule intervals here")
    p.set_defaults(func=_cmd_variation)

    p = sub.add_parser("intervals", help="empirical-rule intervals from cv values")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--variation", help="variation table file")
    source.add_argument("--cv", type=float, help="single cv value (requires --n)")
    p.add_argument("--n", type=int, help="subset size label for --cv")
    p.add_argument("--kappa-hat", required=True, type=float)
    p.add_argument(
        "--z",
        type=int,
        nargs="+",
        choices=(1, 2, 3),
        default=[1, 2, 3],
        help="sigma levels (default: 1 2 3)",
    )
    p.add_argument("--out", help="intervals output path (default: stdout)")
    p.set_defaults(func=_cmd_intervals)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (DataError, FileNotFoundError) as exc:
        print(f"kappasim: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
