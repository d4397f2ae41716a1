"""Command-line interface: file-to-file runs of the full pipeline.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 numeric
failure (under fit --strict: the best curve puts the model pole on the
edge of the data range). Primary output of each subcommand goes to its
--out/--stats-out path, or to standard output when the flag is omitted;
progress and context lines go to standard error. A command with two
outputs checks both paths before it writes either, so an output path
that cannot be written (exit 2) leaves no file created or truncated.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from types import SimpleNamespace
from typing import Callable, Iterable, NoReturn, Sequence

from kappasim import __version__
from kappasim.corpus import (
    check_text_dests,
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
    column_moments,
    read_runs,
    read_stats,
    run_experiment,
    summarize,
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
    # No abbreviations, here and in every subcommand (add_subparsers builds
    # them with this class): `--k` must not be read as `--kappa-hat`.
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, allow_abbrev=False, **kwargs)

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
    check_text_dests(args.out, args.report)
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
    check_text_dests(args.runs_out, args.stats_out)
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
    else:  # fit reads only ns, the minima and the last mean: no sort, no quartiles
        ns, table = read_runs(args.runs)
        means = column_moments(table[:, -1:])[0]  # the last column's only
        stats = SimpleNamespace(ns=ns, mins=table.min(axis=0), means=means)
    kappa_hat = float(stats.means[-1]) if args.kappa_hat is None else args.kappa_hat
    points = extract_minima(stats, kappa_hat, stats.ns[-1], include_final=not args.drop_final)
    result = fit(points, args.stage)
    report = fit_report_json(result) if args.json else format_fit_report(result)
    check_text_dests(args.out, args.minima_out)
    with open_text_dest(args.out) as fh:
        fh.write(report)
    if args.minima_out:
        write_minima(points, args.minima_out)
    if args.strict and not result.converged:
        print(
            f"kappasim: fit did not converge: the best {result.stage} curve (b = {result.b:.12g})"
            " puts the model pole on the edge of the data range, or |b| at about 1e9",
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
    if not math.isfinite(kappa_hat):  # also when every row is skipped
        raise DataError(f"kappa_hat must be finite, got {kappa_hat}")
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
    if args.intervals_out:  # first, so a cv the intervals refuse leaves no file written
        rows = _interval_rows(table.dataset_kappa_hat, zip(table.ns, table.cv.tolist()), (1, 2, 3))
    check_text_dests(args.out, args.intervals_out)
    write_variation(table, args.out)
    if args.intervals_out:
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


def _preprocess_arguments(p: _Parser) -> None:
    p.add_argument("--raw", required=True, help="raw survey file (delimited, header row)")
    p.add_argument("--mapping", required=True, help="column mapping config file")
    p.add_argument("--out", help="matrix output path (default: stdout)")
    p.add_argument("--report", help="write the filter-count report here")
    p.set_defaults(func=_cmd_preprocess)


def _synth_arguments(p: _Parser) -> None:
    p.add_argument("--raters", required=True, type=_int_at_least(2, "raters"))
    p.add_argument("--items", required=True, type=_int_at_least(1, "items"))
    p.add_argument("--categories", type=_int_at_least(2, "categories"), default=3)
    p.add_argument("--noise", type=_probability, default=0.0, help="label noise in [0, 1]")
    p.add_argument("--seed", type=_seed_type, default=0)
    p.add_argument("--out", help="matrix output path (default: stdout)")
    p.set_defaults(func=_cmd_synth)


def _kappa_arguments(p: _Parser) -> None:
    p.add_argument("--input", required=True, help="matrix file")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.set_defaults(func=_cmd_kappa)


def _simulate_arguments(p: _Parser) -> None:
    p.add_argument("--input", required=True, help="matrix file")
    p.add_argument("--k", type=int, help="team size (default: all raters)")
    p.add_argument("--m", type=int, default=1000, help="repetitions (default 1000)")
    p.add_argument("--seed", type=_seed_type, default=0)
    p.add_argument("--runs-out", help="write the per-run progressions here")
    p.add_argument("--stats-out", help="stats output path (default: stdout)")
    p.set_defaults(func=_cmd_simulate)


def _fit_arguments(p: _Parser) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--stats", help="stats file from simulate")
    source.add_argument("--runs", help="runs file from simulate")
    p.add_argument("--stage", choices=STAGES, default="S0")
    p.add_argument("--kappa-hat", type=float, help="full-team agreement (default: from input)")
    p.add_argument(
        "--drop-final",
        action="store_true",
        help="fit without the pinned point at n = k",
    )
    p.add_argument("--minima-out", help="write the extracted minima here")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--out", help="report output path (default: stdout)")
    p.add_argument(
        "--strict",
        action="store_true",
        help="exit 3 if the best curve puts the model pole on the edge of the data range",
    )
    p.set_defaults(func=_cmd_fit)


def _minmodel_arguments(p: _Parser) -> None:
    p.add_argument("--n", required=True, type=_int_at_least(2, "n"), help="subset size")
    p.add_argument("--k", required=True, type=_int_at_least(3, "k"), help="team size")
    p.add_argument("--kappa-hat", required=True, type=float)
    p.set_defaults(func=_cmd_minmodel)


def _variation_arguments(p: _Parser) -> None:
    p.add_argument("--input", required=True, help="matrix file")
    p.add_argument("--k", type=int, default=7, help="team size (default 7)")
    p.add_argument("--m", type=int, default=100, help="repetitions per team (default 100)")
    p.add_argument("--j", type=int, default=100, help="number of teams (default 100)")
    p.add_argument("--seed", type=_seed_type, default=0)
    p.add_argument("--out", help="variation table path (default: stdout)")
    p.add_argument("--intervals-out", help="write empirical-rule intervals here")
    p.set_defaults(func=_cmd_variation)


def _intervals_arguments(p: _Parser) -> None:
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


# name, help line, and the function that adds the subcommand's arguments
_COMMANDS = (
    ("preprocess", "filter a raw survey file into a label matrix", _preprocess_arguments),
    ("synth", "generate a synthetic label matrix", _synth_arguments),
    ("kappa", "agreement of a matrix file", _kappa_arguments),
    ("simulate", "random-ordering prefix agreement experiment", _simulate_arguments),
    ("fit", "fit the minimum-agreement model to experiment output", _fit_arguments),
    ("minmodel", "closed-form minimum-agreement prediction", _minmodel_arguments),
    ("variation", "cross-team dispersion of subset agreement", _variation_arguments),
    ("intervals", "empirical-rule intervals from cv values", _intervals_arguments),
)


class _Subparser:
    """A subcommand's parser, constructed and filled on first use. Every
    command is listed with its help line in the top-level parser, but a
    call constructs only the parser of the command it names (argparse
    asks a subparser only for its methods, and those are the built
    parser's). Help, usage and errors are the same as from a parser built
    at once."""

    def __init__(self, fill: Callable[[_Parser], None], **kwargs) -> None:
        self._fill, self._kwargs, self._built = fill, kwargs, None

    def __getattr__(self, name: str):
        # reached only for names the instance lacks. Its own state is read
        # from vars(self), never by attribute, so an error while building
        # (or a copy that has no state yet) raises as it is, not through
        # this method again
        own = vars(self)
        if "_fill" not in own:
            raise AttributeError(name)
        if own["_built"] is None:
            parser = _Parser(**own["_kwargs"])
            own["_fill"](parser)
            own["_built"] = parser
        return getattr(own["_built"], name)


def build_parser() -> _Parser:
    parser = _Parser(prog="kappasim", description=__doc__)
    parser.add_argument("--version", action="version", version=f"kappasim {__version__}")
    sub = parser.add_subparsers(
        dest="command", required=True, metavar="COMMAND", parser_class=_Subparser
    )
    for name, help_line, fill in _COMMANDS:
        sub.add_parser(name, help=help_line, fill=fill)
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
