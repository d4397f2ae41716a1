"""The benchmark's workloads: inputs made from the seed, the CLI call
sequence each one times, the files it leaves behind, and exact work counts.

The program under test only ever sees the generated matrix file and the
CLI seeds derived from the workload seed; everything here is plain Python
so that the inputs for a given seed never depend on the code being
measured.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

CATEGORIES = ("positive", "neutral", "negative")

# The paper-shaped cohort: 45 raters x 100 items, 3 categories. A rater
# keeps the item's true label with probability 1-rho and otherwise draws a
# uniform label, so kappa = (1-rho)^2 and rho = 1 - sqrt(0.22) lands near
# the paper's kappa-hat of 0.22.
TWIN_RATERS = 45
TWIN_ITEMS = 100
TWIN_NOISE = 1.0 - math.sqrt(0.22)
TWIN_M = 1000
FIT_STAGES = ("S4", "S3", "S2", "S1", "S0")

VARIATION_K, VARIATION_M, VARIATION_J = 7, 100, 100

LARGE_RATERS, LARGE_ITEMS = 1000, 300

MATRIX_INPUT = "twin.csv"

WORKLOAD_NAMES = ("twin-simulate", "twin-variation", "large-corpus")

# Output files whose rows and bytes are counted, by metric stem
# (``out.<stem>.rows``); a stem a workload does not write counts 0.
OUTPUT_STEMS = {
    "simulate_stdout": ("simulate.stdout",),
    "runs": ("runs.csv",),
    "stats": ("stats.csv",),
    "fit_reports": tuple(f"fit_{s}.json" for s in FIT_STAGES),
    "variation": ("variation.csv",),
    "intervals": ("intervals.csv",),
    "matrix": ("large.csv",),
    "kappa_stdout": ("kappa.stdout",),
}


@dataclass(frozen=True)
class Call:
    """One CLI invocation; ``stdout`` names the output file its captured
    standard output is saved to, when that output is part of the contract."""

    argv: tuple[str, ...]
    stdout: str | None = None


@dataclass(frozen=True)
class Workload:
    """A CLI sequence with its inputs and exact work counts.

    ``work`` is the count ``work_per_s`` divides by: orderings where the
    sequence runs the Monte Carlo experiment, matrix cells written plus
    read otherwise.
    """

    name: str
    cli_seed: int
    inputs: dict[str, str]
    calls: tuple[Call, ...]
    outputs: tuple[str, ...]
    orderings: int
    prefix_values: int
    teams: int
    cells_written: int
    cells_read: int

    @property
    def work_unit(self) -> str:
        return "orderings" if self.orderings else "cells"

    @property
    def work(self) -> int:
        return self.orderings or self.cells_written + self.cells_read


def twin_matrix_csv(rng: random.Random) -> str:
    """The 45 x 100 twin cohort as a ``rater,item,label`` file."""
    truth = [rng.randrange(len(CATEGORIES)) for _ in range(TWIN_ITEMS)]
    lines = ["rater,item,label"]
    for r in range(1, TWIN_RATERS + 1):
        for i in range(TWIN_ITEMS):
            code = rng.randrange(len(CATEGORIES)) if rng.random() < TWIN_NOISE else truth[i]
            lines.append(f"p{r:02d},s{i + 1:03d},{CATEGORIES[code]}")
    return "\n".join(lines) + "\n"


def build(name: str, seed: int) -> Workload:
    """The workload ``name`` with its inputs drawn from ``seed``."""
    rng = random.Random(seed)
    if name == "twin-simulate":
        matrix = twin_matrix_csv(rng)
        cli_seed = rng.randrange(2**31)
        simulate = Call(
            (
                "simulate", "--input", MATRIX_INPUT, "--k", str(TWIN_RATERS),
                "--m", str(TWIN_M), "--seed", str(cli_seed),
                "--runs-out", "runs.csv", "--stats-out", "stats.csv",
            ),
            stdout="simulate.stdout",
        )
        fits = tuple(
            Call(("fit", "--runs", "runs.csv", "--stage", s, "--json", "--out", f"fit_{s}.json"))
            for s in FIT_STAGES
        )
        return Workload(
            name=name,
            cli_seed=cli_seed,
            inputs={MATRIX_INPUT: matrix},
            calls=(simulate, *fits),
            outputs=("simulate.stdout", "runs.csv", "stats.csv")
            + tuple(f"fit_{s}.json" for s in FIT_STAGES),
            orderings=TWIN_M,
            prefix_values=TWIN_M * (TWIN_RATERS - 1),
            teams=1,
            cells_written=0,
            cells_read=TWIN_RATERS * TWIN_ITEMS,
        )
    if name == "twin-variation":
        matrix = twin_matrix_csv(rng)
        cli_seed = rng.randrange(2**31)
        variation = Call(
            (
                "variation", "--input", MATRIX_INPUT, "--k", str(VARIATION_K),
                "--m", str(VARIATION_M), "--j", str(VARIATION_J), "--seed", str(cli_seed),
                "--out", "variation.csv", "--intervals-out", "intervals.csv",
            )
        )
        return Workload(
            name=name,
            cli_seed=cli_seed,
            inputs={MATRIX_INPUT: matrix},
            calls=(variation,),
            outputs=("variation.csv", "intervals.csv"),
            orderings=VARIATION_J * VARIATION_M,
            prefix_values=VARIATION_J * VARIATION_M * (VARIATION_K - 1),
            teams=VARIATION_J,
            cells_written=0,
            cells_read=TWIN_RATERS * TWIN_ITEMS,
        )
    if name == "large-corpus":
        cli_seed = rng.randrange(2**31)
        cells = LARGE_RATERS * LARGE_ITEMS
        synth = Call(
            (
                "synth", "--raters", str(LARGE_RATERS), "--items", str(LARGE_ITEMS),
                "--noise", repr(TWIN_NOISE), "--seed", str(cli_seed), "--out", "large.csv",
            )
        )
        kappa = Call(("kappa", "--input", "large.csv", "--json"), stdout="kappa.stdout")
        return Workload(
            name=name,
            cli_seed=cli_seed,
            inputs={},
            calls=(synth, kappa),
            outputs=("large.csv", "kappa.stdout"),
            orderings=0,
            prefix_values=0,
            teams=0,
            cells_written=cells,
            cells_read=cells,
        )
    raise ValueError(f"unknown workload {name!r}, expected one of {', '.join(WORKLOAD_NAMES)}")
