"""Dispersion of subset agreement across many random teams.

Repeats the Monte Carlo experiment for j independently sampled k-rater
teams and folds the per-team distribution moments of kappa_n into running
means:

    mu_bar  <- ((t-1)*mu_bar  + mu_t)  / t
    sig_bar <- ((t-1)*sig_bar + sig_t) / t

where mu_t and sig_t are the mean and sample standard deviation of the m
kappa_n values of team t. sig_bar is deliberately an arithmetic mean of
per-team standard deviations, not a pooled variance. The coefficient of
variation cv_n = sig_bar_n / mu_bar_n then converts into empirical-rule
interval estimates kappa_hat*(1 -/+ z*cv_n) covering about 68.27%, 95.45%,
and 99.73% of observations for z = 1, 2, 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, TextIO

import numpy as np

from kappasim.agreement import fleiss_kappa
from kappasim.corpus import AnnotationMatrix, read_columns, write_table
from kappasim.errors import DataError
from kappasim.mc import (
    _MAX_KEY, ExperimentConfig, _child_states, _experiments, _freeze_columns, column_moments
)

VARIATION_HEADER = ("n", "mu_bar", "sigma_bar", "cv", "cv_percent")
INTERVALS_HEADER = ("n", "level", "lower", "upper")

EMPIRICAL_RULE_PERCENT = {1: 68.27, 2: 95.45, 3: 99.73}

_MU_EPS = 1e-9


@dataclass(frozen=True)
class VariationConfig:
    """Parameters of the team-resampling procedure."""

    k: int = 7
    m: int = 100
    j: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        ExperimentConfig(self.k, self.m, self.seed)  # checks k, m and seed
        if not 1 <= self.j <= _MAX_KEY:
            raise DataError(f"team count must be in 1..2**32-1, got {self.j}")


@dataclass(frozen=True)
class VariationTable:
    """Running moments and cv per subset size, plus the kappa-hat context.

    ``cv`` is NaN where mu_bar is within 1e-9 of zero (undefined rather
    than explosive). ``dataset_kappa_hat`` is the agreement of the whole
    input matrix; ``team_kappa_hats`` are the j per-team values, whose
    mean is reported alongside because the two referents need not agree.
    """

    k: int
    ns: tuple[int, ...]
    mu_bar: np.ndarray
    sigma_bar: np.ndarray
    cv: np.ndarray
    team_kappa_hats: tuple[float, ...]
    mean_team_kappa_hat: float
    dataset_kappa_hat: float

    def __post_init__(self) -> None:
        if self.ns != tuple(range(2, self.k + 1)):
            raise DataError("variation table must cover subset sizes 2..k")
        _freeze_columns(self, ("mu_bar", "sigma_bar", "cv"))


@dataclass(frozen=True)
class IntervalEstimate:
    """Empirical-rule interval kappa_hat*(1 -/+ z*cv) at one sigma level."""

    z: int
    percent: float
    lower: float
    upper: float


def run_variation(matrix: AnnotationMatrix, config: VariationConfig) -> VariationTable:
    """Sample j teams, run m repetitions each, fold the running moments.

    Team t's entire experiment (team draw and orderings) is the
    :func:`kappasim.mc.run_experiment` of the seed ``SeedSequence(seed,
    spawn_key=(t,)).generate_state(1, np.uint64)[0]``, t = 1..j, and the
    fold walks t = 1..j in order, so the procedure is a pure function of
    (matrix, config). These are NumPy's SeedSequence -> PCG64 streams,
    computed with array arithmetic for many teams and orderings at once
    (see :mod:`kappasim.mc`). Teams go through in blocks, each block's
    root words, orderings and progressions computed in turn: memory is a
    few ``_BLOCK_BYTES`` blocks plus the team seeds and kappa-hats, about
    60 bytes a team. A spawn key is one 32-bit word, so j and m stay below
    2**32. The fold update at t=1 reduces to mu_1 and sigma_1 exactly.
    """
    if config.k > len(matrix.raters):
        raise DataError(
            f"team size {config.k} exceeds the matrix's {len(matrix.raters)} raters"
        )
    ns = tuple(range(2, config.k + 1))
    team_seeds = _child_states([config.seed], range(1, config.j + 1))[0, :, 0].copy()
    mu_bar = np.zeros(len(ns))
    sigma_bar = np.zeros(len(ns))
    team_kappa_hats: list[float] = []
    for _, _, kappas in _experiments(matrix, config.k, config.m, team_seeds):
        for table in kappas:
            t = len(team_kappa_hats) + 1
            mu_t, sigma_t = column_moments(table)
            mu_bar = ((t - 1) * mu_bar + mu_t) / t
            sigma_bar = ((t - 1) * sigma_bar + sigma_t) / t
            team_kappa_hats.append(float(table[0, -1]))
    cv = np.full(len(ns), math.nan)
    live = np.abs(mu_bar) > _MU_EPS
    cv[live] = sigma_bar[live] / mu_bar[live]
    return VariationTable(
        k=config.k,
        ns=ns,
        mu_bar=mu_bar,
        sigma_bar=sigma_bar,
        cv=cv,
        team_kappa_hats=tuple(team_kappa_hats),
        mean_team_kappa_hat=float(np.mean(team_kappa_hats)),
        dataset_kappa_hat=fleiss_kappa(matrix).kappa,
    )


def interval_estimate(kappa_hat: float, cv_n: float, z: int) -> IntervalEstimate:
    """Interval kappa_hat*(1 -/+ z*cv_n) under the empirical rule.

    Bounds are reported unclamped; a cv above 1/z puts the lower bound
    below zero and that is meaningful output, not an error.
    """
    if z not in EMPIRICAL_RULE_PERCENT:
        raise DataError(f"z must be 1, 2, or 3, got {z}")
    if not math.isfinite(cv_n) or cv_n < 0:
        raise DataError(f"cv must be a finite non-negative number, got {cv_n}")
    if not math.isfinite(kappa_hat):
        raise DataError(f"kappa_hat must be finite, got {kappa_hat}")
    return IntervalEstimate(
        z=z,
        percent=EMPIRICAL_RULE_PERCENT[z],
        lower=kappa_hat * (1.0 - z * cv_n),
        upper=kappa_hat * (1.0 + z * cv_n),
    )


def cv_percent(cv_n: float) -> float:
    """cv as a percentage, rounded to 2 decimals for display."""
    if not math.isfinite(cv_n):
        raise DataError("cv is undefined")
    return round(cv_n * 100.0, 2)


def write_variation(table: VariationTable, dest: str | Path | TextIO | None) -> None:
    """Write the variation file: ``n,mu_bar,sigma_bar,cv,cv_percent`` rows;
    undefined cv rows carry ``nan``."""

    def cv_cells(cv: float) -> tuple[str, str]:
        return (f"{cv:.6f}", f"{cv_percent(cv):.2f}") if math.isfinite(cv) else ("nan", "nan")

    write_table(
        dest,
        VARIATION_HEADER,
        (
            (n, f"{mu:.6f}", f"{sigma:.6f}", *cv_cells(cv))
            for n, mu, sigma, cv in zip(table.ns, table.mu_bar, table.sigma_bar, table.cv.tolist())
        ),
    )


def read_variation(path: str | Path) -> tuple[tuple[int, float, float, float], ...]:
    """Read a variation file back as (n, mu_bar, sigma_bar, cv) rows."""
    kinds = ("int", "float", "float", "float_or_nan", "float_or_nan")
    ns, mus, sigmas, cvs, _ = read_columns(path, VARIATION_HEADER, "variation", kinds)
    return tuple(zip(ns.tolist(), mus.tolist(), sigmas.tolist(), cvs.tolist()))


def write_intervals(
    estimates: Sequence[tuple[int, IntervalEstimate]],
    dest: str | Path | TextIO | None,
) -> None:
    """Write the intervals file: ``n,level,lower,upper`` rows, level as the
    empirical-rule percentage."""
    write_table(
        dest,
        INTERVALS_HEADER,
        ((n, f"{est.percent:.2f}", f"{est.lower:.6f}", f"{est.upper:.6f}") for n, est in estimates),
    )
