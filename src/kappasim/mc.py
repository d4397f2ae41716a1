"""Monte Carlo subset-agreement experiment.

One experiment fixes a team of k raters, then repeats m times: draw a
random ordering of the team and compute the agreement progression
kappa_2..kappa_k, where kappa_n is Fleiss' kappa restricted to the first
n raters of the ordering. The final value kappa_k does not depend on the
ordering, so it is the team's overall agreement kappa-hat; the spread of
the earlier prefix values is the object of study.

Determinism contract: the team draw consumes a root stream seeded with
``seed``; run r draws its ordering from an independent child stream keyed
by ``(seed, r)``. Results are therefore bit-identical on every
invocation, and the first m runs of a longer experiment coincide with the
m runs of a shorter one.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, TextIO

import numpy as np

from kappasim.corpus import AnnotationMatrix, open_text_dest
from kappasim.errors import DataError

RUNS_HEADER = ("run_id", "n", "kappa")
STATS_HEADER = ("n", "min", "q1", "median", "q3", "max", "mean", "std")


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one experiment.

    ``team=None`` means run 1 samples k raters uniformly without
    replacement; an explicit team (k member ids) skips the draw.
    """

    k: int
    m: int
    seed: int
    team: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.k < 3:
            raise DataError(f"team size must be >= 3, got {self.k}")
        if self.m < 1:
            raise DataError(f"repetition count must be >= 1, got {self.m}")
        if self.seed < 0:
            raise DataError(f"seed must be non-negative, got {self.seed}")
        if self.team is not None:
            if len(self.team) != self.k:
                raise DataError(f"explicit team has {len(self.team)} members, expected k={self.k}")
            if len(set(self.team)) != len(self.team):
                raise DataError("explicit team members must be distinct")


@dataclass(frozen=True)
class RunSet:
    """All m repetitions for one team, stored by column.

    Row r-1 holds run r: ``perms[r-1]`` is its ordering as positions in
    ``team`` and ``kappas[r-1]`` its kappa_2..kappa_k. ``kappa_hat`` is the
    full-team agreement, equal to every run's final prefix value exactly.
    """

    config: ExperimentConfig
    team: tuple[str, ...]
    kappa_hat: float
    perms: np.ndarray
    kappas: np.ndarray

    def __post_init__(self) -> None:
        k, m = self.config.k, self.config.m
        perms = np.array(self.perms, dtype=np.int64)
        kappas = np.array(self.kappas, dtype=np.float64)
        if perms.shape != (m, k):
            raise DataError(f"orderings must have shape (m, k) = {(m, k)}, got {perms.shape}")
        if kappas.shape != (m, k - 1):
            raise DataError(
                f"progressions must have shape (m, k-1) = {(m, k - 1)}, got {kappas.shape}"
            )
        if np.any(kappas[:, -1] != self.kappa_hat):
            raise DataError("final prefix agreement differs across runs")
        for name, arr in (("perms", perms), ("kappas", kappas)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def ns(self) -> tuple[int, ...]:
        return tuple(range(2, self.config.k + 1))


@dataclass(frozen=True)
class SubsetStats:
    """Per-subset-size distribution summary of the m kappa_n values."""

    ns: tuple[int, ...]
    mins: np.ndarray
    q1s: np.ndarray
    medians: np.ndarray
    q3s: np.ndarray
    maxs: np.ndarray
    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self) -> None:
        for name in ("mins", "q1s", "medians", "q3s", "maxs", "means", "stds"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).copy()
            if arr.shape != (len(self.ns),):
                raise DataError(f"{name} must hold one value per subset size")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        ordered = (
            np.all(self.mins <= self.q1s)
            and np.all(self.q1s <= self.medians)
            and np.all(self.medians <= self.q3s)
            and np.all(self.q3s <= self.maxs)
        )
        if not ordered:
            raise DataError("order statistics must satisfy min <= q1 <= median <= q3 <= max")

    @property
    def iqrs(self) -> np.ndarray:
        return self.q3s - self.q1s


def sample_team(matrix: AnnotationMatrix, k: int, rng: np.random.Generator) -> tuple[str, ...]:
    """Draw k distinct raters uniformly without replacement.

    The returned subset is in matrix order; orderings are a separate,
    per-run draw.
    """
    total = len(matrix.raters)
    if not 3 <= k <= total:
        raise DataError(f"team size must be between 3 and {total}, got {k}")
    idx = np.sort(rng.choice(total, size=k, replace=False))
    return tuple(matrix.raters[i] for i in idx)


def _prefix_kappas_from_codes(codes: np.ndarray, n_categories: int) -> np.ndarray:
    """Agreement of every prefix of the given rater ordering.

    codes is the (k, items) label-code grid in ordering order. A running
    cumulative sum over the rater axis yields the per-item category counts
    of every prefix at once; the kappa arithmetic then runs batched over
    prefix sizes n = 2..k. Counts stay integral until the final divisions,
    so the full-prefix value is bitwise identical to the single-matrix
    computation and independent of the ordering.
    """
    k, n_items = codes.shape
    onehot = (codes[:, :, None] == np.arange(n_categories)[None, None, :]).astype(np.int64)
    counts = np.cumsum(onehot, axis=0)[1:]
    ns = np.arange(2, k + 1, dtype=np.int64)[:, None]
    sq = np.sum(counts * counts, axis=2)
    p_i = (sq - ns) / (ns * (ns - 1))
    p_bar = p_i.sum(axis=1) / n_items
    col = counts.sum(axis=1)
    p_j = col / (n_items * ns)
    p_bar_e = np.sum(p_j * p_j, axis=1)
    kappas = np.ones(k - 1)
    live = np.count_nonzero(col, axis=1) != 1
    kappas[live] = (p_bar[live] - p_bar_e[live]) / (1.0 - p_bar_e[live])
    return kappas


def prefix_kappas(
    matrix: AnnotationMatrix,
    team: Sequence[str],
    ordering: Sequence[str],
) -> np.ndarray:
    """kappa_2..kappa_k for one ordering of a team."""
    if len(team) < 2:
        raise DataError("team must have at least 2 members")
    if len(set(team)) != len(team):
        raise DataError("team members must be distinct")
    if sorted(team) != sorted(ordering):
        raise DataError("ordering must be a permutation of the team")
    try:
        idx = [matrix.raters.index(r) for r in ordering]
    except ValueError as exc:
        raise DataError(f"unknown rater in team: {exc}") from None
    return _prefix_kappas_from_codes(matrix.codes[idx], len(matrix.categories))


def run_experiment(matrix: AnnotationMatrix, config: ExperimentConfig) -> RunSet:
    """Execute the full experiment: one team, m ordering progressions.

    Pure function of (matrix, config): run r's ordering comes from its own
    child stream, so no run depends on another.
    """
    root = np.random.default_rng(np.random.SeedSequence(config.seed))
    if config.team is not None:
        missing = [r for r in config.team if r not in matrix.raters]
        if missing:
            raise DataError(f"team members not in matrix: {', '.join(missing)}")
        team = tuple(config.team)
    else:
        team = sample_team(matrix, config.k, root)
    idx = [matrix.raters.index(r) for r in team]
    codes = matrix.codes[idx]
    n_categories = len(matrix.categories)
    perms = np.empty((config.m, config.k), dtype=np.int64)
    kappas = np.empty((config.m, config.k - 1))
    for row in range(config.m):
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(row + 1,)))
        perms[row] = rng.permutation(config.k)
        kappas[row] = _prefix_kappas_from_codes(codes[perms[row]], n_categories)
    return RunSet(
        config=config, team=team, kappa_hat=float(kappas[0, -1]), perms=perms, kappas=kappas
    )


def column_moments(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and sample standard deviation (divisor m-1) of each column of
    an (m, c) table.

    A constant column yields (value, 0.0) exactly, m=1 included, so the
    full-team column reproduces kappa-hat untouched by summation error.
    The other columns are reduced as rows of the contiguous transpose:
    that sums each column in the same pairwise order as reducing it on its
    own, where ``axis=0`` would accumulate row by row and differ in the
    last bits.
    """
    cols = np.ascontiguousarray(np.asarray(table, dtype=np.float64).T)
    mu = cols.min(axis=1)
    sigma = np.zeros(len(cols))
    live = mu != cols.max(axis=1)
    if live.any():  # never with m=1, where std(ddof=1) would warn
        mu[live] = cols[live].mean(axis=1)
        sigma[live] = cols[live].std(axis=1, ddof=1)
    return mu, sigma


def summarize_table(ns: Sequence[int], table: np.ndarray) -> SubsetStats:
    """Column-wise distribution summary of an (m, len(ns)) kappa table.

    Quartiles interpolate linearly between closest ranks; std is the
    sample standard deviation (divisor m-1, zero when m=1). A constant
    column is summarized by its value directly so that the full-team
    column reproduces kappa-hat exactly, untouched by float summation
    error.
    """
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2 or table.shape[1] != len(ns):
        raise DataError("kappa table shape must be (m, number of subset sizes)")
    if table.shape[0] < 1:
        raise DataError("kappa table must hold at least one run")
    lo, hi = table.min(axis=0), table.max(axis=0)
    const = lo == hi
    q1, med, q3 = (np.where(const, lo, q) for q in np.percentile(table, (25, 50, 75), axis=0))
    mu, sigma = column_moments(table)
    return SubsetStats(
        ns=tuple(int(n) for n in ns),
        mins=lo,
        q1s=q1,
        medians=med,
        q3s=q3,
        maxs=hi,
        means=mu,
        stds=sigma,
    )


def summarize(runs: RunSet) -> SubsetStats:
    """Per-n distribution summary over the m runs of an experiment."""
    return summarize_table(runs.ns, runs.kappas)


def write_runs(runs: RunSet, dest: str | Path | TextIO | None) -> None:
    """Write the long-format runs file: ``run_id,n,kappa``, (k-1)*m rows."""
    with open_text_dest(dest) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RUNS_HEADER)
        ns = runs.ns
        for run_id, kappas in enumerate(runs.kappas, 1):
            for n, kappa in zip(ns, kappas):
                writer.writerow((run_id, n, f"{kappa:.6f}"))


def read_runs(path: str | Path) -> tuple[tuple[int, ...], np.ndarray]:
    """Read a runs file back as (subset sizes, (m, k-1) kappa table)."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"runs file not found: {path}")
    per_run: dict[int, list[tuple[int, float]]] = {}
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != RUNS_HEADER:
            raise DataError(f"{path}: expected header 'run_id,n,kappa'")
        for lineno, record in enumerate(reader, 2):
            if not record:
                continue
            try:
                rid, n, kappa = int(record[0]), int(record[1]), float(record[2])
            except (ValueError, IndexError):
                raise DataError(f"{path}:{lineno}: malformed runs row") from None
            per_run.setdefault(rid, []).append((n, kappa))
    if not per_run:
        raise DataError(f"{path}: no runs")
    first = sorted(per_run)[0]
    ns = tuple(n for n, _ in per_run[first])
    if ns != tuple(range(2, len(ns) + 2)):
        raise DataError(f"{path}: subset sizes must run 2..k in order")
    table = np.empty((len(per_run), len(ns)))
    for row, rid in enumerate(sorted(per_run)):
        if tuple(n for n, _ in per_run[rid]) != ns:
            raise DataError(f"{path}: run {rid} does not cover subset sizes 2..k")
        table[row] = [kappa for _, kappa in per_run[rid]]
    return ns, table


def write_stats(stats: SubsetStats, dest: str | Path | TextIO | None) -> None:
    """Write the stats file: one ``n,min,q1,median,q3,max,mean,std`` row per n."""
    with open_text_dest(dest) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(STATS_HEADER)
        for j, n in enumerate(stats.ns):
            writer.writerow(
                (
                    n,
                    f"{stats.mins[j]:.6f}",
                    f"{stats.q1s[j]:.6f}",
                    f"{stats.medians[j]:.6f}",
                    f"{stats.q3s[j]:.6f}",
                    f"{stats.maxs[j]:.6f}",
                    f"{stats.means[j]:.6f}",
                    f"{stats.stds[j]:.6f}",
                )
            )


def read_stats(path: str | Path) -> SubsetStats:
    """Read a stats file back into a SubsetStats."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"stats file not found: {path}")
    rows: list[tuple[float, ...]] = []
    ns: list[int] = []
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != STATS_HEADER:
            raise DataError(f"{path}: expected header '{','.join(STATS_HEADER)}'")
        for lineno, record in enumerate(reader, 2):
            if not record:
                continue
            if len(record) != len(STATS_HEADER):
                raise DataError(f"{path}:{lineno}: malformed stats row")
            try:
                ns.append(int(record[0]))
                rows.append(tuple(float(v) for v in record[1:]))
            except ValueError:
                raise DataError(f"{path}:{lineno}: malformed stats row") from None
    if not rows:
        raise DataError(f"{path}: no stats rows")
    data = np.asarray(rows)
    return SubsetStats(
        ns=tuple(ns),
        mins=data[:, 0],
        q1s=data[:, 1],
        medians=data[:, 2],
        q3s=data[:, 3],
        maxs=data[:, 4],
        means=data[:, 5],
        stds=data[:, 6],
    )
