"""Monte Carlo subset-agreement experiment.

One experiment draws a team of k raters, then repeats m times: draw a
random ordering of the team and compute the agreement progression
kappa_2..kappa_k, where kappa_n is Fleiss' kappa restricted to the first
n raters of the ordering. The final value kappa_k does not depend on the
ordering, so it is the team's overall agreement kappa-hat; the spread of
the earlier prefix values is the object of study. The team is always
drawn from the matrix; with k equal to the matrix's rater count it is the
whole matrix, which is how a given team is simulated.

The prefix values come from the team's rater x rater agreement counts
(Gram matrix) and per-rater category totals, tabulated once per team:
each prefix is a pair of integer cumulative sums and one division, the
same exact formula as the whole-matrix kappa (:mod:`kappasim.agreement`).
All m orderings are drawn first and then computed in one batch.

Determinism contract: the team draw consumes a root stream seeded with
``seed``; run r draws its ordering from an independent child stream keyed
by ``(seed, r)``. Results are therefore bit-identical on every
invocation, and the first m runs of a longer experiment coincide with the
m runs of a shorter one.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, TextIO

import numpy as np

from kappasim.agreement import _kappa
from kappasim.corpus import AnnotationMatrix, read_columns, write_table
from kappasim.errors import DataError

RUNS_HEADER = ("run_id", "n", "kappa")
STATS_HEADER = ("n", "min", "q1", "median", "q3", "max", "mean", "std")


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one experiment.

    The team is always drawn: k raters, uniformly without replacement (see
    :func:`sample_team`). To simulate a given team, pass a matrix that
    holds only that team, with k equal to its size.
    """

    k: int
    m: int
    seed: int

    def __post_init__(self) -> None:
        if self.k < 3:
            raise DataError(f"team size must be >= 3, got {self.k}")
        if self.m < 1:
            raise DataError(f"repetition count must be >= 1, got {self.m}")
        if self.seed < 0:
            raise DataError(f"seed must be non-negative, got {self.seed}")


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


def _freeze_columns(table: object, names: Sequence[str]) -> None:
    """Make each named field a read-only float64 copy, one value per ``table.ns``."""
    for name in names:
        arr = np.array(getattr(table, name), dtype=np.float64)
        if arr.shape != (len(table.ns),):
            raise DataError(f"{name} must hold one value per subset size")
        arr.setflags(write=False)
        object.__setattr__(table, name, arr)


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
        _freeze_columns(self, ("mins", "q1s", "medians", "q3s", "maxs", "means", "stds"))
        ordered = (
            np.all(self.mins <= self.q1s)
            and np.all(self.q1s <= self.medians)
            and np.all(self.medians <= self.q3s)
            and np.all(self.q3s <= self.maxs)
        )
        if not ordered:
            raise DataError("order statistics must satisfy min <= q1 <= median <= q3 <= max")


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


# Size of the temporaries of the batched prefix kernel: it works through
# items (Gram matrix) and orderings (prefix sums) in blocks of about 1 MB.
_BLOCK_BYTES = 1 << 20

# Integers below this convert to float64 exactly. A prefix kappa's
# numerator and denominator are at most items^2 * k^3; from this bound on
# the kernel computes in Python ints, so its division stays correctly
# rounded.
_FLOAT_EXACT = 2**53


def _gram(codes: np.ndarray, n_categories: int) -> np.ndarray:
    """G[r, s]: the number of items on which raters r and s agree, from a
    (k, items) label-code grid."""
    k = len(codes)
    by_item = np.ascontiguousarray(codes.T, dtype=np.min_scalar_type(n_categories - 1))
    gram = np.zeros((k, k), dtype=np.int64)
    step = max(1, _BLOCK_BYTES // (k * k))
    for start in range(0, len(by_item), step):
        block = by_item[start : start + step]
        gram += (block[:, :, None] == block[:, None, :]).sum(axis=0, dtype=np.int32)
    return gram


def _prefix_kappas(codes: np.ndarray, n_categories: int, perms: np.ndarray) -> np.ndarray:
    """kappa_2..kappa_k of every prefix of every ordering, shape (m, k-1).

    ``codes`` is the team's (k, items) label-code grid and row r of
    ``perms`` an ordering of its rows. Two tables are built once: the Gram
    matrix G (:func:`_gram`) and the per-rater category totals C[r, :].
    For the first n raters of an ordering, S is the sum of G over the
    leading n x n block, accumulated as each rater's agreements with
    itself and with the raters before it, and T is the cumulative sum of
    C. Both stay integers until :func:`kappasim.agreement._kappa` makes
    its one division, so the full prefix equals the whole-team kappa
    bitwise, whatever the ordering.
    """
    k, n_items = codes.shape
    gram = _gram(codes, n_categories)
    totals = (codes[:, :, None] == np.arange(n_categories)).sum(axis=1)
    ns = np.arange(2, k + 1)
    if n_items * n_items * k**3 >= _FLOAT_EXACT:
        gram, totals, ns = gram.astype(object), totals.astype(object), ns.astype(object)
    lower = np.tri(k, dtype=bool)
    kappas = np.empty((len(perms), k - 1))
    step = max(1, _BLOCK_BYTES // (8 * k * k))
    for start in range(0, len(perms), step):
        p = perms[start : start + step]
        pairs = gram[p[:, :, None], p[:, None, :]]
        S = np.cumsum(2 * (pairs * lower).sum(axis=2) - n_items, axis=1)
        T = np.cumsum(totals[p], axis=1)
        T2 = (T * T).sum(axis=2)
        kappas[start : start + step] = _kappa(S[:, 1:], T2[:, 1:], n_items, ns)[0]
    return kappas


def prefix_kappas(
    matrix: AnnotationMatrix,
    team: Sequence[str],
    ordering: Sequence[str],
) -> np.ndarray:
    """kappa_2..kappa_k for one ordering of a team.

    Each call builds the team's Gram matrix, O(k^2 * items): about 350-500
    us at k = 45 with 100 items on a 2-vCPU host. To loop over orderings of
    one team, use :func:`run_experiment`, which builds it once for all.
    """
    if len(team) < 2:
        raise DataError("team must have at least 2 members")
    if len(set(team)) != len(team):
        raise DataError("team members must be distinct")
    if sorted(team) != sorted(ordering):
        raise DataError("ordering must be a permutation of the team")
    idx = matrix.rows(ordering)
    perm = np.arange(len(idx))[None, :]
    return _prefix_kappas(matrix.codes[idx], len(matrix.categories), perm)[0]


def run_experiment(matrix: AnnotationMatrix, config: ExperimentConfig) -> RunSet:
    """Execute the full experiment: one team, m ordering progressions.

    Pure function of (matrix, config): run r's ordering comes from its own
    child stream, so no run depends on another. The orderings are drawn
    first, then all m progressions are computed in one batch.
    """
    root = np.random.default_rng(np.random.SeedSequence(config.seed))
    team = sample_team(matrix, config.k, root)
    perms = np.empty((config.m, config.k), dtype=np.int64)
    for row in range(config.m):
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(row + 1,)))
        perms[row] = rng.permutation(config.k)
    codes = matrix.codes[matrix.rows(team)]
    kappas = _prefix_kappas(codes, len(matrix.categories), perms)
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
    ns, table = runs.ns, enumerate(runs.kappas, 1)
    write_table(
        dest,
        RUNS_HEADER,
        ((r, n, f"{kappa:.6f}") for r, row in table for n, kappa in zip(ns, row.tolist())),
    )


def read_runs(path: str | Path) -> tuple[tuple[int, ...], np.ndarray]:
    """Read a runs file back as (subset sizes, (m, k-1) kappa table).

    Rows may appear in any order; table rows follow ascending run id and
    each run's kappas keep their file order.
    """
    rids, ns_col, kappas = read_columns(path, RUNS_HEADER, "runs", ("int", "int", "float"))
    order = np.argsort(rids, kind="stable")
    run_ids, counts = np.unique(rids, return_counts=True)
    ns_by_run = ns_col[order]
    ns = tuple(ns_by_run[: counts[0]].tolist())
    if ns != tuple(range(2, len(ns) + 2)):
        raise DataError(f"{path}: subset sizes must run 2..k in order")
    ok = counts == len(ns)
    starts = (np.cumsum(counts) - counts)[ok]
    ok[ok] = (ns_by_run[starts[:, None] + np.arange(len(ns))] == ns).all(axis=1)
    if not ok.all():
        raise DataError(f"{path}: run {run_ids[np.argmin(ok)]} does not cover subset sizes 2..k")
    return ns, kappas[order].reshape(len(run_ids), len(ns))


def write_stats(stats: SubsetStats, dest: str | Path | TextIO | None) -> None:
    """Write the stats file: one ``n,min,q1,median,q3,max,mean,std`` row per n."""
    columns = (stats.mins, stats.q1s, stats.medians, stats.q3s, stats.maxs, stats.means, stats.stds)
    write_table(
        dest,
        STATS_HEADER,
        ((n, *(f"{v:.6f}" for v in values)) for n, *values in zip(stats.ns, *columns)),
    )


def read_stats(path: str | Path) -> SubsetStats:
    """Read a stats file back into a SubsetStats."""
    kinds = ("int",) + ("float",) * (len(STATS_HEADER) - 1)
    ns, *columns = read_columns(path, STATS_HEADER, "stats", kinds)
    return SubsetStats(tuple(ns.tolist()), *columns)
