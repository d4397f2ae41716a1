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
each prefix is a pair of integer running sums and one division, the
same exact formula as the whole-matrix kappa (:mod:`kappasim.agreement`).
All m orderings are drawn first and then computed in one batch: for small
teams with many orderings from a table over the team's 2**k rater
subsets, looked up by each prefix's bit mask, otherwise by walking the
orderings position by position, every ordering at each step
(:func:`_prefix_kappas` states the rule).

Determinism contract: the team draw consumes the root stream
``default_rng(SeedSequence(seed))``; run r draws its ordering from the
child stream ``default_rng(SeedSequence(seed, spawn_key=(r,)))``, r =
1..m. Results are therefore bit-identical on every invocation, and the
first m runs of a longer experiment coincide with the m runs of a shorter
one. These are NumPy's own SeedSequence -> PCG64 streams, but no object
is built per run: :func:`_seed_states` runs SeedSequence's hash (fixed by
NEP 19) as uint32 array arithmetic for many teams and runs at once, and
:func:`_pcg64_orderings` runs PCG64 on the computed words as array
arithmetic over all teams and runs of a block, and on it NumPy's
``choice`` for each team, on either of its routes, and NumPy's shuffle for
each ordering; no NumPy generator is built. NumPy is the oracle: a test
pins every word, every team and every ordering bitwise to the installed
NumPy. A spawn key is one 32-bit word, so m (and a variation's team count
j) must stay below 2**32.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Iterator, Sequence, TextIO

import numpy as np

from kappasim.agreement import _kappa
from kappasim.corpus import AnnotationMatrix, open_text_dest, read_columns, write_table
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
        if not 1 <= self.m <= _MAX_KEY:
            raise DataError(f"repetition count must be in 1..2**32-1, got {self.m}")
        if self.seed < 0:
            raise DataError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class RunSet:
    """All m repetitions for one team, stored by column.

    Row r-1 of ``kappas`` holds run r's kappa_2..kappa_k. ``kappa_hat`` is
    the full-team agreement, equal to every run's final prefix value
    exactly. Run r's ordering is not stored: it is
    ``default_rng(SeedSequence(seed, spawn_key=(r,))).permutation(k)``, as
    positions in ``team``.
    """

    config: ExperimentConfig
    team: tuple[str, ...]
    kappa_hat: float
    kappas: np.ndarray

    def __post_init__(self) -> None:
        k, m = self.config.k, self.config.m
        kappas = np.array(self.kappas, dtype=np.float64)
        if kappas.shape != (m, k - 1):
            raise DataError(
                f"progressions must have shape (m, k-1) = {(m, k - 1)}, got {kappas.shape}"
            )
        if np.any(kappas[:, -1] != self.kappa_hat):
            raise DataError("final prefix agreement differs across runs")
        kappas.setflags(write=False)
        object.__setattr__(self, "kappas", kappas)

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
    per-run draw. It is the reference that the team lanes of
    :func:`_pcg64_orderings` are tested against.
    """
    _check_team_size(k, len(matrix.raters))
    idx = np.sort(rng.choice(len(matrix.raters), size=k, replace=False))
    return tuple(matrix.raters[i] for i in idx)


def _check_team_size(k: int, total: int) -> None:
    if not 3 <= k <= total:
        raise DataError(f"team size must be between 3 and {total}, got {k}")


def _floyd_route(total: int, k: int) -> bool:
    """Whether ``Generator.choice(total, k, replace=False)`` runs Floyd's
    algorithm rather than shuffling a tail of all ``total`` indices; both
    are replayed by :func:`_pcg64_orderings`."""
    return total <= 10_000 or k <= total // 50


# Size of the temporaries of the batched prefix kernel: it works through
# items (Gram matrices), raters (category totals) and orderings (prefix
# sums) in blocks of about 256 KB, and takes teams in blocks whose draw
# tables, progressions, Gram matrices and label grids fit in as much.
_BLOCK_BYTES = 1 << 18

# Integers below this convert to float64 exactly. A prefix kappa's
# numerator and denominator are at most items^2 * k^3; from this bound on
# the kernel computes in Python ints, so its division stays correctly
# rounded.
_FLOAT_EXACT = 2**53

# NumPy's SeedSequence (NEP 19): its pool of 4 uint32 words and the
# constants of its two hashes and its mix. A spawn key is one 32-bit word.
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MAX_KEY = _MASK32


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    result ^= result >> 16
    return result


def _seed_states(seeds: Sequence[int], keys: Sequence[int]) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for every seed
    (the roots), then ``SeedSequence(seed, spawn_key=(key,))``'s for every
    seed and key (the children), as rows: shape (len(seeds) * (1 +
    len(keys)), 4), the roots first, then each seed's children in key order.

    SeedSequence's ``mix_entropy`` and ``generate_state`` run here as uint32
    array arithmetic over all seeds and keys at once. The entropy is the
    seed's 32-bit words, least significant first, zero-padded to the pool
    size, then the key's one word. Padding a keyless seed changes nothing:
    SeedSequence hashes a zero into every pool word past its entropy. So a
    root's words come from the pool before the key is mixed in and its
    children's from that pool after, and each seed is hashed once. Seeds of
    2**128 and up have more words than the pool; they run through the
    extra-entropy loop, and must then all have the same word count. Keys
    above 2**32-1 would take two words and raise :class:`DataError`.
    """
    seeds = [int(seed) for seed in seeds]
    counts = [max(1, -(-seed.bit_length() // 32)) for seed in seeds]
    width = max(_POOL_SIZE, *counts)
    if width > _POOL_SIZE and min(counts) < width:
        raise ValueError("seeds of 2**128 and up must share one word count")
    raw = b"".join(seed.to_bytes(4 * width, "little") for seed in seeds)
    entropy = list(np.frombuffer(raw, "<u4").reshape(len(seeds), width).T.astype(np.uint32))
    keys = np.asarray(keys)
    if keys.size and not 0 <= keys.min() <= keys.max() <= _MAX_KEY:
        raise DataError(f"spawn keys must lie in 0..2**32-1, got {keys.min()}..{keys.max()}")
    keys = keys.astype(np.uint32)

    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value *= hash_const
        value ^= value >> 16
        return value

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # the roots' pool, then each seed's with every key mixed in, as the
    # extra-entropy loop mixes a key word into each pool word in turn
    pool = [
        np.concatenate([word, _mix(word[:, None], hashmix(keys)).ravel()]) for word in pool
    ]

    hash_const = _INIT_B
    state = np.empty((len(pool[0]), 8), dtype="<u4")
    for i in range(8):  # 4 uint64 words, low half first
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value *= hash_const
        value ^= value >> 16
        state[:, i] = value
    return state.view("<u8").astype(np.uint64, copy=False)


def _u64(value: int) -> np.ndarray:
    # every constant is a uint64 array operand: NumPy 1.x takes uint64 with
    # a Python int to float64, and warns on uint64 scalar overflow
    return np.array(value, dtype=np.uint64)


# PCG64 as NumPy runs it (O'Neill 2014): a 128-bit LCG, state*M + inc mod
# 2**128, here in uint64 halves with 32-bit limbs for the carry; its 64-bit
# XSL-RR output gives two uint32 draws, low half first.
_PCG_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645
_M_HI, _M_LO = _u64(_PCG_MULT >> 64), _u64(_PCG_MULT & (2**64 - 1))
_M_LO_HI, _M_LO_LO = _u64(_PCG_MULT >> 32 & _MASK32), _u64(_PCG_MULT & _MASK32)
_LOW32, _ONE, _32, _58, _63, _64 = map(_u64, (_MASK32, 1, 32, 58, 63, 64))

# uint32 draws per ordering beyond one per swap, besides half as many again
# for rejections: few enough lanes run out that drawing again costs little
_SPARE_DRAWS = 8


def _table_draws(k: int) -> int:
    """uint32 draws per ordering in :func:`_pcg64_orderings`' first table."""
    return k - 1 + (k - 1) // 2 + _SPARE_DRAWS


def _pcg64_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray) -> None:
    """state = state*M + inc mod 2**128 in place, state = hi*2**64 + lo."""
    # the high half of lo*M_LO, from 32-bit limbs: lo = a1*2**32 + a0
    a0, a1 = lo & _LOW32, lo >> _32
    carry, mid0, mid1 = a0 * _M_LO_LO, a0 * _M_LO_HI, a1 * _M_LO_LO
    carry >>= _32
    carry += mid0 & _LOW32
    carry += mid1 & _LOW32
    a1 *= _M_LO_HI
    a1 += carry >> _32
    a1 += mid0 >> _32
    a1 += mid1 >> _32
    hi *= _M_LO
    hi += a1
    hi += lo * _M_HI
    hi += inc_hi
    lo *= _M_LO
    lo += inc_lo
    hi += lo < inc_lo


def _pcg64_orderings(
    states: np.ndarray, k: int, teams: int = 0, raters: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """NumPy's ``Generator`` draws on the stream of each (4,) row of
    :func:`_seed_states` words, bit for bit: array arithmetic over all rows
    (lanes) at once, every lane on its own stream. The first ``teams``
    lanes each draw a team of k of ``raters`` (at least k), as
    ``np.sort(choice(raters, k, replace=False))``, (teams, k); every other
    lane draws an ordering, ``permutation(k)``, (rows - teams, k).

    Seeding follows ``pcg64_set_seed``: state seed ``w0<<64 | w1``,
    increment ``(w2<<64 | w3)<<1 | 1``; from state 0, step, add the seed,
    step. Each lane then draws a table of uint32 up front. A team lane runs
    Floyd's algorithm (Bentley and Floyd 1987) as ``choice`` does: for j =
    raters-k .. raters-1, v is Lemire's bounded draw ``(u * (j+1)) >> 32``
    (Lemire 2019), redrawn while its low word is below ``(2**32-1-j) %
    (j+1)``, and j joins the team in place of a v already in it; with k ==
    raters the team is every rater, and no draw is read. Where ``choice``
    shuffles a tail (:func:`_floyd_route`), the lane reads the same draws
    from j = raters-1 down and runs Floyd's steps on them: the shuffle's
    first swap puts draw d on top and the top rater at d, so its tail is d
    and the smaller shuffle's tail with the top rater for d, which is, by
    induction, Floyd's last step. An ordering lane
    runs the shuffle's ``random_interval`` swaps for i = k-1 .. 1: j is the
    next draw masked to ``2**bit_length(i) - 1``, redrawn while above i.
    Only the rejected lanes loop; a lane about to run out of draws makes
    every lane draw as many again.
    """
    words = np.ascontiguousarray(states, dtype=np.uint64)
    lanes = len(words)
    inc_hi = words[:, 2] << _ONE
    inc_hi |= words[:, 3] >> _63
    inc_lo = words[:, 3] << _ONE
    inc_lo |= _ONE
    lo = inc_lo + words[:, 1]
    hi = inc_hi + words[:, 0]
    hi += lo < inc_lo
    _pcg64_step(hi, lo, inc_hi, inc_lo)

    def draws(n: int) -> np.ndarray:  # 2n uint32 per lane, draw-major
        table = np.empty((2 * n, lanes), dtype=np.uint32)
        for t in range(n):
            _pcg64_step(hi, lo, inc_hi, inc_lo)
            out, rot = hi ^ lo, hi >> _58
            turned = out >> rot
            out <<= (_64 - rot) & _63
            out |= turned  # XSL-RR: rotate hi ^ lo right by hi >> 58
            table[2 * t] = out  # truncated: the low half first
            table[2 * t + 1] = out >> _32
        return table.ravel()

    n_outputs = -(-_table_draws(k) // 2)
    table = draws(n_outputs)
    if teams and raters > k:
        read = 1 if _floyd_route(raters, k) else -1  # the tail shuffle reads j = raters-1 first
        bound = np.arange(raters - k + 1, raters + 1, dtype=np.uint64)[::read, None]  # j + 1
        floor = (_LOW32 - bound + _ONE) % bound
        lane = np.arange(teams)
        at = lane + lanes * np.arange(k)[:, None]  # step t's draw: table[at[t]]
        while True:
            if at.max() >= len(table):
                table = np.concatenate([table, draws(n_outputs)])
            scaled = table[at].astype(np.uint64) * bound
            rejected = (scaled & _LOW32) < floor
            if not rejected.any():
                break
            # a lane's first rejected step draws again, and so each later one
            at += lanes * (rejected & (rejected.cumsum(axis=0) == 1)).cumsum(axis=0)
        v = (scaled >> _32).astype(np.intp)[::read]  # in Floyd's step order
        # v is in the team already if an earlier step drew it (a stable sort
        # keeps a value's steps in order), or if it is the j of an earlier
        # step s that took j itself; resolved in step order
        order = np.argsort(v, axis=0, kind="stable")
        ranked = v[order, lane]
        taken = np.zeros(v.shape, dtype=bool)
        taken[order[1:], lane] = ranked[1:] == ranked[:-1]
        del order, ranked
        s = v - (raters - k)
        chain = ~taken & (s >= 0) & (s < np.arange(k)[:, None])
        s[~chain] = 0
        for t in np.flatnonzero(chain.any(axis=1)).tolist():
            taken[t] |= chain[t] & taken[s[t], lane]
        team = np.where(taken, np.arange(raters - k, raters)[:, None], v)
        team.sort(axis=0)
    else:  # every rater, or no team lane
        team = np.broadcast_to(np.arange(k)[:, None], (k, teams))

    orderings = lanes - teams
    perms = np.empty((k, orderings), dtype=np.min_scalar_type(k - 1))
    perms[...] = np.arange(k)[:, None]
    flat = perms.reshape(-1)
    lane = np.arange(orderings)
    cursor = lane + teams  # lane's next draw: table[cursor]
    for i in range(k - 1, 0, -1):
        mask = np.uint32((1 << i.bit_length()) - 1)
        j = table[cursor] & mask
        rejected = np.flatnonzero(j > i)
        while rejected.size:
            redraw = cursor[rejected] + lanes
            cursor[rejected] = redraw
            if redraw.max() + (i - 1) * lanes >= len(table):  # and a draw per swap left
                table = np.concatenate([table, draws(n_outputs)])
            j[rejected] = redrawn = table[redraw] & mask
            rejected = rejected[redrawn > i]
        cursor += lanes
        at = j.astype(np.intp) * orderings + lane
        swapped = perms[i].copy()
        perms[i] = flat[at]
        flat[at] = swapped
    return team.T, perms.T


def _gram(codes: np.ndarray) -> np.ndarray:
    """G[t, r, s]: the number of items on which raters r and s of team t
    agree, from a (teams, k, items) label-code grid.

    Each pair's two label rows are compared and the matches summed along
    the items; a rater agrees with itself on every item. Pairs go through
    in blocks of about ``_BLOCK_BYTES`` with their rows whole, as NumPy's
    per-row costs dominate on short rows; one pair's rows over all teams
    take less than the label grid itself."""
    n_teams, k, n_items = codes.shape
    first, second = np.triu_indices(k, 1)
    gram = np.full((n_teams, k, k), n_items, dtype=np.int64)
    # per pair: both label rows of every team, and their comparison
    step = max(1, _BLOCK_BYTES // (n_teams * n_items * (2 * codes.itemsize + 1)))
    for start in range(0, len(first), step):
        r, s = first[start : start + step], second[start : start + step]
        agree = (codes[:, r] == codes[:, s]).sum(axis=2)
        gram[:, r, s] = agree
        gram[:, s, r] = agree
    return gram


def _team_tables(codes: np.ndarray, n_categories: int) -> tuple[np.ndarray, np.ndarray]:
    """Each team's Gram matrix (:func:`_gram`), (teams, k, k), and per-rater
    category totals, (teams, k, categories), from a (teams, k, items)
    label-code grid: int64, or Python ints (object) where a prefix kappa's
    numerator and denominator could reach ``_FLOAT_EXACT``."""
    n_teams, k, n_items = codes.shape
    rows = codes.reshape(-1, n_items)
    totals = np.empty((len(rows), n_categories), dtype=np.int64)
    step = max(1, _BLOCK_BYTES // (8 * n_items))  # rows of int64 cells at a time
    for start in range(0, len(rows), step):
        chunk = rows[start : start + step]
        cells = np.arange(len(chunk))[:, None] * n_categories + chunk
        counts = np.bincount(cells.ravel(), minlength=len(chunk) * n_categories)
        totals[start : start + step] = counts.reshape(-1, n_categories)
    del cells, counts  # not kept alive through the Gram matrices
    gram = _gram(codes)
    totals = totals.reshape(n_teams, k, n_categories)
    if n_items * n_items * k**3 >= _FLOAT_EXACT:
        return gram.astype(object), totals.astype(object)
    return gram, totals


def _subset_bytes(k: int, n_categories: int) -> int:
    """Peak bytes of :func:`_subset_kappas`' temporaries per team: about
    k/2 + C + 6 int64 cells a subset (tracemalloc, k = 11). While the table
    doubles they are the row sums of half of the subsets, the category
    totals, S, T2, the rater counts and the sums in flight; the division
    then holds about nine cells besides S, T2 and the counts."""
    return 8 * (k // 2 + n_categories + 6) << k


def _takes_table(k: int, m: int, n_categories: int) -> bool:
    """Whether :func:`_prefix_kappas` takes the subset table for teams of
    k raters with m orderings each: when the orderings hold at least twice
    as many prefixes as a team has subsets, 2**k <= m*(k-1)/2, and one
    team's table fits ``_BLOCK_BYTES``."""
    return (1 << k) <= m * (k - 1) // 2 and _subset_bytes(k, n_categories) <= _BLOCK_BYTES


def _prefix_kappas(codes: np.ndarray, n_categories: int, perms: np.ndarray) -> np.ndarray:
    """kappa_2..kappa_k of every prefix of every ordering of every team,
    shape (teams, m, k-1).

    ``codes`` stacks the teams' (k, items) label-code grids and
    ``perms[t]`` holds m orderings of team t's rows, in any memory layout
    and any integer type. Per team two tables are built once: the Gram
    matrix G (:func:`_gram`) and the per-rater category totals C. A
    prefix's kappa is then a pair of integers, its pair sum S (the sum of
    G over the prefix's ordered pairs, self-pairs included) and the sum T2
    of its squared category totals, divided once by
    :func:`kappasim.agreement._kappa`, so the full prefix equals the
    whole-team kappa bitwise, whatever the ordering or the batch. Two
    routes reach the same integers and make the same division, so they
    agree bitwise:

    - :func:`_subset_kappas` tabulates every one of a team's 2**k rater
      subsets once and looks each prefix up;
    - :func:`_walk_kappas` walks the k positions of all orderings at once.

    The rule (:func:`_takes_table`) takes the table when a team's m
    orderings hold at least twice as many prefixes as it has subsets,
    2**k <= m*(k-1)/2, and one team's table fits ``_BLOCK_BYTES``; large
    teams walk (2**45 subsets cannot be tabulated). Measured on the
    45 x 100 cohort (three categories, 18 teams, NumPy 2.4.6, medians of
    15 calls in two processes), as the table's time over the walk's: 0.41x
    at k = 7, m = 100 and 0.55x at k = 8, m = 100; 0.74-0.85x at k = 9,
    m = 100; 1.6x at k = 10, m = 100. The two break even near
    2**k = m*(k-1) (0.97-1.10x at k = 5, m = 8; k = 7, m = 22; k = 9,
    m = 70; k = 10, m = 120), so the rule takes the table only where it
    wins clearly. At k = 11, m = 1000 (2 teams) the table is 0.30x; from
    k = 12 on, with three categories, one team's table outgrows the
    budget.
    """
    k, m = codes.shape[1], perms.shape[1]
    route = _subset_kappas if _takes_table(k, m, n_categories) else _walk_kappas
    return route(codes, n_categories, perms)


def _walk_kappas(codes: np.ndarray, n_categories: int, perms: np.ndarray) -> np.ndarray:
    """:func:`_prefix_kappas` by walking the k positions, each step over
    all orderings of a chunk at once.

    When rater r joins the prefix, every rater's agreements with the
    prefix so far gain row r of G; r's own entry, counted twice less its
    agreement with itself, moves the pair sum S of the prefix on, and C[r]
    moves the category totals T on. Raters (for C), items (for G) and
    orderings go through in blocks of about ``_BLOCK_BYTES``; the Gram
    matrices and label grids grow with the teams in one call, which
    callers keep bounded (:func:`_experiments`).
    """
    n_teams, k, n_items = codes.shape
    m = perms.shape[1]
    gram, totals = _team_tables(codes, n_categories)
    gram, totals = gram.reshape(-1, k), totals.reshape(-1, n_categories)
    ns = np.arange(2, k + 1).astype(gram.dtype)
    perms = perms.reshape(-1, k)
    kappas = np.empty((len(perms), k - 1))
    step = max(1, _BLOCK_BYTES // (8 * (8 * k + n_categories)))  # ~8 int64 cells a rater per ordering
    for start in range(0, len(perms), step):
        p = perms[start : start + step]
        lane = np.arange(len(p))
        # ordering r is team r // m's, whose rows of both tables start at k * (r // m)
        q = p + k * (np.arange(start, start + len(p)) // m)[:, None]
        seen = np.zeros((len(p), k), dtype=gram.dtype)  # each rater's agreements with the prefix
        S, T2 = np.empty_like(seen), np.empty_like(seen)
        s, T = 0, np.zeros((len(p), n_categories), dtype=totals.dtype)
        for a in range(k):
            seen += gram[q[:, a]]
            S[:, a] = s = s + 2 * seen[lane, p[:, a]] - n_items
            T += totals[q[:, a]]
            T2[:, a] = np.square(T).sum(axis=1)
        kappas[start : start + step] = _kappa(S[:, 1:], T2[:, 1:], n_items, ns)[0]
    return kappas.reshape(n_teams, m, k - 1)


def _subset_terms(gram: np.ndarray, totals: np.ndarray) -> tuple[np.ndarray, ...]:
    """The pair sum S and squared category totals T2 of every rater subset
    of each team, (teams, 2**k) each, and the subsets' rater counts,
    (2**k,), indexed by the bit mask of the subset's raters.

    The table doubles one rater at a time: adding rater r to a subset of
    raters below r moves its category totals on by C[r] and its pair sum
    on by twice its row sums' entry r plus G[r, r].
    """
    n_teams, k, n_categories = totals.shape
    size = 1 << k
    sums = np.zeros((n_teams, size // 2, k), dtype=gram.dtype)  # Σ G[s] over a subset's raters s
    T = np.zeros((n_teams, size, n_categories), dtype=totals.dtype)
    S = np.zeros((n_teams, size), dtype=gram.dtype)
    ns = np.zeros(size, dtype=gram.dtype)
    for r in range(k):
        lo, hi = 1 << r, 2 << r  # the subsets whose highest rater is r
        S[:, lo:hi] = S[:, :lo] + 2 * sums[:, :lo, r] + gram[:, r, r, None]
        np.add(T[:, :lo], totals[:, None, r], out=T[:, lo:hi])
        ns[lo:hi] = ns[:lo] + 1
        if r < k - 1:
            np.add(sums[:, :lo], gram[:, None, r], out=sums[:, lo:hi])
    return S, np.square(T, out=T).sum(axis=2), ns


def _subset_kappas(codes: np.ndarray, n_categories: int, perms: np.ndarray) -> np.ndarray:
    """:func:`_prefix_kappas` from a table over each team's 2**k rater
    subsets (:func:`_subset_terms`).

    Every subset's kappa is one :func:`kappasim.agreement._kappa`
    division, and a prefix of an ordering is the subset of its cumulative
    mask, the sum of ``1 << rater`` over its positions. Teams are
    tabulated in blocks of about ``_BLOCK_BYTES`` (:func:`_subset_bytes`);
    the kappa table, 2**k floats a team, is kept for the lookups, which go
    through in blocks of orderings.
    """
    n_teams, k, n_items = codes.shape
    m = perms.shape[1]
    size = 1 << k
    gram, totals = _team_tables(codes, n_categories)
    table = np.empty((n_teams, size))
    step = max(1, _BLOCK_BYTES // _subset_bytes(k, n_categories))
    for start in range(0, n_teams, step):
        S, T2, ns = _subset_terms(gram[start : start + step], totals[start : start + step])
        table[start : start + step] = _kappa(S, T2, n_items, ns)[0]
    table = table.ravel()
    perms = perms.reshape(-1, k)
    kappas = np.empty((len(perms), k - 1))
    step = max(1, _BLOCK_BYTES // (8 * k))  # one int64 mask a rater per ordering
    for start in range(0, len(perms), step):
        # intp, not the orderings' own type: 1 << rater wraps in uint8 from k = 9 on
        masks = perms[start : start + step].astype(np.intp)
        np.left_shift(1, masks, out=masks)
        np.cumsum(masks, axis=1, out=masks)
        # ordering r is team r // m's, whose table starts at size * (r // m)
        masks += size * (np.arange(start, start + len(masks)) // m)[:, None]
        np.take(table, masks[:, 1:], out=kappas[start : start + step])
    return kappas.reshape(n_teams, m, k - 1)


def _experiments(
    matrix: AnnotationMatrix, k: int, m: int, seeds: Sequence[int]
) -> Iterator[tuple[list[tuple[str, ...]], np.ndarray]]:
    """The experiment of :func:`run_experiment` for each seed, in order, in
    blocks of teams: yields each block's teams and progressions
    (teams, m, k-1).

    Per block, every seed's root and child words are hashed at once
    (:func:`_seed_states`), and :func:`_pcg64_orderings` draws the teams on
    the roots' lanes, on whichever route ``choice`` takes, and every
    ordering on the children's, all in one table. One kernel call then
    computes all the progressions, from the subset table when 2**k <=
    m*(k-1)/2 and the table fits the budget, by the position walk otherwise
    (:func:`_prefix_kappas` gives the measured crossovers: at k = 7, the
    paper's team size, the two break even near m = 22 and the rule takes
    the table from m = 43). A block holds as many teams as keep what grows
    with its teams within ``_BLOCK_BYTES``, and at least one. Per team that
    is m orderings' progressions (8 bytes a value), m + 1 lanes' draw
    tables (4 bytes a draw, see :func:`_table_draws`), a k x k int64 Gram
    matrix, the k x items label grid and, when :func:`_takes_table`, the
    team's 2**k subset kappas; the kernel bounds the rest itself.
    """
    total = len(matrix.raters)
    _check_team_size(k, total)
    n_categories = len(matrix.categories)
    codes = matrix.codes.astype(np.min_scalar_type(n_categories - 1))
    team_bytes = 8 * m * k + 4 * (m + 1) * _table_draws(k) + 8 * k * k + codes[:k].nbytes
    if _takes_table(k, m, n_categories):
        team_bytes += 8 << k
    step = max(1, _BLOCK_BYTES // team_bytes)
    for first in range(0, len(seeds), step):
        block = seeds[first : first + step]
        rows, perms = _pcg64_orderings(_seed_states(block, range(1, m + 1)), k, len(block), total)
        teams = [tuple(matrix.raters[i] for i in row) for row in rows.tolist()]
        yield teams, _prefix_kappas(codes[rows], n_categories, perms.reshape(len(block), m, k))


def run_experiment(matrix: AnnotationMatrix, config: ExperimentConfig) -> RunSet:
    """Execute the full experiment: one team, m ordering progressions.

    Pure function of (matrix, config): run r's ordering comes from its own
    child stream, so no run depends on another. The orderings are drawn
    first, then all m progressions are computed in one batch.
    """
    teams, kappas = next(_experiments(matrix, config.k, config.m, [config.seed]))
    return RunSet(
        config=config,
        team=teams[0],
        kappa_hat=float(kappas[0, 0, -1]),
        kappas=kappas[0],
    )


def column_moments(
    table: np.ndarray, lo: np.ndarray | None = None, hi: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and sample standard deviation (divisor m-1) of each column of
    an (m, c) table, or of each table of a (..., m, c) stack, shape (c,)
    or (..., c). ``lo`` and ``hi`` are each column's minimum and maximum,
    reduced here unless the caller holds them.

    A constant column (``lo == hi``) yields (value, 0.0) exactly, m=1
    included, so the full-team column reproduces kappa-hat untouched by
    summation error. Each other column is copied out as one contiguous
    row and reduced along it: that sums the column in the same pairwise
    order as reducing it on its own, where ``axis=0`` would accumulate row
    by row and differ in the last bits. So each table of a stack has
    bitwise the moments of the table alone.
    """
    table = np.asarray(table, dtype=np.float64)
    if lo is None or hi is None:
        lo, hi = table.min(axis=-2), table.max(axis=-2)
    mu, sigma = np.array(lo, dtype=np.float64), np.zeros(np.shape(lo))
    live = mu != hi
    if live.any():  # never with m=1, where std(ddof=1) would warn
        cols = np.swapaxes(table, -1, -2)[live]
        mu[live] = cols.mean(axis=1)
        sigma[live] = cols.std(axis=1, ddof=1)
    return mu, sigma


def summarize_table(ns: Sequence[int], table: np.ndarray) -> SubsetStats:
    """Column-wise distribution summary of an (m, len(ns)) kappa table.

    Each column is sorted once, and each quartile taken by rank with
    NumPy's linear rule, the one ``np.percentile`` uses: at rank (m-1)·q,
    with whole part i and fraction t, between a = row i and b = row i+1,
    it is a + (b-a)·t, or b - (b-a)·(1-t) where t >= 0.5. Every quartile
    is bitwise ``np.percentile``'s, save the sign of a zero quartile
    between zeros of both signs, which follows the order the sort left
    them in (as ``np.percentile``'s follows its partition's). std is the
    sample standard deviation (divisor m-1, zero
    when m=1). A constant column is summarized by its value directly so
    that the full-team column reproduces kappa-hat exactly, untouched by
    float summation error.
    """
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2 or table.shape[1] != len(ns):
        raise DataError("kappa table shape must be (m, number of subset sizes)")
    if table.shape[0] < 1:
        raise DataError("kappa table must hold at least one run")
    lo, hi = table.min(axis=0), table.max(axis=0)
    ranked = np.sort(table, axis=0)
    const = lo == hi
    quartiles = []
    for q in (0.25, 0.5, 0.75):
        i, t = divmod((len(ranked) - 1) * q, 1)  # exact: q is a power-of-two fraction
        a, b = ranked[int(i)], ranked[min(int(i) + 1, len(ranked) - 1)]
        quartiles.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    q1, med, q3 = (np.where(const, lo, q) for q in quartiles)
    mu, sigma = column_moments(table, lo, hi)
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


def _digit_cells(values: np.ndarray) -> np.ndarray:
    """ASCII decimal digits of non-negative integers, shape ``values.shape
    + (width,)`` for the widest value, right-aligned: leading places are
    NUL (0), and 0 keeps its one digit. Computed in int64, then cast."""
    values = np.asarray(values, dtype=np.int64)
    places = 10 ** np.arange(len(str(int(values.max()))) - 1, -1, -1, dtype=np.int64)
    digits = values[..., None] // places % 10 + ord("0")
    digits[(values[..., None] < places) & (places > 1)] = 0
    return digits.astype(np.uint8)


@cache
def _value_words() -> tuple[np.ndarray, ...]:
    """A .6f value as three four-byte words, each looked up by a number in
    0..999: the whole part right-aligned behind NULs; "." and the first
    three fraction digits; the last three and the newline. Last, the word
    to OR into the first (NUL) byte of a negative value's whole part.
    Built on first use, so that importing kappasim runs none of it; every
    caller shares the read-only words."""
    digits3 = _digit_cells(np.arange(1000, 2000))[:, 1:]
    words = (
        np.frombuffer(np.column_stack(cells).astype(np.uint8).tobytes(), dtype=np.uint32)
        for cells in (
            (np.zeros(1000), _digit_cells(np.arange(1000))),
            (np.full(1000, ord(".")), digits3),
            (digits3, np.full(1000, ord("\n"))),
        )
    )
    return (*words, np.frombuffer(b"-\0\0\0", dtype=np.uint32))


def _runs_text(first: int, ns: Sequence[int], kappas: np.ndarray) -> str:
    """The runs-file rows of runs ``first+1 ..``, one per (run, n) cell of
    the (runs, k-1) block ``kappas``, by one format string per run: the
    oracle of :func:`_runs_bytes`."""
    rows = "".join(f"{{0}},{n},{{{i}:.6f}}\n" for i, n in enumerate(ns, 1))
    return "".join(rows.format(r, *row) for r, row in enumerate(kappas.tolist(), first + 1))


def _runs_bytes(first: int, ns: Sequence[int], kappas: np.ndarray) -> bytes:
    """The bytes of :func:`_runs_text`, made in NumPy: for each cell,
    ``f"{run},{n},{kappa:.6f}\\n"``.

    With |y| < 999,999,999 for y = kappa*1e6, y is within 2**-23 of the exact
    decimal scaling, so where no y lies within 1e-6 of a half-integer,
    ``rint(y)`` is the correctly rounded six-decimal value that ``.6f``
    prints, sign included (``signbit``: ``-0.0`` and ``-4e-7`` print
    ``-0.000000``). Each cell is laid out as a row of NUL-padded fields
    and the NULs are dropped. A block with a near-tie, a non-finite or a
    large value is formatted by :func:`_runs_text` instead.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # such values take the template
        y = kappas * 1e6
        fast = np.all(np.abs(y) < 999_999_999) and np.all(np.abs(y - np.floor(y) - 0.5) > 1e-6)
    if not fast:
        return _runs_text(first, ns, kappas).encode()
    whole_words, hi_words, lo_words, minus = _value_words()
    whole, frac = np.divmod(np.abs(np.rint(y)).astype(np.int64), 10**6)
    value = np.empty(kappas.shape + (3,), dtype=np.uint32)
    value[..., 0] = whole_words.take(whole) | np.signbit(kappas) * minus
    value[..., 1] = hi_words.take(frac // 1000)
    value[..., 2] = lo_words.take(frac % 1000)
    run = _digit_cells(np.arange(first + 1, first + len(kappas) + 1))
    n = _digit_cells(ns)
    a, b = run.shape[1], run.shape[1] + 1 + n.shape[1]
    grid = np.empty(kappas.shape + (b + 1 + 12,), dtype=np.uint8)
    grid[..., :a] = run[:, None]
    grid[..., a + 1 : b] = n
    grid[..., (a, b)] = ord(",")
    grid[..., b + 1 :] = value.view(np.uint8)
    return grid.tobytes().translate(None, b"\0")


def write_runs(runs: RunSet, dest: str | Path | TextIO | None) -> None:
    """Write the long-format runs file: ``run_id,n,kappa``, (k-1)*m rows.

    The rows are the bytes of Python's ``.6f`` formatting, made in NumPy a
    bounded block of runs at a time (:func:`_runs_bytes`), so memory does
    not grow with m. A file opened here takes each block's bytes on its
    binary buffer; a passed stream (or stdout) takes the text, so its own
    encoding and newline translation apply.
    """
    step = max(1, _BLOCK_BYTES // (32 * len(runs.ns)))  # a block's temporaries: ~90 bytes a value
    blocks = (
        _runs_bytes(r, runs.ns, runs.kappas[r : r + step]) for r in range(0, runs.config.m, step)
    )
    with open_text_dest(dest) as fh:
        fh.write(",".join(RUNS_HEADER) + "\n")
        if dest is None or hasattr(dest, "write"):
            fh.writelines(block.decode("ascii") for block in blocks)
        else:  # opened as UTF-8 without newline translation
            fh.flush()
            fh.buffer.writelines(blocks)


def read_runs(path: str | Path) -> tuple[tuple[int, ...], np.ndarray]:
    """Read a runs file back as (subset sizes, (m, k-1) kappa table).

    Rows may appear in any order; table rows follow ascending run id and
    each run's kappas keep their file order. Rows in order, as
    :func:`write_runs` writes them, are used as read; others are first
    put in order by a stable sort of the run ids.
    """
    rids, ns_col, kappas = read_columns(path, RUNS_HEADER, "runs", ("int", "int", "float"))
    if not (rids[1:] >= rids[:-1]).all():
        order = np.argsort(rids, kind="stable")
        rids, ns_col, kappas = rids[order], ns_col[order], kappas[order]
    starts = np.flatnonzero(np.r_[True, rids[1:] != rids[:-1]])
    counts = np.diff(starts, append=len(rids))
    ns = tuple(ns_col[: counts[0]].tolist())
    if ns != tuple(range(2, len(ns) + 2)):
        raise DataError(f"{path}: subset sizes must run 2..k in order")
    ok = counts == len(ns)
    ok[ok] = (ns_col[starts[ok, None] + np.arange(len(ns))] == ns).all(axis=1)
    if not ok.all():
        run = rids[starts[np.argmin(ok)]]
        raise DataError(f"{path}: run {run} does not cover subset sizes 2..k")
    return ns, kappas.reshape(len(starts), len(ns))


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
