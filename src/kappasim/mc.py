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

Determinism contract: the team draw consumes the root stream
``default_rng(SeedSequence(seed))``; run r draws its ordering from the
child stream ``default_rng(SeedSequence(seed, spawn_key=(r,)))``, r =
1..m. Results are therefore bit-identical on every invocation, and the
first m runs of a longer experiment coincide with the m runs of a shorter
one. These are NumPy's own SeedSequence -> PCG64 streams, but no object
is built per run: :func:`_child_states` runs SeedSequence's hash (fixed by
NEP 19) as uint32 array arithmetic for many runs at once, and
:func:`_pcg64_orderings` runs PCG64 and NumPy's shuffle on the computed
words as array arithmetic over all runs of a block. Only the team draw
(and, for few orderings or teams over 64 raters,
:func:`_numpy_orderings`) seeds NumPy's own PCG64 from the words
(:func:`_streams`). NumPy is the oracle: a test pins
every word and every ordering of both routes bitwise to the installed
NumPy. A spawn key is one 32-bit word, so m (and a variation's team count
j) must stay below 2**32.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _child_states(seeds: Sequence[int], keys: Sequence[int] | None) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(key,)).generate_state(4, np.uint64)``
    for every seed and key, shape (len(seeds), len(keys), 4); with
    ``keys=None``, that of the root ``SeedSequence(seed)``, shape
    (len(seeds), 4).

    SeedSequence's ``mix_entropy`` and ``generate_state`` run here as uint32
    array arithmetic over all pairs at once. The entropy is the seed's
    32-bit words, least significant first, zero-padded to the pool size,
    then the key's one word. Padding a keyless seed changes nothing:
    SeedSequence hashes a zero into every pool word past its entropy.
    Seeds of 2**128 and up have more words than the pool; they run through
    the extra-entropy loop, and must then all have the same word count.
    Keys above 2**32-1 would take two words and raise :class:`DataError`.
    """
    seeds = [int(seed) for seed in seeds]
    counts = [max(1, -(-seed.bit_length() // 32)) for seed in seeds]
    width = max(_POOL_SIZE, *counts)
    if width > _POOL_SIZE and min(counts) < width:
        raise ValueError("seeds of 2**128 and up must share one word count")
    raw = b"".join(seed.to_bytes(4 * width, "little") for seed in seeds)
    entropy = list(np.frombuffer(raw, "<u4").reshape(len(seeds), width).T.astype(np.uint32))
    if keys is not None:
        keys = np.asarray(keys)
        if keys.size and not 0 <= keys.min() <= keys.max() <= _MAX_KEY:
            raise DataError(f"spawn keys must lie in 0..2**32-1, got {keys.min()}..{keys.max()}")
        entropy = [word[:, None] for word in entropy] + [keys.astype(np.uint32)]

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

    hash_const = _INIT_B
    state = np.empty(np.broadcast_shapes(*(word.shape for word in pool)) + (8,), dtype="<u4")
    for i in range(8):  # 4 uint64 words, low half first
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value *= hash_const
        value ^= value >> 16
        state[..., i] = value
    return state.view("<u8").astype(np.uint64, copy=False)


def _streams(states: np.ndarray) -> Iterator[np.random.Generator]:
    """A new Generator per row of :func:`_child_states` words: NumPy's own
    PCG64 seeds itself from the row as from its SeedSequence, so it is the
    stream ``default_rng`` builds on that SeedSequence."""

    # defined per call: subclassing at import would import numpy.random
    class Words(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype: type = np.uint32) -> np.ndarray:
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"a PCG64 seed is 4 uint64 words, not {n_words} {np.dtype(dtype)}")
            return self.words

    for words in np.ascontiguousarray(states, dtype=np.uint64).reshape(-1, 4):
        yield np.random.Generator(np.random.PCG64(Words(words)))


def _numpy_orderings(states: np.ndarray, k: int) -> np.ndarray:
    """``Generator.permutation(k)`` on the stream of each (4,) row of
    :func:`_child_states` words, one new generator per row: (rows, k)."""
    perms = np.empty((len(states), k), dtype=np.min_scalar_type(k - 1))
    perms[...] = np.arange(k)
    # shuffling arange(k) in place is what permutation(k) does, and the
    # swaps the shuffle draws do not depend on the dtype
    for row, rng in zip(perms, _streams(states)):
        rng.shuffle(row)
    return perms


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


def _pcg64_orderings(states: np.ndarray, k: int) -> np.ndarray:
    """:func:`_numpy_orderings` as array arithmetic over all rows (lanes)
    at once, every lane on its own stream, bit for bit.

    Seeding follows ``pcg64_set_seed``: state seed ``w0<<64 | w1``,
    increment ``(w2<<64 | w3)<<1 | 1``; from state 0, step, add the seed,
    step. Each lane then draws a table of uint32 up front, and the shuffle
    runs NumPy's ``random_interval`` swaps for i = k-1 .. 1: j is the next
    draw masked to ``2**bit_length(i) - 1``, redrawn while above i. Only
    the rejected lanes loop; a lane about to run out of draws makes every
    lane draw as many again.
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
    perms = np.empty((k, lanes), dtype=np.min_scalar_type(k - 1))
    perms[...] = np.arange(k)[:, None]
    flat = perms.reshape(-1)
    lane = np.arange(lanes)
    cursor = lane.copy()  # lane's next draw: table[cursor]
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
        at = j.astype(np.intp) * lanes + lane
        swapped = perms[i].copy()
        perms[i] = flat[at]
        flat[at] = swapped
    return perms.T


def _gram(codes: np.ndarray, n_categories: int) -> np.ndarray:
    """G[t, r, s]: the number of items on which raters r and s of team t
    agree, from a (teams, k, items) label-code grid."""
    n_teams, k, n_items = codes.shape
    by_item = np.ascontiguousarray(
        codes.transpose(0, 2, 1), dtype=np.min_scalar_type(n_categories - 1)
    )
    gram = np.zeros((n_teams, k, k), dtype=np.int64)
    step = max(1, _BLOCK_BYTES // (n_teams * k * k))
    for start in range(0, n_items, step):
        block = by_item[:, start : start + step, :, None]
        gram += (block == block.swapaxes(2, 3)).sum(axis=1, dtype=np.int32)
    return gram


def _prefix_kappas(codes: np.ndarray, n_categories: int, perms: np.ndarray) -> np.ndarray:
    """kappa_2..kappa_k of every prefix of every ordering of every team,
    shape (teams, m, k-1).

    ``codes`` stacks the teams' (k, items) label-code grids and
    ``perms[t]`` holds m orderings of team t's rows. Per team two tables
    are built once: the Gram matrix G (:func:`_gram`) and the per-rater
    category totals C[r, :]. For the first n raters of an ordering, S is
    the sum of G over the leading n x n block, accumulated as each rater's
    agreements with itself and with the raters before it, and T is the
    cumulative sum of C. Both stay integers until
    :func:`kappasim.agreement._kappa` makes its one division, so the full
    prefix equals the whole-team kappa bitwise, whatever the ordering or
    the batch. Raters (for C), items (for G) and orderings go through in
    blocks of about ``_BLOCK_BYTES``; the Gram matrices and label grids
    grow with the teams in one call, which callers keep bounded
    (:func:`_experiments`).
    """
    n_teams, k, n_items = codes.shape
    m = perms.shape[1]
    ns = np.arange(2, k + 1)
    rows = codes.reshape(-1, n_items)
    totals = np.empty((len(rows), n_categories), dtype=np.int64)
    step = max(1, _BLOCK_BYTES // (8 * n_items))  # rows of int64 cells at a time
    for start in range(0, len(rows), step):
        chunk = rows[start : start + step]
        cells = np.arange(len(chunk))[:, None] * n_categories + chunk
        counts = np.bincount(cells.ravel(), minlength=len(chunk) * n_categories)
        totals[start : start + step] = counts.reshape(-1, n_categories)
    del cells, counts  # not kept alive through the orderings below
    gram = _gram(codes, n_categories).reshape(-1, k)
    if n_items * n_items * k**3 >= _FLOAT_EXACT:
        gram, totals, ns = gram.astype(object), totals.astype(object), ns.astype(object)
    lower = np.tri(k, dtype=bool)
    perms = perms.reshape(-1, k)
    kappas = np.empty((len(perms), k - 1))
    step = max(1, _BLOCK_BYTES // (8 * k * k))
    for start in range(0, len(perms), step):
        p = perms[start : start + step]
        # ordering r is team r // m's, whose rows of both tables start at k * (r // m)
        q = p + k * (np.arange(start, start + len(p)) // m)[:, None]
        T2 = np.square(np.cumsum(totals[q], axis=1)).sum(axis=2)
        pairs = gram[q[:, :, None], p[:, None, :]]
        pairs *= lower
        S = np.cumsum(2 * pairs.sum(axis=2) - n_items, axis=1)
        del pairs  # the largest temporary: not kept alive into the next block
        kappas[start : start + step] = _kappa(S[:, 1:], T2[:, 1:], n_items, ns)[0]
    return kappas.reshape(n_teams, m, k - 1)


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
    perm = np.arange(len(idx))[None, None, :]
    return _prefix_kappas(matrix.codes[idx][None], len(matrix.categories), perm)[0, 0]


def _experiments(
    matrix: AnnotationMatrix, k: int, m: int, seeds: Sequence[int]
) -> Iterator[tuple[list[tuple[str, ...]], np.ndarray, np.ndarray]]:
    """The experiment of :func:`run_experiment` for each seed, in order, in
    blocks of teams: yields each block's teams, orderings (teams, m, k) and
    progressions (teams, m, k-1).

    Per block, every ordering is drawn first and one kernel call then
    computes all the progressions. A block holds as many teams as keep what
    grows with its teams within ``_BLOCK_BYTES``, and at least one. Per
    team that is m orderings' progressions (8 bytes a value) and, on the
    array path, their draw tables (4 bytes a draw, see
    :func:`_table_draws`), a k x k int64 Gram matrix and two copies of the
    k x items label grid; the kernel bounds the rest itself.

    One rule, for the whole call, picks how orderings are drawn: by the
    array path, :func:`_pcg64_orderings`, when k <= 64 and a block sized
    with the draw tables holds at least 32k orderings (m times its teams,
    or times ``len(seeds)`` if that is fewer); else by NumPy's own
    generator per ordering, :func:`_numpy_orderings`. Both give the same
    orderings. The array path's cost per swap is mostly fixed, so it pays
    off over many orderings only, and NumPy's shuffle costs less per
    element at large k. Timed on a 2-vCPU host, the array path overtakes
    the loop at 28k-31k orderings for k = 45..64 (and sooner for smaller
    k); at 32k orderings it is 4-13% slower for k = 72..100.
    """
    n_categories = len(matrix.categories)
    codes = matrix.codes.astype(np.min_scalar_type(n_categories - 1))
    team_bytes = m * 8 * k + 8 * k * k + 2 * codes[:k].nbytes
    step = max(1, _BLOCK_BYTES // (team_bytes + m * 4 * _table_draws(k)))
    by_array = k <= 64 and min(step, len(seeds)) * m >= 32 * k
    if not by_array:
        step = max(1, _BLOCK_BYTES // team_bytes)
    draw = _pcg64_orderings if by_array else _numpy_orderings
    for first in range(0, len(seeds), step):
        block = seeds[first : first + step]
        teams = [sample_team(matrix, k, rng) for rng in _streams(_child_states(block, None))]
        perms = draw(_child_states(block, range(1, m + 1)).reshape(-1, 4), k)
        perms = perms.reshape(len(block), m, k)
        team_codes = codes[[matrix.rows(team) for team in teams]]
        yield teams, perms, _prefix_kappas(team_codes, n_categories, perms)


def run_experiment(matrix: AnnotationMatrix, config: ExperimentConfig) -> RunSet:
    """Execute the full experiment: one team, m ordering progressions.

    Pure function of (matrix, config): run r's ordering comes from its own
    child stream, so no run depends on another. The orderings are drawn
    first, then all m progressions are computed in one batch.
    """
    teams, perms, kappas = next(_experiments(matrix, config.k, config.m, [config.seed]))
    return RunSet(
        config=config,
        team=teams[0],
        kappa_hat=float(kappas[0, 0, -1]),
        perms=perms[0],
        kappas=kappas[0],
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
    """Write the long-format runs file: ``run_id,n,kappa``, (k-1)*m rows,
    one format string per run, streamed: memory does not grow with m."""
    rows = "".join(f"{{0}},{n},{{{i}:.6f}}\n" for i, n in enumerate(runs.ns, 1))
    with open_text_dest(dest) as fh:
        fh.write(",".join(RUNS_HEADER) + "\n")
        fh.writelines(rows.format(r, *row.tolist()) for r, row in enumerate(runs.kappas, 1))


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
