"""The vectorized random streams are NumPy's streams, bit for bit.

kappasim computes SeedSequence's hash for every (seed, spawn key) pair at
once. From the resulting words it runs PCG64 as array arithmetic, and on
its lanes NumPy's ``choice`` for the team draws and NumPy's shuffle for
the orderings. These tests compare every state word, team draw and
ordering with the installed NumPy's own SeedSequence and default_rng,
check that the Gram matrices are the pairwise agreement counts, and that
the stacked prefix kernel gives every team what it gives the team alone,
whatever the layout of the orderings, and that its two routes, the
position walk and the subset table, agree bitwise.
"""

import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kappasim
from kappasim import (
    DataError,
    ExperimentConfig,
    VariationConfig,
    generate_synthetic,
    run_experiment,
    run_variation,
)
from kappasim import mc
from kappasim.cli import main
from kappasim.corpus import AnnotationMatrix, write_matrix
from kappasim.mc import (
    _experiments,
    _floyd_route,
    _gram,
    _pcg64_orderings,
    _prefix_kappas,
    _seed_states,
    _subset_kappas,
    _takes_table,
    _walk_kappas,
)

from conftest import kernel_rows, numpy_orderings, numpy_team

MAX_KEY = 2**32 - 1
seeds = st.integers(0, 2**200)
keys = st.lists(st.integers(0, MAX_KEY), min_size=1, max_size=6)

SMALL = generate_synthetic(raters=12, items=15, categories=3, noise=0.4, seed=5)


def numpy_state(seed, key=None):
    spawn_key = () if key is None else (key,)
    return np.random.SeedSequence(seed, spawn_key=spawn_key).generate_state(4, np.uint64)


@settings(max_examples=150, deadline=None)
@given(seeds, keys)
@example(0, [1])
@example(2**32 - 1, [MAX_KEY])
@example(2**128 - 1, [1, 2])  # four words: fills the pool exactly
@example(2**128, [1, 2])  # five words: one through the extra-entropy loop
@example(2**160 + 7, [3])
@example(2**200, [0, MAX_KEY])
def test_child_states_are_seedsequence_words(seed, key_list):
    got = _seed_states([seed], key_list)
    assert got.shape == (1 + len(key_list), 4) and got.dtype == np.uint64
    assert np.array_equal(got[0], numpy_state(seed))
    for row, key in zip(got[1:], key_list):
        assert np.array_equal(row, numpy_state(seed, key))
    assert np.array_equal(_seed_states([seed], ()), [numpy_state(seed)])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5), keys)
def test_seeds_and_keys_broadcast(seed_list, key_list):
    # the roots first, then each seed's children in key order
    got = _seed_states(np.array(seed_list, dtype=np.uint64), key_list)
    roots, children = got[: len(seed_list)], got[len(seed_list) :]
    children = children.reshape(len(seed_list), len(key_list), 4)
    for i, seed in enumerate(seed_list):
        assert np.array_equal(roots[i], numpy_state(seed))
        for j, key in enumerate(key_list):
            assert np.array_equal(children[i, j], numpy_state(seed, key))


def test_wide_seeds_batch_when_their_word_counts_match():
    wide = [2**192, 2**200 - 1, 2**199 + 12345]  # seven words each
    got = _seed_states(wide, [1, 7])[len(wide) :].reshape(len(wide), 2, 4)
    for i, seed in enumerate(wide):
        for j, key in enumerate((1, 7)):
            assert np.array_equal(got[i, j], numpy_state(seed, key))
    with pytest.raises(ValueError, match="word count"):
        _seed_states([2**192, 2**160], [1])


def test_team_seeds_are_the_first_word():
    team_seeds = _seed_states([9], range(1, 51))[1:, 0]
    for t, team_seed in enumerate(team_seeds.tolist(), 1):
        want = np.random.SeedSequence(9, spawn_key=(t,)).generate_state(1, np.uint64)[0]
        assert team_seed == int(want)


def numpy_draw(seed, raters, k):
    """NumPy's own team draw on the root stream of ``seed``, as rows."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return np.sort(rng.choice(raters, size=k, replace=False))


@st.composite
def team_blocks(draw):
    """A block of 1-40 seeds, all below 2**64 or all of five words, and a
    team size k on either of ``choice``'s routes: on Floyd's, 3..60 out of
    3..3000 raters, often few raters, where a drawn value is often in the
    team already; on the tail shuffle's, raters//50 + 1..400 or every one of
    10,001..12,000 raters."""
    low = draw(st.booleans())
    block = st.integers(0, 2**64 - 1) if low else st.integers(2**128, 2**160 - 1)
    seed_list = draw(st.lists(block, min_size=1, max_size=40))
    if draw(st.booleans()):
        raters = draw(st.integers(3, 12) | st.integers(3, 3000))
        return seed_list, raters, draw(st.integers(3, min(60, raters)))
    raters = draw(st.integers(10_001, 12_000))
    return seed_list, raters, draw(st.integers(raters // 50 + 1, 400) | st.just(raters))


@settings(max_examples=80, deadline=None)
@given(team_blocks(), st.lists(st.integers(1, MAX_KEY), max_size=3))
@example(([0], 3, 3), [1])  # every rater: no draw read
@example(([0, 1, 2], 4, 3), [])  # one rater left out, of only four
@example(([3, 7, 10], 10, 8), [])  # each takes a j whose own step took its j
@example(([5595, 2**64 - 1], 3000, 60), [7])  # 5595 redraws at its 58th step
@example(([2**128, 2**160 - 1], 45, 7), [1, MAX_KEY])
@example(([1056, 2237, 5180, 7766], 10_001, 201), [1])  # tail shuffle: each redraws once
@example(([9, 1581], 12_000, 241), [2])  # the fewest that shuffle a tail of 12,000
def test_team_lanes_draw_numpy_teams(block, key_list):
    # the root lanes of a block against NumPy's choice, on both of its
    # routes, with the block's child lanes in the same draw table
    seed_list, raters, k = block
    teams, perms = _pcg64_orderings(_seed_states(seed_list, key_list), k, len(seed_list), raters)
    assert np.array_equal(teams, [numpy_draw(seed, raters, k) for seed in seed_list])
    want = [shuffled(seed, key, k) for seed in seed_list for key in key_list]
    assert np.array_equal(perms, np.reshape(want, (-1, k)))


# 10,001 raters, one item: Generator.choice runs Floyd's algorithm for
# k <= 10,001 // 50 = 200 and k == 10,001, and shuffles a tail for k = 201
WIDE = AnnotationMatrix(
    tuple(f"r{i:05d}" for i in range(10_001)),
    ("i",),
    ("a", "b"),
    np.arange(10_001, dtype=np.int64)[:, None] % 2,
)
# 1581, 12270 and 16774 each redraw once at k = 200 (at steps 101, 48
# and 31); 5 does not
REDRAWING = [1581, 12270, 5, 16774]


@pytest.mark.parametrize("k", [200, 201])
def test_teams_of_many_raters_take_numpys_route(k):
    assert _floyd_route(10_001, k) == (k == 200)
    blocks = list(_experiments(WIDE, k, 2, REDRAWING))
    teams = [team for block_teams, _ in blocks for team in block_teams]
    assert teams == [numpy_team(WIDE, k, seed) for seed in REDRAWING]


def test_a_team_of_every_rater_reads_no_draw():
    teams, _ = _pcg64_orderings(_seed_states([0, 1581], ()), 10_001, 2, 10_001)
    assert np.array_equal(teams, np.broadcast_to(np.arange(10_001), (2, 10_001)))
    assert np.array_equal(teams[1], numpy_draw(1581, 10_001, 10_001))


def test_team_lanes_take_little_memory_per_step():
    # one team of 3,000 of 3,001 raters: comparing every pair of steps to
    # find the values an earlier step drew takes about 6 KB a step
    states = _seed_states([1581], ())
    tracemalloc.start()
    try:
        teams, _ = _pcg64_orderings(states, 3000, 1, 3001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(teams[0], numpy_draw(1581, 3001, 3000))
    assert peak < 256 * 3000


def test_each_stream_is_its_own_generator():
    # kept together, no lane is moved on by the ones next to it: teams and
    # orderings drawn in one table are those drawn alone
    states = _seed_states([9, 1581], range(1, 4))
    teams, perms = _pcg64_orderings(states, 200, 2, 10_001)
    for t in range(2):
        alone = _pcg64_orderings(states[t : t + 1], 200, 1, 10_001)[0]
        assert np.array_equal(teams[t], alone[0])
    for r in range(6):
        assert np.array_equal(perms[r], _pcg64_orderings(states[2 + r : 3 + r], 200)[1][0])


def shuffled(seed, key, k):
    row = np.arange(k)
    np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,))).shuffle(row)
    return row


@settings(max_examples=60, deadline=None)
@given(seeds, keys, st.integers(3, 257))
@example(2**130, [1, MAX_KEY], 45)
@example(0, [1, 2, 3], 256)  # the first k with uint16 orderings
@example(2**200, [MAX_KEY], 257)
def test_both_routes_draw_numpy_orderings(seed, key_list, k):
    # the array route against NumPy's own shuffle
    states = _seed_states([seed], key_list)[1:]
    want = np.stack([shuffled(seed, key, k) for key in key_list])
    got = _pcg64_orderings(states, k)[1]
    assert got.dtype == np.min_scalar_type(k - 1)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("k", [3, 7, 33, 64])
def test_lanes_that_run_out_draw_again(monkeypatch, k):
    # with no spare draws some of 400 lanes reject too often for the first
    # table; the team lanes in front of them keep their own draws
    team_seeds = [11, 5595]
    states = _seed_states(team_seeds, ())
    states = np.concatenate([states, _seed_states([11], range(1, 401))[1:]])
    monkeypatch.setattr(mc, "_SPARE_DRAWS", 0)
    steps = mock.Mock(wraps=mc._pcg64_step)
    monkeypatch.setattr(mc, "_pcg64_step", steps)
    teams, got = _pcg64_orderings(states, k, len(team_seeds), 3000)
    assert steps.call_count > 1 + -(-mc._table_draws(k) // 2)  # seeding, first table
    assert np.array_equal(got, [shuffled(11, key, k) for key in range(1, 401)])
    assert np.array_equal(teams, [numpy_draw(seed, 3000, k) for seed in team_seeds])


@pytest.mark.parametrize("items", [100, 1000])
@pytest.mark.parametrize("j", [1000, 10000])
def test_variation_memory_is_bounded_by_the_block_budget(items, j):
    # at k=3, m=1 a block once held 3,640 teams, and the peak grew with
    # items and j: 14 blocks' worth at 100 items and j=1000, 425 at 1000
    # items and j=10**4. Now a few blocks are alive at once; what grows with
    # j is the team seeds (8 bytes a team) and the output's kappa-hats (a
    # float and its list, tuple and mean slots)
    matrix = generate_synthetic(raters=45, items=items, categories=3, noise=0.4, seed=3)
    tracemalloc.start()
    try:
        run_variation(matrix, VariationConfig(k=3, m=1, j=j, seed=5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * mc._BLOCK_BYTES + 48 * j


@pytest.mark.parametrize("items", [100, 1000])
@pytest.mark.parametrize("k, m, j", [(7, 100, 200), (11, 1000, 4)])
def test_subset_tables_stay_within_the_block_budget(items, k, m, j):
    # the same bound on the subset-table route: each block keeps its
    # teams' 2**k kappas, and the kernel tabulates teams a budget at a time
    matrix = generate_synthetic(raters=45, items=items, categories=3, noise=0.4, seed=3)
    assert _takes_table(k, m, 3)
    tracemalloc.start()
    try:
        run_variation(matrix, VariationConfig(k=k, m=m, j=j, seed=5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * mc._BLOCK_BYTES + 48 * j


def test_import_does_not_load_numpy_random():
    # compared with numpy alone, which loads numpy.random itself on NumPy 1.x
    src = str(Path(kappasim.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import numpy; "
        "before = 'numpy.random' in sys.modules; import kappasim; "
        "print(before, 'numpy.random' in sys.modules)"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    before, after = run.stdout.split()
    assert after == before


def test_simulate_and_variation_do_not_load_numpy_random(tmp_path):
    # no team draw builds a NumPy generator, on Floyd's route (12 raters)
    # or where choice shuffles a tail (201 of 10,001); compared with numpy
    # alone, as above
    matrix, wide = tmp_path / "m.csv", tmp_path / "wide.csv"
    synth = ["synth", "--raters", "12", "--items", "10", "--noise", "0.4", "--out", str(matrix)]
    assert main(synth) == 0
    write_matrix(WIDE, wide)
    src = str(Path(kappasim.__file__).resolve().parents[1])
    runs_file = str(tmp_path / "runs.csv")
    runs = [
        ["simulate", "--input", str(matrix), "--k", "5", "--m", "30", "--runs-out", runs_file],
        ["variation", "--input", str(matrix), "--k", "4", "--m", "20", "--j", "30"],
        ["simulate", "--input", str(wide), "--k", "201", "--m", "3", "--runs-out", runs_file],
        ["variation", "--input", str(wide), "--k", "201", "--m", "2", "--j", "5"],
    ]
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import numpy; "
        "before = 'numpy.random' in sys.modules; from kappasim.cli import main; "
        f"codes = [main(argv) for argv in {runs!r}]; "
        "print(codes, before, 'numpy.random' in sys.modules, file=sys.stderr)"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    codes, before, after = run.stderr.splitlines()[-1].rsplit(None, 2)
    assert (codes, after) == ("[0, 0, 0, 0]", before)


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(3, 12), st.integers(1, 20))
@example(2**130, 7, 5)
@example(2**130, 4, 128)  # 128 lanes drawn at once
def test_run_experiment_draws_numpy_team_and_orderings(seed, k, m):
    # the orderings are read where the kernel receives them
    with mock.patch.object(mc, "_prefix_kappas", wraps=mc._prefix_kappas) as kernel:
        rs = run_experiment(SMALL, ExperimentConfig(k=k, m=m, seed=seed))
    assert rs.team == numpy_team(SMALL, k, seed)
    (perms,) = [call.args[2] for call in kernel.call_args_list]
    assert np.array_equal(perms[0], numpy_orderings(seed, k, m))


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(3, 12), st.integers(1, 20))
@example(2**130, 7, 5)
@example(2**130, 4, 128)  # 128 lanes drawn at once
def test_run_experiment_rows_are_the_kernel_on_numpy_orderings(seed, k, m):
    rs = run_experiment(SMALL, ExperimentConfig(k=k, m=m, seed=seed))
    team = numpy_team(SMALL, k, seed)
    assert np.array_equal(rs.kappas, kernel_rows(SMALL, team, numpy_orderings(seed, k, m)))


def test_blocks_of_teams_are_each_seeds_experiment():
    team_seeds = _seed_states([4], range(1, 8))[1:, 0]
    # 2 teams of 9 orderings per block at k=5 over 15 items (per team:
    # progressions, the draw tables of 9 ordering lanes and a team lane,
    # Gram matrix, label grid): four blocks, the last short
    team_bytes = 9 * 8 * 5 + 10 * 4 * mc._table_draws(5) + 8 * 5 * 5 + 5 * 15
    with mock.patch.object(mc, "_BLOCK_BYTES", 2 * team_bytes):
        blocks = list(_experiments(SMALL, 5, 9, team_seeds))
    assert [len(teams) for teams, _ in blocks] == [2, 2, 2, 1]
    teams = [team for block_teams, _ in blocks for team in block_teams]
    kappas = np.concatenate([block_kappas for _, block_kappas in blocks])
    for t, seed in enumerate(team_seeds.tolist()):
        alone = run_experiment(SMALL, ExperimentConfig(k=5, m=9, seed=seed))
        assert teams[t] == alone.team == numpy_team(SMALL, 5, seed)
        assert np.array_equal(kappas[t], alone.kappas)
        assert np.array_equal(kappas[t], kernel_rows(SMALL, teams[t], numpy_orderings(seed, 5, 9)))


@pytest.mark.parametrize("j", [None, 3])
def test_only_team_draws_build_numpy_generators(monkeypatch, j):
    # every ordering is array arithmetic, also where a NumPy generator per
    # ordering once drew them (k=45 with m=50 orderings per team), and so
    # is every team, also where choice shuffles a tail (201 of 10,001
    # raters) and a NumPy generator per team once drew it
    matrix = generate_synthetic(raters=45, items=20, categories=3, noise=0.4, seed=3)
    made = []
    generator = np.random.Generator

    def counted(bit_generator):
        made.append(bit_generator)
        return generator(bit_generator)

    monkeypatch.setattr(np.random, "Generator", counted)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: counted(np.random.PCG64(seed)))
    for k, m, matrix in [(45, 50, matrix), (7, 100, matrix), (201, 2, WIDE)]:
        if j is None:
            run_experiment(matrix, ExperimentConfig(k=k, m=m, seed=7))
        else:
            run_variation(matrix, VariationConfig(k=k, m=m, j=j, seed=7))
        assert made == []


class TestKeyLimit:
    @pytest.mark.parametrize("bad", [2**32, 2**40, -1])
    def test_key_outside_one_word(self, bad):
        with pytest.raises(DataError, match="spawn keys"):
            _seed_states([0], [1, bad])

    def test_run_and_team_counts(self):
        ExperimentConfig(k=3, m=MAX_KEY, seed=0)
        VariationConfig(m=MAX_KEY, j=MAX_KEY)
        with pytest.raises(DataError, match="repetition count"):
            ExperimentConfig(k=3, m=2**32, seed=0)
        with pytest.raises(DataError, match="repetition count"):
            VariationConfig(m=2**32)
        with pytest.raises(DataError, match="team count"):
            VariationConfig(j=2**32)

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--k", "3", "--m", str(2**32)],
            ["variation", "--k", "3", "--m", "2", "--j", str(2**32)],
        ],
    )
    def test_cli_exits_2(self, tmp_path, capsys, argv):
        matrix = tmp_path / "m.csv"
        assert main(["synth", "--raters", "4", "--items", "3", "--out", str(matrix)]) == 0
        assert main([argv[0], "--input", str(matrix), *argv[1:]]) == 2
        assert "2**32-1" in capsys.readouterr().err


@st.composite
def code_grids(draw):
    """Stacks of 1-4 teams' (k, items) label-code grids, k 2..45, over
    1-5 categories, in uint8 or int64."""
    n_categories = draw(st.integers(1, 5))
    shape = (draw(st.integers(1, 4)), draw(st.integers(2, 45)), draw(st.integers(1, 60)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = rng.integers(n_categories, size=shape)
    return codes.astype(draw(st.sampled_from((np.uint8, np.int64)))), n_categories


@settings(max_examples=80, deadline=None)
@given(code_grids(), st.sampled_from(("default", "small_blocks", "python_ints")))
@example((np.zeros((1, 45, 1), dtype=np.uint8), 1), "default")  # one item
@example((np.arange(90).reshape(2, 45, 1) % 3, 3), "small_blocks")
def test_gram_counts_each_pairs_agreements(grid, mode):
    codes, n_categories = grid
    want = (codes[:, :, None] == codes[:, None]).sum(axis=-1)
    patches = {
        "default": {"_BLOCK_BYTES": mc._BLOCK_BYTES},
        "small_blocks": {"_BLOCK_BYTES": 1},  # one pair at a time
        "python_ints": {"_FLOAT_EXACT": 1},  # as where items^2 * k^3 >= 2**53
    }[mode]
    with mock.patch.multiple(mc, **patches):
        gram = _gram(codes)
        tables = mc._team_tables(codes, n_categories)[0]
    assert gram.dtype == np.int64 and np.array_equal(gram, want)
    assert np.array_equal(tables, want)
    assert {type(cell) for cell in tables.flat} == ({int} if mode == "python_ints" else {np.int64})


def test_gram_of_a_large_team_stays_within_the_block_budget():
    # one k=45 team over 1,000 items: 990 pairs' label rows, blocked over
    # pairs, where all of them at once would take about 11 budgets
    codes = np.random.default_rng(0).integers(3, size=(1, 45, 1000)).astype(np.uint8)
    matrix = generate_synthetic(raters=45, items=1000, categories=3, noise=0.4, seed=3)
    tracemalloc.start()
    try:
        _gram(codes)
        gram_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        run_variation(matrix, VariationConfig(k=45, m=50, j=1, seed=5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gram_peak <= 2 * mc._BLOCK_BYTES
    assert peak <= 6 * mc._BLOCK_BYTES + 48


def team_stack(n_teams, k, n_items, n_categories, m, seed):
    """n_teams random (k, items) code grids over K categories, with m
    random orderings of each team's rows."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(n_categories, size=(n_teams, k, n_items))
    perms = rng.permuted(np.broadcast_to(np.arange(k), (n_teams, m, k)), axis=2)
    return codes, n_categories, perms


@st.composite
def team_stacks(draw):
    """Several teams' code grids and orderings (:func:`team_stack`). From
    40 orderings on, teams of up to 7 raters take the subset table, and
    from 128 on teams of 9."""
    n_teams = draw(st.integers(1, 6))
    k = draw(st.integers(2, 9))
    n_items = draw(st.integers(1, 20))
    n_categories = draw(st.integers(1, 5))
    m = draw(st.integers(1, 12) | st.integers(40, 300))
    return team_stack(n_teams, k, n_items, n_categories, m, draw(st.integers(0, 2**32 - 1)))


# the subset table at k=9, where uint8 orderings would wrap a narrow mask
TABLE_AT_9 = team_stack(2, 9, 15, 3, 130, 0)


@settings(max_examples=60, deadline=None)
@given(team_stacks(), st.sampled_from(("default", "small_blocks", "python_ints")))
@example(TABLE_AT_9, "default")
def test_stacked_kernel_equals_each_team_alone(stack, mode):
    codes, n_categories, perms = stack
    alone = [
        _prefix_kappas(codes[t : t + 1], n_categories, perms[t : t + 1])[0]
        for t in range(len(codes))
    ]
    k = codes.shape[1]
    patches = {
        "default": {"_BLOCK_BYTES": mc._BLOCK_BYTES},
        # 3 orderings per block, so blocks straddle teams, and a few items
        # per Gram block; no subset table fits so small a budget
        "small_blocks": {"_BLOCK_BYTES": 8 * (8 * k + n_categories) * 3},
        "python_ints": {"_FLOAT_EXACT": 1},
    }[mode]
    with mock.patch.multiple(mc, **patches):
        stacked = _prefix_kappas(codes, n_categories, perms)
        narrow = _prefix_kappas(codes.astype(np.uint8), n_categories, perms.astype(np.uint8))
    assert stacked.shape == perms.shape[:2] + (k - 1,)
    assert np.array_equal(stacked, np.stack(alone))
    assert np.array_equal(narrow, stacked)


@settings(max_examples=60, deadline=None)
@given(team_stacks(), st.booleans())
@example(TABLE_AT_9, False)
def test_kernel_rows_do_not_depend_on_the_orderings_layout(stack, python_ints):
    codes, n_categories, perms = stack
    k = codes.shape[1]
    perms = np.ascontiguousarray(perms)
    layouts = (
        perms,
        np.asfortranarray(perms),
        # a (k, orderings) table seen transposed, as the orderings are drawn
        np.ascontiguousarray(perms.reshape(-1, k).T).T.reshape(perms.shape),
    )
    with mock.patch.object(mc, "_FLOAT_EXACT", 1 if python_ints else mc._FLOAT_EXACT):
        rows = [_prefix_kappas(codes, n_categories, layout) for layout in layouts]
        alone = [
            _prefix_kappas(codes[t : t + 1], n_categories, layouts[2][t : t + 1])[0]
            for t in range(len(codes))
        ]
    for got in rows:
        assert got.tobytes() == rows[0].tobytes()
    assert rows[0].tobytes() == np.stack(alone).tobytes()


@st.composite
def route_cases(draw):
    """Stacks of teams of 2-12 raters (:func:`team_stack`) over 1 or 5
    categories, the last team perhaps labelling everything alike, with
    codes and orderings each in uint8 or int64."""
    codes, n_categories, perms = team_stack(
        draw(st.integers(1, 3)),
        draw(st.integers(2, 12)),
        draw(st.integers(1, 12)),
        draw(st.sampled_from((1, 5))),
        draw(st.integers(1, 40)),
        draw(st.integers(0, 2**32 - 1)),
    )
    if draw(st.booleans()):
        codes[-1] = codes[-1, 0, 0]  # every subset of that team is degenerate
    dtypes = st.sampled_from((np.uint8, np.int64))
    return codes.astype(draw(dtypes)), n_categories, perms.astype(draw(dtypes))


def one_item_case():
    # one item over five categories: most subsets label it alike (kappa = 1
    # by the degenerate rule), and at k=9 masks pass what uint8 holds
    codes = np.array([[[0], [1], [0], [0], [4], [0], [1], [0], [0]]], dtype=np.uint8)
    perms = np.random.default_rng(0).permuted(np.broadcast_to(np.arange(9), (1, 40, 9)), axis=2)
    return codes, 5, perms.astype(np.uint8)


@settings(max_examples=80, deadline=None)
@given(route_cases(), st.sampled_from(("default", "small_blocks", "python_ints")))
@example(one_item_case(), "default")
def test_subset_table_equals_the_position_walk(case, mode):
    # both routes by name, whichever the rule would pick: the same integers
    # S and T2 and the same division, so the same bytes
    codes, n_categories, perms = case
    k = codes.shape[1]
    patches = {
        "default": {"_BLOCK_BYTES": mc._BLOCK_BYTES},
        # one team's table at a time and 2 orderings per lookup block
        "small_blocks": {"_BLOCK_BYTES": 2 * 8 * k},
        "python_ints": {"_FLOAT_EXACT": 1},
    }[mode]
    with mock.patch.multiple(mc, **patches):
        walk = _walk_kappas(codes, n_categories, perms)
        table = _subset_kappas(codes, n_categories, perms)
    assert table.shape == perms.shape[:2] + (k - 1,)
    assert table.tobytes() == walk.tobytes()


@pytest.mark.parametrize("k, m, takes_table", [(7, 100, True), (45, 1000, False)])
def test_route_rule_takes_the_table_for_small_teams_only(k, m, takes_table):
    # twin-variation's teams (k=7, m=100) and twin-simulate's (k=45, m=1000)
    matrix = generate_synthetic(raters=45, items=20, categories=3, noise=0.4, seed=3)
    with mock.patch.object(mc, "_subset_kappas", wraps=_subset_kappas) as table, mock.patch.object(
        mc, "_walk_kappas", wraps=_walk_kappas
    ) as walk:
        run_experiment(matrix, ExperimentConfig(k=k, m=m, seed=1))
    assert (table.call_count, walk.call_count) == ((1, 0) if takes_table else (0, 1))
    assert _takes_table(k, m, 3) == takes_table
