"""The vectorized random streams are NumPy's streams, bit for bit.

kappasim computes SeedSequence's hash for every (seed, spawn key) pair at
once. From the resulting words it seeds NumPy's own PCG64 for the team
draws, and runs PCG64 and NumPy's shuffle as array arithmetic for the
orderings. These tests compare every state word, team draw and ordering
with the installed NumPy's own SeedSequence and default_rng, and check
that the stacked prefix kernel gives every team what it gives the team
alone, whatever the layout of the orderings, and that its two routes,
the position walk and the subset table, agree bitwise.
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
from kappasim.mc import (
    _child_states,
    _experiments,
    _pcg64_orderings,
    _prefix_kappas,
    _streams,
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
    got = _child_states([seed], key_list)
    assert got.shape == (1, len(key_list), 4) and got.dtype == np.uint64
    for row, key in zip(got[0], key_list):
        assert np.array_equal(row, numpy_state(seed, key))
    assert np.array_equal(_child_states([seed], None)[0], numpy_state(seed))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5), keys)
def test_seeds_and_keys_broadcast(seed_list, key_list):
    got = _child_states(np.array(seed_list, dtype=np.uint64), key_list)
    roots = _child_states(seed_list, None)
    for i, seed in enumerate(seed_list):
        assert np.array_equal(roots[i], numpy_state(seed))
        for j, key in enumerate(key_list):
            assert np.array_equal(got[i, j], numpy_state(seed, key))


def test_wide_seeds_batch_when_their_word_counts_match():
    wide = [2**192, 2**200 - 1, 2**199 + 12345]  # seven words each
    got = _child_states(wide, [1, 7])
    for i, seed in enumerate(wide):
        for j, key in enumerate((1, 7)):
            assert np.array_equal(got[i, j], numpy_state(seed, key))
    with pytest.raises(ValueError, match="word count"):
        _child_states([2**192, 2**160], [1])


def test_team_seeds_are_the_first_word():
    team_seeds = _child_states([9], range(1, 51))[0, :, 0]
    for t, team_seed in enumerate(team_seeds.tolist(), 1):
        want = np.random.SeedSequence(9, spawn_key=(t,)).generate_state(1, np.uint64)[0]
        assert team_seed == int(want)


@settings(max_examples=60, deadline=None)
@given(seeds, keys, st.integers(2, 50))
@example(2**130, [1, MAX_KEY], 45)
def test_streams_draw_numpy_orderings(seed, key_list, k):
    streams = _streams(_child_states([seed], key_list))
    for key, rng in zip(key_list, streams):
        want = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))
        assert np.array_equal(rng.permutation(k), want.permutation(k))
        assert rng.bit_generator.state == want.bit_generator.state


def test_each_stream_is_its_own_generator():
    # kept together, no stream is moved on by the ones after it
    streams = list(_streams(_child_states([9], [1, 2, 3])))
    for key, rng in zip((1, 2, 3), streams):
        want = np.random.default_rng(np.random.SeedSequence(9, spawn_key=(key,)))
        assert np.array_equal(rng.permutation(10), want.permutation(10))


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
    states = _child_states([seed], key_list)[0]
    want = np.stack([shuffled(seed, key, k) for key in key_list])
    got = _pcg64_orderings(states, k)
    assert got.dtype == np.min_scalar_type(k - 1)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("k", [3, 7, 33, 64])
def test_lanes_that_run_out_draw_again(monkeypatch, k):
    # with no spare draws some of 400 lanes reject too often for the first table
    states = _child_states([11], range(1, 401))[0]
    monkeypatch.setattr(mc, "_SPARE_DRAWS", 0)
    steps = mock.Mock(wraps=mc._pcg64_step)
    monkeypatch.setattr(mc, "_pcg64_step", steps)
    got = _pcg64_orderings(states, k)
    assert steps.call_count > 1 + -(-mc._table_draws(k) // 2)  # seeding, first table
    assert np.array_equal(got, [shuffled(11, key, k) for key in range(1, 401)])


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


def test_a_bit_generator_asking_for_other_words_is_refused(monkeypatch):
    # SFC64 asks its seed for 3 words: drawing would give another stream
    monkeypatch.setattr(mc.np.random, "PCG64", np.random.SFC64)
    with pytest.raises(ValueError, match="a PCG64 seed is 4 uint64 words, not 3 uint64"):
        next(_streams(_child_states([9], [1])))


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
    team_seeds = _child_states([4], range(1, 8))[0, :, 0]
    # 2 teams of 9 orderings per block at k=5 over 15 items (per team:
    # progressions, draw tables, Gram matrix, two label grids): four
    # blocks, the last short
    team_bytes = 9 * (8 * 5 + 4 * mc._table_draws(5)) + 8 * 5 * 5 + 2 * 5 * 15
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
    # ordering once drew them (k=45 with m=50 orderings per team)
    made = []
    streams = mc._streams

    def counted(states):
        for rng in streams(states):
            made.append(rng)
            yield rng

    monkeypatch.setattr(mc, "_streams", counted)
    matrix = generate_synthetic(raters=45, items=20, categories=3, noise=0.4, seed=3)
    if j is None:
        run_experiment(matrix, ExperimentConfig(k=45, m=50, seed=7))
        assert len(made) == 1
    else:
        run_variation(matrix, VariationConfig(k=45, m=50, j=j, seed=7))
        assert len(made) == j


class TestKeyLimit:
    @pytest.mark.parametrize("bad", [2**32, 2**40, -1])
    def test_key_outside_one_word(self, bad):
        with pytest.raises(DataError, match="spawn keys"):
            _child_states([0], [1, bad])

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
