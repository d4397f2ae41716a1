"""The vectorized random streams are NumPy's streams, bit for bit.

kappasim computes SeedSequence's hash for every (seed, spawn key) pair at
once. From the resulting words it seeds NumPy's own PCG64 for the team
draws, and runs PCG64 and NumPy's shuffle as array arithmetic for the
orderings (or, for few orderings, NumPy's own generator per ordering).
These tests compare every state word, team draw and ordering with the
installed NumPy's own SeedSequence and default_rng, and check that the
stacked prefix kernel gives every team what it gives the team alone.
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
    sample_team,
)
from kappasim import mc
from kappasim.cli import main
from kappasim.mc import (
    _child_states,
    _experiments,
    _numpy_orderings,
    _pcg64_orderings,
    _prefix_kappas,
    _streams,
)

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
    states = _child_states([seed], key_list)[0]
    want = np.stack([shuffled(seed, key, k) for key in key_list])
    for draw in (_pcg64_orderings, _numpy_orderings):
        got = draw(states, k)
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
    assert np.array_equal(got, _numpy_orderings(states, k))


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
@example(2**130, 4, 128)  # 32k orderings: the array path
def test_run_experiment_draws_numpy_team_and_orderings(seed, k, m):
    rs = run_experiment(SMALL, ExperimentConfig(k=k, m=m, seed=seed))
    assert rs.team == sample_team(SMALL, k, np.random.default_rng(np.random.SeedSequence(seed)))
    for r, perm in enumerate(rs.perms, 1):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
        assert np.array_equal(perm, rng.permutation(k))


def test_blocks_of_teams_are_each_seeds_experiment():
    team_seeds = _child_states([4], range(1, 8))[0, :, 0]
    # 2 teams of 9 orderings per block at k=5 over 15 items (per team:
    # progressions, Gram matrix, two label grids; too few orderings for the
    # array path and its draw tables): four blocks, the last short
    team_bytes = 9 * 8 * 5 + 8 * 5 * 5 + 2 * 5 * 15
    with mock.patch.object(mc, "_BLOCK_BYTES", 2 * team_bytes):
        blocks = list(_experiments(SMALL, 5, 9, team_seeds))
    assert [len(teams) for teams, _, _ in blocks] == [2, 2, 2, 1]
    teams = [team for block_teams, _, _ in blocks for team in block_teams]
    perms = np.concatenate([block_perms for _, block_perms, _ in blocks])
    kappas = np.concatenate([block_kappas for _, _, block_kappas in blocks])
    for t, seed in enumerate(team_seeds.tolist()):
        alone = run_experiment(SMALL, ExperimentConfig(k=5, m=9, seed=seed))
        assert teams[t] == alone.team
        assert np.array_equal(perms[t], alone.perms)
        assert np.array_equal(kappas[t], alone.kappas)


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


@st.composite
def team_stacks(draw):
    """Several teams' (k, items) code grids over K categories, with m
    orderings of each team's rows."""
    n_teams = draw(st.integers(1, 6))
    k = draw(st.integers(2, 9))
    n_items = draw(st.integers(1, 20))
    n_categories = draw(st.integers(1, 5))
    m = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = rng.integers(n_categories, size=(n_teams, k, n_items))
    perms = rng.permuted(np.broadcast_to(np.arange(k), (n_teams, m, k)), axis=2)
    return codes, n_categories, perms


@settings(max_examples=60, deadline=None)
@given(team_stacks(), st.sampled_from(("default", "small_blocks", "python_ints")))
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
        # per Gram block
        "small_blocks": {"_BLOCK_BYTES": 8 * k * k * 3},
        "python_ints": {"_FLOAT_EXACT": 1},
    }[mode]
    with mock.patch.multiple(mc, **patches):
        stacked = _prefix_kappas(codes, n_categories, perms)
        narrow = _prefix_kappas(codes.astype(np.uint8), n_categories, perms.astype(np.uint8))
    assert stacked.shape == perms.shape[:2] + (k - 1,)
    assert np.array_equal(stacked, np.stack(alone))
    assert np.array_equal(narrow, stacked)
