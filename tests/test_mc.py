import io
import math
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kappasim import (
    DataError,
    ExperimentConfig,
    RunSet,
    fleiss_kappa,
    generate_synthetic,
    read_runs,
    read_stats,
    run_experiment,
    sample_team,
    summarize,
    summarize_table,
    write_runs,
    write_stats,
)
from kappasim.mc import column_moments

from conftest import kernel_rows, matrix_from_codes, numpy_orderings, ordering_kappas, subset


class TestSampleTeam:
    def test_full_set_is_forced(self, twin_matrix):
        rng = np.random.default_rng(0)
        assert sample_team(twin_matrix, 45, rng) == twin_matrix.raters

    def test_deterministic_given_stream(self, twin_matrix):
        a = sample_team(twin_matrix, 7, np.random.default_rng(np.random.SeedSequence(1)))
        b = sample_team(twin_matrix, 7, np.random.default_rng(np.random.SeedSequence(1)))
        assert a == b

    def test_members_distinct_and_known(self, twin_matrix):
        team = sample_team(twin_matrix, 7, np.random.default_rng(3))
        assert len(set(team)) == 7
        assert set(team) <= set(twin_matrix.raters)

    def test_selection_is_uniform(self, twin_matrix):
        counts = dict.fromkeys(twin_matrix.raters, 0)
        draws = 10_000
        for seed in range(draws):
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            for rater in sample_team(twin_matrix, 7, rng):
                counts[rater] += 1
        expected = 7 / 45
        for rater, hits in counts.items():
            assert abs(hits / draws - expected) < 0.02, rater

    @pytest.mark.parametrize("k", [2, 46])
    def test_k_out_of_range(self, twin_matrix, k):
        with pytest.raises(DataError, match="team size"):
            sample_team(twin_matrix, k, np.random.default_rng(0))


class TestPrefixKappas:
    def test_unanimous_team(self):
        codes = np.tile(np.array([0, 1, 2, 1]), (3, 1))
        m = matrix_from_codes(codes, n_categories=3)
        kappas = ordering_kappas(m, m.raters)
        assert kappas.tolist() == [1.0, 1.0]

    def test_order_dependence_of_early_prefixes(self):
        # raters 1 and 2 agree everywhere; rater 3 scatters
        codes = np.array(
            [
                [0, 1, 2, 0, 1, 2, 0, 1],
                [0, 1, 2, 0, 1, 2, 0, 1],
                [2, 0, 1, 1, 0, 0, 2, 2],
            ]
        )
        m = matrix_from_codes(codes, n_categories=3)
        agreeing_first = ordering_kappas(m, ("r1", "r2", "r3"))
        scatter_first = ordering_kappas(m, ("r3", "r1", "r2"))
        assert agreeing_first[0] == 1.0
        assert scatter_first[0] < 1.0
        # either way the full-team value is the same, bitwise
        assert agreeing_first[-1] == scatter_first[-1]

    def test_each_prefix_matches_direct_evaluation(self, twin_matrix, twin_runset):
        # run 1's ordering, from NumPy's own stream for the fixture's seed
        ordering = tuple(twin_runset.team[p] for p in numpy_orderings(42, 45, 1)[0])
        for n in (2, 7, 23, 45):
            direct = fleiss_kappa(subset(twin_matrix, ordering[:n])).kappa
            assert twin_runset.kappas[0][n - 2] == direct

    def test_prefix_locality(self):
        rng = np.random.default_rng(8)
        codes = rng.integers(3, size=(4, 10))
        mutated = codes.copy()
        mutated[2] = (mutated[2] + 1) % 3  # rater r3 changes every label
        m1 = matrix_from_codes(codes, n_categories=3)
        m2 = matrix_from_codes(mutated, n_categories=3)
        ordering = ("r1", "r4", "r3", "r2")  # r3 at position 3
        k1 = ordering_kappas(m1, ordering)
        k2 = ordering_kappas(m2, ordering)
        assert k1[0] == k2[0]  # n=2 untouched
        assert k1[1] != k2[1] and k1[2] != k2[2]


class TestRunExperiment:
    def test_final_column_constant_and_exact(self, twin_matrix, twin_runset):
        finals = twin_runset.kappas[:, -1]
        assert np.all(finals == twin_runset.kappa_hat)
        assert twin_runset.kappa_hat == fleiss_kappa(twin_matrix).kappa

    def test_determinism(self, twin_matrix):
        cfg = ExperimentConfig(k=10, m=37, seed=4)
        a = run_experiment(twin_matrix, cfg)
        b = run_experiment(twin_matrix, cfg)
        assert a.team == b.team
        assert np.array_equal(a.kappas, b.kappas)
        # row r-1 is run r: its ordering comes from the child stream keyed on r
        assert np.array_equal(a.kappas, kernel_rows(twin_matrix, a.team, numpy_orderings(4, 10, 37)))

    def test_thread_count_invariance(self, twin_matrix):
        # run_experiment keeps no shared state, so callers on several threads
        # at once get exactly what a lone serial caller gets
        cfg = ExperimentConfig(k=10, m=37, seed=4)
        serial = run_experiment(twin_matrix, cfg)
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda _: run_experiment(twin_matrix, cfg), range(4)))
        for rs in threaded:
            assert rs.team == serial.team
            assert np.array_equal(rs.kappas, serial.kappas)
            assert rs.kappa_hat == serial.kappa_hat

    def test_single_run(self, twin_matrix):
        rs = run_experiment(twin_matrix, ExperimentConfig(k=5, m=1, seed=0))
        assert rs.kappas.shape == (1, 4)

    def test_runs_prefix_stable_in_m(self, twin_matrix):
        short = run_experiment(twin_matrix, ExperimentConfig(k=6, m=10, seed=9))
        long = run_experiment(twin_matrix, ExperimentConfig(k=6, m=40, seed=9))
        assert np.array_equal(long.kappas[:10], short.kappas)
        # hence per-n minima can only go down as m grows
        assert np.all(long.kappas.min(axis=0) <= short.kappas.min(axis=0))

    def test_explicit_team(self, twin_matrix):
        # a given team is simulated on the matrix that holds only that team
        team = ("p05", "p01", "p44")
        rs = run_experiment(subset(twin_matrix, team), ExperimentConfig(k=3, m=4, seed=1))
        assert rs.team == team
        assert rs.kappa_hat == fleiss_kappa(subset(twin_matrix, team)).kappa

    def test_invalid_k(self, twin_matrix):
        with pytest.raises(DataError, match="team size"):
            run_experiment(twin_matrix, ExperimentConfig(k=46, m=2, seed=0))


class TestConfigAndRecords:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k=2, m=1, seed=0),
            dict(k=3, m=0, seed=0),
            dict(k=3, m=1, seed=-1),
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(DataError):
            ExperimentConfig(**kwargs)

    def test_runset_shape_check(self):
        cfg = ExperimentConfig(k=3, m=2, seed=0)
        kappas = np.array([[0.1, 0.5], [0.2, 0.5]])
        with pytest.raises(DataError, match="shape"):
            RunSet(cfg, ("a", "b", "c"), 0.5, kappas[:1])
        with pytest.raises(DataError, match="shape"):
            RunSet(cfg, ("a", "b", "c"), 0.5, kappas[:, :1])
        rs = RunSet(cfg, ("a", "b", "c"), 0.5, kappas)
        assert rs.ns == (2, 3)
        assert not rs.kappas.flags.writeable

    def test_runset_checks_final_agreement(self):
        kappas = np.array([[0.1, 0.5], [0.2, 0.4]])
        with pytest.raises(DataError, match="final prefix"):
            RunSet(ExperimentConfig(k=3, m=2, seed=0), ("a", "b", "c"), 0.5, kappas)


class TestSummarize:
    def test_small_column(self):
        stats = summarize_table((2,), np.array([[0.1], [0.2], [0.6]]))
        assert stats.medians[0] == 0.2
        assert stats.means[0] == pytest.approx(0.3, abs=1e-15)
        assert stats.mins[0] == 0.1 and stats.maxs[0] == 0.6
        # linear interpolation between closest ranks
        assert stats.q1s[0] == pytest.approx(0.15, abs=1e-15)
        assert stats.q3s[0] == pytest.approx(0.4, abs=1e-15)
        assert stats.stds[0] == pytest.approx(np.std([0.1, 0.2, 0.6], ddof=1), rel=1e-15)

    def test_constant_column_is_exact(self, twin_runset):
        stats = summarize(twin_runset)
        kh = twin_runset.kappa_hat
        assert stats.mins[-1] == kh
        assert stats.maxs[-1] == kh
        assert stats.means[-1] == kh
        assert stats.stds[-1] == 0.0

    def test_single_run_summary(self, twin_matrix):
        rs = run_experiment(twin_matrix, ExperimentConfig(k=4, m=1, seed=2))
        stats = summarize(rs)
        assert np.array_equal(stats.mins, rs.kappas[0])
        assert np.array_equal(stats.maxs, rs.kappas[0])
        assert np.all(stats.stds == 0.0)

    def test_order_statistics_ordered(self, twin_runset):
        stats = summarize(twin_runset)
        assert np.all(stats.mins <= stats.q1s)
        assert np.all(stats.q1s <= stats.medians)
        assert np.all(stats.medians <= stats.q3s)
        assert np.all(stats.q3s <= stats.maxs)

    def test_spread_grows_toward_small_subsets(self, twin_runset):
        stats = summarize(twin_runset)
        iqr = stats.q3s - stats.q1s
        assert iqr[3] > iqr[38]  # n=5 vs n=40

    def test_medians_stay_centered(self, twin_runset):
        stats = summarize(twin_runset)
        deviation = np.abs(stats.medians - twin_runset.kappa_hat)
        assert np.all(deviation[3:] <= 0.05)  # n >= 5


# cells that tie: both zeros, negatives, the smallest magnitudes and both infinities
SPECIAL_CELLS = [0.0, -0.0, 0.25, -0.25, 0.5, -1.0, 1.0, 1e-300, -1e-300, math.inf, -math.inf]


@st.composite
def kappa_tables(draw):
    """An (m, c) table, m 1..1200 and c 1..50: uniform cells, some of them
    replaced by cells from a small drawn pool (ties, zeros of both signs,
    infinities), some columns constant, and now and then a NaN."""
    m, c = draw(st.integers(1, 1200)), draw(st.integers(1, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.uniform(-1.0, 1.0, size=(m, c))
    pool = draw(st.lists(st.sampled_from(SPECIAL_CELLS), min_size=1, max_size=4))
    if draw(st.booleans()):
        pool += [0.0, -0.0]
    share = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    pooled = rng.random((m, c)) < share
    table[pooled] = rng.choice(pool, size=int(pooled.sum()))
    constant = rng.random(c) < draw(st.sampled_from([0.0, 0.3]))
    table[:, constant] = table[0, constant]
    if draw(st.integers(0, 9)) == 0:
        table[rng.integers(m), rng.integers(c)] = math.nan
    return table


@settings(max_examples=300, deadline=None)
@given(kappa_tables())
@example(np.array([[0.0], [-0.0]]))  # equal zeros at the ends of a column
@example(np.array([[0.0, 1.0, -0.0], [-0.0, 2.0, -0.0], [0.5, 0.0, 0.0]]))
def test_quartiles_from_one_sort_are_numpys(table):
    # the summary as NumPy computes it: np.min, np.percentile's linear
    # quartiles and np.max, a constant column by its value
    with np.errstate(invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # std of one NaN row
        lo, hi = np.min(table, axis=0), np.max(table, axis=0)
        quartiles = np.percentile(table, (25, 50, 75), axis=0)
        want = [lo, *(np.where(lo == hi, lo, q) for q in quartiles), hi]
        ns = tuple(range(2, table.shape[1] + 2))
        if not all((a <= b).all() for a, b in zip(want, want[1:])):  # NaN among them
            with pytest.raises(DataError, match="order statistics must satisfy"):
                summarize_table(ns, table)
            return
        stats = summarize_table(ns, table)
    got = [stats.mins, stats.q1s, stats.medians, stats.q3s, stats.maxs]
    assert got[0].tobytes() == lo.tobytes() and got[-1].tobytes() == hi.tobytes()
    # np.percentile interpolates between the zeros its partition left at a
    # rank, in an order of its own among equal zeros; so where a column
    # holds zeros of both signs only a zero quartile's value is fixed
    zeros = table == 0
    mixed = (zeros & np.signbit(table)).any(axis=0) & (zeros & ~np.signbit(table)).any(axis=0)
    for w, g in zip(want[1:-1], got[1:-1]):
        same = w.view(np.uint64) == g.view(np.uint64)
        assert (same | (mixed & (w == 0) & (g == 0))).all()


@pytest.mark.parametrize("m", [1, 2, 3, 17, 100, 1000])
@pytest.mark.parametrize("seed", range(4))
def test_block_moments_are_each_tables_moments(m, seed):
    # run_variation reduces a whole block of teams' progressions at once:
    # each table's means and standard deviations must be bitwise those of
    # the table alone, on every NumPy the package admits
    rng = np.random.default_rng(seed)
    n_teams, c = int(rng.integers(1, 40)), int(rng.integers(2, 12))
    stack = rng.uniform(-0.5, 1.0, size=(n_teams, m, c))
    stack[:, :, -1] = stack[:, :1, -1]  # a constant column, like kappa-hat's
    stack[0] = 0.25  # a constant table
    stack[-1, :, 0] = rng.integers(0, 7, size=m) / 7  # ties
    mus, sigmas = column_moments(stack)
    assert mus.shape == sigmas.shape == (n_teams, c)
    for t, table in enumerate(stack):
        mu, sigma = column_moments(table)
        assert mus[t].tobytes() == mu.tobytes()
        assert sigmas[t].tobytes() == sigma.tobytes()
    assert np.all(sigmas[:, -1] == 0.0) and np.array_equal(mus[:, -1], stack[:, 0, -1])


class TestRunFiles:
    def test_runs_roundtrip(self, twin_matrix, tmp_path):
        rs = run_experiment(twin_matrix, ExperimentConfig(k=5, m=7, seed=3))
        path = tmp_path / "runs.csv"
        write_runs(rs, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "run_id,n,kappa"
        assert len(lines) == 1 + 4 * 7
        ns, table = read_runs(path)
        assert ns == (2, 3, 4, 5)
        assert table.shape == (7, 4)
        assert np.allclose(table, rs.kappas, atol=5e-7)

    def test_stats_roundtrip(self, twin_runset, tmp_path):
        stats = summarize(twin_runset)
        path = tmp_path / "stats.csv"
        write_stats(stats, path)
        back = read_stats(path)
        assert back.ns == stats.ns
        assert np.allclose(back.medians, stats.medians, atol=5e-7)
        assert np.allclose(back.stds, stats.stds, atol=5e-7)

    def test_write_to_stream(self, twin_runset):
        buf = io.StringIO()
        write_stats(summarize(twin_runset), buf)
        assert buf.getvalue().startswith("n,min,q1,median,q3,max,mean,std\n2,")

    def test_read_runs_bad_header(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text("run,n,k\n1,2,0.5\n")
        with pytest.raises(DataError, match="header"):
            read_runs(path)

    def test_read_runs_ragged(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text("run_id,n,kappa\n1,2,0.5\n1,3,0.5\n2,2,0.4\n")
        with pytest.raises(DataError, match="does not cover"):
            read_runs(path)

    def test_read_stats_rejects_disordered_quartiles(self, tmp_path):
        path = tmp_path / "stats.csv"
        path.write_text(
            "n,min,q1,median,q3,max,mean,std\n2,0.5,0.4,0.45,0.6,0.7,0.5,0.1\n"
        )
        with pytest.raises(DataError, match="order statistics"):
            read_stats(path)

    def test_missing_files(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_runs(tmp_path / "absent.csv")
        with pytest.raises(FileNotFoundError):
            read_stats(tmp_path / "absent.csv")


def test_degenerate_prefixes_report_unity():
    # two raters always unanimous in one category, third introduces a second
    codes = np.array([[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    m = matrix_from_codes(codes, n_categories=2)
    kappas = ordering_kappas(m, m.raters)
    assert kappas[0] == 1.0  # single-category prefix, by convention
    assert kappas[1] < 1.0
