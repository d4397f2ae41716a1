"""Property tests for the columnar Monte Carlo path.

The vectorized column summary must reproduce the per-column loop it
replaced bit for bit, because stats and variation files are compared
byte for byte across versions; the loop is kept here as the reference.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kappasim import ExperimentConfig, run_experiment, summarize_table
from kappasim.mc import column_moments

from conftest import kernel_rows, matrix_from_codes, numpy_orderings


def reference_summary(table):
    # one column at a time, constant columns short-circuited to their value
    rows = []
    for col in table.T:
        lo, hi = col.min(), col.max()
        if lo == hi:
            rows.append((lo, lo, lo, lo, lo, lo, 0.0))
        else:
            q1, med, q3 = np.percentile(col, (25, 50, 75))
            rows.append((lo, q1, med, q3, hi, col.mean(), col.std(ddof=1)))
    return np.array(rows).T


@st.composite
def kappa_tables(draw):
    """(m, c) tables of kappa-like values; some columns constant, and
    coarse grids give ties between runs."""
    m = draw(st.integers(1, 300))
    c = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([0, 3, 1000]))  # 0 means continuous
    if levels:
        table = rng.integers(-levels, levels + 1, size=(m, c)) / levels
    else:
        table = rng.uniform(-1.0, 1.0, size=(m, c))
    constant = np.array(draw(st.lists(st.booleans(), min_size=c, max_size=c)))
    table[:, constant] = rng.uniform(-1.0, 1.0, size=int(constant.sum()))
    return table


def assert_bitwise(actual, expected):
    assert np.array_equal(np.asarray(actual).view(np.int64), np.asarray(expected).view(np.int64))


@settings(max_examples=200, deadline=None)
@given(kappa_tables())
@example(np.full((5, 3), 0.25))
@example(np.array([[0.1, -0.2, 1.0]]))
def test_column_summary_matches_per_column_loop(table):
    expected = reference_summary(table)
    stats = summarize_table(tuple(range(2, table.shape[1] + 2)), table)
    actual = (stats.mins, stats.q1s, stats.medians, stats.q3s, stats.maxs, stats.means, stats.stds)
    for got, want in zip(actual, expected):
        assert_bitwise(got, want)
    mu, sigma = column_moments(table)
    assert_bitwise(mu, expected[5])
    assert_bitwise(sigma, expected[6])


SMALL = matrix_from_codes(np.random.default_rng(5).integers(3, size=(9, 20)), n_categories=3)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 9), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_orderings_are_permutations_and_prefix_stable(k, m, seed):
    rs = run_experiment(SMALL, ExperimentConfig(k=k, m=m, seed=seed))
    # row r-1 is the kernel on run r's permutation from NumPy's own stream
    assert np.array_equal(rs.kappas, kernel_rows(SMALL, rs.team, numpy_orderings(seed, k, m)))
    longer = run_experiment(SMALL, ExperimentConfig(k=k, m=m + 3, seed=seed))
    assert longer.team == rs.team
    assert np.array_equal(longer.kappas[:m], rs.kappas)
