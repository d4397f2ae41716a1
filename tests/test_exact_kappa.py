"""Exactness of the integer kappa formula on every path.

The whole-matrix value, every prefix of every ordering, and the batched
run_experiment rows all end in the same single integer division, so each
must equal the exact rational, correctly rounded, bitwise.
"""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappasim import (
    ExperimentConfig,
    fleiss_kappa,
    kappa_from_counts,
    prefix_kappas,
    run_experiment,
)
from kappasim import mc
from kappasim.agreement import _kappa

from conftest import kappa_fraction, matrix_from_codes, p_fractions, subset


@st.composite
def code_grids(draw, min_raters=2):
    """A (raters, items) code grid over K categories: random labels around
    a per-item truth, unanimous items, or a single category throughout."""
    k = draw(st.integers(min_raters, 12))
    n_items = draw(st.integers(1, 30))
    n_categories = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(("noisy", "unanimous_items", "one_category")))
    if shape == "one_category":
        codes = np.full((k, n_items), rng.integers(n_categories))
    else:
        noise = 0.0 if shape == "unanimous_items" else draw(st.sampled_from((0.2, 0.5, 1.0)))
        truth = rng.integers(n_categories, size=n_items)
        flip = rng.random((k, n_items)) < noise
        codes = np.where(flip, rng.integers(n_categories, size=(k, n_items)), truth)
    return codes, n_categories, rng


def exact(matrix, raters=None):
    sub = matrix if raters is None else subset(matrix, raters)
    want, degenerate = kappa_fraction(sub.counts())
    return float(want), degenerate


@settings(max_examples=60, deadline=None)
@given(code_grids())
def test_whole_matrix_is_the_correctly_rounded_rational(grid):
    codes, n_categories, _ = grid
    matrix = matrix_from_codes(codes, n_categories)
    want, degenerate = exact(matrix)
    for value in (fleiss_kappa(matrix), kappa_from_counts(matrix.counts())):
        assert value.kappa == want
        assert value.degenerate == degenerate


@settings(max_examples=60, deadline=None)
@given(code_grids())
def test_agreement_ingredients_are_the_correctly_rounded_rationals(grid):
    codes, n_categories, _ = grid
    counts = matrix_from_codes(codes, n_categories).counts()
    p_bar, p_bar_e = p_fractions(counts)
    value = kappa_from_counts(counts)
    assert value.p_bar == float(p_bar)
    assert value.p_bar_e == float(p_bar_e)


@settings(max_examples=40, deadline=None)
@given(code_grids())
def test_every_prefix_is_the_correctly_rounded_rational(grid):
    codes, n_categories, rng = grid
    matrix = matrix_from_codes(codes, n_categories)
    ordering = tuple(matrix.raters[i] for i in rng.permutation(len(matrix.raters)))
    got = prefix_kappas(matrix, matrix.raters, ordering)
    want = [exact(matrix, ordering[:n])[0] for n in range(2, len(ordering) + 1)]
    assert got.tolist() == want
    assert got[-1] == fleiss_kappa(matrix).kappa


@settings(max_examples=25, deadline=None)
@given(code_grids(min_raters=3), st.integers(1, 40), st.integers(0, 2**16))
def test_batched_rows_equal_single_orderings(grid, m, seed):
    codes, n_categories, _ = grid
    matrix = matrix_from_codes(codes, n_categories)
    k = len(matrix.raters)
    config = ExperimentConfig(k=k, m=m, seed=seed)
    # blocks of 3 items and of 1 ordering, so both loops cross block edges
    with mock.patch.object(mc, "_BLOCK_BYTES", 3 * k * k):
        blocked = run_experiment(matrix, config)
    whole = run_experiment(matrix, config)
    assert np.array_equal(blocked.kappas, whole.kappas)
    for perm, row in zip(blocked.perms, blocked.kappas):
        ordering = [blocked.team[p] for p in perm]
        assert np.array_equal(row, prefix_kappas(matrix, blocked.team, ordering))


def test_twin_runset_rows_equal_single_orderings(twin_matrix, twin_runset):
    # k=45, m=300 spans several default-size blocks of orderings
    assert len(twin_runset.perms) > mc._BLOCK_BYTES // (8 * 45 * 45)
    for perm, row in zip(twin_runset.perms, twin_runset.kappas):
        ordering = [twin_runset.team[p] for p in perm]
        assert np.array_equal(row, prefix_kappas(twin_matrix, twin_runset.team, ordering))


def defining_ratio(S, T2, N, n):
    """Kappa straight from P-bar and P-bar_e, in exact rationals."""
    p_bar = Fraction(S - N * n, N * n * (n - 1))
    p_bar_e = Fraction(T2, (N * n) ** 2)
    return float((p_bar - p_bar_e) / (1 - p_bar_e))


# (items, raters) with items^2 * raters^3 below and far above 2^53
BELOW = (1000, 200)
ABOVE = (10**6, 1000)


@pytest.mark.parametrize("N,n", [BELOW, ABOVE])
def test_integer_formula_on_both_sides_of_the_float_limit(N, n):
    assert (N * N * n**3 < mc._FLOAT_EXACT) == ((N, n) == BELOW)
    # an observed-agreement sum and squared totals of the right magnitude
    S = N * n * (n + 2) // 3 + 7
    T2 = (N * n) ** 2 // 3 + 5
    want = defining_ratio(S, T2, N, n)
    assert _kappa(S, T2, N, n) == (want, False)
    as_objects = _kappa(np.array([S], dtype=object), np.array([T2], dtype=object), N,
                        np.array([n], dtype=object))
    assert as_objects[0].tolist() == [want]
    if (N, n) == BELOW:
        as_int64 = _kappa(np.array([S]), np.array([T2]), N, np.array([n]))
        assert as_int64[0].tolist() == [want]


def test_one_category_is_the_zero_denominator():
    N, n = 10**6, 1000
    assert _kappa(N * n * n, (N * n) ** 2, N, n) == (1.0, True)
    kappa, degenerate = _kappa(np.array([N * n * n, 0], dtype=object),
                               np.array([(N * n) ** 2, 0], dtype=object), N,
                               np.array([n, n], dtype=object))
    assert kappa.tolist()[0] == 1.0 and degenerate.tolist() == [True, False]


def test_prefix_kernel_switches_to_python_ints_at_the_limit(twin_matrix):
    config = ExperimentConfig(k=12, m=30, seed=9)
    native = run_experiment(twin_matrix, config)
    dtypes = []

    def spy(S, T2, N, n):
        dtypes.append(S.dtype)
        return _kappa(S, T2, N, n)

    with mock.patch.object(mc, "_FLOAT_EXACT", 1), mock.patch.object(mc, "_kappa", spy):
        wide = run_experiment(twin_matrix, config)
    assert dtypes and all(dtype == object for dtype in dtypes)
    assert np.array_equal(wide.kappas, native.kappas)


def test_whole_matrix_path_is_exact_beyond_int64_sums():
    # 2^30 raters on 64 items: S and T2 overflow int64 and num, den pass
    # 2^53, yet the whole-matrix value is still the rounded rational
    n, N = 2**30, 64
    rng = np.random.default_rng(3)
    first = rng.integers(n // 4, n, size=N)
    counts = np.stack([first, n - first], axis=1)
    rows = counts.tolist()
    S = sum(c * c for row in rows for c in row)
    T2 = sum(sum(col) ** 2 for col in zip(*rows))
    assert S >= 2**63 and T2 >= 2**63 and N * N * n**3 >= mc._FLOAT_EXACT
    value = kappa_from_counts(counts)
    assert value.kappa == defining_ratio(S, T2, N, n)
    assert value.kappa == float(kappa_fraction(counts)[0])
    p_bar, p_bar_e = p_fractions(counts)
    assert value.p_bar == float(p_bar)
    assert value.p_bar_e == float(p_bar_e)
