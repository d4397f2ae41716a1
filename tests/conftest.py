"""Shared fixtures and the exact-rational agreement oracle."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from kappasim import (
    AnnotationMatrix,
    ExperimentConfig,
    RunSet,
    generate_synthetic,
    run_experiment,
)

# Noise level at which the 3-category synthetic cohort lands near
# kappa = 0.22: with keep probability 1-rho, observed agreement is
# (1-2*rho/3)^2 + 2*rho^2/9 and chance agreement is 1/3, which solves to
# rho = 1 - sqrt(0.22) for kappa = 0.22.
TWIN_RHO = 1.0 - 0.22**0.5


def p_fractions(counts) -> tuple[Fraction, Fraction]:
    """Observed and chance agreement (P-bar, P-bar_e) of a count table, in
    exact rationals straight off the defining formulas."""
    rows = [[int(c) for c in row] for row in counts]
    n = sum(rows[0])
    n_items = len(rows)
    n_cats = len(rows[0])
    assert all(sum(row) == n for row in rows)
    p_i = [Fraction(sum(c * c for c in row) - n, n * (n - 1)) for row in rows]
    p_bar = sum(p_i, Fraction(0)) / n_items
    col = [sum(row[j] for row in rows) for j in range(n_cats)]
    p_j = [Fraction(c, n_items * n) for c in col]
    p_bar_e = sum((p * p for p in p_j), Fraction(0))
    return p_bar, p_bar_e


def kappa_fraction(counts) -> tuple[Fraction, bool]:
    """Brute-force agreement from a count table, in exact rationals.

    Returns (kappa, degenerate). Independent of the library code: plain
    Fraction arithmetic straight off the defining formula.
    """
    p_bar, p_bar_e = p_fractions(counts)
    if p_bar_e == 1:  # every rating in one category
        return Fraction(1), True
    return (p_bar - p_bar_e) / (1 - p_bar_e), False


def matrix_from_codes(codes, n_categories: int | None = None) -> AnnotationMatrix:
    codes = np.asarray(codes, dtype=np.int64)
    if n_categories is None:
        n_categories = max(2, int(codes.max()) + 1)
    if n_categories <= 3:
        cats = ("positive", "neutral", "negative")[:n_categories]
    else:
        cats = tuple(f"c{i + 1}" for i in range(n_categories))
    raters, items = codes.shape
    return AnnotationMatrix(
        raters=tuple(f"r{j + 1}" for j in range(raters)),
        items=tuple(f"s{i + 1}" for i in range(items)),
        categories=cats,
        codes=codes,
    )


def subset(matrix: AnnotationMatrix, raters) -> AnnotationMatrix:
    """``matrix`` restricted to ``raters``, in the given order."""
    rows = matrix.rows(raters)
    return AnnotationMatrix(tuple(raters), matrix.items, matrix.categories, matrix.codes[rows])


def label(matrix: AnnotationMatrix, rater: str, item: str) -> str:
    """The label token ``rater`` gave ``item``."""
    return matrix.categories[matrix.codes[matrix.rater_rows[rater], matrix.items.index(item)]]


def random_counts(rng: np.random.Generator) -> np.ndarray:
    """Random count table with 2-4 raters, 1-4 items, 2-3 categories."""
    n = int(rng.integers(2, 5))
    n_items = int(rng.integers(1, 5))
    n_cats = int(rng.integers(2, 4))
    codes = rng.integers(n_cats, size=(n, n_items))
    onehot = codes[:, :, None] == np.arange(n_cats)[None, None, :]
    return onehot.sum(axis=0).astype(np.int64)


@pytest.fixture(scope="session")
def twin_matrix() -> AnnotationMatrix:
    """Synthetic 45 x 100 cohort tuned near kappa = 0.22."""
    return generate_synthetic(raters=45, items=100, categories=3, noise=TWIN_RHO, seed=11)


@pytest.fixture(scope="session")
def twin_runset(twin_matrix) -> RunSet:
    return run_experiment(twin_matrix, ExperimentConfig(k=45, m=300, seed=42))
