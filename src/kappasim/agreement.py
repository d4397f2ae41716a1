"""Fleiss' kappa: chance-corrected agreement among a fixed number of raters.

For N items, n raters, and K categories, let n_ij be the number of raters
assigning item i to category j (so sum_j n_ij = n for every i). Observed
agreement on item i is the fraction of concordant rater pairs,

    P_i = (sum_j n_ij^2 - n) / (n * (n - 1)),

and the overall observed agreement is the mean P-bar = (1/N) sum_i P_i.
Expected chance agreement uses the marginal category proportions
p_j = T_j / (N * n), where T_j = sum_i n_ij is the category total:

    P-bar_e = sum_j p_j^2.

Kappa is the chance-corrected ratio

    kappa = (P-bar - P-bar_e) / (1 - P-bar_e),

which is 1 at perfect agreement and <= 0 at or below chance level.

P-bar is the mean pairwise agreement (Fleiss 1971; Conger 1980): with
G[r, s] the number of items on which raters r and s agree,
S = sum_i sum_j n_ij^2 = sum_{r,s} G[r, s] over ordered pairs, the n
self-pairs included. Clearing the denominators leaves two integers,

    num = (S - N*n) * N*n - (n - 1) * T2,
    den = (n - 1) * ((N*n)^2 - T2),      T2 = sum_j T_j^2,

and kappa = num / den. Every path (the whole matrix here, every prefix of
every ordering in :mod:`kappasim.mc`) computes S and T2 exactly and makes
this one division, so each value is the correctly rounded exact rational
and the paths agree bitwise. |num| and den are at most N^2 * n^3: the
whole-matrix path sums S and T2 and divides in Python ints, which have no
limit (its int64 per-item squares n_ij^2 are exact for n < 3 * 10^9); the
batched prefix path divides int64 values converted to float64, which is
exact only below 2^53, so it computes in Python ints from that bound on.

den is 0 exactly when every rating lands in a single category; the ratio
is then 0/0 and is reported as kappa = 1 with ``degenerate=True``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from kappasim.corpus import AnnotationMatrix
from kappasim.errors import DataError


@dataclass(frozen=True)
class KappaValue:
    """Fleiss' kappa together with its ingredients.

    ``degenerate`` marks the all-ratings-in-one-category case, where the
    defining ratio is 0/0 and ``kappa`` is reported as 1 by convention.
    """

    kappa: float
    p_bar: float
    p_bar_e: float
    degenerate: bool = False


def _kappa(S, T2, N, n):
    """Kappa from the pair sum S, the squared category totals T2, N items
    and n raters (see the module docstring), with its degenerate flag.

    Takes Python ints, or arrays of int64 or of Python ints (object)
    elementwise; returns (float, bool) or (float64 array, bool array).
    """
    total = N * n
    num = (S - total) * total - (n - 1) * T2
    den = (n - 1) * (total * total - T2)
    degenerate = den == 0
    if np.ndim(den) == 0:
        return (1.0 if degenerate else num / den), bool(degenerate)
    kappa = np.ones(np.shape(den))
    live = ~degenerate
    kappa[live] = num[live] / den[live]
    return kappa, degenerate


def kappa_from_counts(counts: np.ndarray) -> KappaValue:
    """Fleiss' kappa from an (items, categories) table of rating counts.

    Every row must sum to the same number of raters n >= 2.
    """
    counts = np.asarray(counts)
    if counts.ndim != 2:
        raise DataError(f"counts must be 2-dimensional, got shape {counts.shape}")
    if not np.issubdtype(counts.dtype, np.integer):
        if not np.all(counts == np.floor(counts)):
            raise DataError("counts must be whole numbers")
        counts = counts.astype(np.int64)
    if counts.size == 0:
        raise DataError("counts table is empty")
    if counts.min() < 0:
        raise DataError("counts must be non-negative")
    n_items, _ = counts.shape
    row_sums = counts.sum(axis=1)
    n = int(row_sums[0])
    if not np.all(row_sums == n):
        raise DataError("every item must be rated by the same number of raters")
    if n < 2:
        raise DataError(f"at least 2 raters required, got {n}")

    # Integer accumulation keeps P_i and the marginals exact up to the
    # final divisions.
    sq = np.sum(counts.astype(np.int64) ** 2, axis=1)
    p_i = (sq - n) / (n * (n - 1))
    p_bar = float(np.sum(p_i) / n_items)
    col_sums = counts.sum(axis=0, dtype=np.int64)
    p_j = col_sums / (n_items * n)
    p_bar_e = float(np.sum(p_j**2))

    # S and T2 summed in Python ints, which cannot overflow, so kappa is
    # the exact ratio rounded once however large the table.
    S = sum(sq.tolist())
    T2 = sum(t * t for t in col_sums.tolist())
    kappa, degenerate = _kappa(S, T2, n_items, n)
    return KappaValue(kappa=kappa, p_bar=p_bar, p_bar_e=p_bar_e, degenerate=degenerate)


def fleiss_kappa(matrix: AnnotationMatrix) -> KappaValue:
    """Fleiss' kappa over all raters of an annotation matrix."""
    return kappa_from_counts(matrix.counts())
