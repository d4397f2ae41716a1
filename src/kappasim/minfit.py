"""Minimum-agreement modeling: closed-form model and staged regression.

The worst observed prefix agreement of a k-rater team behaves, as a
function of subset size n, like a saturating rational curve anchored at
-kappa_hat for n = 2 and approaching kappa_hat from below as n grows:

    f(n, k, kappa_hat) = 2*kappa_hat*(n - 2) / (k/10 + n - 2) - kappa_hat.

That closed form is the end point of a staged regression over the family

    g(n) = a*(n - d) / (b + n - d) + c,

where each stage freezes one more regressor at its empirically stable
value: S4 fits all of (a, b, c, d); S3 fixes d = 2; S2 additionally fixes
c = kappa_hat - a; S1 additionally fixes a = 2*kappa_hat; S0 fixes
b = k/10 and has no free regressors left, which makes it the closed form
above. Since g = (a + c) - a*b/(n + b - d), d enters only through b - d:
S4 spans exactly S3's curves, so every stage keeps d = 2 and S4 reports
d as free at that value. For a fixed b the curve is linear in a and c,
so the fitter solves those in closed form and searches b alone
(variable projection, Golub & Pereyra 1973).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, TextIO

import numpy as np

from kappasim.corpus import write_table
from kappasim.errors import DataError
from kappasim.mc import SubsetStats

MINIMA_HEADER = ("n", "min_kappa")

STAGES = ("S4", "S3", "S2", "S1", "S0")

FREE_BY_STAGE: dict[str, tuple[str, ...]] = {
    "S4": ("a", "b", "c", "d"),
    "S3": ("a", "b", "c"),
    "S2": ("a", "b"),
    "S1": ("b",),
    "S0": (),
}

_POLE_EPS = 1e-12
# the pole n = 2 - b stays 1e-9 outside [2, k]; the search over b runs over
# log|b - wall| in _LOG_SPAN on each side, refining a 101-point grid 50-fold
_WALL = 1e-9
_LOG_SPAN = (math.log(1e-12), math.log(1e9))
_GRID = 101
_REFINEMENTS = 8


@dataclass(frozen=True)
class MinPoints:
    """Per-subset-size minimum agreements, the regression's data.

    ``points`` holds (n, min kappa_n) pairs with strictly increasing n in
    2..k. When built by :func:`extract_minima` the point at n = k carries
    kappa_hat itself (the final column is constant); synthetic grids
    evaluated from the model do not satisfy that equality and are accepted
    as-is.
    """

    points: tuple[tuple[int, float], ...]
    k: int
    kappa_hat: float

    def __post_init__(self) -> None:
        if self.k < 3:
            raise DataError(f"team size must be >= 3, got {self.k}")
        if not self.points:
            raise DataError("no minimum points")
        ns = [n for n, _ in self.points]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise DataError("subset sizes must be strictly increasing")
        if ns[0] < 2 or ns[-1] > self.k:
            raise DataError("subset sizes must lie within 2..k")
        if not math.isfinite(self.kappa_hat):
            raise DataError(f"kappa_hat must be finite, got {self.kappa_hat}")
        if not all(math.isfinite(y) for _, y in self.points):
            raise DataError("minimum agreements must be finite")

    @property
    def ns(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.points)

    @property
    def ys(self) -> tuple[float, ...]:
        return tuple(y for _, y in self.points)


@dataclass(frozen=True)
class ModelFit:
    """Fitted regressors for one stage.

    ``free`` names the regressors the fit chose; the rest carry their
    stage-mandated values (S4's d is free but always 2, see the module
    docstring). ``converged`` is False when the best curve puts the pole
    on the edge of the data range (n = 2 or n = k) or sends |b| to the
    search's far end, about 1e9; (a, b, c, d) is still the best point
    found, not a failure sentinel. ``iterations`` counts the refinements
    of the search over b: 8 for a fitted stage, 0 for S0.
    """

    stage: str
    a: float
    b: float
    c: float
    d: float
    free: tuple[str, ...]
    r2: float
    converged: bool
    iterations: int


def _resolve(
    stage: str, a: float, b: float, c: float, d: float, kappa_hat: float, k: float
) -> tuple[float, float, float, float]:
    """Substitute stage-fixed regressor values, keeping free ones."""
    if stage not in FREE_BY_STAGE:
        raise DataError(f"unknown stage {stage!r}, expected one of {', '.join(STAGES)}")
    if stage != "S4":
        d = 2.0
    if stage in ("S1", "S0"):
        a = 2.0 * kappa_hat
    if stage in ("S2", "S1", "S0"):
        c = kappa_hat - a
    if stage == "S0":
        b = k / 10
    return float(a), float(b), float(c), float(d)


def _curve(n: np.ndarray, a: float, b: float, c: float, d: float) -> np.ndarray:
    """The model family g(n) = a*(n - d)/(b + n - d) + c."""
    return a * (n - d) / (b + n - d) + c


def stage_model(
    stage: str,
    n: float | np.ndarray,
    a: float,
    b: float,
    c: float,
    d: float,
    kappa_hat: float,
    k: float,
) -> float | np.ndarray:
    """Evaluate a*(n-d)/(b+n-d)+c with stage-fixed regressors substituted.

    Arguments in fixed slots are ignored and replaced by the stage's
    mandated values, so S0 depends on (n, k, kappa_hat) alone.
    """
    a, b, c, d = _resolve(stage, a, b, c, d, kappa_hat, k)
    n_arr = np.asarray(n, dtype=np.float64)
    denom = b + n_arr - d
    if np.any(np.abs(denom) < _POLE_EPS):
        raise DataError(f"model pole at evaluated subset size (b={b}, d={d})")
    value = _curve(n_arr, a, b, c, d)
    return float(value) if np.isscalar(n) or n_arr.ndim == 0 else value


def eval_min_model(n: float | np.ndarray, k: float, kappa_hat: float) -> float | np.ndarray:
    """The closed-form minimum-agreement prediction.

        f(n, k, kappa_hat) = 2*kappa_hat*(n - 2)/(k/10 + n - 2) - kappa_hat

    Worth reading off the formula: f(2, k, kappa_hat) = -kappa_hat exactly;
    f is strictly increasing in n for kappa_hat > 0 and approaches
    kappa_hat from below without reaching it (the k/10 term keeps the
    denominator ahead of the numerator); and f is linear in kappa_hat.
    """
    if k < 3:
        raise DataError(f"team size must be >= 3, got {k}")
    if not math.isfinite(kappa_hat):
        raise DataError(f"kappa_hat must be finite, got {kappa_hat}")
    n_arr = np.asarray(n, dtype=np.float64)
    if np.any(n_arr < 2) or np.any(n_arr > k):
        raise DataError(f"subset size must lie within 2..{k}")
    return stage_model("S0", n, math.nan, math.nan, math.nan, math.nan, kappa_hat, k)


def r_squared(observed: Sequence[float], predicted: Sequence[float]) -> float:
    """Coefficient of determination, 1 - SS_res/SS_tot."""
    obs = np.asarray(list(observed), dtype=np.float64)
    pred = np.asarray(list(predicted), dtype=np.float64)
    if obs.ndim != 1 or obs.shape != pred.shape:
        raise DataError("observed and predicted must be equal-length sequences")
    if obs.size == 0:
        raise DataError("empty sequences")
    ss_tot = float(np.sum((obs - obs.mean()) ** 2))
    if ss_tot == 0.0:
        raise DataError("zero total variance: observed values are all identical")
    ss_res = float(np.sum((obs - pred) ** 2))
    return 1.0 - ss_res / ss_tot


def extract_minima(
    stats: SubsetStats, kappa_hat: float, k: int, include_final: bool = True
) -> MinPoints:
    """Per-n minima from experiment summaries.

    The n = k minimum is pinned to kappa_hat (the column is constant by
    construction); ``include_final=False`` drops that point instead, for
    fits that should not be anchored by it. Only ``stats.ns`` and
    ``stats.mins`` are read.
    """
    if stats.ns != tuple(range(2, k + 1)):
        raise DataError(f"stats must cover subset sizes 2..{k}")
    points = [(n, float(stats.mins[j])) for j, n in enumerate(stats.ns)]
    if include_final:
        points[-1] = (k, float(kappa_hat))
    else:
        points.pop()
    return MinPoints(points=tuple(points), k=k, kappa_hat=float(kappa_hat))


def _profile(
    stage: str, x: np.ndarray, ys: np.ndarray, kappa_hat: float, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The stage's least-squares a and the SSE at each b of an array.

    With d = 2 and phi = x/(b + x), x = n - 2, the curve is a*phi + c. S4
    and S3 regress y - mean(y) on phi - mean(phi); the other stages have
    c = kappa_hat - a, so y - kappa_hat = a*(phi - 1), which S2 solves
    for a and S1 evaluates at its fixed a.
    """
    phi = x / (b[:, None] + x)
    if "c" in FREE_BY_STAGE[stage]:
        u, v = phi - phi.mean(axis=1, keepdims=True), ys - ys.mean()
    else:
        u, v = phi - 1.0, ys - kappa_hat
    if "a" in FREE_BY_STAGE[stage]:
        a = (u @ v) / np.einsum("ij,ij->i", u, u)
    else:
        a = np.full(len(b), _resolve(stage, 0.0, 0.0, 0.0, 0.0, kappa_hat, 0.0)[0])
    residuals = v - a[:, None] * u
    return a, np.einsum("ij,ij->i", residuals, residuals)


def fit(points: MinPoints, stage: str) -> ModelFit:
    """Least-squares fit of the stage's free regressors to minimum points.

    b is searched on each side of the data range, with the pole n = 2 - b
    below 2 (b > 1e-9) or above k (b < 2 - k - 1e-9), over log|b - wall|
    from ln 1e-12 to ln 1e9: a 101-point grid, refined 8 times around its
    argmin, 50-fold each time. At every b the free ones of a and c are
    solved in closed form (:func:`_profile`); the better side wins. See
    :class:`ModelFit` for what ``converged`` and ``iterations`` mean. A
    poor fit is reported, never raised, so sweeps over many seeds never abort.
    """
    free = FREE_BY_STAGE.get(stage, ())  # an unknown stage fails in _resolve below
    ns = np.asarray(points.ns, dtype=np.float64)
    ys = np.asarray(points.ys, dtype=np.float64)
    if len(ns) < len(free) + 1:
        raise DataError(f"stage {stage} needs at least {len(free) + 1} points, got {len(ns)}")
    kappa_hat, k, x = points.kappa_hat, float(points.k), ns - 2.0

    a = b = c = math.nan
    converged, iterations = True, 0
    if free:
        walls, signs = np.array([[_WALL], [2.0 - k - _WALL]]), np.array([[1.0], [-1.0]])
        lo, hi = _LOG_SPAN
        centre, half = np.full(2, (lo + hi) / 2), (hi - lo) / 2
        for iterations in range(_REFINEMENTS + 1):
            t = np.clip(centre[:, None] + np.linspace(-half, half, _GRID), lo, hi)
            bs = walls + signs * np.exp(t)
            sse = _profile(stage, x, ys, kappa_hat, bs.ravel())[1].reshape(bs.shape)
            best = sse.argmin(axis=1)
            centre, half = t[[0, 1], best], 2 * half / (_GRID - 1)
            if not iterations:
                on_edge = (best == 0) | (best == _GRID - 1)
        side = int(sse[[0, 1], best].argmin())
        b, converged = float(bs[side, best[side]]), not on_edge[side]
        a = float(_profile(stage, x, ys, kappa_hat, np.array([b]))[0][0])
        c = float(np.mean(ys - a * x / (b + x)))  # the least-squares c; S2 and S1 fix c
    a, b, c, d = _resolve(stage, a, b, c, 2.0, kappa_hat, k)  # DataError for an unknown stage
    r2 = r_squared(ys, _curve(ns, a, b, c, d))
    return ModelFit(stage, a, b, c, d, free, r2, bool(converged), iterations)


def format_fit_report(result: ModelFit) -> str:
    """Plain-text fit report, one ``key: value`` line each."""
    lines = [f"stage: {result.stage}"]
    for name in ("a", "b", "c", "d"):
        role = "free" if name in result.free else "fixed"
        lines.append(f"{name}: {getattr(result, name):.12g} ({role})")
    lines.append(f"r2: {result.r2:.12g}")
    lines.append(f"converged: {'true' if result.converged else 'false'}")
    lines.append(f"iterations: {result.iterations}")
    return "\n".join(lines) + "\n"


def fit_report_json(result: ModelFit) -> str:
    """JSON fit report with regressors tagged free/fixed."""
    payload: dict[str, object] = {"stage": result.stage}
    for name in ("a", "b", "c", "d"):
        payload[name] = {
            "value": getattr(result, name),
            "role": "free" if name in result.free else "fixed",
        }
    payload["r2"] = result.r2
    payload["converged"] = result.converged
    payload["iterations"] = result.iterations
    return json.dumps(payload, indent=2) + "\n"


def write_minima(points: MinPoints, dest: str | Path | TextIO | None) -> None:
    """Write the minima file: ``n,min_kappa``, one row per point."""
    write_table(dest, MINIMA_HEADER, ((n, f"{y:.6f}") for n, y in points.points))
