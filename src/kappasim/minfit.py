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
above. The fitter is a damped least-squares loop (Levenberg-Marquardt
flavor) on the exact Jacobian: with q = b + n - d, dg/da = (n - d)/q,
dg/db = -a(n - d)/q**2, dg/dc = 1 and dg/dd = -ab/q**2, chained through
the stage's constant matrix d(a, b, c, d)/d(free regressors).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, TextIO

import numpy as np

from kappasim.corpus import read_columns, write_table
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

_MAX_ITERATIONS = 200
_SSE_RTOL = 1e-12
_POLE_EPS = 1e-12


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

    ``free`` names the regressors the optimizer moved; the rest carry
    their stage-mandated values. ``converged`` is False when the
    iteration cap was hit, in which case (a, b, c, d) is the best point
    seen, not a failure sentinel.
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


def _stage_map(stage: str) -> np.ndarray:
    """d(a, b, c, d)/d(free regressors), read off :func:`_resolve`: it is
    affine with 0/+-1 coefficients, so at kappa_hat = k = 0 column i is
    exactly _resolve(e_i) - _resolve(0). The matrix times theta puts each
    free value in its own slot, which is all :func:`_resolve` needs."""
    origin = _resolve(stage, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    units = np.eye(4)[["abcd".index(name) for name in FREE_BY_STAGE[stage]]]
    columns = [np.subtract(_resolve(stage, *unit, 0.0, 0.0), origin) for unit in units]
    return np.reshape(columns, (len(units), 4)).T


def _jacobian(ns: np.ndarray, chain: np.ndarray, a: float, b: float, d: float) -> np.ndarray:
    """d g(ns)/d theta: g's partials in (a, b, c, d) at the given values
    (dg/dc = 1 whatever c is) times ``chain``, the stage map."""
    x = ns - d
    q = b + x
    return np.column_stack((x / q, -a * x / q**2, np.ones_like(ns), -a * b / q**2)) @ chain


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
    fits that should not be anchored by it.
    """
    if stats.ns != tuple(range(2, k + 1)):
        raise DataError(f"stats must cover subset sizes 2..{k}")
    points = [(n, float(stats.mins[j])) for j, n in enumerate(stats.ns)]
    if include_final:
        points[-1] = (k, float(kappa_hat))
    else:
        points.pop()
    return MinPoints(points=tuple(points), k=k, kappa_hat=float(kappa_hat))


def fit(points: MinPoints, stage: str) -> ModelFit:
    """Least-squares fit of the stage's free regressors to minimum points.

    Damped Gauss-Newton iteration: solve (J'J + lam*diag(J'J)) step = J'r,
    J being the curve's partials in (a, b, c, d) times the stage's chain
    matrix d(a, b, c, d)/d(free), multiplying lam by 10 on a rejected step
    and halving it on an accepted one. Steps that would put the model's
    pole n = d - b inside [2, k] are rejected outright; the model family
    is only meaningful with the pole outside the data range. Convergence
    is declared when an accepted step changes the SSE by less than a
    factor of 1e-12; hitting the iteration cap (200) returns the best
    parameters found with converged=False rather than raising, so sweeps
    over many seeds never abort.

    The initial guess reads the data: d0 = 2, c0 = y at the
    smallest n (the model value at n = 2 is exactly c when d = 2),
    a0 = y at the largest n minus c0, b0 = k/10.
    """
    chain = _stage_map(stage)  # raises DataError for an unknown stage
    free = FREE_BY_STAGE[stage]
    ns = np.asarray(points.ns, dtype=np.float64)
    ys = np.asarray(points.ys, dtype=np.float64)
    if len(ns) < len(free) + 1:
        raise DataError(f"stage {stage} needs at least {len(free) + 1} points, got {len(ns)}")
    kappa_hat, k = points.kappa_hat, float(points.k)

    def full_params(theta: np.ndarray) -> tuple[float, float, float, float]:
        return _resolve(stage, *(chain @ theta), kappa_hat, k)

    def admissible(theta: np.ndarray) -> bool:
        if not np.all(np.isfinite(theta)):
            return False
        _, b, _, d = full_params(theta)
        pole = d - b
        if 2.0 - 1e-9 <= pole <= k + 1e-9:
            return False
        return not np.any(np.abs(b + ns - d) < _POLE_EPS)

    def predict(theta: np.ndarray) -> np.ndarray:
        return _curve(ns, *full_params(theta))

    def sse_of(theta: np.ndarray) -> tuple[float, np.ndarray]:
        residuals = ys - predict(theta)
        return float(residuals @ residuals), residuals

    guess = {"d": 2.0, "c": float(ys[0]), "b": k / 10}
    guess["a"] = float(ys[-1]) - guess["c"]
    theta = np.array([guess[name] for name in free], dtype=np.float64)
    if not admissible(theta):
        raise DataError("initial guess places the model pole inside the data range")

    sse, residuals = sse_of(theta)
    lam = 1e-3
    converged = not free  # S0 has nothing to fit: no iterations
    iterations = 0

    while iterations < _MAX_ITERATIONS and not converged:
        iterations += 1
        a, b, _, d = full_params(theta)
        jacobian = _jacobian(ns, chain, a, b, d)
        jtj = jacobian.T @ jacobian
        jtr = jacobian.T @ residuals
        damping = np.maximum(np.diag(jtj), _POLE_EPS)
        try:
            delta = np.linalg.solve(jtj + lam * np.diag(damping), jtr)
        except np.linalg.LinAlgError:
            lam = min(lam * 10.0, 1e12)
            continue
        candidate = theta + delta
        if not admissible(candidate):
            lam = min(lam * 10.0, 1e12)
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            new_sse, new_residuals = sse_of(candidate)
        # An inf or nan SSE fails both tests below, so its step is rejected.
        # The relative-change test also fires on a stalled (rejected) step:
        # at the noise floor every trial step leaves the SSE essentially
        # unchanged, which is convergence, not failure.
        stalled = abs(sse - new_sse) <= _SSE_RTOL * max(sse, 1e-300)
        if new_sse < sse:
            theta, sse, residuals = candidate, new_sse, new_residuals
            lam = max(lam * 0.5, 1e-12)
        else:
            lam = min(lam * 10.0, 1e12)
        if sse == 0.0 or stalled:
            converged = True

    a, b, c, d = full_params(theta)
    r2 = r_squared(ys, predict(theta))
    return ModelFit(stage, a, b, c, d, free, r2, converged, iterations)


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


def read_minima(path: str | Path) -> tuple[tuple[int, float], ...]:
    """Read a minima file back as (n, min kappa) pairs."""
    ns, ys = read_columns(path, MINIMA_HEADER, "minima", ("int", "float"))
    return tuple(zip(ns.tolist(), ys.tolist()))
