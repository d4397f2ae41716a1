"""The staged fitter: its closed-form Jacobian and its results.

The Jacobian is checked against a central difference of the public
``stage_model``, whose stage substitution does not go through the chain
matrix. The pinned r-squared table holds what the earlier
finite-difference fitter reached on a fixed grid; the exact Jacobian may
do better there, never worse.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappasim import MinPoints, eval_min_model, fit, stage_model
from kappasim.minfit import FREE_BY_STAGE, _jacobian, _resolve, _stage_map

FITTED = ("S4", "S3", "S2", "S1")


def noisy_points(k: int, kappa_hat: float, noise: float, rng) -> MinPoints:
    ns = np.arange(2, k + 1)
    ys = eval_min_model(ns, k, kappa_hat) + rng.normal(0.0, noise, k - 1)
    return MinPoints(tuple(zip(ns.tolist(), ys.tolist())), k, kappa_hat)


def model_at(stage, ns, theta, kappa_hat, k):
    values = dict(zip(FREE_BY_STAGE[stage], theta))
    slots = [values.get(name, math.nan) for name in "abcd"]
    return stage_model(stage, ns, *slots, kappa_hat, k)


@settings(max_examples=100, deadline=None)
@given(
    stage=st.sampled_from(FITTED),
    k=st.integers(3, 60),
    kappa_hat=st.floats(-0.5, 1.0),
    a=st.floats(-3.0, 3.0),
    c=st.floats(-2.0, 2.0),
    d=st.floats(-5.0, 5.0),
    gap=st.floats(0.5, 40.0),
    pole_above=st.booleans(),
)
def test_jacobian_matches_central_difference(stage, k, kappa_hat, a, c, d, gap, pole_above):
    # b puts the pole d - b at least ``gap`` below 2 or above k, so every
    # probe stays on one side of it
    pole_d = d if stage == "S4" else 2.0
    b = pole_d - (k + gap if pole_above else 2.0 - gap)
    theta = np.array([{"a": a, "b": b, "c": c, "d": d}[n] for n in FREE_BY_STAGE[stage]])
    a, b, _, d = _resolve(stage, a, b, c, d, kappa_hat, k)
    ns = np.arange(2.0, k + 1)
    jac = _jacobian(ns, _stage_map(stage), a, b, d)
    assert jac.shape == (len(ns), len(theta))
    for i in range(len(theta)):
        step = np.zeros_like(theta)
        step[i] = 1e-6 * max(1.0, abs(theta[i]))
        up = model_at(stage, ns, theta + step, kappa_hat, k)
        down = model_at(stage, ns, theta - step, kappa_hat, k)
        np.testing.assert_allclose(jac[:, i], (up - down) / (2 * step[i]), rtol=1e-6, atol=1e-8)


@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(6, 60),
    kappa_milli=st.integers(-300, 950),
    noise_milli=st.integers(0, 200),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_never_raises(k, kappa_milli, noise_milli, seed):
    # kappa_hat = 0 without noise would be constant data, whose r2 is undefined
    kappa_hat, noise = kappa_milli / 1000, noise_milli / 1000
    if kappa_hat == 0 and noise == 0:
        noise = 0.001
    points = noisy_points(k, kappa_hat, noise, np.random.default_rng(seed))
    for stage in (*FITTED, "S0"):
        result = fit(points, stage)
        assert math.isfinite(result.r2) and result.r2 <= 1.0
        assert result.iterations <= 200


def pinned_grid():
    rng = np.random.default_rng(20251018)
    for _ in range(20):
        k = int(rng.integers(6, 60))
        kappa_hat = float(rng.uniform(0.05, 0.9))
        noise = float(rng.uniform(0.0, 0.03))
        yield noisy_points(k, kappa_hat, noise, rng)


# r2 of S4, S3, S2, S1 per grid point from the finite-difference fitter
# (forward differences, step 1e-6*max(1, |theta|)) that preceded the
# closed-form Jacobian
FD_FITTER_R2 = (
    (0.9988857748577932, 0.9988857748577932, 0.9987611566996794, 0.9987304481054056),
    (0.9991867142138345, 0.9991867142138345, 0.9991685111416672, 0.9991053580251829),
    (0.9912960999046974, 0.9912960999046974, 0.9912396159726614, 0.9908163935811918),
    (0.9948221107965582, 0.9948221107965582, 0.994673141103489, 0.9946594525055047),
    (0.9970541021542774, 0.9970541021542774, 0.996622039977082, 0.9964780186885531),
    (0.9629306448077528, 0.9629306448077526, 0.9616915398548362, 0.960412784881198),
    (0.9624141067966775, 0.9624141067966775, 0.9619127355957596, 0.9592852349061826),
    (0.9977293373301721, 0.9977293373301721, 0.9957850293244088, 0.9957789131250191),
    (0.99406494039843, 0.99406494039843, 0.9912619767653944, 0.9912514783490238),
    (0.9957367394499336, 0.9957367394499336, 0.9953713982454104, 0.9952630987177001),
    (0.9180745042526666, 0.9180745042526666, 0.9141271942139594, 0.9123895008111877),
    (0.9130901007608916, 0.9130901007608916, 0.9086849158307677, 0.9086565535720486),
    (0.9888740475693565, 0.9888740475693565, 0.9888737686072857, 0.9886039555870106),
    (0.9999001522449461, 0.9999001522449461, 0.9998999785015378, 0.9998992098973958),
    (0.8861212960772034, 0.8861212960772034, 0.8860294726948699, 0.8857396194446651),
    (0.9918725449051122, 0.9918725449051122, 0.9917581323452159, 0.9915882520215564),
    (0.9986847688000071, 0.9986847688000071, 0.9986598744397367, 0.998656086924814),
    (0.9963675261701671, 0.9963675261701671, 0.9961972492267781, 0.9961423335369585),
    (0.9270325425207484, 0.9270325425207484, 0.921691459063447, 0.9216895513374301),
    (0.8368415690120228, 0.8368415690120234, 0.8367393512008918, 0.8351364813556339),
)


@pytest.mark.parametrize("points, r2_before", zip(pinned_grid(), FD_FITTER_R2))
def test_r2_no_worse_than_finite_difference_fitter(points, r2_before):
    for stage, before in zip(FITTED, r2_before):
        result = fit(points, stage)
        assert result.converged
        assert result.r2 >= before - 1e-9 * max(1.0, abs(before)), stage
