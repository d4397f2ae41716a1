import json
import math

import numpy as np
import pytest

from kappasim import (
    DataError,
    MinPoints,
    eval_min_model,
    extract_minima,
    fit,
    fit_report_json,
    format_fit_report,
    r_squared,
    stage_model,
    summarize_table,
    write_minima,
)
from kappasim.corpus import read_columns
from kappasim.minfit import MINIMA_HEADER


def model_points(k: int, kappa_hat: float) -> MinPoints:
    pts = tuple((n, float(eval_min_model(n, k, kappa_hat))) for n in range(2, k + 1))
    return MinPoints(points=pts, k=k, kappa_hat=kappa_hat)


class TestEvalMinModel:
    def test_anchor_at_two(self):
        for k in (3, 7, 45):
            for kh in (0.2193, 0.5, -0.3, 1.0):
                assert eval_min_model(2, k, kh) == -kh

    def test_arithmetic_substitutions(self):
        # 2*0.2193*43/(4.5+43) - 0.2193 and 2*0.2193*3/(0.7+3) - 0.2193,
        # reference values from exact rational evaluation
        assert eval_min_model(45, 45, 0.2193) == pytest.approx(
            0.177748421052631578, abs=1e-12
        )
        assert eval_min_model(5, 7, 0.2193) == pytest.approx(0.136321621621621621, abs=1e-12)

    def test_strictly_increasing_in_n(self):
        for k in (5, 17, 45):
            values = eval_min_model(np.arange(2, k + 1), k, 0.37)
            assert np.all(np.diff(values) > 0)

    def test_bounded_below_kappa_hat(self):
        for k in (3, 12, 45):
            values = eval_min_model(np.arange(2, k + 1), k, 0.8)
            assert np.all(values < 0.8)

    def test_linear_in_kappa_hat(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            k = int(rng.integers(3, 60))
            kh = float(rng.uniform(-1, 1))
            t = float(rng.uniform(-3, 3))
            n = int(rng.integers(2, k + 1))
            assert eval_min_model(n, k, t * kh) == pytest.approx(
                t * eval_min_model(n, k, kh), rel=1e-12, abs=1e-15
            )

    def test_scalar_and_array_forms_agree(self):
        arr = eval_min_model(np.array([2, 5, 7]), 7, 0.4)
        assert isinstance(arr, np.ndarray)
        assert arr[1] == eval_min_model(5, 7, 0.4)

    @pytest.mark.parametrize("n,k", [(1, 7), (8, 7), (3, 2)])
    def test_domain_guard(self, n, k):
        with pytest.raises(DataError):
            eval_min_model(n, k, 0.3)


class TestStageModel:
    def test_s0_equals_closed_form(self):
        for k, kh in ((7, 0.22), (45, 0.2193)):
            for n in range(2, k + 1):
                assert stage_model("S0", n, 9.0, 9.0, 9.0, 9.0, kh, k) == eval_min_model(
                    n, k, kh
                )

    def test_s4_with_collapsed_regressors(self):
        got = stage_model("S4", 45, a=0.4386, b=4.5, c=-0.2193, d=2.0, kappa_hat=0.0, k=45)
        assert got == pytest.approx(0.177748421052631578, abs=1e-12)

    def test_s4_zero_amplitude_is_constant(self):
        for n in (2, 5, 11):
            assert stage_model("S4", n, a=0.0, b=3.0, c=0.7, d=2.0, kappa_hat=0.0, k=11) == 0.7

    def test_pole_raises(self):
        with pytest.raises(DataError, match="pole"):
            stage_model("S4", 5, a=1.0, b=0.0, c=0.0, d=5.0, kappa_hat=0.0, k=9)

    def test_unknown_stage(self):
        with pytest.raises(DataError, match="unknown stage"):
            stage_model("S9", 3, 1.0, 1.0, 0.0, 2.0, 0.2, 5)

    def test_fixed_slots_are_overridden(self):
        # whatever is passed for d, stages below S4 use d = 2
        a = stage_model("S3", 6, a=0.4, b=1.0, c=-0.2, d=99.0, kappa_hat=0.2, k=7)
        b = stage_model("S4", 6, a=0.4, b=1.0, c=-0.2, d=2.0, kappa_hat=0.2, k=7)
        assert a == b


class TestRSquared:
    def test_perfect_fit(self):
        assert r_squared([1.0, 2.0, 5.0], [1.0, 2.0, 5.0]) == 1.0

    def test_mean_predictor_scores_zero(self):
        obs = [1.0, 2.0, 3.0, 6.0]
        mean = sum(obs) / len(obs)
        assert r_squared(obs, [mean] * 4) == 0.0

    def test_hand_value(self):
        assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) == pytest.approx(0.5, abs=1e-15)

    def test_permutation_invariant(self):
        obs = [0.3, -0.1, 0.7, 0.2, 0.9]
        pred = [0.25, 0.0, 0.6, 0.1, 1.0]
        base = r_squared(obs, pred)
        order = [4, 2, 0, 3, 1]
        assert r_squared([obs[i] for i in order], [pred[i] for i in order]) == pytest.approx(
            base, rel=1e-12
        )

    def test_errors(self):
        with pytest.raises(DataError, match="zero total variance"):
            r_squared([2.0, 2.0], [1.0, 2.0])
        with pytest.raises(DataError, match="equal-length"):
            r_squared([1.0], [1.0, 2.0])
        with pytest.raises(DataError, match="empty"):
            r_squared([], [])


class TestMinPoints:
    def test_validation(self):
        with pytest.raises(DataError, match="strictly increasing"):
            MinPoints(points=((3, 0.1), (3, 0.2)), k=5, kappa_hat=0.3)
        with pytest.raises(DataError, match="within 2"):
            MinPoints(points=((1, 0.1),), k=5, kappa_hat=0.3)
        with pytest.raises(DataError, match="within 2"):
            MinPoints(points=((6, 0.1),), k=5, kappa_hat=0.3)
        with pytest.raises(DataError, match="no minimum points"):
            MinPoints(points=(), k=5, kappa_hat=0.3)

    def test_accessors(self):
        mp = MinPoints(points=((2, -0.3), (3, 0.0), (5, 0.25)), k=5, kappa_hat=0.3)
        assert mp.ns == (2, 3, 5)
        assert mp.ys == (-0.3, 0.0, 0.25)


class TestExtractMinima:
    def test_pins_final_point(self):
        table = np.array([[0.10, 0.20, 0.50], [0.05, 0.30, 0.50]])
        stats = summarize_table((2, 3, 4), table)
        mp = extract_minima(stats, kappa_hat=0.5, k=4)
        assert mp.points == ((2, 0.05), (3, 0.20), (4, 0.5))

    def test_drop_final(self):
        table = np.array([[0.10, 0.20, 0.50], [0.05, 0.30, 0.50]])
        stats = summarize_table((2, 3, 4), table)
        mp = extract_minima(stats, kappa_hat=0.5, k=4, include_final=False)
        assert mp.points == ((2, 0.05), (3, 0.20))

    def test_constant_stats(self):
        table = np.full((3, 3), 0.42)
        stats = summarize_table((2, 3, 4), table)
        mp = extract_minima(stats, kappa_hat=0.42, k=4)
        assert all(y == 0.42 for _, y in mp.points)

    def test_single_run_minima_are_that_run(self):
        progression = np.array([[-0.1, 0.1, 0.3, 0.42]])
        stats = summarize_table((2, 3, 4, 5), progression)
        mp = extract_minima(stats, kappa_hat=0.42, k=5)
        assert mp.ys == (-0.1, 0.1, 0.3, 0.42)

    def test_requires_full_coverage(self):
        stats = summarize_table((2, 3), np.array([[0.1, 0.2]]))
        with pytest.raises(DataError, match="2..4"):
            extract_minima(stats, kappa_hat=0.2, k=4)


class TestFit:
    def test_s1_recovers_b(self):
        result = fit(model_points(45, 0.2193), "S1")
        assert result.converged
        assert result.free == ("b",)
        assert result.b == pytest.approx(4.5, abs=1e-6)
        assert result.a == 2 * 0.2193 and result.c == -0.2193 and result.d == 2.0
        assert result.r2 >= 1 - 1e-9

    def test_s2_recovers_a_and_b(self):
        result = fit(model_points(20, 0.3), "S2")
        assert result.converged
        assert result.a == pytest.approx(0.6, abs=1e-4)
        assert result.b == pytest.approx(2.0, abs=1e-3)
        assert result.c == pytest.approx(0.3 - result.a, rel=1e-15)
        assert result.r2 >= 1 - 1e-9

    def test_s3_recovers_a_b_c(self):
        result = fit(model_points(20, 0.3), "S3")
        assert result.converged
        assert result.a == pytest.approx(0.6, abs=1e-4)
        assert result.b == pytest.approx(2.0, abs=1e-3)
        assert result.c == pytest.approx(-0.3, abs=1e-4)
        assert result.d == 2.0
        assert result.r2 >= 1 - 1e-9

    def test_s4_reproduces_values_even_if_parameters_trade_off(self):
        # a(n-d)/(b+n-d)+c collapses to three effective constants, so S4's
        # four regressors are not identifiable; only the curve is testable.
        points = model_points(12, 0.4)
        result = fit(points, "S4")
        assert result.r2 >= 1 - 1e-9
        predictions = [
            stage_model("S4", n, result.a, result.b, result.c, result.d, 0.4, 12)
            for n in points.ns
        ]
        assert predictions == pytest.approx(list(points.ys), abs=1e-6)

    def test_s0_has_no_free_regressors(self):
        result = fit(model_points(7, 0.22), "S0")
        assert result.free == ()
        assert result.iterations == 0
        assert result.converged
        assert result.r2 == pytest.approx(1.0, abs=1e-12)

    def test_needs_enough_points(self):
        mp = MinPoints(points=((2, -0.3), (7, 0.2)), k=7, kappa_hat=0.3)
        with pytest.raises(DataError, match="at least"):
            fit(mp, "S3")

    def test_noisy_fits_never_raise(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            k = int(rng.integers(6, 30))
            kh = float(rng.uniform(0.1, 0.6))
            ys = eval_min_model(np.arange(2, k + 1), k, kh) + rng.normal(0, 0.05, k - 1)
            mp = MinPoints(
                points=tuple((n, float(y)) for n, y in zip(range(2, k + 1), ys)),
                k=k,
                kappa_hat=kh,
            )
            for stage in ("S4", "S3", "S2", "S1", "S0"):
                result = fit(mp, stage)
                assert result.r2 <= 1.0
                assert math.isfinite(result.r2)
                assert result.iterations <= 200

    def test_unknown_stage(self):
        with pytest.raises(DataError, match="unknown stage"):
            fit(model_points(7, 0.22), "S5")

    @pytest.mark.parametrize("stage", ["S3", "S4"])
    @pytest.mark.parametrize("k, gap", [(12, 0.5), (20, 3.0), (45, 30.0)])
    def test_pole_above_k_is_recovered(self, stage, k, gap):
        # b = 2 - k - gap puts the pole n = 2 - b above the data range
        a, b, c = 0.6, 2.0 - k - gap, -0.3
        ns = range(2, k + 1)
        pts = tuple((n, a * (n - 2) / (b + n - 2) + c) for n in ns)
        result = fit(MinPoints(points=pts, k=k, kappa_hat=0.3), stage)
        assert result.converged
        assert (result.a, result.b, result.c) == pytest.approx((a, b, c), abs=1e-6)
        assert result.d == 2.0
        assert result.r2 >= 1 - 1e-9


class TestReportsAndFiles:
    def test_text_report(self):
        result = fit(model_points(45, 0.2193), "S1")
        report = format_fit_report(result)
        lines = dict(
            line.split(": ", 1) for line in report.strip().splitlines()
        )
        assert lines["stage"] == "S1"
        assert lines["a"] == "0.4386 (fixed)"
        assert lines["b"].endswith("(free)")
        assert float(lines["b"].split()[0]) == pytest.approx(4.5, abs=1e-6)
        assert lines["converged"] == "true"
        assert int(lines["iterations"]) >= 1

    def test_json_report(self):
        result = fit(model_points(45, 0.2193), "S2")
        payload = json.loads(fit_report_json(result))
        assert payload["stage"] == "S2"
        assert payload["a"]["role"] == "free"
        assert payload["d"] == {"value": 2.0, "role": "fixed"}
        assert payload["r2"] >= 1 - 1e-9
        assert payload["converged"] is True

    def test_minima_roundtrip(self, tmp_path):
        mp = model_points(6, 0.31)
        path = tmp_path / "minima.csv"
        write_minima(mp, path)
        assert path.read_text().splitlines()[0] == "n,min_kappa"
        ns, ys = read_columns(path, MINIMA_HEADER, "minima", ("int", "float"))
        assert ns.tolist() == list(mp.ns)
        assert ys.tolist() == pytest.approx(list(mp.ys), abs=5e-7)
