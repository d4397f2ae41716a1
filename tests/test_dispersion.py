import io
import math

import numpy as np
import pytest

from kappasim import (
    DataError,
    EMPIRICAL_RULE_PERCENT,
    ExperimentConfig,
    IntervalEstimate,
    VariationConfig,
    VariationTable,
    cv_percent,
    fleiss_kappa,
    interval_estimate,
    read_variation,
    run_experiment,
    run_variation,
    write_intervals,
    write_variation,
)
from conftest import matrix_from_codes


def column_moments(table):
    # same convention as the library: constant columns yield an exact
    # (value, 0.0) pair instead of going through mean/std
    mu, sigma = [], []
    for col in table.T:
        if col.min() == col.max():
            mu.append(col.min())
            sigma.append(0.0)
        else:
            mu.append(col.mean())
            sigma.append(col.std(ddof=1))
    return np.array(mu), np.array(sigma)


def team_sub_seed(seed: int, t: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=(t,)).generate_state(1, np.uint64)[0])


class TestVariationConfig:
    def test_defaults(self):
        cfg = VariationConfig()
        assert (cfg.k, cfg.m, cfg.j, cfg.seed) == (7, 100, 100, 0)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"k": 2}, "team size"),
            ({"m": 0}, "repetition count"),
            ({"j": 0}, "team count"),
            ({"seed": -1}, "seed"),
        ],
    )
    def test_validation(self, kwargs, message):
        with pytest.raises(DataError, match=message):
            VariationConfig(**kwargs)


class TestRunVariation:
    def test_single_team_fold_is_exact(self, twin_matrix):
        cfg = VariationConfig(k=5, m=25, j=1, seed=9)
        vt = run_variation(twin_matrix, cfg)
        replica = run_experiment(
            twin_matrix, ExperimentConfig(k=5, m=25, seed=team_sub_seed(9, 1))
        )
        mu, sigma = column_moments(replica.kappas)
        assert np.array_equal(vt.mu_bar, mu)
        assert np.array_equal(vt.sigma_bar, sigma)
        assert vt.team_kappa_hats == (replica.kappa_hat,)
        assert vt.mean_team_kappa_hat == replica.kappa_hat
        assert vt.dataset_kappa_hat == fleiss_kappa(twin_matrix).kappa

    def test_fold_matches_arithmetic_mean(self, twin_matrix):
        cfg = VariationConfig(k=4, m=10, j=3, seed=3)
        vt = run_variation(twin_matrix, cfg)
        mus, sigmas = [], []
        for t in (1, 2, 3):
            replica = run_experiment(
                twin_matrix, ExperimentConfig(k=4, m=10, seed=team_sub_seed(3, t))
            )
            mu_t, sigma_t = column_moments(replica.kappas)
            mus.append(mu_t)
            sigmas.append(sigma_t)
        assert vt.mu_bar == pytest.approx(np.mean(mus, axis=0), rel=1e-12)
        assert vt.sigma_bar == pytest.approx(np.mean(sigmas, axis=0), rel=1e-12)
        assert len(vt.team_kappa_hats) == 3

    def test_final_column_cv_is_exactly_zero(self, twin_matrix):
        vt = run_variation(twin_matrix, VariationConfig(k=5, m=8, j=6, seed=1))
        assert vt.sigma_bar[-1] == 0.0
        assert vt.cv[-1] == 0.0

    def test_deterministic(self, twin_matrix):
        cfg = VariationConfig(k=4, m=6, j=4, seed=21)
        first = run_variation(twin_matrix, cfg)
        second = run_variation(twin_matrix, cfg)
        assert np.array_equal(first.mu_bar, second.mu_bar)
        assert np.array_equal(first.sigma_bar, second.sigma_bar)
        assert np.array_equal(first.cv, second.cv)
        assert first.team_kappa_hats == second.team_kappa_hats

    def test_single_repetition_has_zero_spread(self, twin_matrix):
        vt = run_variation(twin_matrix, VariationConfig(k=5, m=1, j=2, seed=2))
        assert np.all(vt.sigma_bar == 0.0)
        defined = np.isfinite(vt.cv)
        assert np.all(vt.cv[defined] == 0.0)

    def test_cv_decreases_with_subset_size(self, twin_matrix):
        vt = run_variation(twin_matrix, VariationConfig())
        assert vt.ns == tuple(range(2, 8))
        assert np.all(np.isfinite(vt.cv))
        assert np.all(np.diff(vt.cv) < 0)
        assert vt.cv[-1] == 0.0

    def test_team_size_capped_by_matrix(self):
        small = matrix_from_codes([[0, 1], [1, 0], [0, 0]])
        with pytest.raises(DataError, match="exceeds"):
            run_variation(small, VariationConfig(k=7, m=2, j=1))


class TestVariationTable:
    def make(self, **overrides):
        fields = dict(
            k=3,
            ns=(2, 3),
            mu_bar=np.array([0.0, 0.5]),
            sigma_bar=np.array([0.1, 0.0]),
            cv=np.array([math.nan, 0.0]),
            team_kappa_hats=(0.5,),
            mean_team_kappa_hat=0.5,
            dataset_kappa_hat=0.5,
        )
        fields.update(overrides)
        return VariationTable(**fields)

    def test_defined_mask(self):
        vt = self.make()
        assert np.isfinite(vt.cv).tolist() == [False, True]

    def test_arrays_are_read_only(self):
        vt = self.make()
        with pytest.raises(ValueError):
            vt.mu_bar[0] = 1.0

    def test_ns_must_cover_range(self):
        with pytest.raises(DataError, match="2..k"):
            self.make(ns=(3,))

    def test_shape_mismatch(self):
        with pytest.raises(DataError, match="one value per subset size"):
            self.make(cv=np.array([0.1]))


class TestIntervalEstimate:
    def test_tabulated_example(self):
        est = interval_estimate(0.2193, 0.1909, 1)
        assert est.lower == pytest.approx(0.17743563, abs=1e-12)
        assert est.upper == pytest.approx(0.26116437, abs=1e-12)
        assert est.percent == 68.27

    def test_zero_cv_collapses_to_point(self):
        est = interval_estimate(0.2193, 0.0, 2)
        assert est.lower == 0.2193
        assert est.upper == 0.2193

    def test_large_cv_goes_negative_unclamped(self):
        est = interval_estimate(0.2193, 1.1868, 1)
        assert est.lower == pytest.approx(-0.04096524, abs=1e-12)
        assert est.lower < 0

    def test_symmetry_about_kappa_hat(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            kh = float(rng.uniform(-1, 1))
            cv = float(rng.uniform(0, 2))
            z = int(rng.integers(1, 4))
            est = interval_estimate(kh, cv, z)
            assert est.lower + est.upper == pytest.approx(2 * kh, rel=1e-12, abs=1e-15)

    def test_width_grows_with_z(self):
        widths = [
            interval_estimate(0.3, 0.2, z).upper - interval_estimate(0.3, 0.2, z).lower
            for z in (1, 2, 3)
        ]
        assert widths[0] < widths[1] < widths[2]

    def test_percent_table(self):
        assert EMPIRICAL_RULE_PERCENT == {1: 68.27, 2: 95.45, 3: 99.73}
        for z, pct in EMPIRICAL_RULE_PERCENT.items():
            assert interval_estimate(0.5, 0.1, z).percent == pct

    @pytest.mark.parametrize("z", [0, 4, -1])
    def test_invalid_z(self, z):
        with pytest.raises(DataError, match="z must be"):
            interval_estimate(0.5, 0.1, z)

    @pytest.mark.parametrize("cv", [-0.01, math.nan, math.inf])
    def test_invalid_cv(self, cv):
        with pytest.raises(DataError, match="cv must be"):
            interval_estimate(0.5, cv, 1)


class TestCvPercent:
    def test_values(self):
        assert cv_percent(0.1909) == 19.09
        assert cv_percent(0.0) == 0.0
        assert cv_percent(1.1868) == 118.68

    def test_rounding(self):
        assert cv_percent(0.123456) == 12.35

    @pytest.mark.parametrize("cv", [math.nan, math.inf])
    def test_undefined(self, cv):
        with pytest.raises(DataError, match="undefined"):
            cv_percent(cv)


class TestFiles:
    def table(self):
        return VariationTable(
            k=3,
            ns=(2, 3),
            mu_bar=np.array([0.0, 0.5]),
            sigma_bar=np.array([0.1, 0.0]),
            cv=np.array([math.nan, 0.0]),
            team_kappa_hats=(0.5,),
            mean_team_kappa_hat=0.5,
            dataset_kappa_hat=0.5,
        )

    def test_variation_roundtrip_with_nan(self, tmp_path):
        path = tmp_path / "variation.csv"
        write_variation(self.table(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,mu_bar,sigma_bar,cv,cv_percent"
        assert lines[1] == "2,0.000000,0.100000,nan,nan"
        assert lines[2] == "3,0.500000,0.000000,0.000000,0.00"
        rows = read_variation(path)
        assert rows[1] == (3, 0.5, 0.0, 0.0)
        assert math.isnan(rows[0][3])

    def test_variation_bad_header(self, tmp_path):
        path = tmp_path / "variation.csv"
        path.write_text("n,mean\n2,0.1\n", encoding="utf-8")
        with pytest.raises(DataError, match="expected header"):
            read_variation(path)

    def test_variation_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_variation(tmp_path / "nope.csv")

    def test_intervals_format(self):
        rows = [
            (7, interval_estimate(0.2193, 0.1909, 1)),
            (7, interval_estimate(0.2193, 0.1909, 2)),
        ]
        buffer = io.StringIO()
        write_intervals(rows, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "n,level,lower,upper"
        assert lines[1] == "7,68.27,0.177436,0.261164"
        assert lines[2].startswith("7,95.45,")

    def test_interval_estimate_is_plain_record(self):
        est = IntervalEstimate(z=1, percent=68.27, lower=0.1, upper=0.3)
        assert (est.z, est.percent, est.lower, est.upper) == (1, 68.27, 0.1, 0.3)
