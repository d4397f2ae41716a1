"""Acceptance sweep: one check per shipped claim, one printed line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines. Checks 1-5 need the survey dataset locally; point
KAPPASIM_RAW (plus KAPPASIM_MAPPING if your column layout differs from the
packaged template) or KAPPASIM_MATRIX at the files, or drop them into
tests/data/ as raw.csv / matrix.csv. Without the dataset those checks are
skipped, not failed. Checks 6-10 are dataset-free and always run.
"""

import io
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from kappasim import (
    ExperimentConfig,
    MinPoints,
    VariationConfig,
    eval_min_model,
    extract_minima,
    fit,
    fleiss_kappa,
    generate_synthetic,
    kappa_from_counts,
    load_mapping,
    load_raw,
    preprocess,
    read_matrix,
    run_experiment,
    run_variation,
    sample_team,
    summarize,
    write_variation,
)
from kappasim.cli import main
from kappasim.mc import column_moments

from conftest import kappa_fraction, matrix_from_codes, ordering_kappas, random_counts

DATA_DIR = Path(__file__).parent / "data"

DATASET_HINT = (
    "survey dataset not found; set KAPPASIM_MATRIX or KAPPASIM_RAW, or place "
    "matrix.csv / raw.csv under tests/data/ (fetch instructions in README.md)"
)


@contextmanager
def criterion(label: str):
    try:
        yield
    except pytest.skip.Exception:
        print(f"[acceptance] {label}: SKIP")
        raise
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


def _resolve(env_name: str, fallback: str) -> Path | None:
    env = os.environ.get(env_name)
    if env:
        path = Path(env)
        if not path.exists():
            pytest.fail(f"{env_name} points at a missing file: {path}")
        return path
    path = DATA_DIR / fallback
    return path if path.exists() else None


def _mapping_path() -> Path:
    path = _resolve("KAPPASIM_MAPPING", "mapping.cfg")
    if path is not None:
        return path
    import kappasim.corpus as corpus_module

    return Path(corpus_module.__file__).parent / "data" / "zenodo_mapping.cfg"


_matrix_cache: list = []


def real_matrix():
    if _matrix_cache:
        return _matrix_cache[0]
    path = _resolve("KAPPASIM_MATRIX", "matrix.csv")
    if path is not None:
        matrix = read_matrix(path)
    else:
        raw = _resolve("KAPPASIM_RAW", "raw.csv")
        if raw is None:
            pytest.skip(DATASET_HINT)
        matrix, _ = preprocess(load_raw(raw, load_mapping(_mapping_path())))
    _matrix_cache.append(matrix)
    return matrix


def test_c01_preprocessing_counts(tmp_path, capsys):
    with criterion("C1 preprocessing filter counts"):
        raw = _resolve("KAPPASIM_RAW", "raw.csv")
        if raw is None:
            pytest.skip(DATASET_HINT)
        report = tmp_path / "report.csv"
        start = time.perf_counter()
        code = main(
            ["preprocess", "--raw", str(raw), "--mapping", str(_mapping_path()),
             "--out", str(tmp_path / "matrix.csv"), "--report", str(report)]
        )
        elapsed = time.perf_counter() - start
        assert code == 0
        assert report.read_text().splitlines()[1] == "180,17,118,45"
        assert elapsed < 1.0


def test_c02_whole_group_agreement():
    with criterion("C2 whole-group agreement level"):
        matrix = real_matrix()
        start = time.perf_counter()
        value = fleiss_kappa(matrix)
        elapsed = time.perf_counter() - start
        print(f"[acceptance] C2 info: kappa = {value.kappa!r}")
        assert (len(matrix.raters), len(matrix.items)) == (45, 100)
        assert abs(value.kappa - 0.2193) <= 0.01
        assert elapsed < 1.0


def test_c03_prefix_distribution_shape():
    with criterion("C3 prefix-agreement distribution shape"):
        matrix = real_matrix()
        start = time.perf_counter()
        run_set = run_experiment(matrix, ExperimentConfig(k=45, m=1000, seed=42))
        stats = summarize(run_set)
        elapsed = time.perf_counter() - start

        table = run_set.kappas
        assert np.all(table[:, -1] == run_set.kappa_hat)

        iqr_steps = np.diff(stats.q3s - stats.q1s)
        violations = iqr_steps[iqr_steps > 0]
        assert len(violations) <= 3
        assert np.all(violations < 0.005)

        ns = np.array(stats.ns)
        centered = np.abs(stats.medians - run_set.kappa_hat)
        assert np.all(centered[ns >= 5] <= 0.05)
        assert elapsed < 30.0


def test_c04_min_model_fit_quality():
    with criterion("C4 minimum-model fit quality"):
        matrix = real_matrix()
        start = time.perf_counter()
        good = 0
        for seed in range(20):
            run_set = run_experiment(matrix, ExperimentConfig(k=45, m=1000, seed=seed))
            points = extract_minima(summarize(run_set), run_set.kappa_hat, 45)
            if fit(points, "S0").r2 >= 0.9:
                good += 1
        elapsed = time.perf_counter() - start
        print(f"[acceptance] C4 info: {good}/20 seeds with r2 >= 0.9")
        assert good >= 16
        assert elapsed < 600.0


def test_c05_cross_team_cv_table():
    with criterion("C5 cross-team cv table"):
        matrix = real_matrix()
        start = time.perf_counter()
        tables = [
            run_variation(matrix, VariationConfig(k=7, m=100, j=100, seed=seed))
            for seed in range(10)
        ]
        elapsed = time.perf_counter() - start
        median_cv = np.median(np.vstack([t.cv for t in tables]), axis=0)
        print(f"[acceptance] C5 info: median cv = {np.round(median_cv, 4).tolist()}")
        # index order is n = 2..7
        assert median_cv[5] == 0.0
        assert abs(median_cv[4] - 0.1909) <= 0.05
        assert abs(median_cv[3] - 0.3050) <= 0.08
        assert abs(median_cv[2] - 0.4429) <= 0.10
        assert abs(median_cv[1] - 0.6549) <= 0.15
        assert abs(median_cv[0] - 1.1868) <= 0.30
        assert np.all(np.diff(median_cv) < 0)
        assert elapsed < 120.0


def test_c06_exact_rational_oracle():
    with criterion("C6 agreement exact-rational oracle"):
        start = time.perf_counter()
        rng = np.random.default_rng(2026)
        for _ in range(1000):
            counts = random_counts(rng)
            value = kappa_from_counts(counts)
            expected, degenerate = kappa_fraction(counts)
            assert abs(value.kappa - float(expected)) <= 1e-12
            assert value.degenerate == degenerate

        hand = kappa_from_counts(np.array([[2, 0], [1, 1]]))
        assert abs(hand.kappa - (-1 / 3)) <= 1e-12

        unanimous = fleiss_kappa(matrix_from_codes([[0, 1, 2], [0, 1, 2]]))
        assert unanimous.kappa == 1.0 and not unanimous.degenerate
        one_category = fleiss_kappa(matrix_from_codes([[0, 0], [0, 0]]))
        assert one_category.kappa == 1.0 and one_category.degenerate
        assert time.perf_counter() - start < 10.0


def test_c07_staged_regressor_recovery():
    with criterion("C7 staged regressor recovery"):
        start = time.perf_counter()
        for k, kappa_hat in ((7, 0.22), (20, 0.3), (45, 0.2193)):
            curve = eval_min_model(np.arange(2, k + 1), k, kappa_hat)
            points = MinPoints(
                points=tuple(zip(range(2, k + 1), map(float, curve))),
                k=k,
                kappa_hat=kappa_hat,
            )
            s1 = fit(points, "S1")
            assert abs(s1.b - k / 10) <= 1e-6
            s2 = fit(points, "S2")
            assert abs(s2.a - 2 * kappa_hat) <= 1e-4
            assert abs(s2.b - k / 10) <= 1e-3
            s3 = fit(points, "S3")
            assert abs(s3.a - 2 * kappa_hat) <= 1e-4
            assert abs(s3.b - k / 10) <= 1e-3
            assert abs(s3.c - (kappa_hat - 2 * kappa_hat)) <= 1e-4
            for result in (s1, s2, s3):
                assert result.r2 >= 1 - 1e-9
        assert time.perf_counter() - start < 5.0


def test_c08_closed_form_identities():
    with criterion("C8 closed-form identities"):
        start = time.perf_counter()
        rng = np.random.default_rng(8)
        for _ in range(200):
            k = int(rng.integers(3, 80))
            kappa_hat = float(rng.uniform(0.01, 1.0))
            ns = np.arange(2, k + 1)
            values = eval_min_model(ns, k, kappa_hat)
            assert eval_min_model(2, k, kappa_hat) == -kappa_hat
            assert np.all(np.diff(values) > 0)
            assert np.all(values < kappa_hat)
            scale = float(rng.uniform(-2.0, 2.0))
            scaled = eval_min_model(ns, k, scale * kappa_hat)
            np.testing.assert_allclose(scaled, scale * values, rtol=1e-12, atol=1e-15)
        assert time.perf_counter() - start < 1.0


def numpy_variation(matrix, k, m, j, seed):
    """mu_bar, sigma_bar and the team kappa-hats of run_variation, rebuilt
    from NumPy's own SeedSequence and default_rng objects, one stream and
    one single-ordering prefix kernel call at a time."""
    mu_bar = sigma_bar = np.zeros(k - 1)
    hats = []
    for t in range(1, j + 1):
        sub = int(np.random.SeedSequence(seed, spawn_key=(t,)).generate_state(1, np.uint64)[0])
        team = sample_team(matrix, k, np.random.default_rng(np.random.SeedSequence(sub)))
        table = []
        for r in range(1, m + 1):
            perm = np.random.default_rng(np.random.SeedSequence(sub, spawn_key=(r,))).permutation(k)
            table.append(ordering_kappas(matrix, [team[i] for i in perm]))
        mu_t, sigma_t = column_moments(np.array(table))
        mu_bar = ((t - 1) * mu_bar + mu_t) / t
        sigma_bar = ((t - 1) * sigma_bar + sigma_t) / t
        hats.append(table[0][-1])
    return mu_bar, sigma_bar, hats


def test_c09_determinism_and_thread_invariance(tmp_path, capsys):
    with criterion("C9 determinism"):
        start = time.perf_counter()
        matrix_path = tmp_path / "matrix.csv"
        assert main(
            ["synth", "--raters", "12", "--items", "30", "--noise", "0.3",
             "--seed", "7", "--out", str(matrix_path)]
        ) == 0

        wide_seed = 2**130  # five 32-bit words: past SeedSequence's pool of four
        runs, stats, variation, wide = [], [], [], []
        for idx in range(3):
            runs_path = tmp_path / f"runs{idx}.csv"
            stats_path = tmp_path / f"stats{idx}.csv"
            variation_path = tmp_path / f"variation{idx}.csv"
            wide_path = tmp_path / f"wide{idx}.csv"
            assert main(
                ["simulate", "--input", str(matrix_path), "--k", "10", "--m", "50",
                 "--seed", "3", "--runs-out", str(runs_path),
                 "--stats-out", str(stats_path)]
            ) == 0
            assert main(
                ["variation", "--input", str(matrix_path), "--k", "5", "--m", "20",
                 "--j", "10", "--seed", "4", "--out", str(variation_path)]
            ) == 0
            assert main(
                ["variation", "--input", str(matrix_path), "--k", "5", "--m", "20",
                 "--j", "10", "--seed", str(wide_seed), "--out", str(wide_path)]
            ) == 0
            runs.append(runs_path.read_bytes())
            stats.append(stats_path.read_bytes())
            variation.append(variation_path.read_bytes())
            wide.append(wide_path.read_bytes())

        assert runs[0] == runs[1] == runs[2]
        assert stats[0] == stats[1] == stats[2]
        assert variation[0] == variation[1] == variation[2]
        assert wide[0] == wide[1] == wide[2]
        # the wide seed's streams are NumPy's, and the file is that table
        matrix = read_matrix(matrix_path)
        table = run_variation(matrix, VariationConfig(k=5, m=20, j=10, seed=wide_seed))
        mu_bar, sigma_bar, hats = numpy_variation(matrix, 5, 20, 10, wide_seed)
        assert np.array_equal(table.mu_bar, mu_bar)
        assert np.array_equal(table.sigma_bar, sigma_bar)
        assert list(table.team_kappa_hats) == hats
        out = io.StringIO()
        write_variation(table, out)
        assert wide[0] == out.getvalue().encode()
        assert time.perf_counter() - start < 60.0


def test_c10_synthetic_noise_response():
    with criterion("C10 synthetic noise response"):
        start = time.perf_counter()
        means = []
        for noise in (0.0, 0.25, 0.5, 0.75, 1.0):
            values = []
            for seed in range(50):
                matrix = generate_synthetic(
                    raters=10, items=500, categories=3, noise=noise, seed=seed
                )
                values.append(fleiss_kappa(matrix).kappa)
            if noise == 0.0:
                assert all(v == 1.0 for v in values)
            means.append(float(np.mean(values)))
        print(f"[acceptance] C10 info: mean kappa by noise = {np.round(means, 4).tolist()}")
        assert all(earlier > later for earlier, later in zip(means, means[1:]))
        assert abs(means[-1]) < 0.02
        assert time.perf_counter() - start < 60.0
