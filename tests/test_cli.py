"""End-to-end command tests, run in-process through ``main``."""

import json
import warnings

import pytest

from kappasim.cli import main
from kappasim import read_matrix

from conftest import TWIN_RHO


@pytest.fixture(scope="session")
def matrix_file(tmp_path_factory):
    # shared noisy matrix; 6 raters keeps the simulate tests fast
    path = tmp_path_factory.mktemp("cli") / "matrix.csv"
    code = main(
        ["synth", "--raters", "6", "--items", "12", "--noise", "0.3",
         "--seed", "3", "--out", str(path)]
    )
    assert code == 0
    return path


class TestTopLevel:
    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip() == "kappasim 0.1.0"

    def test_no_arguments(self, capsys):
        assert main([]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1


class TestSynthAndKappa:
    def test_synth_writes_long_format(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert main(
            ["synth", "--raters", "3", "--items", "4", "--out", str(out)]
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rater,item,label"
        assert len(lines) == 1 + 3 * 4

    def test_synth_to_stdout(self, capsys):
        assert main(["synth", "--raters", "2", "--items", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "rater,item,label"
        assert len(lines) == 5

    def test_kappa_text_report(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        main(["synth", "--raters", "4", "--items", "9", "--out", str(out)])
        capsys.readouterr()
        assert main(["kappa", "--input", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "kappa = 1.000000" in lines
        assert "degenerate = false" in lines
        assert "raters = 4" in lines

    def test_kappa_json_report(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        main(["synth", "--raters", "4", "--items", "9", "--out", str(out)])
        capsys.readouterr()
        assert main(["kappa", "--input", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kappa"] == 1.0
        assert payload["degenerate"] is False
        assert payload["items"] == 9

    def test_twin_corpus_agreement_level(self, tmp_path, capsys):
        out = tmp_path / "twin.csv"
        main(
            ["synth", "--raters", "45", "--items", "100",
             "--noise", repr(TWIN_RHO), "--seed", "11", "--out", str(out)]
        )
        capsys.readouterr()
        assert main(["kappa", "--input", str(out)]) == 0
        assert "kappa = 0.222438" in capsys.readouterr().out

    def test_bad_noise_rejected(self, capsys):
        assert main(["synth", "--raters", "3", "--items", "2", "--noise", "1.2"]) == 1

    def test_kappa_missing_file(self, tmp_path, capsys):
        assert main(["kappa", "--input", str(tmp_path / "absent.csv")]) == 2


MAPPING = """\
computer_scientist_col = cs
programming_experience_col = pe
respondent_id_col = id
label_cols = s1, s2, s3
positive_values = Positive
neutral_values = Neutral
negative_values = Negative
no_values = No
missing_values = N/A
"""

RAW = """\
id,cs,pe,s1,s2,s3
r1,Yes,Yes,Positive,Neutral,Negative
r2,No,Yes,Positive,Positive,Positive
r3,Yes,Yes,Positive,N/A,Negative
r4,Yes,Yes,Negative,Negative,Neutral
"""


class TestPreprocess:
    def test_end_to_end(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        cfg = tmp_path / "mapping.cfg"
        raw.write_text(RAW, encoding="utf-8")
        cfg.write_text(MAPPING, encoding="utf-8")
        out = tmp_path / "matrix.csv"
        report = tmp_path / "report.csv"
        code = main(
            ["preprocess", "--raw", str(raw), "--mapping", str(cfg),
             "--out", str(out), "--report", str(report)]
        )
        assert code == 0
        matrix = read_matrix(out)
        assert matrix.raters == ("r1", "r4")
        assert len(matrix.items) == 3
        report_lines = report.read_text().splitlines()
        assert report_lines[0] == "total_in,removed_non_developers,removed_incomplete,retained"
        assert report_lines[1] == "4,1,1,2"
        assert "retained 2/4" in capsys.readouterr().err

    def test_mapping_flag_required(self, tmp_path, capsys):
        assert main(["preprocess", "--raw", str(tmp_path / "raw.csv")]) == 1

    def test_missing_raw_file(self, tmp_path, capsys):
        cfg = tmp_path / "mapping.cfg"
        cfg.write_text(MAPPING, encoding="utf-8")
        code = main(
            ["preprocess", "--raw", str(tmp_path / "absent.csv"), "--mapping", str(cfg)]
        )
        assert code == 2

    def test_multi_character_delimiter(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        cfg = tmp_path / "mapping.cfg"
        raw.write_text(RAW, encoding="utf-8")
        cfg.write_text(MAPPING + "delimiter = ;;\n", encoding="utf-8")
        assert main(["preprocess", "--raw", str(raw), "--mapping", str(cfg)]) == 2
        err = "kappasim: error: delimiter must be exactly one character, got ';;'\n"
        assert capsys.readouterr().err == err


# For each input file: the command line reading it from ``path``, given a
# valid raw survey and mapping for the other preprocess input.
INPUTS = {
    "matrix": lambda path, raw, cfg: ["kappa", "--input", path],
    "runs": lambda path, raw, cfg: ["fit", "--runs", path],
    "stats": lambda path, raw, cfg: ["fit", "--stats", path],
    "variation": lambda path, raw, cfg: ["intervals", "--variation", path, "--kappa-hat", "0.3"],
    "survey": lambda path, raw, cfg: ["preprocess", "--raw", path, "--mapping", cfg],
    "mapping": lambda path, raw, cfg: ["preprocess", "--raw", raw, "--mapping", path],
}


@pytest.mark.parametrize("what", sorted(INPUTS))
@pytest.mark.parametrize(
    "kind,reason", [("directory", "Is a directory"), ("latin-1", "not UTF-8 text")]
)
def test_unreadable_input_is_data_error(tmp_path, capsys, what, kind, reason):
    raw = tmp_path / "raw.csv"
    cfg = tmp_path / "mapping.cfg"
    raw.write_text(RAW, encoding="utf-8")
    cfg.write_text(MAPPING, encoding="utf-8")
    bad = tmp_path / "bad"
    if kind == "directory":
        bad.mkdir()
    else:
        bad.write_bytes("café\n".encode("latin-1"))
    assert main(INPUTS[what](str(bad), str(raw), str(cfg))) == 2
    assert capsys.readouterr().err == f"kappasim: error: {bad}: cannot read {what} file: {reason}\n"


class TestSimulate:
    def test_writes_runs_and_stats(self, matrix_file, tmp_path, capsys):
        runs = tmp_path / "runs.csv"
        stats = tmp_path / "stats.csv"
        code = main(
            ["simulate", "--input", str(matrix_file), "--k", "5", "--m", "7",
             "--seed", "1", "--runs-out", str(runs), "--stats-out", str(stats)]
        )
        assert code == 0
        assert len(runs.read_text().splitlines()) == 1 + 7 * 4
        stats_lines = stats.read_text().splitlines()
        assert stats_lines[0] == "n,min,q1,median,q3,max,mean,std"
        assert len(stats_lines) == 1 + 4
        out = capsys.readouterr().out
        assert "kappa_hat = " in out and "team = " in out

    def test_stats_fall_back_to_stdout(self, matrix_file, capsys):
        code = main(
            ["simulate", "--input", str(matrix_file), "--k", "4", "--m", "3"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == "n,min,q1,median,q3,max,mean,std"
        assert "kappa_hat = " in captured.err

    def test_repeat_invocations_are_byte_identical(self, matrix_file, tmp_path, capsys):
        paths = [tmp_path / name for name in ("a.csv", "b.csv")]
        for path in paths:
            main(
                ["simulate", "--input", str(matrix_file), "--k", "5", "--m", "6",
                 "--seed", "9", "--stats-out", str(path)]
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_thread_env_does_not_change_output(self, matrix_file, tmp_path, capsys, monkeypatch):
        outputs = []
        for threads in ("1", "4"):
            monkeypatch.setenv("KAPPASIM_THREADS", threads)
            runs = tmp_path / f"runs-{threads}.csv"
            assert main(
                ["simulate", "--input", str(matrix_file), "--k", "5", "--m", "10",
                 "--seed", "2", "--runs-out", str(runs), "--stats-out",
                 str(tmp_path / f"stats-{threads}.csv")]
            ) == 0
            outputs.append(runs.read_bytes())
        assert outputs[0] == outputs[1]

    def test_oversized_team(self, matrix_file, capsys):
        assert main(["simulate", "--input", str(matrix_file), "--k", "999", "--m", "2"]) == 2


@pytest.fixture(scope="module")
def experiment_files(matrix_file, tmp_path_factory):
    base = tmp_path_factory.mktemp("fit")
    runs = base / "runs.csv"
    stats = base / "stats.csv"
    code = main(
        ["simulate", "--input", str(matrix_file), "--k", "6", "--m", "40",
         "--seed", "4", "--runs-out", str(runs), "--stats-out", str(stats)]
    )
    assert code == 0
    return runs, stats


class TestFit:
    def test_text_report_from_stats(self, experiment_files, capsys):
        _, stats = experiment_files
        assert main(["fit", "--stats", str(stats)]) == 0
        report = capsys.readouterr().out
        assert report.startswith("stage: S0")
        assert "converged: true" in report

    def test_json_report(self, experiment_files, capsys):
        _, stats = experiment_files
        assert main(["fit", "--stats", str(stats), "--stage", "S1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stage"] == "S1"
        assert payload["b"]["role"] == "free"

    def test_runs_and_stats_give_identical_minima(self, experiment_files, tmp_path, capsys):
        runs, stats = experiment_files
        from_runs = tmp_path / "from-runs.csv"
        from_stats = tmp_path / "from-stats.csv"
        assert main(
            ["fit", "--runs", str(runs), "--minima-out", str(from_runs),
             "--out", str(tmp_path / "r1.txt")]
        ) == 0
        assert main(
            ["fit", "--stats", str(stats), "--minima-out", str(from_stats),
             "--out", str(tmp_path / "r2.txt")]
        ) == 0
        assert from_runs.read_bytes() == from_stats.read_bytes()

    def test_drop_final_shrinks_minima(self, experiment_files, tmp_path, capsys):
        _, stats = experiment_files
        kept = tmp_path / "kept.csv"
        dropped = tmp_path / "dropped.csv"
        main(["fit", "--stats", str(stats), "--minima-out", str(kept),
              "--out", str(tmp_path / "a.txt")])
        main(["fit", "--stats", str(stats), "--drop-final", "--minima-out", str(dropped),
              "--out", str(tmp_path / "b.txt")])
        kept_lines = kept.read_text().splitlines()
        dropped_lines = dropped.read_text().splitlines()
        assert len(kept_lines) == len(dropped_lines) + 1
        assert dropped_lines == kept_lines[:-1]

    def test_source_flags_are_exclusive(self, experiment_files, capsys):
        runs, stats = experiment_files
        assert main(["fit", "--stats", str(stats), "--runs", str(runs)]) == 1
        assert main(["fit"]) == 1

    def test_unknown_stage(self, experiment_files, capsys):
        _, stats = experiment_files
        assert main(["fit", "--stats", str(stats), "--stage", "S9"]) == 1

    def test_k_must_match_stats_when_kappa_hat_inferred(self, experiment_files, capsys):
        _, stats = experiment_files
        assert main(["fit", "--stats", str(stats), "--k", "5"]) == 2

    @pytest.mark.parametrize("stage,kappa_hat", [("S0", "nan"), ("S4", "nan"), ("S0", "inf")])
    def test_non_finite_kappa_hat_is_data_error(self, experiment_files, capsys, stage, kappa_hat):
        _, stats = experiment_files
        argv = ["fit", "--stats", str(stats), "--stage", stage, "--kappa-hat", kappa_hat]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"kappasim: error: kappa_hat must be finite, got {kappa_hat}\n"

    def test_non_finite_runs_are_rejected_without_warnings(self, tmp_path, capsys):
        runs = tmp_path / "runs.csv"
        runs.write_text("run_id,n,kappa\n1,2,nan\n1,3,inf\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", "--runs", str(runs)]) == 2
        assert f"{runs}:2: malformed runs row" in capsys.readouterr().err


class TestMinModel:
    def test_prediction(self, capsys):
        assert main(
            ["minmodel", "--n", "45", "--k", "45", "--kappa-hat", "0.2193"]
        ) == 0
        assert capsys.readouterr().out == "0.177748\n"

    def test_n_below_domain_is_usage_error(self, capsys):
        assert main(["minmodel", "--n", "1", "--k", "45", "--kappa-hat", "0.2"]) == 1

    def test_n_beyond_k_is_data_error(self, capsys):
        assert main(["minmodel", "--n", "46", "--k", "45", "--kappa-hat", "0.2"]) == 2

    def test_non_finite_kappa_hat_is_data_error(self, capsys):
        assert main(["minmodel", "--n", "3", "--k", "45", "--kappa-hat", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "kappasim: error: kappa_hat must be finite, got nan\n"


class TestVariation:
    def test_table_and_intervals(self, matrix_file, tmp_path, capsys):
        table = tmp_path / "variation.csv"
        intervals = tmp_path / "intervals.csv"
        code = main(
            ["variation", "--input", str(matrix_file), "--k", "4", "--m", "5",
             "--j", "3", "--seed", "2", "--out", str(table),
             "--intervals-out", str(intervals)]
        )
        assert code == 0
        lines = table.read_text().splitlines()
        assert lines[0] == "n,mu_bar,sigma_bar,cv,cv_percent"
        assert len(lines) == 1 + 3
        assert lines[-1].endswith(",0.000000,0.00")
        interval_lines = intervals.read_text().splitlines()
        assert interval_lines[0] == "n,level,lower,upper"
        assert len(interval_lines) == 1 + 3 * 3
        assert "dataset kappa_hat = " in capsys.readouterr().err

    def test_deterministic(self, matrix_file, tmp_path, capsys):
        paths = [tmp_path / name for name in ("v1.csv", "v2.csv")]
        for path in paths:
            main(
                ["variation", "--input", str(matrix_file), "--k", "4", "--m", "4",
                 "--j", "2", "--seed", "6", "--out", str(path)]
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_oversized_team(self, matrix_file, capsys):
        assert main(
            ["variation", "--input", str(matrix_file), "--k", "999", "--m", "2", "--j", "1"]
        ) == 2


class TestIntervals:
    def test_from_single_cv(self, tmp_path, capsys):
        out = tmp_path / "intervals.csv"
        code = main(
            ["intervals", "--cv", "0.1909", "--n", "7",
             "--kappa-hat", "0.2193", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,level,lower,upper"
        assert lines[1] == "7,68.27,0.177436,0.261164"
        assert len(lines) == 4

    def test_z_subset(self, tmp_path, capsys):
        out = tmp_path / "intervals.csv"
        main(
            ["intervals", "--cv", "0.2", "--n", "5", "--kappa-hat", "0.3",
             "--z", "2", "--out", str(out)]
        )
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("5,95.45,")

    def test_non_finite_kappa_hat_is_data_error(self, capsys):
        argv = ["intervals", "--cv", "0.1", "--n", "3", "--kappa-hat", "inf"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "kappasim: error: kappa_hat must be finite, got inf\n"

    def test_cv_requires_n(self, capsys):
        assert main(["intervals", "--cv", "0.2", "--kappa-hat", "0.3"]) == 1
        assert "--n is required" in capsys.readouterr().err

    def test_from_variation_file_skips_undefined_rows(self, tmp_path, capsys):
        source = tmp_path / "variation.csv"
        source.write_text(
            "n,mu_bar,sigma_bar,cv,cv_percent\n"
            "2,0.000000,0.100000,nan,nan\n"
            "3,0.500000,0.000000,0.000000,0.00\n",
            encoding="utf-8",
        )
        out = tmp_path / "intervals.csv"
        assert main(
            ["intervals", "--variation", str(source), "--kappa-hat", "0.5",
             "--out", str(out)]
        ) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 3
        assert all(line.startswith("3,") for line in lines[1:])
        assert "cv undefined at n=2" in capsys.readouterr().err

    def test_source_flags_are_exclusive(self, tmp_path, capsys):
        assert main(["intervals", "--kappa-hat", "0.3"]) == 1
        assert main(
            ["intervals", "--variation", "x.csv", "--cv", "0.1", "--kappa-hat", "0.3"]
        ) == 1

    def test_invalid_z_choice(self, capsys):
        assert main(
            ["intervals", "--cv", "0.1", "--n", "3", "--kappa-hat", "0.3", "--z", "4"]
        ) == 1
