"""End-to-end command tests, run in-process through ``main``."""

import argparse
import json
import warnings

import numpy as np
import pytest

from kappasim.cli import build_parser, main
from kappasim import read_matrix, read_runs, summarize_table
from kappasim.corpus import write_table
from kappasim.mc import RUNS_HEADER
from kappasim.minfit import extract_minima, fit, fit_report_json

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

    def test_extra_survey_field_is_data_error(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        cfg = tmp_path / "mapping.cfg"
        raw.write_text(RAW.replace("Neutral\n", "Neutral,EXTRA\n"), encoding="utf-8")
        cfg.write_text(MAPPING, encoding="utf-8")
        out = tmp_path / "matrix.csv"
        argv = ["preprocess", "--raw", str(raw), "--mapping", str(cfg), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"kappasim: error: {raw}:5: malformed survey row\n"
        assert not out.exists()

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


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--raters", "3", "--items", "2", "--out"],
        ["simulate", "--input", "MATRIX", "--k", "3", "--m", "2", "--runs-out"],
        ["variation", "--input", "MATRIX", "--k", "3", "--m", "2", "--j", "2", "--intervals-out"],
    ],
)
def test_unwritable_output_is_data_error(matrix_file, tmp_path, capsys, argv):
    bad = tmp_path / "bad"
    bad.mkdir()
    argv = [str(matrix_file) if arg == "MATRIX" else arg for arg in argv]
    assert main([*argv, str(bad)]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"kappasim: error: {bad}: cannot write file: Is a directory"
    )


# For each command with two outputs: its command line, given the inputs,
# up to its two output flags, and those flags in the order they are written.
TWO_OUTPUTS = {
    "preprocess": (lambda inputs: ["preprocess", "--raw", inputs["raw"], "--mapping",
                                   inputs["cfg"]], ("--out", "--report")),
    "simulate": (lambda inputs: ["simulate", "--input", inputs["matrix"], "--k", "3", "--m",
                                 "2"], ("--runs-out", "--stats-out")),
    "fit": (lambda inputs: ["fit", "--runs", inputs["runs"]], ("--out", "--minima-out")),
    "variation": (lambda inputs: ["variation", "--input", inputs["matrix"], "--k", "3", "--m",
                                  "2", "--j", "2"], ("--out", "--intervals-out")),
}


@pytest.mark.parametrize("existing", [False, True], ids=["new first output", "existing first output"])
@pytest.mark.parametrize("command", sorted(TWO_OUTPUTS))
def test_an_unwritable_second_output_leaves_the_first_untouched(
    command, existing, matrix_file, experiment_files, tmp_path, capsys
):
    raw, cfg = tmp_path / "raw.csv", tmp_path / "mapping.cfg"
    raw.write_text(RAW, encoding="utf-8")
    cfg.write_text(MAPPING, encoding="utf-8")
    inputs = {"raw": str(raw), "cfg": str(cfg), "matrix": str(matrix_file),
              "runs": str(experiment_files[0])}
    argv, (first_flag, second_flag) = TWO_OUTPUTS[command]
    first, bad = tmp_path / "first.csv", tmp_path / "bad"
    bad.mkdir()
    if existing:
        first.write_text("kept\n", encoding="utf-8")
    assert main([*argv(inputs), first_flag, str(first), second_flag, str(bad)]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"kappasim: error: {bad}: cannot write file: Is a directory"
    )
    if existing:
        assert first.read_text(encoding="utf-8") == "kept\n"
    else:
        assert not first.exists()


@pytest.mark.parametrize("where", ["missing directory", "file as directory"])
def test_a_new_output_in_no_directory_is_named(matrix_file, tmp_path, capsys, where):
    parent = tmp_path / "parent"
    if where == "file as directory":
        parent.write_text("", encoding="utf-8")
    runs, stats = tmp_path / "runs.csv", parent / "stats.csv"
    argv = ["simulate", "--input", str(matrix_file), "--k", "3", "--m", "2",
            "--runs-out", str(runs), "--stats-out", str(stats)]
    assert main(argv) == 2
    reason = "No such file or directory" if where == "missing directory" else "Not a directory"
    assert capsys.readouterr().err == f"kappasim: error: {stats}: cannot write file: {reason}\n"
    assert not runs.exists()


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

    def test_same_seed_writes_identical_runs_file(self, matrix_file, tmp_path, capsys):
        outputs = []
        for attempt in ("1", "2"):
            runs = tmp_path / f"runs-{attempt}.csv"
            assert main(
                ["simulate", "--input", str(matrix_file), "--k", "5", "--m", "10",
                 "--seed", "2", "--runs-out", str(runs), "--stats-out",
                 str(tmp_path / f"stats-{attempt}.csv")]
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

    def test_runs_report_is_that_of_the_whole_summary(self, tmp_path, capsys):
        # fit --runs summarizes no more of the runs than it reads: the minima
        # and the last column's mean, here not constant (a hand-made file)
        rng = np.random.default_rng(4)
        table = rng.uniform(0.05, 0.6, size=(1000, 5))
        runs = tmp_path / "runs.csv"
        rows = [(r + 1, n, repr(float(v))) for r, row in enumerate(table)
                for n, v in zip(range(2, 7), row)]
        write_table(runs, RUNS_HEADER, rows)
        stats = summarize_table(*read_runs(runs))
        points = extract_minima(stats, float(stats.means[-1]), 6)
        assert main(["fit", "--runs", str(runs), "--stage", "S2", "--json"]) == 0
        assert capsys.readouterr().out == fit_report_json(fit(points, "S2"))

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

    def test_k_is_not_an_option(self, experiment_files, capsys):
        # k is always the input's largest n; `--k` is not read as `--kappa-hat`
        _, stats = experiment_files
        assert main(["fit", "--stats", str(stats), "--k", "6"]) == 1

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

    def test_strict_exits_3_when_the_pole_is_on_the_edge(self, tmp_path, capsys):
        # one deep minimum at n = 2, then a flat plateau: S1's fixed a and c
        # can only follow it by putting the pole at n = 2, while S3 bends
        # its free a and c to the data with the pole well below 2
        mins = (-0.9, 0.40, 0.41, 0.40, 0.41, 0.40)
        stats = tmp_path / "stats.csv"
        stats.write_text(
            "n,min,q1,median,q3,max,mean,std\n"
            + "".join(f"{n},{y},{y},{y},{y},{y},{y},0\n" for n, y in enumerate(mins, 2)),
            encoding="utf-8",
        )
        assert main(["fit", "--stats", str(stats), "--strict", "--stage", "S1"]) == 3
        captured = capsys.readouterr()
        assert "converged: false" in captured.out
        assert "pole on the edge of the data range" in captured.err
        assert main(["fit", "--stats", str(stats), "--strict", "--stage", "S3"]) == 0
        assert "converged: true" in capsys.readouterr().out


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


    def test_refused_cv_leaves_no_table(self, tmp_path, capsys):
        # every item split 4/4: kappa-hat = -1/7, and a negative mean
        # agreement gives a negative cv, which the intervals refuse
        matrix = tmp_path / "split.csv"
        matrix.write_text(
            "rater,item,label\n"
            + "".join(
                f"r{r},i{i},{('positive', 'negative')[r // 4]}\n"
                for r in range(8)
                for i in range(20)
            ),
            encoding="utf-8",
        )
        table, intervals = tmp_path / "v.csv", tmp_path / "i.csv"
        code = main(
            ["variation", "--input", str(matrix), "--k", "7", "--m", "50", "--j", "20",
             "--out", str(table), "--intervals-out", str(intervals)]
        )
        assert code == 2
        assert "cv must be a finite non-negative number" in capsys.readouterr().err
        assert not table.exists() and not intervals.exists()


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

    def test_non_finite_kappa_hat_with_every_cv_undefined(self, tmp_path, capsys):
        source = tmp_path / "variation.csv"
        source.write_text(
            "n,mu_bar,sigma_bar,cv,cv_percent\n2,0.000000,0.100000,nan,nan\n", encoding="utf-8"
        )
        out = tmp_path / "intervals.csv"
        argv = ["intervals", "--variation", str(source), "--kappa-hat", "inf", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "kappasim: error: kappa_hat must be finite, got inf\n"
        assert not out.exists()

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


BEYOND_INT64 = 99999999999999999999


@pytest.mark.parametrize(
    "argv, what, text",
    [
        (["fit"], "stats", "n,min,q1,median,q3,max,mean,std\n2,0.1,0.2,0.3,0.4,0.5,0.3,0.1\n"
         f"{BEYOND_INT64},0.2,0.2,0.3,0.4,0.4,0.3,0.1\n"),
        (["intervals", "--kappa-hat", "0.3"], "variation", "n,mu_bar,sigma_bar,cv,cv_percent\n"
         f"2,0.5,0.1,0.2,20.00\n{BEYOND_INT64},0.4,0.0,0.0,0.00\n"),
    ],
    ids=["fit --stats", "intervals --variation"],
)
def test_int_beyond_int64_is_data_error(tmp_path, capsys, argv, what, text):
    source = tmp_path / f"{what}.csv"
    source.write_text(text, encoding="utf-8")
    assert main([*argv, f"--{what}", str(source)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"kappasim: error: {source}:3: malformed {what} row\n"


# Per subcommand: arguments that run it ({name} fills in a file), one long
# flag among them, and a prefix of that flag that no other flag shares.
FULL_SPELLINGS = {
    "preprocess": (["--raw", "{raw}", "--mapping", "{mapping}", "--out", "{out}"], "--mapping",
                   "--map"),
    "synth": (["--raters", "3", "--items", "2", "--out", "{out}"], "--raters", "--rater"),
    "kappa": (["--input", "{matrix}"], "--input", "--in"),
    "simulate": (["--input", "{matrix}", "--m", "2", "--stats-out", "{out}"], "--stats-out",
                 "--stats"),
    "fit": (["--stats", "{stats}", "--kappa-hat", "0.2", "--out", "{out}"], "--kappa-hat",
            "--kappa"),
    "minmodel": (["--n", "3", "--k", "5", "--kappa-hat", "0.2"], "--kappa-hat", "--kappa"),
    "variation": (["--input", "{matrix}", "--k", "3", "--m", "2", "--j", "2", "--out", "{out}"],
                  "--input", "--inp"),
    "intervals": (["--cv", "0.19", "--n", "7", "--kappa-hat", "0.2", "--z", "1"], "--kappa-hat",
                  "--k"),
}


def test_every_subcommand_has_a_full_spelling_case():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(FULL_SPELLINGS)


@pytest.mark.parametrize("command", sorted(FULL_SPELLINGS))
def test_flags_must_be_spelled_out(command, matrix_file, experiment_files, tmp_path, capsys):
    args, flag, prefix = FULL_SPELLINGS[command]
    files = {"raw": tmp_path / "raw.csv", "mapping": tmp_path / "mapping.cfg",
             "matrix": matrix_file, "stats": experiment_files[1], "out": tmp_path / "out"}
    files["raw"].write_text(RAW, encoding="utf-8")
    files["mapping"].write_text(MAPPING, encoding="utf-8")
    argv = [command, *(arg.format(**files) for arg in args)]
    assert main(argv) == 0
    capsys.readouterr()
    assert main([prefix if arg == flag else arg for arg in argv]) == 1
    assert "error: " in capsys.readouterr().err
