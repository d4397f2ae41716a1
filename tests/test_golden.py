"""Byte-identity of every CLI output for small fixed-seed runs.

Each output (files and standard output) is pinned by its sha256. A change
that moves any byte of any table, report, or number format fails here;
such a change must update the digest on purpose and say which bytes
moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from fractions import Fraction

import pytest

from kappasim import ExperimentConfig, fleiss_kappa, generate_synthetic, run_experiment
from kappasim.cli import main

from conftest import kappa_fraction, numpy_orderings, numpy_team, p_fractions, subset

MAPPING = """\
computer_scientist_col = cs
programming_experience_col = pe
respondent_id_col = id
label_cols = s1, s2, s3
missing_values = N/A
"""

RAW = """\
id,cs,pe,s1,s2,s3
r1,Yes,Yes,Positive,Neutral,Negative
r2,No,Yes,Positive,Positive,Positive
r3,Yes,Yes,Positive,N/A,Negative
r4,Yes,Yes,Negative,Negative,Neutral
"r5, ""q"" x",Yes,Yes,Positive,Neutral,Neutral
"""

GOLDEN = {
    "matrix.csv": "7f5f494f99d526d4477c9bcc7080c9da5c75568a6f8a72bc4ec9bbe5f83909df",
    "kappa.stdout": "c5b7d11812acb8b583e087b424da1b4970ee3d7d2c1f0d859bda7a7b9280d578",
    "simulate.stdout": "e6166247d8f6354d6e897f6fd3c352d3efcc8139871ae378c083d0cd2296d9bf",
    "runs.csv": "5901e532a888a459c9169112eb5f7db26ad716534b9517140b23f70b97a33450",
    "stats.csv": "d1bcf801f8f2b111707f3230fd20588fb5bf5a6115d59eadf716fbae1d86a6ff",
    "kappa_text.stdout": "1ee08ee6ee1a46e6465e109f02450d89867afa4200d381f8397cbddd955870ed",
    "fit_S0_text.stdout": "d02ed239fa1d0832c43e6519a4dc0f2067d64da6cab1dacdded9f153ec3aa75f",
    "fit_S4_text.stdout": "19a9a8a409e47632ac9323353aa6c9dcb954b496d84a5c2364f9608d054ce425",
    "minmodel.stdout": "3980b7c172f11b8f4bcb7839e73bbaaba79a89efbdc09812554287118911b12e",
    "fit_S0.stdout": "7ec773aa4fee70eb3ed8e6630a6ac73559f3d39d78c13e2a5005c9d714569865",
    "minima_S0.csv": "468de92521915885065f07ef2b3e7be7627d7505db925d88ccc63c78efbd40dd",
    "fit_S1.stdout": "455b8f87dbc76259850bc4f41127c18d6326fea69a9f0c1e39687cdd127b2aad",
    "fit_S2.stdout": "4c8849fb4a7a4d689c631a783d588aa2ace897882a71db28225cc1b9122cea1f",
    "fit_S3.stdout": "0211a5ce1ec651f3d14c22226c01303b12d6e48178b946c4bc7f385bc029907f",
    "fit_S4.stdout": "8152ac5c4e13a15f5dbe413379847c0963ca7f2e70aa8fa936eef6595b628e39",
    "minima_S4.csv": "468de92521915885065f07ef2b3e7be7627d7505db925d88ccc63c78efbd40dd",
    "variation.csv": "01732f190392d4db7f542af50c82695e2017f4e0afb6d7e60991e0357d14dde3",
    "intervals_from_variation.csv": "c5e83f04cffbfa4f54140dd12fc3e509c4561acbed25f2031134204e7b1f23d2",
    "intervals.csv": "051d2094890532830bb59ef61ffd8a677658288c2f77259b0e7ba57f626bb5bd",
    "preprocessed.csv": "9f011d051d19f3d75573831bcbf7180f8342ab528b4796f2223cd5caeb6f02c0",
    "report.csv": "35af10e596ab62bb103b461b283f348136987a0d53cc18080890be7ba9a12438",
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict[str, bytes]:
    d = tmp_path_factory.mktemp("golden")
    stdout: dict[str, bytes] = {}

    def run(name: str | None, argv: list[str]) -> None:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == 0, argv
        if name is not None:
            stdout[name] = buf.getvalue().encode("utf-8")

    matrix = str(d / "matrix.csv")
    run(None, ["synth", "--raters", "7", "--items", "8", "--noise", "0.4",
               "--seed", "5", "--out", matrix])
    run("kappa.stdout", ["kappa", "--input", matrix, "--json"])
    run("kappa_text.stdout", ["kappa", "--input", matrix])
    run("simulate.stdout", ["simulate", "--input", matrix, "--k", "6", "--m", "20",
                            "--seed", "3", "--runs-out", str(d / "runs.csv"),
                            "--stats-out", str(d / "stats.csv")])
    for stage in ("S0", "S1", "S2", "S3", "S4"):
        run(f"fit_{stage}.stdout", ["fit", "--runs", str(d / "runs.csv"), "--stage", stage,
                                    "--json", "--minima-out", str(d / f"minima_{stage}.csv")])
    for stage in ("S0", "S4"):
        run(f"fit_{stage}_text.stdout", ["fit", "--runs", str(d / "runs.csv"), "--stage", stage])
    run("minmodel.stdout", ["minmodel", "--n", "5", "--k", "45", "--kappa-hat", "0.2193"])
    run(None, ["variation", "--input", matrix, "--k", "4", "--m", "10", "--j", "5",
               "--seed", "2", "--out", str(d / "variation.csv"),
               "--intervals-out", str(d / "intervals_from_variation.csv")])
    run(None, ["intervals", "--variation", str(d / "variation.csv"), "--kappa-hat", "0.3",
               "--out", str(d / "intervals.csv")])
    (d / "raw.csv").write_text(RAW, encoding="utf-8")
    (d / "mapping.cfg").write_text(MAPPING, encoding="utf-8")
    run(None, ["preprocess", "--raw", str(d / "raw.csv"), "--mapping", str(d / "mapping.cfg"),
               "--out", str(d / "preprocessed.csv"), "--report", str(d / "report.csv")])

    files = {name: (d / name).read_bytes() for name in GOLDEN if name.endswith(".csv")}
    return {**files, **stdout}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_digest(outputs, name):
    assert hashlib.sha256(outputs[name]).hexdigest() == GOLDEN[name]


def test_moved_digits_are_the_exact_rationals(outputs):
    # the values whose printed digits moved when kappa, then P-bar, became
    # one integer division are the correctly rounded exact rationals
    matrix = generate_synthetic(raters=7, items=8, noise=0.4, seed=5)
    want, _ = kappa_fraction(matrix.counts())
    assert b'"kappa": 0.30158730158730157,' in outputs["kappa.stdout"]
    assert fleiss_kappa(matrix).kappa == float(want) == 0.30158730158730157
    p_bar, p_bar_e = p_fractions(matrix.counts())
    assert (p_bar, p_bar_e) == (Fraction(13, 24), Fraction(11, 32))
    assert b'"p_bar": 0.5416666666666666, "p_bar_e": 0.34375,' in outputs["kappa.stdout"]
    assert fleiss_kappa(matrix).p_bar == float(p_bar) == 0.5416666666666666
    assert fleiss_kappa(matrix).p_bar_e == float(p_bar_e) == 0.34375

    runs = run_experiment(matrix, ExperimentConfig(k=6, m=20, seed=3))
    perm = numpy_orderings(3, 6, 18)[17]  # run 18, from NumPy's own stream
    first_five = [numpy_team(matrix, 6, 3)[p] for p in perm[:5]]  # n=5
    want, _ = kappa_fraction(subset(matrix, first_five).counts())
    assert want == Fraction(43, 128)
    assert runs.kappas[17][3] == float(want) == 0.3359375
    assert outputs["runs.csv"].split(b"\n")[89] == b"18,5,0.335938"  # line 90
