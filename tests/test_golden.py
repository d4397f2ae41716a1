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

import pytest

from kappasim.cli import main

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
    "kappa.stdout": "171b8c61a5925ee9cc1092a0da1057feeb7aefe0969a731cde5f06129382ce4b",
    "simulate.stdout": "e6166247d8f6354d6e897f6fd3c352d3efcc8139871ae378c083d0cd2296d9bf",
    "runs.csv": "dd65ba0072a577fa25975e1716c573e750b71cfe4bb6d0faf686dc0ed4c55a19",
    "stats.csv": "d1bcf801f8f2b111707f3230fd20588fb5bf5a6115d59eadf716fbae1d86a6ff",
    "fit_S0.stdout": "7ec773aa4fee70eb3ed8e6630a6ac73559f3d39d78c13e2a5005c9d714569865",
    "minima_S0.csv": "468de92521915885065f07ef2b3e7be7627d7505db925d88ccc63c78efbd40dd",
    "fit_S4.stdout": "0e3562ee878a0ea863cb7b035d501592d13b07192ae199c5043ad5d01d39db50",
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
    run("simulate.stdout", ["simulate", "--input", matrix, "--k", "6", "--m", "20",
                            "--seed", "3", "--runs-out", str(d / "runs.csv"),
                            "--stats-out", str(d / "stats.csv")])
    for stage in ("S0", "S4"):
        run(f"fit_{stage}.stdout", ["fit", "--runs", str(d / "runs.csv"), "--stage", stage,
                                    "--json", "--minima-out", str(d / f"minima_{stage}.csv")])
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
