"""The shared CSV table rules, and write/read round-trips of every table.

Every table reader goes through one helper, so every reader must apply
the same rules: exact header, blank lines skipped, exactly one field per
header column, at least one row, finite numbers (``nan`` only in the cv
columns), and ``path:line`` in every row error. Numeric tables take a
NumPy pass first; it must accept exactly what the csv reader accepts.
"""

import csv
import io
import math
import random
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappasim import (
    SENTIMENT_CATEGORIES,
    AnnotationMatrix,
    ColumnMapping,
    DataError,
    ExperimentConfig,
    MinPoints,
    RunSet,
    SubsetStats,
    VariationTable,
    extract_minima,
    generate_synthetic,
    load_raw,
    read_matrix,
    read_runs,
    read_stats,
    read_variation,
    summarize,
    write_matrix,
    write_minima,
    write_runs,
    write_stats,
    write_variation,
)
from kappasim import mc
from kappasim.cli import main
from kappasim.corpus import (
    _BLOCK_BYTES,
    _TABLE_KEYS,
    MATRIX_HEADER,
    _cell_dtype,
    _numbered,
    _read_csv,
    _row_error,
    read_columns,
    write_table,
)
from kappasim.dispersion import VARIATION_HEADER
from kappasim.mc import RUNS_HEADER, STATS_HEADER
from kappasim.minfit import MINIMA_HEADER

from conftest import label


def minima_columns(path):
    """A minima file's (n, min kappa) columns, as lists, through the shared
    typed-column reader."""
    return [col.tolist() for col in read_columns(path, MINIMA_HEADER, "minima", ("int", "float"))]


# table name (as in its messages) -> reader, header, two valid data rows
TABLES = {
    "matrix": (read_matrix, "rater,item,label", ["a,s1,positive", "b,s1,neutral"]),
    "runs": (read_runs, "run_id,n,kappa", ["1,2,0.5", "1,3,0.25"]),
    "stats": (
        read_stats,
        "n,min,q1,median,q3,max,mean,std",
        ["2,0.1,0.2,0.3,0.4,0.5,0.3,0.1", "3,0.2,0.2,0.3,0.4,0.4,0.3,0.1"],
    ),
    "variation": (
        read_variation,
        "n,mu_bar,sigma_bar,cv,cv_percent",
        ["2,0.5,0.1,0.2,20.00", "3,0.4,0.0,0.0,0.00"],
    ),
    "minima": (minima_columns, "n,min_kappa", ["2,0.1", "3,0.2"]),
}


def write_lines(path, lines, bom=False):
    path.write_text(("\ufeff" if bom else "") + "\n".join(lines) + "\n", encoding="utf-8")
    return path


def raises_at(path, line, what):
    return pytest.raises(DataError, match=re.escape(f"{path}:{line}: malformed {what} row"))


@pytest.fixture(params=sorted(TABLES))
def table(request, tmp_path):
    what = request.param
    reader, header, rows = TABLES[what]
    return what, reader, header, rows, tmp_path / f"{what}.csv"


class TestUniformRowRules:
    def test_valid_file_with_bom_and_blank_lines(self, table):
        what, reader, header, rows, path = table
        plain = reader(write_lines(path, [header, *rows]))
        with_extras = reader(write_lines(path, [header, "", rows[0], "", rows[1], ""], bom=True))
        if what == "matrix":
            assert with_extras == plain
        elif what == "runs":
            assert with_extras[0] == plain[0]
            assert np.array_equal(with_extras[1], plain[1])
        elif what == "stats":
            assert with_extras.ns == plain.ns
            assert np.array_equal(with_extras.mins, plain.mins)
        else:
            assert with_extras == plain

    def test_extra_field_is_malformed(self, table):
        what, reader, header, rows, path = table
        write_lines(path, [header, rows[0], "", rows[1] + ",junk"])
        with raises_at(path, 4, what):
            reader(path)

    def test_missing_field_is_malformed(self, table):
        what, reader, header, rows, path = table
        write_lines(path, [header, rows[0].rsplit(",", 1)[0], rows[1]])
        with raises_at(path, 2, what):
            reader(path)

    def test_header_only_is_rejected(self, table):
        what, reader, header, _, path = table
        with pytest.raises(DataError, match=f"no {what} rows"):
            reader(write_lines(path, [header, ""]))

    def test_wrong_or_missing_header(self, table):
        _, reader, header, rows, path = table
        with pytest.raises(DataError, match=re.escape(f"expected header '{header}'")):
            reader(write_lines(path, [header + ",extra", *rows]))
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError, match="expected header"):
            reader(path)

    def test_missing_file_names_the_table(self, table):
        what, reader, _, _, path = table
        with pytest.raises(FileNotFoundError, match=f"{what} file not found"):
            reader(path)


@pytest.mark.parametrize(
    "what, bad_row",
    [
        ("runs", "1,3,nan"),
        ("runs", "1,3,inf"),
        ("runs", "1,3,-Infinity"),
        ("runs", "1,x,0.5"),
        ("stats", "3,0.2,0.2,nan,0.4,0.4,0.3,0.1"),
        ("stats", "3,0.2,0.2,0.3,0.4,0.4,0.3,inf"),
        ("minima", "3,nan"),
        ("minima", "3.0,0.2"),
        ("variation", "3,nan,0.0,0.0,0.00"),
        ("variation", "3,0.4,inf,0.0,0.00"),
        ("variation", "3,0.4,0.0,inf,0.00"),
        ("variation", "3,0.4,0.0,0.0,zzz"),
    ],
)
def test_bad_cell_is_malformed(tmp_path, what, bad_row):
    reader, header, rows = TABLES[what]
    path = write_lines(tmp_path / f"{what}.csv", [header, rows[0], bad_row])
    with raises_at(path, 3, what):
        reader(path)


def test_first_malformed_line_is_named(tmp_path):
    path = write_lines(tmp_path / "runs.csv", ["run_id,n,kappa", "1,2,0.5", "1,3,nan", "x,4,0.1"])
    with raises_at(path, 3, "runs"):
        read_runs(path)
    # a bad cell before a wrong field count: the bad cell's line is named
    write_lines(path, ["run_id,n,kappa", "1,2,nan", "1,3,0.5,junk"])
    with raises_at(path, 2, "runs"):
        read_runs(path)


@pytest.mark.parametrize(
    "defect, filler",
    [("extra field", 0), ("bad value", 0), ("bad value", 3000), (2**63, 0), (-(2**63) - 1, 0)],
    ids=["extra field", "bad value", "bad value past the first chunk", "int above int64",
         "int below int64"],
)
def test_error_names_the_physical_line_after_a_multi_line_field(table, defect, filler):
    what, reader, header, rows, path = table
    if defect == "extra field":
        bad, message = rows[1] + ",junk", f"malformed {what} row"
    elif isinstance(defect, int):  # in the first column: an int, but a rater id in the matrix
        bad = f"{defect}," + rows[1].split(",", 1)[1]
        message = None if what == "matrix" else f"malformed {what} row"
    elif what == "matrix":
        bad, message = rows[1].replace("neutral", "Positive"), "unknown label token 'Positive'"
    else:
        bad, message = rows[1].rsplit(",", 1)[0] + ",zzz", f"malformed {what} row"
    # the first header cell is quoted over lines 1-3 (spaces around header
    # cells are ignored), so without filler the bad row is on line 6
    first, rest = header.split(",", 1)
    fill = [f"f{i},s1,positive" if what == "matrix" else rows[0] for i in range(filler)]
    write_lines(path, [f'"{first}\n\n",{rest}', rows[0], *fill, "", bad])
    if message is None:
        assert str(defect) in reader(path).raters
        return
    with pytest.raises(DataError, match=re.escape(f"{path}:{6 + filler}: {message}")):
        reader(path)


def test_int_columns_hold_every_int64(tmp_path):
    lines = ["n,min_kappa", f"{-(2**63)},0.1", f"{2**63 - 1},0.2"]
    path = write_lines(tmp_path / "minima.csv", lines)
    ns, _ = read_columns(path, ("n", "min_kappa"), "minima", ("int", "float"))
    assert ns.dtype == np.int64
    assert ns.tolist() == [-(2**63), 2**63 - 1]


# Numeric schemas of kappasim's tables: header and column kinds.
NUMERIC_SCHEMAS = [
    (RUNS_HEADER, ("int", "int", "float")),
    (STATS_HEADER, ("int",) + ("float",) * 7),
    (VARIATION_HEADER, ("int", "float", "float", "float_or_nan", "float_or_nan")),
    (MINIMA_HEADER, ("int", "float")),
]

# Cells that the csv reader (Python's int and float) and NumPy's loadtxt
# may read differently: quotes, underscores, non-ASCII digits, letters and
# spaces, a float in an int column, the int64 edges, non-finite values,
# NULs and the separators \x1c-\x1f (spaces to NumPy, not to Python).
HAZARD_CELLS = [
    "1_0", "١", "１", "\U0001d7d9", "\u01fe1", "1.0", "1e3", str(2**63 - 1), str(2**63),
    str(-(2**63)), str(-(2**63) - 1), "nan", "-nan", "NaN", "inf", "-Infinity", "1e400",
    "-1e400", "0x10", '"1"', '"0.5"', '"1,2"', '"', "", " ", "\t", " 7 ", "+3", "-0", "-0.0",
    ".5", "5.", "\xa01", "1\x1c", "\x1d1", "1\x1f", "\u30001", "\u200b1", "0.5\x00",
    "1\x0c2", "1\x0b", "1 2", "#1",
]
line_ends = st.sampled_from(["\n", "\r\n", "\r"])


def cells_of(kind):
    """Cells that every reader accepts in a column of ``kind``."""
    if kind == "int":
        return st.integers(-(2**63), 2**63 - 1).map(str)
    values = st.floats(allow_nan=kind == "float_or_nan", allow_infinity=False)
    return values.map(repr) | values.map(lambda v: f"{v:.6f}")


@st.composite
def numeric_tables(draw):
    """A numeric table file: mostly valid rows under kappasim's own header,
    with hazards mixed in (one bad cell, a missing or extra field, a blank
    or whitespace-only line, a spaced, quoted, multi-line or wrong header,
    lone ``\\r`` and ``\\r\\n`` line ends, a BOM, a byte that is not UTF-8)."""
    header, kinds = draw(st.sampled_from(NUMERIC_SCHEMAS))
    first, rest = header[0], ",".join(header[1:])
    head = draw(st.sampled_from([
        ",".join(header), ",".join(header), f" {first} , {rest} ", f'"{first}",{rest}',
        f'"{first}\n\n",{rest}', f"{first},{rest},extra", "",
    ]))
    lines = [head]
    for _ in range(draw(st.integers(0, 6))):
        row = [draw(cells_of(kind)) for kind in kinds]
        hazard = draw(st.integers(0, 9))  # 0-5 keep the row valid
        if hazard in (6, 7):
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(HAZARD_CELLS))
        elif hazard == 8:
            row = row[:-1] if draw(st.booleans()) else [*row, row[0]]
        elif hazard == 9:
            row = [draw(st.sampled_from(["", "   ", "\t"]))]
        lines.append(",".join(row))
    ends = draw(st.lists(line_ends, min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text[: -len(ends[-1])]  # no line end after the last line
    data = (("\ufeff" if draw(st.booleans()) else "") + text).encode("utf-8")
    if draw(st.integers(0, 9)) == 0:  # a byte that is not UTF-8
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return data, header, kinds


@settings(max_examples=400, deadline=None)
@given(numeric_tables())
def test_numpy_pass_matches_the_csv_reader(scratch, case):
    data, header, kinds = case
    path = scratch / "numeric.csv"
    path.write_bytes(data)

    def outcome(reader):
        try:
            columns = reader(path, header, "runs", kinds)
            return [(c.dtype, c.shape, c.tobytes()) for c in columns]
        except DataError as exc:
            return str(exc)

    assert outcome(read_columns) == outcome(_read_csv)


@pytest.mark.parametrize("what", ["runs", "stats", "minima", "variation"])
def test_own_format_takes_the_numpy_pass(tmp_path, monkeypatch, what):
    kappas = np.array([[0.1, -0.25, 0.5], [0.3, 0.2, 0.5]])
    runs = RunSet(ExperimentConfig(k=4, m=2, seed=0), ("a", "b", "c", "d"), 0.5, kappas)
    mu, sigma = np.array([0.0, 0.4, 0.5]), np.array([0.1, 0.2, 0.0])
    cv = np.array([math.nan, 0.5, 0.0])  # an undefined cv is written as nan
    table, write = {
        "runs": (runs, write_runs),
        "stats": (summarize(runs), write_stats),
        "minima": (extract_minima(summarize(runs), 0.5, 4), write_minima),
        "variation": (VariationTable(4, (2, 3, 4), mu, sigma, cv, (0.5,), 0.5, 0.5),
                      write_variation),
    }[what]
    path = tmp_path / f"{what}.csv"
    write(table, path)
    reader = TABLES[what][0]
    want = reader(path)
    monkeypatch.setattr("kappasim.corpus._read_csv", None)  # any call would fail
    assert repr(reader(path)) == repr(want)  # repr: nan equals nan


def test_a_warning_sends_the_file_to_the_csv_reader(tmp_path, monkeypatch):
    # NumPy 1.x's loadtxt parses "1.0" into an int column with only a
    # DeprecationWarning; the csv reader rejects it, whatever the caller's
    # warning filter.
    path = write_lines(tmp_path / "runs.csv", ["run_id,n,kappa", "1.0,2,0.5"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with raises_at(path, 2, "runs"):
            read_runs(path)

    def lenient_loadtxt(fh, dtype, **kwargs):  # that NumPy 1.x behaviour on any NumPy
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated",
                      DeprecationWarning)
        return np.array([(1, 2, 0.5)], dtype=dtype)

    monkeypatch.setattr(np, "loadtxt", lenient_loadtxt)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with raises_at(path, 2, "runs"):
            read_runs(path)


@pytest.mark.parametrize("what", ["runs", "stats"])
@pytest.mark.parametrize("bom", [False, True])
@pytest.mark.parametrize("hazard", ["\u01fe1", "1\x1c"])  # NumPy accepts both, Python neither
@pytest.mark.parametrize("late", [False, True])
def test_the_pre_scan_reads_the_whole_body(tmp_path, what, bom, hazard, late):
    # the text reader takes a read-ahead chunk past the header off the
    # binary buffer; a byte scan that did not seek back would miss a hazard
    # near the start of the body and let NumPy read what the csv reader
    # refuses. A hazard past the first block must be seen too.
    header, kinds, tail = {
        "runs": (RUNS_HEADER, ("int", "int", "float"), "2,0.5"),
        "stats": (STATS_HEADER, ("int",) + ("float",) * 7, ",".join(["0.5"] * 7)),
    }[what]
    rows = [f"{i},{tail}" for i in range(2, 10_000)]
    at = 8000 if late else 0
    rows[at] = ",".join([hazard, *rows[at].split(",")[1:]])
    path = write_lines(tmp_path / f"{what}.csv", [",".join(header), *rows], bom=bom)
    body = path.read_bytes().split(b"\n", 1)[1]
    assert body.find(hazard.encode()) >= _BLOCK_BYTES if late else body.find(hazard.encode()) < 100

    def outcome(reader):
        try:
            return [(c.dtype, c.tobytes()) for c in reader(path, header, what, kinds)]
        except DataError as exc:
            return str(exc)

    assert outcome(read_columns) == outcome(_read_csv) == f"{path}:{at + 2}: malformed {what} row"


@st.composite
def interleavings(draw):
    """A run set and the order in which a file lists its rows: each entry
    names a run, whose next row (in n order) comes there."""
    runs = draw(run_sets())
    k, m = runs.config.k, runs.config.m
    order = draw(st.permutations([r for r in range(m) for _ in range(k - 1)]))
    return runs, order


@settings(max_examples=100, deadline=None)
@given(interleavings())
def test_runs_rows_may_come_in_any_order(scratch, case):
    runs, order = case
    path = scratch / "runs.csv"
    write_runs(runs, path)
    header, *lines = path.read_text().splitlines()
    by_run = [iter(lines[r * (runs.config.k - 1):(r + 1) * (runs.config.k - 1)])
              for r in range(runs.config.m)]
    shuffled = write_lines(scratch / "shuffled.csv", [header, *(next(by_run[r]) for r in order)])
    ns, table = read_runs(path)
    shuffled_ns, shuffled_table = read_runs(shuffled)
    assert shuffled_ns == ns
    assert shuffled_table.tobytes() == table.tobytes()


def test_matrix_errors_name_the_physical_line_after_multi_line_ids(tmp_path):
    two_lines = '"a\nb"'
    path = write_lines(
        tmp_path / "ml.csv",
        ["rater,item,label", f"{two_lines},s1,positive", f"{two_lines},s2,neutral",
         "c,s1,neutral", "", "c,s2,Positive"],
    )
    with pytest.raises(DataError, match=re.escape(f"{path}:8: unknown label token 'Positive'")):
        read_matrix(path)
    write_lines(path, ["rater,item,label", f"{two_lines},s1,positive", f"{two_lines},s1,neutral"])
    with pytest.raises(DataError, match=re.escape(f"{path}:4: duplicate cell for rater 'a\\nb'")):
        read_matrix(path)


def test_a_chunk_of_blank_lines_changes_nothing(tmp_path, capsys):
    matrix = generate_synthetic(4, 3, noise=0.5, seed=1)
    plain = {"matrix": tmp_path / "matrix.csv", "runs": tmp_path / "runs.csv"}
    write_matrix(matrix, plain["matrix"])
    assert main(["simulate", "--input", str(plain["matrix"]), "--m", "5",
                 "--runs-out", str(plain["runs"]), "--stats-out", str(tmp_path / "stats.csv")]) == 0
    for what, header, kinds in (
        ("matrix", MATRIX_HEADER, lambda: ({}, {}, {})),  # fresh dicts for each read
        ("runs", RUNS_HEADER, lambda: ("int", "int", "float")),
    ):
        lines = plain[what].read_text(encoding="utf-8").splitlines()
        blank = write_lines(tmp_path / f"blank-{what}.csv", [*lines[:3], *[""] * 5000, *lines[3:]])
        columns = read_columns(blank, header, what, kinds())
        width = np.int32 if what == "matrix" else np.int64  # a dict numbers in int32
        assert [c.dtype for c in columns[:2]] == [np.dtype(width)] * 2
        for got, want in zip(columns, read_columns(plain[what], header, what, kinds())):
            assert got.dtype == want.dtype and np.array_equal(got, want)
    assert read_matrix(tmp_path / "blank-matrix.csv") == matrix
    minima = []
    for runs in (plain["runs"], tmp_path / "blank-runs.csv"):
        minima.append(runs.with_suffix(".minima"))
        assert main(["fit", "--runs", str(runs), "--minima-out", str(minima[-1])]) == 0
    assert minima[0].read_bytes() == minima[1].read_bytes()


def test_nan_marks_undefined_cv(tmp_path):
    path = write_lines(
        tmp_path / "variation.csv",
        ["n,mu_bar,sigma_bar,cv,cv_percent", "2,0.000000,0.100000,nan,nan"],
    )
    ((n, mu, sigma, cv),) = read_variation(path)
    assert (n, mu, sigma) == (2, 0.0, 0.1)
    assert math.isnan(cv)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("tables")


def at_file_precision(values):
    return np.array([float(f"{v:.6f}") for v in np.ravel(values)]).reshape(np.shape(values))


# Ids exercise the writer's quoting: commas, quotes, spaces and newlines.
ids = st.text(alphabet="ab ,\"'\n", min_size=1, max_size=6)


@st.composite
def matrices(draw):
    raters = draw(st.lists(ids, min_size=2, max_size=5, unique=True))
    items = draw(st.lists(ids, min_size=1, max_size=5, unique=True))
    codes = draw(
        st.lists(
            st.lists(st.integers(0, 2), min_size=len(items), max_size=len(items)),
            min_size=len(raters),
            max_size=len(raters),
        )
    )
    return AnnotationMatrix(tuple(raters), tuple(items), SENTIMENT_CATEGORIES, np.array(codes))


@settings(max_examples=60, deadline=None)
@given(matrices(), st.randoms(use_true_random=False))
def test_matrix_round_trip(scratch, matrix, random):
    path = scratch / "matrix.csv"
    write_matrix(matrix, path)
    assert read_matrix(path) == matrix
    # Quoted ids may hold newlines, so shuffle records, not text lines.
    records = [(r, i, label(matrix, r, i)) for r in matrix.raters for i in matrix.items]
    random.shuffle(records)
    write_table(path, MATRIX_HEADER, records)
    shuffled = read_matrix(path)
    assert set(shuffled.raters) == set(matrix.raters)
    assert set(shuffled.items) == set(matrix.items)
    for rater, item, token in records:
        assert label(shuffled, rater, item) == token


# Ids that the csv module and a split at "\n" and "," may read or write
# differently: quotes, commas, line ends (and the characters that
# str.splitlines also breaks at, which csv does not), NUL, padding, the
# empty id and one longer than csv's field limit.
HAZARD_IDS = [
    ",", '"', 'a"b', "\r", "\r\n", "a\nb", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
    "\u2028", "\u2029", "\x00", "a\x00", " a", "a ", " ", "", "x" * 140_000,
]
# Ids the byte pass keys differently: 8 bytes (one whole uint64 key), 9 or
# more (a wide cell), a shared 8-byte prefix, the empty id, and multi-byte
# UTF-8 (one cut by the 8-byte window: "a" then four 2-byte characters).
plain_ids = st.sampled_from([
    "a", "b", "p1", "s1", "s2", "\u00e9", "\ufeffa", "", "abcdefgh", "abcdefghi", "abcdefghj",
    "abcdefgh" * 3, "\u00e9" * 4, "a" + "\u00e9" * 4, "\u65e5\u672c", "\U0001f600" * 3,
])
matrix_ids = plain_ids | st.sampled_from(HAZARD_IDS)
matrix_labels = st.sampled_from([*SENTIMENT_CATEGORIES, "Positive", "NEUTRAL", "other"])
# csv ends a line only at \r and \n; str.splitlines also at these
splitlines_only = st.sampled_from(
    ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
# filler rows take about 18 bytes each: this many fill more than two blocks
FILLER_ROWS = _BLOCK_BYTES // 8


def filler_rows(count):
    return [f"f{i % 700},s{i // 700},positive" for i in range(count)]


def blank_at_a_block_start(data):
    """``data`` with blank lines ending the byte pass's first block, so that
    the second block starts with a blank line. The pass reads blocks of
    ``_BLOCK_BYTES`` from the end of the header's first ``\\n`` on; the
    blank lines go in at the last line start before the second block's."""
    second = data.index(b"\n") + 1 + _BLOCK_BYTES  # where the second block's bytes start
    if second >= len(data):
        return data
    at = data.rfind(b"\n", 0, second) + 1
    return data[:at] + b"\n" * (second - at + 1) + data[at:]


@st.composite
def matrix_files(draw):
    """A matrix file: rows of plain ids under kappasim's own header, some
    past the first blocks, with hazards mixed in (a hazardous id or label,
    a missing or extra field, a blank or whitespace-only line, a duplicate
    cell, a spaced, quoted, padded or wrong header, ``\\r\\n`` and lone
    ``\\r`` line ends, two rows joined by a character that ends a line
    only for ``str.splitlines``, a BOM, a blank line at a block start, a
    byte that is not UTF-8, anywhere or in a later block)."""
    head = draw(st.sampled_from([
        "rater,item,label", "rater,item,label", " rater , item , label ", '"rater",item,label',
        "rater,item,label" + " " * 140_000, "rater,item", "rater,item,label,extra", "",
    ]))
    lines = [head]
    filler = draw(st.sampled_from([0, 0, 0, FILLER_ROWS]))
    if filler:  # one entry, so that it draws one line end
        lines.append("\n".join(filler_rows(filler)))
    for _ in range(draw(st.integers(0, 6))):
        row = [draw(plain_ids), draw(plain_ids), draw(st.sampled_from(SENTIMENT_CATEGORIES))]
        hazard = draw(st.integers(0, 10))  # 0-5 keep the row plain
        if hazard == 6:
            row[draw(st.integers(0, 1))] = draw(matrix_ids)
        elif hazard == 7:
            row[2] = draw(matrix_labels)
        elif hazard == 8:
            row = row[:-1] if draw(st.booleans()) else [*row, row[0]]
        elif hazard == 9:
            row = [draw(st.sampled_from(["", "   ", "\t"]))]
        elif hazard == 10:  # one line for csv, two for str.splitlines
            row[2] += draw(splitlines_only) + f"{row[0]},{row[1]}2,{row[2]}"
        lines.append(",".join(row))
    ends = draw(st.lists(line_ends, min_size=len(lines), max_size=len(lines)))
    if draw(st.integers(0, 2)):
        ends = ["\n"] * len(lines)  # the common case: kappasim's own line ends
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text[: -len(ends[-1])]  # no line end after the last line
    data = (("\ufeff" if draw(st.booleans()) else "") + text).encode("utf-8")
    if filler and draw(st.booleans()):
        data = blank_at_a_block_start(data)
    bad_byte = draw(st.integers(0, 9))
    if bad_byte == 0:  # a byte that is not UTF-8
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    elif bad_byte == 1 and filler:  # past two blocks whose ids the pass has numbered
        cut = draw(st.integers(2 * _BLOCK_BYTES, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return data


def decided_columns(path, reader):
    """What ``reader`` makes of a matrix file: its columns' bytes and its
    dicts' keys in order, or the error text."""
    kinds = ({}, {}, {})
    try:
        columns = reader(path, MATRIX_HEADER, "matrix", kinds)
    except DataError as exc:
        return str(exc)
    return [(c.dtype, c.shape, c.tobytes()) for c in columns], [list(k) for k in kinds]


def decided_matrix(path):
    try:
        m = read_matrix(path)
    except DataError as exc:
        return str(exc)
    return m.raters, m.items, m.categories, m.codes.tobytes()


def assert_byte_pass_decides_as_csv(path):
    """The byte pass and the csv reader give ``path`` the same columns, the
    same dict order and the same error text, and so does read_matrix."""
    got = decided_columns(path, read_columns)
    assert got == decided_columns(path, _read_csv)
    if not isinstance(got, str):  # the ids numbered by first appearance, as csv rows give them
        with open(path, encoding="utf-8-sig", newline="") as fh:
            rows = [row for row in list(csv.reader(fh))[1:] if row]
        names = [list(dict.fromkeys(column)) for column in zip(*rows)]
        codes = [np.array([n.index(c) for c in column], dtype=np.int32)
                 for n, column in zip(names, zip(*rows))]
        assert got == ([(c.dtype, c.shape, c.tobytes()) for c in codes], names)
    by_bytes = decided_matrix(path)
    with mock.patch("kappasim.corpus._read_bytes", return_value=None):
        assert by_bytes == decided_matrix(path)


@settings(max_examples=300, deadline=None)
@given(matrix_files())
def test_byte_pass_matches_the_csv_reader(scratch, data):
    path = scratch / "matrix.csv"
    path.write_bytes(data)
    assert_byte_pass_decides_as_csv(path)


def lookup_rows():
    """40 raters x 300 items, rater-major, in about 3.3 blocks: every later
    block looks its items and labels up in the tables of earlier ones."""
    labels = SENTIMENT_CATEGORIES[:2]
    return [f"r{r},s{i},{labels[(r + i) % 2]}" for r in range(40) for i in range(300)]


def wide_then_narrow(rows):
    # the wide item's rows open the file, so only the first block takes the
    # wide route for items; s299 is numbered there, is missing from the next
    # two blocks (whose items seed the table) and misses it in the last one
    wide = [row.replace(",s0,", ",item-zero-wide,") for row in rows if ",s0," in row]
    late = [row for row in rows if ",s299," in row and int(row[1:row.index(",")]) >= 4]
    return wide + [row for row in rows if ",s0," not in row and row not in late] + late


def late_new_ids(rows):
    # s150 and the label "negative" first appear in the third block, where
    # they miss the tables and join them, and are found there in the fourth
    late = [row.rsplit(",", 1)[0] + ",negative" for row in rows if ",s150," in row]
    rows = [row for row in rows if ",s150," not in row]
    return rows[:8000] + late[:20] + rows[8000:] + late[20:]


LOOKUP_CASES = {
    "plain": lambda rows: rows,
    "wide_then_narrow": wide_then_narrow,
    "late_new_ids": late_new_ids,
    "late_quote": lambda rows: rows[:-1] + ['"r39"' + rows[-1][3:]],
    "late_field_count": lambda rows: rows[:-5] + [rows[-5].rsplit(",", 1)[0]] + rows[-4:],
    "late_duplicate": lambda rows: rows[:-3] + [rows[0]] + rows[-3:],
    "late_missing": lambda rows: rows[:-10] + rows[-9:],
}


@pytest.mark.parametrize("table_keys", [_TABLE_KEYS, 299])  # 299: s150's miss finds it full
@pytest.mark.parametrize("case", sorted(LOOKUP_CASES))
def test_lookup_tables_decide_as_the_csv_reader(tmp_path, monkeypatch, case, table_keys):
    monkeypatch.setattr("kappasim.corpus._TABLE_KEYS", table_keys)
    rows = LOOKUP_CASES[case](lookup_rows())
    path = write_lines(tmp_path / "matrix.csv", ["rater,item,label", *rows])
    data = path.read_bytes()
    assert len(data) > 3 * _BLOCK_BYTES
    if case == "wide_then_narrow":
        first, second = data.index(b",s299,"), data.index(b"r4,s299,")
        assert data.rindex(b"item-zero-wide") < first < _BLOCK_BYTES < 3 * _BLOCK_BYTES < second
    if case == "late_new_ids":
        first, last = data.index(b",s150,"), data.rindex(b",s150,")
        assert 2 * _BLOCK_BYTES < first < 3 * _BLOCK_BYTES < last
    assert_byte_pass_decides_as_csv(path)


def test_later_blocks_find_known_ids_in_the_lookup_table(tmp_path, monkeypatch):
    # every item and label is in the first block: no later block numbers one
    matrix = generate_synthetic(40, 500, noise=0.5, seed=2)
    path = tmp_path / "matrix.csv"
    write_matrix(matrix, path)
    assert path.stat().st_size > 4 * _BLOCK_BYTES
    numbered = []

    def spy(keys, kind):
        numbered.append(kind)
        return _numbered(keys, kind)

    monkeypatch.setattr("kappasim.corpus._numbered", spy)
    _, items, tokens = kinds = ({}, {}, {})
    read_columns(path, MATRIX_HEADER, "matrix", kinds)
    assert len(items) == 500 and len(tokens) == 3
    assert [kind is items for kind in numbered].count(True) == 1
    assert [kind is tokens for kind in numbered].count(True) == 1


def test_all_distinct_ids_hold_no_more_than_the_capped_tables(tmp_path, monkeypatch):
    # Every item is new in its block, so the item table stops at the second
    # block. The ids' own strings and dicts take over 100 bytes each, so the
    # read is measured against the same read with no table at all.
    matrix = generate_synthetic(2, 150_000, noise=0.5, seed=5)
    path = tmp_path / "matrix.csv"
    write_matrix(matrix, path)

    def peak():
        tracemalloc.start()
        try:
            assert read_matrix(path) == matrix
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    with_tables = peak()
    monkeypatch.setattr("kappasim.corpus._TABLE_KEYS", 0)  # no column keeps a table
    assert with_tables < peak() + 3 * 12 * _TABLE_KEYS


def test_own_matrix_takes_the_byte_pass(tmp_path, monkeypatch):
    matrix = generate_synthetic(40, 500, noise=0.5, seed=2)  # 20,000 rows: many blocks
    path = tmp_path / "matrix.csv"
    write_matrix(matrix, path)
    assert path.stat().st_size > 4 * _BLOCK_BYTES
    monkeypatch.setattr("kappasim.corpus._read_csv", None)  # any call would fail
    assert read_matrix(path) == matrix


def test_a_fault_in_a_later_block_leaves_the_dicts_to_the_csv_reader(tmp_path, monkeypatch):
    # the byte pass numbers the first blocks' ids, then meets a quote
    lines = filler_rows(FILLER_ROWS)
    assert len("\n".join(lines)) > 2 * _BLOCK_BYTES
    path = write_lines(tmp_path / "matrix.csv", ["rater,item,label", *lines, '"z",s0,neutral'])
    want_kinds = ({}, {}, {})
    want = _read_csv(path, MATRIX_HEADER, "matrix", want_kinds)
    sizes = []

    def csv_reader(path, header, what, kinds):
        sizes.append([len(kind) for kind in kinds])
        return _read_csv(path, header, what, kinds)

    monkeypatch.setattr("kappasim.corpus._read_csv", csv_reader)
    kinds = ({}, {}, {})
    got = read_columns(path, MATRIX_HEADER, "matrix", kinds)
    assert sizes == [[0, 0, 0]]  # the csv reader starts from empty dicts
    assert [list(k) for k in kinds] == [list(k) for k in want_kinds]
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_a_column_too_wide_for_its_block_goes_to_the_csv_reader(tmp_path, monkeypatch):
    # one 2,000-byte rater id among a block's short ones: its S{w} grid would
    # take rows x 2,000 bytes, over _GRID_BYTES, so the csv reader decides
    matrix = generate_synthetic(400, 10, noise=0.5, seed=4)
    wide = AnnotationMatrix(("w" * 2_000, *matrix.raters[1:]), matrix.items,
                            matrix.categories, matrix.codes)
    path = tmp_path / "matrix.csv"
    write_matrix(wide, path)
    calls = []

    def csv_reader(*args):
        calls.append(args[0])
        return _read_csv(*args)

    monkeypatch.setattr("kappasim.corpus._read_csv", csv_reader)
    assert read_matrix(path) == wide
    assert calls == [path]


def test_a_byte_that_is_not_utf8_in_a_later_block_is_the_csv_readers_error(tmp_path):
    text = "\n".join(["rater,item,label", *filler_rows(FILLER_ROWS), ""]).encode("utf-8")
    path = tmp_path / "matrix.csv"
    path.write_bytes(text + b"z\xff,s0,neutral\n")
    with pytest.raises(DataError, match=re.escape(f"{path}: cannot read matrix file: not UTF-8")):
        read_matrix(path)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(matrix_ids, min_size=2, max_size=4, unique=True),
    st.lists(matrix_ids, min_size=1, max_size=4, unique=True),
    st.lists(matrix_ids | matrix_labels, min_size=2, max_size=3, unique=True),
    st.randoms(use_true_random=False),
)
def test_joined_writer_matches_the_csv_writer(scratch, raters, items, cats, random):
    codes = np.array([[random.randrange(len(cats)) for _ in items] for _ in raters])
    matrix = AnnotationMatrix(tuple(raters), tuple(items), tuple(cats), codes)
    path = scratch / "written.csv"

    def written(write):
        try:
            write()
        except DataError as exc:  # a NUL before Python 3.11
            return str(exc)
        return path.read_bytes()

    rows = [(r, i, label(matrix, r, i)) for r in matrix.raters for i in matrix.items]
    assert written(lambda: write_matrix(matrix, path)) == written(
        lambda: write_table(path, MATRIX_HEADER, rows)
    )


def test_write_matrix_memory_does_not_grow_with_raters(tmp_path):
    peaks = []
    for raters in (1_000, 10_000):
        matrix = generate_synthetic(raters, 30, noise=0.5, seed=raters)
        tracemalloc.start()
        try:
            write_matrix(matrix, tmp_path / "matrix.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 64 * 1024


def test_read_matrix_memory_is_bounded_by_its_columns(tmp_path):
    # The peak is the three int32 columns, 12 bytes a cell, while the last
    # one is joined from its chunks (4 more), plus one 64 KB block's
    # arrays; after them come the int32 cell numbers, a uint8 label grid
    # and the matrix's int64 codes. Splitting the whole file at once would
    # hold a str object per line and per cell, over 200 bytes a cell.
    matrix = generate_synthetic(1_000, 100, noise=0.5, seed=3)
    path = tmp_path / "matrix.csv"
    write_matrix(matrix, path)
    tracemalloc.start()
    try:
        read_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * matrix.codes.size


def test_generate_synthetic_memory_is_bounded_by_its_draws():
    # the noise draw (8 bytes a cell, kept as a 1-byte mask), the int64
    # replacements that take the truth in place, and the matrix's int64
    # copy: about 17 bytes a cell; a third full grid from np.where is 25
    generate_synthetic(2, 1)  # NumPy's first draw imports and allocates on its own
    tracemalloc.start()
    try:
        matrix = generate_synthetic(1_000, 300, noise=0.5, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * matrix.codes.size


@pytest.mark.parametrize("cells,width", [(2**31 - 1, np.int32), (2**31, np.int64)])
def test_cell_numbers_are_int32_below_2_to_the_31_cells(cells, width):
    assert _cell_dtype(cells) is width
    assert np.iinfo(width).max >= cells - 1  # the largest cell number fits


def test_either_cell_width_reads_the_same_matrix(tmp_path, monkeypatch):
    # rows in random order, so the cells are not numbered in file order
    matrix = generate_synthetic(30, 20, noise=0.5, seed=6)
    path = tmp_path / "matrix.csv"
    write_matrix(matrix, path)
    header, *body = path.read_text(encoding="utf-8").splitlines()
    random.Random(6).shuffle(body)
    write_lines(path, [header, *body])
    narrow = read_matrix(path)
    monkeypatch.setattr("kappasim.corpus._cell_dtype", lambda cells: np.int64)
    wide = read_matrix(path)
    assert narrow == wide and narrow.categories == wide.categories
    assert narrow.codes.dtype == wide.codes.dtype == np.int64
    assert all(label(narrow, r, i) == label(matrix, r, i) for r in matrix.raters
               for i in matrix.items)


def test_a_cell_over_the_field_limit_is_a_data_error(tmp_path, capsys):
    long_id = "x" * 140_000
    path = write_lines(tmp_path / "matrix.csv", ["rater,item,label", "a,s1,positive",
                                                 f"{long_id},s1,neutral"])
    assert main(["kappa", "--input", str(path)]) == 2
    err = f"kappasim: error: {path}:3: field larger than field limit (131072)\n"
    assert capsys.readouterr().err == err
    # the error-path rescan and the survey reader name the line the same way
    with pytest.raises(DataError, match=re.escape(f"{path}:3: field larger than field limit")):
        raise _row_error(path, lambda row: False, "never")
    raw = write_lines(tmp_path / "raw.csv", ["id,cs,pe,s1", "r1,Yes,Yes,Positive", "",
                                             f"r2,Yes,Yes,{long_id}"])
    mapping = ColumnMapping("cs", "pe", ("s1",), respondent_id_col="id")
    with pytest.raises(DataError, match=re.escape(f"{raw}:4: field larger than field limit")):
        load_raw(raw, mapping)


def test_a_row_the_csv_writer_refuses_names_its_line(tmp_path):
    # csv.writer refuses a row that is not a sequence; before Python 3.11
    # also a cell holding a NUL. Quoted newlines and chunks count in lines.
    path = tmp_path / "table.csv"
    rows = [("a\nb", "x"), *[("c", "d")] * 3000, 5]
    with pytest.raises(DataError, match=re.escape(f"{path}:3004: iterable expected")):
        write_table(path, ("h1", "h2"), rows)


finite = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def run_sets(draw):
    k = draw(st.integers(3, 7))
    m = draw(st.integers(1, 6))
    kappa_hat = draw(finite)
    rows = draw(st.lists(st.lists(finite, min_size=k - 2, max_size=k - 2), min_size=m, max_size=m))
    kappas = np.array([row + [kappa_hat] for row in rows])
    config = ExperimentConfig(k=k, m=m, seed=0)
    return RunSet(config, tuple(f"r{i}" for i in range(k)), kappa_hat, kappas)


@settings(max_examples=60, deadline=None)
@given(run_sets())
def test_runs_round_trip(scratch, runs):
    path = scratch / "runs.csv"
    write_runs(runs, path)
    ns, table = read_runs(path)
    assert ns == runs.ns
    assert np.array_equal(table, at_file_precision(runs.kappas))


def test_write_runs_memory_does_not_grow_with_m(tmp_path):
    peaks = []
    for m in (2_000, 20_000):
        kappas = np.random.default_rng(m).uniform(-1.0, 1.0, (m, 44))
        kappas[:, -1] = 0.5
        team = tuple(f"r{i}" for i in range(45))
        runs = RunSet(ExperimentConfig(k=45, m=m, seed=0), team, 0.5, kappas)
        tracemalloc.start()
        try:
            write_runs(runs, tmp_path / "runs.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 64 * 1024


def runs_reference(first, ns, kappas):
    """The runs rows of runs first+1.. by Python's .6f, one value at a time."""
    return "".join(
        f"{r},{n},{v:.6f}\n" for r, row in enumerate(kappas.tolist(), first + 1)
        for n, v in zip(ns, row)
    ).encode()


def runs_file(runs):
    return b"run_id,n,kappa\n" + runs_reference(0, runs.ns, runs.kappas)


def run_set(kappas):
    """A RunSet over an (m, k-1) table whose last column is made constant."""
    kappas = np.array(kappas, dtype=np.float64)
    kappas[:, -1] = 0.5
    m, c = kappas.shape
    return RunSet(ExperimentConfig(k=c + 1, m=m, seed=0), tuple(f"r{i}" for i in range(c + 1)),
                  0.5, kappas)


# Values where .6f rounding is easy to get wrong. The NumPy path prints
# signed zeros, values that round to zero from below and the ends of
# kappa's range; exact ties j/2**7 and near-ties x.5e-6 send their block to
# the template, as do values outside the NumPy path's range.
SIGNS = [0.0, -0.0, -4e-7, 4e-7, 1.0, -1.0, 0.9999994, -0.9999996]
TIES = [0.0078125, -0.0078125, 3 / 128, 2.5e-6, -2.5e-6, 0.5e-6, -5e-7, 1.0000005, 0.1234565]
LARGE = [999.999, 999.9995, -999.9999996, 1000.0, 2**31 / 1e6, -(2**31) / 1e6, 1e300, -1e300]
NON_FINITE = [math.inf, -math.inf, math.nan]
ADVERSARIAL = SIGNS + TIES + LARGE + NON_FINITE


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 9).flatmap(lambda c: st.lists(
        st.lists(st.floats(-2.0, 2.0) | st.sampled_from(SIGNS), min_size=c, max_size=c),
        min_size=1, max_size=12)),
    st.none() | st.tuples(
        st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(TIES + LARGE + NON_FINITE),
        st.integers(0, 200),
    ),
    st.integers(0, 2000),
)
def test_runs_bytes_are_python_format(rows, hard, first):
    # a block of kappa-like values, and at times one hard value among them
    kappas = np.array(rows, dtype=np.float64)
    if hard is not None:
        value, at = hard
        kappas.flat[at % kappas.size] = value
    ns = range(2, kappas.shape[1] + 2)
    assert mc._runs_bytes(first, ns, kappas) == runs_reference(first, ns, kappas)


@pytest.mark.parametrize("value", ADVERSARIAL)
def test_one_hard_value_sends_only_its_block_to_the_template(tmp_path, monkeypatch, value):
    kappas = np.random.default_rng(7).uniform(-1.0, 1.0, (40, 5))
    kappas[25, 2] = value
    runs = run_set(kappas)
    template, runs_text = [], mc._runs_text

    def spy(first, ns, block):
        template.append(first)
        return runs_text(first, ns, block)

    monkeypatch.setattr(mc, "_runs_text", spy)
    monkeypatch.setattr(mc, "_BLOCK_BYTES", 32 * 5 * 10)  # blocks of 10 runs
    path = tmp_path / "runs.csv"
    write_runs(runs, path)
    assert path.read_bytes() == runs_file(runs)
    y = value * 1e6
    fast = abs(y) < 999_999_999 and abs(y - math.floor(y) - 0.5) > 1e-6
    assert template == ([] if fast else [20])


@pytest.mark.parametrize("m", [1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001])
@pytest.mark.parametrize("step", [1, 7, 9, 10, 99, 100, 10**6])
def test_runs_file_across_id_widths_and_blocks(tmp_path, monkeypatch, m, step):
    # run ids change width at 10, 100 and 1000, inside a block or where a
    # new one starts; ids past 255 would wrap in any uint8 arithmetic
    runs = run_set(np.random.default_rng(m).uniform(-1.0, 1.0, (m, 2)))
    monkeypatch.setattr(mc, "_BLOCK_BYTES", 32 * 2 * step)
    path = tmp_path / "runs.csv"
    write_runs(runs, path)
    assert path.read_bytes() == runs_file(runs)


@pytest.mark.parametrize("k", [101, 102, 300])
def test_runs_file_with_three_digit_subset_sizes(tmp_path, k):
    runs = run_set(np.random.default_rng(k).uniform(-1.0, 1.0, (260, k - 1)))
    path = tmp_path / "runs.csv"
    write_runs(runs, path)
    assert path.read_bytes() == runs_file(runs)


def test_digit_cells_widen_before_they_compute():
    for values in (np.arange(250, 256, dtype=np.uint8), np.array([0, 9, 10, 65535], np.uint16)):
        cells = mc._digit_cells(values)
        assert cells.dtype == np.uint8
        width = len(str(int(values.max())))
        assert [bytes(row) for row in cells] == [
            str(int(v)).rjust(width, "\0").encode() for v in values
        ]


def test_runs_file_is_the_same_on_every_dest(tmp_path, capsys):
    kappas = np.random.default_rng(3).uniform(-1.0, 1.0, (300, 6))
    kappas[5, 1] = 0.0078125  # one block through the template
    runs = run_set(kappas)
    want = runs_file(runs)
    path = tmp_path / "runs.csv"
    write_runs(runs, path)
    text = io.StringIO()
    write_runs(runs, text)
    write_runs(runs, None)
    assert path.read_bytes() == want
    assert text.getvalue().encode() == want
    assert capsys.readouterr().out.encode() == want
    # a passed stream's own encoding and newline translation apply
    raw = io.BytesIO()
    stream = io.TextIOWrapper(raw, encoding="utf-16", newline="\r\n")
    write_runs(runs, stream)
    stream.flush()
    assert raw.getvalue().decode("utf-16") == want.decode().replace("\n", "\r\n")


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda c: st.lists(st.lists(finite, min_size=7, max_size=7), min_size=c, max_size=c)
))
def test_stats_round_trip(scratch, rows):
    data = np.array([sorted(row[:5]) + row[5:] for row in rows]).T
    stats = SubsetStats(tuple(range(2, len(rows) + 2)), *data)
    path = scratch / "stats.csv"
    write_stats(stats, path)
    back = read_stats(path)
    assert back.ns == stats.ns
    for name in ("mins", "q1s", "medians", "q3s", "maxs", "means", "stds"):
        assert np.array_equal(getattr(back, name), at_file_precision(getattr(stats, name)))


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 8).flatmap(
    lambda k: st.tuples(
        st.just(k),
        st.lists(st.tuples(finite, finite, finite | st.just(math.nan)), min_size=k - 1,
                 max_size=k - 1),
    )
))
def test_variation_round_trip(scratch, case):
    k, rows = case
    mu, sigma, cv = (np.array(col) for col in zip(*rows))
    table = VariationTable(k, tuple(range(2, k + 1)), mu, sigma, cv, (0.5,), 0.5, 0.5)
    path = scratch / "variation.csv"
    write_variation(table, path)
    back = read_variation(path)
    assert [n for n, _, _, _ in back] == list(table.ns)
    for got, want in ((1, mu), (2, sigma), (3, cv)):
        expected = at_file_precision(want)
        actual = np.array([row[got] for row in back])
        assert np.array_equal(actual, expected, equal_nan=True)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 10).flatmap(
    lambda k: st.tuples(
        st.just(k),
        st.lists(st.integers(2, k), min_size=1, max_size=k - 1, unique=True),
        st.lists(finite, min_size=k, max_size=k),
    )
))
def test_minima_round_trip(scratch, case):
    k, ns, ys = case
    points = MinPoints(tuple((n, ys[n - 2]) for n in sorted(ns)), k=k, kappa_hat=0.5)
    path = scratch / "minima.csv"
    write_minima(points, path)
    ns, ys = read_columns(path, MINIMA_HEADER, "minima", ("int", "float"))
    assert ns.tolist() == list(points.ns)
    assert np.array_equal(ys, at_file_precision(points.ys))
