"""The shared CSV table rules, and write/read round-trips of every table.

Every table reader goes through one helper, so every reader must apply
the same rules: exact header, blank lines skipped, exactly one field per
header column, at least one row, finite numbers (``nan`` only in the cv
columns), and ``path:line`` in every row error.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappasim import (
    SENTIMENT_CATEGORIES,
    AnnotationMatrix,
    DataError,
    ExperimentConfig,
    MinPoints,
    RunSet,
    SubsetStats,
    VariationTable,
    read_matrix,
    read_minima,
    read_runs,
    read_stats,
    read_variation,
    write_matrix,
    write_minima,
    write_runs,
    write_stats,
    write_variation,
)
from kappasim.corpus import MATRIX_HEADER, write_table

from conftest import label

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
    "minima": (read_minima, "n,min_kappa", ["2,0.1", "3,0.2"]),
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


@pytest.mark.parametrize("defect", ["extra field", "bad value"])
def test_error_names_the_physical_line_after_a_multi_line_field(table, defect):
    what, reader, header, rows, path = table
    if defect == "extra field":
        bad, message = rows[1] + ",junk", f"malformed {what} row"
    elif what == "matrix":
        bad, message = rows[1].replace("neutral", "Positive"), "unknown label token 'Positive'"
    else:
        bad, message = rows[1].rsplit(",", 1)[0] + ",zzz", f"malformed {what} row"
    # the first header cell is quoted over lines 1-3 (spaces around header
    # cells are ignored), so the bad row is CSV record 4 on line 6
    first, rest = header.split(",", 1)
    write_lines(path, [f'"{first}\n\n",{rest}', rows[0], "", bad])
    with pytest.raises(DataError, match=re.escape(f"{path}:6: {message}")):
        reader(path)


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


finite = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def run_sets(draw):
    k = draw(st.integers(3, 7))
    m = draw(st.integers(1, 6))
    kappa_hat = draw(finite)
    rows = draw(st.lists(st.lists(finite, min_size=k - 2, max_size=k - 2), min_size=m, max_size=m))
    kappas = np.array([row + [kappa_hat] for row in rows])
    perms = np.tile(np.arange(k), (m, 1))
    config = ExperimentConfig(k=k, m=m, seed=0)
    return RunSet(config, tuple(f"r{i}" for i in range(k)), kappa_hat, perms, kappas)


@settings(max_examples=60, deadline=None)
@given(run_sets())
def test_runs_round_trip(scratch, runs):
    path = scratch / "runs.csv"
    write_runs(runs, path)
    ns, table = read_runs(path)
    assert ns == runs.ns
    assert np.array_equal(table, at_file_precision(runs.kappas))


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
    back = read_minima(path)
    assert [n for n, _ in back] == list(points.ns)
    assert np.array_equal([y for _, y in back], at_file_precision(points.ys))
