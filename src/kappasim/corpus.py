"""Annotation corpora: survey ingestion, preprocessing, synthesis, matrix file I/O.

Everything downstream (agreement, simulation, dispersion) consumes the
:class:`AnnotationMatrix` built here: a complete rater x item grid of
categorical sentiment labels.
"""

from __future__ import annotations

import csv
import io
import itertools
import sys
import typing
import warnings
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from kappasim.errors import DataError

SENTIMENT_CATEGORIES = ("positive", "neutral", "negative")

MATRIX_HEADER = ("rater", "item", "label")


@contextmanager
def open_text_dest(dest: str | Path | TextIO | None) -> Iterator[TextIO]:
    """Yield a writable text stream: a file at ``dest``, a passed-through
    stream, or stdout when ``dest`` is None."""
    if dest is None:
        yield sys.stdout
    elif hasattr(dest, "write"):
        yield dest  # type: ignore[misc]
    else:
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            yield fh


@contextmanager
def open_text_source(path: Path, what: str) -> Iterator[TextIO]:
    """Yield ``path`` open for reading as UTF-8 text (an optional BOM is
    dropped). A missing file raises FileNotFoundError; a file that cannot
    be read (a directory, no permission, bytes that are not UTF-8) raises
    :class:`DataError` naming it, whether at open or while being read."""
    if not path.exists():
        raise FileNotFoundError(f"{what} file not found: {path}")
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            yield fh
    except UnicodeDecodeError:
        raise DataError(f"{path}: cannot read {what} file: not UTF-8 text") from None
    except OSError as exc:
        raise DataError(f"{path}: cannot read {what} file: {exc.strerror}") from None


_CHUNK_ROWS = 2048  # rows parsed or formatted at a time, so memory holds one chunk


def write_table(
    dest: str | Path | TextIO | None, header: Sequence[str], rows: Iterable[Sequence[object]]
) -> None:
    """Write a CSV table to ``dest`` (see :func:`open_text_dest`): the
    header row, then ``rows``, ``\\n`` line endings, quoting as needed,
    a chunk of rows at a time. A row the csv module cannot write (one
    holding a NUL before Python 3.11) raises :class:`DataError` naming
    the line it would start on."""
    rows = iter(rows)
    with open_text_dest(dest) as fh:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        line, chunk = 1, [header]  # line: where the chunk starts
        while chunk:
            try:
                writer.writerows(chunk)
            except csv.Error as exc:  # the rows before the bad one are in buf
                line += buf.getvalue().count("\n")
                raise DataError(f"{getattr(fh, 'name', '<stream>')}:{line}: {exc}") from None
            text = buf.getvalue()
            fh.write(text)
            line += text.count("\n")
            buf.seek(0)
            buf.truncate()
            chunk = list(itertools.islice(rows, _CHUNK_ROWS))


# Per column kind: how read_columns parses a cell, the dtype the values
# must fit, and their check ("nan" marks an undefined value only where a
# table allows it).
_COLUMN_KINDS = {
    "int": (int, np.int64, None),
    "float": (float, np.float64, np.isfinite),
    "float_or_nan": (float, np.float64, lambda values: ~np.isinf(values)),
}


def _column(kind: str | dict[str, int], cells: Sequence[str]) -> np.ndarray:
    """One chunk of a column: a dict numbers the strings by first appearance
    and the chunk holds those numbers; a numeric kind parses and checks each
    cell. A bad cell raises ValueError or OverflowError."""
    if isinstance(kind, dict):
        new = itertools.filterfalse(kind.__contains__, dict.fromkeys(cells))
        kind.update(zip(new, itertools.count(len(kind))))  # by first appearance
        return np.fromiter(map(kind.__getitem__, cells), np.int32, len(cells))
    parse, dtype, check = _COLUMN_KINDS[kind]
    values = np.array(list(map(parse, cells)), dtype=dtype)
    if check is not None and not check(values).all():
        raise ValueError
    return values


def _cell_ok(kind: str | dict[str, int], cell: str) -> bool:
    try:
        _column(kind, [cell])  # a dict takes any string; its numbers are moot on this error path
    except (ValueError, OverflowError):
        return False
    return True


def _joined(chunks: list[list[np.ndarray]]) -> list[np.ndarray]:
    """Each column from its chunks; a dict's numbers, int32 while chunks
    are alive (half the memory), become int64."""
    return [np.concatenate(c, dtype=np.promote_types(c[0].dtype, np.int64)) for c in chunks]


def read_columns(
    path: str | Path, header: Sequence[str], what: str, kinds: Sequence[str | dict[str, int]]
) -> list[np.ndarray]:
    """Read a CSV table with exactly ``header`` as its first row, one array
    per column. Every kappasim table is read here, by these rules:

    - UTF-8, with or without a byte-order mark; a missing file raises
      FileNotFoundError naming the table (``what``);
    - the header cells, stripped of surrounding spaces, equal ``header``;
    - blank rows are skipped;
    - every other row has exactly one field per header column;
    - each cell parses as its column's kind: ``"int"`` (within int64),
      ``"float"`` (finite) or ``"float_or_nan"`` (by Python's int and
      float), or, for a dict, any string: the dict, empty at the call,
      numbers the column's strings by first appearance and the column
      holds those numbers;
    - at least one data row.

    A broken rule raises :class:`DataError` naming the file; for a bad
    row, the error names the first malformed line, and so does a cell
    longer than ``csv.field_size_limit()``. A table whose kinds are all
    numeric (runs, stats, minima, variation) takes one NumPy pass, and any
    other (the matrix) a pass that splits the text at ``\\n`` and commas.
    A file either pass refuses goes through the csv reader, by the same
    rules: the set of accepted files is the same.
    """
    path = Path(path)
    fast = _read_numeric if all(isinstance(kind, str) for kind in kinds) else _read_split
    with open_text_source(path, what) as fh:
        try:  # on any fault the csv reader decides, and names it
            line = fh.readline()  # one longer than the field limit is the csv reader's error
            own = tuple(h.strip() for h in line.split(",")) == tuple(header)
            columns = fast(fh, kinds) if own and len(line) <= csv.field_size_limit() else None
        except Exception:
            columns = None
    if columns is not None:
        return columns
    for kind in kinds:
        if isinstance(kind, dict):
            kind.clear()  # the csv reader numbers into the same dicts
    return _read_csv(path, header, what, kinds)


def _read_numeric(fh: TextIO, kinds: Sequence[str]) -> list[np.ndarray] | None:
    """:func:`read_columns`' NumPy pass over the body of the file ``fh`` is
    open on, after its header line: one ``np.loadtxt`` call on the path, so
    that NumPy's reader pulls the file in chunks rather than a line at a
    time from ``fh``. None on a body that is not ASCII or holds
    ``\\x1c``-``\\x1f`` (NumPy reads those otherwise than Python), on a
    failed check or no rows. A warning is an error (NumPy 1.x reads ``1.0``
    into an int column with only a warning)."""
    body = fh.read()
    if not body.isascii() or any(c in body for c in "\x1c\x1d\x1e\x1f"):
        return None
    del body  # not kept alive next to the table
    dtype = [(str(j), _COLUMN_KINDS[kind][1]) for j, kind in enumerate(kinds)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = np.loadtxt(
            fh.name, dtype, delimiter=",", comments=None, quotechar=None, ndmin=1,
            skiprows=1, encoding="utf-8",
        )
    columns = [table[name] for name in table.dtype.names]
    checks = (_COLUMN_KINDS[kind][2] for kind in kinds)
    ok = len(table) and all(check is None or check(c).all() for check, c in zip(checks, columns))
    return columns if ok else None


_BLOCK_CHARS = 16 * 1024  # text split at a time: one block's strings are alive at once


def _read_split(fh: TextIO, kinds: Sequence[str | dict[str, int]]) -> list[np.ndarray] | None:
    """:func:`read_columns`' split pass over ``fh`` after its header line, a
    block of text at a time, or None on a ``"``, ``\\r`` or NUL (the csv
    reader quotes, ends lines or, before Python 3.11, fails there), a line
    longer than the csv field limit, a line with a wrong field count or no
    data rows. Lines end at ``\\n`` only, as for the csv reader
    (``str.splitlines`` also ends them at ``\\x0b``, ``\\x85``, ...)."""
    commas, limit = len(kinds) - 1, csv.field_size_limit()
    chunks: list[list[np.ndarray]] = [[] for _ in kinds]
    tail = ""  # a line cut at the end of the last block
    while True:
        block = fh.read(_BLOCK_CHARS)
        text = tail + block
        if any(c in text for c in '"\r\0'):
            return None
        lines = text.split("\n")
        tail = lines.pop() if block else ""
        if len(tail) > limit:
            return None
        if rows := list(filter(None, lines)):  # a blank line is no row
            if len(text) > limit and max(map(len, rows)) > limit:
                return None
            if set(map(str.count, rows, itertools.repeat(","))) != {commas}:
                return None
            cells = ",".join(rows).split(",")
            for j, (kind, column) in enumerate(zip(kinds, chunks)):
                column.append(_column(kind, cells[j :: len(kinds)]))
        if not block:
            break
    return _joined(chunks) if chunks[0] else None


@contextmanager
def _csv_reader(fh: TextIO, path: str | Path, delimiter: str = ",") -> Iterator[typing.Any]:
    """Yield a csv reader of ``fh``; an error it raises (a field longer than
    ``csv.field_size_limit()``; a NUL before Python 3.11) becomes a
    :class:`DataError` naming ``path`` and the line it is on."""
    reader = csv.reader(fh, delimiter=delimiter)
    try:
        yield reader
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None


def _read_csv(
    path: Path, header: Sequence[str], what: str, kinds: Sequence[str | dict[str, int]]
) -> list[np.ndarray]:
    """:func:`read_columns` by Python's csv reader, a chunk of rows at a time."""
    chunks: list[list[np.ndarray]] = [[] for _ in kinds]
    with open_text_source(path, what) as fh, _csv_reader(fh, path) as reader:
        if tuple(h.strip() for h in next(reader, ())) != tuple(header):
            raise DataError(f"{path}: expected header '{','.join(header)}'")
        while rows := list(itertools.islice(reader, _CHUNK_ROWS)):
            if not all(rows):  # a blank line reads as []
                rows = [row for row in rows if row]
                if not rows:
                    continue
            try:
                if set(map(len, rows)) - {len(header)}:
                    raise ValueError
                for j, (kind, column) in enumerate(zip(kinds, chunks)):
                    column.append(_column(kind, list(map(itemgetter(j), rows))))
            except (ValueError, OverflowError):
                raise _row_error(
                    path,
                    lambda row: len(row) != len(header) or not all(map(_cell_ok, kinds, row)),
                    f"malformed {what} row",
                ) from None
    if not chunks[0]:
        raise DataError(f"{path}: no {what} rows")
    return _joined(chunks)


def _row_error(
    path: str | Path, is_bad: Callable[[list[str]], bool], message: str, delimiter: str = ","
) -> DataError:
    """A ``path:line: message`` error naming the physical line of the first
    data row (blank rows skipped) where ``is_bad(row)`` holds. A quoted
    field may span lines, so the file is rescanned to count them; that
    happens only here, on the error path."""
    with open(path, encoding="utf-8-sig", newline="") as fh, _csv_reader(
        fh, path, delimiter
    ) as reader:
        next(reader, None)  # the header
        line = reader.line_num + 1  # where the next row starts
        for row in reader:
            if row and is_bad(row):
                break
            line = reader.line_num + 1
    return DataError(f"{path}:{line}: {message}")


@dataclass(frozen=True, eq=False)
class AnnotationMatrix:
    """Complete rater x item grid of categorical labels.

    ``codes[r, i]`` indexes ``categories`` for the label that rater
    ``raters[r]`` assigned to item ``items[i]``. The grid is always
    complete; partially labeled data must be filtered out before
    construction. Equality compares identifiers, orderings, and per-cell
    labels; the ordering of ``categories`` is presentational only.
    """

    raters: tuple[str, ...]
    items: tuple[str, ...]
    categories: tuple[str, ...]
    codes: np.ndarray
    rater_rows: Mapping[str, int] = field(init=False, repr=False)  # rater -> row of codes

    def __post_init__(self) -> None:
        rows = {r: i for i, r in enumerate(self.raters)}
        if len(rows) != len(self.raters):
            raise DataError("rater identifiers must be unique")
        object.__setattr__(self, "rater_rows", MappingProxyType(rows))
        if len(set(self.items)) != len(self.items):
            raise DataError("item identifiers must be unique")
        if len(set(self.categories)) != len(self.categories):
            raise DataError("category tokens must be unique")
        if len(self.raters) < 2:
            raise DataError("matrix needs at least 2 raters")
        if len(self.items) < 1:
            raise DataError("matrix needs at least 1 item")
        if len(self.categories) < 2:
            raise DataError("matrix needs at least 2 categories")
        codes = np.asarray(self.codes)
        if not np.issubdtype(codes.dtype, np.integer):
            raise DataError("label codes must be integers")
        if codes.shape != (len(self.raters), len(self.items)):
            raise DataError(
                f"codes shape {codes.shape} does not match "
                f"{len(self.raters)} raters x {len(self.items)} items"
            )
        if codes.size and (codes.min() < 0 or codes.max() >= len(self.categories)):
            raise DataError("label code out of category range")
        codes = codes.astype(np.int64, copy=True)
        codes.setflags(write=False)
        object.__setattr__(self, "codes", codes)

    def rows(self, raters: Sequence[str]) -> list[int]:
        """Row of ``codes`` for each rater; DataError naming any rater not
        in the matrix."""
        try:
            return [self.rater_rows[r] for r in raters]
        except KeyError:
            missing = [r for r in raters if r not in self.rater_rows]
            raise DataError(f"team members not in matrix: {', '.join(missing)}") from None

    def counts(self) -> np.ndarray:
        """Per-item category counts over all raters, shape (items, categories)."""
        k = len(self.categories)
        cells = np.arange(len(self.items)) * k + self.codes
        return np.bincount(cells.ravel(), minlength=len(self.items) * k).reshape(-1, k)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AnnotationMatrix):
            return NotImplemented
        if self.raters != other.raters or self.items != other.items:
            return False
        if set(self.categories) != set(other.categories):
            return False
        remap = np.array([self.categories.index(c) for c in other.categories])
        return bool(np.array_equal(self.codes, remap[other.codes]))


@dataclass(frozen=True)
class ColumnMapping:
    """Schema of a raw survey file: which columns hold what, and how raw
    answer values translate to label tokens.

    The encodings must be injective per category: a raw value may map to
    at most one label.
    """

    computer_scientist_col: str
    programming_experience_col: str
    label_cols: tuple[str, ...]
    positive_values: tuple[str, ...] = ("Positive",)
    neutral_values: tuple[str, ...] = ("Neutral",)
    negative_values: tuple[str, ...] = ("Negative",)
    no_values: tuple[str, ...] = ("No", "no")
    missing_values: tuple[str, ...] = ()
    respondent_id_col: str | None = None
    delimiter: str = ","

    def __post_init__(self) -> None:
        if not self.label_cols:
            raise DataError("mapping declares no label columns")
        if len(set(self.label_cols)) != len(self.label_cols):
            raise DataError("label columns must be unique")
        if len(self.delimiter) != 1:
            raise DataError(f"delimiter must be exactly one character, got {self.delimiter!r}")
        self.encoding()  # validates injectivity

    def encoding(self) -> dict[str, str]:
        """Raw value -> label token map."""
        enc: dict[str, str] = {}
        for values, token in (
            (self.positive_values, "positive"),
            (self.neutral_values, "neutral"),
            (self.negative_values, "negative"),
        ):
            for raw in values:
                if enc.get(raw, token) != token:
                    raise DataError(f"raw value {raw!r} encodes more than one label")
                enc[raw] = token
        return enc

    def required_columns(self) -> tuple[str, ...]:
        cols = [self.computer_scientist_col, self.programming_experience_col]
        if self.respondent_id_col is not None:
            cols.append(self.respondent_id_col)
        cols.extend(self.label_cols)
        return tuple(cols)


def load_mapping(path: str | Path) -> ColumnMapping:
    """Parse a key=value mapping config file.

    Lines are ``key = value``; blank lines and ``#`` comments are ignored.
    The keys are the fields of :class:`ColumnMapping`; those without a
    default are required. Tuple fields take comma-separated tokens, and
    any other value may be the escape ``\\t`` for a tab (a tab-separated
    survey's ``delimiter``).
    """
    path = Path(path)
    with open_text_source(path, "mapping") as fh:
        text = fh.read()
    types = typing.get_type_hints(ColumnMapping)
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in types:
            raise DataError(f"{path}:{lineno}: unknown mapping key {key!r}")
        if key in values:
            raise DataError(f"{path}:{lineno}: repeated mapping key {key!r}")
        if typing.get_origin(types[key]) is tuple:
            values[key] = tuple(tok.strip() for tok in value.split(",") if tok.strip())
        else:
            values[key] = "\t" if value == "\\t" else value
    for f in fields(ColumnMapping):
        if f.default is MISSING and f.name not in values:
            raise DataError(f"mapping file {path} is missing {f.name!r}")
    return ColumnMapping(**values)  # type: ignore[arg-type]


@dataclass(frozen=True)
class RawSurveyTable:
    """Raw survey responses: one record per respondent, values untranslated."""

    columns: tuple[str, ...]
    rows: tuple[dict[str, str | None], ...]
    ids: tuple[str, ...]
    mapping: ColumnMapping

    def __post_init__(self) -> None:
        if len(self.ids) != len(self.rows):
            raise DataError("one identifier per respondent row required")
        if len(set(self.ids)) != len(self.ids):
            raise DataError("duplicate respondent id")


@dataclass(frozen=True)
class PreprocessReport:
    """Counts produced by the two preprocessing filters."""

    total_in: int
    removed_non_developers: int
    removed_incomplete: int
    retained: int

    def __post_init__(self) -> None:
        if self.total_in != self.removed_non_developers + self.removed_incomplete + self.retained:
            raise DataError("preprocess counts do not add up")


def load_raw(path: str | Path, mapping: ColumnMapping) -> RawSurveyTable:
    """Read a delimiter-separated survey file with a header row.

    Values stay untranslated; a row with more fields than the header is
    a :class:`DataError` naming its line. Respondent ids come from
    ``mapping.respondent_id_col`` when declared, otherwise they are
    synthesized from the row number.
    """
    path = Path(path)
    with open_text_source(path, "survey") as fh, _csv_reader(
        fh, path, mapping.delimiter
    ) as reader:
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, header row required") from None
        header = [h.strip() for h in header]
        missing = [c for c in mapping.required_columns() if c not in header]
        if missing:
            raise DataError(f"{path}: missing mapped column(s): {', '.join(missing)}")
        repeated = [c for c in mapping.required_columns() if header.count(c) > 1]
        if repeated:  # a row dict would keep only the last of them
            raise DataError(f"{path}: repeated mapped column(s): {', '.join(repeated)}")
        rows: list[dict[str, str | None]] = []
        for record in reader:
            if len(record) > len(header):
                raise _row_error(
                    path, lambda row: len(row) > len(header), "malformed survey row",
                    mapping.delimiter,
                )
            if record:
                rows.append(
                    {col: (record[i] if i < len(record) else None) for i, col in enumerate(header)}
                )
    if mapping.respondent_id_col is not None:
        ids = tuple((row.get(mapping.respondent_id_col) or "").strip() for row in rows)
        if len(set(ids)) != len(ids):
            raise DataError(f"{path}: duplicate respondent id")
    else:
        width = max(4, len(str(len(rows))))
        ids = tuple(f"row{i + 1:0{width}d}" for i in range(len(rows)))
    return RawSurveyTable(tuple(header), tuple(rows), ids, mapping)


def _is_missing(value: str | None, mapping: ColumnMapping) -> bool:
    if value is None:
        return True
    value = value.strip()
    return value == "" or value in mapping.missing_values


def preprocess(raw: RawSurveyTable) -> tuple[AnnotationMatrix, PreprocessReport]:
    """Apply the two retention filters and build the annotation matrix.

    Filter 1 (first): drop respondents answering "No" to either the
    computer-scientist or the programming-experience question. Filter 2:
    drop respondents with any label column missing. A respondent failing
    both filters counts only under filter 1. Retained respondents must
    number at least 2 and have every label translatable.
    """
    mapping = raw.mapping
    no_values = set(mapping.no_values)
    encoding = mapping.encoding()

    developers: list[int] = []
    for idx, row in enumerate(raw.rows):
        cs = (row.get(mapping.computer_scientist_col) or "").strip()
        pe = (row.get(mapping.programming_experience_col) or "").strip()
        if cs in no_values or pe in no_values:
            continue
        developers.append(idx)
    removed_non_developers = len(raw.rows) - len(developers)

    complete: list[int] = []
    for idx in developers:
        row = raw.rows[idx]
        if any(_is_missing(row.get(col), mapping) for col in mapping.label_cols):
            continue
        complete.append(idx)
    removed_incomplete = len(developers) - len(complete)

    report = PreprocessReport(
        total_in=len(raw.rows),
        removed_non_developers=removed_non_developers,
        removed_incomplete=removed_incomplete,
        retained=len(complete),
    )
    if len(complete) < 2:
        raise DataError(
            f"fewer than 2 respondents retained ({len(complete)}); "
            "agreement cannot be computed"
        )

    cat_index = {c: i for i, c in enumerate(SENTIMENT_CATEGORIES)}
    codes = np.zeros((len(complete), len(mapping.label_cols)), dtype=np.int64)
    for r, idx in enumerate(complete):
        row = raw.rows[idx]
        for i, col in enumerate(mapping.label_cols):
            value = (row.get(col) or "").strip()
            if value not in encoding:
                raise DataError(
                    f"unmappable raw label value {value!r} in column {col!r} "
                    f"for respondent {raw.ids[idx]!r}"
                )
            codes[r, i] = cat_index[encoding[value]]
    matrix = AnnotationMatrix(
        raters=tuple(raw.ids[idx] for idx in complete),
        items=tuple(mapping.label_cols),
        categories=SENTIMENT_CATEGORIES,
        codes=codes,
    )
    return matrix, report


def generate_synthetic(
    raters: int,
    items: int,
    categories: int = 3,
    noise: float = 0.0,
    seed: int = 0,
) -> AnnotationMatrix:
    """Synthesize a matrix with a tunable agreement level.

    One ground-truth category per item is drawn uniformly; each rater
    independently keeps the truth with probability ``1 - noise`` and
    otherwise substitutes a uniform draw over all categories (the truth
    included). ``noise=0`` forces unanimity, ``noise=1`` gives i.i.d.
    uniform labels. Deterministic in ``seed``.
    """
    if raters < 2:
        raise DataError("raters must be >= 2")
    if items < 1:
        raise DataError("items must be >= 1")
    if categories < 2:
        raise DataError("categories must be >= 2")
    if not 0.0 <= noise <= 1.0:
        raise DataError(f"noise must be within [0, 1], got {noise}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    truth = rng.integers(categories, size=items)
    flip = rng.random((raters, items)) < noise
    replacement = rng.integers(categories, size=(raters, items))
    codes = np.where(flip, replacement, truth[None, :])
    if categories == 3:
        cats = SENTIMENT_CATEGORIES
    else:
        cats = tuple(f"c{i + 1}" for i in range(categories))
    rw = len(str(raters))
    iw = len(str(items))
    return AnnotationMatrix(
        raters=tuple(f"p{j + 1:0{rw}d}" for j in range(raters)),
        items=tuple(f"s{i + 1:0{iw}d}" for i in range(items)),
        categories=cats,
        codes=codes,
    )


def write_matrix(matrix: AnnotationMatrix, dest: str | Path | TextIO | None) -> None:
    """Write the long-format matrix file: header ``rater,item,label``, one
    row per (rater, item), rater-major order, one rater at a time.

    When no rater, item or category holds a character the csv writer
    quotes or refuses (``,``, ``"``, ``\\r``, ``\\n``, NUL), each rater's rows
    are one join of prebuilt ``item,label`` strings; otherwise they go
    through :func:`write_table`. The bytes are the same either way."""
    cats, items = matrix.categories, matrix.items
    grid = zip(matrix.raters, matrix.codes)
    names = itertools.chain(matrix.raters, items, cats)
    if any(c in name for name in names for c in ',"\r\n\0'):
        rows = ((r, i, cats[c]) for r, codes in grid for i, c in zip(items, codes.tolist()))
        write_table(dest, MATRIX_HEADER, rows)
        return
    tails = np.array([f"{i},{c}" for i in items for c in cats], dtype=object)
    starts = np.arange(len(items)) * len(cats)  # each item's first tail
    with open_text_dest(dest) as fh:
        fh.write(",".join(MATRIX_HEADER) + "\n")
        for r, codes in grid:
            fh.write(f"{r}," + f"\n{r},".join(tails[starts + codes].tolist()) + "\n")


def read_matrix(path: str | Path) -> AnnotationMatrix:
    """Read a long-format matrix file back into an :class:`AnnotationMatrix`.

    Rows may appear in any order; rater/item ordering follows first
    appearance. Label tokens are matched exactly (case-sensitive). The
    category set is the canonical sentiment triple when every token
    belongs to it, otherwise the distinct tokens in first-appearance order.
    """
    # Number raters, items and tokens by first appearance: dict lookups
    # keep the read linear, and three integer columns replace the strings
    # of every cell.
    raters: dict[str, int] = {}
    items: dict[str, int] = {}
    tokens: dict[str, int] = {}
    rater_idx, item_idx, token_idx = read_columns(
        path, MATRIX_HEADER, "matrix", (raters, items, tokens)
    )
    for token in tokens:  # in first-appearance order
        # Tokens are case-sensitive; a case-variant of a canonical label is
        # a data defect, not a new category.
        if token not in SENTIMENT_CATEGORIES and token.lower() in SENTIMENT_CATEGORIES:
            raise _row_error(path, lambda row: row[2] == token, f"unknown label token {token!r}")
    inferred = set(tokens) <= set(SENTIMENT_CATEGORIES)
    cats = SENTIMENT_CATEGORIES if inferred else tuple(tokens)
    rater_names, item_names = list(raters), list(items)

    n_cells = len(raters) * len(items)
    cell = rater_idx * len(items) + item_idx
    present = np.zeros(n_cells, dtype=bool)
    present[cell] = True
    if np.count_nonzero(present) != len(cell):
        seen: set[int] = set()
        r, i = divmod(next(c for c in cell.tolist() if c in seen or seen.add(c)), len(items))
        rater, item = rater_names[r], item_names[i]
        copies = itertools.count()  # the duplicate is that cell's second row
        raise _row_error(
            path,
            lambda row: row[:2] == [rater, item] and next(copies) == 1,
            f"duplicate cell for rater {rater!r}, item {item!r}",
        )
    if len(cell) != n_cells:
        r, i = divmod(int(np.argmin(present)), len(items))
        raise DataError(
            f"{path}: incomplete matrix: rater {rater_names[r]!r} has no label for "
            f"item {item_names[i]!r}"
        )
    codes = np.empty(n_cells, dtype=np.int64)
    codes[cell] = np.array([cats.index(t) for t in tokens])[token_idx]
    return AnnotationMatrix(tuple(raters), tuple(items), cats, codes.reshape(-1, len(items)))
