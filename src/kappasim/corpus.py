"""Annotation corpora: survey ingestion, preprocessing, synthesis, matrix file I/O.

Everything downstream (agreement, simulation, dispersion) consumes the
:class:`AnnotationMatrix` built here: a complete rater x item grid of
categorical sentiment labels.
"""

from __future__ import annotations

import csv
import itertools
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

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


def write_table(
    dest: str | Path | TextIO | None, header: Sequence[str], rows: Iterable[Sequence[object]]
) -> None:
    """Write a CSV table to ``dest`` (see :func:`open_text_dest`): the
    header row, then ``rows``, ``\\n`` line endings, quoting as needed."""
    with open_text_dest(dest) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


_CHUNK_ROWS = 2048  # rows read_table hands over at a time


def read_table(
    path: str | Path, header: Sequence[str], what: str
) -> Iterator[tuple[Sequence[int], list[list[str]]]]:
    """Read a CSV table with exactly ``header`` as its first row.

    Yields the data rows in chunks, as (record numbers, string fields), so
    that memory holds one chunk of the file's strings, not all of them.
    Records are numbered from 1 for the header; :func:`_row_error` turns a
    record number into the line it starts on.
    UTF-8 with an optional BOM; blank rows are skipped. Raises
    :class:`DataError` for a different header, a row without exactly one
    field per header column, or a file with no data rows; ``what`` names
    the table in the messages.
    """
    path = Path(path)
    with open_text_source(path, what) as fh:
        reader = csv.reader(fh)
        if tuple(h.strip() for h in next(reader, ())) != tuple(header):
            raise DataError(f"{path}: expected header '{','.join(header)}'")
        empty, next_record = True, 2
        while rows := list(itertools.islice(reader, _CHUNK_ROWS)):
            records: Sequence[int] = range(next_record, next_record + len(rows))
            next_record += len(rows)
            if not all(rows):  # a blank line reads as []
                records = [record for record, row in zip(records, rows) if row]
                rows = [row for row in rows if row]
            if set(map(len, rows)) - {len(header)}:
                bad = next(i for i, row in enumerate(rows) if len(row) != len(header))
                raise _row_error(path, records[bad], f"malformed {what} row")
            if rows:
                empty = False
                yield records, rows
    if empty:
        raise DataError(f"{path}: no {what} rows")


def _row_error(path: str | Path, record: int, message: str) -> DataError:
    """A ``path:line: message`` error for CSV record number ``record``
    (the header is record 1), naming the physical line the record starts
    on. A quoted field may span lines, so the file is rescanned to count
    them; that happens only here, on the error path."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        for _ in itertools.islice(reader, record - 1):
            pass
        return DataError(f"{path}:{reader.line_num + 1}: {message}")


# How read_columns parses each kind of column, and the check its values
# must pass: "nan" marks an undefined value only where a table allows it.
_COLUMN_KINDS = {
    "int": (int, None),
    "float": (float, np.isfinite),
    "float_or_nan": (float, lambda values: ~np.isinf(values)),
}


def _cell_ok(kind: str, cell: str) -> bool:
    parse, check = _COLUMN_KINDS[kind]
    try:
        value = parse(cell)
    except ValueError:
        return False
    return check is None or bool(check(value))


def read_columns(
    path: str | Path, header: Sequence[str], what: str, kinds: Sequence[str]
) -> list[np.ndarray]:
    """Read a table as in :func:`read_table`, one array per column.

    ``kinds`` gives each column's kind: ``"int"``, ``"float"`` (finite) or
    ``"float_or_nan"``. Cells are parsed by Python's ``int``/``float``. A
    bad cell raises :class:`DataError` naming its line.
    """
    chunks: list[list[np.ndarray]] = [[] for _ in kinds]
    for records, rows in read_table(path, header, what):
        try:
            for j, (kind, column) in enumerate(zip(kinds, chunks)):
                parse, check = _COLUMN_KINDS[kind]
                values = np.array(list(map(parse, map(itemgetter(j), rows))))
                if check is not None and not check(values).all():
                    raise ValueError
                column.append(values)
        except ValueError:
            bad = next(i for i, row in enumerate(rows) if not all(map(_cell_ok, kinds, row)))
            raise _row_error(path, records[bad], f"malformed {what} row") from None
    return [np.concatenate(column) for column in chunks]


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
        if self.categories == other.categories:
            return bool(np.array_equal(self.codes, other.codes))
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


_MAPPING_LIST_KEYS = (
    "label_cols",
    "positive_values",
    "neutral_values",
    "negative_values",
    "no_values",
    "missing_values",
)
_MAPPING_SCALAR_KEYS = (
    "computer_scientist_col",
    "programming_experience_col",
    "respondent_id_col",
    "delimiter",
)


def load_mapping(path: str | Path) -> ColumnMapping:
    """Parse a key=value mapping config file.

    Lines are ``key = value``; blank lines and ``#`` comments are ignored.
    List-valued keys take comma-separated tokens. ``delimiter`` accepts
    the two-character escape ``\\t`` for tab-separated files.
    """
    path = Path(path)
    with open_text_source(path, "mapping") as fh:
        text = fh.read()
    fields: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in _MAPPING_LIST_KEYS:
            fields[key] = tuple(tok.strip() for tok in value.split(",") if tok.strip())
        elif key in _MAPPING_SCALAR_KEYS:
            fields[key] = "\t" if value == "\\t" else value
        else:
            raise DataError(f"{path}:{lineno}: unknown mapping key {key!r}")
    for required in ("computer_scientist_col", "programming_experience_col", "label_cols"):
        if required not in fields:
            raise DataError(f"mapping file {path} is missing {required!r}")
    return ColumnMapping(**fields)  # type: ignore[arg-type]


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

    Values stay untranslated. Respondent ids come from
    ``mapping.respondent_id_col`` when declared, otherwise they are
    synthesized from the row number.
    """
    path = Path(path)
    with open_text_source(path, "survey") as fh:
        reader = csv.reader(fh, delimiter=mapping.delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, header row required") from None
        header = [h.strip() for h in header]
        missing = [c for c in mapping.required_columns() if c not in header]
        if missing:
            raise DataError(f"{path}: missing mapped column(s): {', '.join(missing)}")
        rows: list[dict[str, str | None]] = []
        for record in reader:
            if not record:
                continue
            row: dict[str, str | None] = {
                col: (record[i] if i < len(record) else None) for i, col in enumerate(header)
            }
            rows.append(row)
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
    row per (rater, item), rater-major order."""
    cats, items = matrix.categories, matrix.items
    grid = zip(matrix.raters, matrix.codes.tolist())
    rows = ((r, i, cats[c]) for r, codes in grid for i, c in zip(items, codes))
    write_table(dest, MATRIX_HEADER, rows)


def read_matrix(path: str | Path) -> AnnotationMatrix:
    """Read a long-format matrix file back into an :class:`AnnotationMatrix`.

    Rows may appear in any order; rater/item ordering follows first
    appearance. Label tokens are matched exactly (case-sensitive). The
    category set is the canonical sentiment triple when every token
    belongs to it, otherwise the distinct tokens in first-appearance order.
    """
    # Number raters, items and tokens by first appearance: dict lookups
    # keep the read linear, and four integer columns (record, rater, item,
    # token) replace the strings of every cell.
    raters: dict[str, int] = {}
    items: dict[str, int] = {}
    tokens: dict[str, int] = {}
    chunks = [
        np.array(
            [
                records,
                [raters.setdefault(r, len(raters)) for r, _, _ in rows],
                [items.setdefault(i, len(items)) for _, i, _ in rows],
                [tokens.setdefault(t, len(tokens)) for _, _, t in rows],
            ]
        )
        for records, rows in read_table(path, MATRIX_HEADER, "matrix")
    ]
    records, rater_idx, item_idx, token_idx = np.concatenate(chunks, axis=1)

    for token, code in tokens.items():  # in first-appearance order
        # Tokens are case-sensitive; a case-variant of a canonical label is
        # a data defect, not a new category.
        if token not in SENTIMENT_CATEGORIES and token.lower() in SENTIMENT_CATEGORIES:
            record = int(records[np.argmax(token_idx == code)])
            raise _row_error(path, record, f"unknown label token {token!r}")
    inferred = set(tokens) <= set(SENTIMENT_CATEGORIES)
    cats = SENTIMENT_CATEGORIES if inferred else tuple(tokens)
    rater_names, item_names = list(raters), list(items)

    n_cells = len(raters) * len(items)
    cell = rater_idx * len(items) + item_idx
    present = np.zeros(n_cells, dtype=bool)
    present[cell] = True
    if np.count_nonzero(present) != len(cell):
        seen: set[int] = set()
        row = next(j for j, c in enumerate(cell.tolist()) if c in seen or seen.add(c))
        rater, item = divmod(int(cell[row]), len(items))
        raise _row_error(
            path,
            int(records[row]),
            f"duplicate cell for rater {rater_names[rater]!r}, item {item_names[item]!r}",
        )
    if len(cell) != n_cells:
        rater, item = divmod(int(np.argmin(present)), len(items))
        raise DataError(
            f"{path}: incomplete matrix: rater {rater_names[rater]!r} has no label for "
            f"item {item_names[item]!r}"
        )
    codes = np.empty(n_cells, dtype=np.int64)
    codes[cell] = np.array([cats.index(t) for t in tokens])[token_idx]
    return AnnotationMatrix(tuple(raters), tuple(items), cats, codes.reshape(-1, len(items)))
