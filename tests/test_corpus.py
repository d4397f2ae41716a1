import dataclasses
import io
import re
import typing

import numpy as np
import pytest

from kappasim import (
    SENTIMENT_CATEGORIES,
    AnnotationMatrix,
    ColumnMapping,
    DataError,
    PreprocessReport,
    generate_synthetic,
    load_mapping,
    load_raw,
    preprocess,
    read_matrix,
    write_matrix,
)

from conftest import label, matrix_from_codes, rows, subset


def small_matrix() -> AnnotationMatrix:
    # positive = 0, neutral = 1, negative = 2
    return AnnotationMatrix(
        raters=("a", "b", "c"),
        items=("s1", "s2", "s3", "s4"),
        categories=SENTIMENT_CATEGORIES,
        codes=np.array([[0, 1, 2, 0], [0, 1, 0, 2], [2, 1, 2, 0]]),
    )


class TestAnnotationMatrix:
    def test_from_labels_and_accessors(self):
        m = small_matrix()
        assert label(m, "a", "s3") == "negative"
        assert label(m, "c", "s1") == "negative"
        assert m.codes.shape == (3, 4)
        assert not m.codes.flags.writeable

    def test_counts(self):
        m = small_matrix()
        counts = m.counts()
        assert counts.tolist() == [[2, 0, 1], [0, 3, 0], [1, 0, 2], [2, 0, 1]]
        assert counts.sum() == 12

    def test_subset_restricts_raters(self):
        m = small_matrix()
        sub = subset(m, ("c", "a"))
        assert sub.raters == ("c", "a")
        assert sub.items == m.items
        assert label(sub, "c", "s1") == "negative"

    def test_rater_rows_lookup(self):
        m = small_matrix()
        assert rows(m, m.raters) == [0, 1, 2]
        assert rows(m, ("c", "a", "c")) == [2, 0, 2]
        assert np.array_equal(m.codes[rows(m, ("c", "a"))], m.codes[[2, 0]])

    def test_unknown_rater_errors_unchanged(self):
        # one message, naming every unknown rater, wherever rows are looked up
        m = small_matrix()
        for call in (lambda: rows(m, ["a", "zz", "b", "yy"]),
                     lambda: subset(m, ("a", "zz", "b", "yy"))):
            with pytest.raises(DataError, match="^team members not in matrix: zz, yy$"):
                call()

    @pytest.mark.parametrize(
        "raters,items",
        [(("a", "a"), ("s1",)), (("a",), ("s1",))],
    )
    def test_bad_raters_rejected(self, raters, items):
        with pytest.raises(DataError):
            AnnotationMatrix(
                raters=raters,
                items=items,
                categories=SENTIMENT_CATEGORIES,
                codes=np.zeros((len(raters), len(items)), dtype=np.int64),
            )

    def test_code_out_of_range_rejected(self):
        with pytest.raises(DataError, match="out of category range"):
            AnnotationMatrix(("a", "b"), ("s1",), ("positive", "neutral"), np.array([[0], [2]]))

    def test_equality_ignores_category_order(self):
        m1 = matrix_from_codes([[0, 1], [1, 2]], n_categories=3)
        m2 = AnnotationMatrix(
            raters=m1.raters,
            items=m1.items,
            categories=("negative", "positive", "neutral"),
            codes=np.array([[1, 2], [2, 0]]),
        )
        assert m1 == m2
        m3 = matrix_from_codes([[0, 1], [1, 1]], n_categories=3)
        assert m1 != m3


class TestGenerateSynthetic:
    def test_zero_noise_is_unanimous(self):
        m = generate_synthetic(5, 50, 3, noise=0.0, seed=7)
        assert np.all(m.codes == m.codes[0])

    def test_determinism(self):
        a = generate_synthetic(6, 30, 3, noise=0.4, seed=123)
        b = generate_synthetic(6, 30, 3, noise=0.4, seed=123)
        c = generate_synthetic(6, 30, 3, noise=0.4, seed=124)
        assert a == b
        assert a != c

    def test_category_names(self):
        assert generate_synthetic(3, 5, 3, seed=0).categories == SENTIMENT_CATEGORIES
        assert generate_synthetic(3, 5, 4, seed=0).categories == ("c1", "c2", "c3", "c4")
        assert generate_synthetic(3, 5, 2, seed=0).categories == ("c1", "c2")

    def test_identifier_shapes(self):
        m = generate_synthetic(12, 101, 3, seed=0)
        assert m.raters[0] == "p01" and m.raters[-1] == "p12"
        assert m.items[0] == "s001" and m.items[-1] == "s101"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(raters=1, items=5),
            dict(raters=3, items=0),
            dict(raters=3, items=5, categories=1),
            dict(raters=3, items=5, noise=-0.1),
            dict(raters=3, items=5, noise=1.2),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DataError):
            generate_synthetic(**{"categories": 3, "noise": 0.5, "seed": 0, **kwargs})


class TestMatrixFile:
    def test_roundtrip(self, tmp_path):
        m = small_matrix()
        path = tmp_path / "m.csv"
        write_matrix(m, path)
        back = read_matrix(path)
        assert back == m
        assert back.raters == m.raters
        assert back.items == m.items

    def test_roundtrip_custom_categories(self, tmp_path):
        m = generate_synthetic(4, 6, 5, noise=0.5, seed=3)
        path = tmp_path / "m.csv"
        write_matrix(m, path)
        assert read_matrix(path) == m

    def test_write_to_stream(self):
        buf = io.StringIO()
        write_matrix(small_matrix(), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "rater,item,label"
        assert lines[1] == "a,s1,positive"
        assert len(lines) == 1 + 3 * 4

    def test_read_incomplete(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("rater,item,label\na,s1,positive\na,s2,neutral\nb,s1,positive\n")
        with pytest.raises(DataError, match="incomplete matrix"):
            read_matrix(path)

    def test_read_case_mismatched_token(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("rater,item,label\na,s1,POSITIVE\nb,s1,positive\n")
        with pytest.raises(DataError, match="unknown label token"):
            read_matrix(path)

    def test_read_token_outside_declared_categories(self, tmp_path):
        # tokens outside the sentiment triple become the categories
        path = tmp_path / "m.csv"
        path.write_text("rater,item,label\na,s1,up\nb,s1,down\n")
        m = read_matrix(path)
        assert m.categories == ("up", "down")

    def test_read_bad_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("rater,item\na,s1\n")
        with pytest.raises(DataError, match="expected header"):
            read_matrix(path)

    def test_read_duplicate_cell(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("rater,item,label\na,s1,positive\na,s1,negative\nb,s1,positive\n")
        with pytest.raises(DataError, match="duplicate cell"):
            read_matrix(path)

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_matrix(tmp_path / "absent.csv")

    def test_row_order_is_free(self, tmp_path):
        m = small_matrix()
        path = tmp_path / "m.csv"
        write_matrix(m, path)
        lines = path.read_text().splitlines()
        shuffled = [lines[0]] + lines[:0:-1]
        path.write_text("\n".join(shuffled) + "\n")
        # rater/item order now follows first appearance, so compare labels
        back = read_matrix(path)
        for rater in m.raters:
            for item in m.items:
                assert label(back, rater, item) == label(m, rater, item)


MAPPING_TEXT = """\
# survey schema
computer_scientist_col = cs
programming_experience_col = pe
respondent_id_col = id
label_cols = s1, s2, s3
positive_values = Positive, pos
neutral_values = Neutral
negative_values = Negative
missing_values = N/A
"""


def mapping_line(f: dataclasses.Field) -> tuple[str, object]:
    """A ``key = value`` line setting field ``f``, and the value it loads as."""
    if typing.get_origin(typing.get_type_hints(ColumnMapping)[f.name]) is tuple:
        return f"{f.name} = x, y", ("x", "y")
    return f"{f.name} = v", "v"


MAPPING_FIELDS = dataclasses.fields(ColumnMapping)
REQUIRED_FIELDS = [f for f in MAPPING_FIELDS if f.default is dataclasses.MISSING]


class TestColumnMapping:
    @pytest.mark.parametrize("f", MAPPING_FIELDS, ids=lambda f: f.name)
    def test_every_field_is_a_key(self, tmp_path, f):
        line, value = mapping_line(f)
        path = tmp_path / "map.cfg"
        others = (mapping_line(r)[0] for r in REQUIRED_FIELDS if r is not f)  # each key once
        path.write_text("\n".join([*others, line]) + "\n")
        assert getattr(load_mapping(path), f.name) == value

    @pytest.mark.parametrize("f", REQUIRED_FIELDS, ids=lambda f: f.name)
    def test_every_field_without_a_default_is_required(self, tmp_path, f):
        path = tmp_path / "map.cfg"
        path.write_text("".join(mapping_line(r)[0] + "\n" for r in REQUIRED_FIELDS if r is not f))
        with pytest.raises(DataError, match=re.escape(f"is missing {f.name!r}")):
            load_mapping(path)

    def test_load_mapping(self, tmp_path):
        path = tmp_path / "map.cfg"
        path.write_text(MAPPING_TEXT)
        mapping = load_mapping(path)
        assert mapping.label_cols == ("s1", "s2", "s3")
        assert mapping.encoding()["pos"] == "positive"
        assert mapping.no_values == ("No", "no")
        assert mapping.missing_values == ("N/A",)
        assert mapping.respondent_id_col == "id"

    def test_tab_delimiter_escape(self, tmp_path):
        path = tmp_path / "map.cfg"
        path.write_text(MAPPING_TEXT + "delimiter = \\t\n")
        assert load_mapping(path).delimiter == "\t"

    @pytest.mark.parametrize("value", [";;", ""])
    def test_delimiter_must_be_one_character(self, tmp_path, value):
        path = tmp_path / "map.cfg"
        path.write_text(MAPPING_TEXT + f"delimiter = {value}\n")
        with pytest.raises(DataError, match="^delimiter must be exactly one character, got "):
            load_mapping(path)

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "map.cfg"
        path.write_text("computer_scientist_col = cs\n")
        with pytest.raises(DataError, match="missing"):
            load_mapping(path)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "map.cfg"
        path.write_text(MAPPING_TEXT + "frobnicate = yes\n")
        with pytest.raises(DataError, match="unknown mapping key"):
            load_mapping(path)

    def test_repeated_key(self, tmp_path):
        # a later line would otherwise replace the first: label_cols s2 alone
        path = tmp_path / "map.cfg"
        path.write_text(MAPPING_TEXT + "label_cols = s2\n")
        line = MAPPING_TEXT.count("\n") + 1
        message = f"{path}:{line}: repeated mapping key 'label_cols'"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            load_mapping(path)

    def test_encoding_must_be_injective(self):
        with pytest.raises(DataError, match="more than one label"):
            ColumnMapping(
                computer_scientist_col="cs",
                programming_experience_col="pe",
                label_cols=("s1",),
                positive_values=("Yes",),
                negative_values=("Yes",),
            )

    def test_packaged_template_loads(self):
        from importlib.resources import files

        mapping = load_mapping(str(files("kappasim") / "data" / "zenodo_mapping.cfg"))
        assert len(mapping.label_cols) == 100
        assert mapping.encoding()["Positive"] == "positive"


def raw_csv(rows: list[str]) -> str:
    return "id,cs,pe,s1,s2,s3\n" + "\n".join(rows) + "\n"


@pytest.fixture
def mapping(tmp_path) -> ColumnMapping:
    path = tmp_path / "map.cfg"
    path.write_text(MAPPING_TEXT)
    return load_mapping(path)


class TestLoadRaw:
    def test_loads_rows_untranslated(self, tmp_path, mapping):
        path = tmp_path / "raw.csv"
        path.write_text(raw_csv(["r1,Yes,Yes,Positive,Neutral,Negative"]))
        raw = load_raw(path, mapping)
        assert len(raw.rows) == 1
        assert raw.rows[0]["s1"] == "Positive"
        assert raw.ids == ("r1",)

    def test_empty_table_ok(self, tmp_path, mapping):
        path = tmp_path / "raw.csv"
        path.write_text("id,cs,pe,s1,s2,s3\n")
        assert len(load_raw(path, mapping).rows) == 0

    def test_missing_column(self, tmp_path, mapping):
        path = tmp_path / "raw.csv"
        path.write_text("id,cs,s1,s2,s3\nr1,Yes,Positive,Neutral,Negative\n")
        with pytest.raises(DataError, match="missing mapped column"):
            load_raw(path, mapping)

    def test_repeated_mapped_column(self, tmp_path):
        # a row dict would keep the second s1 ("Negative") and drop the first
        path = tmp_path / "raw.csv"
        path.write_text("id,cs,pe,s1, s1 ,s2,note,note\nr1,Yes,Yes,Positive,Negative,Neutral,a,b\n")
        mapping = ColumnMapping("cs", "pe", ("s1", "s2"), respondent_id_col="id")
        message = f"{path}: repeated mapped column(s): s1"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            load_raw(path, mapping)
        path.write_text("id,cs,pe,s1,s2,note,note\nr1,Yes,Yes,Positive,Neutral,a,b\n")
        assert load_raw(path, mapping).rows[0]["s1"] == "Positive"  # an unmapped one is read

    def test_duplicate_id(self, tmp_path, mapping):
        path = tmp_path / "raw.csv"
        path.write_text(
            raw_csv(
                [
                    "r1,Yes,Yes,Positive,Neutral,Negative",
                    "r1,Yes,Yes,Positive,Neutral,Negative",
                ]
            )
        )
        with pytest.raises(DataError, match="duplicate respondent id"):
            load_raw(path, mapping)

    def test_synthesized_ids_without_id_column(self, tmp_path):
        map_path = tmp_path / "map.cfg"
        map_path.write_text(MAPPING_TEXT.replace("respondent_id_col = id\n", ""))
        path = tmp_path / "raw.csv"
        path.write_text(raw_csv(["r1,Yes,Yes,Positive,Neutral,Negative"]))
        raw = load_raw(path, load_mapping(map_path))
        assert raw.ids == ("row0001",)

    def test_extra_fields_rejected(self, tmp_path, mapping):
        path = tmp_path / "raw.csv"
        # the quoted field spans two lines, so the bad row starts on line 4
        path.write_text(
            raw_csv(
                [
                    'r1,Yes,Yes,Positive,Neutral,"Nega\ntive"',
                    "r2,Yes,Yes,Positive,Neutral,Negative,EXTRA",
                ]
            )
        )
        with pytest.raises(DataError, match=r"raw\.csv:4: malformed survey row$"):
            load_raw(path, mapping)

    def test_trailing_delimiter_is_an_extra_field(self, tmp_path, mapping):
        path = tmp_path / "raw.csv"
        path.write_text(raw_csv(["r1,Yes,Yes,Positive,Neutral,Negative,"]))
        with pytest.raises(DataError, match=r"raw\.csv:2: malformed survey row$"):
            load_raw(path, mapping)

    def test_short_row_reads_as_missing(self, tmp_path, mapping):
        path = tmp_path / "raw.csv"
        path.write_text(raw_csv(["r1,Yes,Yes,Positive"]))
        assert load_raw(path, mapping).rows[0]["s2"] is None

    def test_empty_file(self, tmp_path, mapping):
        path = tmp_path / "raw.csv"
        path.write_text("")
        with pytest.raises(DataError, match="header row required"):
            load_raw(path, mapping)


class TestPreprocess:
    def test_filters_and_report(self, tmp_path, mapping):
        path = tmp_path / "raw.csv"
        path.write_text(
            raw_csv(
                [
                    "r1,Yes,Yes,Positive,Neutral,Negative",
                    "r2,No,Yes,Positive,Neutral,Negative",  # filter 1
                    "r3,Yes,no,Positive,Neutral,Negative",  # filter 1
                    "r4,No,Yes,Positive,,Negative",  # fails both, counted under 1
                    "r5,Yes,Yes,Positive,,Negative",  # filter 2
                    "r6,Yes,Yes,Positive,N/A,Negative",  # declared missing token
                    "r7,Yes,Yes,pos,Neutral,Negative",  # alternate spelling retained
                ]
            )
        )
        matrix, report = preprocess(load_raw(path, mapping))
        assert report == PreprocessReport(7, 3, 2, 2)
        assert matrix.raters == ("r1", "r7")
        assert matrix.items == ("s1", "s2", "s3")
        assert matrix.categories == SENTIMENT_CATEGORIES
        assert label(matrix, "r7", "s1") == "positive"

    def test_conservation_and_idempotence(self, tmp_path, mapping):
        path = tmp_path / "raw.csv"
        path.write_text(
            raw_csv(
                [
                    "r1,Yes,Yes,Positive,Neutral,Negative",
                    "r2,No,Yes,Positive,Neutral,Negative",
                    "r3,Yes,Yes,Negative,Neutral,Positive",
                ]
            )
        )
        matrix, report = preprocess(load_raw(path, mapping))
        assert report.total_in == report.removed_non_developers + report.removed_incomplete + report.retained
        # feed the retained set back through: nothing more is removed
        again = tmp_path / "again.csv"
        lines = ["id,cs,pe,s1,s2,s3"]
        for rater in matrix.raters:
            labels = ",".join(label(matrix, rater, item).capitalize() for item in matrix.items)
            lines.append(f"{rater},Yes,Yes,{labels}")
        again.write_text("\n".join(lines) + "\n")
        matrix2, report2 = preprocess(load_raw(again, mapping))
        assert (report2.removed_non_developers, report2.removed_incomplete) == (0, 0)
        assert report2.retained == report.retained
        assert matrix2 == matrix

    def test_too_few_retained(self, tmp_path, mapping):
        path = tmp_path / "raw.csv"
        path.write_text(
            raw_csv(
                [
                    "r1,No,Yes,Positive,Neutral,Negative",
                    "r2,Yes,Yes,Positive,,Negative",
                    "r3,Yes,Yes,Positive,Neutral,Negative",
                ]
            )
        )
        with pytest.raises(DataError, match="fewer than 2"):
            preprocess(load_raw(path, mapping))

    def test_unmappable_label(self, tmp_path, mapping):
        path = tmp_path / "raw.csv"
        path.write_text(
            raw_csv(
                [
                    "r1,Yes,Yes,Positive,Sideways,Negative",
                    "r2,Yes,Yes,Positive,Neutral,Negative",
                ]
            )
        )
        with pytest.raises(DataError, match="unmappable raw label"):
            preprocess(load_raw(path, mapping))

    def test_report_counts_must_balance(self):
        with pytest.raises(DataError):
            PreprocessReport(total_in=5, removed_non_developers=1, removed_incomplete=1, retained=1)
