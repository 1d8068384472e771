from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from termcoder import (
    Annotation,
    CorpusFormat,
    CorpusFormatError,
    MatchTechnique,
    TermListFormat,
    evaluate,
)
from termcoder.corpus import (
    AnnotatedLine,
    CorpusRecord,
    gold_code_tuples,
    parse_aligned_causes,
    predicted_code_tuples,
    read_annotation_rows,
    read_term_list,
    write_annotations,
)

RAW = "SYNDROME DE GLISEMENT AVEC GRABATISATION DEPUIS OCTOBRE 2012"


def write_sample_corpus(path):
    path.write_text(
        "DocID;LineID;RawText;StandardText;ICD10\n"
        f"doc1;1;{RAW};syndrome glissement;R453\n"
        f"doc1;1;{RAW};grabatisation 2 mois;R263\n",
        encoding="utf-8",
    )


class TestParseAlignedCauses:
    def test_duplicated_raw_text_rows(self, tmp_path):
        path = tmp_path / "corpus.csv"
        write_sample_corpus(path)
        records = parse_aligned_causes(path)
        assert len(records) == 2
        assert {r.raw_text for r in records} == {RAW}
        assert [(r.standard_text, r.code) for r in records] == [
            ("syndrome glissement", "R453"),
            ("grabatisation 2 mois", "R263"),
        ]

    def test_header_only(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text("DocID;LineID;RawText;StandardText;ICD10\n", encoding="utf-8")
        assert parse_aligned_causes(path) == []

    def test_empty_optional_fields_become_none(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text(
            "DocID;LineID;RawText;StandardText;ICD10\ndoc1;1;DECES;;\n", encoding="utf-8"
        )
        records = parse_aligned_causes(path)
        assert records == [CorpusRecord("doc1", "1", "DECES", None, None)]

    def test_missing_configured_column_is_hard_error(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text("DocID;LineID;RawText\ndoc1;1;DECES\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="StandardText"):
            parse_aligned_causes(path)

    def test_empty_file_has_no_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        assert parse_aligned_causes(path) == []
        assert read_term_list(path) == []
        assert read_annotation_rows(path) == []

    def test_blank_rows_skipped_and_short_rows_padded(self, tmp_path, caplog):
        path = tmp_path / "corpus.csv"
        path.write_text(
            "DocID;LineID;RawText;StandardText;ICD10\n\ndoc1;1;DECES\n\ndoc1;2\n",
            encoding="utf-8",
        )
        # a short row's missing cells read as None: no standard text and no
        # code in the first row, no raw text (so a malformed row) in the second;
        # blank rows are neither records nor malformed
        with caplog.at_level("WARNING"):
            records = parse_aligned_causes(path)
        assert records == [CorpusRecord("doc1", "1", "DECES", None, None)]
        assert "skipped 1 malformed rows" in caplog.text

    def test_malformed_rows_skipped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "corpus.csv"
        path.write_text(
            "DocID;LineID;RawText;StandardText;ICD10\n"
            ";1;DECES;;\n"
            "doc1;1;DECES;deces;R99\n",
            encoding="utf-8",
        )
        with caplog.at_level("WARNING"):
            records = parse_aligned_causes(path)
        assert len(records) == 1
        assert "skipped 1 malformed rows" in caplog.text

    def test_custom_columns_and_delimiter(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text("doc,line,text,norm,icd\nd1,2,DECES,deces,R99\n", encoding="utf-8")
        fmt = CorpusFormat(
            delimiter=",",
            col_doc="doc",
            col_line="line",
            col_raw="text",
            col_standard="norm",
            col_code="icd",
        )
        records = parse_aligned_causes(path, fmt)
        assert records[0].doc_id == "d1"
        assert records[0].code == "R99"


class TestReadTermList:
    def test_named_columns(self, tmp_path):
        path = tmp_path / "terms.csv"
        path.write_text("label;code\nasthme;J459\navc;I640\n", encoding="utf-8")
        assert read_term_list(path) == [("asthme", "J459"), ("avc", "I640")]

    def test_index_columns_without_header(self, tmp_path):
        path = tmp_path / "terms.csv"
        path.write_text("J459;asthme\nI640;avc\n", encoding="utf-8")
        fmt = TermListFormat(label_column="1", code_column="0")
        assert read_term_list(path, fmt) == [("asthme", "J459"), ("avc", "I640")]

    def test_missing_named_column(self, tmp_path):
        path = tmp_path / "terms.csv"
        path.write_text("label;icd\nasthme;J459\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="code"):
            read_term_list(path)

    def test_cells_are_stripped(self, tmp_path):
        path = tmp_path / "terms.csv"
        path.write_text("label;code\n avc ; I640\nasthme;J459 \n", encoding="utf-8")
        assert read_term_list(path) == [("avc", "I640"), ("asthme", "J459")]

    def test_index_columns_short_row_reads_empty_and_blank_row_skipped(self, tmp_path, caplog):
        path = tmp_path / "terms.csv"
        path.write_text("J459;asthme\nI640\n\nR99;deces\n", encoding="utf-8")
        fmt = TermListFormat(label_column="1", code_column="0")
        assert read_term_list(path, fmt) == [("asthme", "J459"), ("", "I640"), ("deces", "R99")]
        assert caplog.text == ""

    def test_index_columns_byte_order_mark(self, tmp_path):
        path = tmp_path / "terms.csv"
        path.write_text("\ufeffasthme;J459\n", encoding="utf-8")
        fmt = TermListFormat(label_column="0", code_column="1")
        assert read_term_list(path, fmt) == [("asthme", "J459")]

    def test_index_columns_read_a_header_row_as_data(self, tmp_path):
        path = tmp_path / "terms.csv"
        path.write_text("label;code\nasthme;J459\n", encoding="utf-8")
        fmt = TermListFormat(label_column="0", code_column="1")
        assert read_term_list(path, fmt) == [("label", "code"), ("asthme", "J459")]

    @pytest.mark.parametrize(
        "label_column, code_column", [("1", "code"), ("\u00b2", "1")], ids=["one index", "superscript"]
    )
    def test_non_index_column_is_looked_up_by_name(self, tmp_path, label_column, code_column):
        path = tmp_path / "terms.csv"
        path.write_text("label;code\nasthme;J459\n", encoding="utf-8")
        fmt = TermListFormat(label_column=label_column, code_column=code_column)
        with pytest.raises(CorpusFormatError, match=f"{label_column!r} not found"):
            read_term_list(path, fmt)


class TestEvaluate:
    def test_identity(self):
        tuples = {("d1", "1", "A"), ("d2", "1", "B")}
        report = evaluate(tuples, tuples)
        assert (report.precision, report.recall, report.f_measure) == (1.0, 1.0, 1.0)

    def test_hand_counted_sets(self):
        gold = {("d", "1", c) for c in "abcd"}
        pred = {("d", "1", c) for c in "abe"}
        report = evaluate(gold, pred)
        assert (report.tp, report.fp, report.fn) == (2, 1, 2)
        assert report.precision == pytest.approx(2 / 3)
        assert report.recall == pytest.approx(0.5)
        assert report.f_measure == pytest.approx(4 / 7)

    def test_both_empty(self):
        report = evaluate([], [])
        assert (report.precision, report.recall, report.f_measure) == (1.0, 1.0, 1.0)

    def test_one_side_empty(self):
        gold = {("d", "1", "A")}
        empty_pred = evaluate(gold, [])
        assert (empty_pred.precision, empty_pred.recall, empty_pred.f_measure) == (0.0, 0.0, 0.0)
        empty_gold = evaluate([], gold)
        assert (empty_gold.precision, empty_gold.recall, empty_gold.f_measure) == (0.0, 0.0, 0.0)

    @given(
        st.sets(st.integers(0, 30), max_size=20),
        st.sets(st.integers(0, 30), max_size=20),
    )
    def test_swapping_sides_swaps_precision_and_recall(self, gold, pred):
        forward = evaluate(gold, pred)
        backward = evaluate(pred, gold)
        assert forward.precision == backward.recall
        assert forward.recall == backward.precision
        assert forward.f_measure == pytest.approx(backward.f_measure)

    @given(
        st.sets(st.integers(0, 40), min_size=1, max_size=25),
        st.sets(st.integers(0, 40), min_size=1, max_size=25),
    )
    def test_f_is_harmonic_mean_exactly(self, gold, pred):
        report = evaluate(gold, pred)
        expected = (
            Fraction(2 * report.tp, 2 * report.tp + report.fp + report.fn)
            if (2 * report.tp + report.fp + report.fn)
            else Fraction(1)
        )
        assert report.f_measure == pytest.approx(float(expected), abs=1e-12)


def annotation(start, end, label, code, *, start_token=0, end_token=0):
    return Annotation(
        start_char=start,
        end_char=end,
        start_token=start_token,
        end_token=end_token,
        matched_tokens=(label,),
        term_label=label,
        code=code,
        techniques=(MatchTechnique.PERFECT,),
    )


class TestAnnotationFile:
    def test_rows_ordered_by_doc_line_start(self, tmp_path):
        path = tmp_path / "out.csv"
        lines = [
            AnnotatedLine(
                "doc2", "1", "asthme avc", (annotation(7, 10, "avc", "I640"),)
            ),
            AnnotatedLine(
                "doc1",
                "2",
                "avc puis asthme",
                (
                    annotation(9, 15, "asthme", "J459"),
                    annotation(0, 3, "avc", "I640"),
                ),
            ),
            AnnotatedLine("doc1", "1", "asthme", (annotation(0, 6, "asthme", "J459"),)),
        ]
        count = write_annotations(lines, path)
        assert count == 4
        rows = read_annotation_rows(path)
        assert [(r.doc_id, r.line_id, r.start_char) for r in rows] == [
            ("doc1", "1", 0),
            ("doc1", "2", 0),
            ("doc1", "2", 9),
            ("doc2", "1", 7),
        ]
        assert rows[1].matched_text == "avc"
        assert rows[1].techniques == ("perfect",)

    def test_zero_annotations_header_only(self, tmp_path):
        path = tmp_path / "out.csv"
        count = write_annotations([AnnotatedLine("d1", "1", "rien ici", ())], path)
        assert count == 0
        assert read_annotation_rows(path) == []
        assert path.read_text(encoding="utf-8").startswith("doc_id;line_id;")

    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "out.csv"
        lines = [
            AnnotatedLine(
                "doc1",
                "1",
                "INS CARDIAQUE",
                (annotation(0, 13, "insuffisance cardiaque", "I50"),),
            )
        ]
        write_annotations(lines, path)
        first = read_annotation_rows(path)
        rewritten = tmp_path / "again.csv"
        write_annotations(
            [
                AnnotatedLine(
                    "doc1",
                    "1",
                    "INS CARDIAQUE",
                    (annotation(0, 13, "insuffisance cardiaque", "I50"),),
                )
            ],
            rewritten,
        )
        assert read_annotation_rows(rewritten) == first
        assert predicted_code_tuples(first) == {("doc1", "1", "I50")}


def test_gold_tuples_deduplicate_and_skip_missing_codes(tmp_path):
    path = tmp_path / "corpus.csv"
    path.write_text(
        "DocID;LineID;RawText;StandardText;ICD10\n"
        "d1;1;X;x;R99\n"
        "d1;1;X;x;R99\n"
        "d1;2;Y;;\n",
        encoding="utf-8",
    )
    assert gold_code_tuples(parse_aligned_causes(path)) == {("d1", "1", "R99")}
