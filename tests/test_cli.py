import json
import logging
from importlib import resources

import pytest

from termcoder import DictionarySpec, assemble_dictionary, evaluate
from termcoder.cli import main
from termcoder.corpus import gold_code_tuples, parse_aligned_causes, predicted_code_tuples, read_annotation_rows

HEADER = "DocID;LineID;RawText;StandardText;ICD10"


def write_rows(path, rows):
    path.write_text("\n".join([HEADER, *rows]) + "\n", encoding="utf-8")


@pytest.fixture
def heart_corpus(tmp_path):
    path = tmp_path / "train.csv"
    write_rows(
        path,
        [
            "t1;1;INSUFFISANCE CARDIAQUE;insuffisance cardiaque;I50",
            "t2;1;INSUFFISANCE CARDIAQUE AIGUE;insuffisance cardiaque aigue;I509",
            "t3;1;INSUFFISANCE CARDIAQUE CONGESTIVE;insuffisance cardiaque congestive;I500",
            "t4;1;INSUFFISANCE RESPIRATOIRE;insuffisance respiratoire;J969",
            "t5;1;INSUFFISANCE RESPIRATOIRE AIGUE;insuffisance respiratoire aigue;J960",
        ],
    )
    return path


class TestBuild:
    def test_report_line(self, tmp_path, capsys):
        corpus = tmp_path / "train.csv"
        write_rows(
            corpus,
            ["d1;1;AVC;avc;I640", "d2;1;ASTHME;asthme;J459", "d3;1;DECES;deces;R99"],
        )
        assert main(["build", "--corpus", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "terms=3 codes=3" in out
        assert "conflicts=0 skipped=0" in out

    def test_byte_order_mark_header(self, tmp_path, capsys):
        corpus = tmp_path / "bom.csv"
        corpus.write_text(
            "\ufeff" + "\n".join([HEADER, "d1;1;AVC;avc;I640", "d2;1;ASTHME;asthme;J459"]) + "\n",
            encoding="utf-8",
        )
        assert main(["build", "--corpus", str(corpus)]) == 0
        assert "terms=2 codes=2 conflicts=0 skipped=0" in capsys.readouterr().out

    def test_no_sources_fails(self, capsys):
        assert main(["build"]) == 1
        assert "no sources" in capsys.readouterr().err

    def test_missing_file_fails(self, tmp_path, capsys):
        assert main(["build", "--corpus", str(tmp_path / "nope.csv")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_external_overlap_reports_conflict(self, tmp_path, capsys):
        corpus = tmp_path / "train.csv"
        terms = tmp_path / "icd.csv"
        write_rows(corpus, ["d1;1;AVC;avc;I640"])
        terms.write_text("label;code\navc;I64\nasthme;J459\n", encoding="utf-8")
        rc = main(["build", "--corpus", str(corpus), "--terms", str(terms)])
        assert rc == 0
        assert "terms=2 codes=2 conflicts=1" in capsys.readouterr().out

    def test_term_list_cells_stripped_before_conflict_count(self, tmp_path, capsys):
        corpus = tmp_path / "train.csv"
        terms = tmp_path / "icd.csv"
        write_rows(corpus, ["d1;1;AVC;avc;I640"])
        terms.write_text("label;code\navc; I640\nasthme;J459 \n", encoding="utf-8")
        assert main(["build", "--corpus", str(corpus), "--terms", str(terms)]) == 0
        assert "terms=2 codes=2 conflicts=0 skipped=0" in capsys.readouterr().out
        trie, _ = assemble_dictionary(DictionarySpec((corpus,), (terms,)))
        assert trie.lookup_path(("asthme",)).terminal.code == "J459"

    def test_index_term_list_short_row_counts_as_skipped(self, tmp_path, capsys):
        corpus = tmp_path / "train.csv"
        terms = tmp_path / "icd.csv"
        write_rows(corpus, ["d1;1;AVC;avc;I640"])
        terms.write_text("asthme;J459\ndeces\n\ninfarctus;I219\n", encoding="utf-8")
        argv = ["build", "--corpus", str(corpus), "--terms", str(terms), "--col-label", "0", "--col-term-code", "1"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "terms=3 codes=3 conflicts=0 skipped=1" in captured.out
        assert captured.err == ""


class TestAnnotate:
    def test_typo_and_abbreviation_line(self, tmp_path, heart_corpus, capsys):
        test_file = tmp_path / "test.csv"
        write_rows(test_file, ["doc1;1;INS CARDIAQU AIGUE DETRESSE RESPIRATOIRE;;"])
        out_file = tmp_path / "pred.csv"
        rc = main(
            [
                "annotate",
                "--corpus",
                str(heart_corpus),
                "--input",
                str(test_file),
                "--output",
                str(out_file),
            ]
        )
        assert rc == 0
        assert "lines=1 annotations=1" in capsys.readouterr().out
        rows = read_annotation_rows(out_file)
        assert len(rows) == 1
        assert rows[0].code == "I509"
        assert rows[0].matched_text == "INS CARDIAQU AIGUE"
        assert rows[0].techniques == ("abbreviation", "levenshtein", "perfect")

    def test_empty_corpus(self, tmp_path, heart_corpus, capsys):
        test_file = tmp_path / "test.csv"
        write_rows(test_file, [])
        out_file = tmp_path / "pred.csv"
        rc = main(
            [
                "annotate",
                "--corpus",
                str(heart_corpus),
                "--input",
                str(test_file),
                "--output",
                str(out_file),
            ]
        )
        assert rc == 0
        assert "lines=0 annotations=0" in capsys.readouterr().out

    def test_composed_word_line(self, tmp_path, capsys):
        corpus = tmp_path / "train.csv"
        write_rows(
            corpus,
            [
                "t1;1;MENINGOENCEPHALITE;meningoencephalite;G049",
                "t2;1;MENINGO ENCEPHALITE VIRALE;meningo encephalite virale;A861",
            ],
        )
        test_file = tmp_path / "test.csv"
        write_rows(test_file, ["doc1;1;MENINGOENCEPHALITE VIRALE;;"])
        out_file = tmp_path / "pred.csv"
        rc = main(
            ["annotate", "--corpus", str(corpus), "--input", str(test_file), "--output", str(out_file)]
        )
        assert rc == 0
        rows = read_annotation_rows(out_file)
        assert [r.term_label for r in rows] == ["meningo encephalite virale"]

    def test_custom_stopwords_and_abbreviations(self, tmp_path, capsys):
        corpus = tmp_path / "train.csv"
        write_rows(corpus, ["t1;1;FRACTURE HANCHE;fracture de la hanche;S720"])
        stopwords = tmp_path / "stop.txt"
        stopwords.write_text("de\nla\n", encoding="utf-8")
        abbrevs = tmp_path / "abbrev.txt"
        abbrevs.write_text("fract=fracture\n", encoding="utf-8")
        test_file = tmp_path / "test.csv"
        write_rows(test_file, ["doc1;1;FRACT DE LA HANCHE;;"])
        out_file = tmp_path / "pred.csv"
        rc = main(
            [
                "annotate",
                "--corpus",
                str(corpus),
                "--input",
                str(test_file),
                "--output",
                str(out_file),
                "--stopwords",
                str(stopwords),
                "--abbreviations",
                str(abbrevs),
            ]
        )
        assert rc == 0
        rows = read_annotation_rows(out_file)
        assert [r.code for r in rows] == ["S720"]
        assert rows[0].techniques == ("abbreviation", "perfect")

    def test_built_in_lists_equal_explicit_copies(self, tmp_path, heart_corpus):
        data = resources.files("termcoder").joinpath("data")
        for name in ("stopwords_fr.txt", "abbreviations_fr.txt"):
            (tmp_path / name).write_text(data.joinpath(name).read_text("utf-8"), encoding="utf-8")
        test_file = tmp_path / "test.csv"
        write_rows(test_file, ["doc1;1;INS CARDIAQU AIGUE ET DE LA INS RESPIRATOIRE;;"])
        base = ["annotate", "--corpus", str(heart_corpus), "--input", str(test_file)]
        explicit = ["--stopwords", str(tmp_path / "stopwords_fr.txt")]
        explicit += ["--abbreviations", str(tmp_path / "abbreviations_fr.txt")]
        assert main([*base, "--output", str(tmp_path / "default.csv")]) == 0
        assert main([*base, "--output", str(tmp_path / "explicit.csv"), *explicit]) == 0
        default_csv = (tmp_path / "default.csv").read_bytes()
        assert default_csv == (tmp_path / "explicit.csv").read_bytes()
        assert [r.code for r in read_annotation_rows(tmp_path / "default.csv")] == ["I509", "J969"]

    def test_max_dist_zero_disables_fuzzy(self, tmp_path, heart_corpus):
        test_file = tmp_path / "test.csv"
        write_rows(test_file, ["doc1;1;INSUFFISANCE CARDIAQU;;"])
        out_file = tmp_path / "pred.csv"
        rc = main(
            [
                "annotate",
                "--corpus",
                str(heart_corpus),
                "--input",
                str(test_file),
                "--output",
                str(out_file),
                "--max-dist",
                "0",
            ]
        )
        assert rc == 0
        assert read_annotation_rows(out_file) == []

    @pytest.mark.parametrize(
        "flag, value", [("--max-dist", "-3"), ("--max-dist", "x"), ("--fuzzy-min-len", "0")]
    )
    def test_out_of_range_flag_rejected_at_parse_time(self, tmp_path, heart_corpus, capsys, flag, value):
        argv = ["annotate", "--corpus", str(heart_corpus), "--input", str(heart_corpus)]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--output", str(tmp_path / "pred.csv"), flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err
        assert not (tmp_path / "pred.csv").exists()

    def _annotate_rows(self, tmp_path, heart_corpus, rows):
        test_file = tmp_path / "test.csv"
        write_rows(test_file, rows)
        out_file = tmp_path / "pred.csv"
        argv = ["annotate", "--corpus", str(heart_corpus), "--input", str(test_file)]
        assert main([*argv, "--output", str(out_file)]) == 0
        return read_annotation_rows(out_file)

    def test_conflicting_raw_text_warns_and_first_row_wins(self, tmp_path, heart_corpus, caplog):
        rows = [
            "d1;1;INSUFFISANCE CARDIAQUE;insuffisance cardiaque;I50",
            "d1;1;INSUFFISANCE RESPIRATOIRE;insuffisance respiratoire;J969",
            "d1;1;INSUFFISANCE RESPIRATOIRE AIGUE;insuffisance respiratoire aigue;J960",
            "d2;1;INSUFFISANCE CARDIAQUE;insuffisance cardiaque;I50",
            "d2;2;INSUFFISANCE CARDIAQUE AIGUE;insuffisance cardiaque aigue;I509",
            "d2;2;INSUFFISANCE CARDIAQUE;insuffisance cardiaque;I50",
        ]
        with caplog.at_level(logging.WARNING, logger="termcoder.cli"):
            got = self._annotate_rows(tmp_path, heart_corpus, rows)
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert warnings[0].startswith("2 lines have rows with differing raw text")
        assert "first: doc d1 line 1" in warnings[0]
        assert [(r.doc_id, r.line_id, r.code) for r in got] == [
            ("d1", "1", "I50"),
            ("d2", "1", "I50"),
            ("d2", "2", "I509"),
        ]

    def test_raw_text_repeated_once_per_code_warns_nothing(self, tmp_path, heart_corpus, caplog):
        rows = [
            "d1;1;INSUFFISANCE CARDIAQUE ET RESPIRATOIRE;insuffisance cardiaque;I50",
            "d1;1;INSUFFISANCE CARDIAQUE ET RESPIRATOIRE;insuffisance respiratoire;J969",
        ]
        with caplog.at_level(logging.WARNING, logger="termcoder.cli"):
            got = self._annotate_rows(tmp_path, heart_corpus, rows)
        assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []
        assert [r.code for r in got] == ["I50"]


class TestEval:
    def _write_pred(self, path, tuples):
        lines = ["doc_id;line_id;start_char;end_char;matched_text;term_label;code;techniques"]
        for doc, line, code in tuples:
            lines.append(f"{doc};{line};0;3;XXX;xxx;{code};perfect")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_identity(self, tmp_path, capsys):
        gold = tmp_path / "gold.csv"
        write_rows(gold, ["d1;1;AVC;avc;I640", "d2;1;ASTHME;asthme;J459"])
        pred = tmp_path / "pred.csv"
        self._write_pred(pred, [("d1", "1", "I640"), ("d2", "1", "J459")])
        report_path = tmp_path / "report.json"
        rc = main(
            ["eval", "--gold", str(gold), "--pred", str(pred), "--output", str(report_path)]
        )
        assert rc == 0
        assert "precision 1.000 recall 1.000 f 1.000" in capsys.readouterr().out
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report == {
            "tp": 2,
            "fp": 0,
            "fn": 0,
            "precision": 1.0,
            "recall": 1.0,
            "f_measure": 1.0,
        }

    def test_partial_overlap(self, tmp_path, capsys):
        gold = tmp_path / "gold.csv"
        write_rows(
            gold,
            [
                "d1;1;W;w;A1",
                "d1;2;X;x;A2",
                "d1;3;Y;y;A3",
                "d1;4;Z;z;A4",
            ],
        )
        pred = tmp_path / "pred.csv"
        self._write_pred(pred, [("d1", "1", "A1"), ("d1", "2", "A2"), ("d1", "9", "B9")])
        rc = main(["eval", "--gold", str(gold), "--pred", str(pred)])
        assert rc == 0
        assert "precision 0.667 recall 0.500 f 0.571" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "row, message",
        [
            ("d1;2", "annotation row 2: no start_char cell"),
            ("d1;2;0;x3;XXX;xxx;A2;perfect", "annotation row 2: end_char 'x3' is not an integer"),
        ],
        ids=["truncated", "non-integer"],
    )
    def test_malformed_pred_row_fails(self, tmp_path, capsys, row, message):
        gold = tmp_path / "gold.csv"
        write_rows(gold, ["d1;1;W;w;A1"])
        pred = tmp_path / "pred.csv"
        self._write_pred(pred, [("d1", "1", "A1")])
        with pred.open("a", encoding="utf-8") as fh:
            fh.write(row + "\n")
        assert main(["eval", "--gold", str(gold), "--pred", str(pred)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {pred}, {message}")

    def test_unparseable_gold_fails(self, tmp_path, capsys):
        gold = tmp_path / "gold.csv"
        gold.write_text("not;the;right;header\n", encoding="utf-8")
        pred = tmp_path / "pred.csv"
        self._write_pred(pred, [])
        assert main(["eval", "--gold", str(gold), "--pred", str(pred)]) == 1
        assert "error:" in capsys.readouterr().err


def test_build_annotate_eval_identity_recall(tmp_path, capsys):
    # A corpus whose raw text equals its standard text, one code per term:
    # every gold tuple must be recovered.
    corpus = tmp_path / "train.csv"
    rows = [
        "d1;1;insuffisance cardiaque aigue;insuffisance cardiaque aigue;I509",
        "d2;1;asthme;asthme;J459",
        "d3;1;fracture du femur;fracture du femur;S720",
        "d4;1;meningo encephalite virale;meningo encephalite virale;A861",
        "d5;1;accident vasculaire cerebral;accident vasculaire cerebral;I640",
    ]
    write_rows(corpus, rows)
    pred = tmp_path / "pred.csv"
    assert main(["annotate", "--corpus", str(corpus), "--input", str(corpus), "--output", str(pred)]) == 0

    gold = gold_code_tuples(parse_aligned_causes(corpus))
    predicted = predicted_code_tuples(read_annotation_rows(pred))
    report = evaluate(gold, predicted)
    assert report.recall == 1.0
    assert report.precision == 1.0
