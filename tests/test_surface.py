"""The package namespace: what library callers and the benchmark rely on."""

import json

import pytest

import termcoder
from termcoder import (
    AbbreviationTable,
    Annotation,
    BuildReport,
    CorpusFormat,
    DictionarySpec,
    EvalReport,
    NormalizationConfig,
    TermListFormat,
    annotate_line,
    cli,
)
from termcoder.cli import _corpus_format, _dictionary_spec, build_parser
from termcoder.matcher import EMPTY_ABBREVIATIONS
from termcoder.normalize import default_stopwords
from termcoder.trie import Term

from helpers import heart_trie


def test_every_public_name_resolves():
    assert len(termcoder.__all__) == len(set(termcoder.__all__))
    for name in termcoder.__all__:
        assert getattr(termcoder, name) is not None, name


def test_benchmark_names_are_public():
    used = {"annotate_line", "assemble_dictionary", "DictionarySpec", "load_abbreviations"}
    assert used <= set(termcoder.__all__)


def test_annotate_line_positional_order():
    # perfbench calls annotate_line(raw, trie, None, abbrevs, max_dist).
    trie = heart_trie()
    abbrevs = AbbreviationTable.build({"ins": "insuffisance"})
    fuzzy = annotate_line("INS CARDIAQU", trie, None, abbrevs, 1)
    assert [(a.code, [t.label for t in a.techniques]) for a in fuzzy] == [
        ("I50", ["abbreviation", "levenshtein"])
    ]
    assert annotate_line("INS CARDIAQU", trie, None, abbrevs, 0) == []


# The records are named tuples: immutable, with defaults that no instance can
# change for another, and with field accessors, not defaults, as class
# attributes.
def test_records_are_immutable():
    for record in (
        Annotation(0, 1, 0, 0, ("x",), "x", "C1", ()),
        BuildReport(1, 1, 0, 0),
        CorpusFormat(),
        DictionarySpec(),
        EvalReport(1, 0, 0, 1.0, 1.0, 1.0),
        NormalizationConfig(),
        TermListFormat(),
        AbbreviationTable(),
        Term("x", "C1"),
    ):
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def test_default_normalization_holds_the_built_in_stopwords():
    assert NormalizationConfig().stopwords == default_stopwords()
    assert NormalizationConfig().stopwords is NormalizationConfig().stopwords


def test_default_abbreviation_tables_share_nothing_writable():
    first, second = AbbreviationTable(), AbbreviationTable()
    with pytest.raises(TypeError):
        first.entries["ins"] = (("insuffisance",),)
    assert second.entries == {}
    assert EMPTY_ABBREVIATIONS.entries == {}


def test_cli_defaults_equal_the_record_defaults():
    # On a named tuple class, CorpusFormat.delimiter is the field's accessor,
    # not its default: the options must take the defaults from an instance.
    args = build_parser().parse_args(["build", "--corpus", "x"])
    assert _corpus_format(args) == CorpusFormat()
    assert _dictionary_spec(args).term_list_format == TermListFormat()


def test_eval_report_keys_in_order(tmp_path):
    gold = tmp_path / "gold.csv"
    gold.write_text("DocID;LineID;RawText;StandardText;ICD10\nd1;1;AVC;avc;I640\n", encoding="utf-8")
    pred = tmp_path / "pred.csv"
    header = "doc_id;line_id;start_char;end_char;matched_text;term_label;code;techniques"
    pred.write_text(f"{header}\nd1;1;0;3;AVC;avc;I640;perfect\n", encoding="utf-8")
    report = tmp_path / "report.json"
    assert cli.main(["eval", "--gold", str(gold), "--pred", str(pred), "--output", str(report)]) == 0
    keys = list(json.loads(report.read_text(encoding="utf-8")))
    assert keys == ["tp", "fp", "fn", "precision", "recall", "f_measure"]
