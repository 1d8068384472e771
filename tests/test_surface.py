"""The package namespace: what library callers and the benchmark rely on."""

import termcoder
from termcoder import AbbreviationTable, annotate_line

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
