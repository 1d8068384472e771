import gc
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termcoder import (
    BuildReport,
    CorpusFormatError,
    DictionaryBuildError,
    DictionarySpec,
    NormalizationConfig,
    assemble_dictionary,
)
from termcoder import coder
from termcoder.coder import resolve_code, tally_terms

from helpers import iter_nodes, iter_terms, reference_dictionary


AMBIGUOUS_AVC = (
    [("avc", "F179")] * 1
    + [("avc", "I64")] * 260
    + [("avc", "I640")] * 1635
    + [("avc", "T821")] * 1
    + [("avc", "Z915")] * 1
    + [("avc", "I489")] * 1
)


class TestFrequencyTable:
    def test_counts_per_key_and_code(self):
        table = tally_terms(AMBIGUOUS_AVC)
        assert table.counts[("avc",)]["I640"] == 1635
        assert table.counts[("avc",)]["I64"] == 260
        assert table.counts[("avc",)]["F179"] == 1

    def test_empty_records(self):
        assert tally_terms([]).counts == {}

    def test_distinct_keys(self):
        table = tally_terms([("syndrome glissement", "R453"), ("grabatisation 2 mois", "R263")])
        assert set(table.counts) == {("syndrome", "glissement"), ("grabatisation", "2", "mois")}
        assert table.counts[("grabatisation", "2", "mois")] == {"R263": 1}

    def test_rows_without_standard_or_code_are_skipped(self):
        pairs = [
            ("", "R453"),
            ("syndrome glissement", ""),
            ("de", "R453"),  # normalizes to nothing: only stopwords
            ("asthme", "J459"),
        ]
        table = tally_terms(pairs)
        assert set(table.counts) == {("asthme",)}
        assert table.skipped_rows == 3

    def test_key_is_normalized_token_path(self):
        table = tally_terms([("Syndrome DE Glissement", "R453")])
        assert set(table.counts) == {("syndrome", "glissement")}
        assert table.labels[("syndrome", "glissement")] == "Syndrome DE Glissement"


class TestResolveCode:
    def test_most_frequent_wins(self):
        table = tally_terms(AMBIGUOUS_AVC)
        assert resolve_code(table, ("avc",)) == "I640"

    def test_single_code(self):
        table = tally_terms([("asthme", "J459")])
        assert resolve_code(table, ("asthme",)) == "J459"

    def test_tie_breaks_to_smallest_code(self):
        table = tally_terms([("x", "B20")] * 5 + [("x", "A10")] * 5)
        assert resolve_code(table, ("x",)) == "A10"

    def test_missing_key(self):
        table = tally_terms([])
        with pytest.raises(KeyError, match="no codes recorded"):
            resolve_code(table, ("avc",))

    @given(
        st.dictionaries(
            st.text(alphabet="ABCD012", min_size=1, max_size=4),
            st.integers(min_value=1, max_value=50),
            min_size=1,
            max_size=8,
        )
    )
    def test_resolved_count_is_maximal(self, counts):
        table = tally_terms([("key", code) for code, n in counts.items() for _ in range(n)])
        resolved = resolve_code(table, ("key",))
        top = max(counts.values())
        assert counts[resolved] == top
        assert resolved == min(c for c, n in counts.items() if n == top)


def write_corpus(path, rows):
    lines = ["DocID;LineID;RawText;StandardText;ICD10"]
    for i, (standard, code) in enumerate(rows):
        lines.append(f"d{i};1;{standard.upper()};{standard};{code}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_terms(path, rows):
    lines = ["label;code"] + [f"{label};{code}" for label, code in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestAssemble:
    def test_corpus_terms_win_over_external(self, tmp_path):
        corpus = tmp_path / "train.csv"
        terms = tmp_path / "icd.csv"
        write_corpus(corpus, [("avc", "I640")])
        write_terms(terms, [("avc", "I64"), ("asthme", "J459")])
        spec = DictionarySpec(
            corpus_sources=(corpus,),
            external_term_lists=(terms,),
        )
        trie, report = assemble_dictionary(spec)
        assert trie.root.children["avc"].terminal.code == "I640"
        assert trie.root.children["asthme"].terminal.code == "J459"
        assert report.term_count == 2
        assert report.code_count == 2
        assert report.conflict_count == 1

    def test_corpus_internal_ambiguity_counts_as_conflict(self, tmp_path):
        corpus = tmp_path / "train.csv"
        write_corpus(corpus, [("avc", "I640"), ("avc", "I640"), ("avc", "I64")])
        trie, report = assemble_dictionary(DictionarySpec(corpus_sources=(corpus,)))
        assert trie.root.children["avc"].terminal.code == "I640"
        assert report.conflict_count == 1
        assert report.term_count == 1

    def test_no_sources(self):
        with pytest.raises(DictionaryBuildError, match="no sources"):
            assemble_dictionary(DictionarySpec())

    def test_trie_is_frozen_with_sorted_children(self, tmp_path):
        corpus = tmp_path / "train.csv"
        write_corpus(corpus, [("insuffisance cardiaque", "I50")])
        trie, _ = assemble_dictionary(DictionarySpec(corpus_sources=(corpus,)))
        assert trie.frozen
        assert trie.root.sorted_tokens == ("insuffisance",)
        assert trie.root.children["insuffisance"].sorted_tokens == ("cardiaque",)

    def test_rebuild_is_deterministic(self, tmp_path):
        corpus = tmp_path / "train.csv"
        write_corpus(
            corpus,
            [("avc", "I640"), ("insuffisance cardiaque", "I50"), ("avc", "I64"), ("asthme", "J459")],
        )
        spec = DictionarySpec(corpus_sources=(corpus,))
        first, _ = assemble_dictionary(spec)
        second, _ = assemble_dictionary(spec)

        def shape(trie):
            out = []
            stack = [(trie.root, ())]
            while stack:
                node, path = stack.pop()
                out.append((path, node.terminal))
                for token in node.sorted_tokens:
                    stack.append((node.children[token], path + (token,)))
            return out

        assert shape(first) == shape(second)

    def test_skipped_rows_reported(self, tmp_path):
        corpus = tmp_path / "train.csv"
        corpus.write_text(
            "DocID;LineID;RawText;StandardText;ICD10\n"
            "d1;1;RAW;;I640\n"
            "d1;2;RAW;avc;\n"
            "d1;3;RAW;avc;I640\n",
            encoding="utf-8",
        )
        _, report = assemble_dictionary(DictionarySpec(corpus_sources=(corpus,)))
        assert report.skipped_rows == 2
        assert report.term_count == 1

    def test_unreadable_source_aborts(self, tmp_path):
        spec = DictionarySpec(corpus_sources=(tmp_path / "missing.csv",))
        with pytest.raises(OSError):
            assemble_dictionary(spec)

    def test_external_only_keys_resolved_by_frequency(self, tmp_path):
        corpus = tmp_path / "train.csv"
        terms = tmp_path / "icd.csv"
        write_corpus(corpus, [("avc", "I640")])
        write_terms(terms, [("asthme", "J459"), ("asthme", "J450"), ("asthme", "J459")])
        spec = DictionarySpec(
            corpus_sources=(corpus,),
            external_term_lists=(terms,),
        )
        trie, report = assemble_dictionary(spec)
        assert trie.root.children["asthme"].terminal.code == "J459"
        assert report.conflict_count == 1


@pytest.fixture
def collector():
    """Set the cyclic collector's state in a test; it is restored afterwards."""
    enabled = gc.isenabled()
    yield lambda on: gc.enable() if on else gc.disable()
    if enabled:
        gc.enable()
    else:
        gc.disable()


class TestCollectorPause:
    """A build runs with the cyclic collector paused and leaves its state as it found it."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_build_restores_collector_state(self, tmp_path, monkeypatch, collector, enabled):
        corpus = tmp_path / "train.csv"
        write_corpus(corpus, [("avc", "I640"), ("asthme", "J459")])
        during = []

        def resolve(table, key):
            during.append(gc.isenabled())
            return resolve_code(table, key)

        monkeypatch.setattr(coder, "resolve_code", resolve)
        collector(enabled)
        _, report = assemble_dictionary(DictionarySpec(corpus_sources=(corpus,)))
        assert gc.isenabled() is enabled
        assert during == [False, False]
        assert report.term_count == 2

    def test_build_freezes_nothing(self, tmp_path):
        # gc.freeze() would also exempt the caller's objects; only the CLI,
        # which owns its process, freezes after a build.
        corpus = tmp_path / "train.csv"
        write_corpus(corpus, [("avc", "I640")])
        assert gc.get_freeze_count() == 0
        assemble_dictionary(DictionarySpec(corpus_sources=(corpus,)))
        assert gc.get_freeze_count() == 0

    @pytest.mark.parametrize("enabled", [True, False])
    def test_failed_build_restores_collector_state(self, tmp_path, collector, enabled):
        good, bad = tmp_path / "good.csv", tmp_path / "latin1.csv"
        write_corpus(good, [("avc", "I640")])
        rows = ["DocID;LineID;RawText;StandardText;ICD10", "d1;1;AVC;avc;I640", "d2;1;FIÈVRE;fièvre;R509"]
        bad.write_bytes("\n".join(rows).encode("latin-1"))
        collector(enabled)
        with pytest.raises(CorpusFormatError, match="not UTF-8"):
            assemble_dictionary(DictionarySpec(corpus_sources=(good, bad)))
        assert gc.isenabled() is enabled

    def test_build_leaves_no_cycles_for_the_collector(self, tmp_path, collector):
        # Reference counting alone must free a dropped build: a cycle (a
        # parent pointer in the trie, say) would pile up while paused.
        corpus, terms = tmp_path / "train.csv", tmp_path / "icd.csv"
        write_corpus(
            corpus,
            [("avc", "I640"), ("avc", "I64"), ("avc", "I640"), ("insuffisance cardiaque", "I50")]
            + [("insuffisance cardiaque aigue", "I509"), ("insuffisance respiratoire", "J969")],
        )
        write_terms(terms, [("avc", "I64"), ("asthme", "J459"), ("asthme", "J450"), ("insuffisance", "I99")])
        spec = DictionarySpec(corpus_sources=(corpus,), external_term_lists=(terms,))
        collector(False)  # no automatic pass may free a cycle before the count
        gc.collect()
        report = assemble_dictionary(spec)[1]  # the trie is dropped at once
        assert report == BuildReport(term_count=6, code_count=6, conflict_count=2, skipped_rows=0)
        assert gc.collect() == 0


def test_custom_stopwords_affect_keys():
    cfg = NormalizationConfig(stopwords=frozenset({"syndrome"}))
    table = tally_terms([("syndrome glissement", "R453")], cfg)
    assert set(table.counts) == {("glissement",)}


# Words that differ only in case, accents, decomposition (NFD) or stopwords;
# "asthme" appears in the term lists alone, so some paths exist only there.
# A Hangul syllable takes the tokenizer's per-character loop and its jamo
# the fast path. Every word can appear on several paths in both sources.
CORPUS_WORDS = [
    "avc",
    "AVC",
    "Avc",
    "fièvre",
    "fievre",
    "FIÈVRE",
    "fie\u0300vre",
    "de",
    "la",
    "insuffisance",
    "aigüe",
    "aigu\u0308e",
    "\uac00",
    "\u1100\u1161",
]
LIST_WORDS = CORPUS_WORDS + ["asthme", "Asthme"]
CODES = ["", "A1", "I50", "I509", "J459"]


def labelled_pairs(words):
    label = st.lists(st.sampled_from(words), max_size=3).map(" ".join)  # [] is the empty label
    return st.lists(st.tuples(label, st.sampled_from(CODES)), max_size=12)


@settings(max_examples=150, deadline=None)
@given(labelled_pairs(CORPUS_WORDS), labelled_pairs(LIST_WORDS))
def test_build_matches_reference(corpus_rows, list_rows):
    with tempfile.TemporaryDirectory() as tmp:
        corpus, terms = Path(tmp) / "train.csv", Path(tmp) / "icd.csv"
        write_corpus(corpus, corpus_rows)
        write_terms(terms, list_rows)
        spec = DictionarySpec(corpus_sources=(corpus,), external_term_lists=(terms,))
        trie, report = assemble_dictionary(spec)
    want_terms, want_report = reference_dictionary(corpus_rows, list_rows, NormalizationConfig())
    assert {path: (t.label, t.code) for path, t in iter_terms(trie)} == want_terms
    assert report == want_report

    leaves = [node for node in iter_nodes(trie) if not node.children]
    assert all(node.children is leaves[0].children for node in leaves)  # one shared empty mapping
    interned = {}  # equal tokens and codes, on any path and from either source, are one object
    for node in iter_nodes(trie):
        assert node.sorted_tokens == tuple(sorted(node.children))
        for token in node.children:
            assert interned.setdefault(token, token) is token
    for path, term in iter_terms(trie):
        for string in path + (term.code,):
            assert interned.setdefault(string, string) is string
