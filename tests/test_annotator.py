import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termcoder.annotator import MatchState, advance_states, annotate_line, select_longest
from termcoder.matcher import (
    AbbreviationTable,
    MatchTechnique,
    levenshtein_distance,
    load_abbreviations,
    match_token,
)
from termcoder.normalize import tokenize
from termcoder.trie import DictionaryTrie, Term

from helpers import (
    NO_STOPWORDS,
    build_trie,
    composed_trie,
    heart_trie,
    leftmost_longest_windows,
    reference_annotate,
)

INS_TABLE = AbbreviationTable.build({"ins": "insuffisance"})


def assert_annotation_sound(annotation, trie, abbrevs, max_dist, fuzzy_min_len=5):
    """Replay the technique trail against the trie and the term's token path."""
    term_path = None
    for term in trie.iter_terms():
        if term.label == annotation.term_label and term.code == annotation.code:
            term_path = term.tokens
            break
    assert term_path is not None, "annotated term is not in the dictionary"
    assert len(annotation.techniques) == len(annotation.matched_tokens)

    at = 0
    for input_token, technique in zip(annotation.matched_tokens, annotation.techniques):
        if technique is MatchTechnique.PERFECT:
            assert term_path[at] == input_token
            at += 1
        elif technique is MatchTechnique.LEVENSHTEIN:
            assert len(input_token) >= fuzzy_min_len
            assert 0 < levenshtein_distance(input_token, term_path[at]) <= max_dist
            at += 1
        elif technique is MatchTechnique.BIGRAM_LEVENSHTEIN:
            joined = term_path[at] + term_path[at + 1]
            assert levenshtein_distance(input_token, joined) <= max_dist
            at += 2
        else:
            expansions = abbrevs.expansions(input_token)
            step = [e for e in expansions if tuple(term_path[at : at + len(e)]) == e]
            assert step, "abbreviation expansion does not walk the term path"
            at += len(step[0])
    assert at == len(term_path)


class TestGoldenSequences:
    def test_abbrev_typo_perfect_single_longest_term(self):
        anns = annotate_line(
            "INS CARDIAQU AIGUE DETRESSE RESPIRATOIRE", heart_trie(), abbrevs=INS_TABLE
        )
        assert len(anns) == 1
        ann = anns[0]
        assert ann.term_label == "insuffisance cardiaque aigue"
        assert ann.code == "I509"
        assert ann.techniques == (
            MatchTechnique.ABBREVIATION,
            MatchTechnique.LEVENSHTEIN,
            MatchTechnique.PERFECT,
        )
        assert (ann.start_char, ann.end_char) == (0, 18)
        assert ann.matched_tokens == ("ins", "cardiaqu", "aigue")

    def test_empty_text(self):
        assert annotate_line("", heart_trie()) == []

    def test_composed_word_takes_longest_path(self):
        anns = annotate_line("MENINGOENCEPHALITE VIRALE", composed_trie())
        assert len(anns) == 1
        ann = anns[0]
        assert ann.term_label == "meningo encephalite virale"
        assert ann.techniques == (
            MatchTechnique.BIGRAM_LEVENSHTEIN,
            MatchTechnique.PERFECT,
        )

    def test_composed_word_alone_uses_unigram_entry(self):
        anns = annotate_line("MENINGOENCEPHALITE", composed_trie())
        assert [a.term_label for a in anns] == ["meningoencephalite"]
        assert anns[0].techniques == (MatchTechnique.PERFECT,)

    def test_interior_node_alone_yields_nothing(self):
        assert annotate_line("insuffisance", heart_trie()) == []

    def test_unfrozen_trie_rejected(self):
        trie = DictionaryTrie()
        trie.insert_term(Term(("avc",), "avc", "I640"))
        with pytest.raises(ValueError, match="frozen"):
            annotate_line("avc", trie)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"max_dist": -3}, "max_dist"),
            ({"max_dist": -1}, "max_dist"),
            ({"fuzzy_min_len": 0}, "fuzzy_min_len"),
        ],
    )
    def test_out_of_range_parameter_rejected(self, kwargs, name):
        # Checked before tokenizing, so an empty line is rejected too.
        for raw in ("insuffisance cardiaqe", ""):
            with pytest.raises(ValueError, match=f"^{name} must be at least"):
                annotate_line(raw, heart_trie(), **kwargs)

    def test_lowest_parameters_accepted(self):
        anns = annotate_line("insuffisance cardiaqe", heart_trie(), max_dist=0, fuzzy_min_len=1)
        assert anns == []
        (ann,) = annotate_line("insuffisance cardiaqe", heart_trie(), max_dist=1, fuzzy_min_len=1)
        assert ann.term_label == "insuffisance cardiaque"


class TestScanningBehavior:
    def test_longest_is_kept_over_its_prefix(self):
        anns = annotate_line("insuffisance cardiaque aigue", heart_trie())
        assert [a.term_label for a in anns] == ["insuffisance cardiaque aigue"]

    def test_prefix_commits_when_suffix_breaks(self):
        anns = annotate_line("insuffisance cardiaque massive", heart_trie(), max_dist=0)
        assert [a.term_label for a in anns] == ["insuffisance cardiaque"]

    def test_failed_partial_match_does_not_hide_later_start(self):
        trie = build_trie({"p q r": "C1", "q": "C2"})
        anns = annotate_line("p q x", trie, NO_STOPWORDS, max_dist=0)
        assert [(a.term_label, a.start_token) for a in anns] == [("q", 1)]

    def test_two_terms_with_gap(self):
        trie = build_trie({"x y": "C1", "z w": "C2"})
        anns = annotate_line("x y q z w", trie, NO_STOPWORDS, max_dist=0)
        assert [(a.term_label, a.start_token, a.end_token) for a in anns] == [
            ("x y", 0, 1),
            ("z w", 3, 4),
        ]

    def test_greedy_left_match_wins_without_backtracking(self):
        trie = build_trie({"p q": "C1", "q r s": "C2"})
        anns = annotate_line("p q r s", trie, NO_STOPWORDS, max_dist=0)
        assert [a.term_label for a in anns] == ["p q"]

    def test_scan_resumes_after_committed_span(self):
        trie = build_trie({"p q": "C1", "r": "C2"})
        anns = annotate_line("p q r", trie, NO_STOPWORDS, max_dist=0)
        assert [a.term_label for a in anns] == ["p q", "r"]

    def test_multi_token_abbreviation_span(self):
        trie = build_trie({"accident vasculaire cerebral": "I64"})
        anns = annotate_line("AVC massif", trie, abbrevs=load_abbreviations())
        assert len(anns) == 1
        ann = anns[0]
        assert ann.matched_tokens == ("avc",)
        assert ann.techniques == (MatchTechnique.ABBREVIATION,)
        assert (ann.start_char, ann.end_char) == (0, 3)

    def test_stopwords_inside_span(self):
        trie = build_trie({"syndrome glissement": "R453"})
        anns = annotate_line("SYNDROME DE GLISSEMENT AVEC GRABATISATION", trie)
        assert len(anns) == 1
        assert anns[0].start_char == 0
        assert anns[0].end_char == len("SYNDROME DE GLISSEMENT")


class TestRootSearches:
    @pytest.mark.parametrize(
        "raw, trie, max_dist, expected",
        [
            ("insuffisance cardiaque aigue", heart_trie(), 0, 1),
            ("x y q z w", build_trie({"x y": "C1", "z w": "C2"}), 0, 3),
            ("INS CARDIAQU AIGUE DETRESSE RESPIRATOIRE", heart_trie(), 1, 3),
        ],
    )
    def test_one_root_search_per_uncovered_token_or_annotation(
        self, monkeypatch, raw, trie, max_dist, expected
    ):
        # Tokens inside a committed span never start a search from the root.
        root_calls = 0

        def counting(input_token, node, *args, **kwargs):
            nonlocal root_calls
            root_calls += node is trie.root
            return match_token(input_token, node, *args, **kwargs)

        monkeypatch.setattr("termcoder.annotator.match_token", counting)
        anns = annotate_line(raw, trie, NO_STOPWORDS, INS_TABLE, max_dist)
        covered = sum(a.end_token - a.start_token + 1 for a in anns)
        uncovered = len(tokenize(raw, NO_STOPWORDS).tokens) - covered
        assert root_calls == uncovered + len(anns) == expected


class TestAdvanceStates:
    def test_forks_once_per_match(self):
        trie = composed_trie()
        successors = advance_states([MatchState(trie.root)], "meningoencephalite")
        assert len(successors) == 2
        assert {s.node.token for s in successors} == {"meningoencephalite", "encephalite"}

    def test_empty_pool_spawns_fresh_root_attempt(self):
        trie = heart_trie()
        successors = advance_states([MatchState(trie.root)], "insuffisance")
        assert len(successors) == 1
        assert successors[0].node.token == "insuffisance"
        assert successors[0].node.terminal is None

    def test_states_with_no_match_die(self):
        trie = heart_trie()
        assert advance_states([MatchState(trie.root)], "zzz") == []

    def test_successor_lands_on_term_node(self):
        trie = heart_trie()
        states = advance_states([MatchState(trie.root)], "insuffisance")
        states = advance_states(states, "cardiaque")
        hits = [s for s in states if s.node.terminal is not None]
        assert [h.node.terminal.label for h in hits] == ["insuffisance cardiaque"]
        assert hits[0].techniques == (MatchTechnique.PERFECT,) * 2


def tie_trie():
    """Four one-token terms: labels "a", "b", "b", "b" with codes C3, C2, C1, C1."""
    trie = DictionaryTrie()
    for token, label, code in [("t", "a", "C3"), ("u", "b", "C2"), ("v", "b", "C1"), ("w", "b", "C1")]:
        trie.insert_term(Term((token,), label, code))
    return trie.freeze()


class TestSelectLongest:
    P, A, L = MatchTechnique.PERFECT, MatchTechnique.ABBREVIATION, MatchTechnique.LEVENSHTEIN

    def test_longest_span_wins(self):
        # Length is decided across steps by annotate_line: the longer term
        # wins over a shorter one with a smaller technique sum and label.
        trie = build_trie({"alpha beta": "C1", "alpha beta gammas": "C2"})
        (ann,) = annotate_line("alpha beta gamma", trie, NO_STOPWORDS, max_dist=1)
        assert (ann.term_label, ann.end_token) == ("alpha beta gammas", 2)
        assert ann.techniques == (self.P, self.P, self.L)

    def test_no_terminals(self):
        trie = heart_trie()
        assert select_longest([MatchState(trie.root)]) is None
        interior = trie.root.children["insuffisance"]
        assert select_longest([MatchState(interior, (self.P,))]) is None

    def test_technique_priority_breaks_ties(self):
        trie = tie_trie()
        fuzzy = MatchState(trie.root.children["t"], (self.L,))
        clean = MatchState(trie.root.children["u"], (self.A,))
        assert select_longest([fuzzy, clean]) is clean

    def test_label_breaks_remaining_ties(self):
        trie = tie_trie()
        first = MatchState(trie.root.children["t"], (self.P,))
        second = MatchState(trie.root.children["u"], (self.P,))
        assert select_longest([second, first]) is first

    def test_code_breaks_label_ties(self):
        trie = tie_trie()
        larger = MatchState(trie.root.children["u"], (self.P,))
        smaller = MatchState(trie.root.children["v"], (self.P,))
        assert select_longest([larger, smaller]) is smaller

    def test_first_of_equal_keys_wins(self):
        trie = tie_trie()
        first = MatchState(trie.root.children["v"], (self.P,))
        second = MatchState(trie.root.children["w"], (self.P,))
        assert select_longest([first, second]) is first
        assert select_longest([second, first]) is second

    def test_tie_between_trails_keeps_the_first(self):
        # (abbreviation, levenshtein) and (levenshtein, abbreviation) reach the
        # same term with equal sums; the first in pool order is reported.
        trie = build_trie({"alpha beta gamma": "C1"})
        abbrevs = AbbreviationTable.build(
            {"alphx": "alpha beta", "gammx": "beta gamma"}, NO_STOPWORDS
        )
        (ann,) = annotate_line("alphx gammx", trie, NO_STOPWORDS, abbrevs, max_dist=1)
        assert ann.term_label == "alpha beta gamma"
        assert ann.techniques == (self.A, self.L)


# Small randomized cross-check against the reference window matcher; the
# acceptance suite runs the large version.
def test_matches_window_reference_on_random_inputs():
    rng = random.Random(7)
    pool = ["pa", "qo", "ru", "sy", "tu", "vu"]
    for _ in range(40):
        paths = set()
        while len(paths) < rng.randint(1, 12):
            paths.add(tuple(rng.choice(pool) for _ in range(rng.randint(1, 4))))
        trie = DictionaryTrie()
        for i, path in enumerate(sorted(paths)):
            trie.insert_term(Term(path, " ".join(path), f"C{i:03d}"))
        trie.freeze()
        for _ in range(10):
            tokens = [rng.choice(pool) for _ in range(rng.randint(0, 10))]
            got = annotate_line(" ".join(tokens), trie, NO_STOPWORDS, max_dist=0)
            expected = leftmost_longest_windows(paths, tokens)
            assert [(a.start_token, a.end_token, a.matched_tokens) for a in got] == expected


token_pool = st.sampled_from(["alpha", "bravo", "carta", "delta", "ekova", "fanta"])
term_paths = st.lists(token_pool, min_size=1, max_size=3).map(tuple)
dictionaries = st.dictionaries(term_paths, st.sampled_from(["C1", "C2", "C3"]), min_size=1, max_size=12)


@st.composite
def noisy_token(draw):
    tok = draw(token_pool)
    if draw(st.booleans()):
        i = draw(st.integers(0, len(tok) - 1))
        c = draw(st.sampled_from("abcdefgh"))
        tok = tok[:i] + c + tok[i + 1 :]
    return tok


@given(dictionaries, st.lists(noisy_token(), max_size=8))
@settings(max_examples=150, deadline=None)
def test_nonoverlap_determinism_and_soundness(entries, tokens):
    trie = DictionaryTrie()
    for path, code in entries.items():
        trie.insert_term(Term(path, " ".join(path), code))
    trie.freeze()
    raw = " ".join(tokens)
    first = annotate_line(raw, trie, NO_STOPWORDS, max_dist=1)
    second = annotate_line(raw, trie, NO_STOPWORDS, max_dist=1)
    assert first == second
    previous_end = -1
    for ann in first:
        assert ann.start_token > previous_end
        previous_end = ann.end_token
        assert ann.start_char < ann.end_char
        assert_annotation_sound(ann, trie, AbbreviationTable(), max_dist=1)


@given(dictionaries)
@settings(max_examples=150, deadline=None)
def test_exact_term_text_is_fully_recognized(entries):
    trie = DictionaryTrie()
    for path, code in entries.items():
        trie.insert_term(Term(path, " ".join(path), code))
    trie.freeze()
    for path, code in entries.items():
        anns = annotate_line(" ".join(path), trie, NO_STOPWORDS, max_dist=1)
        assert len(anns) == 1
        assert anns[0].term_label == " ".join(path)
        assert anns[0].code == code
        assert all(t is MatchTechnique.PERFECT for t in anns[0].techniques)


# "fanta" is also a dictionary token, so a perfect match and an abbreviation
# can reach terms of equal length whose labels sort the other way.
ABBREV_TABLE = AbbreviationTable.build(
    {"ab": ["alpha bravo", "alpha"], "cd": "carta delta", "fanta": "delta"}, NO_STOPWORDS
)
short_or_composed = st.sampled_from(["ab", "cd", "alphabravo", "cartadelt", "deltaekova"])


@given(
    dictionaries,
    st.lists(st.one_of(noisy_token(), short_or_composed), max_size=8),
    st.sampled_from([1, 5]),
)
@settings(max_examples=150, deadline=None)
def test_matches_brute_force_reference_with_fuzzy_techniques(entries, tokens, fuzzy_min_len):
    trie = DictionaryTrie()
    for path, code in entries.items():
        trie.insert_term(Term(path, " ".join(path), code))
    trie.freeze()
    for max_dist in (0, 1, 2):
        got = annotate_line(
            " ".join(tokens), trie, NO_STOPWORDS, ABBREV_TABLE, max_dist, fuzzy_min_len
        )
        assert [
            (a.start_token, a.end_token, a.term_label, a.code, sum(a.techniques)) for a in got
        ] == reference_annotate(tokens, trie, ABBREV_TABLE, max_dist, fuzzy_min_len)
