import itertools
import random
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termcoder import matcher
from termcoder.annotator import advance_states, annotate_line, select_longest
from termcoder.matcher import (
    EMPTY_ABBREVIATIONS,
    AbbreviationTable,
    MatchTechnique,
    levenshtein_distance,
    load_abbreviations,
)
from termcoder.normalize import label_tokens, tokenize
from termcoder.trie import DictionaryTrie, Term

from helpers import (
    NO_STOPWORDS,
    annotate_keeping_twins,
    build_trie,
    composed_trie,
    first_cheapest_forks,
    heart_trie,
    iter_terms,
    leftmost_longest_windows,
    lookup_path,
    reference_annotate,
    reference_match_token,
)

INS_TABLE = AbbreviationTable.build({"ins": "insuffisance"})


def label_trie(entries):
    """A frozen trie of {label: code}, each path the label's tokens under the
    default stopwords, as a dictionary build makes it."""
    trie = DictionaryTrie()
    for label, code in entries.items():
        trie.insert_term(label_tokens(label), Term(label, code))
    return trie.freeze()


def assert_annotation_sound(annotation, trie, abbrevs, max_dist, fuzzy_min_len=5):
    """Replay the technique trail against the trie and the term's token path."""
    term_path = None
    for path, term in iter_terms(trie):
        if term.label == annotation.term_label and term.code == annotation.code:
            term_path = path
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
            expansions = abbrevs.entries.get(input_token, ())
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

    @pytest.mark.parametrize(
        "line, trie",
        [
            ("INS CARDIAQU AIGUË DÉTRESSE RESPIRATOIRE", heart_trie()),
            ("Insuffisance cardiaque aiguë; insuffisance respiratoire aiguë", heart_trie()),
            ("MÉNINGOENCÉPHALITE VIRALE", composed_trie()),
            ("méningo-encéphalite virale, méningoencéphalité", composed_trie()),
        ],
    )
    def test_decomposed_line_annotates_as_composed(self, line, trie):
        nfc = unicodedata.normalize("NFC", line)
        nfd = unicodedata.normalize("NFD", line)
        assert nfc != nfd
        composed = annotate_line(nfc, trie, abbrevs=INS_TABLE)
        decomposed = annotate_line(nfd, trie, abbrevs=INS_TABLE)
        assert composed
        assert [(a.term_label, a.code, a.techniques, a.matched_tokens) for a in decomposed] == [
            (a.term_label, a.code, a.techniques, a.matched_tokens) for a in composed
        ]
        for c, d in zip(composed, decomposed):  # a span keeps its trailing marks
            assert unicodedata.normalize("NFC", nfd[d.start_char : d.end_char]) == nfc[c.start_char : c.end_char]

    @pytest.mark.parametrize("max_dist", [0, 1])
    def test_ligature_line_annotates_term_spelled_out(self, max_dist):
        # œ folds to "oe": the line meets the term spelled out, by perfect
        # steps, and the span keeps the raw text.
        trie = label_trie({"oedeme aigu du poumon": "J81"})
        line = "Décès sur Œdème aigu du poumon"
        anns = annotate_line(line, trie, max_dist=max_dist)
        assert [(a.code, a.matched_tokens, a.techniques) for a in anns] == [
            ("J81", ("oedeme", "aigu", "poumon"), (MatchTechnique.PERFECT,) * 3)
        ]
        assert line[anns[0].start_char : anns[0].end_char] == "Œdème aigu du poumon"

    @pytest.mark.parametrize("line", ["OAP", "oedeme aigu du poumon", "Œdème aigu du poumon"])
    def test_term_spelled_with_ligature_is_reached(self, line):
        # The built-in short form "oap" expands to "oedeme aigu du poumon";
        # it reaches a term written with œ, and so does the spelled-out line.
        trie = label_trie({"Œdème aigu du poumon": "J81"})
        anns = annotate_line(line, trie, abbrevs=load_abbreviations(), max_dist=0)
        assert [(a.term_label, a.code) for a in anns] == [("Œdème aigu du poumon", "J81")]

    @pytest.mark.parametrize("term", ["insuffisance du cœur", "insuffisance du coeur"])
    def test_ligature_and_spelled_out_lines_annotate_alike(self, term):
        trie = label_trie({term: "I50"})
        lines = ("Insuffisance du CŒUR, cæcum", "insuffisance du coeur, caecum")
        got = [annotate_line(line, trie) for line in lines]
        assert [[(a.code, a.matched_tokens, a.techniques) for a in anns] for anns in got] == [
            [("I50", ("insuffisance", "coeur"), (MatchTechnique.PERFECT,) * 2)]
        ] * 2
        assert [lines[0][a.start_char : a.end_char] for a in got[0]] == ["Insuffisance du CŒUR"]

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
        trie.insert_term(("avc",), Term("avc", "I640"))
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
            ("x y q z w", build_trie({"x y": "C1", "z w": "C2"}), 0, 2),
            ("INS CARDIAQU AIGUE DETRESSE RESPIRATOIRE", heart_trie(), 1, 3),
            # "ins" is a short form, not a root child: the first one searches
            # and commits nothing, the second starts "insuffisance cardiaque".
            ("ins q ins cardiaque", heart_trie(), 0, 2),
            # A short form whose one expansion is not in the trie still searches.
            ("ins x y ins", build_trie({"x y": "C1"}), 0, 3),
        ],
    )
    def test_one_root_search_per_uncovered_token_or_annotation(
        self, monkeypatch, raw, trie, max_dist, expected
    ):
        # Tokens inside a committed span never start a search from the root.
        # At max_dist 0, neither does a token that is neither a root child
        # nor a short form: no technique can match it there.
        root_calls = 0

        def counting(pool, *args, **kwargs):
            nonlocal root_calls
            root_calls += trie.root in pool
            return advance_states(pool, *args, **kwargs)

        monkeypatch.setattr("termcoder.annotator.advance_states", counting)
        anns = annotate_line(raw, trie, NO_STOPWORDS, INS_TABLE, max_dist)
        covered = {i for a in anns for i in range(a.start_token, a.end_token + 1)}
        uncovered = [t for i, t in enumerate(tokenize(raw, NO_STOPWORDS).tokens) if i not in covered]
        if max_dist == 0:
            uncovered = [t for t in uncovered if t in trie.root.children or t in INS_TABLE.entries]
        assert root_calls == len(uncovered) + len(anns) == expected


class TestAdvanceStates:
    def test_forks_once_per_match(self):
        trie = composed_trie()
        successors = advance_states({trie.root: ()}, "meningoencephalite")
        assert len(successors) == 2
        assert set(successors) == {
            lookup_path(trie, ("meningoencephalite",)),
            lookup_path(trie, ("meningo", "encephalite")),
        }

    def test_empty_pool_spawns_fresh_root_attempt(self):
        trie = heart_trie()
        successors = advance_states({trie.root: ()}, "insuffisance")
        node = trie.root.children["insuffisance"]
        assert list(successors.items()) == [(node, (MatchTechnique.PERFECT,))]
        assert node.terminal is None

    def test_states_with_no_match_die(self):
        trie = heart_trie()
        assert advance_states({trie.root: ()}, "zzz") == {}

    def test_successor_lands_on_term_node(self):
        trie = heart_trie()
        pool = advance_states({trie.root: ()}, "insuffisance")
        pool = advance_states(pool, "cardiaque")
        hits = [(node.terminal.label, trail) for node, trail in pool.items() if node.terminal]
        assert hits == [("insuffisance cardiaque", (MatchTechnique.PERFECT,) * 2)]

    def test_twins_keep_the_smallest_sum_in_its_place(self):
        # From "x" (sum 2) and from "x y" (sum 1), "t" reaches "x y z" by two
        # trails: the second, cheaper, twin stays, after the state between them.
        trie = build_trie({"x y z": "C1", "q z": "C2"})
        abbrevs = AbbreviationTable.build({"t": ["y z", "z"]}, NO_STOPWORDS)
        x, q = trie.root.children["x"], trie.root.children["q"]
        A, L, P = MatchTechnique.ABBREVIATION, MatchTechnique.LEVENSHTEIN, MatchTechnique.PERFECT
        got = advance_states({x: (L,), q: (P,), x.children["y"]: (A,)}, "t", abbrevs=abbrevs)
        codes = [(node.terminal.code, trail) for node, trail in got.items()]
        assert codes == [("C2", (P, A)), ("C1", (A, A))]
        # Of twins with equal sums, the first stays.
        got = advance_states({x: (A,), q: (P,), x.children["y"]: (A,)}, "t", abbrevs=abbrevs)
        codes = [(node.terminal.code, trail) for node, trail in got.items()]
        assert codes == [("C1", (A, A)), ("C2", (P, A))]
        assert next(iter(got)) is x.children["y"].children["z"]

    def test_pool_step_builds_the_token_setup_once(self, monkeypatch):
        # Every entry of a step matches the same token: at max_dist 1 and 2
        # the step reads it into the automaton once, whatever the size of its
        # pool, and every walk of the step uses what that read built. At
        # max_dist 0 nothing is read.
        trie = build_trie({"ab cd": "C1", "ab ce": "C2", "x cd": "C3", "y cf": "C4"})
        pool = {trie.root: ()} | {trie.root.children[t]: () for t in ("ab", "x", "y")}
        read, walk, reads, masks = matcher._Automaton.read, matcher._walk, [], []

        def reading(auto, word):
            setup = read(auto, word)
            reads.append((word, setup[0]))
            return setup

        def recording(auto, word, token_masks, *rest):
            masks.append(token_masks)
            return walk(auto, word, token_masks, *rest)

        monkeypatch.setattr(matcher, "_AUTOMATA", {})
        for max_dist, token in itertools.product((0, 1, 2), ("cdx", "cdx", "ce")):
            forks = first_cheapest_forks(pool, token, EMPTY_ABBREVIATIONS, max_dist, 1)
            reads.clear()
            masks.clear()
            with monkeypatch.context() as patch:
                patch.setattr(matcher._Automaton, "read", reading)
                patch.setattr(matcher, "_walk", recording)
                got = advance_states(pool, token, max_dist=max_dist, fuzzy_min_len=1)
            assert list(got.items()) == forks
            if max_dist:
                assert [word for word, _ in reads] == [token]
                assert len(masks) >= (token == "cdx")  # "cdx" walks into grandchildren
                assert all(m is reads[0][1] for m in masks)
            else:
                assert reads == masks == []
        got = advance_states(pool, "cdx", max_dist=1, fuzzy_min_len=1)
        assert [node.terminal.code for node in got] == ["C1", "C3"]

    @pytest.mark.parametrize("max_dist", [0, 1, 2])
    def test_leaves_cost_no_match(self, max_dist):
        # A leaf has no child for any technique to reach: advance_states
        # drops it without reading its children or its child tokens, and the
        # successors are the brute-force fork list, each node at its first
        # cheapest fork.
        trie = build_trie({"ab": "C1", "ab cd": "C2", "ab ce x": "C3", "x": "C4"})
        abbrevs = AbbreviationTable.build({"t": ["cd", "ce x"]}, NO_STOPWORDS)
        ab = trie.root.children["ab"]
        leaf, terminal_interior, interior = trie.root.children["x"], ab, ab.children["ce"]
        assert not leaf.children and leaf.terminal is not None
        assert terminal_interior.children and terminal_interior.terminal is not None
        assert interior.children and interior.terminal is None
        reads = []
        leaf.children, leaf.sorted_tokens = RecordingChildren(reads), RecordingTokens(reads)
        P = MatchTechnique.PERFECT
        pool = {leaf: (P,), terminal_interior: (P,), interior: (P, P)}
        reached = 0
        for token in ("cd", "ce", "x", "t", "cex", "c", "xx"):
            forks = first_cheapest_forks(pool, token, abbrevs, max_dist, 1)
            reads.clear()
            got = advance_states(pool, token, abbrevs=abbrevs, max_dist=max_dist, fuzzy_min_len=1)
            assert reads == []
            assert list(got.items()) == forks
            reached += len(got)
        assert reached > 0


class RecordingChildren(dict):
    """An empty ``children`` mapping that records each lookup or walk into *reads*."""

    def __init__(self, reads):
        super().__init__()
        self.reads = reads

    def get(self, key, default=None):
        self.reads.append("get")
        return super().get(key, default)

    def __getitem__(self, key):
        self.reads.append("__getitem__")
        return super().__getitem__(key)

    def __contains__(self, key):
        self.reads.append("__contains__")
        return super().__contains__(key)

    def __iter__(self):
        self.reads.append("__iter__")
        return super().__iter__()

    def items(self):
        self.reads.append("items")
        return super().items()


class RecordingTokens(tuple):
    """An empty ``sorted_tokens`` tuple that records each read into *reads*."""

    def __new__(cls, reads):
        self = super().__new__(cls)
        self.reads = reads
        return self

    def __iter__(self):
        self.reads.append("__iter__")
        return super().__iter__()

    def __getitem__(self, index):
        self.reads.append("__getitem__")
        return super().__getitem__(index)

    def __len__(self):
        self.reads.append("__len__")
        return super().__len__()


# Every word of one to five letters over "abc": nodes draw their child
# tokens from it, so that many are within an edit or two of each other.
ABC_WORDS = ["".join(p) for m in range(1, 6) for p in itertools.product("abc", repeat=m)]


@st.composite
def leaf_size_cases(draw):
    """A trie whose nodes have at most ``_LEAF_SIZE`` children (exactly that
    many at times) or 65 to 200, short forms expanding along its paths, a
    pool over its nodes with random trails, and tokens to step the pool by:
    child tokens, child + grandchild concatenations and short forms, each
    with up to two random edits."""
    rnd = draw(st.randoms(use_true_random=False))
    wide = st.integers(matcher._LEAF_SIZE + 1, 200)

    def tokens(width=None):
        if width is None:
            width = rnd.choice((rnd.randint(1, 8), matcher._LEAF_SIZE))
        return rnd.sample(ABC_WORDS, width)

    wide_root = draw(st.booleans())  # the root or its first interior child is wide
    paths = [(first,) for first in tokens(draw(wide) if wide_root else None)]
    for i, (first,) in enumerate(rnd.sample(paths, min(6, len(paths)))):
        seconds = tokens(draw(wide) if i == 0 and not wide_root else None)
        paths += [(first, second) for second in seconds]
        for second in rnd.sample(seconds, min(3, len(seconds))):
            paths += [(first, second, third) for third in tokens(rnd.randint(1, 8))]
    trie = DictionaryTrie()
    for path in paths:
        trie.insert_term(path, Term(" ".join(path), f"C{rnd.randrange(3)}"))
    trie.freeze()

    def edited(token):
        for _ in range(rnd.randint(0, 2)):
            i = rnd.randint(0, len(token))
            ch = rnd.choice("abc")
            edits = (token[:i] + ch + token[i + 1 :], token[:i] + ch + token[i:], token[:i] + token[i + 1 :])
            token = rnd.choice(edits)
        return token or ch

    spans = [
        path[i:j]
        for path in rnd.sample(paths, min(12, len(paths)))
        for i in range(len(path))
        for j in range(i + 1, len(path) + 1)
    ]
    mapping = {}
    for short in rnd.sample(ABC_WORDS, 3):
        mapping[short] = [" ".join(rnd.choice(spans)) for _ in range(rnd.randint(1, 3))]
    abbrevs = AbbreviationTable.build(mapping, NO_STOPWORDS)
    # Every interior node, and some leaves, in a random order.
    nodes = [lookup_path(trie, path[:-1]) for path in paths]
    nodes = list(dict.fromkeys(nodes + [lookup_path(trie, path) for path in rnd.sample(paths, 3)]))
    trails = [tuple(rnd.choices(list(MatchTechnique), k=rnd.randint(0, 2))) for _ in nodes]
    pool = dict(zip(rnd.sample(nodes, len(nodes)), trails))
    probes = [edited(rnd.choice(paths)[-1]) for _ in range(3)]
    pairs = [path[-2:] for path in paths if len(path) > 1]
    probes += [edited("".join(rnd.choice(pairs))) for _ in range(3)]
    probes += [edited(short) for short in abbrevs.entries] + list(abbrevs.entries)
    return pool, abbrevs, probes, rnd.randint(1, 4)


@given(case=leaf_size_cases())
@settings(max_examples=40, deadline=None)
def test_step_equals_reference_forks_on_both_sides_of_leaf_size(case):
    # advance_states scans nodes of at most _LEAF_SIZE children itself and
    # walks wider ones with _walk. Either way it must fork every entry as
    # the brute-force reference lists its candidates, trails and order
    # included, with each node at its first cheapest fork.
    pool, abbrevs, probes, fuzzy_min_len = case
    widths = {len(node.children) for node in pool}
    assert any(0 < width <= matcher._LEAF_SIZE for width in widths)
    assert max(widths) > matcher._LEAF_SIZE
    for max_dist, token in itertools.product((0, 1, 2), probes):
        got = advance_states(pool, token, abbrevs=abbrevs, max_dist=max_dist, fuzzy_min_len=fuzzy_min_len)
        assert list(got.items()) == first_cheapest_forks(pool, token, abbrevs, max_dist, fuzzy_min_len)


def tie_trie():
    """Four one-token terms: labels "a", "b", "b", "b" with codes C3, C2, C1, C1."""
    trie = DictionaryTrie()
    for token, label, code in [("t", "a", "C3"), ("u", "b", "C2"), ("v", "b", "C1"), ("w", "b", "C1")]:
        trie.insert_term((token,), Term(label, code))
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
        assert select_longest({trie.root: ()}) is None
        interior = trie.root.children["insuffisance"]
        assert select_longest({interior: (self.P,)}) is None
        assert select_longest({trie.root: (), interior: (self.P,)}) is None

    def test_technique_priority_breaks_ties(self):
        trie = tie_trie()
        fuzzy, clean = (trie.root.children["t"], (self.L,)), (trie.root.children["u"], (self.A,))
        assert select_longest(dict([fuzzy, clean])) == clean

    def test_label_breaks_remaining_ties(self):
        trie = tie_trie()
        first, second = (trie.root.children["t"], (self.P,)), (trie.root.children["u"], (self.P,))
        assert select_longest(dict([second, first])) == first

    def test_code_breaks_label_ties(self):
        trie = tie_trie()
        larger, smaller = (trie.root.children["u"], (self.P,)), (trie.root.children["v"], (self.P,))
        assert select_longest(dict([larger, smaller])) == smaller

    def test_first_of_equal_keys_wins(self):
        trie = tie_trie()
        first, second = (trie.root.children["v"], (self.P,)), (trie.root.children["w"], (self.P,))
        assert select_longest(dict([first, second])) == first
        assert select_longest(dict([second, first])) == second

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
            trie.insert_term(path, Term(" ".join(path), f"C{i:03d}"))
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
        trie.insert_term(path, Term(" ".join(path), code))
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
        trie.insert_term(path, Term(" ".join(path), code))
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
        trie.insert_term(path, Term(" ".join(path), code))
    trie.freeze()
    for max_dist in (0, 1, 2):
        got = annotate_line(
            " ".join(tokens), trie, NO_STOPWORDS, ABBREV_TABLE, max_dist, fuzzy_min_len
        )
        assert [
            (a.start_token, a.end_token, a.term_label, a.code, sum(a.techniques)) for a in got
        ] == reference_annotate(tokens, trie, ABBREV_TABLE, max_dist, fuzzy_min_len)


@st.composite
def exact_start_cases(draw):
    """A trie whose terms start with "alpha", "bravo" or "carta" and may go
    on with "delta" too, short forms whose expansions start with a root
    child or with "delta", which is none, and lines of root children, short
    forms, "delta" and an unknown token."""
    vocab = ["alpha", "bravo", "carta", "delta"]
    first = st.sampled_from(vocab[:3])
    path = st.tuples(first, st.lists(st.sampled_from(vocab), max_size=3)).map(lambda p: (p[0], *p[1]))
    paths = draw(st.lists(path, min_size=1, max_size=10))
    expansion = st.lists(st.sampled_from(vocab), min_size=1, max_size=3).map(" ".join)
    mapping = {
        "sa": draw(st.lists(expansion, min_size=1, max_size=3)),
        "sd": ["delta " + e for e in draw(st.lists(expansion, min_size=1, max_size=2))],
    }
    if draw(st.booleans()):
        mapping["alpha"] = ["alpha alpha"]
    trie = DictionaryTrie()
    for path in dict.fromkeys(paths):
        trie.insert_term(path, Term(" ".join(path), draw(st.sampled_from(["C1", "C2"]))))
    trie.freeze()
    tokens = draw(st.lists(st.sampled_from(vocab + ["sa", "sd", "zulu"]), max_size=8))
    return trie, AbbreviationTable.build(mapping, NO_STOPWORDS), tokens


@given(case=exact_start_cases())
@settings(max_examples=150, deadline=None)
def test_exact_start_rule_equals_brute_force_reference(case):
    # At max_dist 0 a start token that is neither a root child nor a short
    # form starts no pool; every other start does, whether its expansions
    # can match from the root or not. The annotations, trails included, are
    # those of the references, which search from every start.
    trie, abbrevs, tokens = case
    anns = annotate_line(" ".join(tokens), trie, NO_STOPWORDS, abbrevs, 0)
    got = [(a.start_token, a.end_token, a.term_label, a.code, a.techniques) for a in anns]
    assert [(*hit[:4], sum(hit[4])) for hit in got] == reference_annotate(tokens, trie, abbrevs, 0, 5)
    assert got == annotate_keeping_twins(tokens, trie, abbrevs, 0, 5)


def nodes_at_depth_or_more(trie):
    """``[n_0, n_1, ...]``: n_j counts the trie nodes at depth j or more (root: 0)."""
    depths, level = [], [trie.root]
    while level:
        depths.append(len(level))
        level = [child for node in level for child in node.children.values()]
    return [sum(depths[j:]) for j in range(len(depths))] + [0]


def annotate_checking_pools(trie, raw, abbrevs, max_dist):
    """Annotate *raw*, checking every pool ``advance_states`` returns against
    the stated bound: after the j-th token of a start, at most one entry per
    node of depth j or more. Returns (annotations, largest pool)."""
    bound = nodes_at_depth_or_more(trie)
    advance = advance_states
    largest = 0

    def checked(pool, input_token, **kwargs):
        nonlocal largest
        pool = advance(pool, input_token, **kwargs)
        if pool:
            step = len(next(iter(pool.values())))
            assert len(pool) <= bound[min(step, len(bound) - 1)]
            largest = max(largest, len(pool))
        return pool

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("termcoder.annotator.advance_states", checked)
        anns = annotate_line(raw, trie, NO_STOPWORDS, abbrevs, max_dist)
    return anns, largest


class TestBoundedPool:
    def test_repeated_ambiguous_short_form(self):
        # "s" reaches depth k and k + 1 from depth k: kept twins double the
        # pool with each token (1,024 states by the tenth), on a 17-node trie.
        trie = build_trie({" ".join(["a"] * depth): f"C{depth}" for depth in range(1, 17)})
        abbrevs = AbbreviationTable.build({"s": ["a", "a a"]}, NO_STOPWORDS)
        tokens = ["s"] * 16
        anns, largest = annotate_checking_pools(trie, " ".join(tokens), abbrevs, 0)
        assert largest <= 16
        assert [
            (a.start_token, a.end_token, a.term_label, a.code, a.techniques) for a in anns
        ] == annotate_keeping_twins(tokens, trie, abbrevs, 0, 5)
        assert [(a.end_token, a.code) for a in anns] == [(15, "C16")]


# One-edit forks of one token, and "a". A token no longer than max_dist lets
# a composed-word step from a node reach the node that a one-level step from
# its child reaches in the same pool step: "a" + "beta" is within 1 of
# "beta". The composed step forks first and costs more, so the node's first
# trail is not its cheapest, and advance_states must replace that trail and
# move the node to the cheaper trail's place.
adversarial_vocab = ["alpha", "alpho", "alphe", "beta", "a"]


def composed_line(path):
    """*path* as line tokens, with each "a" composed onto the token before
    it: ``["alphaa", "beta"]`` for ``("alpha", "a", "beta")``."""
    tokens = []
    for token in path:
        if token == "a" and tokens:
            tokens[-1] += token
        else:
            tokens.append(token)
    return tokens


@st.composite
def adversarial_cases(draw):
    """Deep terms over a few one-edit-apart tokens and "a", short forms with
    several multi-token expansions, and lines of repeated, short, composed
    and one-edit tokens, or a term's own tokens with each "a" composed.
    Labels and codes are drawn from two each, so two term nodes can tie on
    both and pool order decides between them."""
    word = st.sampled_from(adversarial_vocab)
    paths = draw(st.lists(st.lists(word, min_size=1, max_size=6).map(tuple), min_size=1, max_size=10))
    paths += [("alpha",) * depth for depth in range(1, draw(st.integers(1, 6)) + 1)]
    expansion = st.lists(word, min_size=1, max_size=3).map(" ".join)
    # "s" covers one to three levels of the "alpha" chain, so a run of "s"
    # reaches one node along many trails; "alpha" is a child and a short form.
    chain = draw(st.sets(st.integers(1, 3), min_size=2))
    mapping = {"s": [" ".join(["alpha"] * m) for m in sorted(chain)]}
    mapping["t"] = draw(st.lists(expansion, min_size=2, max_size=3))
    if draw(st.booleans()):
        mapping["alpha"] = ["alpha alpha"]
    trie = DictionaryTrie()
    for path in dict.fromkeys(paths):
        trie.insert_term(path, Term(draw(st.sampled_from("xy")), draw(st.sampled_from(["C1", "C2"]))))
    trie.freeze()
    line_token = st.sampled_from(adversarial_vocab + ["s", "t", "alphu", "alphaalpha", "alphalpho"])
    repeated = st.tuples(line_token, st.integers(1, 7)).map(lambda pair: [pair[0]] * pair[1])
    composed = st.sampled_from(paths).map(composed_line)
    tokens = draw(st.one_of(st.lists(line_token, max_size=7), repeated, composed))
    return trie, AbbreviationTable.build(mapping, NO_STOPWORDS), tokens


@given(case=adversarial_cases())
@settings(max_examples=100, deadline=None)
def test_pool_stays_bounded_on_adversarial_lines(case):
    trie, abbrevs, tokens = case
    raw = " ".join(tokens)
    for max_dist in (0, 1, 2):
        anns, _ = annotate_checking_pools(trie, raw, abbrevs, max_dist)
        assert [
            (a.start_token, a.end_token, a.term_label, a.code, sum(a.techniques)) for a in anns
        ] == reference_annotate(tokens, trie, abbrevs, max_dist, 5)
        assert [
            (a.start_token, a.end_token, a.term_label, a.code, a.techniques) for a in anns
        ] == annotate_keeping_twins(tokens, trie, abbrevs, max_dist, 5)


def test_advance_leaves_its_input_pool_and_keeps_first_reached_order():
    # annotate_line shares one root pool across every start, so advance_states
    # must not change the pool it is given. Its result is the fork list with
    # each node once: at the place of its first trail of smallest sum.
    trie = DictionaryTrie()
    paths = [("alpha",) * depth for depth in range(1, 6)]
    paths += [("alpha", "alpho", "alpha"), ("alphe", "alpha", "alpha", "alpho"), ("alpha", "alphe")]
    for i, path in enumerate(paths):
        trie.insert_term(path, Term(" ".join(path), f"C{i}"))
    trie.freeze()
    mapping = {"s": ["alpha", "alpha alpha"], "alpha": ["alpha alpha"]}
    abbrevs = AbbreviationTable.build(mapping, NO_STOPWORDS)
    tokens = ["alpha", "s", "alpho", "s", "alpha", "s", "alphu", "alpha", "s"]
    twins = moved = 0
    for start in range(len(tokens)):
        pool = {trie.root: ()}
        for token in tokens[start:]:
            before = list(pool.items())
            forks = [
                (target, trail + (technique,))
                for node, trail in before
                for technique, target in reference_match_token(token, node, abbrevs, 1, 5)
            ]
            first = {}  # node: its first trail
            for node, trail in forks:
                first.setdefault(node, trail)
            kept = first_cheapest_forks(pool, token, abbrevs, 1, 5)
            got = advance_states(pool, token, abbrevs=abbrevs, max_dist=1, fuzzy_min_len=5)
            assert list(pool.items()) == before
            assert list(got.items()) == kept
            twins += len(forks) - len(kept)
            moved += any(first[node] != trail for node, trail in kept)
            pool = got
            if not pool:
                break
    assert twins > 0 and moved > 0


@given(case=adversarial_cases())
@settings(max_examples=100, deadline=None)
def test_adversarial_pools_keep_each_node_at_its_first_cheapest_fork(case):
    # Every pool of every start, on the drawn line and on each term's own
    # composed line, is the fork list with each node once: at the place of
    # its first trail of smallest sum. A pool that keeps a node's first,
    # dearer trail, or keeps the cheaper one at the first one's place,
    # differs from it, even where the annotations agree.
    trie, abbrevs, tokens = case
    lines = [tokens] + [composed_line(path) for path, _ in iter_terms(trie)]
    for max_dist, line in itertools.product((0, 1, 2), lines):
        for start in range(len(line)):
            pool = {trie.root: ()}
            for token in line[start:]:
                kept = first_cheapest_forks(pool, token, abbrevs, max_dist, 5)
                pool = advance_states(pool, token, abbrevs=abbrevs, max_dist=max_dist, fuzzy_min_len=5)
                assert list(pool.items()) == kept
                if not pool:
                    break
