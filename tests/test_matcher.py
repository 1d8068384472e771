import itertools
import random
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termcoder import annotate_line, matcher
from termcoder.matcher import (
    _LEAF_SIZE,
    EMPTY_ABBREVIATIONS,
    AbbreviationTable,
    MatchTechnique,
    advance_states,
    levenshtein_distance,
    load_abbreviations,
)
from termcoder.normalize import NormalizationConfig, default_stopwords
from termcoder.trie import DictionaryTrie, Term

from helpers import (
    NO_STOPWORDS,
    build_trie,
    composed_trie,
    edit_distance_reference,
    first_cheapest_forks,
    heart_trie,
    iter_nodes,
    iter_terms,
    lookup_path,
    reference_match_token,
)

P, A, L, B = MatchTechnique


class TestLevenshtein:
    def test_single_deletion(self):
        assert levenshtein_distance("cardiaqu", "cardiaque") == 1

    def test_identity(self):
        assert levenshtein_distance("x", "x") == 0

    def test_composed_word(self):
        assert levenshtein_distance("meningoencephalite", "meningoencephalite") == 0
        assert levenshtein_distance("meningoencephalite", "meningo encephalite") == 1

    def test_empty_sides(self):
        assert levenshtein_distance("", "abc") == 3
        assert levenshtein_distance("abc", "") == 3
        assert levenshtein_distance("", "") == 0

    @given(st.text(alphabet="abcd", max_size=12), st.text(alphabet="abcd", max_size=12))
    def test_matches_reference_and_is_symmetric(self, a, b):
        d = levenshtein_distance(a, b)
        assert d == edit_distance_reference(a, b)
        assert d == levenshtein_distance(b, a)
        assert (d == 0) == (a == b)

    @given(
        st.text(alphabet="abc", max_size=8),
        st.text(alphabet="abc", max_size=8),
        st.text(alphabet="abc", max_size=8),
    )
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein_distance(a, c) <= (
            levenshtein_distance(a, b) + levenshtein_distance(b, c)
        )


class TestExpandAbbreviation:
    def test_known_short_form(self):
        table = AbbreviationTable.build({"ins": "insuffisance"})
        assert table.entries.get("ins", ()) == (("insuffisance",),)

    def test_unknown_token(self):
        table = AbbreviationTable.build({"ins": "insuffisance"})
        assert table.entries.get("cardiaque", ()) == ()

    def test_default_table_multi_token_expansion(self):
        table = load_abbreviations()
        assert table.entries.get("avc", ()) == (("accident", "vasculaire", "cerebral"),)

    def test_default_table_has_nine_entries(self):
        assert len(load_abbreviations().entries) == 9

    def test_self_expansion_dropped(self):
        table = AbbreviationTable.build({"avc": "avc"})
        assert table.entries.get("avc", ()) == ()

    def test_expansion_is_stopword_filtered(self):
        table = load_abbreviations()
        assert table.entries.get("idm", ()) == (("infarctus", "myocarde"),)

    def test_built_in_short_forms(self):
        shorts = {"ins", "avc", "oap", "idm", "bpco", "hta", "irc", "ira", "fa"}
        assert load_abbreviations().entries.keys() == shorts
        assert not shorts & default_stopwords()

    def test_malformed_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "abbrev.txt"
        path.write_text("# comment\n\nins=insuffisance\navc accident\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:4: expected 'short=expansion words'")):
            load_abbreviations(path)

    def test_byte_order_mark_does_not_hide_first_comment(self, tmp_path):
        path = tmp_path / "abbrev.txt"
        path.write_text("\ufeff# short forms\nins=insuffisance\n", encoding="utf-8")
        assert load_abbreviations(path).entries == {"ins": (("insuffisance",),)}

    def test_file_not_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "abbrev.txt"
        path.write_bytes("ins=insuffisance\nfi=fièvre\n".encode("latin-1"))
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: not UTF-8: ")):
            load_abbreviations(path)

    @pytest.mark.parametrize("short", ["de", "d'"])
    def test_stopword_short_form_rejected(self, short):
        # tokenize drops a stopword, so no input token could ever match the entry
        with pytest.raises(ValueError, match="stopword"):
            AbbreviationTable.build({short: "insuffisance cardiaque"})

    def test_short_form_accepted_when_not_a_stopword(self):
        cfg = NormalizationConfig(stopwords=default_stopwords() - {"de"})
        table = AbbreviationTable.build({"de": "insuffisance cardiaque"}, cfg)
        assert table.entries.get("de", ()) == (("insuffisance", "cardiaque"),)

    def test_multi_word_short_form_rejected(self):
        with pytest.raises(ValueError, match="single token"):
            AbbreviationTable.build({"a b": "whatever"})

    @pytest.mark.parametrize("short", ["i\u00a0r", "i\tr"], ids=["no-break space", "tab"])
    def test_short_form_split_by_other_whitespace_rejected(self, short):
        # tokenize splits on these too, so no input token could ever match the entry
        with pytest.raises(ValueError, match="single token"):
            AbbreviationTable.build({short: "insuffisance renale"})


class TestMatchToken:
    """One pool step from a single node, ``{node: ()}``: the candidates of one token there."""

    def test_abbreviation_advances_one_level(self):
        trie = heart_trie()
        table = AbbreviationTable.build({"ins": "insuffisance"})
        got = advance_states({trie.root: ()}, "ins", abbrevs=table, max_dist=1)
        assert list(got.items()) == [(lookup_path(trie, ("insuffisance",)), (A,))]

    def test_unigram_and_bigram_paths_both_found(self):
        trie = composed_trie()
        targets = [lookup_path(trie, ("meningoencephalite",)), lookup_path(trie, ("meningo", "encephalite"))]
        # The misspellings edit the meningo|encephalite join, where the
        # composed-word scan moves from the first token to the second.
        for probe, unigram in (
            ("meningoencephalite", P),
            ("meningencephalite", L),  # deletion
            ("meningoxencephalite", L),  # insertion
            ("meningaencephalite", L),  # substitution
        ):
            got = advance_states({trie.root: ()}, probe)
            assert list(got.items()) == list(zip(targets, [(unigram,), (B,)])), probe

    def test_no_match(self):
        trie = heart_trie()
        assert advance_states({trie.root: ()}, "zzz") == {}

    def test_levenshtein_respects_length_floor(self):
        trie = build_trie({"aigue": "X00"})
        assert advance_states({trie.root: ()}, "aigu", max_dist=1) == {}
        got = advance_states({trie.root: ()}, "aigu", max_dist=1, fuzzy_min_len=4)
        assert list(got.values()) == [(L,)]

    def test_max_dist_zero_is_perfect_only(self):
        trie = composed_trie()
        for node in iter_nodes(trie):
            for probe in ("meningoencephalite", "meningo", "virale", "encephalit", "zz"):
                got = advance_states({node: ()}, probe, max_dist=0)
                expected = node.children.get(probe)
                assert got == ({} if expected is None else {expected: (P,)})

    def test_duplicate_target_keeps_strongest_technique(self):
        # The abbreviation target is one edit away too: the step keeps only
        # the abbreviation, and so does the annotation.
        trie = build_trie({"abcdef": "X00"})
        table = AbbreviationTable.build({"abcdee": "abcdef"})
        target = trie.root.children["abcdef"]
        assert reference_match_token("abcdee", trie.root, table, 1, 5) == [(A, target), (L, target)]
        assert advance_states({trie.root: ()}, "abcdee", abbrevs=table, max_dist=1) == {target: (A,)}
        (ann,) = annotate_line("abcdee", trie, abbrevs=table, max_dist=1)
        assert (ann.code, ann.techniques) == ("X00", (A,))

    def test_multi_token_abbreviation_walks_whole_expansion(self):
        trie = build_trie({"accident vasculaire cerebral": "I64"})
        ((target, trail),) = advance_states({trie.root: ()}, "avc", abbrevs=load_abbreviations(), max_dist=1).items()
        assert trail == (A,)
        assert target.terminal.code == "I64"

    def test_targets_confined_to_current_position(self):
        trie = heart_trie()
        table = AbbreviationTable.build({"ins": "insuffisance"})
        for node in iter_nodes(trie):
            near = set(node.children.values())
            near.update(g for c in node.children.values() for g in c.children.values())
            for probe in ("ins", "insuffisance", "cardiaqu", "respiratoire", "aigue"):
                for target in advance_states({node: ()}, probe, abbrevs=table, max_dist=1):
                    assert target in near


def composed_pairs(trie, probe):
    """(first, second) token pairs a composed-word match of *probe* reaches, from any node."""
    pairs = set()
    for node in iter_nodes(trie):
        for target, trail in advance_states({node: ()}, probe, max_dist=1).items():
            if trail == (B,):
                pairs.update(
                    (first, second)
                    for first, child in node.children.items()
                    for second, grandchild in child.children.items()
                    if grandchild is target
                )
    return pairs


class TestBigramIndex:
    """Composed-word (bigram) candidates are the trie's own parent->child
    edges: no index of pairs, just the pool step from each node."""

    def test_contains_exactly_consecutive_pairs(self):
        trie = heart_trie()
        expected = {
            ("insuffisance", "cardiaque"),
            ("cardiaque", "aigue"),
            ("cardiaque", "congestive"),
            ("insuffisance", "respiratoire"),
            ("respiratoire", "aigue"),
        }
        vocab = {token for path, _ in iter_terms(trie) for token in path}
        found = set().union(*(composed_pairs(trie, a + b) for a in vocab for b in vocab))
        assert found == expected
        assert composed_pairs(trie, "insuffisancecardiaque") == {("insuffisance", "cardiaque")}
        assert composed_pairs(trie, "cardiaqueinsuffisance") == set()

    def test_keys_are_concatenations(self):
        trie = heart_trie()
        got = advance_states({trie.root: ()}, "insuffisancecardiaque", max_dist=1)
        assert list(got.items()) == [(lookup_path(trie, ("insuffisance", "cardiaque")), (B,))]

    def test_empty_trie(self):
        trie = DictionaryTrie().freeze()
        assert advance_states({trie.root: ()}, "insuffisancecardiaque", max_dist=1) == {}
        assert composed_pairs(trie, "insuffisancecardiaque") == set()

    def test_single_token_term_has_no_bigrams(self):
        trie = DictionaryTrie()
        trie.insert_term(("avc",), Term("avc", "I640"))
        trie.freeze()
        assert composed_pairs(trie, "avc") == set()
        assert composed_pairs(trie, "avcavc") == set()

    def test_shared_pair_indexed_once(self):
        trie = build_trie({"a aigue cardiaque": "C1", "b aigue cardiaque": "C2"})
        assert composed_pairs(trie, "aiguecardiaque") == {("aigue", "cardiaque")}
        for head in ("a", "b"):
            got = advance_states({trie.root.children[head]: ()}, "aiguecardiaque", max_dist=1)
            ((target, trail),) = got.items()
            assert trail == (B,)
            assert target.terminal.label == f"{head} aigue cardiaque"


def one_edit(draw, token):
    """*token* with one character substituted, inserted or deleted."""
    i = draw(st.integers(0, len(token) - 1))
    c = draw(st.sampled_from("abcx"))
    kind = draw(st.sampled_from(("sub", "ins", "del")))
    if kind == "sub":
        return token[:i] + c + token[i + 1 :]
    if kind == "ins":
        return token[:i] + c + token[i:]
    return token[:i] + token[i + 1 :] or token


@st.composite
def fuzzy_cases(draw):
    """A small trie with one-edit siblings, composed pairs and multi-token short forms."""
    base = draw(st.lists(st.text("abc", min_size=2, max_size=5), min_size=1, max_size=4, unique=True))
    vocab = base + [one_edit(draw, t) for t in base if draw(st.booleans())]
    term = st.lists(st.sampled_from(vocab), min_size=1, max_size=3).map(tuple)
    paths = draw(st.lists(term, min_size=1, max_size=8))
    paths += [(p[0] + p[1],) + p[2:] for p in paths if len(p) > 1 and draw(st.booleans())]
    short_forms = {
        f"zq{i}": " ".join(draw(st.sampled_from(paths))[:2])
        for i in range(draw(st.integers(0, 2)))
    }
    trie = DictionaryTrie()
    for i, path in enumerate(dict.fromkeys(paths)):
        trie.insert_term(path, Term(" ".join(path), f"C{i}"))
    trie.freeze()
    tokens = vocab + [a + b for a in vocab for b in vocab]
    probes = draw(st.lists(st.sampled_from(tokens), min_size=1, max_size=6))
    probes += [one_edit(draw, t) for t in probes if draw(st.booleans())]
    probes += list(short_forms)
    table = AbbreviationTable.build(short_forms, NO_STOPWORDS)
    return trie, table, probes, draw(st.integers(1, 6))


def assert_matches_reference(table, node, probe, max_dist, fuzzy_min_len, paths):
    """A pool step from *node* alone equals the brute-force fork list, each
    node at its first cheapest fork, trails and order included; *paths*
    maps each node to its token path."""
    pool = {node: ()}
    got = list(advance_states(pool, probe, abbrevs=table, max_dist=max_dist, fuzzy_min_len=fuzzy_min_len).items())
    assert got == first_cheapest_forks(pool, probe, table, max_dist, fuzzy_min_len)
    # The order is part of the result: select_longest keeps the first of equal keys.
    techniques = [technique for _, (technique,) in got]
    assert techniques == sorted(techniques)
    for fuzzy in (L, B):
        targets = [paths[target] for target, trail in got if trail == (fuzzy,)]
        assert targets == sorted(targets)


def node_paths(trie):
    """(path, node) for every node of *trie*, root first."""
    nodes = [((), trie.root)]
    for path, node in nodes:
        nodes.extend((path + (token,), child) for token, child in node.children.items())
    return nodes


@given(fuzzy_cases())
@settings(max_examples=120, deadline=None)
def test_step_equals_brute_force_reference(case):
    trie, table, probes, fuzzy_min_len = case
    paths = {node: path for path, node in node_paths(trie)}
    # At max_dist 3 the band is wider than the 2-5-letter tokens.
    for max_dist in (0, 1, 2, 3):
        for node in paths:
            for probe in probes:
                assert_matches_reference(table, node, probe, max_dist, fuzzy_min_len, paths)


@st.composite
def exact_cases(draw):
    """A small trie and short forms with one to three multi-token expansions,
    one short form being a token of the trie as well."""
    vocab = draw(st.lists(st.text("abc", min_size=1, max_size=3), min_size=1, max_size=5, unique=True))
    term = st.lists(st.sampled_from(vocab), min_size=1, max_size=4).map(tuple)
    paths = draw(st.lists(term, min_size=1, max_size=8))
    shorts = [draw(st.sampled_from(vocab))] + draw(st.lists(st.sampled_from(["zq", "zr"]), unique=True))
    expansion = st.tuples(st.sampled_from(paths), st.integers(1, 4)).map(lambda pair: " ".join(pair[0][: pair[1]]))
    mapping = {short: draw(st.lists(expansion, min_size=1, max_size=3)) for short in shorts}
    trie = DictionaryTrie()
    for i, path in enumerate(dict.fromkeys(paths)):
        trie.insert_term(path, Term(" ".join(path), f"C{i}"))
    trie.freeze()
    probes = vocab + shorts + ["zz"]
    return trie, AbbreviationTable.build(mapping, NO_STOPWORDS), probes


@given(exact_cases())
@settings(max_examples=150, deadline=None)
def test_exact_step_equals_brute_force_reference(case):
    # max_dist 0: a token without expansions reaches at most its perfect child;
    # a short form reaches its expansion targets too, whether or not it is a child.
    trie, table, probes = case
    paths = {node: path for path, node in node_paths(trie)}
    for node in paths:
        for probe in probes:
            assert_matches_reference(table, node, probe, 0, 1, paths)
            if not table.entries.get(probe, ()):
                child = node.children.get(probe)
                got = advance_states({node: ()}, probe, abbrevs=table, max_dist=0)
                assert got == ({} if child is None else {child: (P,)})


def wide_trie(rnd, alphabet):
    """A trie whose root, and one of its children, have more children than a
    flat leaf scans, with the probes to try from them.

    Root children are short words over *alphabet*, some of them prefixes of
    others. Two more runs sit under prefixes no other word has: one of
    exactly ``_LEAF_SIZE`` tokens and one of ``_LEAF_SIZE + 1``, the prefix
    itself among them. Probes are node tokens and child + grandchild
    concatenations with up to three random edits, and random strings.
    """
    a, b, c = alphabet[:3]
    suffixes = [""]
    for suffix in suffixes:
        if len(suffix) < 4:
            suffixes.extend(suffix + ch for ch in alphabet)

    def word(low, high):
        return "".join(rnd.choice(alphabet) for _ in range(rnd.randint(low, high)))

    words = {w for w in (word(1, 6) for _ in range(rnd.randint(80, 160))) if w[:2] not in (c + a, c + b)}
    words |= {w[: rnd.randint(1, len(w))] for w in list(words) if rnd.random() < 0.2}
    words |= {c + a + s for s in rnd.sample(suffixes[1:], _LEAF_SIZE)}
    words |= {c + b + s for s in [""] + rnd.sample(suffixes[1:], _LEAF_SIZE)}
    firsts = sorted(words)
    wide = rnd.choice(firsts)
    terms = [(w,) for w in firsts]
    terms += [(wide, second) for second in rnd.sample(suffixes[1:], _LEAF_SIZE + 20)]
    terms += [(rnd.choice(firsts), word(1, 5)) for _ in range(40)]
    trie = DictionaryTrie()
    for i, path in enumerate(dict.fromkeys(terms)):
        trie.insert_term(path, Term(" ".join(path), f"C{i}"))
    trie.freeze()

    def edited(token):
        for _ in range(rnd.randint(0, 3)):
            i = rnd.randint(0, len(token))
            ch = rnd.choice(alphabet + "x")
            kind = rnd.randrange(3)
            if kind == 0:
                token = token[:i] + ch + token[i + 1 :]
            elif kind == 1:
                token = token[:i] + ch + token[i:]
            elif len(token) > 1:
                token = token[:i] + token[i + 1 :]
        return token

    pairs = [path for path in terms if len(path) == 2]
    probes = [edited(rnd.choice(firsts)) for _ in range(4)]
    probes += [edited("".join(rnd.choice(pairs))) for _ in range(3)]
    probes += [word(1, 12) for _ in range(2)]
    assert len(trie.root.children) > _LEAF_SIZE
    assert len(trie.root.children[wide].children) > _LEAF_SIZE
    return trie, wide, probes


@pytest.mark.parametrize(
    "alphabet",
    # Tokens may hold any code point, the highest included: no run end may rely on a sentinel.
    ["abc", "abcd", "\U0010ffff\U0010fffe\U0001f600a"],
    ids=["abc", "abcd", "highest-code-points"],
)
@given(rnd=st.randoms(use_true_random=False))
@settings(max_examples=12, deadline=None)
def test_descent_over_wide_nodes_equals_brute_force_reference(alphabet, rnd):
    # More siblings than _LEAF_SIZE: shared prefix states, splits, jumps in runs of
    # every size, and flat runs at the walk's start or reached by a split.
    trie, wide, probes = wide_trie(rnd, alphabet)
    paths = {node: path for path, node in node_paths(trie)}
    fuzzy_min_len = rnd.choice((1, 4))
    for path in ((), (wide,)):
        node = lookup_path(trie, path)
        for probe in probes:
            for max_dist in (1, 2, 3):
                assert_matches_reference(EMPTY_ABBREVIATIONS, node, probe, max_dist, fuzzy_min_len, paths)


def short_grandchildren_trie():
    """Every word over ``ab`` of 1 to 3 letters as a child of the root, each
    with grandchildren of 1 and 2 letters, of 2 letters only, or of 1 only."""
    firsts = ["".join(p) for r in (1, 2, 3) for p in itertools.product("ab", repeat=r)]
    seconds = (("a", "b", "ab", "ba"), ("aa", "ab", "bb"), ("a", "b"))
    paths = [(first, second) for i, first in enumerate(firsts) for second in seconds[i % 3]]
    return build_trie({" ".join(path): f"C{i}" for i, path in enumerate(paths)})


def test_composed_length_window_edge_equals_brute_force_reference():
    # A child starts no grandchild walk when its shortest grandchild is longer
    # than reach - d (reach = len(probe) + max_dist, d = len(child)). Both sides
    # of that edge occur: composed matches whose grandchild has exactly
    # reach - d letters, and children whose shortest grandchild has one more.
    trie = short_grandchildren_trie()
    paths = {node: path for path, node in node_paths(trie)}
    probes = ["".join(p) for r in range(1, 6) for p in itertools.product("abx", repeat=r)]
    at_edge = past_edge = 0
    for max_dist in (1, 2):
        for probe in probes:
            assert_matches_reference(EMPTY_ABBREVIATIONS, trie.root, probe, max_dist, 1, paths)
            for first, mid in trie.root.children.items():
                room = len(probe) + max_dist - len(first)
                past_edge += min(map(len, mid.sorted_tokens)) == room + 1
                at_edge += sum(
                    len(second) == room and edit_distance_reference(probe, first + second) <= max_dist
                    for second in mid.sorted_tokens
                )
    assert at_edge > 0 and past_edge > 0


def test_child_with_only_long_grandchildren_starts_no_walk(monkeypatch):
    trie = build_trie({"ab cdef": "C1", "ab cdeg": "C2", "abz": "C3"})
    walk, walked = matcher._walk, []

    def counting(auto, word, masks, other, tokens, *rest):
        walked.append(tokens)
        return walk(auto, word, masks, other, tokens, *rest)

    monkeypatch.setattr(matcher, "_walk", counting)
    # "ab" and "abz" are one edit from "abx"; "cdef" and "cdeg" leave room for none.
    # The step scans the root's children itself: it has fewer than _LEAF_SIZE.
    got = advance_states({trie.root: ()}, "abx", max_dist=1, fuzzy_min_len=1)
    assert list(got.items()) == [(trie.root.children["ab"], (L,)), (trie.root.children["abz"], (L,))]
    assert walked == []
    # A probe long enough for "cdef" and "cdeg" walks into them.
    got = advance_states({trie.root: ()}, "abcde", max_dist=1, fuzzy_min_len=1)
    assert [node.terminal.code for node in got] == ["C1", "C2"]
    assert walked == [("cdef", "cdeg")]


class CountingRow(dict):
    """A transition row that counts its lookups."""

    lookups = 0

    def __getitem__(self, key):
        CountingRow.lookups += 1
        return super().__getitem__(key)


def count_steps(monkeypatch, max_dist, run):
    """The automaton steps *run()* takes on a warm table, and its result."""
    monkeypatch.setattr(matcher, "_AUTOMATA", {})
    expected = run()  # fills the table
    auto = matcher._automaton(max_dist)
    monkeypatch.setattr(auto, "delta", [CountingRow(row) for row in auto.delta])
    monkeypatch.setattr(CountingRow, "lookups", 0)
    assert run() == expected
    return CountingRow.lookups, expected


def test_descent_extends_fewer_rows_than_eligible_children(monkeypatch):
    rnd = random.Random(6)
    words = {"".join(rnd.choice("abcd") for _ in range(rnd.randint(3, 8))) for _ in range(400)}
    trie = build_trie({w: f"C{i}" for i, w in enumerate(sorted(words))})
    probe = min(w for w in words if len(w) == 6)[:-1] + "x"  # one substitution away
    eligible = [w for w in words if len(w) <= len(probe) + 1]
    steps, got = count_steps(
        monkeypatch, 1, lambda: advance_states({trie.root: ()}, probe, max_dist=1, fuzzy_min_len=1)
    )
    assert list(got.items()) == first_cheapest_forks({trie.root: ()}, probe, EMPTY_ABBREVIATIONS, 1, 1)
    assert got
    # A flat scan takes one automaton step per length-eligible child at least.
    assert len(eligible) > 200
    assert 0 < steps < len(eligible)


def test_state_at_max_dist_jumps_inside_a_leaf_run(monkeypatch):
    word = "abcdef"
    tokens = tuple(sorted(c + s for c in "bdefghij" for s in ("cdef", "xyz", "q", "cdefg")))
    assert len(tokens) <= _LEAF_SIZE

    def walk():
        auto = matcher._automaton(1)
        masks, other, start = auto.read(word)
        ((_, state),) = matcher._walk(auto, word, masks, other, ("z",), start, 0, range(2))
        assert auto.least[state] == 1  # no cell below max_dist: only "a", "b" and "c" keep it
        return list(matcher._walk(auto, word, masks, other, tokens, state, 1, range(10)))

    steps, got = count_steps(monkeypatch, 1, walk)
    alive = [t for t in tokens if min(edit_distance_reference(word[:j], "z" + t) for j in range(7)) <= 1]
    assert [token for token, _ in got] == alive == ["bcdef"]
    # One step for "z", then only the "b" run is entered; a flat scan steps every token.
    assert steps <= 1 + sum(len(t) for t in tokens if t[0] == "b") < len(tokens)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_flat_run_is_scanned_without_bisecting(monkeypatch, k):
    # A run of at most _LEAF_SIZE tokens whose state has a cell below
    # max_dist is stepped one token at a time: no split, no jump.
    rnd = random.Random(k)
    word = "abcab"
    tokens = tuple(sorted({"".join(rnd.choice("abcx") for _ in range(rnd.randint(1, 7))) for _ in range(80)}))
    tokens = tokens[:_LEAF_SIZE]
    auto = matcher._automaton(k)
    masks, other, start = auto.read(word)
    ((_, inner),) = matcher._walk(auto, word, masks, other, ("a",), start, 0, range(2))
    assert auto.least[inner] < k

    def stepped(token, state, depth):
        for i, ch in enumerate(token, depth):
            state = auto.advance(state, masks.get(ch, other) >> 2 * i & auto.full)
            if not state:
                break
        return state

    def forbidden(*args, **kwargs):
        raise AssertionError("a flat run bisected")

    monkeypatch.setattr(matcher, "bisect_left", forbidden)
    monkeypatch.setattr(matcher, "bisect_right", forbidden)
    for state, depth in ((start, 0), (inner, 1)):
        for lengths in (range(8), range(2, 5)):
            got = matcher._walk(auto, word, masks, other, tokens, state, depth, lengths)
            assert type(got) is list
            expected = [(t, s) for t in tokens if len(t) in lengths and (s := stepped(t, state, depth))]
            assert got == expected and expected


def capped_band(word, text, k):
    """The reference edit-distance row of *word* against *text*, as the
    2k+1 cells around the diagonal, capped at k+1, k+1 outside the word."""
    i, n = len(text), len(word)
    return tuple(
        min(edit_distance_reference(word[:j], text), k + 1) if 0 <= j <= n else k + 1
        for j in range(i - k, i + k + 1)
    )


@given(st.text("abc", max_size=8), st.text("abc", max_size=12), st.integers(1, 3))
@settings(max_examples=300, deadline=None)
def test_automaton_steps_equal_capped_reference_rows(word, text, k):
    # One character at a time through _walk, so both the flat step and the jump are checked.
    auto = matcher._automaton(k)
    masks, other, state = auto.read(word)
    for i in range(len(text) + 1):
        band = auto.bands[state]
        assert band == capped_band(word, text[:i], k)
        assert auto.least[state] == min(band)
        assert auto.at_k[state] == tuple(t for t, d in enumerate(band) if d == k)
        assert auto.accept[state] == sum(1 << t for t, d in enumerate(band) if d <= k)
        if i == len(text):
            break
        steps = list(matcher._walk(auto, word, masks, other, (text[i],), state, i, range(1, 2)))
        if not steps:  # the state died: no cell can come back within k
            assert min(capped_band(word, text[: i + 1], k)) == k + 1
            break
        ((_, state),) = steps


@pytest.mark.parametrize("k", [1, 2, 3])
def test_automaton_table_stays_bounded(k):
    auto = matcher._Automaton(k)
    texts = tuple(sorted({"".join(p) for r in range(k + 6) for p in itertools.product("abc", repeat=r)}))
    words = ["".join(p) for r in range(6) for p in itertools.product("abc", repeat=r)]

    def sweep():
        for word in words:
            masks, other, start = auto.read(word)
            for _ in matcher._walk(auto, word, masks, other, texts, start, 0, range(len(texts[-1]) + 1)):
                pass

    sweep()
    states = len(auto.bands)
    assert states <= (k + 2) ** (2 * k + 1)
    sweep()
    assert len(auto.bands) == states  # a second sweep reaches no new state


def test_concurrent_annotation_equals_serial(monkeypatch):
    rnd = random.Random(11)
    trie, _, probes = wide_trie(rnd, "abcd")
    vocab = [token for node in iter_nodes(trie) for token in node.sorted_tokens]
    lines = [
        " ".join(rnd.choice(probes + vocab) for _ in range(rnd.randint(1, 8))) for _ in range(12)
    ]
    jobs = [(line, max_dist) for line in lines for max_dist in (1, 2, 3)]

    def annotate(job):
        line, max_dist = job
        return annotate_line(line, trie, NO_STOPWORDS, EMPTY_ABBREVIATIONS, max_dist, 2)

    serial = [annotate(job) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(8):
            monkeypatch.setattr(matcher, "_AUTOMATA", {})  # the threads fill fresh tables together
            with ThreadPoolExecutor(4) as pool:
                threaded = list(pool.map(annotate, jobs, timeout=300))
            assert threaded == serial
            for max_dist in (1, 2, 3):
                auto = matcher._AUTOMATA[max_dist]
                assert len(set(auto.bands)) == len(auto.bands)
                for state, row in enumerate(auto.delta):
                    for key, nxt in row.items():
                        assert auto.bands[nxt] == auto._next_band(auto.bands[state], key)
    finally:
        sys.setswitchinterval(interval)
