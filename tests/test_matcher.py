import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termcoder import matcher
from termcoder.matcher import (
    _LEAF_SIZE,
    EMPTY_ABBREVIATIONS,
    AbbreviationTable,
    MatchTechnique,
    levenshtein_distance,
    load_abbreviations,
    match_token,
)
from termcoder.normalize import NormalizationConfig, default_stopwords
from termcoder.trie import DictionaryTrie, Term

from helpers import (
    NO_STOPWORDS,
    build_trie,
    composed_trie,
    edit_distance_reference,
    heart_trie,
    reference_match_token,
)


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
        assert table.expansions("ins") == (("insuffisance",),)

    def test_unknown_token(self):
        table = AbbreviationTable.build({"ins": "insuffisance"})
        assert table.expansions("cardiaque") == ()

    def test_default_table_multi_token_expansion(self):
        table = load_abbreviations()
        assert table.expansions("avc") == (("accident", "vasculaire", "cerebral"),)

    def test_default_table_has_nine_entries(self):
        assert len(load_abbreviations().entries) == 9

    def test_self_expansion_dropped(self):
        table = AbbreviationTable.build({"avc": "avc"})
        assert table.expansions("avc") == ()

    def test_expansion_is_stopword_filtered(self):
        table = load_abbreviations()
        assert table.expansions("idm") == (("infarctus", "myocarde"),)

    def test_built_in_short_forms(self):
        shorts = {"ins", "avc", "oap", "idm", "bpco", "hta", "irc", "ira", "fa"}
        assert load_abbreviations().entries.keys() == shorts
        assert not shorts & default_stopwords()

    def test_malformed_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "abbrev.txt"
        path.write_text("# comment\n\nins=insuffisance\navc accident\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:4: expected 'short=expansion words'")):
            load_abbreviations(path)

    @pytest.mark.parametrize("short", ["de", "d'"])
    def test_stopword_short_form_rejected(self, short):
        # tokenize drops a stopword, so no input token could ever match the entry
        with pytest.raises(ValueError, match="stopword"):
            AbbreviationTable.build({short: "insuffisance cardiaque"})

    def test_short_form_accepted_when_not_a_stopword(self):
        cfg = NormalizationConfig(stopwords=default_stopwords() - {"de"})
        table = AbbreviationTable.build({"de": "insuffisance cardiaque"}, cfg)
        assert table.expansions("de") == (("insuffisance", "cardiaque"),)

    def test_multi_word_short_form_rejected(self):
        with pytest.raises(ValueError, match="single token"):
            AbbreviationTable.build({"a b": "whatever"})

    @pytest.mark.parametrize("short", ["i\u00a0r", "i\tr"], ids=["no-break space", "tab"])
    def test_short_form_split_by_other_whitespace_rejected(self, short):
        # tokenize splits on these too, so no input token could ever match the entry
        with pytest.raises(ValueError, match="single token"):
            AbbreviationTable.build({short: "insuffisance renale"})


class TestMatchToken:
    def test_abbreviation_advances_one_level(self):
        trie = heart_trie()
        table = AbbreviationTable.build({"ins": "insuffisance"})
        matches = match_token("ins", trie.root, table, 1)
        assert len(matches) == 1
        assert matches[0].technique is MatchTechnique.ABBREVIATION
        assert matches[0].target_node.token == "insuffisance"

    def test_unigram_and_bigram_paths_both_found(self):
        trie = composed_trie()
        # The misspellings edit the meningo|encephalite join, where the
        # composed-word scan moves from the first token to the second.
        for probe, unigram in (
            ("meningoencephalite", MatchTechnique.PERFECT),
            ("meningencephalite", MatchTechnique.LEVENSHTEIN),  # deletion
            ("meningoxencephalite", MatchTechnique.LEVENSHTEIN),  # insertion
            ("meningaencephalite", MatchTechnique.LEVENSHTEIN),  # substitution
        ):
            matches = match_token(probe, trie.root)
            assert [m.technique for m in matches] == [unigram, MatchTechnique.BIGRAM_LEVENSHTEIN], probe
            assert matches[0].target_node.token == "meningoencephalite"
            assert matches[1].target_node.token == "encephalite"

    def test_no_match(self):
        trie = heart_trie()
        assert match_token("zzz", trie.root) == []

    def test_levenshtein_respects_length_floor(self):
        trie = build_trie({"aigue": "X00"})
        assert match_token("aigu", trie.root, max_dist=1) == []
        matches = match_token("aigu", trie.root, max_dist=1, fuzzy_min_len=4)
        assert [m.technique for m in matches] == [MatchTechnique.LEVENSHTEIN]

    def test_max_dist_zero_is_perfect_only(self):
        trie = composed_trie()
        for node in trie.iter_nodes():
            for probe in ("meningoencephalite", "meningo", "virale", "encephalit", "zz"):
                matches = match_token(probe, node, max_dist=0)
                expected = node.children.get(probe)
                if expected is None:
                    assert matches == []
                else:
                    assert len(matches) == 1
                    assert matches[0].technique is MatchTechnique.PERFECT
                    assert matches[0].target_node is expected

    def test_duplicate_target_keeps_strongest_technique(self):
        trie = build_trie({"abcdef": "X00"})
        table = AbbreviationTable.build({"abcdee": "abcdef"})
        matches = match_token("abcdee", trie.root, table, 1)
        assert len(matches) == 1
        assert matches[0].technique is MatchTechnique.ABBREVIATION

    def test_multi_token_abbreviation_walks_whole_expansion(self):
        trie = build_trie({"accident vasculaire cerebral": "I64"})
        matches = match_token("avc", trie.root, load_abbreviations(), 1)
        assert len(matches) == 1
        assert matches[0].technique is MatchTechnique.ABBREVIATION
        assert matches[0].target_node.terminal.code == "I64"

    def test_targets_confined_to_current_position(self):
        trie = heart_trie()
        table = AbbreviationTable.build({"ins": "insuffisance"})
        for node in trie.iter_nodes():
            near = set(node.children.values())
            near.update(g for c in node.children.values() for g in c.children.values())
            for probe in ("ins", "insuffisance", "cardiaqu", "respiratoire", "aigue"):
                for m in match_token(probe, node, table, 1):
                    assert m.target_node in near


def composed_pairs(trie, probe):
    """(first, second) token pairs a composed-word match of *probe* reaches, from any node."""
    pairs = set()
    for node in trie.iter_nodes():
        for m in match_token(probe, node, max_dist=1):
            if m.technique is MatchTechnique.BIGRAM_LEVENSHTEIN:
                first = next(t for t, c in node.children.items() if m.target_node in c.children.values())
                pairs.add((first, m.target_node.token))
    return pairs


class TestBigramIndex:
    """Composed-word (bigram) candidates are the trie's own parent->child edges."""

    def test_contains_exactly_consecutive_pairs(self):
        trie = heart_trie()
        expected = {
            ("insuffisance", "cardiaque"),
            ("cardiaque", "aigue"),
            ("cardiaque", "congestive"),
            ("insuffisance", "respiratoire"),
            ("respiratoire", "aigue"),
        }
        vocab = {token for term in trie.iter_terms() for token in term.tokens}
        found = set().union(*(composed_pairs(trie, a + b) for a in vocab for b in vocab))
        assert found == expected
        assert composed_pairs(trie, "insuffisancecardiaque") == {("insuffisance", "cardiaque")}
        assert composed_pairs(trie, "cardiaqueinsuffisance") == set()

    def test_keys_are_concatenations(self):
        trie = heart_trie()
        (match,) = match_token("insuffisancecardiaque", trie.root, max_dist=1)
        assert match.technique is MatchTechnique.BIGRAM_LEVENSHTEIN
        assert match.target_node is trie.lookup_path(("insuffisance", "cardiaque"))

    def test_empty_trie(self):
        trie = DictionaryTrie().freeze()
        assert match_token("insuffisancecardiaque", trie.root, max_dist=1) == []
        assert composed_pairs(trie, "insuffisancecardiaque") == set()

    def test_single_token_term_has_no_bigrams(self):
        trie = DictionaryTrie()
        trie.insert_term(Term(("avc",), "avc", "I640"))
        trie.freeze()
        assert composed_pairs(trie, "avc") == set()
        assert composed_pairs(trie, "avcavc") == set()

    def test_shared_pair_indexed_once(self):
        trie = build_trie({"a aigue cardiaque": "C1", "b aigue cardiaque": "C2"})
        assert composed_pairs(trie, "aiguecardiaque") == {("aigue", "cardiaque")}
        for head in ("a", "b"):
            (match,) = match_token("aiguecardiaque", trie.root.children[head], max_dist=1)
            assert match.target_node.terminal.label == f"{head} aigue cardiaque"


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
        trie.insert_term(Term(path, " ".join(path), f"C{i}"))
    trie.freeze()
    tokens = vocab + [a + b for a in vocab for b in vocab]
    probes = draw(st.lists(st.sampled_from(tokens), min_size=1, max_size=6))
    probes += [one_edit(draw, t) for t in probes if draw(st.booleans())]
    probes += list(short_forms)
    table = AbbreviationTable.build(short_forms, NO_STOPWORDS)
    return trie, table, probes, draw(st.integers(1, 6))


def assert_matches_reference(trie, table, path, node, probe, max_dist, fuzzy_min_len, paths):
    """match_token from *node* equals the brute-force reference, in the promised order."""
    got = match_token(probe, node, table, max_dist=max_dist, fuzzy_min_len=fuzzy_min_len)
    as_list = [(m.technique, paths[id(m.target_node)]) for m in got]
    assert len(set(as_list)) == len(got)
    assert set(as_list) == reference_match_token(probe, trie, path, table, max_dist, fuzzy_min_len)
    # The order is part of the result: select_longest keeps the first of equal keys.
    techniques = [technique for technique, _ in as_list]
    assert techniques == sorted(techniques)
    for fuzzy in (MatchTechnique.LEVENSHTEIN, MatchTechnique.BIGRAM_LEVENSHTEIN):
        targets = [target for technique, target in as_list if technique is fuzzy]
        assert targets == sorted(targets)


def node_paths(trie):
    """(path, node) for every node of *trie*, root first."""
    nodes = [((), trie.root)]
    for path, node in nodes:
        nodes.extend((path + (token,), child) for token, child in node.children.items())
    return nodes


@given(fuzzy_cases())
@settings(max_examples=120, deadline=None)
def test_match_token_equals_brute_force_reference(case):
    trie, table, probes, fuzzy_min_len = case
    nodes = node_paths(trie)
    paths = {id(node): path for path, node in nodes}
    # At max_dist 3 the band is wider than the 2-5-letter tokens.
    for max_dist in (0, 1, 2, 3):
        for path, node in nodes:
            for probe in probes:
                assert_matches_reference(trie, table, path, node, probe, max_dist, fuzzy_min_len, paths)


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
        trie.insert_term(Term(path, " ".join(path), f"C{i}"))
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
    # More siblings than _LEAF_SIZE: shared prefix rows, jumps and split-reached leaves.
    trie, wide, probes = wide_trie(rnd, alphabet)
    paths = {id(node): path for path, node in node_paths(trie)}
    fuzzy_min_len = rnd.choice((1, 4))
    for path in ((), (wide,)):
        node = trie.lookup_path(path)
        for probe in probes:
            for max_dist in (1, 2, 3):
                assert_matches_reference(
                    trie, EMPTY_ABBREVIATIONS, path, node, probe, max_dist, fuzzy_min_len, paths
                )


def test_descent_extends_fewer_rows_than_eligible_children(monkeypatch):
    rnd = random.Random(6)
    words = {"".join(rnd.choice("abcd") for _ in range(rnd.randint(3, 8))) for _ in range(400)}
    trie = build_trie({w: f"C{i}" for i, w in enumerate(sorted(words))})
    probe = min(w for w in words if len(w) == 6)[:-1] + "x"  # one substitution away
    eligible = [w for w in words if len(w) <= len(probe) + 1]
    calls = []
    extend_row = matcher._extend_row
    monkeypatch.setattr(
        matcher, "_extend_row", lambda *args: calls.append(args) or extend_row(*args)
    )
    got = match_token(probe, trie.root, max_dist=1, fuzzy_min_len=1)
    assert {(m.technique, (m.target_node.token,)) for m in got} == reference_match_token(
        probe, trie, (), EMPTY_ABBREVIATIONS, 1, 1
    )
    assert got
    # A flat scan extends one row per length-eligible child at least.
    assert len(eligible) > 200
    assert len(calls) < len(eligible)
