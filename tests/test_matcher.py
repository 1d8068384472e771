import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termcoder.matcher import (
    AbbreviationTable,
    MatchTechnique,
    default_abbreviations,
    levenshtein_distance,
    match_token,
)
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
        table = default_abbreviations()
        assert table.expansions("avc") == (("accident", "vasculaire", "cerebral"),)

    def test_default_table_has_nine_entries(self):
        assert len(default_abbreviations().entries) == 9

    def test_self_expansion_dropped(self):
        table = AbbreviationTable.build({"avc": "avc"})
        assert table.expansions("avc") == ()

    def test_expansion_is_stopword_filtered(self):
        table = default_abbreviations()
        assert table.expansions("idm") == (("infarctus", "myocarde"),)

    def test_multi_word_short_form_rejected(self):
        with pytest.raises(ValueError, match="single token"):
            AbbreviationTable.build({"a b": "whatever"})


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
        matches = match_token("avc", trie.root, default_abbreviations(), 1)
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


@given(fuzzy_cases())
@settings(max_examples=120, deadline=None)
def test_match_token_equals_brute_force_reference(case):
    trie, table, probes, fuzzy_min_len = case
    nodes = [((), trie.root)]
    for path, node in nodes:
        nodes.extend((path + (token,), child) for token, child in node.children.items())
    paths = {id(node): path for path, node in nodes}
    # At max_dist 3 the band is wider than the 2-5-letter tokens.
    for max_dist in (0, 1, 2, 3):
        for path, node in nodes:
            for probe in probes:
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
