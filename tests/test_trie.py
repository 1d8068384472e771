import pytest
from hypothesis import given
from hypothesis import strategies as st

from termcoder import trie as trie_module
from termcoder.trie import DictionaryTrie, Term, TrieNode

from helpers import build_trie, heart_trie, iter_nodes, lookup_path


class TestInsert:
    def test_insert_creates_path_with_terminal(self):
        trie = heart_trie()
        node = lookup_path(trie, ("insuffisance", "cardiaque", "aigue"))
        assert node is not None
        assert node.terminal.code == "I509"

    def test_terminal_node_can_have_children(self):
        trie = heart_trie()
        node = lookup_path(trie, ("insuffisance", "cardiaque"))
        assert node.terminal is not None
        assert "aigue" in node.children

    def test_empty_token_list_rejected(self):
        trie = DictionaryTrie()
        with pytest.raises(ValueError, match="no tokens"):
            trie.insert_term((), Term("", "X00"))

    def test_empty_code_rejected(self):
        trie = DictionaryTrie()
        with pytest.raises(ValueError, match="empty code"):
            trie.insert_term(("avc",), Term("avc", ""))

    def test_reinsert_same_path_overwrites_terminal(self):
        trie = DictionaryTrie()
        trie.insert_term(("avc",), Term("avc", "I64"))
        trie.insert_term(("avc",), Term("AVC", "I640"))
        assert trie.term_count == 1
        assert trie.root.children["avc"].terminal.code == "I640"

    def test_insert_after_freeze_fails(self):
        trie = heart_trie()
        with pytest.raises(ValueError, match="frozen"):
            trie.insert_term(("x",), Term("x", "X00"))

    def test_insert_after_freeze_leaves_the_shared_leaf_mapping_empty(self):
        trie = heart_trie()
        leaf = lookup_path(trie, ("insuffisance", "cardiaque", "aigue"))
        other = lookup_path(trie, ("insuffisance", "respiratoire", "aigue"))
        assert leaf.children is other.children  # every leaf shares one empty mapping
        with pytest.raises(ValueError, match="frozen"):
            trie.insert_term(("insuffisance", "cardiaque", "aigue", "x"), Term("x", "X00"))
        assert leaf.children == {}
        # A trie built afterwards has empty leaves too.
        assert lookup_path(heart_trie(), ("insuffisance", "respiratoire", "aigue")).children == {}

    def test_insert_builds_a_node_only_for_a_missing_child(self, monkeypatch):
        built = []

        class CountingNode(TrieNode):
            __slots__ = ()

            def __init__(self):
                built.append(self)
                super().__init__()

        monkeypatch.setattr(trie_module, "TrieNode", CountingNode)
        trie = DictionaryTrie()  # the root is one
        trie.insert_term(("a", "b"), Term("a b", "C1"))
        trie.insert_term(("a", "b"), Term("a b", "C2"))
        trie.insert_term(("a", "c"), Term("a c", "C3"))
        assert len(built) == 4  # root, a, b, c


class TestLookups:
    def test_child_lookup_depends_on_position(self):
        trie = heart_trie()
        assert trie.root.children.get("cardiaque") is None
        node = trie.root.children.get("insuffisance")
        assert node.children.get("cardiaque") is not None

    def test_child_lookup_empty_token(self):
        assert heart_trie().root.children.get("") is None

    def test_children_tokens(self):
        trie = heart_trie()
        assert set(trie.root.children) == {"insuffisance"}
        node = trie.root.children["insuffisance"]
        assert set(node.children) == {"cardiaque", "respiratoire"}
        assert node.sorted_tokens == ("cardiaque", "respiratoire")
        leaf = lookup_path(trie, ("insuffisance", "cardiaque", "aigue"))
        assert set(leaf.children) == set()
        assert leaf.sorted_tokens == ()


class TestCounts:
    def test_term_and_code_counts(self):
        trie = heart_trie()
        assert trie.term_count == 5

    def test_prefix_sharing_node_count(self):
        trie = DictionaryTrie()
        trie.insert_term(("a", "b"), Term("a b", "C1"))
        trie.insert_term(("a", "c"), Term("a c", "C2"))
        assert sum(1 for _ in iter_nodes(trie)) == 4  # root, a, b, c


token = st.text(alphabet="abcdef", min_size=1, max_size=5)
paths = st.lists(token, min_size=1, max_size=4).map(tuple)


@given(st.dictionaries(paths, st.text(alphabet="ABC0123456789", min_size=1, max_size=4), max_size=25))
def test_round_trip_random_term_sets(entries):
    trie = DictionaryTrie()
    for path, code in entries.items():
        trie.insert_term(path, Term(" ".join(path), code))
    trie.freeze()
    assert trie.term_count == len(entries)
    for path, code in entries.items():
        node = lookup_path(trie, path)
        assert node.terminal == Term(" ".join(path), code)


@given(st.sets(paths, max_size=25))
def test_node_count_equals_distinct_prefixes_plus_root(term_paths):
    trie = DictionaryTrie()
    for path in term_paths:
        trie.insert_term(path, Term(" ".join(path), "C0"))
    prefixes = {path[:i] for path in term_paths for i in range(1, len(path) + 1)}
    assert sum(1 for _ in iter_nodes(trie)) == len(prefixes) + 1


class TestFreeze:
    def check_shared(self, trie):
        """Every node's tokens are its sorted children, one tuple per token set."""
        seen = {}
        for node in iter_nodes(trie):
            assert node.sorted_tokens == tuple(sorted(node.children))
            assert seen.setdefault(frozenset(node.children), node.sorted_tokens) is node.sorted_tokens

    def test_equal_child_sets_share_one_tuple(self):
        # "a" and "b" get children x and y in opposite orders; "c", "d" and "x" under "a" end in "z".
        terms = ("a x", "a y", "b y", "b x", "c z", "d z", "a x z")
        trie = build_trie({label: f"C{i}" for i, label in enumerate(terms)})
        a, b = trie.root.children["a"], trie.root.children["b"]
        assert a.sorted_tokens == ("x", "y")
        assert a.sorted_tokens is b.sorted_tokens
        ends = [lookup_path(trie, path).sorted_tokens for path in (("c",), ("d",), ("a", "x"))]
        assert ends == [("z",)] * 3
        assert ends[0] is ends[1] is ends[2]
        self.check_shared(trie)

    @given(st.lists(paths, max_size=40))
    def test_random_term_sets(self, term_paths):
        trie = DictionaryTrie()
        for path in term_paths:
            trie.insert_term(path, Term(" ".join(path), "C0"))
        self.check_shared(trie.freeze())
