"""Token-trie storage for multi-word dictionary terms.

Each term is a root-to-node path of normalized tokens; the node ending a
path carries the term record. Interior nodes carry no code and never
produce annotations on their own.
"""

from __future__ import annotations

from typing import NamedTuple


class Term(NamedTuple):
    """A dictionary entry: surface label and code. Its token path is where
    the trie stores it."""

    label: str
    code: str


# The children of every node that has none: one shared mapping that is
# never written to, since ``insert_term`` gives a node its own dict when it
# adds the node's first child.
_NO_CHILDREN: dict[str, "TrieNode"] = {}


class TrieNode:
    __slots__ = ("children", "terminal", "sorted_tokens")

    def __init__(self) -> None:
        self.children: dict[str, TrieNode] = _NO_CHILDREN
        self.terminal: Term | None = None
        self.sorted_tokens: tuple[str, ...] = ()

    def __repr__(self) -> str:
        return f"TrieNode(children={len(self.children)}, terminal={self.terminal is not None})"


class DictionaryTrie:
    """Mutable while loading; ``freeze()`` before matching."""

    def __init__(self) -> None:
        self.root = TrieNode()
        self.term_count = 0
        self._frozen = False

    @property
    def frozen(self) -> bool:
        return self._frozen

    def insert_term(self, tokens: tuple[str, ...], term: Term) -> "DictionaryTrie":
        """Store *term* on the node at the end of the path *tokens*."""
        if self._frozen:
            raise ValueError("trie is frozen; build a new one to add terms")
        if not tokens:
            raise ValueError(f"term {term.label!r} has no tokens")
        if not term.code:
            raise ValueError(f"term {term.label!r} has an empty code")
        node = self.root
        for token in tokens:
            child = node.children.get(token)
            if child is None:
                if node.children is _NO_CHILDREN:
                    node.children = {}
                child = node.children[token] = TrieNode()
            node = child
        if node.terminal is None:
            self.term_count += 1
        node.terminal = term  # last write wins; the coder resolves codes first
        return self

    def freeze(self) -> "DictionaryTrie":
        """Sort every node's child tokens and lock the trie against inserts.

        Matching scans children in ``sorted_tokens`` order, so tie order does
        not depend on insertion order; a frozen trie is never mutated and can
        be shared by concurrent readers. Every leaf shares one empty
        ``children`` mapping, and all nodes with the same child tokens share
        one ``sorted_tokens`` tuple.
        """
        if not self._frozen:
            shared: dict[tuple[str, ...], tuple[str, ...]] = {}
            stack = [self.root]
            while stack:
                node = stack.pop()
                children = node.children
                if children:
                    tokens = tuple(children) if len(children) == 1 else tuple(sorted(children))
                    node.sorted_tokens = shared.setdefault(tokens, tokens)
                    stack.extend(children.values())
            self._frozen = True
        return self
