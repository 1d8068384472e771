"""Longest-match annotation over a frozen dictionary trie.

The engine resolves one start token at a time, leftmost first. From the
trie root it advances a pool through the following tokens, until the pool
empties or the line ends. The pool maps each trie node reached to the
technique trail that reached it, and each node forks once per way a token
can match. The last step that reached a term node consumed the most
tokens, so that step's best term is committed, and the scan goes on after
the committed span; if no step reached a term node, it goes on at the
next token. The result is a deterministic, non-overlapping,
leftmost-longest annotation list. The pool step, ``advance_states``, lives
in ``matcher`` beside the techniques it applies.
"""

from __future__ import annotations

from typing import NamedTuple

from .matcher import (
    DEFAULT_FUZZY_MIN_LENGTH,
    DEFAULT_MAX_DISTANCE,
    EMPTY_ABBREVIATIONS,
    AbbreviationTable,
    MatchTechnique,
    advance_states,
)
from .normalize import NormalizationConfig, tokenize
from .trie import DictionaryTrie, TrieNode


class Annotation(NamedTuple):
    """A detected term occurrence in a raw line."""

    start_char: int
    end_char: int
    start_token: int
    end_token: int
    matched_tokens: tuple[str, ...]
    term_label: str
    code: str
    techniques: tuple[MatchTechnique, ...]


def select_longest(
    pool: dict[TrieNode, tuple[MatchTechnique, ...]],
) -> tuple[TrieNode, tuple[MatchTechnique, ...]] | None:
    """Best (node, trail) entry on a term node in one step's pool, or None.

    Every trail in the pool consumed the same tokens; the smallest
    technique priority sum wins (perfect beats fuzzy), then the smallest
    term label, then the smallest code, then the first entry in pool order.
    """
    if len(pool) == 1:
        (hit,) = pool.items()
        return hit if hit[0].terminal is not None else None
    return min(
        (hit for hit in pool.items() if hit[0].terminal is not None),
        key=lambda hit: (sum(hit[1]), hit[0].terminal.label, hit[0].terminal.code),
        default=None,
    )


def annotate_line(
    raw: str,
    trie: DictionaryTrie,
    cfg: NormalizationConfig | None = None,
    abbrevs: AbbreviationTable = EMPTY_ABBREVIATIONS,
    max_dist: int = DEFAULT_MAX_DISTANCE,
    fuzzy_min_len: int = DEFAULT_FUZZY_MIN_LENGTH,
) -> list[Annotation]:
    """Detect dictionary terms in *raw* and return ordered annotations.

    Greedy leftmost-longest: from each start token, ``advance_states``
    steps the pool until it empties or the line ends, and after each step
    ``select_longest`` picks that step's best entry on a term node. The
    last step with such an entry consumed the most tokens; its term is
    committed. The scan then resumes after that term, or at the next
    token when there is none, so tokens inside a committed span never
    start a search, and no backtracking trades a committed match for a
    longer one further right. At *max_dist* 0 a start token that is
    neither a root child nor a short form in *abbrevs* starts no pool:
    no technique could step from the root on it.
    Pure over shared inputs, so lines can be annotated concurrently against
    one frozen trie. Raises ValueError if *max_dist* < 0 or *fuzzy_min_len* < 1.

    *max_dist* has no upper bound, because every value gives a defined
    result at a cost that grows with the value, not without limit. Once
    it reaches the length of the input token and of the longest pair of
    dictionary tokens, every child and every composed pair matches, so a
    larger value changes nothing. An automaton state is 2k+1 cells, and
    its table could hold (k+2)^(2k+1) states, but only the states that
    tokens actually reach are made. On a five-term trie, a five-token line
    at *max_dist* 1,000 took 0.12-0.16 s with an empty table and 0.3 ms
    once its 129 states were made.
    """
    if not trie.frozen:
        raise ValueError("dictionary trie must be frozen before annotation")
    if max_dist < 0:
        raise ValueError(f"max_dist must be at least 0, got {max_dist}")
    if fuzzy_min_len < 1:
        raise ValueError(f"fuzzy_min_len must be at least 1, got {fuzzy_min_len}")
    text = tokenize(raw, cfg)
    tokens, offsets = text.tokens, text.offsets

    annotations: list[Annotation] = []
    root = {trie.root: ()}  # advance_states never mutates a pool: every start shares it
    exact = max_dist == 0  # see the docstring: some starts need no pool
    children, short_forms = trie.root.children, abbrevs.entries
    start = 0
    while start < len(tokens):
        if exact and tokens[start] not in children and tokens[start] not in short_forms:
            start += 1
            continue
        pool = root
        best, end = None, start
        for index in range(start, len(tokens)):
            pool = advance_states(
                pool,
                tokens[index],
                abbrevs=abbrevs,
                max_dist=max_dist,
                fuzzy_min_len=fuzzy_min_len,
            )
            if not pool:
                break
            hit = select_longest(pool)
            if hit is not None:
                best, end = hit, index
        if best is None:
            start += 1
            continue
        node, trail = best
        term = node.terminal
        annotations.append(
            Annotation(  # by position: keywords would double the cost of the call
                offsets[start][0],
                offsets[end][1],
                start,
                end,
                tokens[start : end + 1],
                term.label,
                term.code,
                trail,
            )
        )
        start = end + 1
    return annotations
