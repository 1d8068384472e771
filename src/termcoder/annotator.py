"""Longest-match annotation over a frozen dictionary trie.

The engine scans a line token by token while keeping a pool of live
traversal states. Every uncovered token also starts a fresh attempt from
the trie root, so a failed partial match never hides a term that begins
one token later. When every state sharing a start token is exhausted, the
deepest term node any of them passed is committed; scanning then continues
after the committed span. The result is a deterministic, non-overlapping,
leftmost-longest annotation list.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .matcher import (
    DEFAULT_FUZZY_MIN_LENGTH,
    DEFAULT_MAX_DISTANCE,
    EMPTY_ABBREVIATIONS,
    AbbreviationTable,
    MatchTechnique,
    match_token,
)
from .normalize import NormalizationConfig, tokenize
from .trie import DictionaryTrie, Term, TrieNode


@dataclass(frozen=True)
class TerminalHit:
    """Deepest term node a state has passed, with its consumed-token span."""

    end_index: int
    term: Term
    techniques: tuple[MatchTechnique, ...]


@dataclass(frozen=True)
class MatchState:
    """A live traversal position: trie node, consumed input span, technique trail."""

    node: TrieNode
    start_index: int
    techniques: tuple[MatchTechnique, ...] = ()
    last_terminal: TerminalHit | None = None


@dataclass(frozen=True)
class Annotation:
    """A detected term occurrence in a raw line."""

    start_char: int
    end_char: int
    start_token: int
    end_token: int
    matched_tokens: tuple[str, ...]
    term_label: str
    code: str
    techniques: tuple[MatchTechnique, ...]


def advance_states(
    states: list[MatchState],
    input_token: str,
    token_index: int,
    *,
    trie: DictionaryTrie,
    abbrevs: AbbreviationTable = EMPTY_ABBREVIATIONS,
    max_dist: int = DEFAULT_MAX_DISTANCE,
    fuzzy_min_len: int = DEFAULT_FUZZY_MIN_LENGTH,
) -> list[MatchState]:
    """Fork each state once per token match; states with no match die.

    A fresh root-anchored attempt is added at *token_index* (callers feed
    only tokens not covered by a committed annotation). Successors that
    land on a term node record it as their deepest terminal.
    """
    successors: list[MatchState] = []
    for state in [*states, MatchState(trie.root, token_index)]:
        for match in match_token(
            input_token, state.node, abbrevs, max_dist, fuzzy_min_len=fuzzy_min_len
        ):
            techniques = state.techniques + (match.technique,)
            term = match.target_node.terminal
            hit = (
                TerminalHit(token_index, term, techniques)
                if term is not None
                else state.last_terminal
            )
            successors.append(
                MatchState(match.target_node, state.start_index, techniques, hit)
            )
    return successors


def select_longest(states: list[MatchState]) -> TerminalHit | None:
    """Best terminal among states sharing a start token, or None.

    Most consumed input tokens win; ties go to the smallest technique
    priority sum (perfect beats fuzzy), then the smallest term label.
    """
    best: TerminalHit | None = None
    best_key = None
    for state in states:
        hit = state.last_terminal
        if hit is None:
            continue
        key = (-hit.end_index, sum(hit.techniques), hit.term.label, hit.term.code)
        if best is None or key < best_key:
            best, best_key = hit, key
    return best


def annotate_line(
    raw: str,
    trie: DictionaryTrie,
    cfg: NormalizationConfig | None = None,
    abbrevs: AbbreviationTable = EMPTY_ABBREVIATIONS,
    max_dist: int = DEFAULT_MAX_DISTANCE,
    fuzzy_min_len: int = DEFAULT_FUZZY_MIN_LENGTH,
) -> list[Annotation]:
    """Detect dictionary terms in *raw* and return ordered annotations.

    Greedy leftmost-longest: each start token is resolved to the longest
    term reachable from it (across all forked states), committed spans
    never overlap, and no backtracking trades a resolved match for a
    longer one further right. Purely functional over shared inputs, so
    lines can be annotated concurrently against one frozen trie.
    """
    if not trie.frozen:
        raise ValueError("dictionary trie must be frozen before annotation")
    text = tokenize(raw, cfg)
    tokens, offsets = text.tokens, text.offsets

    annotations: list[Annotation] = []
    live: list[MatchState] = []
    spawned: dict[int, list[MatchState]] = {}
    pending: deque[int] = deque()

    def emit(start: int, hit: TerminalHit) -> None:
        end = hit.end_index
        annotations.append(
            Annotation(
                start_char=offsets[start][0],
                end_char=offsets[end][1],
                start_token=start,
                end_token=end,
                matched_tokens=tuple(tokens[start : end + 1]),
                term_label=hit.term.label,
                code=hit.term.code,
                techniques=hit.techniques,
            )
        )

    def resolve_exhausted() -> None:
        # Commit (or drop) pending start tokens, leftmost first, once no
        # live state can extend them any further.
        nonlocal live
        while pending:
            start = pending[0]
            if any(state.start_index == start for state in live):
                break
            pending.popleft()
            hit = select_longest(spawned.pop(start, []))
            if hit is None:
                continue
            emit(start, hit)
            while pending and pending[0] <= hit.end_index:
                spawned.pop(pending.popleft(), None)
            live = [state for state in live if state.start_index > hit.end_index]

    for index, token in enumerate(tokens):
        live = advance_states(
            live,
            token,
            index,
            trie=trie,
            abbrevs=abbrevs,
            max_dist=max_dist,
            fuzzy_min_len=fuzzy_min_len,
        )
        pending.append(index)
        for state in live:
            spawned.setdefault(state.start_index, []).append(state)
        resolve_exhausted()

    live = []
    resolve_exhausted()
    return annotations
