"""Longest-match annotation over a frozen dictionary trie.

The engine resolves one start token at a time, leftmost first. From the
trie root it advances a pool of traversal states through the following
tokens, forking a state once per way a token can match, until no state
survives or the line ends. The deepest term node any of those states
passed is committed, and the scan goes on after the committed span; if
none was passed, it goes on at the next token. The result is a
deterministic, non-overlapping, leftmost-longest annotation list.
"""

from __future__ import annotations

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
    """Deepest term a state has passed, the index of its last input token, the trail."""

    end_index: int
    term: Term
    techniques: tuple[MatchTechnique, ...]


@dataclass(frozen=True)
class MatchState:
    """A live traversal position: trie node, technique trail, deepest terminal."""

    node: TrieNode
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
    abbrevs: AbbreviationTable = EMPTY_ABBREVIATIONS,
    max_dist: int = DEFAULT_MAX_DISTANCE,
    fuzzy_min_len: int = DEFAULT_FUZZY_MIN_LENGTH,
) -> list[MatchState]:
    """Advance every state across *input_token*, the token at *token_index*.

    Each state forks once per way the token matches from its node, in
    ``match_token`` order; a state with no match dies. Successors that land
    on a term node record it, ending at *token_index*, as their deepest
    terminal.
    """
    successors: list[MatchState] = []
    for state in states:
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
            successors.append(MatchState(match.target_node, techniques, hit))
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

    Greedy leftmost-longest: from each start token, every state that
    ``advance_states`` reaches is gathered until the pool empties or the
    line ends, and ``select_longest`` picks the term to commit. The scan
    then resumes after that term, or at the next token when there is none,
    so tokens inside a committed span never start a search, and no
    backtracking trades a committed match for a longer one further right.
    Pure over shared inputs, so lines can be annotated concurrently against
    one frozen trie. Raises ValueError if *max_dist* < 0 or *fuzzy_min_len* < 1.
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
    start = 0
    while start < len(tokens):
        states = [MatchState(trie.root)]
        reached: list[MatchState] = []
        for index in range(start, len(tokens)):
            states = advance_states(
                states,
                tokens[index],
                index,
                abbrevs=abbrevs,
                max_dist=max_dist,
                fuzzy_min_len=fuzzy_min_len,
            )
            if not states:
                break
            reached.extend(states)
        hit = select_longest(reached)
        if hit is None:
            start += 1
            continue
        end = hit.end_index
        annotations.append(
            Annotation(
                start_char=offsets[start][0],
                end_char=offsets[end][1],
                start_token=start,
                end_token=end,
                matched_tokens=tokens[start : end + 1],
                term_label=hit.term.label,
                code=hit.term.code,
                techniques=hit.techniques,
            )
        )
        start = end + 1
    return annotations
