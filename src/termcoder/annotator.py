"""Longest-match annotation over a frozen dictionary trie.

The engine resolves one start token at a time, leftmost first. From the
trie root it advances a pool of traversal states through the following
tokens, forking a state once per way a token can match, until no state
survives or the line ends. A state is a trie node and the technique trail
that reached it. The last step that put a state on a term node consumed
the most tokens, so that step's best term is committed, and the scan goes
on after the committed span; if no step reached a term node, it goes on
at the next token. The result is a deterministic, non-overlapping,
leftmost-longest annotation list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .matcher import (
    DEFAULT_FUZZY_MIN_LENGTH,
    DEFAULT_MAX_DISTANCE,
    EMPTY_ABBREVIATIONS,
    AbbreviationTable,
    MatchTechnique,
    match_token,
)
from .normalize import NormalizationConfig, tokenize
from .trie import DictionaryTrie, TrieNode


class MatchState(NamedTuple):
    """A live traversal position: trie node and technique trail."""

    node: TrieNode
    techniques: tuple[MatchTechnique, ...] = ()


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
    *,
    abbrevs: AbbreviationTable = EMPTY_ABBREVIATIONS,
    max_dist: int = DEFAULT_MAX_DISTANCE,
    fuzzy_min_len: int = DEFAULT_FUZZY_MIN_LENGTH,
) -> list[MatchState]:
    """Advance every state across *input_token*.

    Each state forks once per candidate ``match_token`` lists, in its
    order; a state with no match dies. Successors on one node may come
    from two states, or from one state whose abbreviation target is also
    a fuzzy target. Of these twins, only the first with the smallest
    technique sum is kept, in its place: the others could never be
    selected (see ``_drop_twins``, the one place twins are dropped).
    Every technique descends at least one trie level, so after the j-th
    token of a start the pool holds at most one state per node of depth j
    or more.
    """
    successors = []  # a loop, not a comprehension: one call fewer per token on CPython 3.11
    for state in states:
        for match in match_token(
            input_token, state.node, abbrevs, max_dist, fuzzy_min_len=fuzzy_min_len
        ):
            successors.append(MatchState(match.target_node, state.techniques + (match.technique,)))
    return _drop_twins(successors) if len(successors) > 1 else successors


def _drop_twins(states: list[MatchState]) -> list[MatchState]:
    """*states* without each state that shares its node with an earlier state
    of equal technique sum, or with any state of a smaller one.

    Twins on one node have the same continuations, so each continuation of a
    dropped twin has a continuation of the kept one beside it, with a sum
    no larger and on the same term. When the sums are equal, the kept one
    comes first in every later pool. ``select_longest`` would never pick the
    dropped one, so the result does not change, and the pool stays bounded
    by the trie instead of doubling with each ambiguous short form. A twin
    from the state that made an earlier one comes later in technique
    order, so its sum is larger and it is always dropped.
    """
    best: dict[TrieNode, tuple[int, MatchState]] = {}
    for state in states:
        cost = sum(state.techniques)
        kept = best.get(state.node)
        if kept is None:
            best[state.node] = (cost, state)
        elif cost < kept[0]:  # re-insert, so the node moves to the cheaper twin's place
            del best[state.node]
            best[state.node] = (cost, state)
    return states if len(best) == len(states) else [state for _, state in best.values()]


def select_longest(states: list[MatchState]) -> MatchState | None:
    """Best state on a term node in one step's pool, or None.

    Every state in the pool consumed the same tokens; the smallest
    technique priority sum wins (perfect beats fuzzy), then the smallest
    term label, then the smallest code, then the first state in pool order.
    """
    if len(states) == 1:
        (state,) = states
        return state if state.node.terminal is not None else None
    return min(
        (state for state in states if state.node.terminal is not None),
        key=lambda state: (
            sum(state.techniques),
            state.node.terminal.label,
            state.node.terminal.code,
        ),
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
    ``select_longest`` picks that step's best state on a term node. The
    last step with such a state consumed the most tokens; its state's term
    is committed. The scan then resumes after that term, or at the next
    token when there is none, so tokens inside a committed span never
    start a search, and no backtracking trades a committed match for a
    longer one further right.
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
    root = [MatchState(trie.root)]  # advance_states never mutates a pool: every start shares it
    start = 0
    while start < len(tokens):
        states = root
        best, end = None, start
        for index in range(start, len(tokens)):
            states = advance_states(
                states,
                tokens[index],
                abbrevs=abbrevs,
                max_dist=max_dist,
                fuzzy_min_len=fuzzy_min_len,
            )
            if not states:
                break
            hit = select_longest(states)
            if hit is not None:
                best, end = hit, index
        if best is None:
            start += 1
            continue
        term = best.node.terminal
        annotations.append(
            Annotation(
                start_char=offsets[start][0],
                end_char=offsets[end][1],
                start_token=start,
                end_token=end,
                matched_tokens=tokens[start : end + 1],
                term_label=term.label,
                code=term.code,
                techniques=best.techniques,
            )
        )
        start = end + 1
    return annotations
