"""Per-token matching techniques against the dictionary trie.

Every technique is evaluated against the children of the *current* trie
node (what could legally come next), never against the whole vocabulary:
perfect equality, abbreviation expansion, bounded edit distance, and
composed words (one input token vs. the concatenation of two consecutive
dictionary tokens).

Both distance-based techniques come from one walk over the child tokens.
Each child's edit-distance row against the input token is extended one
character at a time, only within the *max_dist* band around the
diagonal, and is then carried on through every grandchild; a row whose
band lies wholly past *max_dist* is dropped together with all of its
grandchildren. ``levenshtein_distance`` is kept as the standalone
distance between two strings; matching does not call it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from os import PathLike
from typing import Iterable

from .normalize import NormalizationConfig, normalize_text, tokenize
from .trie import TrieNode

DEFAULT_MAX_DISTANCE = 1
DEFAULT_FUZZY_MIN_LENGTH = 5

_ABBREVIATIONS_RESOURCE = "abbreviations_fr.txt"


class MatchTechnique(enum.IntEnum):
    """How an input token advanced the trie; lower value = stronger evidence."""

    PERFECT = 0
    ABBREVIATION = 1
    LEVENSHTEIN = 2
    BIGRAM_LEVENSHTEIN = 3

    @property
    def label(self) -> str:
        return self.name.lower().replace("_", "-")


@dataclass(frozen=True)
class AbbreviationTable:
    """Maps a normalized short form to one or more token-sequence expansions."""

    entries: dict[str, tuple[tuple[str, ...], ...]] = field(default_factory=dict)

    def expansions(self, token: str) -> tuple[tuple[str, ...], ...]:
        return self.entries.get(token, ())

    @classmethod
    def build(
        cls,
        mapping: dict[str, str | Iterable[str]],
        cfg: NormalizationConfig | None = None,
    ) -> "AbbreviationTable":
        """Build from ``{short form: expansion or [expansions, ...]}``.

        Both sides are normalized with *cfg*; an entry expanding to itself
        is dropped (it would be a no-op masquerading as a technique).
        """
        cfg = cfg or NormalizationConfig()
        entries: dict[str, list[tuple[str, ...]]] = {}
        for key, value in mapping.items():
            short = normalize_text(key).strip()
            if not short or " " in short:
                raise ValueError(f"abbreviation {key!r} must normalize to a single token")
            raw_expansions = [value] if isinstance(value, str) else list(value)
            for raw in raw_expansions:
                expansion = tokenize(raw, cfg).tokens
                if not expansion or expansion == (short,):
                    continue
                bucket = entries.setdefault(short, [])
                if expansion not in bucket:
                    bucket.append(expansion)
        return cls({key: tuple(exps) for key, exps in entries.items()})


EMPTY_ABBREVIATIONS = AbbreviationTable()


def _parse_abbreviation_lines(
    lines: Iterable[str], cfg: NormalizationConfig | None, source: str
) -> AbbreviationTable:
    mapping: dict[str, list[str]] = {}
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        short, sep, expansion = line.partition("=")
        if not sep or not short.strip() or not expansion.strip():
            raise ValueError(f"{source}:{lineno}: expected 'short=expansion words'")
        mapping.setdefault(short.strip(), []).append(expansion.strip())
    return AbbreviationTable.build(mapping, cfg)


def load_abbreviations(
    path: str | PathLike[str], cfg: NormalizationConfig | None = None
) -> AbbreviationTable:
    """Read ``short=expansion words`` lines; ``#`` comments ignored."""
    with open(path, encoding="utf-8") as fh:
        return _parse_abbreviation_lines(fh, cfg, str(path))


@lru_cache(maxsize=4)
def _default_abbreviations(cfg: NormalizationConfig) -> AbbreviationTable:
    text = (
        resources.files("termcoder")
        .joinpath("data")
        .joinpath(_ABBREVIATIONS_RESOURCE)
        .read_text("utf-8")
    )
    return _parse_abbreviation_lines(text.splitlines(), cfg, _ABBREVIATIONS_RESOURCE)


def default_abbreviations(cfg: NormalizationConfig | None = None) -> AbbreviationTable:
    """The built-in clinical short-form table (nine entries)."""
    return _default_abbreviations(cfg or NormalizationConfig())


def levenshtein_distance(a: str, b: str) -> int:
    """Exact single-character edit distance (insertions, deletions, substitutions)."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        current = [i]
        append = current.append
        for j, cb in enumerate(b, 1):
            append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb)))
        previous = current
    return previous[-1]


def _extend_row(
    row: list[int], depth: int, chars: str, word: str, max_dist: int
) -> list[int] | None:
    """Continue an edit-distance row of *word* through *chars*.

    ``row[j]`` is the distance between ``word[:j]`` and the *depth*
    characters read so far. Only the cells within *max_dist* of the
    diagonal are computed (Ukkonen 1985); every other cell holds some
    value above *max_dist*, and any such value means "too far". Returns
    the row after the last of *chars*, or None as soon as every cell is
    too far: no continuation of what was read can come back within
    *max_dist*.
    """
    n = len(word)
    over = max_dist + 1
    i = depth
    for ch in chars:
        i += 1
        new = [over] * (n + 1)
        lo = i - max_dist
        if lo > 0:
            left = over
        else:
            new[0] = left = i
            lo = 1
        hi = i + max_dist
        if hi > n:
            hi = n
        diag = row[lo - 1]
        for j in range(lo, hi + 1):
            up = row[j]
            cost = diag if word[j - 1] == ch else diag + 1
            if up < cost:
                cost = up + 1
            if left < cost:
                cost = left + 1
            new[j] = left = cost
            diag = up
        if min(new) > max_dist:
            return None
        row = new
    return row


@dataclass(frozen=True)
class TokenMatch:
    """One way an input token can advance from the current node."""

    technique: MatchTechnique
    target_node: TrieNode


def match_token(
    input_token: str,
    node: TrieNode,
    abbrevs: AbbreviationTable = EMPTY_ABBREVIATIONS,
    max_dist: int = DEFAULT_MAX_DISTANCE,
    *,
    fuzzy_min_len: int = DEFAULT_FUZZY_MIN_LENGTH,
) -> list[TokenMatch]:
    """All ways *input_token* can advance the trie from *node*.

    Techniques, strongest first: perfect child lookup; abbreviation
    expansion walked through the trie by perfect steps; edit distance
    <= *max_dist* to a child token (inputs shorter than *fuzzy_min_len*
    are excluded); edit distance <= *max_dist* to the concatenation of a
    child + grandchild pair (composed words, whatever the input length).
    Both distance-based techniques are off when *max_dist* is 0, so only
    perfect and abbreviation matches remain. Each target node is reported
    once, under its strongest technique.

    Fuzzy candidates come from one walk over ``node.sorted_tokens``: each
    child token's banded edit-distance row (see ``_extend_row``) decides
    the child itself and is then carried on through each of its
    grandchildren, so it is computed once however many follow. A child
    whose row exceeds *max_dist* in every cell is dropped with all of its
    grandchildren.

    *node* must belong to a frozen trie: the walk follows its
    ``sorted_tokens``, which fixes the order of the result: perfect,
    abbreviations, then child matches in token order, then composed
    matches in (child, grandchild) order.
    """
    found: dict[int, TokenMatch] = {}

    def offer(technique: MatchTechnique, target: TrieNode) -> None:
        key = id(target)
        if key not in found:  # generation order is priority order
            found[key] = TokenMatch(technique, target)

    child = node.children.get(input_token)
    if child is not None:
        offer(MatchTechnique.PERFECT, child)

    for expansion in abbrevs.expansions(input_token):
        target: TrieNode | None = node
        for token in expansion:
            target = target.children.get(token)
            if target is None:
                break
        else:
            offer(MatchTechnique.ABBREVIATION, target)

    if max_dist > 0:
        n = len(input_token)
        near: list[TrieNode] = []
        composed: list[TrieNode] = []
        start = list(range(n + 1))
        for first in node.sorted_tokens:
            if len(first) > n + max_dist:  # too long, and so is every first + second
                continue
            row = _extend_row(start, 0, first, input_token, max_dist)
            if row is None:
                continue
            mid = node.children[first]
            if row[n] <= max_dist and n >= fuzzy_min_len and first != input_token:
                near.append(mid)
            for second in mid.sorted_tokens:
                if abs(len(first) + len(second) - n) <= max_dist:  # else row[n] is out of the band
                    last = _extend_row(row, len(first), second, input_token, max_dist)
                    if last is not None and last[n] <= max_dist:
                        composed.append(mid.children[second])
        for target in near:
            offer(MatchTechnique.LEVENSHTEIN, target)
        for target in composed:
            offer(MatchTechnique.BIGRAM_LEVENSHTEIN, target)

    return list(found.values())
