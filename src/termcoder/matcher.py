"""Per-token matching techniques against the dictionary trie.

Every technique is evaluated against the children of the *current* trie
node (what could legally come next), never against the whole vocabulary:
perfect equality, abbreviation expansion, bounded edit distance, and
composed words (one input token vs. the concatenation of two consecutive
dictionary tokens).
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


@dataclass(frozen=True)
class TokenMatch:
    """One way an input token can advance from the current node.

    ``consumed_dict_tokens`` counts trie edges: 1 for perfect and
    edit-distance matches, 2 for composed words, and the expansion length
    for abbreviations.
    """

    technique: MatchTechnique
    consumed_dict_tokens: int
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

    *node* must belong to a frozen trie: the distance-based scans walk its
    ``sorted_tokens``, which fixes the order of the result.
    """
    found: dict[int, TokenMatch] = {}

    def offer(technique: MatchTechnique, consumed: int, target: TrieNode) -> None:
        key = id(target)
        if key not in found:  # generation order is priority order
            found[key] = TokenMatch(technique, consumed, target)

    child = node.children.get(input_token)
    if child is not None:
        offer(MatchTechnique.PERFECT, 1, child)

    for expansion in abbrevs.expansions(input_token):
        target: TrieNode | None = node
        for token in expansion:
            target = target.children.get(token)
            if target is None:
                break
        else:
            offer(MatchTechnique.ABBREVIATION, len(expansion), target)

    if max_dist > 0:
        if len(input_token) >= fuzzy_min_len:
            for token in node.sorted_tokens:
                if token == input_token or abs(len(token) - len(input_token)) > max_dist:
                    continue
                if levenshtein_distance(input_token, token) <= max_dist:
                    offer(MatchTechnique.LEVENSHTEIN, 1, node.children[token])
        for first in node.sorted_tokens:
            mid = node.children[first]
            for second in mid.sorted_tokens:
                joined = first + second
                if abs(len(joined) - len(input_token)) > max_dist:
                    continue
                if levenshtein_distance(input_token, joined) <= max_dist:
                    offer(MatchTechnique.BIGRAM_LEVENSHTEIN, 2, mid.children[second])

    return list(found.values())
