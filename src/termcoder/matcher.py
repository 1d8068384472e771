"""Per-token matching techniques against the dictionary trie.

Every technique is evaluated against the children of the *current* trie
node (what could legally come next), never against the whole vocabulary:
perfect equality, abbreviation expansion, bounded edit distance, and
composed words (one input token vs. the concatenation of two consecutive
dictionary tokens).

Both distance-based techniques come from one descent over the sorted
child tokens, read as a character trie (Shang & Merrett 1996; Mihov &
Schulz 2004). An edit-distance row against the input token is extended
one character at a time within the *max_dist* band around the diagonal
(Ukkonen 1985). Tokens sharing a prefix share its row, a dead row drops
every token under it, and each surviving child's row is carried on into
its grandchildren the same way. ``levenshtein_distance`` is kept as the
standalone distance between two strings; matching does not call it.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from os import PathLike
from typing import Iterable, Iterator, NamedTuple

from .normalize import NormalizationConfig, _read_word_list, normalize_text, tokenize
from .trie import TrieNode

DEFAULT_MAX_DISTANCE = 1
DEFAULT_FUZZY_MIN_LENGTH = 5


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
        is dropped (it would be a no-op masquerading as a technique). A short
        form that is not one token, or is a stopword, raises ``ValueError``:
        no input token could ever match it.
        """
        cfg = cfg or NormalizationConfig()
        entries: dict[str, list[tuple[str, ...]]] = {}
        for key, value in mapping.items():
            short = normalize_text(key).strip()
            if short.split() != [short]:  # tokenize splits on every kind of space
                raise ValueError(f"abbreviation {key!r} must normalize to a single token")
            if short in cfg.stopwords:
                raise ValueError(f"abbreviation {key!r} is a stopword")
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


def load_abbreviations(
    path: str | PathLike[str] | None = None, cfg: NormalizationConfig | None = None
) -> AbbreviationTable:
    """Read ``short=expansion words`` lines (None: the built-in nine); ``#`` comments ignored.

    A line without a short form or an expansion raises ``ValueError``
    naming ``path:lineno``.
    """
    mapping: dict[str, list[str]] = {}
    for where, line in _read_word_list(path, "abbreviations_fr.txt"):
        short, sep, expansion = line.partition("=")
        if not sep or not short.strip() or not expansion.strip():
            raise ValueError(f"{where}: expected 'short=expansion words'")
        mapping.setdefault(short.strip(), []).append(expansion.strip())
    return AbbreviationTable.build(mapping, cfg)


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
    the row after the last of *chars*, or None as soon as the smallest
    band cell, tracked while the band is computed, is too far: no
    continuation of what was read can come back within *max_dist*.
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
        least = left
        for j in range(lo, hi + 1):
            up = row[j]
            cost = diag if word[j - 1] == ch else diag + 1
            if up < cost:
                cost = up + 1
            if left < cost:
                cost = left + 1
            new[j] = left = cost
            if cost < least:
                least = cost
            diag = up
        if least > max_dist:
            return None
        row = new
    return row


# Sibling runs up to this size are scanned one token at a time: on so few
# tokens, the bookkeeping of a split costs more than the rows it saves.
_LEAF_SIZE = 64


def _walk(
    tokens: tuple[str, ...], row: list[int], depth: int, word: str, max_dist: int, lengths: range
) -> Iterator[tuple[str, list[int]]]:
    """Yield ``(token, row)``, in order, for each sorted token with a length
    in *lengths* whose row, continued from *row* at *depth*, stays alive.

    A run of tokens with a common prefix extends the prefix's row once, and
    a dead prefix drops the run. Once no band cell is below *max_dist*, a
    character keeps the row alive only if it is ``word[j]`` for a cell
    ``j`` at *max_dist*, so bisect jumps to those characters' runs. A run
    of at most ``_LEAF_SIZE`` tokens is scanned flat, passing over, when a
    split reached it, tokens whose next character is not one of those.
    """
    stack = [(0, len(tokens), 0, row)]
    while stack:
        lo, hi, k, row = stack.pop()  # tokens[lo:hi] share a k-character prefix, whose row is *row*
        i = depth + k
        allowed = None
        if k or hi - lo > _LEAF_SIZE:
            j0 = max(0, i - max_dist)
            band = row[j0 : i + max_dist + 1]
            if min(band) == max_dist:  # next characters that can keep the row; "": the token ends
                allowed = {word[j : j + 1] for j, d in enumerate(band, j0) if d == max_dist} | {""}
        if hi - lo <= _LEAF_SIZE:
            for token in tokens[lo:hi]:
                if len(token) in lengths and (allowed is None or token[k : k + 1] in allowed):
                    last = _extend_row(row, i, token[k:], word, max_dist)
                    if last is not None:
                        yield token, last
            continue
        if len(tokens[lo]) == k:  # the prefix itself sorts before its extensions
            if k in lengths:
                yield tokens[lo], row
            lo += 1
        key = itemgetter(k)
        runs = []
        while lo < hi:
            ch = tokens[lo][k]
            if allowed is not None and ch not in allowed:
                ahead = [c for c in allowed if c > ch]
                lo = bisect_left(tokens, min(ahead), lo, hi, key=key) if ahead else hi
                continue
            end = bisect_right(tokens, ch, lo, hi, key=key)
            extended = _extend_row(row, i, ch, word, max_dist)
            if extended is not None:
                runs.append((lo, end, k + 1, extended))
            lo = end
        stack.extend(reversed(runs))


class TokenMatch(NamedTuple):
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

    Fuzzy candidates come from ``_walk`` over ``node.sorted_tokens``:
    each surviving child's banded row (see ``_extend_row``) decides the
    child itself, and a second walk carries it into the child's sorted
    grandchildren. Prefix rows are shared and dead prefixes skipped, so a
    child or pair whose row would exceed *max_dist* may cost no row at all.

    *node* must belong to a frozen trie: the walk follows its
    ``sorted_tokens``, which fixes the order of the result: perfect,
    abbreviations, then child matches in token order, then composed
    matches in (child, grandchild) order.
    """
    child = node.children.get(input_token)
    expansions = abbrevs.entries.get(input_token, ())
    if max_dist == 0 and not expansions:  # the perfect child is the only candidate
        return [] if child is None else [TokenMatch(MatchTechnique.PERFECT, child)]

    found: dict[int, TokenMatch] = {}

    def offer(technique: MatchTechnique, target: TrieNode) -> None:
        key = id(target)
        if key not in found:  # generation order is priority order
            found[key] = TokenMatch(technique, target)

    if child is not None:
        offer(MatchTechnique.PERFECT, child)

    for expansion in expansions:
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
        top = n + max_dist  # a longer first token is too long, and so is every first + second
        for first, row in _walk(node.sorted_tokens, start, 0, input_token, max_dist, range(top + 1)):
            mid = node.children[first]
            if row[n] <= max_dist and n >= fuzzy_min_len and first != input_token:
                near.append(mid)
            if mid.sorted_tokens:
                d = len(first)  # outside this window of lengths, row[n] is out of the band
                window = range(n - max_dist - d, top - d + 1)
                seconds = _walk(mid.sorted_tokens, row, d, input_token, max_dist, window)
                composed.extend(mid.children[s] for s, last in seconds if last[n] <= max_dist)
        for target in near:
            offer(MatchTechnique.LEVENSHTEIN, target)
        for target in composed:
            offer(MatchTechnique.BIGRAM_LEVENSHTEIN, target)

    return list(found.values())
