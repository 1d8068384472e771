"""Text normalization and tokenization.

Dictionary terms and annotated text must go through the exact same
pipeline, otherwise trie lookups silently miss: lowercase, canonical
decomposition with combining marks dropped, punctuation and symbols
replaced by spaces, whitespace split, stopword removal.

Token offsets always point into the *original* string so annotations can
report raw-text spans.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from os import PathLike
from typing import Iterable

_STOPWORDS_RESOURCE = "stopwords_fr.txt"


@lru_cache(maxsize=8192)
def _char_fragment(ch: str) -> str:
    """Normalized replacement for one input character (possibly empty)."""
    out = []
    for c in unicodedata.normalize("NFD", ch.lower()):
        if unicodedata.category(c) == "Mn":
            continue
        out.append(c if c.isspace() or c.isalnum() else " ")
    return "".join(out)


def normalize_text(raw: str) -> str:
    """Lowercase *raw*, strip diacritics and replace punctuation with spaces.

    Total and idempotent; whitespace is preserved, not collapsed.
    """
    return "".join(map(_char_fragment, raw))


def _parse_stopword_lines(lines: Iterable[str]) -> frozenset[str]:
    words: set[str] = set()
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        words.update(normalize_text(line).split())
    return frozenset(words)


def load_stopwords(path: str | PathLike[str]) -> frozenset[str]:
    """Read a stopword file: one token per line, ``#`` comments ignored.

    Entries are normalized on load so that membership tests against
    normalized tokens always work.
    """
    with open(path, encoding="utf-8") as fh:
        return _parse_stopword_lines(fh)


@lru_cache(maxsize=1)
def default_stopwords() -> frozenset[str]:
    """The built-in French function-word list (25 entries)."""
    text = resources.files("termcoder").joinpath("data").joinpath(_STOPWORDS_RESOURCE).read_text("utf-8")
    return _parse_stopword_lines(text.splitlines())


@dataclass(frozen=True)
class NormalizationConfig:
    """Tokenizer settings shared by dictionary construction and annotation."""

    stopwords: frozenset[str] = field(default_factory=default_stopwords)


@dataclass(frozen=True)
class TokenizedText:
    """Normalized tokens of a raw string plus their original-character spans."""

    tokens: tuple[str, ...]
    offsets: tuple[tuple[int, int], ...]


def tokenize(raw: str, cfg: NormalizationConfig | None = None) -> TokenizedText:
    """Split *raw* into normalized, stopword-free tokens with raw-text offsets."""
    cfg = cfg or NormalizationConfig()
    tokens: list[str] = []
    offsets: list[tuple[int, int]] = []
    parts: list[str] = []
    start = end = 0

    def flush() -> None:
        if parts:
            token = "".join(parts)
            if token not in cfg.stopwords:
                tokens.append(token)
                offsets.append((start, end))
            parts.clear()

    for i, ch in enumerate(raw):
        frag = _char_fragment(ch)
        if not frag:
            continue  # a bare combining mark never breaks a token
        if frag.isalnum():  # fragments hold only alphanumerics and whitespace
            if not parts:
                start = i
            parts.append(frag)
            end = i + 1
        else:
            flush()
    flush()
    return TokenizedText(tuple(tokens), tuple(offsets))
