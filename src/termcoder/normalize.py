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
from pathlib import Path
from typing import Iterator


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


def _read_word_list(path: str | PathLike[str] | None, resource: str) -> Iterator[tuple[str, str]]:
    """Yield ``("source:lineno", line)`` for the stripped lines of a UTF-8 word list.

    *path* None reads the packaged ``data/<resource>``. Blank lines and
    ``#`` comment lines are skipped.
    """
    if path is None:
        source, file = resource, resources.files("termcoder").joinpath("data").joinpath(resource)
    else:
        source, file = path, Path(path)
    with file.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if line and not line.startswith("#"):
                yield f"{source}:{lineno}", line


def load_stopwords(path: str | PathLike[str] | None = None) -> frozenset[str]:
    """Read a stopword file, or the built-in list when *path* is None.

    One token per line, ``#`` comments ignored. Entries are normalized on
    load so that membership tests against normalized tokens always work.
    """
    lines = _read_word_list(path, "stopwords_fr.txt")
    return frozenset(word for _, line in lines for word in normalize_text(line).split())


@lru_cache(maxsize=1)
def default_stopwords() -> frozenset[str]:
    """The built-in French function-word list (25 entries), read once."""
    return load_stopwords()


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
