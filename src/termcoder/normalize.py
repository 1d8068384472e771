"""Text normalization and tokenization.

Dictionary terms and annotated text must go through the exact same
pipeline, otherwise trie lookups silently miss: lowercase, canonical
decomposition with combining marks dropped, the ligatures œ and æ
spelled out, punctuation and symbols replaced by spaces, whitespace
split, stopword removal.

Token offsets always point into the *original* string so annotations can
report raw-text spans.
"""

from __future__ import annotations

import re
import unicodedata
from functools import lru_cache
from os import PathLike
from pathlib import Path
from typing import Iterator, NamedTuple


# The French ligatures have no canonical decomposition, so NFD keeps them
# whole: without this fold "œdème" would never meet "oedeme".
_LIGATURES = str.maketrans({"œ": "oe", "æ": "ae"})


@lru_cache(maxsize=8192)
def _char_fragment(ch: str) -> str:
    """Normalized replacement for one input character (possibly empty).

    œ and æ, and any character whose decomposition keeps one of them, fold
    to two letters. A fragment of several characters that is not all
    alphanumeric is one space: it ends a token, as a single punctuation
    character does.
    """
    frag = "".join(
        c if c.isspace() or c.isalnum() else " "
        for c in unicodedata.normalize("NFD", ch.lower())
        if unicodedata.category(c) != "Mn"
    ).translate(_LIGATURES)
    return frag if len(frag) < 2 or frag.isalnum() else " "


def normalize_text(raw: str) -> str:
    """Lowercase *raw*, strip diacritics and replace punctuation with spaces.

    Total and idempotent; whitespace is preserved, not collapsed.
    """
    return "".join(map(_char_fragment, raw))


def _not_utf8(path: str | PathLike[str]) -> str:
    """``"path:lineno: ..."`` for the first line of *path* that is not UTF-8.

    A text reader decodes ahead of the line it hands out, so the line is
    found again by decoding the file's bytes one line at a time.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as bad:
                return f"{path}:{lineno}: not UTF-8: {bad}"
    return f"{path}: not UTF-8"


def _read_word_list(path: str | PathLike[str] | None, resource: str) -> Iterator[tuple[str, str]]:
    """Yield ``("source:lineno", line)`` for the stripped lines of a UTF-8 word list.

    *path* None reads the packaged ``data/<resource>``. Blank lines and
    ``#`` comment lines are skipped. The file is read as ``utf-8-sig``, so
    a byte-order mark cannot hide a comment on the first line. A file that
    is not UTF-8 raises ``ValueError`` naming ``path:lineno``.
    """
    if path is None:
        source, file = resource, Path(__file__).parent / "data" / resource
    else:
        source, file = path, Path(path)
    try:
        with file.open(encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if line and not line.startswith("#"):
                    yield f"{source}:{lineno}", line
    except UnicodeDecodeError:
        raise ValueError(_not_utf8(file)) from None


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


class NormalizationConfig(NamedTuple):
    """Tokenizer settings shared by dictionary construction and annotation.

    The default stopwords are the built-in list, read once when this module
    is imported.
    """

    stopwords: frozenset[str] = default_stopwords()


class TokenizedText(NamedTuple):
    """Normalized tokens of a raw string plus their original-character spans."""

    tokens: tuple[str, ...]
    offsets: tuple[tuple[int, int], ...]


# ``_FRAGMENTS`` maps a character to this when its fragment keeps a token
# going but is not one letter: a bare combining mark (empty) or a character
# that decomposes or folds into several letters (a Hangul syllable, œ). No character's
# fragment is NUL itself (NUL becomes a space).
_SENTINEL = "\0"
_TABLE_SIZE = 8192
_RUN = re.compile(r"\S+")


class _FragmentTable(dict):
    """``str.translate`` table: code point -> one-character fragment or ``_SENTINEL``.

    Filled on demand and emptied when it reaches ``_TABLE_SIZE`` entries,
    so a text of many distinct characters cannot grow it without bound.
    Each value depends on its key alone, so threads can share the table: a
    race only computes an entry twice or empties the table early or late.
    """

    def __missing__(self, code: int) -> str:
        frag = _char_fragment(chr(code))
        value = frag if len(frag) == 1 else _SENTINEL
        if len(self) >= _TABLE_SIZE:
            self.clear()
        self[code] = value
        return value


_FRAGMENTS = _FragmentTable()


def tokenize(raw: str, cfg: NormalizationConfig | None = None) -> TokenizedText:
    """Split *raw* into normalized, stopword-free tokens with raw-text offsets.

    The tokens are the non-space runs of the translated text, and their
    spans are the raw offsets. A run that holds ``_SENTINEL`` is spelled
    from the raw text instead.
    """
    stopwords = default_stopwords() if cfg is None else cfg.stopwords
    text = raw.translate(_FRAGMENTS)
    spell = _SENTINEL in text
    tokens: list[str] = []
    offsets: list[tuple[int, int]] = []
    for run in _RUN.finditer(text):
        token = run.group()
        if token in stopwords:  # no stopword holds NUL, so a spelled run passes
            continue
        span = run.span()
        if spell and _SENTINEL in token:
            token, span = _spell(raw, *span)
            if not token or token in stopwords:
                continue
        tokens.append(token)
        offsets.append(span)
    return TokenizedText(tuple(tokens), tuple(offsets))


def _spell(raw: str, start: int, end: int) -> tuple[str, tuple[int, int]]:
    """The token and span of the run ``raw[start:end]``, one character at a time.

    Leading bare marks belong to the character before the run, so the span
    starts after them; trailing ones stay inside it, as UAX #29 never breaks
    a grapheme cluster before a mark. A run of marks alone spells ``""``.
    """
    while start < end and not _char_fragment(raw[start]):
        start += 1
    return "".join(map(_char_fragment, raw[start:end])), (start, end)


def label_tokens(raw: str, cfg: NormalizationConfig | None = None) -> tuple[str, ...]:
    """``tokenize(raw, cfg).tokens``, without the offsets a label never needs.

    The dictionary build and the abbreviation table key terms by tokens
    alone, so the translated text is split on whitespace (the same runs
    ``tokenize`` finds) and no span is made. A line that holds
    ``_SENTINEL`` goes through ``tokenize``, which spells those runs.
    """
    text = raw.translate(_FRAGMENTS)
    if _SENTINEL in text:
        return tokenize(raw, cfg).tokens
    stopwords = default_stopwords() if cfg is None else cfg.stopwords
    return tuple([token for token in text.split() if token not in stopwords])
