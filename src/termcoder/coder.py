"""Dictionary construction.

One pass from CSV rows to a frozen trie: (standard text, code) pairs from
annotated corpora, and (label, code) pairs from optional external term
lists, are tallied as they are read, keyed by their normalized token path.
Every ambiguous term resolves to its most frequent code, and that path is
inserted into the trie as it is.
"""

from __future__ import annotations

import gc
from pathlib import Path
from typing import Iterable, NamedTuple

from .corpus import CorpusFormat, TermListFormat, parse_aligned_causes, read_term_list
from .normalize import NormalizationConfig, label_tokens
from .trie import DictionaryTrie, Term

class DictionaryBuildError(ValueError):
    """Dictionary sources are missing, inconsistent or unreadable."""


class CodeFrequencyTable:
    """Per-term code counts, keyed by the normalized token path.

    ``counts`` maps a path to a plain ``{code: occurrences}`` dict, made when
    the path is first seen; ``labels`` maps it to the first raw label seen.
    """

    def __init__(self) -> None:
        self.counts: dict[tuple[str, ...], dict[str, int]] = {}
        self.labels: dict[tuple[str, ...], str] = {}
        self.skipped_rows = 0


def tally_terms(
    pairs: Iterable[tuple[str, str]],
    cfg: NormalizationConfig | None = None,
    strings: dict[str, str] | None = None,
) -> CodeFrequencyTable:
    """Count (label, code) occurrences per token path; the first label seen is kept.

    A row with an empty side, or whose label has no tokens, is skipped. The
    tokens and codes the table keeps are interned in *strings*, so a dict
    shared by the tallies of one build holds each distinct one once.
    """
    cfg = cfg or NormalizationConfig()
    intern = ({} if strings is None else strings).setdefault
    table = CodeFrequencyTable()
    counts, labels = table.counts, table.labels
    for label, code in pairs:
        path = label_tokens(label, cfg) if label and code else ()
        if not path:
            table.skipped_rows += 1
            continue
        codes = counts.get(path)
        if codes is None:
            path = tuple(map(intern, path, path))
            codes = counts[path] = {}
            labels[path] = label
        if code in codes:
            codes[code] += 1
        else:
            codes[intern(code, code)] = 1
    return table


def resolve_code(table: CodeFrequencyTable, key: tuple[str, ...]) -> str:
    """The most frequent code for a token path; ties go to the smallest code."""
    try:
        codes = table.counts[key]
    except KeyError:
        raise KeyError(f"no codes recorded for term key {key!r}") from None
    if len(codes) == 1:
        (code,) = codes
        return code
    return min(codes.items(), key=lambda item: (-item[1], item[0]))[0]


class DictionarySpec(NamedTuple):
    """Sources for one dictionary build; external term lists are merged when given."""

    corpus_sources: tuple[Path, ...] = ()
    external_term_lists: tuple[Path, ...] = ()
    corpus_format: CorpusFormat = CorpusFormat()
    term_list_format: TermListFormat = TermListFormat()


class BuildReport(NamedTuple):
    term_count: int
    code_count: int
    conflict_count: int
    skipped_rows: int

    def summary(self) -> str:
        return (
            f"terms={self.term_count} codes={self.code_count} "
            f"conflicts={self.conflict_count} skipped={self.skipped_rows}"
        )


def assemble_dictionary(
    spec: DictionarySpec, cfg: NormalizationConfig | None = None
) -> tuple[DictionaryTrie, BuildReport]:
    """Build and freeze a dictionary trie from the configured sources.

    Corpus terms are resolved to their most frequent code first; external
    list terms are added only for token paths the corpus did not produce.
    A conflict is any key that saw more than one distinct code across all
    sources before resolution.

    The cyclic garbage collector is paused while the build runs, for the
    whole process, and left as it was found when the build ends or raises.
    """
    cfg = cfg or NormalizationConfig()
    if not spec.corpus_sources:
        raise DictionaryBuildError("no sources: at least one corpus file is required")

    # The build makes no reference cycles, so reference counting frees all
    # it drops; the cyclic collector would only walk the growing trie again
    # and again.
    collecting = gc.isenabled()
    gc.disable()
    try:
        corpus_pairs = (
            (record.standard_text or "", record.code or "")
            for path in spec.corpus_sources
            for record in parse_aligned_causes(path, spec.corpus_format)
        )
        list_pairs = (
            pair for path in spec.external_term_lists for pair in read_term_list(path, spec.term_list_format)
        )
        strings: dict[str, str] = {}  # one object per distinct token and code
        corpus = tally_terms(corpus_pairs, cfg, strings)
        external = tally_terms(list_pairs, cfg, strings)

        conflicts = 0
        codes: set[str] = set()
        trie = DictionaryTrie()
        external_only = (key for key in external.counts if key not in corpus.counts)
        for source, keys in ((corpus, corpus.counts), (external, external_only)):
            for key in keys:
                seen = source.counts[key]
                if len(seen) > 1:
                    conflicts += 1
                elif source is corpus and key in external.counts:  # the term list may add a code
                    conflicts += len(seen.keys() | external.counts[key].keys()) > 1
                term = Term(source.labels[key], resolve_code(source, key))
                trie.insert_term(key, term)
                codes.add(term.code)
        trie.freeze()
    finally:
        if collecting:
            gc.enable()

    report = BuildReport(
        term_count=trie.term_count,
        code_count=len(codes),
        conflict_count=conflicts,
        skipped_rows=corpus.skipped_rows + external.skipped_rows,
    )
    return trie, report
