"""Dictionary construction.

Harvests (standard text, code) pairs from annotated corpora, optionally
merges external label/code term lists, resolves every ambiguous term to
its most frequent code, and produces a frozen trie ready for annotation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .corpus import (
    CorpusFormat,
    CorpusRecord,
    TermListFormat,
    parse_aligned_causes,
    read_term_list,
)
from .normalize import NormalizationConfig, tokenize
from .trie import DictionaryTrie, Term

class DictionaryBuildError(ValueError):
    """Dictionary sources are missing, inconsistent or unreadable."""


@dataclass
class CodeFrequencyTable:
    """Per-term code occurrence counts keyed by the normalized token path."""

    counts: dict[str, Counter] = field(default_factory=dict)
    labels: dict[str, str] = field(default_factory=dict)
    skipped_rows: int = 0

    def tally(self, label: str, code: str, cfg: NormalizationConfig) -> None:
        if not label or not code:
            self.skipped_rows += 1
            return
        tokens = tokenize(label, cfg).tokens
        if not tokens:
            self.skipped_rows += 1
            return
        key = " ".join(tokens)
        self.counts.setdefault(key, Counter())[code] += 1
        self.labels.setdefault(key, label)


def tally_terms(
    pairs: Iterable[tuple[str, str]], cfg: NormalizationConfig | None = None
) -> CodeFrequencyTable:
    """Count (label, code) occurrences; rows with an empty side are skipped."""
    cfg = cfg or NormalizationConfig()
    table = CodeFrequencyTable()
    for label, code in pairs:
        table.tally(label, code, cfg)
    return table


def build_dictionary_from_corpus(
    records: Iterable[CorpusRecord], cfg: NormalizationConfig | None = None
) -> CodeFrequencyTable:
    """Tally the standard-text column of an annotated corpus."""
    return tally_terms(((r.standard_text or "", r.code or "") for r in records), cfg)


def resolve_code(table: CodeFrequencyTable, key: str) -> str:
    """The most frequent code for a token-path key; ties go to the smallest code."""
    try:
        counter = table.counts[key]
    except KeyError:
        raise KeyError(f"no codes recorded for term key {key!r}") from None
    return min(counter.items(), key=lambda item: (-item[1], item[0]))[0]


@dataclass(frozen=True)
class DictionarySpec:
    """Sources for one dictionary build; external term lists are merged when given."""

    corpus_sources: tuple[Path, ...] = ()
    external_term_lists: tuple[Path, ...] = ()
    corpus_format: CorpusFormat = CorpusFormat()
    term_list_format: TermListFormat = TermListFormat()


@dataclass(frozen=True)
class BuildReport:
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
    """
    cfg = cfg or NormalizationConfig()
    if not spec.corpus_sources:
        raise DictionaryBuildError("no sources: at least one corpus file is required")

    records: list[CorpusRecord] = []
    for path in spec.corpus_sources:
        records.extend(parse_aligned_causes(path, spec.corpus_format))
    corpus_table = build_dictionary_from_corpus(records, cfg)

    external_pairs: list[tuple[str, str]] = []
    for path in spec.external_term_lists:
        external_pairs.extend(read_term_list(path, spec.term_list_format))
    external_table = tally_terms(external_pairs, cfg)

    conflicts = 0
    codes: set[str] = set()
    trie = DictionaryTrie()
    for key in sorted(set(corpus_table.counts) | set(external_table.counts)):
        seen = set(corpus_table.counts.get(key, ())) | set(external_table.counts.get(key, ()))
        conflicts += len(seen) > 1
        source = corpus_table if key in corpus_table.counts else external_table
        term = Term(
            tokens=tuple(key.split(" ")),
            label=source.labels[key],
            code=resolve_code(source, key),
        )
        trie.insert_term(term)
        codes.add(term.code)
    trie.freeze()

    report = BuildReport(
        term_count=trie.term_count,
        code_count=len(codes),
        conflict_count=conflicts,
        skipped_rows=corpus_table.skipped_rows + external_table.skipped_rows,
    )
    return trie, report
