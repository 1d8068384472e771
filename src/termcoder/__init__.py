"""Dictionary-based concept annotation.

Detects multi-word terminology entries in free text (tolerating typos,
abbreviations and composed words) and assigns their codes; includes corpus
ingestion, dictionary construction and a precision/recall harness.

The package namespace holds what a library caller needs: build a
dictionary, load abbreviations, annotate a line, score predictions, and
the types and constants those calls take, return or raise. Every other
name is importable from its own module.
"""

from .annotator import Annotation, annotate_line
from .coder import (
    BuildReport,
    DictionaryBuildError,
    DictionarySpec,
    assemble_dictionary,
)
from .corpus import CorpusFormat, CorpusFormatError, EvalReport, TermListFormat, evaluate
from .matcher import (
    DEFAULT_FUZZY_MIN_LENGTH,
    DEFAULT_MAX_DISTANCE,
    AbbreviationTable,
    MatchTechnique,
    load_abbreviations,
)
from .normalize import NormalizationConfig
from .trie import DictionaryTrie

__version__ = "0.1.0"

__all__ = [
    "AbbreviationTable",
    "Annotation",
    "BuildReport",
    "CorpusFormat",
    "CorpusFormatError",
    "DEFAULT_FUZZY_MIN_LENGTH",
    "DEFAULT_MAX_DISTANCE",
    "DictionaryBuildError",
    "DictionarySpec",
    "DictionaryTrie",
    "EvalReport",
    "MatchTechnique",
    "NormalizationConfig",
    "TermListFormat",
    "annotate_line",
    "assemble_dictionary",
    "evaluate",
    "load_abbreviations",
]
