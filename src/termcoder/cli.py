"""Command line front end: build a dictionary, annotate a corpus, evaluate.

Results go to stdout, diagnostics to stderr. Exit code 0 on success,
nonzero on any error.
"""

from __future__ import annotations

import argparse
import gc
import logging
import sys
from pathlib import Path

from .annotator import annotate_line
from .coder import DictionarySpec, assemble_dictionary
from .corpus import (
    AnnotatedLine,
    CorpusFormat,
    TermListFormat,
    evaluate,
    gold_code_tuples,
    parse_aligned_causes,
    predicted_code_tuples,
    read_annotation_rows,
    write_annotations,
)
from .matcher import DEFAULT_FUZZY_MIN_LENGTH, DEFAULT_MAX_DISTANCE, load_abbreviations
from .normalize import NormalizationConfig, load_stopwords

logger = logging.getLogger(__name__)


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than *low*."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _one_character(text: str) -> str:
    """An argparse type: a string of exactly one character."""
    if len(text) != 1:
        raise argparse.ArgumentTypeError(f"must be exactly one character, got {text!r}")
    return text


# The option defaults. On a named tuple class, ``CorpusFormat.delimiter`` is
# the field's accessor, not its default, so they are read from instances.
_CORPUS_FORMAT = CorpusFormat()
_TERM_LIST_FORMAT = TermListFormat()


def _add_format_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("CSV format")
    group.add_argument(
        "--delimiter",
        type=_one_character,
        default=_CORPUS_FORMAT.delimiter,
        help="CSV delimiter, one character (default: %(default)r)",
    )
    group.add_argument("--col-doc", default=_CORPUS_FORMAT.col_doc, help="document id column")
    group.add_argument("--col-line", default=_CORPUS_FORMAT.col_line, help="line id column")
    group.add_argument("--col-raw", default=_CORPUS_FORMAT.col_raw, help="raw text column")
    group.add_argument("--col-standard", default=_CORPUS_FORMAT.col_standard, help="standard text column")
    group.add_argument("--col-code", default=_CORPUS_FORMAT.col_code, help="code column")


def _add_dictionary_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "dictionary sources", "Term list columns are names, or 0-based indexes when both are digits."
    )
    group.add_argument(
        "--corpus",
        action="append",
        default=[],
        type=Path,
        metavar="CSV",
        help="annotated corpus file (repeatable)",
    )
    group.add_argument(
        "--terms",
        action="append",
        default=[],
        type=Path,
        metavar="CSV",
        help="external label/code term list, merged into the corpus terms (repeatable)",
    )
    group.add_argument("--col-label", default=_TERM_LIST_FORMAT.label_column, help="term list label column")
    group.add_argument(
        "--col-term-code", default=_TERM_LIST_FORMAT.code_column, help="term list code column"
    )
    group.add_argument("--stopwords", type=Path, help="stopword file (default: built-in list)")


def _add_matching_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("matching")
    group.add_argument(
        "--abbreviations", type=Path, help="abbreviation file (default: built-in list)"
    )
    group.add_argument(
        "--max-dist",
        type=_int_at_least(0),
        default=DEFAULT_MAX_DISTANCE,
        help=(
            "edit distance budget per token, >= 0 (0 disables fuzzy matching); there is no"
            " upper bound, but each step's work grows with it"
        ),
    )
    group.add_argument(
        "--fuzzy-min-len",
        type=_int_at_least(1),
        default=DEFAULT_FUZZY_MIN_LENGTH,
        help="minimum input token length for edit-distance matching, >= 1",
    )


def _corpus_format(args: argparse.Namespace) -> CorpusFormat:
    return CorpusFormat(
        delimiter=args.delimiter,
        col_doc=args.col_doc,
        col_line=args.col_line,
        col_raw=args.col_raw,
        col_standard=args.col_standard,
        col_code=args.col_code,
    )


def _dictionary_spec(args: argparse.Namespace) -> DictionarySpec:
    return DictionarySpec(
        corpus_sources=tuple(args.corpus),
        external_term_lists=tuple(args.terms),
        corpus_format=_corpus_format(args),
        term_list_format=TermListFormat(
            delimiter=args.delimiter,
            label_column=args.col_label,
            code_column=args.col_term_code,
        ),
    )


def _normalization(args: argparse.Namespace) -> NormalizationConfig:
    return NormalizationConfig(stopwords=load_stopwords(args.stopwords))


def cmd_build(args: argparse.Namespace) -> int:
    _, report = assemble_dictionary(_dictionary_spec(args), _normalization(args))
    print(report.summary())
    return 0


def cmd_annotate(args: argparse.Namespace) -> int:
    cfg = _normalization(args)
    abbrevs = load_abbreviations(args.abbreviations, cfg)
    trie, report = assemble_dictionary(_dictionary_spec(args), cfg)
    logger.info("dictionary ready: %s", report.summary())

    # The command owns its process, so it can exempt every object alive now,
    # the trie above all, from the collections that annotating triggers:
    # then none of them walks the trie again. A caller that had frozen
    # objects keeps them frozen.
    thawed = gc.get_freeze_count() == 0
    gc.freeze()
    try:
        fmt = _corpus_format(args)
        lines: dict[tuple[str, str], str] = {}
        conflicts: dict[tuple[str, str], None] = {}
        for record in parse_aligned_causes(args.input, fmt):  # raw text repeats once per code
            key = (record.doc_id, record.line_id)
            if lines.setdefault(key, record.raw_text) != record.raw_text:
                conflicts[key] = None
        if conflicts:
            doc_id, line_id = next(iter(conflicts))
            logger.warning(
                "%d lines have rows with differing raw text (first: doc %s line %s); "
                "annotating the first row's text",
                len(conflicts),
                doc_id,
                line_id,
            )

        results = [
            AnnotatedLine(
                doc_id,
                line_id,
                raw,
                tuple(annotate_line(raw, trie, cfg, abbrevs, args.max_dist, args.fuzzy_min_len)),
            )
            for (doc_id, line_id), raw in lines.items()
        ]
        count = write_annotations(results, args.output, fmt)
        print(f"lines={len(results)} annotations={count}")
        return 0
    finally:
        if thawed:
            gc.unfreeze()


def cmd_eval(args: argparse.Namespace) -> int:
    fmt = _corpus_format(args)
    gold = gold_code_tuples(parse_aligned_causes(args.gold, fmt))
    predicted = predicted_code_tuples(read_annotation_rows(args.pred, fmt))
    report = evaluate(gold, predicted)
    print(report.summary())
    if args.output:
        import json  # only this command writes JSON: the others start without it

        Path(args.output).write_text(json.dumps(report.to_dict(), indent=2) + "\n", "utf-8")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="termcoder",
        description="Dictionary-based concept annotation: build, annotate, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="build a dictionary and print its report")
    _add_format_options(build)
    _add_dictionary_options(build)
    build.set_defaults(func=cmd_build)

    annotate = sub.add_parser("annotate", help="annotate a corpus against a dictionary")
    _add_format_options(annotate)
    _add_dictionary_options(annotate)
    _add_matching_options(annotate)
    annotate.add_argument("--input", type=Path, required=True, help="corpus CSV to annotate")
    annotate.add_argument("--output", type=Path, required=True, help="annotation CSV to write")
    annotate.set_defaults(func=cmd_annotate)

    evaluate_ = sub.add_parser("eval", help="score predictions against gold codes")
    _add_format_options(evaluate_)
    evaluate_.add_argument("--gold", type=Path, required=True, help="gold corpus CSV")
    evaluate_.add_argument("--pred", type=Path, required=True, help="predicted annotation CSV")
    evaluate_.add_argument("--output", type=Path, help="write the report as JSON here")
    evaluate_.set_defaults(func=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
