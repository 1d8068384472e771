"""Corpus ingestion, annotation output and micro-averaged evaluation.

The corpus layout pairs a physician's raw text line with the human coder's
standard text and its code; the same raw line repeats once per assigned
code. Corpus files, term lists and annotation CSVs share one column
reader. Evaluation compares (document, line, code) tuples pooled over the
whole corpus.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from operator import itemgetter
from os import PathLike
from typing import Iterable, Iterator

from .annotator import Annotation

logger = logging.getLogger(__name__)

PathArg = str | PathLike[str]


class CorpusFormatError(ValueError):
    """A source file does not match the configured CSV layout."""


@dataclass(frozen=True)
class CorpusFormat:
    """CSV dialect and column names for corpus files."""

    delimiter: str = ";"
    col_doc: str = "DocID"
    col_line: str = "LineID"
    col_raw: str = "RawText"
    col_standard: str = "StandardText"
    col_code: str = "ICD10"


@dataclass(frozen=True)
class TermListFormat:
    """Column selection for external label/code term lists.

    Columns are named, or 0-based indexes when both values are digits. The
    file then has no header row: every row is data, a header row included.
    """

    delimiter: str = ";"
    label_column: str = "label"
    code_column: str = "code"


@dataclass(frozen=True)
class CorpusRecord:
    doc_id: str
    line_id: str
    raw_text: str
    standard_text: str | None = None
    code: str | None = None


def _read_columns(
    path: PathArg, delimiter: str, columns: tuple[str, ...]
) -> Iterator[tuple[str | None, ...]]:
    """Yield the cells under *columns* (two or more) of each row of a CSV.

    Columns are header names, or 0-based positions when every one is digits;
    the file then has no header row and every row is data. The file is read
    as ``utf-8-sig``. An empty file yields no rows, blank rows are skipped, a
    short row's missing cells read as None, and a named column absent from
    the header raises :class:`CorpusFormatError`.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        if all(col.isdecimal() for col in columns):  # not isdigit(): int() cannot read "²"
            at = [int(col) for col in columns]
        else:
            header = next(reader, None)
            if header is None:
                return
            position = {name: i for i, name in enumerate(header)}  # a repeated name: last wins
            for col in columns:
                if col not in position:
                    raise CorpusFormatError(f"column {col!r} not found in {path} (header: {header})")
            at = [position[col] for col in columns]
        pick, width = itemgetter(*at), max(at) + 1
        for row in filter(None, reader):  # blank rows are skipped, as DictReader does
            yield pick(row if len(row) >= width else row + [None] * (width - len(row)))


def parse_aligned_causes(path: PathArg, fmt: CorpusFormat = CorpusFormat()) -> list[CorpusRecord]:
    """Read an aligned-causes style corpus CSV into records.

    Rows with empty standard text or code are kept (zero-code lines are
    legal); rows missing document/line identity are skipped and counted in
    a warning. A configured column absent from the header is a hard error.
    """
    columns = (fmt.col_doc, fmt.col_line, fmt.col_raw, fmt.col_standard, fmt.col_code)
    records: list[CorpusRecord] = []
    skipped = 0
    for doc, line, raw, standard, code in _read_columns(path, fmt.delimiter, columns):
        doc, line = (doc or "").strip(), (line or "").strip()
        if not doc or not line or raw is None:
            skipped += 1
            continue
        standard, code = (standard or "").strip() or None, (code or "").strip() or None
        records.append(CorpusRecord(doc, line, raw, standard, code))
    if skipped:
        logger.warning("skipped %d malformed rows in %s", skipped, path)
    return records


def read_term_list(path: PathArg, fmt: TermListFormat = TermListFormat()) -> list[tuple[str, str]]:
    """Read stripped (label, code) pairs from an external term list CSV.

    A cell missing from a short row reads as ``""``, so the dictionary build
    counts the row as skipped.
    """
    rows = _read_columns(path, fmt.delimiter, (fmt.label_column, fmt.code_column))
    return [((label or "").strip(), (code or "").strip()) for label, code in rows]


@dataclass(frozen=True)
class EvalReport:
    """Micro-averaged counts and metrics over (doc, line, code) tuples."""

    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f_measure: float

    def to_dict(self) -> dict:
        return {
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "precision": self.precision,
            "recall": self.recall,
            "f_measure": self.f_measure,
        }

    def summary(self) -> str:
        return (
            f"precision {self.precision:.3f} recall {self.recall:.3f} "
            f"f {self.f_measure:.3f}"
        )


def evaluate(gold: Iterable[tuple], predicted: Iterable[tuple]) -> EvalReport:
    """Set comparison of gold vs. predicted tuples, micro-averaged.

    Degenerate denominators: every metric is 1.0 when both sides are empty
    and 0.0 when exactly one side is empty.
    """
    gold_set, pred_set = set(gold), set(predicted)
    tp = len(gold_set & pred_set)
    fp = len(pred_set - gold_set)
    fn = len(gold_set - pred_set)
    if not gold_set and not pred_set:
        precision = recall = 1.0
    elif not gold_set or not pred_set:
        precision = recall = 0.0
    else:
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
    f_measure = (
        2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    )
    return EvalReport(tp, fp, fn, precision, recall, f_measure)


ANNOTATION_COLUMNS = (
    "doc_id",
    "line_id",
    "start_char",
    "end_char",
    "matched_text",
    "term_label",
    "code",
    "techniques",
)


@dataclass(frozen=True)
class AnnotatedLine:
    """One corpus line plus the annotations found in it."""

    doc_id: str
    line_id: str
    raw_text: str
    annotations: tuple[Annotation, ...]


@dataclass(frozen=True)
class AnnotationRow:
    """One row of the annotation output CSV."""

    doc_id: str
    line_id: str
    start_char: int
    end_char: int
    matched_text: str
    term_label: str
    code: str
    techniques: tuple[str, ...]


def write_annotations(
    lines: Iterable[AnnotatedLine], path: PathArg, fmt: CorpusFormat = CorpusFormat()
) -> int:
    """Write annotations as CSV ordered by (doc, line, start); returns row count."""
    rows = []
    for line in lines:
        for ann in line.annotations:
            rows.append(
                (
                    line.doc_id,
                    line.line_id,
                    ann.start_char,
                    ann.end_char,
                    line.raw_text[ann.start_char : ann.end_char],
                    ann.term_label,
                    ann.code,
                    ",".join(t.label for t in ann.techniques),
                )
            )
    rows.sort(key=lambda row: (row[0], row[1], row[2]))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=fmt.delimiter)
        writer.writerow(ANNOTATION_COLUMNS)
        writer.writerows(rows)
    return len(rows)


def _offset(path: PathArg, n: int, col: str, cell: str) -> int:
    try:
        return int(cell)
    except ValueError:
        msg = f"{path}, annotation row {n}: {col} {cell!r} is not an integer"
        raise CorpusFormatError(msg) from None


def read_annotation_rows(
    path: PathArg, fmt: CorpusFormat = CorpusFormat()
) -> list[AnnotationRow]:
    """Read back an annotation CSV written by :func:`write_annotations`.

    A row that lacks a cell or has a non-integer offset raises
    :class:`CorpusFormatError` naming the file, the row and the column.
    """
    rows = []
    for n, cells in enumerate(_read_columns(path, fmt.delimiter, ANNOTATION_COLUMNS), 1):
        if None in cells:
            col = ANNOTATION_COLUMNS[cells.index(None)]
            raise CorpusFormatError(f"{path}, annotation row {n}: no {col} cell")
        doc_id, line_id, start, end, matched, label, code, techniques = cells
        start_char, end_char = _offset(path, n, "start_char", start), _offset(path, n, "end_char", end)
        techs = tuple(techniques.split(",")) if techniques else ()
        rows.append(AnnotationRow(doc_id, line_id, start_char, end_char, matched, label, code, techs))
    return rows


def gold_code_tuples(records: Iterable[CorpusRecord]) -> set[tuple[str, str, str]]:
    """Deduplicated (doc, line, code) gold tuples; zero-code rows contribute none."""
    return {(r.doc_id, r.line_id, r.code) for r in records if r.code}


def predicted_code_tuples(rows: Iterable[AnnotationRow]) -> set[tuple[str, str, str]]:
    """Deduplicated (doc, line, code) tuples from an annotation CSV."""
    return {(row.doc_id, row.line_id, row.code) for row in rows if row.code}
