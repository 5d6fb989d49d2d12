"""CSV ingest and emit for draft classes.

Schema (header required, UTF-8, comma separator, '.' decimal point):
``year,selection,team,name,position,css_category,css_category_rank,gp7,toi7,gvt7``
with empty strings for absent rank/toi7/gvt7.
"""

from __future__ import annotations

import csv
import logging
from functools import partial
from itertools import accumulate, islice, repeat
from operator import length_hint
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .core_model import (
    CATEGORIES,
    MAX_SELECTION,
    POSITIONS,
    Draft,
    ImputationConfig,
    Metric,
    RawRows,
    draft_classes,
    first_invalid_row,
)

logger = logging.getLogger("draftvalue")

CSV_COLUMNS = (
    "year",
    "selection",
    "team",
    "name",
    "position",
    "css_category",
    "css_category_rank",
    "gp7",
    "toi7",
    "gvt7",
)


class DataError(ValueError):
    """Structurally invalid input data."""


CHUNK_ROWS = 128  # rows parsed per batch: a file is never held as Python rows at once
BLOCK_CHUNKS = 8  # batches joined into one block: a batch's small arrays are not kept to the end


class _Codes(dict):
    """Member index by code; a text not a code exactly is looked up stripped and upper-cased."""

    def __missing__(self, text: str) -> int:
        code = text.strip().upper()
        if code == text:
            raise KeyError(text)
        return self[code]


def _codes(members):
    return partial(map, _Codes((m.value, i) for i, m in enumerate(members)).__getitem__)


def _unparseable(kind):
    def message(field, text, exc):
        if isinstance(exc, OverflowError):
            return f"{field}: integer out of the 64-bit range"
        return f"unparseable {kind} field ({exc})"

    return message


def _unknown(kind):
    return lambda field, text, exc: f"{field}: unknown {kind} {text!r}"


# (field, texts -> values, dtype, stand-in text when blank (None: required),
# error message) in the order a row's fields are checked
_PARSERS = (
    ("year", partial(map, int), np.int64, None, _unparseable("integer")),
    ("selection", partial(map, int), np.int64, None, _unparseable("integer")),
    ("gp7", partial(map, int), np.int64, None, _unparseable("integer")),
    ("css_category_rank", partial(map, int), np.int64, "0", _unparseable("integer")),
    ("position", _codes(POSITIONS), np.int8, None, _unknown("code")),
    ("css_category", _codes(CATEGORIES), np.int8, None, _unknown("category")),
    ("toi7", partial(map, float), float, "nan", _unparseable("numeric")),
    ("gvt7", partial(map, float), float, "nan", _unparseable("numeric")),
)


def _convert(texts: Sequence[str], convert, dtype):
    """``convert(texts)`` as an array, cut short at the first text that does
    not convert into ``dtype``; returns the array and that text's index and
    exception, or (array, None, None)."""
    rest = iter(texts)
    try:
        return np.fromiter(convert(rest), dtype, len(texts)), None, None
    except (ValueError, KeyError, OverflowError) as exc:
        bad = len(texts) - length_hint(rest) - 1  # the failing text was the last one taken
        return np.fromiter(convert(texts[:bad]), dtype, bad), bad, exc


def _parse_chunk(rows: list[list[str]], lines: np.ndarray):
    """Columns of the rows of one chunk before its first unparseable row, and
    that row's error as (line, message), or None.

    A row's fields are checked in ``_PARSERS`` order, so the error is the
    first failing field of the first failing row."""
    if [] in rows:  # blank lines
        keep = [i for i, row in enumerate(rows) if row]
        rows, lines = [rows[i] for i in keep], lines[keep]
    counts = np.fromiter(map(len, rows), np.int64, len(rows))
    stop, error = len(rows), None
    wrong = np.flatnonzero(counts != len(CSV_COLUMNS))
    if wrong.size:
        stop = int(wrong[0])
        error = (int(lines[stop]), f"expected {len(CSV_COLUMNS)} fields")
    texts = dict(zip(CSV_COLUMNS, zip(*rows[:stop]))) if stop else dict.fromkeys(CSV_COLUMNS, ())
    cols = {}
    for field, convert, dtype, blank, message in _PARSERS:
        column = texts[field][:stop]
        if blank is not None:
            column = list(map(str.strip, column))
            cols[f"has_{field}"] = np.fromiter(map(bool, column), bool, len(column))
            column = [text or blank for text in column]
        cols[field], bad, exc = _convert(column, convert, dtype)
        if bad is not None:
            stop = bad
            error = (int(lines[bad]), message(field, column[bad], exc))
    cols = {field: col[:stop] for field, col in cols.items()}
    for field in ("team", "name"):  # UTF-8 bytes: a row costs its encoding, not 4 B per character
        cols[field] = np.array([text.strip().encode() for text in texts[field][:stop]], dtype="S")
    cols["line"] = lines[:stop]
    return cols, error


def _start_lines(rows: list[list[str]], first: int) -> tuple[np.ndarray, int]:
    """The line each of ``rows`` starts on, the first on line ``first``,
    and the line after the last. A row spans one line more than its quoted
    fields hold line ends (``\\r\\n``, ``\\n`` or ``\\r``, which split the
    lines of a file opened with ``newline=""``)."""
    spans = [1 + sum(f.count("\n") + f.count("\r") - f.count("\r\n") for f in row) for row in rows]
    lines = np.fromiter(accumulate(spans, initial=first), np.int64, len(rows) + 1)
    return lines[:-1], int(lines[-1])


def _join(parts: list[dict]) -> dict:
    """The columns of ``parts`` joined field by field, each field's parts freed as it is joined."""
    return {field: np.concatenate([part.pop(field) for part in parts]) for field in list(parts[0])}


def _read(path: Path):
    """Parsed columns of the rows of a draft CSV up to its first row that
    does not parse, in file order, and that row's error as (line, message)
    or None. A ``csv.Error`` is the error of the row being read."""
    blocks, parts, error = [], [], None
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file, missing header")
        if tuple(header) != CSV_COLUMNS:
            raise DataError(f"{path}: bad header {header}, expected {list(CSV_COLUMNS)}")
        while True:
            first_line = reader.line_num + 1  # a blank line counts
            rows, csv_error = [], None
            try:
                rows.extend(islice(reader, CHUNK_ROWS))  # keeps the rows read before an error
            except csv.Error as exc:
                csv_error = exc
            if csv_error is None and reader.line_num - first_line + 1 == len(rows):  # a line each
                lines = np.arange(first_line, first_line + len(rows))
            else:
                lines, next_line = _start_lines(rows, first_line)
                if csv_error is not None:
                    error = (next_line, str(csv_error))
            cols, row_error = _parse_chunk(rows, lines)
            del rows  # not held through a join
            error = row_error or error  # a row that does not parse comes before the csv error
            parts.append(cols)
            if len(parts) == BLOCK_CHUNKS:
                blocks.append(_join(parts))
                parts = []
            if error is not None or not lines.size:
                break
    return _join([*blocks, _join(parts)] if parts else blocks), error


def load_draft_csv(
    path: Union[str, Path],
    imputation: ImputationConfig = ImputationConfig(),
) -> Draft:
    """Read, validate and normalize a draft CSV into a ``Draft`` of one class
    per year.

    Rows with a selection past the top 210 are dropped, with one warning
    that counts them; any number of missing slots within a year are
    accepted and logged. A bad file raises ``DataError`` naming the line of
    its first bad row.
    """
    path = Path(path)
    try:
        cols, error = _read(path)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror}") from exc
    except csv.Error as exc:  # in the header: the rows catch their own
        raise DataError(f"{path}: line 1: {exc}") from exc
    # each column is replaced one at a time, so at most one is held twice
    past = cols["selection"] > MAX_SELECTION
    if past.any():
        first = int(np.argmax(past))
        logger.warning(
            "dropped %d row(s) with a selection past the top %d, the first at line %d "
            "(selection %d)",
            past.sum(), MAX_SELECTION, cols["line"][first], cols["selection"][first],
        )
        for field in cols:
            cols[field] = cols[field][~past]
    line = cols.pop("line")
    invalid = first_invalid_row(RawRows(**cols))
    if invalid is not None:
        invalid = (int(line[invalid[0]]), str(invalid[1]))
    order = np.lexsort((cols["selection"], cols["year"]))
    line = line[order]
    for field in cols:
        cols[field] = cols[field][order]
    year, selection = cols["year"], cols["selection"]
    # a stable sort keeps file order within a slot: each later row is a duplicate
    later = np.flatnonzero((year[1:] == year[:-1]) & (selection[1:] == selection[:-1])) + 1
    duplicate = None
    if later.size:
        i = later[np.argmin(line[later])]
        duplicate = (int(line[i]), f"duplicate selection {selection[i]} in year {year[i]}")
    del past, order, line, later  # not held while the draft is built
    errors = [e for e in (invalid, duplicate, error) if e is not None]
    if errors:  # the least line; on a tie the row's own error came first
        raise DataError("line %d: %s" % min(errors, key=lambda e: e[0]))
    if not year.size:
        raise DataError(f"{path}: no data rows")
    return draft_classes(RawRows(**cols), imputation)


def write_draft_csv(draft: Draft, path: Union[str, Path]) -> None:
    """Emit a draft in the ingest schema, class by class; re-ingesting round-trips."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for dc in draft:
            c = dc.columns
            writer.writerows(
                zip(
                    repeat(dc.years[0]),
                    c.selection.tolist(),
                    map(bytes.decode, c.team.tolist()),
                    map(bytes.decode, c.name.tolist()),
                    [POSITIONS[p].value for p in c.position.tolist()],
                    [CATEGORIES[k].value for k in c.category.tolist()],
                    [rank or "" for rank in c.category_rank.tolist()],
                    c.metrics[Metric.GP].tolist(),
                    map(repr, c.metrics[Metric.TOI].tolist()),
                    map(repr, c.metrics[Metric.GVT].tolist()),
                )
            )
