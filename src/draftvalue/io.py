"""CSV ingest and emit for draft classes.

Schema (header required, UTF-8, comma separator, '.' decimal point):
``year,selection,team,name,position,css_category,css_category_rank,gp7,toi7,gvt7``
with empty strings for absent rank/toi7/gvt7.
"""

from __future__ import annotations

import csv
import dataclasses
import logging
import math
from functools import partial
from itertools import compress, islice, repeat
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

from .core_model import (
    CATEGORIES,
    MAX_SELECTION,
    POSITIONS,
    DraftClass,
    DraftColumns,
    ImputationConfig,
    Metric,
    RawRows,
    first_invalid_row,
    impute,
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


CHUNK_ROWS = 256  # rows parsed per batch: a file is never held as Python rows at once


def _codes(members):
    lookup = {m.value: i for i, m in enumerate(members)}.__getitem__
    return lambda texts: map(lookup, map(str.upper, map(str.strip, texts)))


def _unparseable(kind):
    def message(field, text, exc):
        if isinstance(exc, OverflowError):
            return f"{field}: integer out of the 64-bit range"
        return f"unparseable {kind} field ({exc})"

    return message


# (field, texts -> values, dtype, value when blank (None: required), error
# message) in the order a row's fields are checked
_PARSERS = (
    ("year", partial(map, int), np.int64, None, _unparseable("integer")),
    ("selection", partial(map, int), np.int64, None, _unparseable("integer")),
    ("gp7", partial(map, int), np.int64, None, _unparseable("integer")),
    ("css_category_rank", partial(map, int), np.int64, 0, _unparseable("integer")),
    (
        "position",
        _codes(POSITIONS),
        np.int8,
        None,
        lambda field, text, exc: f"position: unknown code {text!r}",
    ),
    (
        "css_category",
        _codes(CATEGORIES),
        np.int8,
        None,
        lambda field, text, exc: f"css_category: unknown category {text!r}",
    ),
    ("toi7", partial(map, float), float, math.nan, _unparseable("numeric")),
    ("gvt7", partial(map, float), float, math.nan, _unparseable("numeric")),
)


def _convert(texts: Sequence[str], convert, dtype):
    """``convert(texts)`` as an array, cut short at the first text that does
    not convert into ``dtype``; returns the array and that text's index and
    exception, or (array, None, None)."""
    try:
        return np.fromiter(convert(texts), dtype, len(texts)), None, None
    except (ValueError, KeyError, OverflowError):
        pass
    for i, text in enumerate(texts):
        try:
            np.fromiter(convert([text]), dtype, 1)
        except (ValueError, KeyError, OverflowError) as exc:
            return np.fromiter(convert(texts[:i]), dtype, i), i, exc
    raise AssertionError("unreachable: some text failed to convert")


def _convert_optional(texts: Sequence[str], convert, dtype, blank):
    """``_convert`` of the stripped texts that are not blank, with ``blank``
    in place of the others; also returns the stripped texts and which of
    them are given."""
    texts = list(map(str.strip, texts))
    given = np.fromiter(map(bool, texts), bool, len(texts))
    values, bad, exc = _convert(list(compress(texts, given)), convert, dtype)
    if bad is not None:
        bad = int(np.flatnonzero(given)[bad])
    out = np.full(len(texts) if bad is None else bad, blank, dtype)
    out[given[: len(out)]] = values
    return out, given, texts, bad, exc


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
        if blank is None:
            cols[field], bad, exc = _convert(column, convert, dtype)
        else:
            cols[field], cols[f"has_{field}"], column, bad, exc = _convert_optional(
                column, convert, dtype, blank
            )
        if bad is not None:
            stop = bad
            error = (int(lines[bad]), message(field, column[bad], exc))
    cols = {field: col[:stop] for field, col in cols.items()}
    for field in ("team", "name"):
        cols[field] = np.array(list(map(str.strip, texts[field][:stop])), dtype=str)
    cols["line"] = lines[:stop]
    return cols, error


def _read(path: Path, imputation: ImputationConfig):
    """Validated, imputed columns of the rows of a draft CSV up to its first
    bad row, in file order, and that row's error as (line, message) or None.
    Rows past the top 210 are dropped here."""
    parts, error = [], None
    dropped, first_dropped = 0, None
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file, missing header")
            if tuple(header) != CSV_COLUMNS:
                raise DataError(f"{path}: bad header {header}, expected {list(CSV_COLUMNS)}")
            first_line = 2  # the header is line 1, and a blank line counts
            for rows in iter(lambda: list(islice(reader, CHUNK_ROWS)), []):
                lines = np.arange(first_line, first_line + len(rows))
                first_line += len(rows)
                cols, error = _parse_chunk(rows, lines)
                past = cols["selection"] > MAX_SELECTION
                if past.any():
                    if not dropped:
                        first_dropped = (cols["line"][past][0], cols["selection"][past][0])
                    dropped += int(past.sum())
                    cols = {field: col[~past] for field, col in cols.items()}
                raw = RawRows(**{f.name: cols[f.name] for f in dataclasses.fields(RawRows)})
                invalid = first_invalid_row(raw)
                if invalid is not None:
                    error = (int(cols["line"][invalid[0]]), str(invalid[1]))
                cols["toi7"], cols["gvt7"] = impute(raw, imputation)
                parts.append(cols)
                if error is not None:
                    break
        except csv.Error as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from exc
    if dropped:
        logger.warning(
            "dropped %d row(s) with a selection past the top %d, the first at line %d "
            "(selection %d)",
            dropped, MAX_SELECTION, *first_dropped,
        )
    if not parts:
        raise DataError(f"{path}: no data rows")
    # one field at a time, so the chunks of a field are freed as it is joined
    fields = list(parts[0])
    return {field: np.concatenate([part.pop(field) for part in parts]) for field in fields}, error


def load_draft_csv(
    path: Union[str, Path],
    imputation: ImputationConfig = ImputationConfig(),
) -> list[DraftClass]:
    """Read, validate and normalize a draft CSV into one class per year.

    Rows with a selection past the top 210 are dropped, with one warning
    that counts them; any number of missing slots within a year are
    accepted and logged. A bad file raises ``DataError`` naming the line of
    its first bad row.
    """
    path = Path(path)
    try:
        cols, error = _read(path, imputation)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror}") from exc
    order = np.lexsort((cols["selection"], cols["year"]))
    for field in cols:
        cols[field] = cols[field][order]
    year, selection, line = cols["year"], cols["selection"], cols["line"]
    # a stable sort keeps file order within a slot: each later row is a duplicate
    later = np.flatnonzero((year[1:] == year[:-1]) & (selection[1:] == selection[:-1])) + 1
    if later.size:
        i = later[np.argmin(line[later])]
        if error is None or line[i] < error[0]:  # on a tie the row's own error came first
            error = (int(line[i]), f"duplicate selection {selection[i]} in year {year[i]}")
    if error is not None:
        raise DataError(f"line {error[0]}: {error[1]}")
    if not year.size:
        raise DataError(f"{path}: no data rows")

    gp7 = cols["gp7"].astype(float)
    classes = []
    bounds = [0, *(np.flatnonzero(np.diff(year)) + 1).tolist(), year.size]
    for lo, hi in zip(bounds, bounds[1:]):
        sels = selection[lo:hi]
        if sels[-1] - sels[0] >= len(sels):
            missing = np.setdiff1d(np.arange(sels[0], sels[-1] + 1), sels)
            logger.info("year %d: missing selection(s) %s", year[lo], missing.tolist())
        columns = DraftColumns(
            selection=sels,
            position=cols["position"][lo:hi],
            team=cols["team"][lo:hi],
            name=cols["name"][lo:hi],
            category=cols["css_category"][lo:hi],
            category_rank=cols["css_category_rank"][lo:hi],
            metrics={
                Metric.GP: gp7[lo:hi],
                Metric.TOI: cols["toi7"][lo:hi],
                Metric.GVT: cols["gvt7"][lo:hi],
            },
        )
        classes.append(DraftClass(int(year[lo]), columns))
    return classes


def write_draft_csv(classes: Iterable[DraftClass], path: Union[str, Path]) -> None:
    """Emit draft classes in the ingest schema; re-ingesting round-trips."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for dc in classes:
            c = dc.columns
            writer.writerows(
                zip(
                    repeat(dc.year),
                    c.selection.tolist(),
                    c.team.tolist(),
                    c.name.tolist(),
                    [POSITIONS[p].value for p in c.position.tolist()],
                    [CATEGORIES[k].value for k in c.category.tolist()],
                    [rank or "" for rank in c.category_rank.tolist()],
                    c.metrics[Metric.GP].astype(np.int64).tolist(),
                    map(repr, c.metrics[Metric.TOI].tolist()),
                    map(repr, c.metrics[Metric.GVT].tolist()),
                )
            )
