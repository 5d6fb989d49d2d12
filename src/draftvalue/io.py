"""CSV ingest and emit for draft classes, and ``write_csv``, the one CSV
writer of the package, in the dialect the loader reads: CRLF line ends and
minimal quoting, as csv.writer writes.

Schema (header required, UTF-8, comma separator, '.' decimal point):
``year,selection,team,name,position,css_category,css_category_rank,gp7,toi7,gvt7``
with empty strings for absent rank/toi7/gvt7.
"""

from __future__ import annotations

import csv
import logging
import re
import warnings
from contextlib import suppress
from functools import partial
from io import BytesIO, TextIOWrapper
from itertools import chain, islice, repeat, starmap
from operator import length_hint
from pathlib import Path
from typing import Iterable, Sequence, Union

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
    narrowed,
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


class _Codes(dict):
    """Member index by code; a text not a code exactly is looked up stripped and upper-cased."""

    def __missing__(self, text: str) -> int:
        code = text.strip().upper()
        if code == text:
            raise KeyError(text)
        return self[code]


def _codes(members):
    return partial(map, _Codes((m.value, i) for i, m in enumerate(members)).__getitem__)


def _message(field: str, kind: str, text: str, exc: Exception) -> str:
    """The error of the ``kind`` field ``field`` whose text ``text`` raised ``exc``."""
    if isinstance(exc, KeyError):
        return f"{field}: unknown {kind} {text!r}"
    if isinstance(exc, OverflowError):
        return f"{field}: integer out of the 64-bit range"
    return f"unparseable {kind} field ({exc})"


# (field, texts -> values, dtype, stand-in text when blank (None: required),
# kind of field, for its error message) in the order a row's fields are checked
_PARSERS = (
    ("year", partial(map, int), np.int64, None, "integer"),
    ("selection", partial(map, int), np.int64, None, "integer"),
    ("gp7", partial(map, int), np.int64, None, "integer"),
    ("css_category_rank", partial(map, int), np.int64, "0", "integer"),
    ("position", _codes(POSITIONS), np.int8, None, "code"),
    ("css_category", _codes(CATEGORIES), np.int8, None, "category"),
    ("toi7", partial(map, float), float, "nan", "numeric"),
    ("gvt7", partial(map, float), float, "nan", "numeric"),
)


# a team, a name, or a rank, toi7 or gvt7 read as text, in C: a text as wide as this may be cut, so takes the csv path
_TEXT = np.dtype("S64")
# (texts -> values, dtype, stand-in text) of each field that may be blank
_BLANKABLE = {field: (convert, dtype, blank.encode()) for field, convert, dtype, blank, _ in _PARSERS if blank}
_KEYS = {  # each code field's codes, sorted, and the member index of each
    field: (
        np.array(sorted(m.value for m in members), "S"),
        np.array(sorted(range(len(members)), key=lambda i: members[i].value), np.int8),
    )
    for field, members in (("position", POSITIONS), ("css_category", CATEGORIES))
}
_C_FIELDS = {
    **dict.fromkeys(CSV_COLUMNS, "i8"),
    **dict.fromkeys(("team", "name"), _TEXT),
    **{field: f"S{keys.itemsize + 1}" for field, (keys, _) in _KEYS.items()},  # a longer code matches no key
    **dict.fromkeys(("toi7", "gvt7"), "f8"),
}
# the C row of a chunk, and that of a chunk with a blank rank, toi7 or gvt7, which reads those three as text
_C_ROWS = tuple(
    np.dtype([(field, _TEXT if blanks and field in _BLANKABLE else kind) for field, kind in _C_FIELDS.items()])
    for blanks in (False, True)
)
# the bytes of a plain chunk's UTF-8 text: no control character but line ends, and no quote
_PLAIN = bytes([*range(32, 127), *range(128, 256)]).replace(b'"', b"") + b"\r\n"
# a space after the chunk start, a comma or a line end, or before one: csv.reader's fields are stripped, loadtxt's not
_EDGE_SPACE = re.compile(r" (?:(?<![^,\r\n] )|(?=[,\r\n]|\Z))")


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
    that row's error as (line, message), or None. Empties ``rows`` once
    their fields are transposed.

    A row's fields are checked in ``_PARSERS`` order, so the error is the
    first failing field of the first failing row."""
    stop, error = len(rows), None
    if {*map(len, rows)} - {len(CSV_COLUMNS)}:  # a row with too few or too many fields
        stop = next(i for i, row in enumerate(rows) if len(row) != len(CSV_COLUMNS))
        error = (int(lines[stop]), f"expected {len(CSV_COLUMNS)} fields")
    texts = dict(zip(CSV_COLUMNS, zip(*rows[:stop]))) if stop else dict.fromkeys(CSV_COLUMNS, ())
    rows.clear()  # the row lists go: each field's texts are held by its tuple alone
    cols = {}
    for field, convert, dtype, blank, kind in _PARSERS:
        column = texts.pop(field)[:stop]
        if blank is not None:
            column = list(map(str.strip, column))
            cols[f"has_{field}"] = np.fromiter(map(bool, column), bool, len(column))
            column = [text or blank for text in column]
        cols[field], bad, exc = _convert(column, convert, dtype)
        if bad is not None:
            stop = bad
            error = (int(lines[bad]), _message(field, kind, column[bad], exc))
    if stop < len(lines):
        cols = {field: col[:stop] for field, col in cols.items()}
    for field in ("team", "name"):  # UTF-8 bytes: a row costs its encoding, not 4 B per character
        cols[field] = np.array([text.strip().encode() for text in texts.pop(field)[:stop]], dtype="S")
    cols["line"] = lines[:stop]
    return cols, error


def _c_chunk(lines: list[str], first_line: int):
    """The columns of the lines of a chunk, the first on line ``first_line``,
    as ``_csv_chunk`` gives them, parsed by one typed ``np.loadtxt``; or None
    when the chunk is not plain (no control character but line ends, no
    ``"``, no blank line and no space at a field's edge), a line does not
    parse there, holds an unknown code, a text that may be cut or a text
    that ``str.strip`` would cut, or numpy warns: that chunk takes the csv
    path. Every number ``loadtxt`` reads, it reads as Python's
    ``int``/``float`` do, and a number with a non-ASCII character it does not
    read; a blank rank, ``toi7`` or ``gvt7`` makes the three fields text,
    whose given values ``int``/``float`` convert."""
    text = "".join(lines)
    if text.encode().translate(None, _PLAIN) or _EDGE_SPACE.search(text):
        return None
    if utf8 := not text.isascii():  # loadtxt reads each byte as one latin-1 character: a text keeps its UTF-8 bytes
        lines = [line.encode() for line in lines]
    del text  # not held while loadtxt reads the lines
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy 1.23-1.26 reads "1.0" as an int, with a DeprecationWarning
        for row in _C_ROWS:  # a blank number fails the typed row; the second reads the blankable fields as text
            with suppress(ValueError, Warning):
                table = np.loadtxt(lines, row, delimiter=",", comments=None, quotechar=None, ndmin=1, encoding="latin1")
                break
        else:
            return None
    if len(table) < len(lines):  # loadtxt skips a blank line
        return None
    cols, octets = {field: table[field] for field in _C_FIELDS}, table.view(np.uint8).reshape(len(table), -1)
    for field, (dtype, at) in table.dtype.fields.items():
        if dtype == _TEXT:  # cut to the widest text
            width = np.count_nonzero(octets[:, at : at + _TEXT.itemsize].any(axis=0))
            if width == _TEXT.itemsize or (  # the csv path strips a non-ASCII space too
                utf8 and any(not t.isascii() and t.decode() != t.decode().strip() for t in cols[field].tolist())
            ):
                return None
            cols[field] = cols[field].astype(f"S{max(width, 1)}")
    for field, (keys, members) in _KEYS.items():
        at = np.searchsorted(keys, cols[field])
        if (keys.take(at, mode="clip") != cols[field]).any():
            return None
        cols[field] = members[at]
    for field, (convert, dtype, blank) in _BLANKABLE.items():
        texts = cols[field]
        cols[f"has_{field}"] = texts != b"" if texts.dtype.kind == "S" else np.ones(len(texts), bool)
        if texts.dtype.kind == "S":
            cols[field], bad, _ = _convert([text or blank for text in texts.tolist()], convert, dtype)
            if bad is not None:
                return None
    return {**cols, "line": np.arange(first_line, first_line + len(lines))}, None, first_line + len(lines)


def _rows_at_most(fh) -> int:
    """An upper bound on the data rows of the seekable binary CSV ``fh``: its
    lines after the header, split at ``\\r\\n``, ``\\n`` or ``\\r``, counted in
    blocks. ``fh`` is rewound."""
    ends, block = 0, b""
    for block in iter(partial(fh.read, 1 << 14), b""):
        if block.endswith(b"\r"):
            block += fh.read(1)  # a line end split across two blocks counts once
        lf, cr = (np.frombuffer(block, np.uint8) == end for end in b"\n\r")
        ends += np.count_nonzero(lf) + np.count_nonzero(cr) - np.count_nonzero(cr[:-1] & lf[1:])
    fh.seek(0)
    return max(0, ends - 1 + (block[-1:] not in b"\r\n"))  # a last line may have no end


def _fill(table: dict, cols: dict, at: int, size: int) -> None:
    """Write the columns ``cols`` of a chunk at row ``at`` of ``table``, whose
    arrays of ``size`` rows are made on the first write. Integers are int16
    while every value fits; a chunk that does not fit, or longer ``S`` texts,
    widen a column (one copy)."""
    ints = np.concatenate([values for values in cols.values() if values.dtype == np.int64])
    fits = not ints.size or (ints.min() >= -(2**15) and ints.max() < 2**15)  # one check for the chunk
    for field, values in cols.items():
        dtype = values.dtype
        if dtype == np.int64:  # a column that does not fit is checked alone
            dtype = np.dtype(np.int16) if fits else narrowed(values).dtype
        column = table.get(field)
        if column is None:
            column = table[field] = np.empty(size, dtype)
        elif dtype != column.dtype and (wide := np.promote_types(column.dtype, dtype)) != column.dtype:
            column = table[field] = column.astype(wide)
        column[at : at + len(values)] = values


def _csv_chunk(reader, first_line: int):
    """The columns of the next ``CHUNK_ROWS`` rows of the new ``csv.reader``
    ``reader``, whose first line is line ``first_line``, before the first row
    that does not parse; that row's error as (line, message) or None; and the
    line after the rows read. A row starts on the line after those ``reader``
    read before it, and a blank row is skipped where it is read. A
    ``csv.Error`` is the error of the row being read."""
    rows, lines, csv_error, read = [], [], None, 0
    try:
        for row in islice(reader, CHUNK_ROWS):
            if row:
                rows.append(row)
                lines.append(first_line + read)
            read = reader.line_num
    except csv.Error as exc:
        csv_error = (first_line + read, str(exc))
    cols, error = _parse_chunk(rows, np.array(lines, np.int64))  # a row that does not parse comes before the csv error
    return cols, error or csv_error, first_line + read


def _read(path: Path):
    """Parsed columns of the rows of a draft CSV up to its first row that
    does not parse, in file order, and that row's error as (line, message)
    or None. Each chunk of ``CHUNK_ROWS`` lines is parsed in C
    (``_c_chunk``), and a chunk that is not plain or does not parse there
    takes the ``csv.reader`` path, which gives every error. Each chunk is
    written into one table sized by ``_rows_at_most``; ``year``,
    ``selection``, ``line``, ``gp7`` and ``css_category_rank`` are int16
    when every value fits, else int64. A leading UTF-8 byte-order mark is
    skipped."""
    table, n, error, line, next_line = {}, 0, None, None, 2  # line 1 is the header
    with path.open("rb") as raw:
        binary = raw if raw.seekable() else BytesIO(raw.read())  # a pipe reads once: counted from a copy
        size = _rows_at_most(binary)
        binary.seek(3 if binary.read(3) == b"\xef\xbb\xbf" else 0)  # a UTF-8 byte-order mark is skipped
        text = TextIOWrapper(binary, encoding="utf-8", newline="")
        try:
            header = next(csv.reader(text), None)
            if header is None:
                raise DataError(f"{path}: empty file, missing header")
            if tuple(header) != CSV_COLUMNS:
                raise DataError(f"{path}: bad header {header}, expected {list(CSV_COLUMNS)}")
            while error is None and next_line != line:
                line, chunk = next_line, list(islice(text, CHUNK_ROWS))
                if not chunk and table:
                    break
                # csv.reader reads the chunk's rows, and the lines of the file after it that a quoted line end joins
                cols, error, next_line = (chunk and _c_chunk(chunk, line)) or _csv_chunk(
                    csv.reader(chain(chunk, text)), line
                )
                _fill(table, cols, n, size)
                n += len(cols["line"])
                del cols  # a chunk's arrays are not held while the next is read
        except UnicodeDecodeError:
            binary.seek(0)
            binary.read().decode()  # raises again, at the offset of the bad byte from the file start
            raise
    # blank lines, quoted line ends and an error leave unused rows, which are not kept
    return {field: column[:n].copy() if len(column) > n else column for field, column in table.items()}, error


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
        logger.warning("dropped %d row(s) with a selection past the top %d, the first at line %d (selection %d)",
                       past.sum(), MAX_SELECTION, cols["line"][first], cols["selection"][first])
        for field in cols:
            cols[field] = cols[field][~past]
    line = cols.pop("line")
    invalid = first_invalid_row(RawRows(**cols))
    if invalid is not None:
        invalid = (int(line[invalid[0]]), str(invalid[1]))
    year, selection = cols["year"], cols["selection"]
    if (year[1:] < year[:-1]).any() or ((year[1:] == year[:-1]) & (selection[1:] < selection[:-1])).any():
        order = np.lexsort((selection, year))  # files come sorted: only one out of order is permuted
        for field in cols:
            cols[field] = cols[field][order]
        line, year, selection = line[order], cols["year"], cols["selection"]
        del order
    # a stable sort keeps file order within a slot: each later row is a duplicate
    later = np.flatnonzero((year[1:] == year[:-1]) & (selection[1:] == selection[:-1])) + 1
    duplicate = None
    if later.size:
        i = later[np.argmin(line[later])]
        duplicate = (int(line[i]), f"duplicate selection {selection[i]} in year {year[i]}")
    del past, line, later  # not held while the draft is built
    errors = [e for e in (invalid, duplicate, error) if e is not None]
    if errors:  # the least line; on a tie the row's own error came first
        raise DataError("line %d: %s" % min(errors, key=lambda e: e[0]))
    if not year.size:
        raise DataError(f"{path}: no data rows")
    return draft_classes(RawRows(**cols), imputation)


def write_csv(path: Path, header: Sequence[str], line: str, rows: Iterable[tuple]) -> Path:
    """Write ``header`` and each of ``rows`` formatted by ``line`` to ``path`` as the bytes
    csv.writer gives (CRLF ends, minimal quoting), streamed through one text file; a text
    field is formatted with ``csv_text``. Every CSV the package writes goes through here;
    it makes ``path``'s directory first."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(line % row for row in rows)
    return path


def csv_text(text: str) -> str:
    """``text`` as a CSV field, quoted as csv.writer's QUOTE_MINIMAL quotes it."""
    if any(c in text for c in ',"\r\n'):
        return '"%s"' % text.replace('"', '""')
    return text


def write_draft_csv(draft: Draft, path: Union[str, Path]) -> None:
    """Emit a draft in the ingest schema; re-ingesting round-trips. The rows
    are built class by class, so one class at a time is held as Python objects."""
    positions, categories = [p.value for p in POSITIONS], [k.value for k in CATEGORIES]

    def rows(year: int, lo: int, hi: int):
        c = draft.columns.rows(lo, hi)
        return zip(
            repeat(year),
            c.selection.tolist(),
            *([csv_text(text.decode()) for text in column.tolist()] for column in (c.team, c.name)),
            map(positions.__getitem__, c.position.tolist()),
            map(categories.__getitem__, c.category.tolist()),
            [rank or "" for rank in c.category_rank.tolist()],
            *(c.metrics[m].tolist() for m in (Metric.GP, Metric.TOI, Metric.GVT)),
        )

    classes = starmap(rows, zip(draft.years, draft.bounds, draft.bounds[1:]))
    write_csv(Path(path), CSV_COLUMNS, "%d,%d,%s,%s,%s,%s,%s,%d,%r,%r\r\n", chain.from_iterable(classes))
