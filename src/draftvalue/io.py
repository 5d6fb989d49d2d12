"""CSV ingest and emit for draft classes.

Schema (header required, UTF-8, comma separator, '.' decimal point):
``year,selection,team,name,position,css_category,css_category_rank,gp7,toi7,gvt7``
with empty strings for absent rank/toi7/gvt7.
"""

from __future__ import annotations

import csv
import logging
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from .core_model import (
    CssCategory,
    DraftClass,
    ImputationConfig,
    MAX_SELECTION,
    PlayerRecord,
    Position,
    RecordError,
    normalize_record,
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


def _parse_row(row: dict, line: int) -> PlayerRecord:
    def bad(field, msg):
        return DataError(f"line {line}: {field}: {msg}")

    if None in row or None in row.values():
        raise DataError(f"line {line}: expected {len(CSV_COLUMNS)} fields")
    try:
        year = int(row["year"])
        selection = int(row["selection"])
        gp7 = int(row["gp7"])
        rank_raw = row["css_category_rank"].strip()
        rank = int(rank_raw) if rank_raw else None
    except ValueError as exc:
        raise DataError(f"line {line}: unparseable integer field ({exc})") from exc
    try:
        position = Position(row["position"].strip().upper())
    except ValueError:
        raise bad("position", f"unknown code {row['position']!r}") from None
    try:
        category = CssCategory(row["css_category"].strip().upper())
    except ValueError:
        raise bad("css_category", f"unknown category {row['css_category']!r}") from None
    toi_raw = row["toi7"].strip()
    gvt_raw = row["gvt7"].strip()
    try:
        toi7 = float(toi_raw) if toi_raw else None
        gvt7 = float(gvt_raw) if gvt_raw else None
    except ValueError as exc:
        raise DataError(f"line {line}: unparseable numeric field ({exc})") from exc
    return PlayerRecord(
        year=year,
        selection=selection,
        team=row["team"].strip(),
        name=row["name"].strip(),
        position=position,
        css_category=category,
        css_category_rank=rank,
        gp7=gp7,
        toi7=toi7,
        gvt7=gvt7,
    )


def load_draft_csv(
    path: Union[str, Path],
    imputation: ImputationConfig = ImputationConfig(),
) -> list[DraftClass]:
    """Read, validate and normalize a draft CSV into one class per year.

    Rows with a selection past the top 210 are dropped with a warning; any
    number of missing slots within a year are accepted and logged.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise DataError(f"{path}: empty file, missing header")
            if tuple(reader.fieldnames) != CSV_COLUMNS:
                raise DataError(
                    f"{path}: bad header {reader.fieldnames}, expected {list(CSV_COLUMNS)}"
                )
            by_year: dict[int, dict[int, PlayerRecord]] = {}
            for line, row in enumerate(reader, start=2):
                raw = _parse_row(row, line)
                if raw.selection > MAX_SELECTION:
                    logger.warning(
                        "line %d: dropping selection %d past the top %d",
                        line, raw.selection, MAX_SELECTION,
                    )
                    continue
                try:
                    record = normalize_record(raw, imputation)
                except RecordError as exc:
                    raise DataError(f"line {line}: {exc}") from exc
                slots = by_year.setdefault(record.year, {})
                if record.selection in slots:
                    raise DataError(
                        f"line {line}: duplicate selection {record.selection} in year {record.year}"
                    )
                slots[record.selection] = record
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror}") from exc
    if not by_year:
        raise DataError(f"{path}: no data rows")
    classes = []
    for year in sorted(by_year):
        slots = by_year[year]
        sels = sorted(slots)
        missing = set(range(sels[0], sels[-1] + 1)) - set(sels)
        if missing:
            logger.info("year %d: missing selection(s) %s", year, sorted(missing))
        classes.append(DraftClass(year=year, records=tuple(slots[s] for s in sels)))
    return classes


def write_draft_csv(classes: Iterable[DraftClass], path: Union[str, Path]) -> None:
    """Emit draft classes in the ingest schema; re-ingesting round-trips."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for dc in classes:
            for r in dc.records:
                writer.writerow(
                    [
                        r.year,
                        r.selection,
                        r.team,
                        r.name,
                        r.position.value,
                        r.css_category.value,
                        "" if r.css_category_rank is None else r.css_category_rank,
                        r.gp7,
                        "" if r.toi7 is None else repr(float(r.toi7)),
                        "" if r.gvt7 is None else repr(float(r.gvt7)),
                    ]
                )
