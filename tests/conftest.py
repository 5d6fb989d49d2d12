import math
from dataclasses import fields
from typing import NamedTuple, Optional

import numpy as np
import pytest

from draftvalue.core_model import (
    CATEGORIES,
    POSITIONS,
    CssCategory,
    Draft,
    DraftColumns,
    ImputationConfig,
    Position,
    RawRows,
    draft_classes,
    first_invalid_row,
)


class Row(NamedTuple):
    """One player row as the CSV gives it: ``None`` is a blank rank, ``toi7``
    or ``gvt7``."""

    year: int = 1998
    selection: int = 1
    team: str = "T01"
    name: Optional[str] = None
    position: Position = Position.C
    css_category: CssCategory = CssCategory.NA_SKATER
    css_category_rank: Optional[int] = 1
    gp7: int = 100
    toi7: Optional[float] = 1500.0
    gvt7: Optional[float] = 5.0


def make_record(**given):
    """A ``Row`` of the ``given`` fields over the defaults, named ``P`` and its
    selection when no name is given. Nothing is checked or imputed until
    ``make_class``."""
    row = Row(**given)
    return row._replace(name=row.name or f"P{row.selection:03d}")


def raw_rows(records):
    """The rows as the loader parses them: ``RawRows`` with its dtypes, in
    the order given."""

    def column(read, dtype):
        return np.array([read(r) for r in records], dtype)

    return RawRows(
        year=column(lambda r: r.year, np.int64),
        selection=column(lambda r: r.selection, np.int64),
        team=column(lambda r: r.team.encode(), "S"),
        name=column(lambda r: r.name.encode(), "S"),
        position=column(lambda r: POSITIONS.index(r.position), np.int8),
        css_category=column(lambda r: CATEGORIES.index(r.css_category), np.int8),
        css_category_rank=column(lambda r: r.css_category_rank or 0, np.int64),
        has_css_category_rank=column(lambda r: r.css_category_rank is not None, bool),
        gp7=column(lambda r: r.gp7, np.int64),
        toi7=column(lambda r: math.nan if r.toi7 is None else r.toi7, float),
        has_toi7=column(lambda r: r.toi7 is not None, bool),
        gvt7=column(lambda r: math.nan if r.gvt7 is None else r.gvt7, float),
        has_gvt7=column(lambda r: r.gvt7 is not None, bool),
    )


def make_class(records):
    """The one draft class the loader would build from ``records`` (in any
    order): the rows are checked with ``first_invalid_row``, whose error is
    raised, then sorted by selection and imputed by ``draft_classes``."""
    records = sorted(records, key=lambda r: (r.year, r.selection))
    rows = raw_rows(records)
    invalid = first_invalid_row(rows)
    if invalid is not None:
        raise invalid[1]
    (dc,) = draft_classes(rows, ImputationConfig())
    return dc


def arrays(columns: DraftColumns) -> dict:
    """Every array of ``columns``, keyed by column or metric name."""
    named = {f.name: getattr(columns, f.name) for f in fields(columns) if f.name != "metrics"}
    return {**named, **{m.value: column for m, column in columns.metrics.items()}}


def random_class(rng, n=20, year=1998, positions=None, teams=4, gp_max=300, selections=None):
    """Small random single-category draft class for oracle comparisons: the
    picks ``selections`` (default 1..n), each with GP drawn from
    0..gp_max - 1."""
    positions = positions or [Position.C, Position.D, Position.G]
    records = []
    for sel in range(1, n + 1) if selections is None else selections:
        pos = positions[rng.integers(0, len(positions))]
        gp = int(rng.integers(0, gp_max))
        records.append(
            make_record(
                year=year,
                selection=sel,
                team=f"T{int(rng.integers(1, teams + 1)):02d}",
                position=pos,
                css_category=(
                    CssCategory.NA_GOALIE if pos is Position.G else CssCategory.NA_SKATER
                ),
                css_category_rank=sel,
                gp7=gp,
                toi7=float(gp) * float(rng.uniform(5, 25)),
                gvt7=float(rng.normal(0, 15)) if gp else None,
            )
        )
    return make_class(records)


def one_class(year: int, columns: DraftColumns) -> Draft:
    """The checked one-year ``Draft`` of the year ``year`` over ``columns``."""
    return Draft.over(columns, (year,), (0, len(columns.selection)))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
