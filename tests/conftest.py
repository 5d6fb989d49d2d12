import math

import numpy as np
import pytest

from draftvalue.cescin import css_ordering
from draftvalue.core_model import (
    CATEGORIES,
    POSITIONS,
    CssCategory,
    ImputationConfig,
    PlayerRecord,
    Position,
    RawRows,
    draft_classes,
    first_invalid_row,
)


def make_record(
    year=1998,
    selection=1,
    team="T01",
    name=None,
    position=Position.C,
    css_category=CssCategory.NA_SKATER,
    css_category_rank=1,
    gp7=100,
    toi7=1500.0,
    gvt7=5.0,
):
    """One row as the CSV gives it: ``None`` is a blank rank, ``toi7`` or
    ``gvt7``. Nothing is checked or imputed until ``make_class``."""
    return PlayerRecord(
        year=year,
        selection=selection,
        team=team,
        name=name or f"P{selection:03d}",
        position=position,
        css_category=css_category,
        css_category_rank=css_category_rank,
        gp7=gp7,
        toi7=toi7,
        gvt7=gvt7,
    )


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


def pooled_css(classes, factors):
    """The integrated scouting ranks of ``classes`` pooled year by year, as
    ``build_orderings`` pools them."""
    return np.concatenate([css_ordering(dc, factors) for dc in classes])


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
