import numpy as np
import pytest

from draftvalue.core_model import (
    CssCategory,
    DraftClass,
    PlayerRecord,
    Position,
    normalize_record,
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
    normalized=True,
):
    r = PlayerRecord(
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
    return normalize_record(r) if normalized else r


def make_class(records, year=1998):
    return DraftClass.from_records(year, sorted(records, key=lambda r: r.selection))


def random_class(rng, n=20, year=1998, positions=None, teams=4):
    """Small random single-category draft class for oracle comparisons."""
    positions = positions or [Position.C, Position.D, Position.G]
    records = []
    for sel in range(1, n + 1):
        pos = positions[rng.integers(0, len(positions))]
        gp = int(rng.integers(0, 300))
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
    return make_class(records, year=year)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
