import numpy as np
import pytest

from draftvalue.core_model import (
    CssCategory,
    DraftClass,
    ImputationConfig,
    Metric,
    Position,
    PositionGroup,
    RecordError,
    normalize_record,
    position_group,
    summarize_metric,
)

from conftest import make_class, make_record


class TestNormalize:
    def test_goalie_minutes_imputed(self):
        r = make_record(
            position=Position.G,
            css_category=CssCategory.NA_GOALIE,
            gp7=50,
            toi7=None,
            gvt7=2.0,
            normalized=False,
        )
        assert normalize_record(r).toi7 == 1000.0

    def test_never_played_skater(self):
        r = make_record(gp7=0, toi7=None, gvt7=None, normalized=False)
        out = normalize_record(r)
        assert out.gvt7 == -30.0
        assert out.toi7 == 0.0

    def test_no_imputation_when_played(self):
        r = make_record(gp7=553, toi7=13880.0, gvt7=114.0, normalized=False)
        out = normalize_record(r)
        assert (out.gp7, out.toi7, out.gvt7) == (553, 13880.0, 114.0)

    def test_idempotent(self, rng):
        for _ in range(50):
            gp = int(rng.integers(0, 400))
            pos = [Position.C, Position.D, Position.G][rng.integers(0, 3)]
            r = make_record(
                position=pos,
                css_category=CssCategory.NA_GOALIE if pos is Position.G else CssCategory.NA_SKATER,
                gp7=gp,
                toi7=float(gp * 15) if gp else None,
                gvt7=float(rng.normal()) if gp else None,
                normalized=False,
            )
            once = normalize_record(r)
            assert normalize_record(once) == once
            if gp == 0:
                assert once.gvt7 == -30.0 and once.toi7 == 0.0
            if pos is Position.G:
                assert once.toi7 - 20 * once.gp7 == 0.0

    def test_custom_imputation_constants(self):
        cfg = ImputationConfig(never_played_gvt=-25.0, goalie_minutes_per_game=18.0)
        r = make_record(
            position=Position.G,
            css_category=CssCategory.NA_GOALIE,
            gp7=10,
            toi7=None,
            gvt7=1.0,
            normalized=False,
        )
        assert normalize_record(r, cfg).toi7 == 180.0

    def test_goalie_with_skater_category_rejected(self):
        r = make_record(position=Position.G, css_category=CssCategory.NA_SKATER, normalized=False)
        with pytest.raises(RecordError) as exc:
            normalize_record(r)
        assert exc.value.field == "css_category"

    def test_negative_metric_rejected(self):
        r = make_record(toi7=-1.0, normalized=False)
        with pytest.raises(RecordError) as exc:
            normalize_record(r)
        assert exc.value.field == "toi7"

    def test_rank_absent_iff_unranked(self):
        r = make_record(css_category=CssCategory.UNRANKED, css_category_rank=5, normalized=False)
        with pytest.raises(RecordError):
            normalize_record(r)
        r = make_record(css_category_rank=None, normalized=False)
        with pytest.raises(RecordError):
            normalize_record(r)


@pytest.mark.parametrize(
    "pos,group",
    [
        (Position.C, PositionGroup.F),
        (Position.L, PositionGroup.F),
        (Position.R, PositionGroup.F),
        (Position.F, PositionGroup.F),
        (Position.D, PositionGroup.D),
        (Position.G, PositionGroup.G),
    ],
)
def test_position_group(pos, group):
    assert position_group(pos) is group


class TestDraftClass:
    def test_duplicate_selection_rejected(self):
        records = [make_record(selection=1), make_record(selection=1)]
        with pytest.raises(ValueError):
            DraftClass.from_records(1998, records)

    def test_missing_slot_tolerated(self):
        records = [make_record(selection=s, css_category_rank=s) for s in (1, 2, 4)]
        dc = make_class(records)
        assert len(dc) == 3

    def test_year_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DraftClass.from_records(1999, [make_record(year=1998)])

    def test_unsorted_selections_rejected(self):
        records = [make_record(selection=2), make_record(selection=1)]
        with pytest.raises(ValueError, match="strictly increasing"):
            DraftClass.from_records(1998, records)

    def test_more_than_210_rejected(self):
        records = [make_record(selection=s, css_category_rank=s) for s in range(1, 212)]
        with pytest.raises(ValueError, match="more than 210"):
            DraftClass.from_records(1998, records)

    def test_records_view_round_trips(self):
        records = [
            make_record(selection=1, team="BOS", gp7=0, toi7=None, gvt7=None),
            make_record(selection=3, css_category=CssCategory.UNRANKED, css_category_rank=None),
            make_record(selection=7, position=Position.G, css_category=CssCategory.EU_GOALIE),
        ]
        view = DraftClass.from_records(1998, records).records
        assert len(view) == 3
        assert list(view) == records
        assert view[-1] == records[-1]
        with pytest.raises(IndexError):
            view[3]


class TestSummarize:
    def test_constant_values(self):
        records = [
            make_record(selection=s, css_category_rank=s, gp7=80, toi7=900.0, gvt7=3.0)
            for s in range(1, 6)
        ]
        stats = summarize_metric([make_class(records)], Metric.GP)
        assert stats.median == stats.mean == stats.p75 == stats.max == 80
        assert stats.sd == 0.0

    def test_two_values_hand_computed(self):
        records = [
            make_record(selection=1, css_category_rank=1, gp7=0, toi7=None, gvt7=None),
            make_record(selection=2, css_category_rank=2, gp7=10, toi7=150.0, gvt7=1.0),
        ]
        stats = summarize_metric([make_class(records)], Metric.GP)
        assert stats.mean == 5.0
        assert stats.sd == pytest.approx(np.sqrt(50), abs=1e-9)  # n-1 denominator

    def test_permutation_invariant(self, rng):
        gps = [int(rng.integers(0, 300)) for _ in range(20)]
        records = [
            make_record(
                selection=s,
                css_category_rank=s,
                gp7=gp,
                toi7=float(gp * 14) if gp else None,
                gvt7=float(gp) / 10 if gp else None,
            )
            for s, gp in enumerate(gps, start=1)
        ]
        a = make_class(records)
        shuffled = list(records)
        rng.shuffle(shuffled)
        b = make_class(shuffled)
        for metric in Metric:
            assert summarize_metric([a], metric) == summarize_metric([b], metric)

    def test_ordering_invariant(self, rng):
        values = rng.normal(size=30)
        records = [
            make_record(selection=s, css_category_rank=s, gp7=s, toi7=float(s), gvt7=float(v))
            for s, v in enumerate(values, start=1)
        ]
        stats = summarize_metric([make_class(records)], Metric.GVT)
        assert stats.median <= stats.p75 <= stats.max
        assert stats.sd >= 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_metric([], Metric.GP)
