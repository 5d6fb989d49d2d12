import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from draftvalue.cescin import (
    CategoryFactors,
    css_ordering,
    estimate_category_factors,
)
from draftvalue.core_model import CssCategory, Position, RecordError

from conftest import make_class, make_record

UNIT_FACTORS = CategoryFactors(na_skater=1.0, na_goalie=1.0, eu_skater=1.0, eu_goalie=1.0)


def class_from_pairs(pairs, category=CssCategory.NA_SKATER):
    """(category_rank, selection) pairs -> single-category draft class."""
    records = [
        make_record(selection=sel, css_category=category, css_category_rank=rank)
        for rank, sel in pairs
    ]
    return make_class(records)


class TestEstimateFactors:
    def test_exact_double(self):
        dc = class_from_pairs([(1, 2), (2, 4), (3, 6)])
        factors = estimate_category_factors([dc])
        assert factors.na_skater == pytest.approx(2.0, abs=1e-12)

    def test_identity(self):
        dc = class_from_pairs([(1, 1), (2, 2)])
        assert estimate_category_factors([dc]).na_skater == pytest.approx(1.0)

    def test_through_origin_slope(self):
        dc = class_from_pairs([(1, 3), (2, 5)])
        assert estimate_category_factors([dc]).na_skater == pytest.approx(2.6)

    def test_single_observation_errors(self):
        records = [
            make_record(selection=1, css_category_rank=1),
            make_record(selection=2, css_category_rank=2),
            make_record(
                selection=3,
                position=Position.G,
                css_category=CssCategory.NA_GOALIE,
                css_category_rank=1,
            ),
        ]
        with pytest.raises(ValueError, match="NA_GOALIE"):
            estimate_category_factors([make_class(records)])

    def test_override_skips_estimation(self):
        dc = class_from_pairs([(1, 2), (2, 4)])
        factors = estimate_category_factors([dc], overrides={"na_skater": 1.5})
        assert factors.na_skater == 1.5

    def test_nonpositive_factor_rejected(self):
        with pytest.raises(ValueError):
            CategoryFactors(na_skater=0.0, na_goalie=1.0, eu_skater=1.0, eu_goalie=1.0)


class TestCescinValue:
    @pytest.mark.parametrize("rank,factor,expected", [(10, 2.0, 20.0), (1, 1.0, 1.0), (22, 1.35, 29.7)])
    def test_values(self, rank, factor, expected):
        # NA skaters of value 1..n (factor 1) bracket the EU skater's value
        # rank x factor; a tie goes to the earlier selection
        factors = CategoryFactors(na_skater=1.0, na_goalie=1.0, eu_skater=factor, eu_goalie=1.0)
        na_values = np.arange(1, int(np.ceil(expected)) + 2)
        na = [make_record(selection=int(v) + 1, css_category_rank=int(v)) for v in na_values]
        for eu_selection in (1, len(na_values) + 2):  # before and after every NA skater
            eu = make_record(
                selection=eu_selection, css_category=CssCategory.EU_SKATER, css_category_rank=rank
            )
            dc = make_class(na + [eu])
            ranks = css_ordering(dc, factors)
            ties_lost = np.count_nonzero(na_values == expected) if eu_selection > 1 else 0
            expected_rank = np.count_nonzero(na_values < expected) + ties_lost + 1
            assert ranks[dc.columns.selection == eu_selection].tolist() == [expected_rank]

    def test_invalid_inputs(self):
        # a value is rank x factor only for ranks >= 1 and positive factors
        with pytest.raises(RecordError):
            make_record(css_category_rank=0)
        with pytest.raises(ValueError):
            CategoryFactors(na_skater=1.0, na_goalie=1.0, eu_skater=0.0, eu_goalie=1.0)


class TestCssOrdering:
    def test_unranked_appended_after_sorted(self):
        records = [
            make_record(selection=1, css_category_rank=4),  # cescin 4.0
            make_record(selection=2, css_category_rank=2),  # cescin 2.0
            make_record(selection=3, css_category=CssCategory.UNRANKED, css_category_rank=None),
        ]
        out = css_ordering(make_class(records), UNIT_FACTORS)
        assert out.tolist() == [2, 1, 3]

    def test_all_unranked_follow_selection_order(self):
        records = [
            make_record(selection=s, css_category=CssCategory.UNRANKED, css_category_rank=None)
            for s in (1, 2, 3, 4)
        ]
        out = css_ordering(make_class(records), UNIT_FACTORS)
        assert out.tolist() == [1, 2, 3, 4]

    def test_tie_broken_by_earlier_selection(self):
        factors = CategoryFactors(na_skater=1.0, na_goalie=3.0, eu_skater=1.0, eu_goalie=1.0)
        records = [
            make_record(selection=5, css_category_rank=6),  # value 6.0
            make_record(
                selection=9,
                position=Position.G,
                css_category=CssCategory.NA_GOALIE,
                css_category_rank=2,  # value 6.0 too
            ),
            make_record(selection=1, css_category_rank=1),
        ]
        dc = make_class(records)
        out = css_ordering(dc, factors)
        by_sel = {r.selection: out[i] for i, r in enumerate(dc.records)}
        assert by_sel[5] < by_sel[9]

    def test_empty_class_rejected(self):
        from draftvalue.core_model import DraftClass

        with pytest.raises(ValueError):
            css_ordering(DraftClass.from_records(1998, []), UNIT_FACTORS)


@st.composite
def mixed_class(draw):
    n = draw(st.integers(min_value=2, max_value=25))
    cats = draw(
        st.lists(
            st.sampled_from([CssCategory.NA_SKATER, CssCategory.EU_SKATER, CssCategory.UNRANKED]),
            min_size=n,
            max_size=n,
        )
    )
    records = []
    counters = {}
    for sel, cat in enumerate(cats, start=1):
        if cat is CssCategory.UNRANKED:
            rank = None
        else:
            counters[cat] = counters.get(cat, 0) + 1
            rank = counters[cat]
        records.append(make_record(selection=sel, css_category=cat, css_category_rank=rank))
    return make_class(records)


@given(mixed_class())
@settings(max_examples=60, deadline=None)
def test_rank_is_bijection(dc):
    factors = CategoryFactors(na_skater=1.3, na_goalie=5.0, eu_skater=2.1, eu_goalie=9.0)
    out = css_ordering(dc, factors)
    assert sorted(out) == list(range(1, len(dc) + 1))


@given(mixed_class())
@settings(max_examples=60, deadline=None)
def test_within_category_order_preserved(dc):
    factors = CategoryFactors(na_skater=1.3, na_goalie=5.0, eu_skater=2.1, eu_goalie=9.0)
    out = css_ordering(dc, factors)
    for cat in (CssCategory.NA_SKATER, CssCategory.EU_SKATER):
        members = [
            (r.css_category_rank, out[i])
            for i, r in enumerate(dc.records)
            if r.css_category is cat
        ]
        members.sort()
        overall = [rank for _, rank in members]
        assert overall == sorted(overall)


@given(mixed_class())
@settings(max_examples=60, deadline=None)
def test_unranked_ordered_by_selection(dc):
    factors = CategoryFactors(na_skater=1.0, na_goalie=1.0, eu_skater=1.0, eu_goalie=1.0)
    out = css_ordering(dc, factors)
    unranked = [
        (r.selection, out[i])
        for i, r in enumerate(dc.records)
        if r.css_category is CssCategory.UNRANKED
    ]
    unranked.sort()
    ranks = [rank for _, rank in unranked]
    assert ranks == sorted(ranks)
    ranked_ranks = [
        out[i]
        for i, r in enumerate(dc.records)
        if r.css_category is not CssCategory.UNRANKED
    ]
    if ranks and ranked_ranks:
        # every unranked player sits past every listed player
        assert min(ranks) > max(ranked_ranks)
