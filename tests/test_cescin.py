from dataclasses import replace
from fractions import Fraction
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from draftvalue.cescin import (
    CategoryFactors,
    css_ordering,
    estimate_category_factors,
)
from draftvalue.core_model import CATEGORIES, CssCategory, Draft, Position, RecordError
from draftvalue.synth import SynthConfig, generate_synthetic_draft

from conftest import make_class, make_record, one_class

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
        factors = estimate_category_factors(Draft([dc]))
        assert factors.na_skater == pytest.approx(2.0, abs=1e-12)

    def test_identity(self):
        dc = class_from_pairs([(1, 1), (2, 2)])
        assert estimate_category_factors(Draft([dc])).na_skater == pytest.approx(1.0)

    def test_through_origin_slope(self):
        dc = class_from_pairs([(1, 3), (2, 5)])
        assert estimate_category_factors(Draft([dc])).na_skater == pytest.approx(2.6)

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
            estimate_category_factors(Draft([make_class(records)]))

    def test_int16_ranks_whose_products_pass_int16(self):
        # 250 listed ranks over two classes: r @ r is 5,239,625, which an
        # int16 product would wrap
        pairs = {1998: [(rank, rank) for rank in range(1, 211)], 1999: [(rank, rank - 210) for rank in range(211, 251)]}
        records = [
            make_record(year=year, selection=sel, css_category_rank=rank)
            for year, year_pairs in pairs.items()
            for rank, sel in year_pairs
        ]
        draft = Draft([make_class([r for r in records if r.year == year]) for year in pairs])
        assert draft.columns.category_rank.dtype == np.int16
        every = [pair for year_pairs in pairs.values() for pair in year_pairs]
        want = sum(rank * sel for rank, sel in every) / sum(rank * rank for rank, _ in every)
        assert estimate_category_factors(draft).na_skater == want

    @pytest.mark.parametrize("rank", [2**32, 3_100_000_000])
    def test_a_rank_whose_products_pass_int64(self, rank):
        # the first NA skater of the seed-0 five-year draft ranked ``rank``:
        # r @ r passes 2**63, past which an int64 dot product wraps
        draft = generate_synthetic_draft(SynthConfig(seed=0, years=5))
        c = draft.columns
        listed = c.category == CATEGORIES.index(CssCategory.NA_SKATER)
        ranks = c.category_rank.astype(np.int64)
        ranks[np.argmax(listed)] = rank
        big = Draft.over(replace(c, category_rank=ranks), draft.years, draft.bounds)
        r, s = ranks[listed].tolist(), c.selection[listed].tolist()
        want = Fraction(sum(map(mul, r, s)), sum(map(mul, r, r)))
        assert estimate_category_factors(big).na_skater == pytest.approx(float(want), rel=1e-12, abs=0)

    def test_override_skips_estimation(self):
        dc = class_from_pairs([(1, 2), (2, 4)])
        factors = estimate_category_factors(Draft([dc]), overrides={"na_skater": 1.5})
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
        with pytest.raises(RecordError, match="css_category_rank: must be >= 1"):
            make_class([make_record(css_category_rank=0)])
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
        by_sel = dict(zip(dc.columns.selection.tolist(), out.tolist()))
        assert by_sel[5] < by_sel[9]

    def test_empty_class_rejected(self):
        c = class_from_pairs([(1, 1)]).columns
        no_rows = replace(
            c, selection=c.selection[:0], position=c.position[:0], team=c.team[:0],
            name=c.name[:0], category=c.category[:0], category_rank=c.category_rank[:0],
            metrics={m: column[:0] for m, column in c.metrics.items()},
        )
        with pytest.raises(ValueError):
            css_ordering(one_class(1998, no_rows), UNIT_FACTORS)


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
    assert sorted(out) == list(range(1, len(dc.columns.selection) + 1))


@given(mixed_class())
@settings(max_examples=60, deadline=None)
def test_within_category_order_preserved(dc):
    factors = CategoryFactors(na_skater=1.3, na_goalie=5.0, eu_skater=2.1, eu_goalie=9.0)
    out = css_ordering(dc, factors)
    c = dc.columns
    for cat in (CssCategory.NA_SKATER, CssCategory.EU_SKATER):
        listed = c.category == CATEGORIES.index(cat)
        members = sorted(zip(c.category_rank[listed].tolist(), out[listed].tolist()))
        overall = [rank for _, rank in members]
        assert overall == sorted(overall)


@given(mixed_class())
@settings(max_examples=60, deadline=None)
def test_unranked_ordered_by_selection(dc):
    factors = CategoryFactors(na_skater=1.0, na_goalie=1.0, eu_skater=1.0, eu_goalie=1.0)
    out = css_ordering(dc, factors)
    c = dc.columns
    unlisted = c.category == CATEGORIES.index(CssCategory.UNRANKED)
    unranked = sorted(zip(c.selection[unlisted].tolist(), out[unlisted].tolist()))
    ranks = [rank for _, rank in unranked]
    assert ranks == sorted(ranks)
    ranked_ranks = out[~unlisted].tolist()
    if ranks and ranked_ranks:
        # every unranked player sits past every listed player
        assert min(ranks) > max(ranked_ranks)


GOALIE_CATEGORIES = (CssCategory.NA_GOALIE, CssCategory.EU_GOALIE)


@st.composite
def class_and_factors(draw):
    """Any valid class over all five categories, some of it or all of it
    unlisted, with category ranks that repeat and factors whose products tie."""
    n = draw(st.integers(min_value=1, max_value=30))
    selections = sorted(draw(st.sets(st.integers(1, 210), min_size=n, max_size=n)))
    unlisted = draw(st.booleans())
    categories = st.just(CssCategory.UNRANKED) if unlisted else st.sampled_from(CssCategory)
    records = []
    for sel in selections:
        cat = draw(categories)
        goalie = cat in GOALIE_CATEGORIES or (cat is CssCategory.UNRANKED and draw(st.booleans()))
        records.append(make_record(
            selection=sel,
            position=Position.G if goalie else draw(st.sampled_from([Position.C, Position.D])),
            css_category=cat,
            css_category_rank=None if cat is CssCategory.UNRANKED else draw(st.integers(1, 6)),
        ))
    factor = st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])
    factors = CategoryFactors(na_skater=draw(factor), na_goalie=draw(factor), eu_skater=draw(factor),
                              eu_goalie=draw(factor))
    return make_class(records), factors


@given(class_and_factors())
@settings(max_examples=150, deadline=None)
def test_css_ordering_matches_a_sorted_reference(case):
    # listed players by value, unlisted after them, ties to the earlier selection
    dc, factors = case
    categories = [CATEGORIES[k] for k in dc.columns.category.tolist()]
    category_ranks, selections = dc.columns.category_rank.tolist(), dc.columns.selection.tolist()

    def key(i):
        unlisted = categories[i] is CssCategory.UNRANKED
        value = 0 if unlisted else category_ranks[i] * factors.for_category(categories[i])
        return (unlisted, value, selections[i])

    want = [0] * len(dc.columns.selection)
    for rank, i in enumerate(sorted(range(len(dc.columns.selection)), key=key), start=1):
        want[i] = rank
    assert css_ordering(dc, factors).tolist() == want


@given(st.lists(class_and_factors(), min_size=2, max_size=4))
@settings(max_examples=60, deadline=None)
def test_css_ordering_of_a_draft_joins_the_orderings_of_its_classes(cases):
    factors = cases[0][1]
    draft = Draft(one_class(1998 + i, dc.columns) for i, (dc, _) in enumerate(cases))
    got = css_ordering(draft, factors)
    assert got.tolist() == np.concatenate([css_ordering(dc, factors) for dc, _ in cases]).tolist()
    assert not got.flags.writeable
