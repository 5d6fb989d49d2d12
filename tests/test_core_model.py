import copy
import pickle
from dataclasses import fields, replace

import numpy as np
import pytest

from draftvalue.core_model import (
    GROUP_OF_POSITION,
    GROUPS,
    POSITIONS,
    CssCategory,
    Draft,
    DraftColumns,
    ImputationConfig,
    Metric,
    Position,
    PositionGroup,
    RecordError,
    draft_classes,
    first_invalid_row,
    impute,
)

from draftvalue.io import load_draft_csv, write_draft_csv
from draftvalue.synth import SynthConfig, generate_synthetic_draft

from conftest import arrays, make_class, make_record, one_class, random_class, raw_rows


def imputed(config=ImputationConfig(), **fields):
    """(toi7, gvt7) of one valid row, given as ``make_record`` fields, after
    imputation."""
    rows = raw_rows([make_record(**fields)])
    assert first_invalid_row(rows) is None
    toi7, gvt7 = impute(rows, config)
    return float(toi7[0]), float(gvt7[0])


def rejected(**fields):
    """The error ``first_invalid_row`` reports for one row."""
    invalid = first_invalid_row(raw_rows([make_record(**fields)]))
    assert invalid is not None and invalid[0] == 0
    return invalid[1]


class TestNormalize:
    def test_goalie_minutes_imputed(self):
        goalie = dict(position=Position.G, css_category=CssCategory.NA_GOALIE)
        assert imputed(**goalie, gp7=50, toi7=None, gvt7=2.0) == (1000.0, 2.0)

    def test_never_played_skater(self):
        assert imputed(gp7=0, toi7=None, gvt7=None) == (0.0, -30.0)

    def test_no_imputation_when_played(self):
        assert imputed(gp7=553, toi7=13880.0, gvt7=114.0) == (13880.0, 114.0)

    def test_idempotent(self, rng):
        for _ in range(50):
            gp = int(rng.integers(0, 400))
            pos = [Position.C, Position.D, Position.G][rng.integers(0, 3)]
            fields = dict(
                position=pos,
                css_category=CssCategory.NA_GOALIE if pos is Position.G else CssCategory.NA_SKATER,
                gp7=gp,
                toi7=float(gp * 15) if gp else None,
                gvt7=float(rng.normal()) if gp else None,
            )
            toi7, gvt7 = once = imputed(**fields)
            assert imputed(**{**fields, "toi7": toi7, "gvt7": gvt7}) == once
            if gp == 0:
                assert once == (0.0, -30.0)
            if pos is Position.G:
                assert toi7 - 20 * gp == 0.0

    def test_in_place_imputation_matches_the_where_formula_bit_for_bit(self, rng):
        # goalies and skaters, some never played; given, blank and negative-zero outcomes
        records = [
            make_record(
                selection=i + 1,
                position=Position.G if i % 3 == 0 else Position.D,
                css_category=CssCategory.NA_GOALIE if i % 3 == 0 else CssCategory.NA_SKATER,
                gp7=0 if i % 4 == 0 else int(rng.integers(1, 500)),
                toi7=None if i % 5 == 0 else (-0.0 if i % 7 == 0 else float(rng.uniform(0, 9000))),
                gvt7=None if i % 6 == 0 else float(rng.normal(0, 20)),
            )
            for i in range(60)
        ]
        rows = raw_rows(records)
        config = ImputationConfig(never_played_gvt=-31.7, goalie_minutes_per_game=19.3)
        never_played, goalie = rows.gp7 == 0, rows.position == POSITIONS.index(Position.G)
        want_toi = np.where(goalie, config.goalie_minutes_per_game * rows.gp7, np.where(never_played, 0.0, rows.toi7))
        want_gvt = np.where(never_played, config.never_played_gvt, rows.gvt7)
        toi7, gvt7 = impute(rows, config)
        assert toi7 is rows.toi7 and gvt7 is rows.gvt7  # written in place
        assert toi7.tobytes() == want_toi.tobytes() and gvt7.tobytes() == want_gvt.tobytes()
        toi7, gvt7 = impute(rows, config)
        assert toi7.tobytes() == want_toi.tobytes() and gvt7.tobytes() == want_gvt.tobytes()

    def test_custom_imputation_constants(self):
        cfg = ImputationConfig(never_played_gvt=-25.0, goalie_minutes_per_game=18.0)
        goalie = dict(position=Position.G, css_category=CssCategory.NA_GOALIE)
        assert imputed(cfg, **goalie, gp7=10, toi7=None, gvt7=1.0) == (180.0, 1.0)
        assert imputed(cfg, gp7=0, toi7=None, gvt7=None) == (0.0, -25.0)

    def test_goalie_with_skater_category_rejected(self):
        error = rejected(position=Position.G, css_category=CssCategory.NA_SKATER)
        assert isinstance(error, RecordError) and error.field == "css_category"

    def test_negative_metric_rejected(self):
        assert rejected(toi7=-1.0).field == "toi7"

    def test_rank_absent_iff_unranked(self):
        assert rejected(css_category=CssCategory.UNRANKED, css_category_rank=5).field == (
            "css_category_rank"
        )
        assert rejected(css_category_rank=None).field == "css_category_rank"


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
    # the group index of each position, which valuation.group_rows reads
    assert GROUP_OF_POSITION[POSITIONS.index(pos)] == GROUPS.index(group)


class TestDraftClass:
    def test_duplicate_selection_rejected(self):
        dc = make_class([make_record(selection=1), make_record(selection=2)])
        with pytest.raises(ValueError, match="strictly increasing"):
            one_class(1998, replace(dc.columns, selection=np.array([1, 1])))

    def test_missing_slot_tolerated(self):
        records = [make_record(selection=s, css_category_rank=s) for s in (1, 2, 4)]
        dc = make_class(records)
        assert len(dc.columns.selection) == 3

    def test_unsorted_selections_rejected(self):
        dc = make_class([make_record(selection=1), make_record(selection=2)])
        with pytest.raises(ValueError, match="strictly increasing"):
            one_class(1998, replace(dc.columns, selection=np.array([2, 1])))

    def test_more_than_210_rejected(self):
        records = [make_record(selection=s, css_category_rank=s) for s in range(1, 212)]
        with pytest.raises(ValueError, match="more than 210"):
            make_class(records)

    def test_unequal_columns_rejected(self):
        columns = make_class([make_record(selection=s) for s in range(1, 11)]).columns
        short_toi = {**columns.metrics, Metric.TOI: columns.metrics[Metric.TOI][:-5]}
        with pytest.raises(ValueError, match="column toi has 5 rows, selection has 10"):
            replace(columns, metrics=short_toi)
        with pytest.raises(ValueError, match="column team has 9 rows"):
            replace(columns, team=columns.team[1:])

    @pytest.mark.parametrize("column", ["team", "name"])
    @pytest.mark.parametrize("dtype", [str, object])
    def test_text_columns_hold_bytes(self, column, dtype):
        columns = make_class([make_record(selection=s) for s in range(1, 4)]).columns
        text = np.array([t.decode() for t in getattr(columns, column).tolist()], dtype)
        with pytest.raises(ValueError, match=f"^column {column} must hold UTF-8 bytes, got dtype"):
            replace(columns, **{column: text})

    def test_columns_hold_the_rows(self):
        # rows that imputation leaves as they are
        records = [
            make_record(selection=1, team="BOS", name="Jääskeläinen, 李", gp7=0, toi7=0.0, gvt7=-30.0),
            make_record(selection=3, css_category=CssCategory.UNRANKED, css_category_rank=None),
            make_record(
                selection=7, position=Position.G, css_category=CssCategory.EU_GOALIE, toi7=2000.0
            ),
        ]
        columns = make_class(records).columns
        assert [name.decode() for name in columns.name.tolist()] == [r.name for r in records]
        assert columns.category_rank.tolist() == [1, 0, 1]
        assert columns.metrics[Metric.TOI].tolist() == [0.0, 1500.0, 2000.0]

    def test_a_class_with_no_rows_is_rejected(self):
        draft = generate_synthetic_draft(SynthConfig(seed=0, years=2))
        with pytest.raises(ValueError, match="^year 2005: empty draft class$"):
            Draft([draft[0], one_class(2005, draft.columns.rows(0, 0)), draft[1]])
        # the table itself, with an empty class between its two
        with pytest.raises(ValueError, match="^year 2005: empty draft class$"):
            Draft.over(draft.columns, (1998, 2005, 1999), (0, 210, 210, 420))


def resized(columns: DraftColumns, selection) -> DraftColumns:
    """``columns`` repeated or cut to the rows of ``selection``, with those
    selections."""
    n = len(selection)
    metrics = {m: np.resize(column, n) for m, column in columns.metrics.items()}
    between = fields(columns)[1:-1]  # the fields after selection and before metrics
    other = {f.name: np.resize(getattr(columns, f.name), n) for f in between}
    return replace(columns, **other, selection=np.array(selection), metrics=metrics)


class TestDraft:
    def test_columns_join_the_classes_year_by_year(self, rng):
        classes = [random_class(rng, n=5, year=1998), random_class(rng, n=3, year=1999)]
        draft = Draft(classes)
        assert len(draft) == 2 and draft.bounds == (0, 5, 8) and draft.years == (1998, 1999)
        assert draft.columns.selection.tolist() == [1, 2, 3, 4, 5, 1, 2, 3]
        gp = np.concatenate([dc.columns.metrics[Metric.GP] for dc in classes])
        assert np.array_equal(draft.columns.metrics[Metric.GP], gp) and gp.dtype == np.int16
        # each class is built when read, with the year and columns of the class it joined
        for i, want in enumerate(classes):
            for got in (draft[i], draft[i - len(classes)], list(draft)[i]):
                assert got.years == want.years
                have = arrays(got.columns)
                for name, column in arrays(want.columns).items():
                    assert np.array_equal(have[name], column) and have[name].dtype == column.dtype, name
        with pytest.raises(IndexError):
            draft[2]

    def test_a_draft_copies_and_pickles(self, rng):
        draft = Draft([random_class(rng, n=5, year=1998), random_class(rng, n=3, year=1999)])
        for copied in (copy.copy(draft), copy.deepcopy(draft), pickle.loads(pickle.dumps(draft))):
            assert type(copied) is Draft and copied.years == draft.years and copied.bounds == draft.bounds
            table = arrays(copied.columns)
            for name, column in arrays(draft.columns).items():
                assert np.array_equal(table[name], column), name
            assert np.array_equal(copied[1].columns.selection, draft[1].columns.selection)

    def test_copied_and_pickled_columns_stay_read_only(self, rng):
        draft = Draft([random_class(rng, n=5, year=1998), random_class(rng, n=3, year=1999)])
        for copy_of in (copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))):
            for columns in (copy_of(draft).columns, copy_of(draft.columns)):
                assert type(columns) is DraftColumns
                for name, column in arrays(columns).items():
                    assert not column.flags.writeable, name
                    with pytest.raises(ValueError, match="read-only"):
                        column[0] = column[1]

    def test_an_empty_draft_is_rejected(self):
        with pytest.raises(ValueError, match="^a draft needs at least one row$"):
            draft_classes(raw_rows([]), ImputationConfig())
        with pytest.raises(ValueError, match="^a draft needs at least one class$"):
            Draft([])

    def test_a_class_view_shares_the_draft_columns(self, rng):
        # a class is a one-year draft over a read-only view of the table
        draft = Draft([random_class(rng, n=5, year=1998), random_class(rng, n=3, year=1999)])
        table = arrays(draft.columns)
        for i, (year, lo, hi) in enumerate(zip(draft.years, draft.bounds, draft.bounds[1:])):
            dc = draft[i]
            assert type(dc) is Draft and len(dc) == 1
            assert dc.years == (year,) and dc.bounds == (0, hi - lo)
            assert len(dc.records) == hi - lo  # the row count the benchmark tracer reads
            for name, column in arrays(dc.columns).items():
                assert np.shares_memory(column, table[name]) and np.array_equal(column, table[name][lo:hi]), name
                assert not column.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    column[0] = column[0]

    @pytest.mark.parametrize(
        "selections, rule",
        [
            ([1, 2, 2], "selections must be strictly increasing"),
            ([1, 3, 2], "selections must be strictly increasing"),
            (list(range(1, 212)), "more than 210 selections"),
            # both rules broken: the order is checked first
            (list(range(1, 211)) + [210], "selections must be strictly increasing"),
        ],
    )
    def test_draft_classes_check_the_class_rules(self, selections, rule):
        # 1999 is the first class to break a rule; 2000 breaks one too, and
        # each class may start below the last selection of the one before
        years = {1998: [1, 2, 210], 1999: selections, 2000: [5, 2]}
        records = [make_record(year=y, selection=s, css_category_rank=s) for y, sels in years.items() for s in sels]
        with pytest.raises(ValueError) as table:
            draft_classes(raw_rows(records), ImputationConfig())
        assert str(table.value) == f"year 1999: {rule}"
        with pytest.raises(ValueError) as one:
            one_class(1999, resized(make_class([make_record()]).columns, selections))
        assert str(one.value) == str(table.value)

    @pytest.mark.parametrize("selection", [211, 0])
    def test_draft_classes_reject_a_selection_outside_the_top_210(self, selection):
        years = {1998: [1, 2, 3], 1999: sorted([2, selection]), 2000: [4, 5]}
        records = [make_record(year=y, selection=s, css_category_rank=1) for y, sels in years.items() for s in sels]
        with pytest.raises(ValueError, match=f"^year 1999: selection {selection} outside 1..210$"):
            draft_classes(raw_rows(records), ImputationConfig())

    @pytest.mark.parametrize("source", ["loader", "synth"])
    def test_built_classes_are_views_of_the_draft_columns(self, source, tmp_path):
        draft = generate_synthetic_draft(SynthConfig(seed=3, years=3, picks_per_year=40))
        if source == "loader":
            write_draft_csv(draft, tmp_path / "draft.csv")
            draft = load_draft_csv(tmp_path / "draft.csv")
        assert draft.bounds == (0, 40, 80, 120)
        joined = Draft(draft)  # the same classes, joined by copying
        assert joined.bounds == draft.bounds
        for name in ("selection", "position", "team", "name", "category", "category_rank"):
            column = getattr(draft.columns, name)
            assert np.array_equal(getattr(joined.columns, name), column)
            assert not np.shares_memory(getattr(joined.columns, name), column)
            for dc, lo, hi in zip(draft, draft.bounds, draft.bounds[1:]):
                assert np.shares_memory(getattr(dc.columns, name), column)
                assert np.array_equal(getattr(dc.columns, name), column[lo:hi])
        for metric, column in draft.columns.metrics.items():
            assert np.array_equal(joined.columns.metrics[metric], column)
            assert all(np.shares_memory(dc.columns.metrics[metric], column) for dc in draft)

    def test_aligned_checks_the_row_count(self, rng):
        draft = Draft([random_class(rng, n=5), random_class(rng, n=3, year=1999)])
        ranks = np.arange(8)
        assert draft.aligned(ranks) is ranks
        with pytest.raises(ValueError, match="^7 ranks for 8 rows$"):
            draft.aligned(ranks[1:])
