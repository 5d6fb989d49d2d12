import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from draftvalue.cescin import CategoryFactors, css_ordering
from draftvalue.core_model import POSITIONS, CssCategory, Draft, Metric, Position
from draftvalue.draft_audit import BAND_EDGE, AuditCell, Ordering, audit, half_sd_thresholds, replay_flags

from conftest import make_class, make_record, random_class

UNIT = CategoryFactors(na_skater=1.0, na_goalie=1.0, eu_skater=1.0, eu_goalie=1.0)


def both_orderings(draft):
    """Each ordering's pooled ranks: the selections and the CSS ranks."""
    return {Ordering.TEAM: draft.columns.selection, Ordering.CSS: css_ordering(draft, UNIT)}


def class_with_gp(gps, position=Position.C):
    records = [
        make_record(
            selection=s,
            css_category_rank=s,
            position=position,
            gp7=gp,
            toi7=float(gp * 15) if gp else None,
            gvt7=float(gp) if gp else None,
        )
        for s, gp in enumerate(gps, start=1)
    ]
    return make_class(records)


def brute_force_flags(dc, order_indices, metric, half_sd):
    """Independent re-derivation of the replay flags from the columns read
    as Python lists: (optimal, nearly optimal) lists in replay order."""
    optimal, nearly_optimal = [], []
    taken = set()
    value = [float(v) for v in dc.columns.metrics[metric].tolist()]
    position = dc.columns.position.tolist()
    for i in order_indices:
        available = [j for j in range(len(position)) if j not in taken and position[j] == position[i]]
        best = max(value[j] for j in available)
        optimal.append(value[i] >= best)
        nearly_optimal.append(value[i] >= best - half_sd)
        taken.add(i)
    return optimal, nearly_optimal


class TestReplayFlags:
    def test_hand_replay(self):
        dc = class_with_gp([100, 200, 50])
        optimal, nearly_optimal = replay_flags(dc, dc.columns.selection, Metric.GP, half_sd=107.5)
        assert optimal.tolist() == [False, True, True]
        assert nearly_optimal.tolist() == [True, True, True]

    def test_last_at_position_is_optimal(self):
        dc = class_with_gp([10, 300, 5])
        optimal, _ = replay_flags(dc, dc.columns.selection, Metric.GP, half_sd=1.0)
        assert optimal[-1]

    def test_all_equal_metric_all_optimal(self):
        dc = class_with_gp([50, 50, 50, 50])
        optimal, _ = replay_flags(dc, dc.columns.selection, Metric.GP, half_sd=1.0)
        assert optimal.all()

    def test_positions_partition_availability(self):
        records = [
            make_record(selection=1, css_category_rank=1, position=Position.C, gp7=10,
                        toi7=100.0, gvt7=1.0),
            make_record(selection=2, css_category_rank=1, position=Position.D, gp7=500,
                        toi7=9000.0, gvt7=40.0),
            make_record(selection=3, css_category_rank=2, position=Position.C, gp7=5,
                        toi7=40.0, gvt7=0.5),
        ]
        dc = make_class(records)
        optimal, _ = replay_flags(dc, dc.columns.selection, Metric.GP, half_sd=1.0)
        # the defenseman's 500 games never compete with the centers
        assert optimal.tolist() == [True, True, True]

    def test_css_ordering_replay(self):
        # css ranks reverse the draft order
        records = [
            make_record(selection=s, css_category_rank=4 - s, gp7=s * 10,
                        toi7=float(s * 100), gvt7=float(s))
            for s in (1, 2, 3)
        ]
        dc = make_class(records)
        ranks = css_ordering(dc, UNIT)
        optimal, _ = replay_flags(dc, ranks, Metric.GP, half_sd=1.0)
        assert dc.columns.selection[np.argsort(ranks)].tolist() == [3, 2, 1]
        assert optimal.tolist() == [True, True, True]

    def test_matches_brute_force(self, rng):
        classes = [random_class(rng, n=int(rng.integers(3, 31))) for _ in range(100)]
        for _ in range(25):
            n = int(rng.integers(3, 31))
            classes += [
                # GP 0-3: ties within and across positions, all six codes
                random_class(rng, n=n, positions=list(Position), gp_max=4),
                random_class(rng, n=n, positions=list(Position)),
                random_class(rng, n=n, positions=[Position.L]),
                # missing slots: the team ranks are not a permutation of 1..n
                random_class(rng, selections=sorted(rng.choice(40, size=n, replace=False) + 1)),
            ]
        codes = [set(dc.columns.position.tolist()) for dc in classes]
        assert len(POSITIONS) in map(len, codes) and 1 in map(len, codes)
        for dc in classes:
            half_sd = float(rng.uniform(0.5, 200.0) if rng.random() < 0.5 else rng.uniform(0.1, 3.0))
            metric = list(Metric)[rng.integers(0, 3)]
            for ranks in (dc.columns.selection, css_ordering(dc, UNIT)):
                mine = replay_flags(dc, ranks, metric, half_sd)
                oracle = brute_force_flags(dc, np.argsort(ranks), metric, half_sd)
                assert tuple(flags.tolist() for flags in mine) == oracle

    def test_a_draft_of_several_classes_replays_each_class_on_its_own(self, rng):
        # tied values across classes, missing slots, and a class of one
        for _ in range(20):
            classes = [
                random_class(rng, n=int(rng.integers(1, 31)), year=1998 + i, positions=list(Position), gp_max=4)
                for i in range(int(rng.integers(2, 5)))
            ]
            classes.append(random_class(rng, year=2010, selections=[3, 7, 8, 20]))
            draft = Draft(classes)
            for metric in Metric:
                half_sd = float(rng.uniform(0.1, 3.0))
                for ranks in (draft.columns.selection, css_ordering(draft, UNIT)):
                    whole = replay_flags(draft, ranks, metric, half_sd)
                    apart = [replay_flags(dc, ranks[lo:hi], metric, half_sd)
                             for dc, lo, hi in zip(draft, draft.bounds, draft.bounds[1:])]
                    for flags, parts in zip(whole, zip(*apart)):
                        assert flags.tolist() == np.concatenate(parts).tolist()

    def test_half_sd_monotonicity(self, rng):
        dc = random_class(rng, n=25)
        _, low = replay_flags(dc, dc.columns.selection, Metric.TOI, half_sd=10.0)
        _, high = replay_flags(dc, dc.columns.selection, Metric.TOI, half_sd=500.0)
        assert not np.any(low & ~high)

    def test_optimal_flags_invariant_under_increasing_transform(self, rng):
        gps = [int(g) for g in rng.integers(0, 300, 12)]
        base = class_with_gp(gps)
        # toi = 15*gp is a strictly increasing transform of gp
        transformed = class_with_gp(gps)
        selections = base.columns.selection  # both classes draft in the same order
        optimal_gp, _ = replay_flags(base, selections, Metric.GP, half_sd=1.0)
        optimal_toi, _ = replay_flags(transformed, selections, Metric.TOI, half_sd=1.0)
        assert optimal_gp.tolist() == optimal_toi.tolist()

    def test_invalid_half_sd(self):
        for half_sd in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                dc = class_with_gp([1, 2])
                replay_flags(dc, dc.columns.selection, Metric.GP, half_sd=half_sd)

    @pytest.mark.parametrize("n", [100, 211])
    def test_ranks_of_another_length_are_rejected(self, n):
        dc = random_class(np.random.default_rng(0), n=210)
        with pytest.raises(ValueError, match=f"^{n} ranks for 210 rows$"):
            replay_flags(dc, np.arange(1, n + 1), Metric.GP, half_sd=1.0)

    def test_optimal_implies_nearly(self, rng):
        for _ in range(20):
            dc = random_class(rng, n=int(rng.integers(3, 31)))
            for metric in Metric:
                half_sd = float(rng.uniform(0.5, 50.0))
                optimal, nearly_optimal = replay_flags(dc, dc.columns.selection, metric, half_sd)
                assert not np.any(optimal & ~nearly_optimal)


class TestAudit:
    def test_perfectly_ordered_draft(self):
        draft = Draft([class_with_gp(list(range(300, 0, -3)))])  # descending metric
        report = audit(draft, both_orderings(draft))
        for band in ("all", "1-3", "4-7"):
            cell = report.cell(Metric.GP, Ordering.TEAM, band)
            assert cell.optimal_pct == 100.0
            assert cell.nearly_optimal_pct == 100.0

    def test_optimal_never_exceeds_nearly(self, rng):
        draft = Draft(random_class(rng, n=120, year=y) for y in (1998, 1999))
        report = audit(draft, both_orderings(draft))
        for cell in report.cells.values():
            assert 0.0 <= cell.optimal_pct <= cell.nearly_optimal_pct <= 100.0

    def test_band_partition(self, rng):
        # each year's replay has its own bands; a short year has no late picks
        draft = Draft([random_class(rng, n=120), random_class(rng, n=50, year=1999)])
        report = audit(draft, both_orderings(draft))
        for metric in Metric:
            for ordering in Ordering:
                total = report.cell(metric, ordering, "all").picks
                early = report.cell(metric, ordering, "1-3").picks
                late = report.cell(metric, ordering, "4-7").picks
                assert early + late == total == 170
                assert early == 90 + 50

    def test_half_sd_pooled_over_years(self, rng):
        classes = Draft(random_class(rng, n=20, year=y) for y in (1998, 1999))
        thresholds = half_sd_thresholds(classes, [Metric.GP])
        pooled = classes.columns.metrics[Metric.GP].tolist()
        assert thresholds[Metric.GP] == pytest.approx(np.std(pooled, ddof=1) / 2)

    def test_report_rows_shape(self, rng):
        draft = Draft([random_class(rng, n=10)])
        rows = audit(draft, both_orderings(draft)).rows()
        assert len(rows) == 3 * 2 * 3  # metric x ordering x band
        assert {"metric", "ordering", "rounds", "picks", "optimal_pct", "nearly_optimal_pct"} == set(
            rows[0]
        )


@st.composite
def classes_and_ranks(draw):
    """1-4 classes, with their replay ranks under two orderings: one a
    permutation of each class's rows, one with ties. Classes may be short
    of ``BAND_EDGE`` or past it, miss slots, share a year label, hold one
    position only, and tie on every metric."""
    classes, ranks = [], {Ordering.TEAM: [], Ordering.CSS: []}
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1 if classes else 2, BAND_EDGE + 20))  # a draft needs 2 rows
        selections = sorted(draw(st.sets(st.integers(1, 210), min_size=n, max_size=n)))
        positions = draw(st.sampled_from([[Position.C], [Position.G], [Position.C, Position.D, Position.G], POSITIONS]))
        gp_max = draw(st.sampled_from([1, 3, 500]))
        year = draw(st.sampled_from([1998, 1999]))  # classes may share a label
        records = []
        for sel in selections:
            position = draw(st.sampled_from(positions))
            gp = draw(st.integers(0, gp_max))
            records.append(make_record(
                year=year,
                selection=sel,
                position=position,
                css_category=CssCategory.NA_GOALIE if position is Position.G else CssCategory.NA_SKATER,
                css_category_rank=sel,
                gp7=gp,
                toi7=float(gp * draw(st.sampled_from([10, 15]))) if gp else None,
                gvt7=float(draw(st.integers(-5, 5))) if gp else None,
            ))
        classes.append(make_class(records))
        ranks[Ordering.TEAM].append(np.array(draw(st.permutations(range(n))), dtype=np.int64))
        ranks[Ordering.CSS].append(np.array(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)), dtype=np.int64))
    return Draft(classes), {o: np.concatenate(r) for o, r in ranks.items()}


@given(classes_and_ranks())
@settings(max_examples=40, deadline=None)
def test_audit_matches_brute_force_per_class(drawn):
    # tied ranks replay in row order: the oracle replays by a stable sort
    draft, ranks = drawn
    if any(np.std(draft.columns.metrics[m]) == 0 for m in Metric):
        with pytest.raises(ValueError, match="half_sd must be positive"):
            audit(draft, ranks)
        return
    report = audit(draft, ranks)
    bounds = draft.bounds
    for metric in Metric:
        half_sd = report.half_sd[metric]
        for ordering, pooled in ranks.items():
            counts = {"1-3": [0, 0, 0], "4-7": [0, 0, 0]}
            for dc, lo, hi in zip(draft, bounds, bounds[1:]):
                order = np.argsort(pooled[lo:hi], kind="stable")
                optimal, nearly_optimal = brute_force_flags(dc, order, metric, half_sd)
                mine = replay_flags(dc, pooled[lo:hi], metric, half_sd)
                assert tuple(flags.tolist() for flags in mine) == (optimal, nearly_optimal)
                for pick, flags in enumerate(zip(optimal, nearly_optimal)):
                    band = counts["1-3" if pick < BAND_EDGE else "4-7"]
                    band[0] += 1
                    band[1] += flags[0]
                    band[2] += flags[1]
            counts["all"] = [a + b for a, b in zip(counts["1-3"], counts["4-7"])]
            for band, (n, optimal, nearly_optimal) in counts.items():
                want = AuditCell(n, 100.0 * optimal / n if n else 0.0, 100.0 * nearly_optimal / n if n else 0.0)
                assert report.cell(metric, ordering, band) == want
