"""Acceptance gate: one test per standing criterion, each printing a
PASS/FAIL line. Historical-data checks run only when a real draft CSV is
supplied via DRAFTVAL_HISTORICAL_CSV."""

import os
import time

import numpy as np
import pytest

from draftvalue.cescin import CategoryFactors, css_ordering
from draftvalue.config import RunConfig
from draftvalue.core_model import Draft, Metric
from draftvalue.draft_audit import Ordering, audit, replay_flags
from draftvalue.io import load_draft_csv
from draftvalue.numerics import SmoothCurve, antitonic_fit, loess_fit, shapiro_wilk
from draftvalue.pipeline import Analysis, build_orderings, css_curves, surplus_for_metric
from draftvalue.reference_chart import reference_chart
from draftvalue.synth import SynthConfig, generate_synthetic_draft
from draftvalue.team_analysis import normality_check, split_half_correlation, team_gains
from draftvalue.valuation import differential_points, draft_value_chart, expected_curve, to_dollars

from conftest import make_class, make_record, random_class
from test_draft_audit import both_orderings, brute_force_flags
from test_numerics import brute_force_antitonic

UNIT = CategoryFactors(na_skater=1.0, na_goalie=1.0, eu_skater=1.0, eu_goalie=1.0)
FLAT = SmoothCurve(grid=np.array([1.0, 210.0]), values=np.zeros(2))


def report(n, label, ok):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"acceptance criterion {n} failed: {label}"


def test_01_antitonic_oracle_equivalence():
    rng = np.random.default_rng(20250823)
    start = time.time()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        y = rng.normal(size=n) * rng.uniform(0.5, 20)
        w = rng.uniform(0.1, 5.0, n)
        fit = antitonic_fit(np.arange(n), y, w).values
        oracle = brute_force_antitonic(y, w)
        worst = max(worst, float(np.max(np.abs(fit - oracle))))
    elapsed = time.time() - start
    report(1, f"antitonic vs brute force, max err {worst:.2e}, {elapsed:.1f}s",
           worst <= 1e-9 and elapsed < 10.0)


def test_02_loess_exactness_and_additivity():
    rng = np.random.default_rng(7)
    worst_line = 0.0
    grid = np.linspace(-2, 2, 30)
    for _ in range(20):
        a, b = rng.normal(size=2) * 4
        x = rng.uniform(-2, 2, 50)
        for span in (0.3, 0.5, 0.75, 1.0):
            curve = loess_fit(x, a * x + b, grid=grid, span=span)
            worst_line = max(worst_line, float(np.max(np.abs(curve.values - (a * grid + b)))))
    x = rng.uniform(0, 1, 50)
    y1, y2 = rng.normal(size=50), rng.normal(size=50)
    f1 = loess_fit(x, y1, grid=np.linspace(0, 1, 20)).values
    f2 = loess_fit(x, y2, grid=np.linspace(0, 1, 20)).values
    fsum = loess_fit(x, y1 + y2, grid=np.linspace(0, 1, 20)).values
    worst_add = float(np.max(np.abs(fsum - (f1 + f2))))
    report(2, f"loess line err {worst_line:.2e}, additivity err {worst_add:.2e}",
           worst_line <= 1e-9 and worst_add <= 1e-9)


def test_03_shapiro_wilk():
    w3 = shapiro_wilk([-1.0, 0.0, 1.0]).statistic
    rng = np.random.default_rng(99)
    x = rng.normal(size=40) * 3 + 1
    affine_err = abs(shapiro_wilk(2.5 * x + 7).statistic - shapiro_wilk(x).statistic)
    # reference value recorded from an independent implementation beforehand
    sample = np.random.default_rng(42).normal(size=30)
    ref_err = abs(shapiro_wilk(sample).statistic - 0.9651416940110119)
    report(3, f"W(n=3 symmetric)={w3:.12f}, affine err {affine_err:.2e}, ref err {ref_err:.2e}",
           abs(w3 - 1.0) <= 1e-9 and affine_err <= 1e-9 and ref_err <= 1e-3)


def test_04_reference_chart_matches_published_table():
    chart = reference_chart()  # constructor enforces the chart invariants
    spots = {1: 1000, 30: 238, 101: 89, 210: 25}
    ok = all(chart.value(sel) == v for sel, v in spots.items()) and len(chart.values) == 210
    report(4, f"published chart spot rows {spots}", ok)


def test_05_audit_oracle():
    rng = np.random.default_rng(55)
    mismatches = 0
    for _ in range(100):
        dc = random_class(rng, n=int(rng.integers(3, 31)))
        metric = list(Metric)[rng.integers(0, 3)]
        half_sd = float(rng.uniform(1.0, 300.0))
        for ranks in (dc.columns.selection, css_ordering(dc, UNIT)):
            mine = replay_flags(dc, ranks, metric, half_sd)
            oracle = brute_force_flags(dc, np.argsort(ranks), metric, half_sd)
            mismatches += tuple(flags.tolist() for flags in mine) != oracle
    classes = Draft(random_class(rng, n=120, year=y) for y in (1998, 1999))
    rep = audit(classes, both_orderings(classes))
    cells_ok = all(c.optimal_pct <= c.nearly_optimal_pct for c in rep.cells.values())
    report(5, f"replay flags vs brute force, {mismatches} mismatches", mismatches == 0 and cells_ok)


def test_06_surplus_sign_property():
    start = time.time()
    rc = RunConfig()
    positive = 0
    for seed in range(100):
        classes = generate_synthetic_draft(
            SynthConfig(seed=seed, years=2, team_noise=8.0, css_noise=35.0)
        )
        _, orderings = build_orderings(classes, rc)
        curves = css_curves(classes, orderings, rc)
        gains = [est.per_pick for _, est in surplus_for_metric(classes, orderings, curves, rc).values()]
        positive += all(g > 0 for g in gains)
    config0 = SynthConfig(seed=0, years=1, css_noise=0.0, team_noise=0.0,
                          goalie_rate=0.0, eu_rate=0.0)
    classes0 = generate_synthetic_draft(config0)
    _, orderings0 = build_orderings(classes0, rc)
    curves0 = css_curves(classes0, orderings0, rc)
    zero_ok = all(
        est.per_pick == 0.0 for _, est in surplus_for_metric(classes0, orderings0, curves0, rc).values()
    )
    elapsed = time.time() - start
    report(6, f"gain > 0 in {positive}/100 seeds, identical orderings exact 0: {zero_ok}, {elapsed:.0f}s",
           positive >= 95 and zero_ok and elapsed < 60.0)


def test_07_rank_differential_anchors():
    # the 6th pick was the 13th-ranked player; picks 7-13 were ranked 6-12
    ranks = [1, 2, 3, 4, 5, 13, 6, 7, 8, 9, 10, 11, 12]
    dc = make_class([make_record(selection=s, css_category_rank=k) for s, k in enumerate(ranks, 1)])
    fata = int(differential_points(Draft([dc]), css_ordering(dc, UNIT), {Metric.GP: FLAT})[0][5])
    sums_ok = True
    for seed in range(10):
        classes = generate_synthetic_draft(SynthConfig(seed=seed, years=1))
        _, orderings = build_orderings(classes, RunConfig())
        total = differential_points(classes, orderings, {Metric.GP: FLAT})[0].sum()
        sums_ok = sums_ok and total == 0
    report(7, f"anchor (6,13) -> {fata}, sum of differentials zero: {sums_ok}",
           fata == -7 and sums_ok)


def test_08_dollar_conversion():
    gp = to_dollars(1.0, Metric.GP)
    gvt = to_dollars(3.0, Metric.GVT)
    toi = to_dollars(20.0, Metric.TOI)
    ok = gp == 29300.0 and gvt == 1_000_000.0 and toi == 29300.0
    report(8, f"GP $%.0f, GVT $%.0f, TOI $%.0f" % (gp, gvt, toi), ok)


def test_09_chart_on_noise_free_decreasing_toi():
    records = [
        make_record(
            selection=s, css_category_rank=s,
            gp7=max(1, int((2110.0 - 10.0 * s) // 20)),
            toi7=2110.0 - 10.0 * s, gvt7=0.0,
        )
        for s in range(1, 211)
    ]
    dc = make_class(records)
    first = draft_value_chart(expected_curve(Draft([dc]), dc.columns.selection, [Metric.TOI])[Metric.TOI])
    second = draft_value_chart(expected_curve(Draft([dc]), dc.columns.selection, [Metric.TOI])[Metric.TOI])
    ok = (
        first.value(1) == 1000
        and all(b <= a for a, b in zip(first.values, first.values[1:]))
        and first.values == second.values
    )
    report(9, f"noise-free chart: top {first.value(1)}, bottom {first.value(210)}, deterministic", ok)


HISTORICAL = os.environ.get("DRAFTVAL_HISTORICAL_CSV")


@pytest.mark.skipif(not HISTORICAL, reason="historical draft CSV not supplied")
def test_10_historical_reproduction():
    classes = load_draft_csv(HISTORICAL)
    rc = RunConfig()
    gp = classes.columns.metrics[Metric.GP]
    assert np.median(gp) == 0
    assert abs(np.mean(gp) - 69) <= 1
    assert np.max(gp) == 553

    analysis = Analysis(classes, rc)
    orderings = analysis.ranks(Ordering.CSS)
    rep = analysis.audit
    expected_table = {
        (Metric.TOI, Ordering.CSS): (14, 19),
        (Metric.TOI, Ordering.TEAM): (20, 32),
        (Metric.GP, Ordering.CSS): (4, 17),
        (Metric.GP, Ordering.TEAM): (11, 30),
        (Metric.GVT, Ordering.CSS): (4, 10),
        (Metric.GVT, Ordering.TEAM): (10, 14),
    }
    for (metric, ordering), (opt, nearly) in expected_table.items():
        cell = rep.cell(metric, ordering, "all")
        assert abs(cell.optimal_pct - opt) <= 1.0
        assert abs(cell.nearly_optimal_pct - nearly) <= 1.0

    deltas, _ = differential_points(classes, orderings, {Metric.GP: FLAT})
    pos = 100.0 * np.mean(deltas > 0)
    neg = 100.0 * np.mean(deltas < 0)
    zero = 100.0 * np.mean(deltas == 0)
    assert abs(pos - 56) <= 1 and abs(neg - 43) <= 1 and abs(zero - 1) <= 1

    curves = css_curves(classes, orderings, rc)
    _, surplus = differential_points(classes, orderings, curves)
    gains = team_gains(classes, surplus, rc.split_early, rc.split_late)
    for metric in Metric:
        assert normality_check(gains, metric).p_value > 0.1
    split = split_half_correlation(gains)
    for res in split.values():
        assert 0.0 <= res.statistic <= 0.4
    report(10, "historical reproduction", True)
