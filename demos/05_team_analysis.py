"""Do some front offices out-draft the central scouting lists?

Computes each team's mean per-pick gain over the scouting-implied
expectation, tests whether the cross-team spread looks like chance
(normality of team means, split-half correlation across year groups),
and flags any team more than three standard deviations from the pack.

Run with:  python3 demos/05_team_analysis.py
"""

import numpy as np

from draftvalue.config import RunConfig
from draftvalue.core_model import Metric
from draftvalue.pipeline import build_orderings, css_curves
from draftvalue.synth import SynthConfig, generate_synthetic_draft
from draftvalue.team_analysis import (
    normality_check,
    outlier_teams,
    split_half_correlation,
    team_gains,
)
from draftvalue.valuation import differential_points

classes = generate_synthetic_draft(SynthConfig(seed=19, years=5))
rc = RunConfig()
_, orderings = build_orderings(classes, rc)
curves = css_curves(classes, orderings, rc)
# each pick's outcome minus the expectation at its scouting rank
_, surplus = differential_points(classes, orderings, curves)

gains = team_gains(classes, surplus)
toi = sorted(gains, key=lambda g: g.mean_gain[Metric.TOI], reverse=True)
print("top and bottom five teams by mean minutes gained per pick:")
for g in toi[:5] + toi[-5:]:
    print(f"  {g.team}: {g.mean_gain[Metric.TOI]:+8.1f} minutes over {g.picks} picks")

spread = np.std([g.mean_gain[Metric.TOI] for g in gains], ddof=1)
print(f"\ncross-team spread (SD of team means): {spread:.1f} minutes")

print("\nare the team means consistent with chance?")
for metric in Metric:
    sw = normality_check(gains, metric)
    print(f"  {metric.value:>4}: normality W = {sw.statistic:.3f}, p = {sw.p_value:.3f}"
          f"  ({'looks like noise' if sw.p_value > 0.05 else 'non-normal'})")

split = split_half_correlation(classes, surplus, rc.split_early, rc.split_late)
print("\ndoes a team's edge persist from 1998-2000 to 2001-2002?")
for metric, res in split.items():
    print(f"  {metric.value:>4}: r = {res.statistic:+.3f}, p = {res.p_value:.3f}")

flagged = outlier_teams(gains, Metric.TOI)
print(f"\nteams beyond three SDs: {flagged or 'none'}")
