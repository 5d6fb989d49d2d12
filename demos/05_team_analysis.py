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

# one table: row 0 covers every pick, rows 1 and 2 the early and late year halves
gains = team_gains(classes, surplus, rc.split_early, rc.split_late)
toi = gains.means[Metric.TOI][0]
ranked = np.argsort(-toi, kind="stable")
print("top and bottom five teams by mean minutes gained per pick:")
for k in [*ranked[:5], *ranked[-5:]]:
    print(f"  {gains.teams[k].decode()}: {toi[k]:+8.1f} minutes over {gains.picks[0, k]} picks")

spread = np.std(toi, ddof=1)
print(f"\ncross-team spread (SD of team means): {spread:.1f} minutes")

print("\nare the team means consistent with chance?")
for metric in Metric:
    sw = normality_check(gains, metric)
    print(f"  {metric.value:>4}: normality W = {sw.statistic:.3f}, p = {sw.p_value:.3f}"
          f"  ({'looks like noise' if sw.p_value > 0.05 else 'non-normal'})")

split = split_half_correlation(gains)
print("\ndoes a team's edge persist from 1998-2000 to 2001-2002?")
for metric, res in split.items():
    print(f"  {metric.value:>4}: r = {res.statistic:+.3f}, p = {res.p_value:.3f}")

flagged = outlier_teams(gains, Metric.TOI)
print(f"\nteams beyond three SDs: {flagged or 'none'}")
