"""Replaying a draft pick by pick.

Each pick is compared against every still-available player at the same
position.  A pick is "optimal" if nobody available went on to a better
seven-year career by the chosen metric, and "nearly optimal" if it came
within half a standard deviation of the best.  The replay runs under two
orderings: the order teams actually picked, and the order implied by the
integrated central-scouting ranks.

Run with:  python3 demos/03_draft_audit.py
"""

from draftvalue.config import RunConfig
from draftvalue.core_model import Metric
from draftvalue.draft_audit import half_sd_thresholds, replay_flags
from draftvalue.pipeline import Analysis
from draftvalue.synth import SynthConfig, generate_synthetic_draft

classes = generate_synthetic_draft(SynthConfig(seed=3, years=5))

# a small hand inspection: first ten picks of the first class, by games played
dc = classes[0]
half_sd = half_sd_thresholds(classes, [Metric.GP])[Metric.GP]
# the team ordering ranks each player by his actual selection
optimal, nearly_optimal = replay_flags(dc, dc.columns.selection, Metric.GP, half_sd=half_sd)
print(f"first ten picks of {dc.years[0]}, games-played metric "
      f"(half-SD threshold {half_sd:.1f}):")
for i in range(10):
    tag = "optimal" if optimal[i] else ("nearly" if nearly_optimal[i] else "-")
    print(f"  pick {i + 1:>3} (selection {dc.columns.selection[i]:>3}): {tag}")

# the full table: metric x ordering x round band
report = Analysis(classes, RunConfig()).audit
print("\npercent of picks flagged:")
print(f"{'metric':>6} {'order':>6} {'rounds':>7} {'optimal':>8} {'nearly':>8}")
for row in report.rows():
    print(f"{row['metric']:>6} {row['ordering']:>6} {row['rounds']:>7} "
          f"{row['optimal_pct']:8.1f} {row['nearly_optimal_pct']:8.1f}")
