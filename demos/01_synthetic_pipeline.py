"""End-to-end walkthrough on synthetic data.

Generates five seasons of synthetic draft classes, integrates the four
central-scouting lists into one ordering, and runs every analysis stage:
the pick-replay audit, the surplus (gain) estimates with their dollar
conversions, and the pick value chart.

Run with:  python3 demos/01_synthetic_pipeline.py
"""

import dataclasses

import numpy as np

from draftvalue.config import RunConfig
from draftvalue.core_model import Metric, summarize_metric
from draftvalue.draft_audit import Ordering
from draftvalue.pipeline import Analysis, css_curves, surplus_for_metric
from draftvalue.synth import SynthConfig, generate_synthetic_draft

config = SynthConfig(seed=7, years=5, team_noise=8.0, css_noise=35.0)
classes = generate_synthetic_draft(config)
print(f"generated {len(classes)} draft classes, "
      f"{len(classes.columns.selection)} players total")

never_played = np.mean(classes.columns.metrics[Metric.GP] == 0)
print(f"fraction who never played an NHL game: {never_played:.2f}")

for metric in Metric:
    stats = summarize_metric(classes, metric)
    print(f"{metric.value:>4}: median {stats.median:8.1f}  mean {stats.mean:8.1f}  "
          f"max {stats.max:8.1f}")

rc = RunConfig()
analysis = Analysis(classes, rc)
factors, orderings = analysis.cescin
print("\ncategory scaling factors:",
      {k: round(v, 3) for k, v in dataclasses.asdict(factors).items()})

print("\npick-replay audit (percent of picks flagged, all rounds):")
report = analysis.audit
for metric in Metric:
    for ordering in Ordering:
        cell = report.cell(metric, ordering, "all")
        print(f"  {metric.value:>4} / {ordering.value:<4}  "
              f"optimal {cell.optimal_pct:5.1f}%   nearly {cell.nearly_optimal_pct:5.1f}%")

curves = css_curves(classes, orderings, rc)
print("\nper-pick gain of team ordering over the integrated scouting ordering:")
for metric, (_, est) in surplus_for_metric(classes, orderings, curves, rc).items():
    print(f"  {metric.value:>4}: gain {est.per_pick:8.3f} per pick  "
          f"{est.per_draft:8.3f} per draft  ~${est.dollars:12,.0f} per pick")

chart = analysis.chart
print("\npick value chart (first pick = 1000):")
for sel in (1, 2, 10, 30, 90, 150, 210):
    print(f"  pick {sel:>3}: {chart.value(sel):>4}")
