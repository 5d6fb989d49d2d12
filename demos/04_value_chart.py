"""Building a pick value chart and comparing it to the published one.

The chart takes the expected seven-year minutes by selection number (the
smoothed curve of minutes played against the team's draft order), forces
it to be non-increasing, and rescales so the first overall pick is worth
1000 points.  The published chart built from the 1998-2002 NHL drafts
ships with the package for reference.

Run with:  python3 demos/04_value_chart.py
"""

from draftvalue.core_model import Metric
from draftvalue.reference_chart import reference_chart
from draftvalue.synth import SynthConfig, generate_synthetic_draft
from draftvalue.valuation import draft_value_chart, expected_curve

draft = generate_synthetic_draft(SynthConfig(seed=11, years=5))
selections = draft.columns.selection  # the team order's ranks
synthetic = draft_value_chart(expected_curve(draft, selections, [Metric.TOI])[Metric.TOI])
published = reference_chart()

print("pick value: synthetic data vs the published 1998-2002 chart")
print(f"{'pick':>5} {'synthetic':>10} {'published':>10}")
for sel in (1, 2, 5, 10, 30, 60, 90, 120, 150, 180, 210):
    print(f"{sel:>5} {synthetic.value(sel):>10} {published.value(sel):>10}")

# both satisfy the chart contract: 210 rows, top pick 1000, non-increasing
for name, chart in (("synthetic", synthetic), ("published", published)):
    vals = chart.values
    assert len(vals) == 210 and vals[0] == 1000
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    print(f"{name}: 210 rows, top 1000, non-increasing — ok")

# a classic use: is trading pick 10 for picks 30 and 60 a fair swap?
give = published.value(10)
get = published.value(30) + published.value(60)
print(f"\npick 10 is worth {give}; picks 30 + 60 are worth {get} "
      f"({'good' if get >= give else 'bad'} trade for the team giving up pick 10)")
