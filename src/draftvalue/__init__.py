"""Draft scouting valuation: integrated central-scouting ordering, draft
replay audits, nonparametric expectation curves, scouting surplus in metric
units and dollars, team-level checks, and a monotone draft value pick chart."""

from .cescin import CategoryFactors, css_ordering, estimate_category_factors
from .config import RunConfig, load_config, parse_config_text
from .core_model import (
    CssCategory,
    Draft,
    DraftColumns,
    ImputationConfig,
    Metric,
    Position,
    PositionGroup,
    RecordError,
)
from .draft_audit import AuditReport, Ordering, audit, replay_flags
from .io import DataError, load_draft_csv, write_draft_csv
from .numerics import SmoothCurve, TestResult, antitonic_fit, loess_fit, pearson, shapiro_wilk
from .pipeline import PipelineError, run_pipeline
from .reference_chart import reference_chart
from .synth import SynthConfig, generate_synthetic_draft
from .team_analysis import TeamGains, normality_check, split_half_correlation, team_gains
from .valuation import (
    DollarConstants,
    GainEstimate,
    ValueChart,
    differential_points,
    draft_value_chart,
    expected_curve,
    fit_differential_curve,
)

__version__ = "0.1.0"
