import numpy as np
import pytest

from draftvalue.config import RunConfig
from draftvalue.core_model import CssCategory, Metric, Position, position_group
from draftvalue.io import write_draft_csv
from draftvalue.pipeline import build_orderings, css_curves, surplus_for_metric
from draftvalue.synth import SynthConfig, generate_synthetic_draft


def csv_bytes(classes, tmp_path, name):
    path = tmp_path / name
    write_draft_csv(classes, path)
    return path.read_bytes()


class TestDeterminism:
    def test_same_seed_identical_bytes(self, tmp_path):
        config = SynthConfig(seed=11, years=2)
        a = csv_bytes(generate_synthetic_draft(config), tmp_path, "a.csv")
        b = csv_bytes(generate_synthetic_draft(config), tmp_path, "b.csv")
        assert a == b

    def test_different_seeds_differ(self, tmp_path):
        a = csv_bytes(generate_synthetic_draft(SynthConfig(seed=1, years=1)), tmp_path, "a.csv")
        b = csv_bytes(generate_synthetic_draft(SynthConfig(seed=2, years=1)), tmp_path, "b.csv")
        assert a != b


class TestStructure:
    def test_classes_well_formed(self):
        classes = generate_synthetic_draft(SynthConfig(seed=5, years=3, picks_per_year=60))
        assert [dc.year for dc in classes] == [1998, 1999, 2000]
        for dc in classes:
            assert [r.selection for r in dc.records] == list(range(1, 61))
            for r in dc.records:
                if r.gp7 == 0:
                    assert r.gvt7 == -30.0 and r.toi7 == 0.0
                if r.position is Position.G:
                    assert r.toi7 == 20.0 * r.gp7
                    assert r.css_category in (CssCategory.NA_GOALIE, CssCategory.EU_GOALIE)

    def test_category_ranks_contiguous(self):
        classes = generate_synthetic_draft(SynthConfig(seed=5, years=1))
        dc = classes[0]
        by_cat = {}
        for r in dc.records:
            by_cat.setdefault(r.css_category, []).append(r.css_category_rank)
        for ranks in by_cat.values():
            assert sorted(ranks) == list(range(1, len(ranks) + 1))

    def test_position_mix_roughly_as_configured(self):
        classes = generate_synthetic_draft(SynthConfig(seed=9, years=5))
        groups = [position_group(r.position) for dc in classes for r in dc.records]
        n = len(groups)
        goalies = sum(g.value == "G" for g in groups) / n
        assert 0.06 <= goalies <= 0.18


class TestCalibration:
    def test_never_played_fraction(self):
        fractions = []
        for seed in range(8):
            classes = generate_synthetic_draft(SynthConfig(seed=seed, years=5))
            values = [r.gp7 == 0 for dc in classes for r in dc.records]
            fractions.append(np.mean(values))
        assert all(abs(f - 0.54) < 0.05 for f in fractions)

    def test_zero_never_played_rate(self):
        classes = generate_synthetic_draft(
            SynthConfig(seed=0, years=1, never_played_rate=0.0)
        )
        assert all(r.gp7 > 0 for r in classes[0].records)


class TestOrderingContract:
    def test_zero_noise_single_category_identical_orderings(self):
        config = SynthConfig(
            seed=3, years=1, css_noise=0.0, team_noise=0.0, goalie_rate=0.0, eu_rate=0.0
        )
        classes = generate_synthetic_draft(config)
        rc = RunConfig()
        _, orderings = build_orderings(classes, rc)
        dc = classes[0]
        assert dc.columns.selection.tolist() == orderings.tolist()
        curves = css_curves(classes, orderings, rc)
        fits = surplus_for_metric(classes, orderings, curves, rc)
        assert list(fits) == list(Metric)
        for curve, est in fits.values():
            assert curve is None
            assert est.per_pick == 0.0 and est.dollars == 0.0

    def test_mean_quality_decreases_down_the_draft(self):
        classes = generate_synthetic_draft(SynthConfig(seed=4, years=5, team_noise=5.0))
        toi_top = np.mean(
            [r.toi7 for dc in classes for r in dc.records if r.selection <= 30]
        )
        toi_bottom = np.mean(
            [r.toi7 for dc in classes for r in dc.records if r.selection > 180]
        )
        assert toi_top > toi_bottom


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"never_played_rate": 1.0},
            {"never_played_rate": -0.1},
            {"css_noise": -1.0},
            {"goalie_rate": 1.5},
            {"goalie_rate": 0.6, "defense_rate": 0.6},
            {"years": 0},
            {"picks_per_year": 1},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SynthConfig(**kwargs)
