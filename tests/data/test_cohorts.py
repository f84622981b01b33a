"""Tests of the cohort profiles (PhysioNet2012 / MIMIC-III stand-ins)."""

import numpy as np
import pytest

from repro.data import (MIMIC_III, PHYSIONET2012, PROFILES, load_cohort,
                        scale_factor)


class TestScaleFactor:
    def test_known_scales(self):
        assert scale_factor("paper") == 1.0
        assert scale_factor("small") < scale_factor("medium") < 1.0

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert scale_factor() == scale_factor("small")

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "medium")
        assert scale_factor() == scale_factor("medium")

    def test_unknown_scale_raises(self):
        with pytest.raises(ValueError):
            scale_factor("galactic")


class TestProfiles:
    def test_both_cohorts_registered(self):
        assert set(PROFILES) == {"physionet2012", "mimic3"}

    def test_paper_sizes(self):
        assert PHYSIONET2012.paper_admissions == 12000
        assert MIMIC_III.paper_admissions == 21139

    def test_admission_count_scales(self):
        small = PHYSIONET2012.admissions(scale="small",
                                         rng=np.random.default_rng(0))
        assert len(small) == max(120, int(round(12000 * scale_factor("small"))))


class TestLoadCohort:
    def test_returns_three_splits(self):
        splits = load_cohort("physionet2012", scale="small")
        assert len(splits.train) > len(splits.validation)
        assert len(splits.validation) == len(splits.test)

    def test_name_aliases(self):
        for alias in ("mimic3", "MIMIC-III", "mimic"):
            assert load_cohort(alias, scale="small") is not None

    def test_unknown_cohort_raises(self):
        with pytest.raises(ValueError):
            load_cohort("eicu")

    def test_deterministic_given_seed(self):
        a = load_cohort("physionet2012", scale="small", seed=3)
        b = load_cohort("physionet2012", scale="small", seed=3)
        assert np.array_equal(a.train.values, b.train.values)

    def test_different_seeds_differ(self):
        a = load_cohort("physionet2012", scale="small", seed=3)
        b = load_cohort("physionet2012", scale="small", seed=4)
        assert not np.array_equal(a.train.values, b.train.values)

    def test_cohorts_differ(self):
        phys = load_cohort("physionet2012", scale="small")
        mimic = load_cohort("mimic3", scale="small")
        assert len(mimic.train) > len(phys.train)


class TestSplitFractions:
    def test_custom_fractions(self):
        splits = load_cohort("physionet2012", scale="small",
                             fractions=(0.5, 0.1, 0.4))
        total = (len(splits.train) + len(splits.validation)
                 + len(splits.test))
        assert abs(len(splits.train) / total - 0.5) < 0.02
        assert abs(len(splits.test) / total - 0.4) < 0.02
