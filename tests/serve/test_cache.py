"""PreprocessCache: pipeline fidelity, hit/miss accounting, LRU eviction."""

import threading

import numpy as np
import pytest

from repro.data import SyntheticEMRGenerator, build_dataset
from repro.serve import (PreprocessCache, ServeConfig, ServeMetrics,
                         prepare_admission)

pytestmark = pytest.mark.serve


@pytest.fixture(scope="module")
def admissions():
    return SyntheticEMRGenerator().sample_many(12, np.random.default_rng(9))


@pytest.fixture(scope="module")
def standardizer(admissions):
    _, standardizer = build_dataset(admissions)
    return standardizer


class TestPrepareAdmission:
    def test_matches_the_training_pipeline(self, admissions, standardizer):
        """Serving-side preparation == build_dataset, array for array."""
        cohort, _ = build_dataset(admissions, standardizer=standardizer)
        for i, admission in enumerate(admissions):
            prepared = prepare_admission(admission.values, standardizer)
            np.testing.assert_array_equal(prepared.values, cohort.values[i:i + 1])
            np.testing.assert_array_equal(prepared.mask, cohort.mask[i:i + 1])
            np.testing.assert_array_equal(prepared.deltas,
                                          cohort.deltas[i:i + 1])
            np.testing.assert_array_equal(prepared.ever_observed,
                                          cohort.ever_observed[i:i + 1])

    def test_single_row_and_no_nans(self, admissions, standardizer):
        prepared = prepare_admission(admissions[0].values, standardizer)
        assert len(prepared) == 1
        assert not np.isnan(prepared.values).any()


class TestAccounting:
    def test_hits_and_misses(self, admissions, standardizer):
        cache = PreprocessCache(standardizer)
        cache.get("a", admissions[0].values)
        cache.get("b", admissions[1].values)
        cache.get("a")
        cache.get("a")
        assert (cache.hits, cache.misses) == (2, 2)
        assert cache.hit_rate == 0.5
        assert len(cache) == 2
        assert "a" in cache and "c" not in cache

    def test_hit_returns_the_cached_object(self, admissions, standardizer):
        cache = PreprocessCache(standardizer)
        first = cache.get("a", admissions[0].values)
        assert cache.get("a") is first

    def test_miss_without_raw_values_raises(self, standardizer):
        cache = PreprocessCache(standardizer)
        with pytest.raises(KeyError, match="not cached"):
            cache.get("ghost")

    def test_metrics_sink_sees_every_lookup(self, admissions, standardizer):
        metrics = ServeMetrics("unit")
        cache = PreprocessCache(standardizer, metrics=metrics)
        cache.get("a", admissions[0].values)
        cache.get("a")
        cache.get("a")
        assert metrics.cache_hit_rate == pytest.approx(2 / 3)


class TestEviction:
    def test_lru_order(self, admissions, standardizer):
        cache = PreprocessCache(standardizer, ServeConfig(cache_capacity=2))
        cache.get("a", admissions[0].values)
        cache.get("b", admissions[1].values)
        cache.get("a")  # refresh a; b is now least recently used
        cache.get("c", admissions[2].values)
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_invalidate_and_clear(self, admissions, standardizer):
        cache = PreprocessCache(standardizer)
        cache.get("a", admissions[0].values)
        assert cache.invalidate("a") is True
        assert cache.invalidate("a") is False
        cache.get("a", admissions[0].values)
        cache.clear()
        assert len(cache) == 0

    def test_rejects_zero_capacity(self, standardizer):
        with pytest.raises(ValueError, match="capacity"):
            PreprocessCache(standardizer, ServeConfig(cache_capacity=0))


class TestThreadSafety:
    def test_concurrent_lookups_stay_consistent(self, admissions,
                                                standardizer):
        cache = PreprocessCache(standardizer, ServeConfig(cache_capacity=8))
        lookups_per_thread = 50

        def worker(seed):
            order = np.random.default_rng(seed).integers(
                0, len(admissions), lookups_per_thread)
            for i in order:
                cache.get(int(i), admissions[int(i)].values)

        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cache.hits + cache.misses == 6 * lookups_per_thread
        assert len(cache) <= 8
