"""Preprocessing cache: memoized raw-admission -> model-ready pipeline.

Serving requests arrive as *raw* admission records — a (T, C) array of
measurements with NaN for missing entries, exactly what the cohort
loaders produce before preprocessing.  Turning one into model input
replays the :mod:`repro.data.preprocess` pipeline (range cleaning,
train-split standardization, mean/LOCF imputation, GRU-D deltas), which
costs more than a small model forward.  Readmissions, repeated scoring
of open stays, and retry traffic hit the same admissions over and over,
so :class:`PreprocessCache` memoizes the pipeline output keyed by
admission id, with LRU eviction and hit/miss accounting reported through
:class:`~repro.serve.ServeMetrics`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..nn.backend import xp as np

from ..data.dataset import EMRDataset
from ..data.preprocess import clean_values, impute, observation_deltas

__all__ = ["PreprocessCache", "prepare_admission"]


def prepare_admission(raw_values, standardizer):
    """Run the full preprocessing pipeline on one raw admission.

    Parameters
    ----------
    raw_values:
        Array (T, C) of raw measurements, NaN where unobserved.
    standardizer:
        The *training-split* :class:`~repro.data.preprocess.Standardizer`
        (persisted as ``run_dir/standardizer.npz`` by CLI training runs).

    Returns a single-row model-ready :class:`EMRDataset` — the same
    arrays :func:`repro.data.dataset.build_dataset` would produce for
    this admission inside a cohort (labels are placeholders; serving
    predicts them).
    """
    raw = clean_values(np.asarray(raw_values, dtype=float)[None, ...])
    mask = ~np.isnan(raw)
    values = impute(standardizer.transform(raw), mask)
    return EMRDataset(
        values=values,
        mask=mask,
        ever_observed=mask.any(axis=1),
        deltas=observation_deltas(mask),
        mortality=np.zeros(1),
        long_stay=np.zeros(1),
    )


class PreprocessCache:
    """Thread-safe LRU memoizer over :func:`prepare_admission`.

    Parameters
    ----------
    standardizer:
        Fitted training-split standardizer used for every preparation.
    config:
        A :class:`~repro.serve.ServeConfig`; ``cache_capacity`` bounds
        the number of cached admissions — the least recently used entry
        is evicted beyond it.
    metrics:
        Optional :class:`~repro.serve.ServeMetrics`; every lookup
        records a cache hit or miss.
    """

    def __init__(self, standardizer, config=None, *, metrics=None):
        from .config import resolve_config
        self.config = resolve_config(config, owner="PreprocessCache")
        if self.config.cache_capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.standardizer = standardizer
        self.capacity = self.config.cache_capacity
        self.metrics = metrics
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._entries = OrderedDict()

    def get(self, admission_id, raw_values=None):
        """Model-ready single-row dataset for an admission.

        On a hit, ``raw_values`` is not touched; on a miss it is
        required, prepared, cached, and returned.  The key is the
        caller's admission identity (any hashable) — the cache trusts it
        and does not fingerprint the raw array.
        """
        with self._lock:
            cached = self._entries.get(admission_id)
            if cached is not None:
                self._entries.move_to_end(admission_id)
                self.hits += 1
        if cached is not None:
            if self.metrics is not None:
                self.metrics.record_cache(hit=True)
            return cached
        if raw_values is None:
            raise KeyError(f"admission {admission_id!r} not cached and no "
                           "raw_values supplied")
        prepared = prepare_admission(raw_values, self.standardizer)
        with self._lock:
            self.misses += 1
            self._entries[admission_id] = prepared
            self._entries.move_to_end(admission_id)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        if self.metrics is not None:
            self.metrics.record_cache(hit=False)
        return prepared

    def invalidate(self, admission_id):
        """Drop one admission (e.g. new measurements arrived)."""
        with self._lock:
            return self._entries.pop(admission_id, None) is not None

    def clear(self):
        with self._lock:
            self._entries.clear()

    @property
    def hit_rate(self):
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def __contains__(self, admission_id):
        with self._lock:
            return admission_id in self._entries
