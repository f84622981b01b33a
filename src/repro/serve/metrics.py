"""Serving metrics: request counts, batch shapes, latency, cache hits.

:class:`ServeMetrics` is the inference-side sibling of the training
profiler (:mod:`repro.bench`): a thread-safe accumulator every serving
component reports into — the :class:`~repro.serve.Predictor` records
forward batches, the :class:`~repro.serve.MicroBatcher` records
per-request queue-to-response latencies and coalesced batch sizes, and
the :class:`~repro.serve.PreprocessCache` records hits and misses.  The
payload follows the ``repro.bench`` report conventions:
``as_dict()`` emits a versioned-schema JSON document and
:meth:`ServeMetrics.save` writes ``SERVE_<label>_<stamp>.json`` next to
the profiler's ``BENCH_*`` reports (see docs/SERVING.md).
"""

from __future__ import annotations

import json
import re
import threading
import time
from collections import Counter
from pathlib import Path

from ..nn.backend import xp as np

__all__ = ["ServeMetrics"]


class ServeMetrics:
    """Thread-safe accumulator for one serving session.

    All ``record_*`` methods may be called concurrently from client and
    worker threads; reads take the same lock, so snapshots are
    consistent.
    """

    def __init__(self, label=None):
        self.label = label
        self._lock = threading.Lock()
        self._request_latencies = []
        self._batch_sizes = Counter()
        self._batch_seconds = 0.0
        self._cache_hits = 0
        self._cache_misses = 0
        self._stream_sessions = 0
        self._stream_steps = 0
        self._stream_native_steps = 0
        self._stream_seconds = 0.0
        self._started = time.perf_counter()

    # -- event sinks ----------------------------------------------------
    def record_request(self, seconds):
        """One request completed, ``seconds`` after it was submitted."""
        with self._lock:
            self._request_latencies.append(float(seconds))

    def record_batch(self, size, seconds):
        """One coalesced forward pass of ``size`` admissions ran."""
        with self._lock:
            self._batch_sizes[int(size)] += 1
            self._batch_seconds += float(seconds)

    def record_cache(self, hit):
        """One preprocessing-cache lookup resolved (hit or miss)."""
        with self._lock:
            if hit:
                self._cache_hits += 1
            else:
                self._cache_misses += 1

    def record_stream_session(self):
        """One :class:`~repro.serve.StreamingSession` opened."""
        with self._lock:
            self._stream_sessions += 1

    def record_stream_step(self, seconds, native=False):
        """One streaming step served (``native`` = O(1) state update)."""
        with self._lock:
            self._stream_steps += 1
            if native:
                self._stream_native_steps += 1
            self._stream_seconds += float(seconds)

    # -- pool aggregation ----------------------------------------------
    def snapshot(self):
        """Raw counters as a JSON-able dict (for cross-process merge).

        Replica-pool workers ship this over the response queue at exit;
        the parent folds them in with :meth:`merge_snapshot`, so the
        pool-wide report covers every worker's latencies and batches.
        """
        with self._lock:
            return {
                "request_latencies": list(self._request_latencies),
                "batch_sizes": {str(k): v
                                for k, v in self._batch_sizes.items()},
                "batch_seconds": self._batch_seconds,
                "cache_hits": self._cache_hits,
                "cache_misses": self._cache_misses,
                # Retired with graph capture; perfbench still reads them.
                "capture_hits": 0,
                "capture_fallbacks": 0,
                "stream_sessions": self._stream_sessions,
                "stream_steps": self._stream_steps,
                "stream_native_steps": self._stream_native_steps,
                "stream_seconds": self._stream_seconds,
            }

    def merge_snapshot(self, snapshot):
        """Fold another accumulator's :meth:`snapshot` into this one."""
        with self._lock:
            self._request_latencies.extend(
                float(s) for s in snapshot.get("request_latencies", ()))
            for size, count in snapshot.get("batch_sizes", {}).items():
                self._batch_sizes[int(size)] += int(count)
            self._batch_seconds += float(snapshot.get("batch_seconds", 0.0))
            self._cache_hits += int(snapshot.get("cache_hits", 0))
            self._cache_misses += int(snapshot.get("cache_misses", 0))
            self._stream_sessions += int(snapshot.get("stream_sessions", 0))
            self._stream_steps += int(snapshot.get("stream_steps", 0))
            self._stream_native_steps += int(
                snapshot.get("stream_native_steps", 0))
            self._stream_seconds += float(snapshot.get("stream_seconds", 0.0))
        return self

    def merge(self, other):
        """Fold another :class:`ServeMetrics` instance into this one."""
        return self.merge_snapshot(other.snapshot())

    # -- derived statistics --------------------------------------------
    @property
    def request_count(self):
        with self._lock:
            return len(self._request_latencies)

    @property
    def batch_count(self):
        with self._lock:
            return sum(self._batch_sizes.values())

    def batch_size_histogram(self):
        """``{batch size: count}`` over all coalesced forward passes."""
        with self._lock:
            return dict(sorted(self._batch_sizes.items()))

    def mean_batch_size(self):
        with self._lock:
            total = sum(self._batch_sizes.values())
            if total == 0:
                return 0.0
            return sum(s * c for s, c in self._batch_sizes.items()) / total

    def latency_quantile(self, q):
        """Latency quantile in seconds (``q`` in [0, 100])."""
        with self._lock:
            if not self._request_latencies:
                return 0.0
            return float(np.percentile(self._request_latencies, q))

    @property
    def p50_latency(self):
        return self.latency_quantile(50)

    @property
    def p95_latency(self):
        return self.latency_quantile(95)

    @property
    def p99_latency(self):
        return self.latency_quantile(99)

    @property
    def stream_step_count(self):
        with self._lock:
            return self._stream_steps

    @property
    def cache_hit_rate(self):
        with self._lock:
            total = self._cache_hits + self._cache_misses
            return self._cache_hits / total if total else 0.0

    def throughput(self):
        """Served requests per wall-clock second since construction."""
        elapsed = time.perf_counter() - self._started
        return self.request_count / elapsed if elapsed > 0 else 0.0

    # -- reporting ------------------------------------------------------
    def as_dict(self, extra=None):
        """JSON-able payload (the ``SERVE_*.json`` schema)."""
        with self._lock:
            latencies = list(self._request_latencies)
            histogram = dict(sorted(self._batch_sizes.items()))
            cache_hits, cache_misses = self._cache_hits, self._cache_misses
            batch_seconds = self._batch_seconds
            stream = {
                "sessions": self._stream_sessions,
                "steps": self._stream_steps,
                "native_steps": self._stream_native_steps,
                "step_seconds": self._stream_seconds,
            }
        total_batches = sum(histogram.values())
        payload = {
            "schema": "repro.serve/v3",
            "label": self.label,
            "requests": len(latencies),
            "batches": total_batches,
            "batch_seconds": batch_seconds,
            "batch_size_histogram": {str(k): v for k, v in histogram.items()},
            "mean_batch_size": (
                sum(s * c for s, c in histogram.items()) / total_batches
                if total_batches else 0.0),
            "latency_seconds": {
                "p50": float(np.percentile(latencies, 50)) if latencies else 0.0,
                "p95": float(np.percentile(latencies, 95)) if latencies else 0.0,
                "p99": float(np.percentile(latencies, 99)) if latencies else 0.0,
                "max": float(max(latencies)) if latencies else 0.0,
            },
            "stream": stream,
            "cache": {
                "hits": cache_hits,
                "misses": cache_misses,
                "hit_rate": (cache_hits / (cache_hits + cache_misses)
                             if cache_hits + cache_misses else 0.0),
            },
        }
        if extra:
            payload["extra"] = dict(extra)
        return payload

    def table(self):
        """Human-readable summary (mirrors ``Profiler.table``)."""
        payload = self.as_dict()
        histogram = payload["batch_size_histogram"]
        lines = [
            f"requests        : {payload['requests']}",
            f"batches         : {payload['batches']} "
            f"(mean size {payload['mean_batch_size']:.1f})",
            f"p50 latency     : {payload['latency_seconds']['p50'] * 1e3:.2f} ms",
            f"p95 latency     : {payload['latency_seconds']['p95'] * 1e3:.2f} ms",
            f"cache hit rate  : {payload['cache']['hit_rate'] * 100:.1f}% "
            f"({payload['cache']['hits']} hits / "
            f"{payload['cache']['misses']} misses)",
        ]
        stream = payload["stream"]
        if stream["steps"]:
            lines.append(
                f"stream steps    : {stream['steps']} "
                f"({stream['native_steps']} native) over "
                f"{stream['sessions']} sessions")
        if histogram:
            spread = "  ".join(f"{size}x{count}"
                               for size, count in histogram.items())
            lines.append(f"batch sizes     : {spread}")
        return "\n".join(lines)

    def save(self, directory=".", extra=None, stamp=None):
        """Write ``SERVE_<label>_<stamp>.json``; returns the path.

        Mirrors :func:`repro.bench.report.write_report` — same stamp
        format, same ``extra`` merging, versioned schema field.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        stamp = stamp or time.strftime("%Y%m%d-%H%M%S")
        cleaned = re.sub(r"[^A-Za-z0-9_.-]+", "-",
                         self.label or "run").strip("-") or "run"
        path = directory / f"SERVE_{cleaned}_{stamp}.json"
        payload = self.as_dict(extra=extra)
        payload["created"] = stamp
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path
