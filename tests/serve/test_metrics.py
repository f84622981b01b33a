"""ServeMetrics: accounting, derived statistics, and the report schema."""

import json
import threading

import pytest

from repro.serve import ServeMetrics

pytestmark = pytest.mark.serve


class TestAccounting:
    def test_counts_and_histogram(self):
        metrics = ServeMetrics("unit")
        for size in (4, 4, 8, 1):
            metrics.record_batch(size, 0.01)
        for latency in (0.001, 0.002, 0.003):
            metrics.record_request(latency)
        assert metrics.batch_count == 4
        assert metrics.request_count == 3
        assert metrics.batch_size_histogram() == {1: 1, 4: 2, 8: 1}
        assert metrics.mean_batch_size() == pytest.approx(17 / 4)

    def test_latency_quantiles(self):
        metrics = ServeMetrics()
        for ms in range(1, 101):
            metrics.record_request(ms / 1000.0)
        assert metrics.p50_latency == pytest.approx(0.0505, abs=1e-3)
        assert metrics.p95_latency == pytest.approx(0.09505, abs=1e-3)
        assert metrics.latency_quantile(100) == pytest.approx(0.1)

    def test_cache_hit_rate(self):
        metrics = ServeMetrics()
        assert metrics.cache_hit_rate == 0.0
        metrics.record_cache(hit=True)
        metrics.record_cache(hit=True)
        metrics.record_cache(hit=False)
        assert metrics.cache_hit_rate == pytest.approx(2 / 3)

    def test_empty_metrics_are_all_zero(self):
        metrics = ServeMetrics()
        assert metrics.request_count == 0
        assert metrics.batch_count == 0
        assert metrics.mean_batch_size() == 0.0
        assert metrics.p50_latency == 0.0


class TestThreadSafety:
    def test_concurrent_recording_loses_nothing(self):
        metrics = ServeMetrics()
        per_thread = 200

        def worker():
            for _ in range(per_thread):
                metrics.record_request(0.001)
                metrics.record_batch(2, 0.001)
                metrics.record_cache(hit=True)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert metrics.request_count == 8 * per_thread
        assert metrics.batch_count == 8 * per_thread
        assert metrics.cache_hit_rate == 1.0


class TestReporting:
    def _populated(self):
        metrics = ServeMetrics("demo run")
        metrics.record_batch(4, 0.02)
        metrics.record_batch(4, 0.02)
        metrics.record_request(0.005)
        metrics.record_request(0.015)
        metrics.record_cache(hit=True)
        metrics.record_cache(hit=False)
        return metrics

    def test_as_dict_schema(self):
        payload = self._populated().as_dict(extra={"clients": 2})
        assert payload["schema"] == "repro.serve/v3"
        assert payload["requests"] == 2
        assert payload["batches"] == 2
        assert payload["batch_size_histogram"] == {"4": 2}
        assert payload["mean_batch_size"] == 4.0
        assert set(payload["latency_seconds"]) == {"p50", "p95", "p99", "max"}
        assert payload["latency_seconds"]["max"] == pytest.approx(0.015)
        assert payload["cache"] == {"hits": 1, "misses": 1, "hit_rate": 0.5}
        assert "capture" not in payload
        assert payload["stream"] == {"sessions": 0, "steps": 0,
                                     "native_steps": 0, "step_seconds": 0.0}
        assert payload["extra"] == {"clients": 2}

    def test_table_mentions_the_headline_numbers(self):
        table = self._populated().table()
        assert "requests        : 2" in table
        assert "cache hit rate  : 50.0%" in table
        assert "4x2" in table

    def test_save_writes_versioned_json(self, tmp_path):
        path = self._populated().save(tmp_path, extra={"note": "x"},
                                      stamp="20260806-120000")
        assert path.name == "SERVE_demo-run_20260806-120000.json"
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro.serve/v3"
        assert payload["created"] == "20260806-120000"
        assert payload["extra"] == {"note": "x"}

    def test_save_defaults_label(self, tmp_path):
        path = ServeMetrics().save(tmp_path, stamp="s")
        assert path.name == "SERVE_run_s.json"


class TestPercentiles:
    def test_known_sequence_quantiles(self):
        metrics = ServeMetrics()
        for ms in range(1, 101):  # 1..100 ms
            metrics.record_request(ms / 1000.0)
        # numpy linear interpolation on 100 points.
        assert metrics.p50_latency == pytest.approx(0.0505)
        assert metrics.p95_latency == pytest.approx(0.09505)
        assert metrics.p99_latency == pytest.approx(0.09901)
        payload = metrics.as_dict()
        assert payload["latency_seconds"]["p99"] == \
            pytest.approx(metrics.p99_latency)

    def test_single_sample_is_every_quantile(self):
        metrics = ServeMetrics()
        metrics.record_request(0.042)
        for q in (0, 50, 95, 99, 100):
            assert metrics.latency_quantile(q) == pytest.approx(0.042)


class TestStreamCounters:
    def test_stream_accounting(self):
        metrics = ServeMetrics()
        metrics.record_stream_session()
        metrics.record_stream_step(0.001, native=True)
        metrics.record_stream_step(0.002, native=True)
        metrics.record_stream_step(0.003, native=False)
        assert metrics.stream_step_count == 3
        payload = metrics.as_dict()
        assert payload["stream"]["sessions"] == 1
        assert payload["stream"]["steps"] == 3
        assert payload["stream"]["native_steps"] == 2
        assert payload["stream"]["step_seconds"] == pytest.approx(0.006)
        assert "stream steps    : 3 (2 native) over 1 sessions" \
            in metrics.table()


class TestMerge:
    def _worker(self, latencies, batches=((4, 0.01),), streams=0):
        metrics = ServeMetrics()
        for latency in latencies:
            metrics.record_request(latency)
        for size, seconds in batches:
            metrics.record_batch(size, seconds)
        for _ in range(streams):
            metrics.record_stream_step(0.001, native=True)
        return metrics

    def test_merge_snapshot_combines_counters(self):
        parent = self._worker([0.001, 0.002])
        child = self._worker([0.003, 0.004], batches=((4, 0.01), (8, 0.02)),
                             streams=2)
        parent.merge_snapshot(child.snapshot())
        assert parent.request_count == 4
        assert parent.batch_size_histogram() == {4: 2, 8: 1}
        assert parent.stream_step_count == 2
        assert parent.latency_quantile(100) == pytest.approx(0.004)

    def test_snapshot_round_trips_through_json(self):
        child = self._worker([0.005], streams=1)
        child.record_cache(hit=True)
        snapshot = json.loads(json.dumps(child.snapshot()))
        assert snapshot["capture_hits"] == snapshot["capture_fallbacks"] == 0
        parent = ServeMetrics()
        parent.merge_snapshot(snapshot)
        assert parent.as_dict() == child.as_dict()

    def test_merge_across_pool_workers_matches_single_accumulator(self):
        workers = [self._worker([i / 1000.0 for i in range(1, 11)],
                                batches=((k + 1, 0.01),), streams=k)
                   for k in range(3)]
        merged = ServeMetrics()
        for worker in workers:
            merged.merge(worker)
        flat = ServeMetrics()
        for worker in workers:
            for latency in worker.snapshot()["request_latencies"]:
                flat.record_request(latency)
        assert merged.request_count == flat.request_count == 30
        assert merged.p95_latency == pytest.approx(flat.p95_latency)
        assert merged.batch_size_histogram() == {1: 1, 2: 1, 3: 1}
