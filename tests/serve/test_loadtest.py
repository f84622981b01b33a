"""Loadtest harness: report schema, floor checking, the CI smoke run.

``test_loadtest_smoke_meets_committed_floor`` is the pool lane's
regression gate: a small 2-worker loadtest must satisfy
``benchmarks/results/pool_floor.json`` (latency ceilings, a throughput
floor, ≥2 observed worker pids, zero client errors).  The floor file was
set 15-25× looser than the measured seed numbers, so it catches
deadlocks and order-of-magnitude regressions, not scheduler noise.
"""

import json
from pathlib import Path

import pytest

from repro.serve import ServeConfig, check_floor, run_loadtest

pytestmark = [pytest.mark.serve, pytest.mark.pool]

FLOOR_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / \
    "results" / "pool_floor.json"

SMOKE_CONFIG = ServeConfig(workers=2, max_batch_size=8, queue_depth=32,
                           cache_capacity=64)


@pytest.fixture(scope="module")
def smoke_report(trained_run, tmp_path_factory):
    _, run_dir = trained_run
    out_dir = tmp_path_factory.mktemp("loadtest")
    return run_loadtest(run_dir, config=SMOKE_CONFIG, num_requests=24,
                        num_streams=3, stream_steps=3, concurrency=8,
                        max_seconds=90.0, seed=0, out_dir=out_dir,
                        label="smoke")


class TestReportSchema:
    def test_headline_fields(self, smoke_report):
        assert smoke_report["schema"] == "repro.loadtest/v1"
        assert smoke_report["requests"] == 24
        assert smoke_report["stream_sessions"] == 3
        assert smoke_report["stream_steps"] == 9
        assert smoke_report["duration_seconds"] > 0
        assert smoke_report["throughput_rps"] > 0
        assert smoke_report["errors"] == []
        assert smoke_report["deadline_misses"] == 0

    def test_latency_percentiles_are_ordered(self, smoke_report):
        latency = smoke_report["latency_ms"]
        assert set(latency) == {"p50", "p95", "p99", "max"}
        assert 0 < latency["p50"] <= latency["p95"] <= latency["p99"] \
            <= latency["max"]

    def test_real_multiprocess_fanout(self, smoke_report):
        workers = smoke_report["workers"]
        assert workers["configured"] == 2
        assert len(workers["pids"]) == 2
        assert set(workers["observed_pids"]) == set(workers["pids"])

    def test_report_written_as_serve_json(self, smoke_report):
        path = Path(smoke_report["report_path"])
        assert path.name.startswith("SERVE_smoke_")
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro.serve/v3"
        assert payload["extra"]["loadtest"]["schema"] == "repro.loadtest/v1"
        # Worker-side batch accounting merged into the parent report.
        assert payload["batches"] >= 1


class TestConfigResolution:
    """run_loadtest must honor the run dir's persisted ``serve`` block
    (regression: config=None silently fell back to ServeConfig())."""

    def _capture_pool_config(self, monkeypatch):
        import repro.serve.loadtest as loadtest_module
        captured = {}

        class _StopBeforeStart(Exception):
            pass

        def _fake_pool(run_dir, checkpoint="best", config=None, *,
                       metrics=None):
            captured["config"] = config
            raise _StopBeforeStart

        monkeypatch.setattr(loadtest_module, "ReplicaPool", _fake_pool)
        return captured, _StopBeforeStart

    @pytest.fixture
    def persisted_run_dir(self, tmp_path):
        run_dir = tmp_path / "persisted-run"
        run_dir.mkdir()
        (run_dir / "config.json").write_text(json.dumps({
            "batch_size": 16,
            "serve": {"workers": 3, "queue_depth": 7},
        }))
        return run_dir

    def test_defaults_come_from_persisted_serve_block(
            self, persisted_run_dir, monkeypatch):
        captured, stop = self._capture_pool_config(monkeypatch)
        with pytest.raises(stop):
            run_loadtest(persisted_run_dir, num_requests=1, num_streams=1,
                         stream_steps=1)
        config = captured["config"]
        assert config.workers == 3
        assert config.queue_depth == 7
        assert config.batch_size == 16

    def test_explicit_config_wins_outright(self, persisted_run_dir,
                                           monkeypatch):
        captured, stop = self._capture_pool_config(monkeypatch)
        explicit = ServeConfig(workers=4)
        with pytest.raises(stop):
            run_loadtest(persisted_run_dir, config=explicit, num_requests=1,
                         num_streams=1, stream_steps=1)
        assert captured["config"] is explicit


class TestFloor:
    def test_committed_floor_file_is_well_formed(self):
        floor = json.loads(FLOOR_PATH.read_text())
        assert floor["schema"] == "repro.loadtest-floor/v1"
        assert floor["min_observed_workers"] == 2
        assert floor["max_errors"] == 0

    def test_loadtest_smoke_meets_committed_floor(self, smoke_report):
        violations = check_floor(smoke_report, FLOOR_PATH)
        assert violations == [], "\n".join(violations)

    def test_check_floor_reports_every_violation(self, tmp_path):
        floor_path = tmp_path / "floor.json"
        floor_path.write_text(json.dumps({
            "max_p50_ms": 1.0, "max_p95_ms": 2.0, "max_p99_ms": 3.0,
            "min_throughput_rps": 1e6, "min_observed_workers": 4,
            "max_errors": 0,
        }))
        report = {
            "latency_ms": {"p50": 10.0, "p95": 20.0, "p99": 30.0,
                           "max": 40.0},
            "throughput_rps": 5.0,
            "workers": {"observed_pids": [1, 2]},
            "errors": ["RuntimeError('boom')"],
        }
        violations = check_floor(report, floor_path)
        assert len(violations) == 6
        assert any("p99" in v for v in violations)
        assert any("throughput" in v for v in violations)
        assert any("worker pid" in v for v in violations)
        assert any("boom" in v for v in violations)

    def test_missing_keys_are_not_checked(self, tmp_path):
        floor_path = tmp_path / "floor.json"
        floor_path.write_text(json.dumps({"max_p50_ms": 1e9}))
        report = {"latency_ms": {"p50": 1.0, "p95": 1.0, "p99": 1.0,
                                 "max": 1.0},
                  "throughput_rps": 0.0,
                  "workers": {"observed_pids": []}, "errors": ["x"]}
        assert check_floor(report, floor_path) == []
