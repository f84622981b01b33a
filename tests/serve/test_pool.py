"""ReplicaPool: multi-process correctness, backpressure, deadlines.

The pool's bar is the same bit-identity bar as every other serving
surface: probabilities coming back from a forked worker equal a local
padded forward over the same rows, and sticky streaming steps equal the
full-prefix forward.  On top of that sit the operational guarantees —
real fan-out (≥2 pids answering), bounded in-flight requests, deadline
misses that free their slot, and a clean stop that fails leftovers.
"""

import asyncio
import json
import os
import queue as queue_module
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.baselines.spec import ModelSpec
from repro.metrics.probability import sigmoid_probs
from repro.serve import (Predictor, ReplicaPool, ServeConfig,
                         ServeDeadlineError, ServeMetrics,
                         ServeOverloadError, ServeRequestError,
                         ServeWorkerError)
from repro.serve.pool import (_EXIT, _READY, _STOP_COLLECTOR, _shard_for,
                              _worker_main)

pytestmark = [pytest.mark.serve, pytest.mark.pool]

POOL_CONFIG = ServeConfig(workers=2, max_batch_size=8, queue_depth=16,
                          cache_capacity=64)


@pytest.fixture(scope="module")
def running_pool(trained_run):
    _, run_dir = trained_run
    pool = ReplicaPool(run_dir, config=POOL_CONFIG,
                       metrics=ServeMetrics(label="pool-test"))
    with pool:
        yield pool


@pytest.fixture(scope="module")
def local_predictor(trained_run):
    """In-process reference the workers must match bit for bit."""
    _, run_dir = trained_run
    return Predictor.load(run_dir, persist=False)


class TestPoolCorrectness:
    def test_predicts_match_local_padded_forward(self, running_pool,
                                                 local_predictor,
                                                 serve_splits):
        for i in range(6):
            row = serve_splits.test.subset([i])
            probs = running_pool.predict_proba(row, timeout=30)
            expected = sigmoid_probs(local_predictor.predict_logits(
                row, pad_to=POOL_CONFIG.max_batch_size))
            assert np.array_equal(probs, expected), f"row {i}"

    def test_multi_row_request(self, running_pool, local_predictor,
                               serve_splits):
        rows = serve_splits.test.subset([0, 1, 2])
        probs = running_pool.predict_proba(rows, timeout=30)
        expected = sigmoid_probs(local_predictor.predict_logits(
            rows, pad_to=POOL_CONFIG.max_batch_size))
        assert probs.shape == (3,)
        assert np.array_equal(probs, expected)

    def test_oversized_request_is_rejected(self, running_pool,
                                           serve_splits):
        too_many = [i % len(serve_splits.test)
                    for i in range(POOL_CONFIG.max_batch_size + 1)]
        with pytest.raises(ValueError, match="max_batch_size"):
            running_pool.submit(serve_splits.test.subset(too_many))

    def test_fanout_reaches_both_workers(self, running_pool, serve_splits):
        futures = [running_pool.submit(serve_splits.test.subset([i % 4]))
                   for i in range(12)]
        for future in futures:
            future.result(timeout=30)
        assert len(running_pool.worker_pids) == 2
        assert running_pool.served_pids == set(running_pool.worker_pids)

    def test_streaming_steps_match_full_prefix(self, running_pool,
                                               local_predictor,
                                               serve_splits):
        row = serve_splits.test.subset([0])
        for t in range(1, 4):
            probs = running_pool.step(
                "pool-test-admission", row.values[:, t - 1],
                mask_t=row.mask[:, t - 1], deltas_t=row.deltas[:, t - 1],
                timeout=30)
            expected = sigmoid_probs(local_predictor.predict_logits(
                row.truncate(t)))
            assert np.array_equal(probs, expected), f"prefix {t}"

    def test_worker_error_propagates_with_details(self, running_pool):
        from repro.data import NUM_FEATURES
        bad = np.full((1, NUM_FEATURES), np.nan)
        with pytest.raises(ServeWorkerError, match="NaN"):
            running_pool.step("nan-admission", bad, timeout=30)

    def test_sticky_sharding_is_process_stable(self):
        for admission_id in ("a", "b", 17, ("x", 3)):
            index = _shard_for(admission_id, 4)
            assert index == _shard_for(admission_id, 4)
            assert 0 <= index < 4

    def test_concurrent_overflowing_predicts_all_resolve(self, running_pool,
                                                         serve_splits):
        # Pairs of 5-row predicts sum past max_batch_size=8; the
        # non-fitting one must lead its own batch, not crash the worker
        # (regression: it was mis-dispatched as a streaming step).
        rows = serve_splits.test.subset([0, 1, 2, 3, 4])
        futures = [running_pool.submit(rows) for _ in range(6)]
        for future in futures:
            assert future.result(timeout=30).shape == (5,)


class TestWorkerCoalescing:
    """``_worker_main`` run in-process over plain queues.

    Pre-filling the request queue before the worker loop starts makes
    the coalescing edge cases (overflow predicts, interleaved steps,
    the sentinel arriving mid-coalesce) deterministic — no forked
    processes, no timing races.
    """

    def _run_worker(self, run_dir, config, messages):
        requests, responses = queue_module.Queue(), queue_module.Queue()
        for message in messages:
            requests.put(message)
        _worker_main(0, str(run_dir), "best", config.to_dict(),
                     requests, responses)
        results = []
        while True:
            try:
                results.append(responses.get_nowait())
            except queue_module.Empty:
                return results

    def test_overflow_predict_leads_the_next_batch(self, trained_run,
                                                   local_predictor,
                                                   serve_splits):
        _, run_dir = trained_run
        config = POOL_CONFIG.replace(workers=1, max_batch_size=4)
        rows = serve_splits.test.subset([0, 1, 2])
        # 3 + 3 rows > max_batch_size=4: the second predict cannot
        # coalesce into the first batch and must be served as its own.
        results = self._run_worker(run_dir, config, [
            ("predict", 1, rows), ("predict", 2, rows), None])
        ready, first, second, exited = results
        assert ready[0] == _READY
        assert not str(ready[3]).startswith("error:")
        assert exited[0] == _EXIT
        expected = sigmoid_probs(local_predictor.predict_logits(
            rows, pad_to=config.max_batch_size))
        for rid, response in ((1, first), (2, second)):
            got_rid, ok, payload, _pid = response
            assert got_rid == rid and ok is True
            assert np.array_equal(payload, expected)

    def test_step_drained_mid_coalesce_is_served_as_step(self, trained_run,
                                                         local_predictor,
                                                         serve_splits):
        _, run_dir = trained_run
        config = POOL_CONFIG.replace(workers=1)
        rows = serve_splits.test.subset([1, 2])
        row = serve_splits.test.subset([0])
        results = self._run_worker(run_dir, config, [
            ("predict", 1, rows),
            ("step", 2, "coalesce-admission", row.values[:, 0],
             row.mask[:, 0], row.deltas[:, 0]),
            ("predict", 3, rows),
            None])
        ready, first, step, third, exited = results
        assert ready[0] == _READY and exited[0] == _EXIT
        expected_rows = sigmoid_probs(local_predictor.predict_logits(
            rows, pad_to=config.max_batch_size))
        for rid, response in ((1, first), (3, third)):
            got_rid, ok, payload, _pid = response
            assert got_rid == rid and ok is True
            assert np.array_equal(payload, expected_rows)
        got_rid, ok, payload, _pid = step
        assert got_rid == 2 and ok is True
        assert np.array_equal(payload, sigmoid_probs(
            local_predictor.predict_logits(row.truncate(1))))

    def test_sentinel_drained_mid_coalesce_still_serves_batch(
            self, trained_run, local_predictor, serve_splits):
        _, run_dir = trained_run
        config = POOL_CONFIG.replace(workers=1)
        rows = serve_splits.test.subset([0])
        results = self._run_worker(run_dir, config,
                                   [("predict", 1, rows), None])
        ready, first, exited = results
        assert ready[0] == _READY and exited[0] == _EXIT
        got_rid, ok, payload, _pid = first
        assert got_rid == 1 and ok is True
        assert np.array_equal(payload, sigmoid_probs(
            local_predictor.predict_logits(
                rows, pad_to=config.max_batch_size)))

    def test_worker_holds_an_under_full_batch_open_for_max_wait_ms(
            self, trained_run, serve_splits):
        # The second predict arrives ~50 ms after the first, inside the
        # 1 s window, so both share one forward; the sentinel closes the
        # window early instead of waiting it out.
        _, run_dir = trained_run
        config = POOL_CONFIG.replace(workers=1, max_wait_ms=1000)
        row = serve_splits.test.subset([0])
        requests, responses = queue_module.Queue(), queue_module.Queue()
        worker = threading.Thread(target=_worker_main, args=(
            0, str(run_dir), "best", config.to_dict(), requests, responses))
        worker.start()
        ready = responses.get(timeout=60)
        assert ready[0] == _READY
        assert not str(ready[3]).startswith("error:")
        requests.put(("predict", 1, row))
        time.sleep(0.05)
        requests.put(("predict", 2, row))
        requests.put(None)
        worker.join(timeout=60)
        assert not worker.is_alive()
        results = [responses.get_nowait() for _ in range(3)]
        assert sorted(rid for rid, ok, _, _ in results[:2]) == [1, 2]
        assert all(ok for _, ok, _, _ in results[:2])
        exited = results[2]
        assert exited[0] == _EXIT
        assert exited[3]["batch_sizes"] == {"2": 1}


class TestBackpressureAndDeadlines:
    def test_queue_depth_bounds_in_flight(self, trained_run, serve_splits):
        _, run_dir = trained_run
        pool = ReplicaPool(run_dir,
                           config=POOL_CONFIG.replace(queue_depth=2))
        with pool:
            _, first = pool._register()
            _, second = pool._register()
            assert pool.in_flight == 2
            with pytest.raises(ServeOverloadError, match="queue_depth"):
                pool.submit(serve_splits.test.subset([0]))
            # Abandoning one in-flight request frees its slot.
            assert pool._abandon(first) is True
            probs = pool.predict_proba(serve_splits.test.subset([0]),
                                       timeout=30)
            assert probs.shape == (1,)
        # stop() fails whatever was still pending.
        with pytest.raises(ServeRequestError, match="stopped"):
            second.result(timeout=1)

    def test_deadline_miss_raises_and_frees_slot(self, running_pool):
        from repro.serve import AsyncServeFrontend

        async def _main():
            frontend = AsyncServeFrontend(running_pool)
            _, future = running_pool._register()  # never resolved
            before = running_pool.in_flight
            with pytest.raises(ServeDeadlineError, match="deadline"):
                await frontend._await_future(future, 20)
            assert frontend.deadline_misses == 1
            assert running_pool.in_flight == before - 1

        asyncio.run(_main())

    def test_abandon_removes_only_its_own_request(self, trained_run):
        _, run_dir = trained_run
        pool = ReplicaPool(run_dir, config=POOL_CONFIG)
        registered = [pool._register() for _ in range(5)]
        gone_rid, gone = registered[2]
        assert pool._abandon(gone) is True
        survivors = {rid: future for rid, future in registered
                     if rid != gone_rid}
        assert {rid: entry[0] for rid, entry in pool._pending.items()} \
            == survivors

    def test_abandon_is_idempotent_and_ignores_foreign_futures(
            self, trained_run):
        _, run_dir = trained_run
        pool = ReplicaPool(run_dir, config=POOL_CONFIG)
        _, future = pool._register()
        assert pool._abandon(Future()) is False
        assert pool._abandon(future) is True
        assert pool._abandon(future) is False
        assert pool.in_flight == 0

    def test_collector_serves_and_drops_without_leaking(self, trained_run):
        """A served response and an abandoned request's late one both
        leave the pending table empty."""
        _, run_dir = trained_run
        pool = ReplicaPool(run_dir, config=POOL_CONFIG)
        served_rid, served = pool._register()
        late_rid, late = pool._register()
        assert pool._abandon(late) is True
        pool._responses = queue_module.Queue()
        pool._responses.put((late_rid, True, np.array([0.1]), 11))
        pool._responses.put((served_rid, True, np.array([0.9]), 22))
        pool._responses.put((_STOP_COLLECTOR, None, None, None))
        pool._collect_loop()
        np.testing.assert_array_equal(served.result(timeout=0), [0.9])
        assert not late.done()
        assert pool._pending == {}
        assert pool.served_pids == {22}

    def test_frontend_serves_through_the_pool(self, running_pool,
                                              local_predictor,
                                              serve_splits):
        from repro.serve import AsyncServeFrontend
        row = serve_splits.test.subset([1])

        async def _main():
            frontend = AsyncServeFrontend(
                running_pool, config=running_pool.config.replace(
                    deadline_ms=30_000))
            return await frontend.predict_proba(row)

        probs = asyncio.run(_main())
        expected = sigmoid_probs(local_predictor.predict_logits(
            row, pad_to=POOL_CONFIG.max_batch_size))
        assert np.array_equal(probs, expected)


class TestLifecycle:
    def test_submit_requires_running_pool(self, trained_run, serve_splits):
        _, run_dir = trained_run
        pool = ReplicaPool(run_dir, config=POOL_CONFIG)
        with pytest.raises(RuntimeError, match="not running"):
            pool.submit(serve_splits.test.subset([0]))

    def test_stop_terminates_workers_and_merges_metrics(self, trained_run,
                                                        serve_splits):
        _, run_dir = trained_run
        metrics = ServeMetrics(label="lifecycle")
        pool = ReplicaPool(run_dir, config=POOL_CONFIG, metrics=metrics)
        with pool:
            pool.predict_proba(serve_splits.test.subset([0]), timeout=30)
            processes = list(pool._processes)
        assert all(not p.is_alive() for p in processes)
        # The worker's own batch accounting merged in at shutdown.
        assert metrics.batch_count >= 1
        assert metrics.request_count >= 1

    def test_bad_run_dir_fails_startup_loudly(self, tmp_path):
        run_dir = tmp_path / "broken-run"
        run_dir.mkdir()
        (run_dir / "config.json").write_text(json.dumps({"batch_size": 8}))
        pool = ReplicaPool(run_dir, config=POOL_CONFIG)
        with pytest.raises(RuntimeError, match="replica startup failed"):
            pool.start()
        assert not pool._processes

    def test_worker_death_before_ready_tears_down_survivors(
            self, trained_run, tmp_path, monkeypatch):
        """A replica dying before its handshake must not leak the live
        ones: start() fails fast and terminates every started process."""
        import repro.serve.pool as pool_module
        _, run_dir = trained_run
        pid_file = tmp_path / "survivor.pid"

        def _flaky_worker(index, run_dir, checkpoint, config_payload,
                          requests, responses):
            if index == 0:
                os._exit(3)  # dies before _READY, like a segfault would
            pid_file.write_text(str(os.getpid()))
            responses.put((_READY, index, os.getpid(), "fingerprint"))
            while requests.get() is not None:
                pass

        monkeypatch.setattr(pool_module, "_worker_main", _flaky_worker)
        pool = ReplicaPool(run_dir, config=POOL_CONFIG)
        with pytest.raises(RuntimeError, match="died before reporting "
                                               "ready"):
            pool.start()
        assert pool._processes == []
        assert pool._worker_pids == []
        # The healthy replica was terminated and reaped, not leaked.
        survivor = int(pid_file.read_text())
        with pytest.raises(OSError):
            os.kill(survivor, 0)


class TestSpecFingerprint:
    def test_fingerprint_is_stable_and_spec_sensitive(self, local_predictor):
        spec = local_predictor.spec
        assert isinstance(spec, ModelSpec)
        fingerprint = spec.fingerprint()
        assert len(fingerprint) == 16
        assert fingerprint == spec.fingerprint()
        assert ModelSpec.from_dict(spec.to_dict()).fingerprint() \
            == fingerprint
        other = spec.to_dict()
        other["hyperparameters"] = dict(other["hyperparameters"],
                                        hidden_size=9)
        assert ModelSpec.from_dict(other).fingerprint() != fingerprint
