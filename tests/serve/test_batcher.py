"""MicroBatcher: coalescing, bit-identity, threading, error fan-out."""

import gc
import threading
import time

import numpy as np
import pytest

from repro.baselines import build_model
from repro.data import NUM_FEATURES
from repro.serve import (MicroBatcher, Predictor, ServeConfig,
                         ServeMetrics, ServeRequestError)

pytestmark = pytest.mark.serve


@pytest.fixture(scope="module")
def predictor():
    model = build_model("GRU", NUM_FEATURES, np.random.default_rng(0),
                        hidden_size=6)
    return Predictor(model)


@pytest.fixture()
def rows(tiny_dataset):
    return [tiny_dataset.subset(np.asarray([i])) for i in range(24)]


class TestLifecycle:
    def test_submit_requires_running_worker(self, predictor, rows):
        batcher = MicroBatcher(predictor)
        with pytest.raises(RuntimeError, match="not running"):
            batcher.submit(rows[0])

    def test_double_start_rejected(self, predictor):
        with MicroBatcher(predictor) as batcher:
            with pytest.raises(RuntimeError, match="already started"):
                batcher.start()

    def test_stop_drains_outstanding_requests(self, predictor, rows):
        batcher = MicroBatcher(predictor,
                              ServeConfig(max_batch_size=8, max_wait_ms=50))
        batcher.start()
        handles = [batcher.submit(r) for r in rows[:8]]
        batcher.stop()
        assert all(h.done() for h in handles)
        assert all(h.result().shape == (1,) for h in handles)

    def test_oversized_request_rejected(self, predictor, tiny_dataset):
        with MicroBatcher(predictor,
                          ServeConfig(max_batch_size=4)) as batcher:
            with pytest.raises(ValueError, match="exceeds max_batch_size"):
                batcher.submit(tiny_dataset.subset(np.arange(5)))

    def test_cancelled_request_leaves_the_worker_serving(self, predictor,
                                                         rows):
        """``submit`` returns a plain Future, so a caller may cancel it
        while it is queued; the worker skips it and keeps serving."""
        gate = threading.Event()

        class GatedPredictor:
            config = ServeConfig(max_batch_size=1, max_wait_ms=0)

            def predict_coalesced(self, rows_list, pad_to):
                assert gate.wait(timeout=30)
                return predictor.predict_coalesced(rows_list, pad_to)

        with MicroBatcher(GatedPredictor()) as batcher:
            first = batcher.submit(rows[0])
            queued = batcher.submit(rows[1])
            assert queued.cancel()
            gate.set()
            assert first.result(timeout=30).shape == (1,)
            assert batcher.predict_proba(rows[2], timeout=30).shape == (1,)
        assert queued.cancelled()


class TestBitIdentity:
    def test_micro_batched_equals_single_request(self, predictor, rows):
        """Coalesced responses match one-at-a-time padded forwards bitwise."""
        from repro.metrics.probability import sigmoid_probs

        expected = {
            i: sigmoid_probs(predictor.predict_logits(row, pad_to=16))
            for i, row in enumerate(rows)
        }
        results = {}
        with MicroBatcher(predictor,
                          ServeConfig(max_batch_size=16,
                                      max_wait_ms=20)) as batcher:
            def client(indices):
                for i in indices:
                    results[i] = batcher.predict_proba(rows[i], timeout=30)

            threads = [threading.Thread(target=client,
                                        args=(range(k, len(rows), 4),))
                       for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert sorted(results) == list(range(len(rows)))
        for i, probs in results.items():
            np.testing.assert_array_equal(probs, expected[i])

    def test_multi_row_requests_coalesce_correctly(self, predictor,
                                                   tiny_dataset):
        """Requests of different widths fan back out to the right callers."""
        sizes = [1, 3, 2, 4, 1]
        starts = np.cumsum([0] + sizes[:-1])
        requests = [tiny_dataset.subset(np.arange(s, s + n))
                    for s, n in zip(starts, sizes)]
        with MicroBatcher(predictor,
                          ServeConfig(max_batch_size=16,
                                      max_wait_ms=20)) as batcher:
            handles = [batcher.submit(r) for r in requests]
            outputs = [h.result(timeout=30) for h in handles]
        for request, output, n in zip(requests, outputs, sizes):
            assert output.shape == (n,)
            from repro.metrics.probability import sigmoid_probs
            np.testing.assert_array_equal(
                output,
                sigmoid_probs(predictor.predict_logits(request, pad_to=16)))


class TestCoalescingOrder:
    def test_overflowing_request_leads_the_next_batch(self):
        """A request that does not fit the open batch is served first in
        the next one, ahead of the requests queued behind it."""
        class Rows:
            def __init__(self, name, size):
                self.name, self.size = name, size

            def __len__(self):
                return self.size

        class GatedPredictor:
            config = ServeConfig(max_batch_size=4, max_wait_ms=50)

            def __init__(self):
                self.batches = []
                self.entered = threading.Event()
                self.gate = threading.Event()

            def predict_coalesced(self, rows_list, pad_to):
                self.batches.append([rows.name for rows in rows_list])
                self.entered.set()
                assert self.gate.wait(timeout=30)
                return [np.zeros(len(rows)) for rows in rows_list]

        predictor = GatedPredictor()
        with MicroBatcher(predictor) as batcher:
            futures = [batcher.submit(Rows("X", 4))]
            assert predictor.entered.wait(timeout=30)
            # X fills its batch and holds the worker while A..D queue.
            futures += [batcher.submit(Rows(name, size)) for name, size
                        in (("A", 3), ("B", 2), ("C", 1), ("D", 1))]
            predictor.gate.set()
            for future in futures:
                future.result(timeout=30)
        assert predictor.batches == [["X"], ["A"], ["B", "C", "D"]]


class TestThreadedStress:
    def test_no_lost_or_duplicated_responses(self, predictor, rows):
        """Many producer threads; every request answered exactly once."""
        clients, per_client = 8, 25
        outcomes = [[] for _ in range(clients)]

        with MicroBatcher(predictor,
                          ServeConfig(max_batch_size=16,
                                      max_wait_ms=2)) as batcher:
            def client(k):
                for j in range(per_client):
                    row = rows[(k * per_client + j) % len(rows)]
                    outcomes[k].append(batcher.predict_proba(row, timeout=60))

            threads = [threading.Thread(target=client, args=(k,))
                       for k in range(clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        assert [len(o) for o in outcomes] == [per_client] * clients
        from repro.metrics.probability import sigmoid_probs
        for k in range(clients):
            for j, probs in enumerate(outcomes[k]):
                row = rows[(k * per_client + j) % len(rows)]
                np.testing.assert_array_equal(
                    probs,
                    sigmoid_probs(predictor.predict_logits(row, pad_to=16)))


class TestErrorPropagation:
    def test_worker_failure_reaches_every_caller(self, predictor,
                                                 tiny_dataset):
        good = tiny_dataset.subset(np.asarray([0]))
        bad_values = good.values.copy()
        bad_values[0, 0, 0] = np.nan
        bad = type("B", (), dict(
            values=bad_values, mask=good.mask,
            ever_observed=good.ever_observed, deltas=good.deltas,
            __len__=lambda self: 1))()

        with MicroBatcher(predictor,
                          ServeConfig(max_batch_size=4,
                                      max_wait_ms=1)) as batcher:
            handle = batcher.submit(bad)
            with pytest.raises(ServeRequestError) as excinfo:
                handle.result(timeout=30)
            assert isinstance(excinfo.value.__cause__, ValueError)
            # The worker survives the failure and keeps serving.
            probs = batcher.predict_proba(good, timeout=30)
            assert probs.shape == (1,)


class TestMetricsIntegration:
    def test_requests_and_batches_recorded(self, predictor, rows):
        metrics = ServeMetrics("unit")
        batched = Predictor(predictor.model, metrics=metrics)
        with MicroBatcher(batched,
                          ServeConfig(max_batch_size=8, max_wait_ms=20),
                          metrics=metrics) as batcher:
            handles = [batcher.submit(r) for r in rows[:8]]
            for h in handles:
                h.result(timeout=30)
        assert metrics.request_count == 8
        assert metrics.batch_count >= 1
        assert sum(size * count for size, count
                   in metrics.batch_size_histogram().items()) == 8
        assert metrics.p95_latency >= metrics.p50_latency > 0


class TestGarbageCollection:
    """Dropping an un-stopped batcher must not leak its worker thread.

    The worker thread gets the request queue and a reply hook (never the
    batcher), and a ``weakref.finalize`` hook aborts it once the batcher
    becomes unreachable; queued requests fail fast instead of hanging
    forever.
    """

    def test_dropped_batcher_stops_worker_and_fails_pending(self,
                                                            predictor,
                                                            rows):
        class SlowPredictor:
            # One row per forward, and a forward slow enough that the
            # drop below deterministically lands while requests queue.
            config = ServeConfig(max_batch_size=1, max_wait_ms=0)

            def predict_coalesced(self, rows_list, pad_to):
                time.sleep(0.5)
                return predictor.predict_coalesced(rows_list, pad_to)

        batcher = MicroBatcher(SlowPredictor())
        batcher.start()
        worker = batcher._worker
        handles = [batcher.submit(rows[i]) for i in range(3)]
        del batcher
        gc.collect()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert not any(t.name == "repro-serve-worker"
                       for t in threading.enumerate())
        # Every handle resolves promptly: served before the abort, or
        # failed by it -- never a hang.
        outcomes = []
        for handle in handles:
            try:
                handle.result(timeout=5)
                outcomes.append("served")
            except ServeRequestError as error:
                assert "dropped without stop()" in str(error.__cause__)
                outcomes.append("failed")
        assert "failed" in outcomes

    def test_stopped_batcher_detaches_its_finalizer(self, predictor, rows):
        batcher = MicroBatcher(predictor,
                               ServeConfig(max_batch_size=4, max_wait_ms=1))
        batcher.start()
        assert batcher.predict_proba(rows[0], timeout=30).shape == (1,)
        finalizer = batcher._finalizer
        batcher.stop()
        assert not finalizer.alive
        assert not any(t.name == "repro-serve-worker"
                       for t in threading.enumerate())
