"""Replica pool: shared-nothing multi-process serving.

One Python process tops out at one GIL's worth of request handling; the
:class:`ReplicaPool` forks ``workers`` OS processes, each rebuilding the
model from the run directory's pickled
:class:`~repro.baselines.ModelSpec` + checkpoint (capture-aware, so each
replica replays the inference graph independently) and serving from its
own :class:`~repro.serve.SessionStore`.  The parent process never holds
the model — it only routes:

* **stateless predicts** round-robin across workers, each worker
  running the :class:`MicroBatcher`'s coalescing loop: predicts that
  arrive within ``max_wait_ms`` of a batch's first share one padded
  fixed-shape forward (the same determinism guarantee, per replica);
* **streaming steps** shard *stickily* — ``crc32(admission_id) %
  workers`` — so an admission's recurrent state lives in exactly one
  worker and every step request finds it (CRC, unlike ``hash(str)``, is
  stable across processes and interpreter runs);
* responses resolve :class:`concurrent.futures.Future` objects via a
  collector thread, so the blocking surface and the asyncio front-end
  (:class:`AsyncServeFrontend`) share one mechanism.

On startup every worker reports its spec fingerprint; a replica that
rebuilt a different model than the parent expected fails the whole pool
loudly (mixed replicas would answer identical requests differently).
Worker metrics snapshots merge into the parent's
:class:`~repro.serve.ServeMetrics` at shutdown, so pool reports cover
every replica's latencies.

Backpressure and deadlines: the pool bounds in-flight requests at
``config.queue_depth`` (beyond it :meth:`ReplicaPool.submit` raises
:class:`ServeOverloadError`); the asyncio front-end instead *waits* for
a slot, and applies ``config.deadline_ms`` per request, raising
:class:`ServeDeadlineError` on expiry (the late response is discarded
when it eventually arrives).
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import queue as queue_module
import threading
import zlib
from concurrent.futures import Future
from pathlib import Path
from time import perf_counter

from .batcher import ServeRequestError, run_coalescing_loop
from .config import ServeConfig, resolve_config
from .metrics import ServeMetrics

__all__ = ["ReplicaPool", "AsyncServeFrontend", "ServeDeadlineError",
           "ServeOverloadError", "ServeWorkerError"]

_READY = "__worker_ready__"
_EXIT = "__worker_exit__"
_STOP_COLLECTOR = "__collector_stop__"


class ServeWorkerError(ServeRequestError):
    """A request failed inside a pool worker (message carries details)."""


class ServeOverloadError(RuntimeError):
    """The pool's in-flight bound (``queue_depth``) was hit."""


class ServeDeadlineError(TimeoutError):
    """A request missed its per-request deadline (``deadline_ms``)."""


def _shard_for(admission_id, workers):
    """Sticky worker index for an admission — process-stable hashing."""
    return zlib.crc32(repr(admission_id).encode()) % workers


def _worker_main(index, run_dir, checkpoint, config_payload, requests,
                 responses):
    """Pool worker: rebuild the replica, then serve until the sentinel.

    Runs in a forked child, over the same :func:`run_coalescing_loop` as
    the :class:`MicroBatcher`: stateless predicts coalesce into one
    padded forward within ``max_wait_ms`` of the batch's first arrival;
    streaming steps go through a per-admission :class:`SessionStore`.
    """
    from .predictor import Predictor
    from .streaming import SessionStore

    pid = os.getpid()
    config = ServeConfig.from_dict(config_payload)
    try:
        metrics = ServeMetrics(label=f"pool-worker-{index}")
        predictor = Predictor.load(run_dir, checkpoint=checkpoint,
                                   config=config, persist=False,
                                   metrics=metrics)
        store = SessionStore(predictor, capacity=config.cache_capacity,
                             metrics=metrics)
        fingerprint = predictor.spec.fingerprint()
    except BaseException as error:
        responses.put((_READY, index, pid, f"error: {error!r}"))
        return
    responses.put((_READY, index, pid, fingerprint))

    def reply(rid, ok, payload):
        if not ok:
            payload = f"{type(payload).__name__}: {payload}"
        responses.put((rid, ok, payload, pid))

    run_coalescing_loop(requests, predictor, config, reply, store)
    responses.put((_EXIT, index, pid, metrics.snapshot()))


class ReplicaPool:
    """Multi-process serving pool over one training run directory.

    Parameters
    ----------
    run_dir:
        Run directory as for :meth:`Predictor.load`; every worker loads
        the same spec + checkpoint (verified by fingerprint at startup).
    checkpoint:
        ``"best"`` or ``"last"``, as for :meth:`Predictor.load`.
    config:
        A :class:`~repro.serve.ServeConfig`; ``workers`` sizes the pool,
        ``queue_depth`` bounds in-flight requests, ``max_batch_size`` is
        each worker's padded forward shape, ``max_wait_ms`` how long a
        worker holds an under-full batch open, ``cache_capacity`` sizes
        the per-worker session stores.  Defaults to the run directory's
        persisted ``serve`` block.
    metrics:
        Optional :class:`~repro.serve.ServeMetrics`; per-request
        latencies accumulate live, worker-side counters merge in at
        :meth:`stop`.

    Use as a context manager, or call :meth:`start` / :meth:`stop`.
    Workers are forked, so they inherit the parent's precision policy
    (:func:`repro.nn.autocast`) as of :meth:`start`.
    """

    def __init__(self, run_dir, checkpoint="best", config=None, *,
                 metrics=None):
        self.run_dir = Path(run_dir)
        self.checkpoint = checkpoint
        if config is None:
            config = ServeConfig.from_run_dir(self.run_dir)
        self.config = resolve_config(config, owner="ReplicaPool")
        self.metrics = metrics if metrics is not None else ServeMetrics(
            label=f"pool-{self.run_dir.name}")
        self.workers = self.config.workers
        self._processes = []
        self._request_queues = []
        self._responses = None
        self._collector = None
        self._pending = {}
        self._pending_lock = threading.Lock()
        self._rid = 0
        # itertools.count: next() is atomic under the GIL, so concurrent
        # submit() calls (the class promises thread-safety) cannot skew
        # the round-robin distribution via a read-modify-write race.
        self._round_robin = itertools.count()
        self._served_pids = set()
        self._worker_pids = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self):
        if self._processes:
            raise RuntimeError("ReplicaPool already started")
        context = multiprocessing.get_context("fork")
        self._responses = context.Queue()
        config_payload = self.config.to_dict()
        for index in range(self.workers):
            requests = context.Queue()
            process = context.Process(
                target=_worker_main,
                args=(index, str(self.run_dir), self.checkpoint,
                      config_payload, requests, self._responses),
                name=f"repro-serve-replica-{index}", daemon=True)
            process.start()
            self._request_queues.append(requests)
            self._processes.append(process)

        # Ready handshake: every replica must rebuild the *same* model.
        # Any failure here (a worker that died before reporting, a
        # timeout, a fingerprint mismatch) tears down every process that
        # did start, so a broken startup never leaks live replicas.
        fingerprints = {}
        try:
            deadline = perf_counter() + 120.0
            while len(fingerprints) < self.workers:
                try:
                    kind, index, pid, fingerprint = self._responses.get(
                        timeout=1.0)
                except queue_module.Empty:
                    dead = [i for i, process in enumerate(self._processes)
                            if i not in fingerprints
                            and not process.is_alive()]
                    if dead:
                        codes = {i: self._processes[i].exitcode
                                 for i in dead}
                        raise RuntimeError(
                            f"replica worker(s) {dead} died before "
                            f"reporting ready (exit codes {codes})")
                    if perf_counter() > deadline:
                        raise RuntimeError(
                            f"replica startup timed out: only "
                            f"{len(fingerprints)} of {self.workers} "
                            "workers reported ready within 120 s")
                    continue
                if kind != _READY:
                    raise RuntimeError(
                        f"unexpected startup message {kind!r}")
                fingerprints[index] = fingerprint
                self._worker_pids.append(pid)
            failed = {i: f for i, f in fingerprints.items()
                      if str(f).startswith("error:")}
            if failed:
                raise RuntimeError(f"replica startup failed: {failed}")
            if len(set(fingerprints.values())) != 1:
                raise RuntimeError(
                    f"replicas disagree on the model spec: "
                    f"{fingerprints} — the run directory changed "
                    "underneath the pool?")
        except BaseException:
            self._teardown_processes()
            self._worker_pids = []
            raise

        self._collector = threading.Thread(target=self._collect_loop,
                                           name="repro-serve-collector",
                                           daemon=True)
        self._collector.start()
        return self

    def stop(self, timeout=30.0):
        """Stop workers, merge their metrics, fail leftover requests."""
        if not self._processes:
            return
        for requests in self._request_queues:
            requests.put(None)
        for process in self._processes:
            process.join(timeout=timeout)
        self._teardown_processes()
        self._responses.put((_STOP_COLLECTOR, None, None, None))
        self._collector.join(timeout=timeout)
        self._collector = None
        with self._pending_lock:
            leftovers = list(self._pending.values())
            self._pending.clear()
        for future, _submitted_at in leftovers:
            if not future.done():
                future.set_exception(ServeRequestError(
                    "ReplicaPool stopped with the request in flight"))
        self._responses = None

    def _teardown_processes(self):
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
        self._processes = []
        self._request_queues = []

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False

    # ------------------------------------------------------------------
    # Collector
    # ------------------------------------------------------------------
    def _collect_loop(self):
        while True:
            message = self._responses.get()
            if message[0] == _STOP_COLLECTOR:
                return
            if message[0] == _EXIT:
                _, _index, _pid, snapshot = message
                self.metrics.merge_snapshot(snapshot)
                continue
            rid, ok, payload, pid = message
            with self._pending_lock:
                entry = self._pending.pop(rid, None)
            if entry is None:
                continue  # deadline-abandoned request; drop the response
            future, submitted_at = entry
            self._served_pids.add(pid)
            if future.cancelled():
                continue
            if ok:
                self.metrics.record_request(perf_counter() - submitted_at)
                future.set_result(payload)
            else:
                future.set_exception(ServeWorkerError(
                    f"pool worker {pid} failed the request: {payload}"))

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def _register(self):
        future = Future()
        with self._pending_lock:
            if len(self._pending) >= self.config.queue_depth:
                raise ServeOverloadError(
                    f"{len(self._pending)} requests in flight >= "
                    f"queue_depth={self.config.queue_depth}")
            self._rid += 1
            rid = self._rid
            self._pending[rid] = (future, perf_counter())
        return rid, future

    def _abandon(self, future):
        """Forget an in-flight request (deadline miss): frees its
        queue-depth slot now; the late response is dropped on arrival."""
        with self._pending_lock:
            for rid, (pending_future, _) in list(self._pending.items()):
                if pending_future is future:
                    del self._pending[rid]
                    return True
        return False

    def _require_running(self):
        if not self._processes:
            raise RuntimeError("ReplicaPool is not running; use it as a "
                               "context manager or call start()")

    def submit(self, rows):
        """Enqueue a stateless predict; returns a Future of probabilities.

        ``rows`` is a model-ready :class:`~repro.data.dataset.EMRDataset`
        of up to ``max_batch_size`` admissions; workers coalesce and pad
        exactly like the in-process :class:`MicroBatcher`.
        """
        self._require_running()
        if len(rows) > self.config.max_batch_size:
            raise ValueError(f"request of {len(rows)} rows exceeds "
                             f"max_batch_size={self.config.max_batch_size}")
        rid, future = self._register()
        index = next(self._round_robin) % self.workers
        self._request_queues[index].put(("predict", rid, rows))
        return future

    def submit_step(self, admission_id, values_t, mask_t=None,
                    deltas_t=None):
        """Enqueue one streaming observation; returns a Future.

        Sticky-sharded: all steps for an admission hit the same worker,
        where its :class:`StreamingSession` state lives.
        """
        self._require_running()
        rid, future = self._register()
        index = _shard_for(admission_id, self.workers)
        self._request_queues[index].put(
            ("step", rid, admission_id, values_t, mask_t, deltas_t))
        return future

    def predict_proba(self, rows, timeout=None):
        """Blocking convenience: submit and wait for the probabilities."""
        return self.submit(rows).result(timeout=timeout)

    def step(self, admission_id, values_t, mask_t=None, deltas_t=None,
             timeout=None):
        """Blocking convenience around :meth:`submit_step`."""
        return self.submit_step(admission_id, values_t, mask_t=mask_t,
                                deltas_t=deltas_t).result(timeout=timeout)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def worker_pids(self):
        """PIDs of the replica processes (after :meth:`start`)."""
        return tuple(self._worker_pids)

    @property
    def served_pids(self):
        """PIDs observed on responses so far — proof of real fan-out."""
        return frozenset(self._served_pids)

    @property
    def in_flight(self):
        with self._pending_lock:
            return len(self._pending)


class AsyncServeFrontend:
    """Asyncio face of a :class:`ReplicaPool`: awaitable, bounded, timed.

    * **Backpressure**: at most ``config.queue_depth`` requests are in
      flight; further awaiters queue on an :class:`asyncio.Semaphore`
      instead of erroring (the raw pool surface raises
      :class:`ServeOverloadError` instead — the front-end absorbs
      bursts, the raw surface refuses them).
    * **Deadlines**: each request gets ``config.deadline_ms`` (or the
      per-call override); on expiry :class:`ServeDeadlineError` is
      raised and the late response is dropped when it arrives.

    Construct inside a running event loop (the semaphore binds to it).
    """

    def __init__(self, pool, config=None):
        import asyncio
        self.pool = pool
        self.config = config if config is not None else pool.config
        self.deadline_misses = 0
        self._semaphore = asyncio.Semaphore(self.config.queue_depth)

    async def _await_future(self, future, deadline_ms):
        import asyncio
        deadline_ms = (self.config.deadline_ms if deadline_ms is None
                       else deadline_ms)
        wrapped = asyncio.wrap_future(future)
        if deadline_ms is None:
            return await wrapped
        try:
            return await asyncio.wait_for(wrapped, deadline_ms / 1000.0)
        except asyncio.TimeoutError:
            self.deadline_misses += 1
            self.pool._abandon(future)
            raise ServeDeadlineError(
                f"request missed its {deadline_ms:g} ms deadline") from None

    async def predict_proba(self, rows, deadline_ms=None):
        """Await probabilities for a stateless predict."""
        async with self._semaphore:
            return await self._await_future(
                self.pool.submit(rows), deadline_ms)

    async def step(self, admission_id, values_t, mask_t=None, deltas_t=None,
                   deadline_ms=None):
        """Await one streaming-step update for an admission."""
        async with self._semaphore:
            return await self._await_future(
                self.pool.submit_step(admission_id, values_t, mask_t=mask_t,
                                      deltas_t=deltas_t), deadline_ms)
