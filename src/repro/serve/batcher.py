"""One coalescing loop for both serving tiers, and the in-process tier.

Per-request forward passes waste the hardware: a single admission drives
tiny GEMV-shaped kernels, while the fused kernels are tuned for batched
GEMMs.  :func:`run_coalescing_loop` is the one place that decides which
requests share a forward.  The :class:`MicroBatcher` thread runs it
in-process, and every :class:`~repro.serve.ReplicaPool` worker runs it
in its own process:

1. the first predict opens a batch;
2. later predicts join it until it holds ``max_batch_size`` rows or
   ``max_wait_ms`` has passed since the first one arrived;
3. one padded fixed-shape forward serves the whole batch and each
   outcome goes back through the tier's ``reply`` hook.

A streaming step, a predict that would overflow the batch, or the stop
sentinel closes the batch early and is *carried*: it is handled next,
ahead of everything queued behind it, so an overflowing predict leads
the next batch.

Every forward runs at exactly ``max_batch_size`` rows (zero-padded), so
an admission's probabilities are **bit-identical** no matter which
requests happened to share its batch — and bit-identical to a
single-request forward through the same padded path.  BLAS picks kernels
per GEMM shape, so this determinism is only available at a fixed shape;
see docs/SERVING.md.

The batcher's thread never holds a reference to the batcher itself, and
a ``weakref.finalize`` hook aborts it when the last reference to an
un-stopped batcher is dropped: requests still queued fail with
:class:`ServeRequestError` instead of hanging forever on a thread
nobody can reach.
"""

from __future__ import annotations

import functools
import queue
import threading
import weakref
from concurrent.futures import Future
from time import monotonic, perf_counter

from .config import resolve_config

__all__ = ["MicroBatcher", "ServeRequestError", "run_coalescing_loop"]


class ServeRequestError(RuntimeError):
    """A request failed inside the serving worker (original as cause)."""


def run_coalescing_loop(requests, predictor, config, reply, store=None):
    """Serve ``requests`` until the ``None`` sentinel arrives.

    ``requests`` is a queue of ``("predict", key, rows)``, ``("step",
    key, admission_id, values_t, mask_t, deltas_t)`` and ``None``.
    Predicts coalesce into one forward padded to
    ``config.max_batch_size`` rows, within ``config.max_wait_ms`` of the
    batch's first arrival (``0`` serves only what is already queued);
    steps go through ``store``.  ``reply(key, ok, payload)`` receives
    each outcome: the probabilities, or the exception raised.
    """
    window = config.max_wait_ms / 1000.0
    carried = []
    while True:
        message = carried.pop() if carried else requests.get()
        if message is None:
            return
        if message[0] == "step":
            _, key, admission_id, values_t, mask_t, deltas_t = message
            try:
                probs = store.step(admission_id, values_t, mask_t=mask_t,
                                   deltas_t=deltas_t)
            except Exception as error:
                reply(key, False, error)
            else:
                reply(key, True, probs)
            continue
        batch = [message]
        filled = len(message[2])
        deadline = monotonic() + window
        while filled < config.max_batch_size:
            remaining = deadline - monotonic()
            try:
                message = (requests.get(timeout=remaining) if remaining > 0
                           else requests.get_nowait())
            except queue.Empty:
                break
            if message is None or message[0] != "predict" or \
                    filled + len(message[2]) > config.max_batch_size:
                carried.append(message)
                break
            batch.append(message)
            filled += len(message[2])
        try:
            outcomes = predictor.predict_coalesced(
                [rows for _, _, rows in batch], pad_to=config.max_batch_size)
            ok = True
        except Exception as error:  # fan the failure out to every caller
            outcomes, ok = [error] * len(batch), False
        for (_, key, _), payload in zip(batch, outcomes):
            reply(key, ok, payload)


class _Request(Future):
    """A caller's Future, stamped with its submit time for metrics."""

    def __init__(self):
        super().__init__()
        self.submitted_at = perf_counter()


def _resolve(metrics, future, ok, payload):
    """The batcher's ``reply`` hook: settle the caller's Future."""
    if not future.set_running_or_notify_cancel():
        return  # the caller cancelled it
    if ok:
        if metrics is not None:
            metrics.record_request(perf_counter() - future.submitted_at)
        future.set_result(payload)
    else:
        error = ServeRequestError("request failed in the serving worker")
        error.__cause__ = payload
        future.set_exception(error)


def _abort(requests, reply):
    """Finalizer body: fail what a dropped, un-stopped batcher still has
    queued, then stop its thread."""
    while True:
        try:
            message = requests.get_nowait()
        except queue.Empty:
            break
        reply(message[1], False, RuntimeError(
            "MicroBatcher was dropped without stop(); request abandoned"))
    requests.put(None)


class MicroBatcher:
    """Threaded request coalescer in front of a :class:`Predictor`.

    Parameters
    ----------
    predictor:
        The wrapped :class:`~repro.serve.Predictor`.
    config:
        A :class:`~repro.serve.ServeConfig`; ``max_batch_size`` bounds
        coalesced requests per forward (every forward is padded to
        exactly this many rows — the determinism guarantee) and
        ``max_wait_ms`` is how long the worker holds an under-full
        batch open after its first request arrived (smaller favors
        latency, larger favors occupancy/throughput).  Defaults to the
        predictor's own config.
    metrics:
        Optional :class:`~repro.serve.ServeMetrics`; receives one
        ``record_request`` per response (queue-to-response latency) on
        top of the predictor's per-forward ``record_batch`` events.

    Use as a context manager, or call :meth:`start` / :meth:`stop`.
    """

    def __init__(self, predictor, config=None, *, metrics=None):
        self.config = resolve_config(config, owner="MicroBatcher",
                                     base=getattr(predictor, "config", None))
        self.predictor = predictor
        self.max_batch_size = self.config.max_batch_size
        self.metrics = metrics
        self._requests = queue.Queue()
        self._worker = None
        self._finalizer = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self):
        if self._worker is not None:
            raise RuntimeError("MicroBatcher already started")
        # The thread and the finalizer get the queue and the hook, never
        # ``self``, so a dropped batcher stays collectible.
        reply = functools.partial(_resolve, self.metrics)
        self._worker = threading.Thread(
            target=run_coalescing_loop,
            args=(self._requests, self.predictor, self.config, reply),
            name="repro-serve-worker", daemon=True)
        self._worker.start()
        self._finalizer = weakref.finalize(self, _abort, self._requests,
                                           reply)
        return self

    def stop(self):
        """Drain outstanding requests, then stop the worker."""
        if self._worker is None:
            return
        self._finalizer.detach()
        self._finalizer = None
        self._requests.put(None)
        self._worker.join()
        self._worker = None

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def submit(self, rows):
        """Enqueue a request; returns a :class:`concurrent.futures.Future`
        of its probabilities.

        ``rows`` is a (usually single-admission) model-ready
        :class:`~repro.data.dataset.EMRDataset`; it may hold up to
        ``max_batch_size`` rows.  A failed forward sets
        :class:`ServeRequestError`, with the original exception as its
        ``__cause__``.
        """
        if self._worker is None:
            raise RuntimeError("MicroBatcher is not running; use it as a "
                               "context manager or call start()")
        if len(rows) > self.max_batch_size:
            raise ValueError(f"request of {len(rows)} rows exceeds "
                             f"max_batch_size={self.max_batch_size}")
        future = _Request()
        self._requests.put(("predict", future, rows))
        return future

    def predict_proba(self, rows, timeout=None):
        """Blocking convenience: submit and wait for the probabilities."""
        return self.submit(rows).result(timeout=timeout)
