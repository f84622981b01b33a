"""``repro.serve`` — the inference runtime, decoupled from training.

Inference through the training engine drags the whole training stack
(optimizer, callbacks, gradient bookkeeping) into the inference path;
this package is the serving half the ROADMAP's north star asks for.
One configuration object drives every component:

* :class:`ServeConfig` — every serving knob (batching, caching, pool
  sizing, deadlines) in one frozen JSON-able dataclass, persisted
  as the ``serve`` block of a run directory's ``config.json``.
* :class:`Predictor` — wraps any registry model + checkpoint behind one
  validated ``predict_proba`` / ``predict`` surface, running ``eval()``
  forwards under ``no_grad``.  :meth:`Predictor.load` rebuilds the exact
  trained architecture from a run directory (``config.json`` model spec
  + Checkpointer weights) and restores its persisted serving config.
* :class:`StreamingSession` / :class:`SessionStore` —
  **stateful streaming inference**: each new hourly observation
  advances the model's cached state (O(1) for the recurrences), or
  replays the exact prefix for models without streaming hooks,
  bit-identical to the full forward at every prefix.  Open one
  with :meth:`Predictor.start_stream`.
* :class:`MicroBatcher` — coalesces concurrent single-admission requests
  into padded fixed-shape batches, turning per-request forwards into the
  batched GEMMs the fused kernels are optimized for, with
  **bit-identical** results regardless of how requests were coalesced;
  ``submit`` returns a :class:`concurrent.futures.Future`.
* :class:`ReplicaPool` / :class:`AsyncServeFrontend` — shared-nothing
  multi-process serving: forked workers each rebuild the model from the
  run directory's spec + checkpoint, stateless predicts round-robin,
  streaming steps shard stickily by admission id, and the asyncio
  front-end adds bounded backpressure plus per-request deadlines.
* :class:`PreprocessCache` — LRU-memoized raw-admission preprocessing
  (cleaning, train-split standardization, imputation, deltas) keyed by
  admission id.
* :class:`ServeMetrics` — thread-safe serving metrics (request count,
  batch-size histogram, p50/p95/p99 latency, cache hit rate, stream
  counters) with ``SERVE_*.json`` reports following the
  :mod:`repro.bench` conventions; worker snapshots merge across the
  pool.

Quickstart (see docs/SERVING.md)::

    repro train --model GRU --run-dir runs/gru      # train + checkpoint
    repro predict --run-dir runs/gru                # bulk predictions
    repro serve --run-dir runs/gru --requests 512   # micro-batched load
    repro loadtest --run-dir runs/gru --workers 2   # pool under traffic

or in code::

    from repro.serve import Predictor, ReplicaPool, ServeConfig

    predictor = Predictor.load("runs/gru")
    probs = predictor.predict_proba(dataset)        # == engine bit-for-bit

    session = predictor.start_stream()              # one ICU admission
    for t in range(48):
        risk = session.step(values[:, t], mask[:, t], deltas[:, t])

    config = ServeConfig(workers=4, deadline_ms=50.0)
    with ReplicaPool("runs/gru", config=config) as pool:
        p = pool.predict_proba(one_admission)       # from any thread
"""

from .batcher import MicroBatcher, ServeRequestError
from .cache import PreprocessCache, prepare_admission
from .config import ServeConfig, resolve_config
from .loadtest import check_floor, run_loadtest
from .metrics import ServeMetrics
from .pool import (AsyncServeFrontend, ReplicaPool, ServeDeadlineError,
                   ServeOverloadError, ServeWorkerError)
from .predictor import Predictor
from .streaming import SessionStore, StreamingSession

__all__ = [
    "ServeConfig", "resolve_config",
    "Predictor",
    "StreamingSession", "SessionStore",
    "MicroBatcher", "ServeRequestError",
    "ReplicaPool", "AsyncServeFrontend",
    "ServeDeadlineError", "ServeOverloadError", "ServeWorkerError",
    "PreprocessCache", "prepare_admission",
    "ServeMetrics",
    "run_loadtest", "check_floor",
]
