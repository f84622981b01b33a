"""Stateful streaming inference: O(1) per-observation risk updates.

ELDA-style monitoring scores an ICU admission again after *every* new
hourly observation.  The batch serving path recomputes the full
sequence each time — 48 timesteps of recurrence to incorporate one new
row.  A :class:`StreamingSession` instead carries the recurrent state
(GRU/LSTM hidden state, per-feature summaries) across calls, so each
:meth:`~StreamingSession.step` consumes exactly one timestep slice.

The contract is **bit-identity**: after ``t`` calls to ``step``, the
returned probabilities equal ``predict_proba`` over the same ``t``-step
prefix, bit for bit, in both dtype planes
(``tests/serve/test_streaming.py`` pins every registry model).  Two
mechanisms deliver it:

* models advertising ``stream_native = True`` advance real state via
  their ``stream_begin`` / ``stream_step`` hooks.  For a causal per-step
  recurrence (GRU, GRU-D, StageNet, ConCare) the update is O(1) per
  step: the GRU/LSTM hooks replay the fused scan kernels' exact ufunc
  tail and keep every GEMM in the BLAS row-stable regime
  (:func:`repro.nn.ops.gru_scan_step`), which is what makes the
  step-by-step arithmetic match the one-shot scan.  Models whose
  readout looks at the whole prefix (RETAIN, Dipole, SAnD, every
  ELDA-Net variant) keep cached per-step projections and running
  recurrent states; each step computes only the new timestep's
  projections plus the attention readout over the cache, never
  re-projecting or re-encoding earlier steps (see
  :func:`repro.nn.ops.linear_rows` for why the cached rows are
  bit-stable);
* models without the flag (the set-style LR/FM/AFM heads) fall back to
  **exact prefix replay** — the session buffers the fed steps and
  reruns the full forward, which is identical by construction (same
  arrays, same forward).

Identity holds per batch width: a session over ``n`` admissions matches
a full forward over those same ``n`` rows (BLAS kernels are chosen per
GEMM shape — the same reason the MicroBatcher pads to a fixed shape).

:class:`SessionStore` maps admission ids to sessions with LRU eviction —
the pool workers' per-admission state store.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from time import perf_counter

from ..nn.backend import xp as np

from ..data.dataset import EMRDataset
from ..nn.dtype import get_default_dtype
from ..nn.tensor import no_grad

__all__ = ["StreamingSession", "SessionStore"]


class StreamingSession:
    """Per-admission (or per-cohort-slice) streaming inference state.

    Parameters
    ----------
    model:
        Any registry model (an :class:`~repro.nn.InferenceMixin`).
        Models advertising ``stream_native`` stream from their own
        cached state; the rest stream by exact prefix replay.
    batch_size:
        Number of admissions fed per step.  Bit-identity is guaranteed
        against full forwards over this same number of rows.
    spec:
        Optional :class:`~repro.baselines.ModelSpec` for feature-count
        validation.
    metrics:
        Optional :class:`~repro.serve.ServeMetrics`; session opens and
        per-step latencies are recorded (``record_stream_*``).
    """

    def __init__(self, model, batch_size=1, spec=None, metrics=None):
        if not callable(getattr(model, "predict_logits", None)):
            raise TypeError(
                f"model {type(model).__name__} does not implement the "
                "inference protocol (predict_logits)")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.model = model
        self.batch_size = int(batch_size)
        self.spec = spec if spec is not None else getattr(model, "spec", None)
        self.metrics = metrics
        self.native = bool(getattr(model, "stream_native", False))
        self.last_probs = None
        self._state = None
        self._steps = 0
        self._values = []
        self._masks = []
        self._deltas = []
        if self.native:
            self._state = model.stream_begin(self.batch_size)
        if self.metrics is not None:
            self.metrics.record_stream_session()

    @property
    def steps(self):
        """Number of timesteps fed so far."""
        return self._steps

    def reset(self):
        """Forget all fed steps; the session restarts from t=0."""
        self._steps = 0
        self.last_probs = None
        self._values, self._masks, self._deltas = [], [], []
        self._state = (self.model.stream_begin(self.batch_size)
                       if self.native else None)

    # ------------------------------------------------------------------
    def _check_step(self, values_t, mask_t, deltas_t):
        values_t = np.asarray(values_t)
        if values_t.ndim != 2:
            raise ValueError(f"values_t must be (batch, features), "
                             f"got shape {values_t.shape}")
        n, channels = values_t.shape
        if n != self.batch_size:
            raise ValueError(f"values_t has {n} rows but the session was "
                             f"opened for batch_size={self.batch_size}")
        if self.spec is not None and channels != self.spec.num_features:
            raise ValueError(
                f"values_t has {channels} features but the model was "
                f"trained on {self.spec.num_features} "
                f"(spec {self.spec.name!r})")
        if np.isnan(values_t).any():
            raise ValueError("values_t contains NaNs; feed imputed values "
                             "(repro.serve.PreprocessCache output)")
        if mask_t is None:
            mask_t = np.ones((n, channels), dtype=bool)
        else:
            mask_t = np.asarray(mask_t, dtype=bool)
            if mask_t.shape != (n, channels):
                raise ValueError(f"mask_t shape {mask_t.shape} does not "
                                 f"match values {(n, channels)}")
        if deltas_t is None:
            deltas_t = np.zeros((n, channels))
        else:
            deltas_t = np.asarray(deltas_t)
            if deltas_t.shape != (n, channels):
                raise ValueError(f"deltas_t shape {deltas_t.shape} does not "
                                 f"match values {(n, channels)}")
        return values_t, mask_t, deltas_t

    def _prefix_dataset(self):
        """The fed steps as a model-ready dataset (replay fallback)."""
        mask = np.stack(self._masks, axis=1)
        return EMRDataset(
            values=np.stack(self._values, axis=1),
            mask=mask,
            ever_observed=mask.any(axis=1),
            deltas=np.stack(self._deltas, axis=1),
            mortality=np.zeros(self.batch_size),
            long_stay=np.zeros(self.batch_size),
        )

    def step(self, values_t, mask_t=None, deltas_t=None):
        """Feed one timestep; returns probabilities *as of this prefix*.

        ``values_t`` is ``(batch, features)`` of imputed values;
        ``mask_t`` (observation indicators, default all-observed) and
        ``deltas_t`` (hours since each feature's last observation,
        default zero) feed the mask/decay-aware models.  Binary models
        return ``(batch,)``, multi-class ``(batch, K)``.
        """
        values_t, mask_t, deltas_t = self._check_step(
            values_t, mask_t, deltas_t)
        started = perf_counter()
        if self.native:
            model = self.model
            was_training = model.training
            model.eval()
            # Count the step up front: a model that rejects a short
            # prefix (attention needs two steps) has already recorded
            # the observation into its state, mirroring the replay
            # path's buffer-then-predict ordering.
            self._steps += 1
            try:
                with no_grad():
                    self._state, logits = model.stream_step(
                        self._state, values_t, mask_t, deltas_t)
            finally:
                model.train(was_training)
            if getattr(logits, "requires_grad", False) or \
                    getattr(logits, "_backward", None) is not None:
                raise RuntimeError(
                    f"{type(model).__name__}.stream_step built autodiff "
                    "graph state under no_grad")
            logits = np.asarray(getattr(logits, "data", logits),
                                dtype=get_default_dtype())
        else:
            # Buffer first, then predict: a model that rejects short
            # prefixes (e.g. attention over t-1 earlier steps needs two)
            # keeps the observation and serves it once enough arrived.
            self._values.append(np.array(values_t))
            self._masks.append(np.array(mask_t))
            self._deltas.append(np.array(deltas_t))
            self._steps += 1
            logits = self.model.predict_logits(self._prefix_dataset())
        if self.metrics is not None:
            self.metrics.record_stream_step(perf_counter() - started,
                                            native=self.native)
        from ..metrics.probability import probabilities
        probs = probabilities(logits)
        self.last_probs = probs
        return probs


class SessionStore:
    """Thread-safe LRU map of admission id -> :class:`StreamingSession`.

    The replica-pool workers' per-admission state: a step request for an
    unseen admission opens a fresh single-row session; the least
    recently *stepped* admission is evicted beyond ``capacity``.
    Individual sessions are not internally synchronized — callers must
    not step the same admission concurrently (the pool's sticky
    sharding guarantees this).
    """

    def __init__(self, predictor, capacity=1024, metrics=None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.predictor = predictor
        self.capacity = int(capacity)
        self.metrics = (metrics if metrics is not None
                        else getattr(predictor, "metrics", None))
        self._lock = threading.Lock()
        self._sessions = OrderedDict()

    def session(self, admission_id, batch_size=1):
        """The admission's session, opened on first use."""
        with self._lock:
            session = self._sessions.get(admission_id)
            if session is None:
                session = StreamingSession(
                    self.predictor.model, batch_size=batch_size,
                    spec=getattr(self.predictor, "spec", None),
                    metrics=self.metrics)
                self._sessions[admission_id] = session
            self._sessions.move_to_end(admission_id)
            while len(self._sessions) > self.capacity:
                self._sessions.popitem(last=False)
            return session

    def step(self, admission_id, values_t, mask_t=None, deltas_t=None):
        """Feed one observation row for an admission; returns probs."""
        values_rows = np.asarray(values_t)
        batch_size = values_rows.shape[0] if values_rows.ndim == 2 else 1
        session = self.session(admission_id, batch_size=batch_size)
        return session.step(values_t, mask_t=mask_t, deltas_t=deltas_t)

    def close(self, admission_id):
        """Drop an admission's session (e.g. the stay ended)."""
        with self._lock:
            return self._sessions.pop(admission_id, None) is not None

    def __len__(self):
        with self._lock:
            return len(self._sessions)

    def __contains__(self, admission_id):
        with self._lock:
            return admission_id in self._sessions
