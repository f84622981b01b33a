"""Checkpoint-backed inference: one ``Predictor`` for all registry models.

A :class:`Predictor` wraps any model satisfying the shared inference
protocol (:class:`repro.nn.InferenceMixin` — every registry model) and
exposes validated, training-free ``predict_proba`` / ``predict`` over
:class:`~repro.data.dataset.EMRDataset` batches.  Nothing from the
training stack (optimizer, callbacks, gradient graph) is constructed or
touched; forwards run in ``eval()`` mode under ``no_grad``.

Two batching disciplines, both bit-reproducible:

* **bulk** (``predict_proba(dataset)``) — chunks the dataset in order
  with the training batch size, which reproduces the training engine's
  ``predict_proba`` bit-for-bit (same shapes, same GEMMs);
* **fixed-shape** (``pad_to=k``) — pads every forward to exactly ``k``
  rows, making each admission's output independent of which other
  admissions shared its batch.  BLAS kernels are chosen per GEMM shape,
  so *only* a fixed shape makes dynamically coalesced micro-batches
  bit-identical to single-request forwards — this is the mode the
  :class:`~repro.serve.MicroBatcher` runs in.

:meth:`Predictor.load` rebuilds the exact trained architecture from a
run directory written by the training engine's Checkpointer: the
``model_spec`` recorded in ``config.json`` names the model and its
hyperparameters, and the ``best`` (or ``last``) checkpoint supplies the
weights.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter

from ..nn.backend import xp as np

from ..data.dataset import EMRDataset
from .config import ServeConfig, resolve_config

__all__ = ["Predictor"]


def _stack_rows(datasets):
    """Concatenate single-request datasets into one forward batch."""
    return EMRDataset(
        values=np.concatenate([d.values for d in datasets]),
        mask=np.concatenate([d.mask for d in datasets]),
        ever_observed=np.concatenate([d.ever_observed for d in datasets]),
        deltas=np.concatenate([d.deltas for d in datasets]),
        mortality=np.concatenate([d.mortality for d in datasets]),
        long_stay=np.concatenate([d.long_stay for d in datasets]),
    )


def _pad_rows(dataset, pad_to):
    """Zero-pad a dataset to exactly ``pad_to`` rows (labels unused)."""
    n = len(dataset)
    if n == pad_to:
        return dataset
    extra = pad_to - n

    def pad(array, fill=0):
        padding = np.zeros((extra,) + array.shape[1:], dtype=array.dtype)
        return np.concatenate([array, padding])

    return EMRDataset(
        values=pad(dataset.values),
        mask=pad(dataset.mask),
        ever_observed=pad(dataset.ever_observed),
        deltas=pad(dataset.deltas),
        mortality=pad(np.asarray(dataset.mortality)),
        long_stay=pad(np.asarray(dataset.long_stay)),
    )


class Predictor:
    """Serving-side wrapper over a trained registry model.

    Parameters
    ----------
    model:
        A module implementing the :class:`repro.nn.InferenceMixin`
        protocol (``predict_logits`` / ``predict_proba``).
    config:
        A :class:`~repro.serve.ServeConfig`.  The fields this component
        reads: ``batch_size`` (bulk-prediction chunk size; matching the
        training batch size reproduces the training engine's
        ``predict_proba`` bit-for-bit), ``capture`` (route forwards through inference
        graph capture, :func:`repro.nn.capture.trace` — ``None`` means
        off here), and ``max_captures`` (shape budget for captured
        graphs; bulk prediction needs two, the micro-batcher one).
    spec:
        Optional :class:`~repro.baselines.ModelSpec`; enables feature-
        count validation and round-trip introspection.  Defaults to the
        spec the registry attached to the model, if any.
    metrics:
        Optional :class:`~repro.serve.ServeMetrics` sink; every forward
        batch is recorded into it.
    """

    def __init__(self, model, config=None, *, spec=None, metrics=None):
        for method in ("predict_logits", "predict_proba"):
            if not callable(getattr(model, method, None)):
                raise TypeError(
                    f"model {type(model).__name__} does not implement the "
                    f"inference protocol ({method}); registry models gain "
                    "it from repro.nn.InferenceMixin")
        self.config = resolve_config(config, owner="Predictor")
        self.model = model
        self.batch_size = self.config.batch_size
        self.spec = spec if spec is not None else getattr(model, "spec", None)
        self.metrics = metrics
        self.capture = bool(self.config.capture)
        self.max_captures = self.config.max_captures
        self._graphs = {}
        self._capture_broken = False

    # ------------------------------------------------------------------
    # Input validation
    # ------------------------------------------------------------------
    def validate(self, batch):
        """Check a batch has model-ready shapes; raises ``ValueError``.

        Requires the four model-facing arrays with consistent (N, T, C)
        shapes, no NaNs in the imputed values, and — when the predictor
        knows its spec — the trained feature count.
        """
        for name in ("values", "mask", "ever_observed", "deltas"):
            if not hasattr(batch, name):
                raise ValueError(f"batch lacks required array {name!r}; "
                                 "expected an EMRDataset-like object")
        values = np.asarray(batch.values)
        if values.ndim != 3:
            raise ValueError(f"batch.values must be (N, T, C), "
                             f"got shape {values.shape}")
        n, steps, channels = values.shape
        if self.spec is not None and channels != self.spec.num_features:
            raise ValueError(
                f"batch has {channels} features but the model was trained "
                f"on {self.spec.num_features} (spec {self.spec.name!r})")
        for name in ("mask", "deltas"):
            shape = np.asarray(getattr(batch, name)).shape
            if shape != (n, steps, channels):
                raise ValueError(f"batch.{name} shape {shape} does not "
                                 f"match values {(n, steps, channels)}")
        ever = np.asarray(batch.ever_observed)
        if ever.shape != (n, channels):
            raise ValueError(f"batch.ever_observed shape {ever.shape} "
                             f"must be {(n, channels)}")
        if np.isnan(values).any():
            raise ValueError("batch.values contains NaNs; run the "
                             "preprocessing pipeline (repro.serve."
                             "PreprocessCache) before predicting")
        return batch

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict_logits(self, batch, pad_to=None):
        """Raw logits for a validated batch.

        With ``pad_to`` the forward runs at exactly that many rows
        (zero-padded, outputs sliced back) so the result is independent
        of batch composition — the micro-batcher's determinism
        guarantee.
        """
        self.validate(batch)
        n = len(batch)
        if pad_to is not None:
            if n > pad_to:
                raise ValueError(f"batch of {n} rows exceeds pad_to={pad_to}")
            started = perf_counter()
            logits = self._forward(_pad_rows(batch, pad_to))[:n]
        else:
            started = perf_counter()
            logits = self._forward(batch)
        if self.metrics is not None:
            self.metrics.record_batch(n, perf_counter() - started)
        return logits

    def _forward(self, batch):
        """One full-batch forward: captured replay when enabled, else eager."""
        if self.capture:
            from ..nn import capture as nn_capture

            graph = None if self._capture_broken else self._graph_for(batch)
            if graph is not None:
                try:
                    logits = graph.replay(batch)
                except nn_capture.CaptureError:
                    # Invalidated (parameter storage swap, dtype-policy
                    # change): drop stale graphs; next forward re-traces.
                    self._graphs.clear()
                else:
                    if self.metrics is not None:
                        self.metrics.record_capture(hit=True)
                    return logits
            if self.metrics is not None:
                self.metrics.record_capture(hit=False)
        return self.model.predict_logits(batch)

    def _graph_for(self, batch):
        """Captured graph for this batch's shape, tracing on first use.

        Returns ``None`` — eager fallback — when the model failed trace
        validation earlier, or the shape budget is spent on other
        shapes.  A model-level :class:`~repro.nn.capture.CaptureError`
        (unsupported forward, replaced parameter storage) marks capture
        broken for good rather than re-tracing every call.
        """
        from ..nn import capture as nn_capture

        key = tuple(np.asarray(getattr(batch, f)).shape
                    for f in nn_capture._INPUT_FIELDS)
        graph = self._graphs.get(key)
        if graph is not None:
            return graph
        if len(self._graphs) >= self.max_captures:
            return None
        try:
            graph = nn_capture.trace(self.model, batch)
        except nn_capture.CaptureError:
            self._capture_broken = True
            return None
        self._graphs[key] = graph
        return graph

    def predict_proba(self, batch, pad_to=None):
        """Predicted probabilities, chunked at the bulk batch size.

        Binary models return (N,); multi-class models return (N, K).
        Without ``pad_to``, chunking matches the training engine's
        evaluation pass bit-for-bit.
        """
        from ..metrics.probability import probabilities
        outputs = []
        for start in range(0, len(batch), self.batch_size):
            chunk = batch.subset(
                np.arange(start, min(start + self.batch_size, len(batch))))
            outputs.append(probabilities(
                self.predict_logits(chunk, pad_to=pad_to)))
        return np.concatenate(outputs)

    def predict_coalesced(self, rows_list, pad_to):
        """Probabilities for several requests from one padded forward.

        Stacks the requests' rows and runs a single forward of exactly
        ``pad_to`` rows, whatever the bulk chunk size, so each request's
        slice is bit-identical to serving it alone.  Returns one
        probability array per request, in order.
        """
        from ..metrics.probability import probabilities
        stacked = (_stack_rows(rows_list) if len(rows_list) > 1
                   else rows_list[0])
        probs = probabilities(self.predict_logits(stacked, pad_to=pad_to))
        return np.split(probs,
                        np.cumsum([len(rows) for rows in rows_list[:-1]]))

    def predict(self, batch, threshold=0.5):
        """Hard class predictions (thresholded binary or argmax)."""
        probabilities = self.predict_proba(batch)
        if probabilities.ndim == 1:
            return (probabilities >= threshold).astype(int)
        return probabilities.argmax(axis=-1)

    # ------------------------------------------------------------------
    # Streaming inference
    # ------------------------------------------------------------------
    def start_stream(self, batch_size=1):
        """Open a :class:`~repro.serve.StreamingSession` on this model.

        Each :meth:`step` on the returned session consumes one timestep
        slice and yields probabilities bit-identical to
        :meth:`predict_proba` over the same prefix (O(1) per step for
        natively streaming models, exact prefix replay otherwise).
        """
        from .streaming import StreamingSession
        return StreamingSession(self.model, batch_size=batch_size,
                                spec=self.spec, metrics=self.metrics)

    def step(self, session, values_t, mask_t=None, deltas_t=None):
        """Feed one observation row into a session from :meth:`start_stream`."""
        return session.step(values_t, mask_t=mask_t, deltas_t=deltas_t)

    # ------------------------------------------------------------------
    # Loading from run directories
    # ------------------------------------------------------------------
    @classmethod
    def load(cls, run_dir, checkpoint="best", metrics=None, config=None,
             persist=True):
        """Rebuild a predictor from a training run directory.

        Parameters
        ----------
        run_dir:
            Directory written by a ``run_dir``-enabled training run:
            ``config.json`` with a ``model_spec`` entry plus
            ``checkpoints/{best,last}/weights.npz``.
        checkpoint:
            ``"best"`` (best-on-validation; falls back to ``"last"``
            when no best snapshot exists) or ``"last"``.  A checkpoint
            save killed between its two renames is completed first, so
            the previous snapshot is served, not the fallback.
        config:
            An explicit :class:`~repro.serve.ServeConfig`, overriding
            the run directory's persisted ``serve`` block entirely —
            and persisted back into it, so the configuration
            round-trips: a later ``Predictor.load(run_dir)`` restores
            it.  Without it the persisted block is used (top-level
            training ``batch_size`` fills the gap for pre-ServeConfig
            run directories).
        persist:
            Set ``False`` to never write ``config.json`` back —
            replica-pool workers do this to avoid racing on the shared
            run directory.

        The model is rebuilt under the *current* precision policy
        (:func:`repro.nn.get_default_dtype`); a checkpoint stored in a
        wider float dtype (e.g. a float64 run served under float32) is
        cast once at load with a ``UserWarning``.  Bit-identity
        guarantees between training-time validation and served scores
        hold per dtype: serve under the dtype the run trained with to
        reproduce its scores exactly.
        """
        from ..baselines import ModelSpec
        from ..nn.serialization import load_weights
        from ..train.engine import finish_checkpoint_swap

        run_dir = Path(run_dir)
        config_path = run_dir / "config.json"
        if not config_path.exists():
            raise FileNotFoundError(
                f"no config.json under {run_dir}; train with run_dir=... "
                "(CLI: --run-dir) to produce a servable run directory")
        run_config = json.loads(config_path.read_text())
        spec_payload = run_config.get("model_spec")
        if not spec_payload:
            raise ValueError(
                f"{config_path} has no model_spec entry; re-train with a "
                "registry-built model (build_model attaches the spec)")
        spec = ModelSpec.from_dict(spec_payload)
        model = spec.build()

        if checkpoint not in ("best", "last"):
            raise ValueError("checkpoint must be 'best' or 'last'")
        for name in ("best", "last"):
            finish_checkpoint_swap(run_dir / "checkpoints" / name)
        weights = run_dir / "checkpoints" / checkpoint / "weights.npz"
        if checkpoint == "best" and not weights.exists():
            weights = run_dir / "checkpoints" / "last" / "weights.npz"
        if not weights.exists():
            raise FileNotFoundError(f"no checkpoint weights under "
                                    f"{run_dir / 'checkpoints'}")
        load_weights(model, weights)

        persisted = ServeConfig.from_run_config(run_config)
        serve_config = config if config is not None else persisted
        if persist and serve_config != persisted:
            run_config["serve"] = serve_config.to_dict()
            config_path.write_text(
                json.dumps(run_config, indent=2, sort_keys=True) + "\n")

        return cls(model, serve_config, spec=spec, metrics=metrics)
