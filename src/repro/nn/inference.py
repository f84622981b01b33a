"""Shared inference protocol for batch classifiers.

Every registry model implements training through
``forward_batch(batch) -> logits``; :class:`InferenceMixin` derives the
*serving* surface from that single method, so all models satisfy one
``Predictor`` protocol (see :mod:`repro.serve`):

* :meth:`~InferenceMixin.predict_logits` — raw logits as a numpy array,
  computed in ``eval()`` mode under :class:`~repro.nn.tensor.no_grad`;
* :meth:`~InferenceMixin.predict_proba` — probabilities (sigmoid for 1-D
  binary logits, row-stochastic softmax for 2-D multi-class logits);
* :meth:`~InferenceMixin.predict` — hard labels.

The mixin enforces the no-grad fast path: if the forward somehow wires
its output into the autodiff graph (a leaked ``requires_grad`` tensor,
an op bypassing the global switch), ``predict_logits`` raises instead of
silently serving with graph-building overhead.  The probability math is
shared with the training engine (:mod:`repro.metrics.probability`), so
training-time validation scores and served scores agree bit-for-bit.
"""

from __future__ import annotations

from .backend import xp as np

from .dtype import get_default_dtype
from .tensor import no_grad

__all__ = ["InferenceMixin"]


class InferenceMixin:
    """Inference methods derived from ``forward_batch``.

    Mix into any :class:`~repro.nn.module.Module` subclass that
    implements ``forward_batch(batch) -> logits``.  The host class
    provides ``training`` / ``train()`` / ``eval()``.

    Streaming protocol
    ------------------
    Models that keep reusable per-prefix state may set
    ``stream_native = True`` and implement

    * ``stream_begin(batch_size) -> state`` — fresh per-session state;
    * ``stream_step(state, values_t, mask_t, deltas_t) -> (state, logits)``
      — consume one ``(batch, features)`` timestep slice and produce the
      logits *as of that prefix*, bit-identical to ``predict_logits``
      over the same prefix (see docs/SERVING.md for the contract).

    A causal per-step recurrence (GRU, GRU-D, StageNet, ConCare) makes
    ``stream_step`` O(1).  A model whose readout looks at the whole
    prefix (RETAIN, Dipole, SAnD, ELDA-Net) may do O(t) readout work
    over its cached state, but never recomputes the per-step
    projections or recurrences of earlier steps.  Two extra rules apply
    to such hooks:

    * record the new observation into ``state`` (in place) *before* any
      computation that can raise — a model that rejects short prefixes
      (e.g. attention over ``t-1`` earlier steps needs two) must keep
      the observation so the same session can serve it once enough
      steps arrived;
    * a readout that cannot be produced from cached per-step pieces
      bit-identically (the ``t == 1`` GEMV-regime projections — see
      :func:`repro.nn.ops.linear_rows`) is served via the exact full
      forward for that prefix while the cache is still updated.

    :class:`repro.serve.StreamingSession` drives the hooks under
    ``eval()`` + ``no_grad``; models without the flag are streamed by
    exact prefix replay instead, so every model supports the streaming
    surface.
    """

    #: True on models implementing stream_begin/stream_step natively;
    #: the serving session replays prefixes for everything else.
    stream_native = False

    def stream_begin(self, batch_size):
        raise NotImplementedError(
            f"{type(self).__name__} does not implement native streaming; "
            "use repro.serve.StreamingSession, which falls back to exact "
            "prefix replay")

    def stream_step(self, state, values_t, mask_t=None, deltas_t=None):
        raise NotImplementedError(
            f"{type(self).__name__} does not implement native streaming; "
            "use repro.serve.StreamingSession, which falls back to exact "
            "prefix replay")

    def predict_logits(self, batch):
        """Raw output logits for a batch as a plain numpy array.

        Runs in ``eval()`` mode under ``no_grad`` and restores the
        previous train/eval mode on exit.  Raises ``RuntimeError`` if
        the forward pass built autodiff graph state — the serving fast
        path must never pay for backward bookkeeping.
        """
        was_training = self.training
        self.eval()
        try:
            with no_grad():
                logits = self.forward_batch(batch)
        finally:
            self.train(was_training)
        if getattr(logits, "requires_grad", False) or \
                getattr(logits, "_backward", None) is not None:
            raise RuntimeError(
                f"{type(self).__name__}.forward_batch built autodiff graph "
                "state under no_grad; the inference fast path requires "
                "graph-free forwards")
        # Policy dtype, not a hard-coded float64: the serve path stays in
        # the same precision plane as the forward that produced it.
        return np.asarray(getattr(logits, "data", logits),
                          dtype=get_default_dtype())

    def predict_proba(self, batch):
        """Predicted probabilities for a batch.

        1-D logits (binary classifiers) map through the logistic
        sigmoid to a vector of positive-class probabilities; 2-D
        logits (multi-class heads) map through a row-stochastic
        softmax to an (N, K) matrix.
        """
        from ..metrics.probability import probabilities
        return probabilities(self.predict_logits(batch))

    def predict(self, batch, threshold=0.5):
        """Hard class predictions: thresholded (binary) or argmax."""
        probabilities = self.predict_proba(batch)
        if probabilities.ndim == 1:
            return (probabilities >= threshold).astype(int)
        return probabilities.argmax(axis=-1)
