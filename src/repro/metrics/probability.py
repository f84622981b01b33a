"""Shared probability and loss math on raw numpy arrays.

The training engine, the evaluation helpers, and the CLI all need the
same three pieces of arithmetic — a numerically stable softmax, a
sigmoid, and the clipped multi-class log-loss.  They live here once so
the engine's evaluation path and any reporting code agree bit-for-bit
(they used to be re-implemented inline in ``Trainer.predict_proba`` /
``Trainer.evaluate``).
"""

from __future__ import annotations

from ..nn.backend import xp as np

__all__ = ["softmax_probs", "sigmoid_probs", "probabilities",
           "multiclass_ce", "evaluate_multiclass"]

_CE_EPS = 1e-12


def _as_float(logits):
    """Keep floating inputs in their own precision (the policy plane);
    promote non-float inputs through the ambient policy dtype."""
    logits = np.asarray(logits)
    if logits.dtype.kind != "f":
        from ..nn.dtype import get_default_dtype
        return logits.astype(get_default_dtype())
    return logits


def softmax_probs(logits):
    """Row-stochastic softmax of a logits array along the last axis.

    Shift-by-max keeps the exponentials finite for any input scale.
    """
    logits = _as_float(logits)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exped = np.exp(shifted)
    return exped / exped.sum(axis=-1, keepdims=True)


def sigmoid_probs(logits):
    """Element-wise logistic sigmoid of a logits array."""
    logits = _as_float(logits)
    return 1.0 / (1.0 + np.exp(-logits))


def probabilities(logits):
    """Probabilities from a model head's logits: the sigmoid of 1-D
    (binary) logits, the row-wise softmax of 2-D (multi-class) logits."""
    if logits.ndim == 1:
        return sigmoid_probs(logits)
    return softmax_probs(logits)


def multiclass_ce(probs, labels):
    """Mean clipped negative log-likelihood of integer class labels.

    ``probs`` is an (N, K) row-stochastic matrix; ``labels`` an (N,)
    array of class indices.  Probabilities are clipped at 1e-12 so a
    confidently wrong model yields a large-but-finite loss.
    """
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels).astype(int)
    picked = np.clip(probs[np.arange(len(labels)), labels], _CE_EPS, None)
    return float(-np.log(picked).mean())


def evaluate_multiclass(probs, labels):
    """The multi-class metric pair: cross-entropy and accuracy."""
    labels = np.asarray(labels).astype(int)
    return {
        "ce": multiclass_ce(probs, labels),
        "accuracy": float((np.asarray(probs).argmax(axis=-1) == labels).mean()),
    }
