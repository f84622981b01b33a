"""Attention mechanisms.

Provides the attention building blocks used across the baselines:

* :class:`AdditiveAttention` — Bahdanau-style scoring (Dipole's "concat"
  variant, RETAIN's visit attention);
* :class:`LocationAttention` — score from the hidden state alone
  (Dipole's "location" variant);
* :class:`GeneralAttention` — bilinear query-key scoring (Dipole's
  "general" variant);
* :class:`MultiHeadSelfAttention` — transformer-style self-attention with
  an optional causal mask (SAnD, ConCare).
"""

from __future__ import annotations

from ..backend import xp as np

from .. import init, ops
from ..module import Module, Parameter
from .dense import Dense

__all__ = ["LocationAttention", "GeneralAttention", "AdditiveAttention",
           "MultiHeadSelfAttention"]


def _causal_mask(steps):
    """The additive causal mask for ``steps`` positions, cached.

    The mask is a pure function of the step count; caching it matters
    for the incremental streaming paths (SAnD reruns its attention
    blocks over the cached prefix every step, so without the cache each
    served observation would rebuild one mask per block).  The cached
    array is shared — callers must treat it as read-only, which the
    additive ``scores + mask`` below does.
    """
    mask = _CAUSAL_MASKS.get(steps)
    if mask is None:
        mask = np.triu(np.full((steps, steps), -1e9), k=1)
        _CAUSAL_MASKS[steps] = mask
    return mask


_CAUSAL_MASKS = {}


class LocationAttention(Module):
    """Score each time step from its own hidden state: ``a_t = w^T h_t``.

    The usual ``+ b`` is constant over the time axis the scores are
    softmaxed along, so it cancels and is not a parameter.
    """

    def __init__(self, hidden_size, rng):
        super().__init__()
        self.weight = Parameter(init.glorot_uniform((hidden_size, 1), rng))

    def forward(self, states):
        """``states``: (batch, time, hidden) -> scores (batch, time, 1)."""
        return ops.matmul(states, self.weight)


class GeneralAttention(Module):
    """Bilinear score between a query state and each key: ``q^T W k``."""

    def __init__(self, hidden_size, rng):
        super().__init__()
        self.weight = Parameter(init.glorot_uniform((hidden_size, hidden_size), rng))

    def forward(self, query, keys):
        """``query``: (batch, hidden); ``keys``: (batch, time, hidden)."""
        projected = ops.matmul(query, self.weight)          # (B, H)
        scores = ops.sum(keys * projected.reshape(-1, 1, projected.shape[-1]),
                         axis=-1, keepdims=True)             # (B, T, 1)
        return scores


class AdditiveAttention(Module):
    """Bahdanau attention: ``v^T tanh(W_q q + W_k k)``."""

    def __init__(self, hidden_size, attention_size, rng):
        super().__init__()
        self.query_proj = Dense(hidden_size, attention_size, rng, use_bias=False)
        self.key_proj = Dense(hidden_size, attention_size, rng, use_bias=True)
        self.score_vec = Parameter(init.glorot_uniform((attention_size, 1), rng))

    def forward(self, query, keys):
        """``query``: (batch, hidden); ``keys``: (batch, time, hidden)."""
        q = self.query_proj(query)                           # (B, A)
        k = self.key_proj(keys)                              # (B, T, A)
        mixed = ops.tanh(k + q.reshape(-1, 1, q.shape[-1]))
        return ops.matmul(mixed, self.score_vec)             # (B, T, 1)


class MultiHeadSelfAttention(Module):
    """Scaled dot-product multi-head self-attention over (batch, time, model)."""

    def __init__(self, model_size, num_heads, rng, causal=False):
        super().__init__()
        if model_size % num_heads:
            raise ValueError("model_size must be divisible by num_heads")
        self.model_size = model_size
        self.num_heads = num_heads
        self.head_size = model_size // num_heads
        self.causal = causal
        self.query = Dense(model_size, model_size, rng, use_bias=False)
        self.key = Dense(model_size, model_size, rng, use_bias=False)
        self.value = Dense(model_size, model_size, rng, use_bias=False)
        self.output = Dense(model_size, model_size, rng, use_bias=True)

    def _split_heads(self, x, batch, steps):
        x = x.reshape(batch, steps, self.num_heads, self.head_size)
        return x.swapaxes(1, 2)                              # (B, H, T, d)

    def forward(self, x, return_weights=False):
        batch, steps, _ = x.shape
        q = self._split_heads(self.query(x), batch, steps)
        k = self._split_heads(self.key(x), batch, steps)
        v = self._split_heads(self.value(x), batch, steps)
        scores = ops.matmul(q, k.swapaxes(-1, -2)) / np.sqrt(self.head_size)
        if self.causal:
            scores = scores + _causal_mask(steps)
        weights = ops.softmax(scores, axis=-1)               # (B, H, T, T)
        context = ops.matmul(weights, v)                     # (B, H, T, d)
        context = context.swapaxes(1, 2).reshape(batch, steps, self.model_size)
        out = self.output(context)
        if return_weights:
            return out, weights
        return out
