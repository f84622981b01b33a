"""ConCare baseline (Ma et al., AAAI 2020).

ConCare processes *each medical feature separately* with its own GRU and
then lets the per-feature summaries exchange information through
multi-head self-attention, capturing cross-feature interdependencies.

The per-feature GRUs are vectorized: all ``C`` single-input GRUs run as
one stacked recurrence with per-feature weight slices through
:func:`repro.nn.ops.per_feature_gru_scan` — equivalent to ``C``
independent GRUs, but one graph node for the whole sequence with a
hand-derived backward, instead of a Python loop of small autodiff ops
per timestep.  Streaming inference advances the same recurrence one step
at a time with the array kernel ``ops.per_feature_gru_scan_step``, which
reproduces the scan's state bit for bit.
"""

from __future__ import annotations

from ..nn.backend import xp as np

from .. import nn
from ..nn import ops
from ..nn.layers import MultiHeadSelfAttention
from ..nn.inference import InferenceMixin
from ..nn.module import Module, Parameter

__all__ = ["ConCare", "PerFeatureGRU"]


class PerFeatureGRU(Module):
    """C independent single-input GRUs computed as one stacked recurrence.

    Input ``(B, T, C)`` -> output ``(B, C, H)``: the final hidden state of
    feature *c*'s GRU over its scalar time series.
    """

    def __init__(self, num_features, hidden_size, rng):
        super().__init__()
        self.num_features = num_features
        self.hidden_size = hidden_size
        # Per-feature kernels: input weights (C, 1, 3H) and recurrent
        # weights (C, H, 3H), biases (C, 3H).
        self.w_ih = Parameter(nn.init.glorot_uniform(
            (num_features, 1, 3 * hidden_size), rng))
        self.w_hh = Parameter(np.stack([
            nn.init.orthogonal((hidden_size, 3 * hidden_size), rng)
            for _ in range(num_features)]))
        self.bias = Parameter(np.zeros((num_features, 3 * hidden_size)))

    def forward(self, values):
        return ops.per_feature_gru_scan(values, self.w_ih, self.w_hh,
                                        self.bias)         # (B, C, H)

    # -- streaming inference (serve tier) ------------------------------
    def initial_state(self, batch_size):
        """Zero gate-major stacked state ``(C, H, B)`` for
        :meth:`stream_step`."""
        return nn.Tensor(np.zeros(
            (self.num_features, self.hidden_size, batch_size)))

    def stream_step(self, h, x_t):
        """One stacked per-feature GRU step for one timestep slice.

        ``x_t`` is a ``(B, C)`` tensor; returns the new ``(C, H, B)``
        state, bit-identical to the state :meth:`forward` reaches after
        the same prefix.
        """
        return nn.Tensor(ops.per_feature_gru_scan_step(
            x_t.data, h.data, self.w_ih.data, self.w_hh.data,
            self.bias.data))


class ConCare(Module, InferenceMixin):
    """Per-feature GRUs + cross-feature self-attention.

    Default sizes land near the ~183k parameters of the paper's Table III
    (ConCare is the largest baseline there, as here).
    """

    def __init__(self, num_features, rng, feature_hidden=32, num_heads=4):
        super().__init__()
        self.num_features = num_features
        self.feature_hidden = feature_hidden
        self.encoder = PerFeatureGRU(num_features, feature_hidden, rng)
        self.attention = MultiHeadSelfAttention(feature_hidden, num_heads, rng)
        self.weight = Parameter(nn.init.glorot_uniform(
            (num_features * feature_hidden, 1), rng))
        self.bias = Parameter(np.zeros(1))

    def forward_batch(self, batch):
        summaries = self.encoder(nn.Tensor(batch.values))   # (B, C, H)
        attended = self.attention(summaries)                # (B, C, H)
        flat = attended.reshape(attended.shape[0],
                                self.num_features * self.feature_hidden)
        return (ops.matmul(flat, self.weight) + self.bias).reshape(-1)

    # -- streaming inference (serve tier) ------------------------------
    stream_native = True

    def stream_begin(self, batch_size):
        return {"h": self.encoder.initial_state(batch_size)}

    def stream_step(self, state, values_t, mask_t=None, deltas_t=None):
        """Fully O(1) per step: the per-feature recurrence advances once
        and the cross-feature attention head is constant in sequence
        length (it attends over features, not time).
        """
        h = self.encoder.stream_step(state["h"], nn.Tensor(values_t))
        summaries = h.transpose((2, 0, 1))                  # (B, C, H)
        attended = self.attention(summaries)
        flat = attended.reshape(attended.shape[0],
                                self.num_features * self.feature_hidden)
        logits = (ops.matmul(flat, self.weight) + self.bias).reshape(-1)
        return {"h": h}, logits
