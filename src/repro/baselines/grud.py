"""GRU-D baseline (Che et al., Scientific Reports 2018).

GRU with trainable exponential decay on both the inputs and the hidden
state, driven by the time since each feature was last observed:

    γ_x(t) = exp(-max(0, w_x ⊙ δ_t))        input decay toward the mean
    γ_h(t) = exp(-max(0, W_h δ_t + b_h))    hidden-state decay
    x̂_t   = m_t x_t + (1 - m_t)(γ_x x'_t + (1 - γ_x) x̄)

where ``m`` is the observation mask, ``x'`` the last observed value, and
``x̄`` the empirical mean (zero after standardization).  The GRU then
consumes ``[x̂_t ; m_t]``.

The whole sequence runs through the sequence-fused
:func:`repro.nn.ops.grud_scan` kernel (one graph node, every decay and
gate projection hoisted into pre-loop GEMMs, one hand-derived backward).
``tests/nn/oracles.py::grud_reference`` keeps the step-unrolled
composition the kernel is held to.
"""

from __future__ import annotations

from ..nn.backend import xp as np

from .. import nn
from ..nn import ops
from ..nn.dtype import get_default_dtype
from ..nn.layers import GRUCell
from ..nn.inference import InferenceMixin
from ..nn.module import Module, Parameter

__all__ = ["GRUD"]


class GRUD(Module, InferenceMixin):
    """Decay-augmented GRU for irregularly observed series.

    Operates on the dataset's LOCF-imputed values (which equal the last
    observation when unobserved and the true value when observed), the
    observation mask, and the per-feature observation deltas.
    """

    def __init__(self, num_features, rng, hidden_size=64):
        super().__init__()
        self.num_features = num_features
        self.hidden_size = hidden_size
        self.input_decay = Parameter(np.full(num_features, 0.1))
        self.hidden_decay_w = Parameter(
            nn.init.glorot_uniform((num_features, hidden_size), rng))
        self.hidden_decay_b = Parameter(np.zeros(hidden_size))
        self.cell = GRUCell(2 * num_features, hidden_size, rng)
        self.weight = Parameter(nn.init.glorot_uniform((hidden_size, 1), rng))
        self.bias = Parameter(np.zeros(1))

    def forward_batch(self, batch):
        values = nn.Tensor(batch.values)                # LOCF-imputed x'
        h0 = nn.Tensor(np.zeros((values.shape[0], self.hidden_size)))
        cell = self.cell
        h = ops.grud_scan(values, batch.mask, nn.Tensor(batch.deltas), h0,
                          self.input_decay, self.hidden_decay_w,
                          self.hidden_decay_b, cell.w_ih, cell.w_hh,
                          cell.b_ih, cell.b_hh)
        return (ops.matmul(h, self.weight) + self.bias).reshape(-1)

    # -- streaming inference (serve tier) ------------------------------
    stream_native = True

    def stream_begin(self, batch_size):
        return {"h": np.zeros((batch_size, self.hidden_size),
                              dtype=get_default_dtype())}

    def stream_step(self, state, values_t, mask_t=None, deltas_t=None):
        """One decayed GRU-D update on plain arrays, O(1) in prefix length.

        Runs :func:`repro.nn.ops.grud_scan_step` — bit-identical to one
        step of the fused scan that :meth:`forward_batch` uses — so the
        streamed logits match the full forward at every prefix
        bit-for-bit.
        """
        dtype = get_default_dtype()
        v_t = np.asarray(values_t, dtype=dtype)
        n, channels = v_t.shape
        m_t = (np.ones((n, channels), dtype=dtype) if mask_t is None
               else np.asarray(mask_t).astype(dtype))
        d_t = (np.zeros((n, channels), dtype=dtype) if deltas_t is None
               else np.asarray(deltas_t, dtype=dtype))
        cell = self.cell
        h = ops.grud_scan_step(
            v_t, m_t, d_t, state["h"], self.input_decay.data,
            self.hidden_decay_w.data, self.hidden_decay_b.data,
            cell.w_ih.data, cell.w_hh.data, cell.b_ih.data, cell.b_hh.data)
        logits = np.matmul(h, self.weight.data)
        logits += self.bias.data
        return {"h": h}, logits.reshape(-1)
