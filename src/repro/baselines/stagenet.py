"""StageNet baseline (Gao et al., WWW 2020).

A stage-aware LSTM: each step computes a "stage-progression" gate from the
hidden state, the running stage signal re-calibrates the cell state, and a
1-D convolution over the hidden trajectory extracts progression patterns
that are attention-pooled for the prediction.

This follows the published architecture's three ingredients (stage-aware
recurrence, convolutional progression extraction, re-calibration); the
time-interval conditioning is simplified to hourly steps since the
substrate emits regular sequences.

The recurrence runs through the sequence-fused
:func:`repro.nn.ops.stagenet_scan` kernel (gate and stage-gate input
projections hoisted into pre-loop GEMMs, one hand-derived backward for
the whole sequence).  ``tests/nn/oracles.py::stagenet_reference`` keeps
the step-unrolled composition the kernel is held to.
"""

from __future__ import annotations

from ..nn.backend import xp as np

from .. import nn
from ..nn import ops
from ..nn.dtype import get_default_dtype
from ..nn.layers import Conv1D, Dense, LSTMCell
from ..nn.inference import InferenceMixin
from ..nn.module import Module, Parameter

__all__ = ["StageNet"]


class StageNet(Module, InferenceMixin):
    """Stage-aware LSTM with convolutional progression patterns.

    Default sizes land near the ~85k parameters of the paper's Table III.
    """

    def __init__(self, num_features, rng, hidden_size=72, conv_channels=72,
                 kernel_size=5):
        super().__init__()
        self.hidden_size = hidden_size
        self.cell = LSTMCell(num_features, hidden_size, rng)
        self.stage_gate = Dense(hidden_size + num_features, 1, rng,
                                activation="sigmoid")
        self.conv = Conv1D(hidden_size, conv_channels, kernel_size, rng,
                           activation="relu")
        # No bias: the softmax over time cancels a shared score offset.
        self.attn = Dense(conv_channels, 1, rng, use_bias=False)
        self.weight = Parameter(
            nn.init.glorot_uniform((conv_channels + hidden_size, 1), rng))
        self.bias = Parameter(np.zeros(1))

    def forward_batch(self, batch):
        values = nn.Tensor(batch.values)
        batch_size = values.shape[0]
        h = nn.Tensor(np.zeros((batch_size, self.hidden_size)))
        c = nn.Tensor(np.zeros((batch_size, self.hidden_size)))
        cell = self.cell
        trajectory = ops.stagenet_scan(
            values, h, c, cell.w_ih, cell.w_hh, cell.bias,
            self.stage_gate.weight, self.stage_gate.bias)
        return self._head(trajectory, trajectory[:, -1, :])

    def _head(self, trajectory, h_last):
        """Conv + attention pool over the hidden trajectory, then fuse
        with the final state.  Shared between the full forward and the
        streaming path so the two stay bit-identical on equal inputs.
        """
        patterns = self.conv(trajectory)                        # (B,T,K)
        weights = ops.softmax(self.attn(patterns), axis=1)      # (B,T,1)
        pooled = ops.sum(weights * patterns, axis=1)            # (B,K)
        fused = ops.concat([pooled, h_last], axis=-1)
        return (ops.matmul(fused, self.weight) + self.bias).reshape(-1)

    # -- streaming inference (serve tier) ------------------------------
    stream_native = True

    def stream_begin(self, batch_size):
        dtype = get_default_dtype()
        return {
            "h": np.zeros((batch_size, self.hidden_size), dtype=dtype),
            "c": np.zeros((batch_size, self.hidden_size), dtype=dtype),
            "states": [],
        }

    def stream_step(self, state, values_t, mask_t=None, deltas_t=None):
        """Stage-aware recurrence in O(1) via
        :func:`repro.nn.ops.stagenet_scan_step` (bit-identical to one
        fused-scan step); head recomputed over the stored trajectory
        (O(t) — inherent to the conv+attention pool, which reweights
        *all* past patterns each step).
        """
        cell = self.cell
        x_t = np.asarray(values_t, dtype=get_default_dtype())
        h, c = ops.stagenet_scan_step(
            x_t, state["h"], state["c"], cell.w_ih.data, cell.w_hh.data,
            cell.bias.data, self.stage_gate.weight.data,
            self.stage_gate.bias.data)
        states = state["states"] + [h]
        trajectory = nn.Tensor(np.stack(states, axis=1))
        logits = self._head(trajectory, nn.Tensor(h))
        return {"h": h, "c": c, "states": states}, logits
