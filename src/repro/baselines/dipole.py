"""Dipole baselines (Ma et al., KDD 2017).

A bidirectional GRU backbone with one of three attention mechanisms over
the hidden states:

* ``location`` (Dipole_l) — score each step from its own state;
* ``general``  (Dipole_g) — bilinear score against the last state;
* ``concat``   (Dipole_c) — additive (Bahdanau) score against the last
  state.

The attended context is fused with the final state through a tanh layer
before the output head.  The attention weights are exposed for the
time-level interpretability comparison of Figure 8 (the paper contrasts
ELDA's β with Dipole_c's weights).
"""

from __future__ import annotations

from ..nn.backend import xp as np

from .. import nn
from ..nn import ops
from ..nn.dtype import get_default_dtype
from ..nn.layers import (AdditiveAttention, BiGRU, Dense, GeneralAttention,
                         LocationAttention)
from ..nn.inference import InferenceMixin
from ..nn.module import Module, Parameter

__all__ = ["Dipole"]

_VARIANTS = ("location", "general", "concat")


class Dipole(Module, InferenceMixin):
    """Attention-based bidirectional GRU.

    Parameters
    ----------
    variant:
        ``"location"``, ``"general"``, or ``"concat"``.
    hidden_size:
        Per-direction GRU size; hidden states have 2x this width.
    """

    def __init__(self, num_features, rng, variant="location", hidden_size=48,
                 attention_size=32):
        super().__init__()
        if variant not in _VARIANTS:
            raise ValueError(f"unknown Dipole variant {variant!r}; "
                             f"choose from {_VARIANTS}")
        self.variant = variant
        self.encoder = BiGRU(num_features, hidden_size, rng)
        state_size = 2 * hidden_size
        if variant == "location":
            self.attention = LocationAttention(state_size, rng)
        elif variant == "general":
            self.attention = GeneralAttention(state_size, rng)
        else:
            self.attention = AdditiveAttention(state_size, attention_size, rng)
        self.fuse = Dense(2 * state_size, state_size, rng, activation="tanh")
        self.weight = Parameter(nn.init.glorot_uniform((state_size, 1), rng))
        self.bias = Parameter(np.zeros(1))

    def forward_batch(self, batch):
        logits, _ = self.forward(nn.Tensor(batch.values))
        return logits

    def forward(self, values, return_attention=False):
        """Return logits and (optionally) the per-step attention weights."""
        return self._attend(self.encoder(values), return_attention)

    def _attend(self, states, return_attention=False):
        """The attention readout over the bidirectional states.

        Split from :meth:`forward` so the streaming path can feed states
        assembled from its incremental forward-direction cache.  Raises
        on single-step prefixes (there are no earlier states to attend
        over) — the streaming session keeps the buffered observation and
        serves it once a second step arrives.
        """
        last = states[:, -1, :]
        earlier = states[:, :-1, :]
        if self.variant == "location":
            scores = self.attention(earlier)
        else:
            scores = self.attention(last, earlier)
        weights = ops.softmax(scores, axis=1)            # (B, T-1, 1)
        context = ops.sum(weights * earlier, axis=1)
        fused = self.fuse(ops.concat([context, last], axis=-1))
        logits = (ops.matmul(fused, self.weight) + self.bias).reshape(-1)
        if return_attention:
            return logits, weights.reshape(weights.shape[0], weights.shape[1])
        return logits, None

    # -- streaming inference (serve tier) ------------------------------
    stream_native = True

    def stream_begin(self, batch_size):
        return {
            "h": self.encoder.forward_gru.initial_state(batch_size),
            "fwd": [],
            "values": [],
        }

    def stream_step(self, state, values_t, mask_t=None, deltas_t=None):
        """Incremental streaming: advance the forward GRU in O(1).

        The forward-direction recurrence advances through
        :func:`repro.nn.ops.gru_scan_step` (bit-identical to the fused
        scan the full forward uses) and its states accumulate in the
        cache; only the *backward* GRU — whose every state depends on
        the newest step — reruns over the buffered prefix, as does the
        attention readout.  The new observation is recorded into the
        state before the readout, so the one-step prefix (which raises:
        no earlier states) is retained and served at the next step.
        """
        v_t = np.asarray(values_t, dtype=get_default_dtype())
        state["values"].append(v_t)
        state["h"] = self.encoder.forward_gru.stream_step(v_t, state["h"])
        state["fwd"].append(state["h"])
        values = np.stack(state["values"], axis=1)
        bwd = self.encoder.backward_gru(
            nn.Tensor(values[:, ::-1, :]))[:, ::-1, :]
        states = ops.concat(
            [nn.Tensor(np.stack(state["fwd"], axis=1)), bwd], axis=-1)
        logits, _ = self._attend(states)
        return state, logits
