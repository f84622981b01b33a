"""Time-level Interaction Learning Module (paper Section IV-B, Eqs. 7-11).

A standard GRU summarizes the enriched sequence into hidden states
``h_1..h_T``; the module then forms explicit interactions between the last
step and every earlier step,

    s_iT = h_i ⊙ h_T                          (Eq. 8)
    β'_iT = (w^β)^T s_iT + b^β                (Eq. 9)
    β_iT  = softmax_i(β'_iT)                  (Eq. 10)
    g_T   = Σ_i β_iT s_iT                     (Eq. 11)

and returns the comprehensive representation ``h̃_T = [h_T; g_T]``.  The β
weights are the time-level interpretability signal of Figure 8.  The
scalar ``b^β`` shifts every score of the softmax over ``i`` alike, so
it cancels and is not a parameter.
"""

from __future__ import annotations

from .. import nn
from ..nn import ops
from ..nn.layers import GRU
from ..nn.module import Module, Parameter

__all__ = ["TimeInteractionModule"]


class TimeInteractionModule(Module):
    """GRU encoder plus explicit last-step/earlier-step interactions.

    Parameters
    ----------
    input_size:
        Dimension of each x̃_t (``|C| * d`` after feature interactions).
    hidden_size:
        GRU hidden size ``l``.
    rng:
        Generator for weight initialization.
    """

    def __init__(self, input_size, hidden_size, rng):
        super().__init__()
        self.hidden_size = hidden_size
        self.gru = GRU(input_size, hidden_size, rng)
        self.attn_weight = Parameter(
            nn.init.glorot_uniform((hidden_size, 1), rng))

    def forward(self, sequence, return_attention=False):
        """Encode a sequence and fuse time-level interactions.

        Parameters
        ----------
        sequence:
            Tensor (batch, time, input_size).
        return_attention:
            Also return β of shape (batch, time-1): the attention on the
            interaction between each earlier step and the last step.

        Returns
        -------
        Tensor (batch, 2 * hidden_size) — ``[h_T; g_T]`` — and optionally β.
        """
        return self.tail(self.gru(sequence), return_attention)

    def tail(self, states, return_attention=False):
        """The interaction-attention readout over encoded states.

        Split from :meth:`forward` so the streaming path can feed hidden
        states accumulated step by step through the GRU's
        ``stream_step`` hook instead of re-encoding the whole prefix.
        Raises on single-step prefixes (no earlier states to interact
        with) — the streaming session keeps the buffered observation and
        serves it once a second step arrives.
        """
        last = states[:, -1, :]                        # h_T
        earlier = states[:, :-1, :]                    # h_1..h_{T-1}
        interactions = earlier * last.reshape(-1, 1, self.hidden_size)
        scores = ops.matmul(interactions, self.attn_weight)
        beta = ops.softmax(scores, axis=1)             # (B, T-1, 1)
        summary = ops.sum(beta * interactions, axis=1)  # g_T
        fused = ops.concat([last, summary], axis=-1)
        if return_attention:
            return fused, beta.reshape(beta.shape[0], beta.shape[1])
        return fused
