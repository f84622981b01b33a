"""SAnD baseline (Song et al., AAAI 2018): attend-and-diagnose.

A transformer-style encoder for clinical time series: input embedding +
sinusoidal positional encoding, a stack of masked (causal) multi-head
self-attention blocks with feed-forward sublayers and layer norm, followed
by *dense interpolation* over the time axis and a linear head.

Dense interpolation follows the original paper: the T step representations
are summarized into M pseudo-timestamps with fixed triangular weights
``w_mt = (1 - |s_t - m| / M)^2`` where ``s_t = m * t / T``.
"""

from __future__ import annotations

from ..nn.backend import xp as np

from .. import nn
from ..nn import ops
from ..nn.dtype import get_default_dtype
from ..nn.layers import Dense, LayerNorm, MultiHeadSelfAttention, positional_encoding
from ..nn.inference import InferenceMixin
from ..nn.module import Module, ModuleList, Parameter

__all__ = ["SAnD"]


class _EncoderBlock(Module):
    """One transformer block: causal self-attention + FFN, pre-norm residuals."""

    def __init__(self, model_size, num_heads, ffn_size, rng):
        super().__init__()
        self.attention = MultiHeadSelfAttention(model_size, num_heads, rng,
                                                causal=True)
        self.norm1 = LayerNorm(model_size)
        self.ffn_in = Dense(model_size, ffn_size, rng, activation="relu")
        self.ffn_out = Dense(ffn_size, model_size, rng)
        self.norm2 = LayerNorm(model_size)

    def forward(self, x):
        x = x + self.attention(self.norm1(x))
        x = x + self.ffn_out(self.ffn_in(self.norm2(x)))
        return x


def dense_interpolation_weights(steps, factor):
    """The SAnD dense-interpolation weight matrix, shape (factor, steps)."""
    weights = np.empty((factor, steps))
    for t in range(steps):
        s = factor * (t + 1) / steps
        for m in range(1, factor + 1):
            weights[m - 1, t] = (1.0 - abs(s - m) / factor) ** 2
    return weights


class SAnD(Module, InferenceMixin):
    """Masked self-attention classifier for clinical sequences.

    Default sizes land near the ~106k parameters of the paper's Table III.
    """

    def __init__(self, num_features, rng, model_size=64, num_heads=4,
                 num_blocks=2, ffn_size=128, interpolation=12):
        super().__init__()
        self.model_size = model_size
        self.interpolation = interpolation
        self.embed = Dense(num_features, model_size, rng)
        self.blocks = ModuleList([
            _EncoderBlock(model_size, num_heads, ffn_size, rng)
            for _ in range(num_blocks)
        ])
        self.weight = Parameter(
            nn.init.glorot_uniform((interpolation * model_size, 1), rng))
        self.bias = Parameter(np.zeros(1))
        self._interp_cache = {}

    def forward_batch(self, batch):
        values = nn.Tensor(batch.values)
        steps = values.shape[1]
        x = self.embed(values) + positional_encoding(steps, self.model_size)
        return self._finish(x, steps)

    def _finish(self, x, steps):
        """Encoder blocks + dense interpolation + head over embedded input.

        Split from :meth:`forward_batch` so the streaming path can feed
        its cache of already-embedded (and position-encoded) rows.
        """
        for block in self.blocks:
            x = block(x)
        interp = self._interp_cache.get(steps)
        if interp is None:
            interp = nn.Tensor(dense_interpolation_weights(steps,
                                                           self.interpolation))
            self._interp_cache[steps] = interp
        # (M, T) @ (B, T, D) -> (B, M, D), flattened for the head.
        pooled = ops.matmul(interp, x)
        flat = pooled.reshape(pooled.shape[0],
                              self.interpolation * self.model_size)
        return (ops.matmul(flat, self.weight) + self.bias).reshape(-1)

    # -- streaming inference (serve tier) ------------------------------
    stream_native = True

    def stream_begin(self, batch_size):
        return {"rows": []}

    def stream_step(self, state, values_t, mask_t=None, deltas_t=None):
        """Incremental streaming: embed + position-encode only the new row.

        The input projection and sinusoidal position of each timestep
        are computed once and cached (each positional row depends only
        on its own index, so it never changes as the prefix grows).  The
        causal attention blocks rerun over the cached rows: caching
        per-position attention outputs is *not* bit-stable — extending
        the key dimension of the QK^T and context GEMMs changes the BLAS
        reduction order for the already-seen positions — so the blocks
        are the O(t²) remainder.  The dense-interpolation weights also
        depend on the total prefix length, forcing the pooled readout to
        rerun regardless.  The one-step prefix is served via the exact
        full forward (its embedding GEMM runs in the GEMV regime).
        """
        v_t = np.asarray(values_t, dtype=get_default_dtype())
        row = ops.linear_rows(v_t, self.embed.weight.data,
                              self.embed.bias.data)
        steps = len(state["rows"]) + 1
        row += positional_encoding(steps, self.model_size).data[steps - 1]
        state["rows"].append(row)
        if steps == 1:
            values = nn.Tensor(v_t[:, None, :])
            x = self.embed(values) + positional_encoding(1, self.model_size)
            return state, self._finish(x, 1)
        x = nn.Tensor(np.stack(state["rows"], axis=1))
        return state, self._finish(x, steps)
