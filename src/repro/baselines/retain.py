"""RETAIN baseline (Choi et al., NeurIPS 2016).

An interpretable two-level attention model: visits are embedded, two GRUs
run over the *reversed* sequence to produce (i) scalar visit-level
attention α_t and (ii) vector variable-level gates β_t; the context is the
doubly weighted sum of visit embeddings.
"""

from __future__ import annotations

from ..nn.backend import xp as np

from .. import nn
from ..nn import ops
from ..nn.dtype import get_default_dtype
from ..nn.layers import GRU, Dense
from ..nn.inference import InferenceMixin
from ..nn.module import Module, Parameter

__all__ = ["RETAIN"]


class RETAIN(Module, InferenceMixin):
    """Reverse-time attention model.

    Sizes default to land near the ~13k parameters the paper's Table III
    reports for RETAIN.
    """

    def __init__(self, num_features, rng, embedding_size=32, alpha_hidden=24,
                 beta_hidden=24):
        super().__init__()
        self.embed = Dense(num_features, embedding_size, rng, use_bias=False)
        self.alpha_gru = GRU(embedding_size, alpha_hidden, rng)
        self.beta_gru = GRU(embedding_size, beta_hidden, rng)
        # No bias: the visit scores are softmaxed over time, which
        # cancels any score offset shared by every visit.
        self.alpha_score = Dense(alpha_hidden, 1, rng, use_bias=False)
        self.beta_gate = Dense(beta_hidden, embedding_size, rng)
        self.weight = Parameter(nn.init.glorot_uniform((embedding_size, 1), rng))
        self.bias = Parameter(np.zeros(1))

    def forward_batch(self, batch):
        probs, _ = self.forward(nn.Tensor(batch.values))
        return probs

    def forward(self, values, return_attention=False):
        """Return logits and (optionally) the visit-level attention α."""
        return self._attend(self.embed(values), return_attention)

    def _attend(self, visits, return_attention=False):
        """The reverse-time attention readout over embedded visits.

        Split from :meth:`forward` so the streaming path can feed cached
        visit embeddings without re-embedding the whole prefix.
        """
        reversed_visits = visits[:, ::-1, :]
        alpha_states = self.alpha_gru(reversed_visits)[:, ::-1, :]
        beta_states = self.beta_gru(reversed_visits)[:, ::-1, :]
        alpha = ops.softmax(self.alpha_score(alpha_states), axis=1)  # (B,T,1)
        beta = ops.tanh(self.beta_gate(beta_states))                 # (B,T,m)
        context = ops.sum(alpha * beta * visits, axis=1)             # (B,m)
        logits = (ops.matmul(context, self.weight) + self.bias).reshape(-1)
        if return_attention:
            return logits, alpha.reshape(alpha.shape[0], alpha.shape[1])
        return logits, None

    # -- streaming inference (serve tier) ------------------------------
    stream_native = True

    def stream_begin(self, batch_size):
        return {"visits": []}

    def stream_step(self, state, values_t, mask_t=None, deltas_t=None):
        """Incremental streaming: embed only the new visit.

        Each step projects the new timestep through the visit embedding
        once (:func:`repro.nn.ops.linear_rows`, row-stable and therefore
        bit-identical to the rows of the full-prefix embedding for
        prefixes of two or more steps) and caches it; the reverse-time
        attention readout then runs over the cached embeddings.  The two
        GRUs scan the *reversed* prefix, so their O(t) rerun each step
        is inherent to RETAIN — but the per-step feature projection is
        never repeated.  The one-step prefix is served via the exact
        full forward (its embedding GEMM runs in the GEMV regime).
        """
        v_t = np.asarray(values_t, dtype=get_default_dtype())
        state["visits"].append(ops.linear_rows(v_t, self.embed.weight.data))
        if len(state["visits"]) == 1:
            logits, _ = self.forward(nn.Tensor(v_t[:, None, :]))
            return state, logits
        visits = nn.Tensor(np.stack(state["visits"], axis=1))
        logits, _ = self._attend(visits)
        return state, logits
