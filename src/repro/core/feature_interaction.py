"""Feature-level Interaction Learning Module (paper Section IV-B, Eqs. 3-6).

For every time step and every feature *i*, the module forms explicit
pairwise interactions ``r_ij = e_i ⊙ e_j`` with all other features,
attends over them with a per-feature attention network

    α'_ij = (W_i^α)^T r_ij + b_i^α          (Eq. 4)
    α_ij  = softmax_j≠i(α'_ij)              (Eq. 5)

aggregates ``c_i = Σ_j α_ij r_ij``, and compresses the enriched feature
``[e_i; c_i]`` into a ``d``-dimensional representation (Eq. 6).

The bias ``b_i^α`` is the same for every ``j`` of a fixed ``i``, so the
softmax over ``j`` cancels it: it never changes α, gets no gradient, and
is not a parameter here.

Implementation note: the whole computation is one graph node,
:func:`repro.nn.ops.feature_interaction`.  It never materializes the
(B, T, C, C, e) interaction tensor, using the identities

    α'_ij = (e_i ⊙ W_i) · e_j  and  c_i = e_i ⊙ (Σ_j α_ij e_j)

for a (B, T, C, C) attention grid and two batched matmuls, and it
splits Eq. 6's compress as

    relu([e_i; c_i]) P = relu(e_i) P[:e] + relu(c_i) P[e:]

so no concatenated slab is built.  The returned attention weights are
the α_ij the paper visualizes in Figures 9–10, read out by the op's own
forward helper (:func:`repro.nn.ops.feature_attention`); they are an
inference signal and carry no gradient.
"""

from __future__ import annotations

from .. import nn
from ..nn import ops
from ..nn.module import Module, Parameter

__all__ = ["FeatureInteractionModule"]


class FeatureInteractionModule(Module):
    """Explicit pairwise feature-interaction learning with attention.

    Parameters
    ----------
    num_features:
        Number of medical features ``|C|``.
    embedding_size:
        Embedding dimension ``e`` of the inputs.
    compression:
        The compression factor ``d`` — output size per feature (Eq. 6).
    rng:
        Generator for weight initialization.
    use_attention:
        When False, interactions are pooled with uniform weights instead
        of the learned attention of Eqs. 4-5 (the attention ablation).
    """

    def __init__(self, num_features, embedding_size, compression, rng,
                 use_attention=True):
        super().__init__()
        self.num_features = num_features
        self.embedding_size = embedding_size
        self.compression = compression
        self.use_attention = use_attention
        # W^α ∈ R^{C×e}: one attention scorer per feature i.
        self.attn_weight = Parameter(
            nn.init.glorot_uniform((num_features, embedding_size), rng))
        # p ∈ R^{2e×d}: shared compression of [e_i; c_i].
        self.compress = Parameter(
            nn.init.glorot_uniform((2 * embedding_size, compression), rng))

    def forward(self, embedded, return_attention=False):
        """Enrich embedded features with attended pairwise interactions.

        Parameters
        ----------
        embedded:
            Tensor (batch, time, features, embedding) from the embedding
            module.
        return_attention:
            Also return the α grid (batch, time, features, features),
            where entry [.., i, j] is feature i's attention on its
            interaction with feature j.

        Returns
        -------
        Tensor (batch, time, features * compression) — the x̃_t sequence —
        and optionally the attention grid (a constant: no gradient).
        """
        weight = self.attn_weight if self.use_attention else None
        flat = ops.feature_interaction(embedded, weight, self.compress)
        if return_attention:
            alpha = ops.feature_attention(embedded, weight)
            return flat, nn.Tensor(alpha)
        return flat
