"""Embedding modules for numerical medical features (paper Section IV-B).

The paper's Bi-directional Embedding Module (Eq. 2) interpolates between
two learned per-feature embedding matrices anchored at a lower bound ``a``
and an upper bound ``b`` of the standardized value range:

    e_i = ( V_i^a (x'_i - a) + V_i^b (b - x'_i) ) / (b - a)

Compared with the FM-style linear embedding ``e_i = V_i x'_i`` this (i)
keeps the embedding scale independent of the value scale, and (ii) maps a
standardized zero — "this lab is normal" — to an informative vector rather
than the zero vector.

Rearranged, Eq. 2 is affine in the value,

    e_i = x'_i (V_i^a - V_i^b) / (b - a) + (b V_i^b - a V_i^a) / (b - a)

and the FM embedding is the same form with a zero intercept.  Each
module computes its (C, e) slope and intercept from its tables with
small ops, and :func:`repro.nn.ops.affine_embedding` then runs the one
multiply-add over the (B, T, C, e) slab together with the routings
below, as a single graph node.

Never-observed features (missingness type 3) are routed to a dedicated
embedding row ``V_i^m``.

The ablation variants from Section V-C are provided as drop-in classes:

* :class:`FMEmbedding` — the linear FM mechanism (``ELDA-Net-F_fm``);
* ``star=True`` on either class — replace the embedding of exact-zero
  standardized values with an all-ones vector (the ``*`` variants).
"""

from __future__ import annotations

from .. import nn
from ..nn import ops
from ..nn.module import Module, Parameter

__all__ = ["BiDirectionalEmbedding", "FMEmbedding", "build_embedding"]


class _NumericEmbedding(Module):
    """Shared plumbing: the affine node with the missing-value routing
    and the ``*`` zero variant."""

    def __init__(self, num_features, embedding_size, star=False):
        super().__init__()
        self.num_features = num_features
        self.embedding_size = embedding_size
        self.star = star

    def _affine(self):
        """The ``(C, e)`` slope and intercept (``None`` for zero)."""
        raise NotImplementedError

    def forward(self, x, ever_observed=None):
        """Embed standardized values.

        Parameters
        ----------
        x:
            Tensor (batch, time, features) of standardized, imputed values.
        ever_observed:
            Optional boolean array (batch, features); False selects the
            missing-feature embedding ``V^m`` for the whole admission.

        Returns
        -------
        Tensor (batch, time, features, embedding_size).
        """
        slope, intercept = self._affine()
        missing = None if ever_observed is None else self.missing_table
        return ops.affine_embedding(x, slope, intercept, ever_observed,
                                    missing, star=self.star)


class BiDirectionalEmbedding(_NumericEmbedding):
    """The paper's Bi-directional Embedding Module (Eq. 2).

    Parameters
    ----------
    num_features:
        Number of medical features ``|C|``.
    embedding_size:
        Embedding dimension ``e``.
    rng:
        Generator for weight initialization.
    lower, upper:
        The anchors ``a`` and ``b``; the paper uses (-3, 3).
    star:
        Enable the ``*`` ablation: all-ones embedding at standardized zero.
    """

    def __init__(self, num_features, embedding_size, rng,
                 lower=-3.0, upper=3.0, star=False):
        super().__init__(num_features, embedding_size, star=star)
        if not upper > lower:
            raise ValueError("upper bound must exceed lower bound")
        self.lower = lower
        self.upper = upper
        self.table_lower = Parameter(
            nn.init.glorot_uniform((num_features, embedding_size), rng))
        self.table_upper = Parameter(
            nn.init.glorot_uniform((num_features, embedding_size), rng))
        self.missing_table = Parameter(
            nn.init.glorot_uniform((num_features, embedding_size), rng))

    def _affine(self):
        span = self.upper - self.lower
        slope = (self.table_lower - self.table_upper) / span
        intercept = (self.table_upper * self.upper
                     - self.table_lower * self.lower) / span
        return slope, intercept


class FMEmbedding(_NumericEmbedding):
    """FM-style linear embedding ``e_i = V_i x'_i`` (ablation baseline).

    Inherits the missing-value routing so the comparison with the
    bi-directional module isolates the value-embedding mechanism only.
    """

    def __init__(self, num_features, embedding_size, rng, star=False):
        super().__init__(num_features, embedding_size, star=star)
        self.table = Parameter(
            nn.init.glorot_uniform((num_features, embedding_size), rng))
        self.missing_table = Parameter(
            nn.init.glorot_uniform((num_features, embedding_size), rng))

    def _affine(self):
        return self.table, None


def build_embedding(kind, num_features, embedding_size, rng, lower=-3.0,
                    upper=3.0):
    """Factory for the embedding variants named in the ablation study.

    ``kind`` is one of ``"bi"``, ``"bi*"``, ``"fm"``, ``"fm*"``.
    """
    star = kind.endswith("*")
    base = kind.rstrip("*")
    if base == "bi":
        return BiDirectionalEmbedding(num_features, embedding_size, rng,
                                      lower=lower, upper=upper, star=star)
    if base == "fm":
        return FMEmbedding(num_features, embedding_size, rng, star=star)
    raise ValueError(f"unknown embedding kind {kind!r}; "
                     "use 'bi', 'bi*', 'fm', or 'fm*'")
