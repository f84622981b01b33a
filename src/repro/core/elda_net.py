"""ELDA-Net: the end-to-end model and its ablation variants.

The full model chains the four modules of Section IV-B:

    Bi-directional Embedding -> Feature-level Interaction Learning
        -> Time-level Interaction Learning -> Prediction

The ablation variants of Section V-C are expressed through the
constructor:

==================  =============================  =========================
Paper name          ``embedding``                  modules kept
==================  =============================  =========================
ELDA-Net            ``"bi"``                       feature + time
ELDA-Net-T          (embedding unused)             time only (raw values in)
ELDA-Net-F_bi       ``"bi"``                       feature only
ELDA-Net-F_bi*      ``"bi*"``                      feature only
ELDA-Net-F_fm       ``"fm"``                       feature only
ELDA-Net-F_fm*      ``"fm*"``                      feature only
==================  =============================  =========================

Use :func:`build_variant` to construct any of them by paper name.
"""

from __future__ import annotations

from ..nn.backend import xp as np

from .. import nn
from ..nn.dtype import get_default_dtype
from ..nn.layers import GRU
from ..nn.inference import InferenceMixin
from ..nn.module import Module
from .embedding import build_embedding
from .feature_interaction import FeatureInteractionModule
from .prediction import PredictionModule
from .time_interaction import TimeInteractionModule

__all__ = ["ELDANet", "build_variant", "VARIANT_NAMES"]

VARIANT_NAMES = ("ELDA-Net", "ELDA-Net-T", "ELDA-Net-Fbi", "ELDA-Net-Fbi*",
                 "ELDA-Net-Ffm", "ELDA-Net-Ffm*")


class ELDANet(Module, InferenceMixin):
    """The ELDA-Net model (paper Section IV).

    Parameters
    ----------
    num_features:
        Number of medical features ``|C|`` (37 in the paper's setting).
    embedding_size:
        Embedding dimension ``e`` (paper: 24).
    hidden_size:
        GRU hidden size ``l`` (paper: 64).
    compression:
        Compression factor ``d`` (paper: 4).
    rng:
        ``numpy.random.Generator`` for weight initialization.
    embedding:
        One of ``"bi"``, ``"bi*"``, ``"fm"``, ``"fm*"``.
    lower, upper:
        Bounds ``(a, b)`` of the bi-directional embedding (paper: -3, 3).
    use_feature_module:
        Keep the Feature-level Interaction Learning Module.
    use_time_module:
        Keep the Time-level Interaction Learning Module; when dropped, the
        prediction head consumes the GRU's last hidden state only.
    feature_attention:
        When False, feature interactions are pooled uniformly instead of
        with the learned attention (ablation of Eqs. 4-5).
    num_classes:
        1 for the paper's binary tasks; > 1 switches the Prediction
        Module to a softmax head (e.g. archetype phenotyping).
    """

    def __init__(self, num_features, rng, embedding_size=24, hidden_size=64,
                 compression=4, embedding="bi", lower=-3.0, upper=3.0,
                 use_feature_module=True, use_time_module=True,
                 feature_attention=True, num_classes=1):
        super().__init__()
        self.num_features = num_features
        self.use_feature_module = use_feature_module
        self.use_time_module = use_time_module

        if use_feature_module:
            self.embedding = build_embedding(embedding, num_features,
                                             embedding_size, rng,
                                             lower=lower, upper=upper)
            self.feature_module = FeatureInteractionModule(
                num_features, embedding_size, compression, rng,
                use_attention=feature_attention)
            sequence_size = num_features * compression
        else:
            sequence_size = num_features

        if use_time_module:
            self.time_module = TimeInteractionModule(sequence_size,
                                                     hidden_size, rng)
            representation_size = 2 * hidden_size
        else:
            self.encoder = GRU(sequence_size, hidden_size, rng,
                               return_sequences=False)
            representation_size = hidden_size

        self.prediction = PredictionModule(representation_size, rng,
                                           num_classes=num_classes)

    # ------------------------------------------------------------------
    def forward(self, values, ever_observed=None, return_attention=False):
        """Predict outcome probabilities for a batch of admissions.

        Parameters
        ----------
        values:
            Array or Tensor (batch, time, features): standardized, imputed.
        ever_observed:
            Boolean (batch, features); False marks never-observed features
            (routed to the missing-value embedding).
        return_attention:
            Also return a dict with ``"feature"`` (B, T, C, C) and
            ``"time"`` (B, T-1) attention weights where applicable.

        Returns
        -------
        Tensor (batch,) of probabilities, and optionally the attention dict.
        """
        values = nn.as_tensor(values)
        attention = {}

        if self.use_feature_module:
            embedded = self.embedding(values, ever_observed=ever_observed)
            if return_attention:
                sequence, alpha = self.feature_module(embedded,
                                                      return_attention=True)
                attention["feature"] = alpha
            else:
                sequence = self.feature_module(embedded)
        else:
            sequence = values

        if self.use_time_module:
            if return_attention:
                representation, beta = self.time_module(sequence,
                                                        return_attention=True)
                attention["time"] = beta
            else:
                representation = self.time_module(sequence)
        else:
            representation = self.encoder(sequence)

        probabilities = self.prediction(representation)
        if return_attention:
            return probabilities, attention
        return probabilities

    def logits(self, values, ever_observed=None):
        """Raw output logits (used by the numerically stable loss)."""
        values = nn.as_tensor(values)
        if self.use_feature_module:
            embedded = self.embedding(values, ever_observed=ever_observed)
            sequence = self.feature_module(embedded)
        else:
            sequence = values
        if self.use_time_module:
            representation = self.time_module(sequence)
        else:
            representation = self.encoder(sequence)
        return self.prediction.logits(representation)


    def forward_batch(self, batch):
        """Uniform trainer interface: logits from an :class:`EMRDataset` batch."""
        return self.logits(batch.values, ever_observed=batch.ever_observed)

    # -- streaming inference (serve tier) ------------------------------
    stream_native = True

    def _stream_gru(self):
        """The recurrent encoder the streaming state advances through."""
        return self.time_module.gru if self.use_time_module else self.encoder

    def _project_step(self, v_t, ever):
        """Embed + feature-interact one ``(batch, features)`` slice.

        Returns the enriched ``(batch, features * compression)`` row as
        a plain array.  Every op in the feature path — the value
        embedding, the missing-value routing, and the feature-attention
        matmuls — is either elementwise in time or a stacked matmul
        whose GEMM cores are independent of the time extent, so the row
        computed from a one-step slice is bit-identical to the matching
        row of the full-prefix feature pipeline.
        """
        values = nn.Tensor(v_t[:, None, :])
        embedded = self.embedding(values, ever_observed=ever)
        sequence = self.feature_module(embedded)
        return sequence.data[:, 0]

    def stream_begin(self, batch_size):
        return {
            "values": [],
            "ever": None,
            "h": self._stream_gru().initial_state(batch_size),
            "states": [],
        }

    def stream_step(self, state, values_t, mask_t=None, deltas_t=None):
        """Incremental streaming across every ELDA-Net variant.

        Each step projects only the *new* timestep through the feature
        pipeline (:meth:`_project_step`) and advances the GRU in O(1)
        via its ``stream_step`` hook; the time-interaction readout
        (variants with the time module) then runs over the cached hidden
        states.  The one caveat is the never-observed routing: the
        feature embedding of *every* timestep depends on which features
        have been observed *anywhere* in the prefix, so when a feature's
        first observation arrives the cached projections are stale and
        the state rebuilds from the buffered raw rows — rare after the
        first few steps of an admission, and absent entirely for the
        time-only variant (whose input is the raw values).
        """
        v_t = np.asarray(values_t, dtype=get_default_dtype())
        batch = v_t.shape[0]
        gru = self._stream_gru()
        state["values"].append(v_t)
        if self.use_feature_module:
            m_t = (np.ones(v_t.shape, dtype=bool) if mask_t is None
                   else np.asarray(mask_t, dtype=bool))
            ever = state["ever"]
            new_ever = m_t.copy() if ever is None else (ever | m_t)
            if ever is None or not np.array_equal(new_ever, ever):
                # A feature crossed from never- to ever-observed: every
                # cached projection used the stale missing-value routing.
                # Re-project and re-encode the buffered prefix.
                state["ever"] = new_ever
                state["h"] = gru.initial_state(batch)
                state["states"] = []
                rows = [self._project_step(v, new_ever)
                        for v in state["values"]]
            else:
                rows = [self._project_step(v_t, ever)]
        else:
            rows = [v_t]
        for row in rows:
            state["h"] = gru.stream_step(row, state["h"])
            if self.use_time_module:
                state["states"].append(state["h"])
        if self.use_time_module:
            states = nn.Tensor(np.stack(state["states"], axis=1))
            representation = self.time_module.tail(states)
        else:
            representation = nn.Tensor(state["h"])
        return state, self.prediction.logits(representation)


def build_variant(name, num_features, rng, **overrides):
    """Construct an ELDA-Net variant by its paper name.

    Accepted names (case-insensitive, ``*`` suffix meaningful):
    ``ELDA-Net``, ``ELDA-Net-T``, ``ELDA-Net-Fbi``, ``ELDA-Net-Fbi*``,
    ``ELDA-Net-Ffm``, ``ELDA-Net-Ffm*``.
    """
    canonical = name.strip().lower().replace("_", "").replace(" ", "")
    table = {
        "elda-net": dict(embedding="bi", use_feature_module=True,
                         use_time_module=True),
        "elda-net-t": dict(use_feature_module=False, use_time_module=True),
        "elda-net-fbi": dict(embedding="bi", use_feature_module=True,
                             use_time_module=False),
        "elda-net-fbi*": dict(embedding="bi*", use_feature_module=True,
                              use_time_module=False),
        "elda-net-ffm": dict(embedding="fm", use_feature_module=True,
                             use_time_module=False),
        "elda-net-ffm*": dict(embedding="fm*", use_feature_module=True,
                              use_time_module=False),
    }
    if canonical not in table:
        raise ValueError(f"unknown ELDA-Net variant {name!r}; "
                         f"known: {', '.join(VARIANT_NAMES)}")
    config = dict(table[canonical])
    config.update(overrides)
    return ELDANet(num_features, rng, **config)
