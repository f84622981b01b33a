"""Module-level gradchecks: whole layers and whole models.

``check_module`` perturbs every parameter of a module and compares
against the analytic gradients of one backward pass — so the recurrent
cells, attention blocks, normalization, ELDA-Net, and every registered
baseline are verified end-to-end, not just op by op.
"""

import types

import numpy as np
import pytest

from repro import nn
from repro.baselines import BASELINE_NAMES, build_model
from repro.core import ELDANet
from repro.data import NUM_FEATURES
from repro.nn import ops
from repro.nn.gradcheck import GradcheckFailure, check_module
from repro.nn.layers import (GRU, AdditiveAttention, BiGRU, Dense,
                             GeneralAttention, GRUCell, LayerNorm, LSTMCell,
                             MultiHeadSelfAttention)
from repro.nn.losses import bce_with_logits

RNG = np.random.default_rng(42)


def _sqsum(t):
    return ops.sum(ops.mul(t, t))


# ----------------------------------------------------------------------
# Layers
# ----------------------------------------------------------------------

class TestLayerGradcheck:
    def test_dense(self):
        rng = np.random.default_rng(0)
        layer = Dense(3, 4, rng, activation="tanh")
        x = nn.Tensor(rng.normal(size=(2, 3)))
        check_module(layer, lambda m: _sqsum(m(x)))

    def test_gru_cell(self):
        rng = np.random.default_rng(1)
        cell = GRUCell(3, 4, rng)
        x = nn.Tensor(rng.normal(size=(2, 3)))
        h = nn.Tensor(rng.normal(size=(2, 4)))
        check_module(cell, lambda m: _sqsum(m(x, h)))

    def test_gru_sequence(self):
        rng = np.random.default_rng(2)
        gru = GRU(3, 4, rng)
        x = nn.Tensor(rng.normal(size=(2, 5, 3)))
        check_module(gru, lambda m: _sqsum(m(x)))

    def test_lstm_cell(self):
        rng = np.random.default_rng(3)
        cell = LSTMCell(3, 4, rng)
        x = nn.Tensor(rng.normal(size=(2, 3)))
        state = (nn.Tensor(rng.normal(size=(2, 4))),
                 nn.Tensor(rng.normal(size=(2, 4))))
        check_module(cell, lambda m: _sqsum(m(x, state)[0]))

    def test_bigru(self):
        rng = np.random.default_rng(5)
        bigru = BiGRU(3, 4, rng)
        x = nn.Tensor(rng.normal(size=(2, 4, 3)))
        check_module(bigru, lambda m: _sqsum(m(x)))

    def test_additive_attention(self):
        rng = np.random.default_rng(6)
        att = AdditiveAttention(4, 3, rng)
        q = nn.Tensor(rng.normal(size=(2, 4)))
        keys = nn.Tensor(rng.normal(size=(2, 5, 4)))
        check_module(att, lambda m: _sqsum(m(q, keys)))

    def test_general_attention(self):
        rng = np.random.default_rng(7)
        att = GeneralAttention(4, rng)
        q = nn.Tensor(rng.normal(size=(2, 4)))
        keys = nn.Tensor(rng.normal(size=(2, 5, 4)))
        check_module(att, lambda m: _sqsum(m(q, keys)))

    def test_multi_head_self_attention(self):
        rng = np.random.default_rng(8)
        att = MultiHeadSelfAttention(4, 2, rng, causal=True)
        x = nn.Tensor(rng.normal(size=(2, 5, 4)))
        check_module(att, lambda m: _sqsum(m(x)))

    def test_layer_norm(self):
        x = nn.Tensor(np.random.default_rng(9).normal(size=(3, 6)) * 2.0)
        check_module(LayerNorm(6), lambda m: _sqsum(m(x)))

    def test_parameter_masking_by_prefix(self):
        rng = np.random.default_rng(10)
        gru = GRU(3, 4, rng)
        x = nn.Tensor(rng.normal(size=(2, 3, 3)))
        report = check_module(gru, lambda m: _sqsum(m(x)),
                              params=["cell.w_ih"])
        assert [name for name, *_ in report.entries] == ["cell.w_ih"]

    def test_detects_a_broken_backward(self):
        """A module whose analytic gradient is wrong must fail the check."""
        class Broken(nn.Module):
            def __init__(self):
                super().__init__()
                self.weight = nn.Parameter(np.array([1.5, -0.5]))

            def forward(self):
                # power's backward is correct; sabotage by detaching one
                # path so the analytic gradient misses a term.
                honest = ops.mul(self.weight, self.weight)
                hidden = ops.mul(self.weight.detach(), nn.Tensor([3.0, 3.0]))
                return ops.sum(ops.add(honest, hidden))

        with pytest.raises(GradcheckFailure, match="weight"):
            check_module(Broken(), lambda m: m())


# ----------------------------------------------------------------------
# Whole models on a micro-batch
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def micro_batch(tiny_dataset):
    """Three admissions, truncated to 8 time steps, as a batch object."""
    sub = tiny_dataset.subset(np.arange(3))
    return types.SimpleNamespace(
        values=sub.values[:, :8, :],
        mask=sub.mask[:, :8, :],
        deltas=sub.deltas[:, :8, :],
        ever_observed=sub.ever_observed,
    )


MICRO_LABELS = np.array([0.0, 1.0, 1.0])


def _model_loss(batch):
    return lambda m: bce_with_logits(m.forward_batch(batch), MICRO_LABELS)


@pytest.mark.parametrize("name", BASELINE_NAMES)
def test_baseline_gradcheck(name, micro_batch):
    model = build_model(name, NUM_FEATURES, np.random.default_rng(1))
    check_module(model, _model_loss(micro_batch), max_entries=3,
                 rng=np.random.default_rng(7))


def test_elda_net_gradcheck(micro_batch):
    model = build_model("ELDA-Net", NUM_FEATURES, np.random.default_rng(1))
    check_module(model, _model_loss(micro_batch), max_entries=3,
                 rng=np.random.default_rng(7))


@pytest.mark.gradcheck
def test_elda_net_gradcheck_small_config_dense(micro_batch):
    """Denser check on a down-scaled ELDA-Net: every parameter tensor,
    more entries each."""
    rng = np.random.default_rng(11)
    model = ELDANet(NUM_FEATURES, rng, embedding_size=4, hidden_size=6,
                    compression=2)
    check_module(model, _model_loss(micro_batch), max_entries=12,
                 rng=np.random.default_rng(13))


@pytest.mark.gradcheck
def test_elda_net_multiclass_gradcheck(micro_batch):
    from repro.nn.losses import cross_entropy
    rng = np.random.default_rng(12)
    model = ELDANet(NUM_FEATURES, rng, embedding_size=4, hidden_size=6,
                    compression=2, num_classes=3)
    targets = np.array([0, 2, 1])
    check_module(
        model,
        lambda m: cross_entropy(m.forward_batch(micro_batch), targets),
        max_entries=6, rng=np.random.default_rng(13))
