"""The seven retired attention-score biases never changed an output.

RETAIN's ``alpha_score`` bias, Dipole_l's location-attention bias,
StageNet's pattern-attention bias and ELDA-Net's ``b^α`` / ``b^β`` were
each constant along the axis their softmax runs over, so they cancelled
and were removed (:data:`repro.nn.module.RETIRED_PARAMETERS`).  Per
model that carried one:

* putting the bias back, with any value, leaves every logit unchanged;
* weights written while it was a parameter still load, with one
  :class:`RetiredParameterWarning`, and score exactly like the source.

ELDA-Net's ``b^α`` sits inside the fused ``feature_interaction`` op, so
its restoration is pinned against the Eq. 4-5 oracle in
``tests/core/test_paper_equations_end_to_end.py`` instead.
"""

import numpy as np
import pytest

from repro import nn
from repro.baselines import build_model
from repro.core import time_interaction
from repro.data import NUM_FEATURES
from repro.nn import ops
from repro.nn.module import (RETIRED_PARAMETERS, Module,
                             RetiredParameterWarning)

from tests.baselines.test_registry import SMALL_KWARGS

#: ``model -> {retired parameter: its shape}`` as the models held them.
RETIRED_BY_MODEL = {
    "RETAIN": {"alpha_score.bias": (1,)},
    "Dipole_l": {"attention.bias": (1,)},
    "StageNet": {"attn.bias": (1,)},
    "ELDA-Net": {"feature_module.attn_bias": (NUM_FEATURES,),
                 "time_module.attn_bias": (1,)},
    "ELDA-Net-T": {"time_module.attn_bias": (1,)},
    "ELDA-Net-Fbi": {"feature_module.attn_bias": (NUM_FEATURES,)},
    "ELDA-Net-Fbi*": {"feature_module.attn_bias": (NUM_FEATURES,)},
    "ELDA-Net-Ffm": {"feature_module.attn_bias": (NUM_FEATURES,)},
    "ELDA-Net-Ffm*": {"feature_module.attn_bias": (NUM_FEATURES,)},
}

SHIFTS = (-30.0, -0.7, 1e-3, 4.0)


def _build(name, seed=0):
    return build_model(name, NUM_FEATURES, np.random.default_rng(seed),
                       **SMALL_KWARGS[name])


@pytest.fixture(scope="module")
def batch(tiny_dataset):
    return tiny_dataset.subset(np.arange(4)).truncate(8)


class _Shifted(Module):
    """``inner``'s attention scores plus a constant: the retired bias."""

    def __init__(self, inner, shift):
        super().__init__()
        self.inner = inner
        self.shift = shift
        self.calls = 0

    def forward(self, *args):
        self.calls += 1
        return self.inner(*args) + self.shift


class _ShiftedSoftmaxOps:
    """``repro.nn.ops`` whose softmax first adds a constant to its
    input: ``b^β`` restored inside the time module's readout, whose only
    softmax is Eq. 10's."""

    def __init__(self, shift):
        self.shift = shift
        self.calls = 0

    def __getattr__(self, name):
        return getattr(ops, name)

    def softmax(self, x, axis=-1):
        self.calls += 1
        return ops.softmax(x + self.shift, axis=axis)


def _restore_score_bias(model, name, shift, monkeypatch):
    """Put the retired bias back as ``shift``; returns the wrapper,
    whose ``calls`` show that the model's forward went through it."""
    if name == "RETAIN":
        model.alpha_score = _Shifted(model.alpha_score, shift)
        return model.alpha_score
    if name == "Dipole_l":
        model.attention = _Shifted(model.attention, shift)
        return model.attention
    if name == "StageNet":
        model.attn = _Shifted(model.attn, shift)
        return model.attn
    shifted_ops = _ShiftedSoftmaxOps(shift)
    monkeypatch.setattr(time_interaction, "ops", shifted_ops)
    return shifted_ops


def test_table_names_every_retired_parameter():
    named = set().union(*RETIRED_BY_MODEL.values())
    assert named == RETIRED_PARAMETERS


@pytest.mark.parametrize(
    "name", ["RETAIN", "Dipole_l", "StageNet", "ELDA-Net", "ELDA-Net-T"])
def test_restored_score_bias_leaves_logits_unchanged(name, batch,
                                                     monkeypatch):
    model = _build(name)
    with nn.no_grad():
        plain = model.forward_batch(batch).data
        for shift in SHIFTS:
            with monkeypatch.context() as patch:
                shifted_model = _build(name)
                bias = _restore_score_bias(shifted_model, name, shift,
                                           patch)
                shifted = shifted_model.forward_batch(batch).data
            assert bias.calls > 0
            assert np.abs(shifted - plain).max() < 1e-12, shift


@pytest.mark.parametrize("name", sorted(RETIRED_BY_MODEL))
def test_weights_holding_retired_biases_load_and_score_alike(name, batch,
                                                             tmp_path):
    source = _build(name)
    rng = np.random.default_rng(7)
    old = dict(source.state_dict(),
               **{key: rng.normal(size=shape)
                  for key, shape in RETIRED_BY_MODEL[name].items()})
    np.savez(tmp_path / "weights.npz", **old)

    loaded = _build(name, seed=1)
    with pytest.warns(RetiredParameterWarning) as record:
        nn.load_weights(loaded, tmp_path / "weights.npz")
    assert len(record) == 1
    for key in RETIRED_BY_MODEL[name]:
        assert key in str(record[0].message)
    with nn.no_grad():
        np.testing.assert_array_equal(loaded.forward_batch(batch).data,
                                      source.forward_batch(batch).data)
