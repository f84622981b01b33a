"""Scan-vs-step equivalence for the sequence-fused recurrent kernels.

Every recurrence in the library — :func:`repro.nn.ops.gru_scan`,
:func:`~repro.nn.ops.grud_scan`,
:func:`~repro.nn.ops.stagenet_scan` and
:func:`~repro.nn.ops.per_feature_gru_scan` — replays an entire sequence
as one graph node and has no step path in ``src/``.  Each is held to its
step-unrolled oracle in tests/nn/oracles.py.  They are not
bit-identical — the one-big-GEMM input projection reassociates float
ops — so this suite pins them together by tolerance instead: forward
values and every gradient (input, parameters) within 1e-10 of the
oracle under float64 and 1e-4 under float32, across batch 1,
non-contiguous inputs, the T=1 edge case, and ragged lengths with
frozen-row masking.  Each scan's inference-only ``*_scan_step`` array
kernel, by contrast, is held to the scan bit for bit at every prefix.
"""

import numpy as np
import pytest

from repro.baselines import GRUD, PerFeatureGRU, StageNet
from repro.nn import Tensor, ops
from repro.nn.dtype import autocast
from repro.nn.gradcheck import gradcheck
from repro.nn.layers import GRU
from repro.nn.tensor import no_grad
from tests.nn.oracles import (grud_reference, gru_reference,
                              per_feature_gru_reference, stagenet_reference)

_TOLS = {np.dtype(np.float64): 1e-10, np.dtype(np.float32): 1e-4}


@pytest.fixture(autouse=True, params=[np.float64, np.float32],
                ids=["float64", "float32"])
def dtype_policy(request):
    with autocast(request.param):
        yield np.dtype(request.param)


@pytest.fixture
def TOL(dtype_policy):
    return _TOLS[dtype_policy]


def _max_diff(a, b):
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def _run_layer(layer, x, lengths=None, forward=None):
    """Forward + backward of sum(out^2) through ``forward(xt, lengths=)``
    (default: the layer itself); returns (out, grads by name)."""
    forward = forward or layer
    layer.zero_grad()
    xt = Tensor(x, requires_grad=True)
    out = forward(xt, lengths=lengths)
    (out * out).sum().backward()
    grads = {"x": xt.grad.copy()}
    grads.update({name: p.grad.copy()
                  for name, p in layer.named_parameters()})
    return out.data.copy(), grads


def _assert_paths_agree(layer, oracle, x, tol, lengths=None):
    """The layer's scan against ``oracle(layer, x, lengths=)``."""
    out_scan, grads_scan = _run_layer(layer, x, lengths)
    out_step, grads_step = _run_layer(
        layer, x, lengths,
        forward=lambda xt, lengths: oracle(layer, xt, lengths=lengths))
    assert _max_diff(out_scan, out_step) < tol
    for name in grads_scan:
        assert _max_diff(grads_scan[name], grads_step[name]) < tol, name


_LENGTH_AWARE_SCANS = ["gru_scan", "grud_scan", "stagenet_scan"]


def _final_state(scan, x, h0, lengths):
    """Final hidden state of ``ops.<scan>`` over ``x`` ``(batch, steps,
    3)`` from ``h0`` ``(batch, 4)`` (also the initial cell), with fixed
    random weights; GRU-D sees every value observed."""
    rng = np.random.default_rng(90)

    def w(*shape):
        return rng.normal(size=shape) * 0.5

    if scan == "gru_scan":
        return ops.gru_scan(x, h0, w(3, 12), w(4, 12), w(12), w(12),
                            lengths=lengths, return_sequences=False)
    if scan == "grud_scan":
        return ops.grud_scan(x, np.ones_like(x), np.ones_like(x), h0,
                             w(3), w(3, 4), w(4), w(6, 12), w(4, 12),
                             w(12), w(12), lengths=lengths)
    return ops.stagenet_scan(x, h0, h0, w(3, 16), w(4, 16), w(16), w(7, 1),
                             w(1), lengths=lengths, return_sequences=False)


class TestGRUScanEquivalence:
    @pytest.mark.parametrize("batch,steps", [(1, 6), (3, 6), (4, 1)])
    def test_matches_step_path(self, batch, steps, TOL):
        rng = np.random.default_rng(batch * 10 + steps)
        layer = GRU(5, 4, np.random.default_rng(1))
        x = rng.normal(size=(batch, steps, 5))
        _assert_paths_agree(layer, gru_reference, x, TOL)

    @pytest.mark.parametrize("return_sequences", [True, False])
    def test_ragged_lengths(self, return_sequences, TOL):
        rng = np.random.default_rng(7)
        layer = GRU(3, 4, np.random.default_rng(2),
                    return_sequences=return_sequences)
        x = rng.normal(size=(4, 6, 3))
        _assert_paths_agree(layer, gru_reference, x, TOL,
                            lengths=np.array([1, 6, 3, 4]))

    def test_non_contiguous_input(self, TOL):
        rng = np.random.default_rng(3)
        layer = GRU(5, 4, np.random.default_rng(3))
        x = rng.normal(size=(2, 12, 5))[:, ::2]     # stride-2 time view
        assert not x.flags["C_CONTIGUOUS"]
        _assert_paths_agree(layer, gru_reference, x, TOL)

    def test_batch_one_with_length(self, TOL):
        rng = np.random.default_rng(4)
        layer = GRU(3, 2, np.random.default_rng(4))
        x = rng.normal(size=(1, 5, 3))
        _assert_paths_agree(layer, gru_reference, x, TOL,
                            lengths=np.array([2]))

    def test_frozen_rows_repeat_final_state(self):
        rng = np.random.default_rng(5)
        layer = GRU(3, 4, np.random.default_rng(5))
        x = rng.normal(size=(2, 6, 3))
        lengths = np.array([2, 5])
        out = layer(Tensor(x), lengths=lengths).data
        for row, length in enumerate(lengths):
            tail = out[row, length:]
            np.testing.assert_array_equal(
                tail, np.broadcast_to(out[row, length - 1], tail.shape))

    def test_padded_timesteps_get_zero_input_grad(self):
        rng = np.random.default_rng(6)
        layer = GRU(3, 4, np.random.default_rng(6))
        x = rng.normal(size=(2, 6, 3))
        lengths = np.array([2, 6])
        _, grads = _run_layer(layer, x, lengths)
        assert np.all(grads["x"][0, 2:] == 0.0)
        assert np.any(grads["x"][0, :2] != 0.0)
        assert np.any(grads["x"][1, 5:] != 0.0)

    def test_no_grad_path_matches_grad_path(self):
        """The lean inference forward (no cached stacks) computes the
        same floats as the training forward."""
        rng = np.random.default_rng(8)
        layer = GRU(3, 4, np.random.default_rng(8))
        x = rng.normal(size=(2, 5, 3))
        with no_grad():
            lean = layer(Tensor(x)).data.copy()
        full = layer(Tensor(x, requires_grad=True)).data
        np.testing.assert_array_equal(lean, full)

    @pytest.mark.parametrize("scan", _LENGTH_AWARE_SCANS)
    def test_zero_length_row_keeps_initial_state(self, scan):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 4, 3))
        h0 = rng.normal(size=(2, 4))
        out = _final_state(scan, x, h0, lengths=np.array([0, 4])).data
        np.testing.assert_array_equal(out[0], Tensor(h0).data[0])
        assert np.any(out[1] != out[0])


class _Batch:
    """Minimal stand-in for the EMRDataset slice forward_batch consumes."""

    def __init__(self, rng, batch, steps, channels):
        self.values = rng.normal(size=(batch, steps, channels))
        self.mask = (rng.random((batch, steps, channels)) < 0.6
                     ).astype(np.float64)
        self.deltas = np.abs(rng.normal(size=(batch, steps, channels))) + 0.5


def _run_model(forward, model, batch):
    """Forward + backward of sum(logits^2) through ``forward(batch)``;
    returns (logits, param grads).

    A parameter the path never touched (e.g. the T=1 stage gate, whose
    recalibrated cell is never read again on the step path) reports its
    gradient as zeros — the scan paths accumulate explicit zeros there.
    """
    model.zero_grad()
    logits = forward(batch)
    (logits * logits).sum().backward()
    return logits.data.copy(), {
        name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
        for name, p in model.named_parameters()}


def _assert_model_paths_agree(model, oracle, batch, tol):
    """``model.forward_batch`` (the scan) against ``oracle(model, batch)``."""
    out_scan, grads_scan = _run_model(model.forward_batch, model, batch)
    out_step, grads_step = _run_model(lambda b: oracle(model, b), model,
                                      batch)
    assert _max_diff(out_scan, out_step) < tol
    assert grads_scan.keys() == grads_step.keys()
    for name in grads_scan:
        assert _max_diff(grads_scan[name], grads_step[name]) < tol, name


class TestGRUDScanEquivalence:
    """The decay-augmented scan against GRU-D's step-unrolled oracle:
    forward logits and the gradient of *every* parameter (decay rates,
    decay projection, GRU kernels, head) within tolerance."""

    @pytest.mark.parametrize("batch,steps", [(1, 6), (3, 6), (4, 1)])
    def test_matches_reference_path(self, batch, steps, TOL):
        rng = np.random.default_rng(batch * 10 + steps)
        model = GRUD(3, np.random.default_rng(1), hidden_size=4)
        _assert_model_paths_agree(model, grud_reference,
                                  _Batch(rng, batch, steps, 3), TOL)

    def test_all_observed_and_none_observed_masks(self, TOL):
        rng = np.random.default_rng(21)
        model = GRUD(3, np.random.default_rng(2), hidden_size=4)
        batch = _Batch(rng, 2, 5, 3)
        for fill in (1.0, 0.0):      # decay path fully off / fully on
            batch.mask = np.full_like(batch.mask, fill)
            _assert_model_paths_agree(model, grud_reference, batch, TOL)

    def test_no_grad_path_matches_grad_path(self):
        rng = np.random.default_rng(22)
        model = GRUD(3, np.random.default_rng(3), hidden_size=4)
        batch = _Batch(rng, 2, 5, 3)
        with no_grad():
            lean = model.predict_logits(batch)
        full = model.forward_batch(batch).data
        np.testing.assert_array_equal(lean, full)


class TestStageNetScanEquivalence:
    """The stage-aware scan against StageNet's step-unrolled oracle,
    including the stage-gate parameters and the conv/attention head fed
    by the scanned trajectory."""

    @pytest.mark.parametrize("batch,steps", [(1, 6), (3, 6), (4, 1)])
    def test_matches_reference_path(self, batch, steps, TOL):
        rng = np.random.default_rng(batch * 10 + steps + 100)
        model = StageNet(3, np.random.default_rng(1), hidden_size=6,
                         conv_channels=4, kernel_size=3)
        _assert_model_paths_agree(model, stagenet_reference,
                                  _Batch(rng, batch, steps, 3), TOL)

    def test_no_grad_path_matches_grad_path(self):
        rng = np.random.default_rng(23)
        model = StageNet(3, np.random.default_rng(4), hidden_size=6,
                         conv_channels=4, kernel_size=3)
        batch = _Batch(rng, 2, 5, 3)
        with no_grad():
            lean = model.predict_logits(batch)
        full = model.forward_batch(batch).data
        np.testing.assert_array_equal(lean, full)


def _per_feature_encoder(channels, hidden, seed):
    """A ConCare encoder with a non-zero input bias (the default is
    zeros, which would leave the bias path unexercised)."""
    rng = np.random.default_rng(seed)
    encoder = PerFeatureGRU(channels, hidden, rng)
    encoder.bias.data[...] = rng.normal(size=encoder.bias.shape) * 0.3
    return encoder


def _run_per_feature(fn, encoder, x):
    """Forward + backward of sum(out^2) through ``fn(values, w_ih, w_hh,
    bias)``; returns (out, grads by name)."""
    encoder.zero_grad()
    xt = Tensor(x, requires_grad=True)
    out = fn(xt, encoder.w_ih, encoder.w_hh, encoder.bias)
    (out * out).sum().backward()
    grads = {"values": xt.grad.copy()}
    grads.update({name: p.grad.copy()
                  for name, p in encoder.named_parameters()})
    return out.data.copy(), grads


_STREAM_STEPS = 6


def _per_feature_stream(batch, dtype):
    rng = np.random.default_rng(203 + batch)
    encoder = _per_feature_encoder(4, 2, 9)
    x = rng.normal(size=(batch, _STREAM_STEPS, 4)).astype(dtype)
    params = [p.data for p in (encoder.w_ih, encoder.w_hh, encoder.bias)]
    return (encoder.initial_state(batch).data,
            lambda h, t: ops.per_feature_gru_scan_step(x[:, t], h, *params),
            lambda t: ops.per_feature_gru_scan(x[:, :t], *params).data,
            lambda h: h.transpose(2, 0, 1))


def _stream_arrays(batch, dtype, *shapes):
    """Seeded ``(batch, steps, 3)`` inputs and ``(batch, 4)`` states
    (``"x"`` and ``"h"``), then weights of the given shapes."""
    rng = np.random.default_rng(300 + batch)
    named = {"x": (batch, _STREAM_STEPS, 3), "h": (batch, 4)}
    return [(rng.normal(size=named.get(s, s))
             * (1.0 if s in named else 0.5)).astype(dtype) for s in shapes]


def _gru_stream(batch, dtype):
    x, h0, *w = _stream_arrays(batch, dtype, "x", "h", (3, 12), (4, 12),
                               (12,), (12,))
    return (h0, lambda h, t: ops.gru_scan_step(x[:, t], h, *w),
            lambda t: ops.gru_scan(x[:, :t], h0, *w,
                                   return_sequences=False).data,
            lambda h: h)


def _grud_stream(batch, dtype):
    v, d, h0, *w = _stream_arrays(batch, dtype, "x", "x", "h", (3,),
                                  (3, 4), (4,), (6, 12), (4, 12), (12,),
                                  (12,))
    d = np.abs(d) + 0.5
    m = (np.random.default_rng(batch).random(v.shape) < 0.6).astype(dtype)
    return (h0, lambda h, t: ops.grud_scan_step(v[:, t], m[:, t], d[:, t],
                                                h, *w),
            lambda t: ops.grud_scan(v[:, :t], m[:, :t], d[:, :t], h0,
                                    *w).data,
            lambda h: h)


def _stagenet_stream(batch, dtype):
    x, h0, c0, *w = _stream_arrays(batch, dtype, "x", "h", "h", (3, 16),
                                   (4, 16), (16,), (7, 1), (1,))
    return ((h0, c0),
            lambda hc, t: ops.stagenet_scan_step(x[:, t], *hc, *w),
            lambda t: ops.stagenet_scan(x[:, :t], h0, c0, *w,
                                        return_sequences=False).data,
            lambda hc: hc[0])


#: Per array step kernel: ``(state, step, prefix, read)``, where
#: ``step(state, t)`` advances over timestep ``t``, ``prefix(t)`` is the
#: scan's final state over the first ``t`` steps, and ``read(state)`` is
#: the streamed state in the scan's output layout.  Non-zero initial
#: states wherever the op takes one.
_STREAM_CASES = {
    "per_feature_gru_scan_step": _per_feature_stream,
    "gru_scan_step": _gru_stream,
    "grud_scan_step": _grud_stream,
    "stagenet_scan_step": _stagenet_stream,
}


class TestPerFeatureGRUScanEquivalence:
    """ConCare's per-feature scan against the step-unrolled composition
    it replaced (tests/nn/oracles.py): the final states and the gradient
    of the input and of every weight within tolerance."""

    def _assert_agrees(self, encoder, x, tol):
        out_scan, grads_scan = _run_per_feature(
            ops.per_feature_gru_scan, encoder, x)
        out_ref, grads_ref = _run_per_feature(
            per_feature_gru_reference, encoder, x)
        assert out_scan.shape == out_ref.shape
        assert _max_diff(out_scan, out_ref) < tol
        assert grads_scan.keys() == {"values", "w_ih", "w_hh", "bias"}
        for name in grads_scan:
            assert _max_diff(grads_scan[name], grads_ref[name]) < tol, name

    @pytest.mark.parametrize("batch,steps", [(1, 6), (3, 6), (4, 1)])
    def test_matches_reference_path(self, batch, steps, TOL):
        rng = np.random.default_rng(batch * 10 + steps + 200)
        encoder = _per_feature_encoder(5, 4, batch)
        self._assert_agrees(encoder, rng.normal(size=(batch, steps, 5)),
                            TOL)

    def test_non_contiguous_input(self, TOL):
        rng = np.random.default_rng(201)
        encoder = _per_feature_encoder(5, 4, 7)
        x = rng.normal(size=(2, 12, 10))[:, ::2, ::2]
        assert not x.flags["C_CONTIGUOUS"]
        self._assert_agrees(encoder, x, TOL)

    def test_no_grad_path_matches_grad_path(self):
        rng = np.random.default_rng(202)
        encoder = _per_feature_encoder(4, 3, 8)
        x = rng.normal(size=(3, 5, 4))
        with no_grad():
            lean = encoder(Tensor(x)).data.copy()
        full = encoder(Tensor(x, requires_grad=True)).data
        np.testing.assert_array_equal(lean, full)

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("kernel", sorted(_STREAM_CASES))
    def test_streamed_steps_reproduce_every_prefix(self, kernel, batch,
                                                   dtype_policy):
        """Each array step kernel fed one timestep at a time reaches its
        scan's state bit for bit after every prefix."""
        state, step, prefix, read = _STREAM_CASES[kernel](batch,
                                                          dtype_policy)
        for t in range(1, _STREAM_STEPS + 1):
            state = step(state, t - 1)
            h = read(state)
            assert h.dtype == dtype_policy
            with no_grad():
                full = prefix(t)
            np.testing.assert_array_equal(h, full)


class TestScanOpValidation:
    def test_gru_scan_rejects_2d_input(self):
        with pytest.raises(ValueError, match="gru_scan expects"):
            ops.gru_scan(np.zeros((2, 5)), np.zeros((2, 4)),
                         np.zeros((5, 12)), np.zeros((4, 12)),
                         np.zeros(12), np.zeros(12))

    def test_gru_scan_rejects_mismatched_weights(self):
        with pytest.raises(ValueError, match="gru_scan shapes"):
            ops.gru_scan(np.zeros((2, 3, 5)), np.zeros((2, 4)),
                         np.zeros((5, 9)), np.zeros((4, 12)),
                         np.zeros(12), np.zeros(12))

    @pytest.mark.parametrize("bad", [np.array([1, 2, 3]),   # wrong shape
                                     np.array([1, 7]),      # > steps
                                     np.array([-1, 2])])    # negative
    def test_rejects_bad_lengths(self, bad):
        # Every length-aware scan, in one test so its ids stay put.
        for scan in _LENGTH_AWARE_SCANS:
            with pytest.raises(ValueError, match="lengths"):
                _final_state(scan, np.zeros((2, 5, 3)), np.zeros((2, 4)),
                             lengths=bad)

    def test_grud_scan_rejects_mismatched_mask(self):
        with pytest.raises(ValueError, match="grud_scan mask"):
            ops.grud_scan(np.zeros((2, 3, 5)), np.zeros((2, 4, 5)),
                          np.zeros((2, 3, 5)), np.zeros((2, 4)),
                          np.zeros(5), np.zeros((5, 4)), np.zeros(4),
                          np.zeros((10, 12)), np.zeros((4, 12)),
                          np.zeros(12), np.zeros(12))

    @pytest.mark.parametrize("w_hh_shape,bias_shape", [
        ((3, 4, 9), (3, 12)),      # w_hh not (H, 3H)
        ((2, 4, 12), (2, 12)),     # two GRUs for three features
    ], ids=["mismatched-w_hh", "feature-count"])
    def test_per_feature_gru_scan_rejects_mismatched_shapes(
            self, w_hh_shape, bias_shape):
        with pytest.raises(ValueError, match="per_feature_gru_scan shapes"):
            ops.per_feature_gru_scan(np.zeros((2, 5, 3)),
                                     np.zeros((w_hh_shape[0], 1, 12)),
                                     np.zeros(w_hh_shape),
                                     np.zeros(bias_shape))

    def test_stagenet_scan_rejects_mismatched_stage_gate(self):
        with pytest.raises(ValueError, match="stagenet_scan shapes"):
            ops.stagenet_scan(np.zeros((2, 3, 5)), np.zeros((2, 4)),
                              np.zeros((2, 4)), np.zeros((5, 16)),
                              np.zeros((4, 16)), np.zeros(16),
                              np.zeros((8, 1)), np.zeros(1))


class TestScanRaggedGradients:
    """Frozen-row semantics of the new scans at the op level: rows past
    their length repeat the final state and contribute zero gradient to
    the padded input timesteps."""

    def test_grud_scan_frozen_rows_and_padded_grads(self):
        rng = np.random.default_rng(31)
        values = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
        deltas = Tensor(np.abs(rng.normal(size=(2, 5, 3))) + 0.5,
                        requires_grad=True)
        mask = (rng.random((2, 5, 3)) < 0.6).astype(np.float64)
        out = ops.grud_scan(
            values, mask, deltas, Tensor(np.zeros((2, 2))),
            Tensor(np.full(3, 0.1)), Tensor(rng.normal(size=(3, 2)) * 0.5),
            Tensor(np.zeros(2)), Tensor(rng.normal(size=(6, 6)) * 0.5),
            Tensor(rng.normal(size=(2, 6)) * 0.5), Tensor(np.zeros(6)),
            Tensor(np.zeros(6)), lengths=np.array([2, 5]),
            return_sequences=True)
        (out * out).sum().backward()
        np.testing.assert_array_equal(
            out.data[0, 2:], np.broadcast_to(out.data[0, 1], (3, 2)))
        assert np.all(values.grad[0, 2:] == 0.0)
        assert np.all(deltas.grad[0, 2:] == 0.0)
        assert np.any(values.grad[0, :2] != 0.0)
        assert np.any(values.grad[1, 4:] != 0.0)

    def test_stagenet_scan_frozen_rows_and_padded_grads(self):
        rng = np.random.default_rng(32)
        x = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
        out = ops.stagenet_scan(
            x, Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 2))),
            Tensor(rng.normal(size=(3, 8)) * 0.5),
            Tensor(rng.normal(size=(2, 8)) * 0.5), Tensor(np.zeros(8)),
            Tensor(rng.normal(size=(5, 1)) * 0.5), Tensor(np.zeros(1)),
            lengths=np.array([2, 5]))
        (out * out).sum().backward()
        np.testing.assert_array_equal(
            out.data[0, 2:], np.broadcast_to(out.data[0, 1], (3, 2)))
        assert np.all(x.grad[0, 2:] == 0.0)
        assert np.any(x.grad[0, :2] != 0.0)
        assert np.any(x.grad[1, 4:] != 0.0)


class TestScanRegistryCoverage:
    """Satellite: the scan ops are first-class registry citizens, so the
    registry-driven gradcheck sweep covers them automatically (and the
    gradcheck itself forces float64 per the PR 5 contract even when
    entered from the float32 lane)."""

    @pytest.mark.parametrize("name", ["gru_scan", "per_feature_gru_scan",
                                      "grud_scan", "stagenet_scan"])
    def test_registered_with_sample_factory(self, name):
        registry = ops.registered_ops()
        assert name in registry
        assert registry[name].sample_factory is not None
        samples = ops.sample_inputs(name, np.random.default_rng(0))
        # Ragged-length and final-state-only scenarios must be in the
        # sweep, not just the dense default.
        assert len(samples) >= 2, f"{name} needs masked scan scenarios"
        for sample in samples:
            gradcheck(sample.build, *sample.arrays)
