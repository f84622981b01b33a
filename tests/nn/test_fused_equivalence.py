"""Seeded equivalence of the fused loss kernel vs its unfused composition.

The fused softmax-cross-entropy
(:func:`repro.nn.ops.softmax_cross_entropy`) must be a drop-in
replacement: forward values bit-identical to the op-by-op reference,
and backward both passing finite-difference gradcheck and agreeing with
the reference composition's gradients — across batch sizes including 1
and non-contiguous inputs.  The fused GRU sequence
(:func:`repro.nn.ops.gru_scan`) is held end to end to the unfused
per-step cell composition here; every recurrent scan is held to its
step-unrolled oracle in detail in tests/nn/test_scan_equivalence.py.

Every test runs in two precision lanes: float64 at 1e-10 and float32 at
1e-4 (scaled for the ~1e-7 relative rounding of single precision).  The
gradcheck-based tests force float64 internally regardless of lane; they
stay in the sweep to prove the fused ops build correct float64 graphs
even when entered from a float32 ambient policy.
"""

import numpy as np
import pytest

from repro.bench import profile
from repro.nn import Tensor, ops
from repro.nn.dtype import autocast
from repro.nn.gradcheck import gradcheck
from repro.nn.layers import GRU
from repro.nn.losses import cross_entropy
from tests.nn.oracles import gru_reference, softmax_cross_entropy_reference

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


class TestFusedGRUSequence:
    @pytest.mark.parametrize("batch", [1, 3])
    def test_full_sequence_matches_unfused(self, batch, TOL):
        """End-to-end: the GRU's one-node scan vs the unfused composition
        (``gru.cell`` applied per step), forward and every gradient."""
        rng = np.random.default_rng(batch + 40)
        gru = GRU(5, 4, np.random.default_rng(1))
        x = rng.normal(size=(batch, 6, 5))

        results = {}
        for fused in (True, False):
            gru.zero_grad()
            xt = Tensor(x, requires_grad=True)
            out = gru(xt) if fused else gru_reference(gru, xt)
            (out * out).sum().backward()
            results[fused] = (out.data.copy(), xt.grad.copy(),
                              {n: p.grad.copy()
                               for n, p in gru.named_parameters()})

        out_f, gx_f, params_f = results[True]
        out_r, gx_r, params_r = results[False]
        assert _max_diff(out_f, out_r) < TOL
        assert _max_diff(gx_f, gx_r) < TOL
        for name in params_f:
            assert _max_diff(params_f[name], params_r[name]) < TOL, name


class TestFusedSoftmaxCrossEntropy:
    def _reference(self, logits, targets):
        return softmax_cross_entropy_reference(logits, targets)

    @pytest.mark.parametrize("batch", [1, 4])
    def test_forward_bit_identical(self, batch):
        rng = np.random.default_rng(batch + 20)
        logits = rng.normal(size=(batch, 5)) * 3.0
        targets = rng.integers(0, 5, size=batch)
        fused = ops.softmax_cross_entropy(Tensor(logits), targets).data
        reference = self._reference(Tensor(logits), targets).data
        assert np.array_equal(fused, reference)

    @pytest.mark.parametrize("batch", [1, 4])
    def test_backward_matches_reference(self, batch, TOL):
        rng = np.random.default_rng(batch + 30)
        logits = rng.normal(size=(batch, 5))
        targets = rng.integers(0, 5, size=batch)
        lf = Tensor(logits, requires_grad=True)
        ops.mean(ops.softmax_cross_entropy(lf, targets)).backward()
        lr = Tensor(logits, requires_grad=True)
        ops.mean(self._reference(lr, targets)).backward()
        assert _max_diff(lf.grad, lr.grad) < TOL

    def test_non_contiguous_logits(self, TOL):
        rng = np.random.default_rng(6)
        wide = rng.normal(size=(3, 10))
        logits = wide[:, ::2]
        assert not logits.flags["C_CONTIGUOUS"]
        targets = np.array([0, 4, 2])
        lf = Tensor(logits, requires_grad=True)
        ops.sum(ops.softmax_cross_entropy(lf, targets)).backward()
        lr = Tensor(logits, requires_grad=True)
        ops.sum(self._reference(lr, targets)).backward()
        assert _max_diff(lf.grad, lr.grad) < TOL

    def test_gradcheck(self):
        rng = np.random.default_rng(8)
        targets = np.array([2, 0, 1, 3])
        gradcheck(lambda a: ops.mean(ops.softmax_cross_entropy(a, targets)),
                  rng.normal(size=(4, 4)))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="softmax_cross_entropy"):
            ops.softmax_cross_entropy(np.zeros((2, 3, 4)), np.array([0, 1]))

    def test_losses_cross_entropy_routes_through_fused_op(self):
        logits = Tensor(np.zeros((3, 4)), requires_grad=True)
        with profile() as prof:
            cross_entropy(logits, np.array([0, 1, 2]))
        assert prof.forward_calls("softmax_cross_entropy") == 1
        assert prof.forward_calls("getitem") == 0


class TestRegistryCoverage:
    """The fused loss is a first-class registry citizen, so the
    registry-driven gradcheck sweep covers it automatically."""

    @pytest.mark.parametrize("name", ["softmax_cross_entropy"])
    def test_registered_with_sample_factory(self, name):
        registry = ops.registered_ops()
        assert name in registry
        assert registry[name].sample_factory is not None
        samples = ops.sample_inputs(name, np.random.default_rng(0))
        assert samples, f"{name} factory produced no samples"
        for sample in samples:
            gradcheck(sample.build, *sample.arrays)
