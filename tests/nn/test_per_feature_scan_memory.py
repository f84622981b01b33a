"""Allocation guards for ConCare's per-feature GRU scan at training size.

``tracemalloc`` sees numpy's data buffers, so the peak of traced memory
during one call bounds what the call allocates.  At B=32, T=48, C=37,
H=32 in float32 one ``(C, T, B, 3H)`` gate-gradient slab is 20.8 MiB and
the ``(C, H, B)`` output 0.15 MiB:

* the backward replays the loop with one step's ``(C, 3H, B)`` gate
  scratch and accumulates the weight gradients step by step, so it
  holds no slab over all steps;
* the no-grad forward keeps two states and one step's scratch beside
  its output, not the ``(T, C, 3H, B)`` projection or the state stack.

``Tensor.backward(grad)`` copies its seed gradient first, so the
backward bound counts that copy too.
"""

import tracemalloc

import numpy as np
import pytest

from repro.baselines import PerFeatureGRU
from repro.nn import Tensor, no_grad, ops
from repro.nn.dtype import autocast

B, T, C, H = 32, 48, 37, 32
MiB = 2 ** 20


def _peak_bytes(fn):
    """Peak traced bytes above the starting level while ``fn`` runs."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(autouse=True)
def float32():
    with autocast("float32"):
        yield


@pytest.fixture
def encoder():
    return PerFeatureGRU(C, H, np.random.default_rng(0))


@pytest.fixture
def values():
    return np.random.default_rng(1).normal(size=(B, T, C)).astype(np.float32)


@pytest.mark.parametrize("input_grad", [False, True],
                         ids=["weights", "weights+values"])
def test_backward_peak(encoder, values, input_grad):
    out = ops.per_feature_gru_scan(Tensor(values, requires_grad=input_grad),
                                   encoder.w_ih, encoder.w_hh, encoder.bias)
    grad = np.random.default_rng(2).normal(size=out.shape).astype(np.float32)
    peak = _peak_bytes(lambda: out.backward(grad))
    bound = 8 * MiB
    assert peak < bound, f"{peak / MiB:.1f} MiB >= {bound / MiB:.1f} MiB"


def test_no_grad_forward_peak(encoder, values):
    result = []

    def forward():
        with no_grad():
            result.append(ops.per_feature_gru_scan(
                values, encoder.w_ih, encoder.w_hh, encoder.bias))

    peak = _peak_bytes(forward)
    # One step's scratch is two (C, H, B) states, the (C, 3H, B)
    # projection and recurrent slots and a (C, H, B) gate temporary:
    # nine outputs' worth, against 22 MiB for one (T, C, 3H, B) slab.
    out_bytes = result[0].data.nbytes
    bound = out_bytes + 9 * out_bytes + 64 * 1024
    assert peak <= bound, f"{peak / MiB:.2f} MiB > {bound / MiB:.2f} MiB"
