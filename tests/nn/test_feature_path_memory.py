"""Allocation guards for ELDA-Net's feature path at training size.

``tracemalloc`` sees numpy's data buffers, so the peak of traced memory
during one call bounds what the call allocates.  At B=32, T=48, C=37,
e=24, d=4 in float32 a ``(B, T, C, e)`` slab is 5.2 MiB and a
``(B, T, C, C)`` grid 8.0 MiB; each bound below leaves room for a few
MiB of tile scratch and small arrays but not for one more full slab:

* the ``feature_interaction`` backward holds only the input gradient
  beyond its tile scratch (it read every full slab the forward kept);
* the no-grad ``feature_interaction`` forward holds only its output;
* the embedding node's backward forms no ``(B, T, C, e)`` temporary.

``Tensor.backward(grad)`` copies its seed gradient first, so the
backward bounds count that copy too.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.embedding import build_embedding
from repro.nn import Tensor, no_grad, ops
from repro.nn.dtype import autocast

B, T, C, E, D = 32, 48, 37, 24, 4
MiB = 2 ** 20
#: Room for tile scratch, masks and the (C, e)-sized gradients.
SCRATCH = 2 * MiB


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
def arrays():
    rng = np.random.default_rng(0)
    return (rng.normal(size=(B, T, C, E)).astype(np.float32),
            (rng.normal(size=(C, E)) * 0.5).astype(np.float32),
            rng.normal(size=(2 * E, D)).astype(np.float32))


@pytest.mark.parametrize("attention", [True, False],
                         ids=["attention", "uniform"])
def test_feature_interaction_backward_peak(arrays, attention):
    embedded, weight, compress = (Tensor(a, requires_grad=True)
                                  for a in arrays)
    out = ops.feature_interaction(embedded, weight if attention else None,
                                  compress)
    grad = np.random.default_rng(1).normal(size=out.shape).astype(np.float32)
    peak = _peak_bytes(lambda: out.backward(grad))
    bound = grad.nbytes + embedded.data.nbytes + SCRATCH
    assert peak < bound, f"{peak / MiB:.1f} MiB >= {bound / MiB:.1f} MiB"


@pytest.mark.parametrize("attention", [True, False],
                         ids=["attention", "uniform"])
def test_feature_interaction_no_grad_forward_peak(arrays, attention):
    embedded, weight, compress = arrays
    result = []

    def forward():
        with no_grad():
            result.append(ops.feature_interaction(
                embedded, weight if attention else None, compress))

    peak = _peak_bytes(forward)
    bound = result[0].data.nbytes + SCRATCH
    assert peak < bound, f"{peak / MiB:.1f} MiB >= {bound / MiB:.1f} MiB"


@pytest.mark.parametrize("kind", ["bi", "bi*", "fm", "fm*"])
def test_embedding_backward_forms_no_slab(kind):
    rng = np.random.default_rng(2)
    values = rng.normal(size=(B, T, C)).astype(np.float32)
    values[rng.random(values.shape) < 0.2] = 0.0
    ever = rng.random((B, C)) > 0.2
    module = build_embedding(kind, C, E, np.random.default_rng(0))
    out = module(Tensor(values, requires_grad=True), ever_observed=ever)
    grad = rng.normal(size=out.shape).astype(np.float32)
    peak = _peak_bytes(lambda: out.backward(grad))
    bound = grad.nbytes + SCRATCH
    assert peak < bound, f"{peak / MiB:.1f} MiB >= {bound / MiB:.1f} MiB"
