"""Property-style broadcasting checks for the binary elementwise ops.

For every shape pair in a grid (scalar, row, column, full, 3-D, trailing
vector) and every broadcasting binary op, assert that the gradient of
each input has the *input's* shape — i.e. :func:`repro.nn.tensor.unbroadcast`
round-trips the broadcast — and that the gradients agree with central
finite differences.
"""

import numpy as np
import pytest

from repro.nn import ops
from repro.nn.gradcheck import gradcheck
from repro.nn.tensor import Tensor, unbroadcast

# (shape_a, shape_b) pairs that exercise every broadcasting rule:
# scalar vs array, size-1 axes in either operand, missing leading axes,
# and both operands needing expansion at once.
SHAPE_PAIRS = [
    ((), (2, 3)),
    ((2, 3), ()),
    ((1, 3), (2, 3)),
    ((2, 1), (2, 3)),
    ((2, 3), (1, 3)),
    ((2, 1), (1, 3)),
    ((3,), (2, 3)),
    ((2, 1, 3), (1, 4, 3)),
    ((4,), (2, 3, 4)),
]

BINARY_OPS = ["add", "sub", "mul", "div"]


def _seed(op_name, shape_a, shape_b, trial=0):
    # hash() is randomized per process for strings; derive a stable seed.
    return (101 * BINARY_OPS.index(op_name)
            + 13 * SHAPE_PAIRS.index((shape_a, shape_b))
            + 7919 * trial)


def _operands(rng, op_name, shape_a, shape_b):
    a = rng.normal(size=shape_a)
    b = rng.normal(size=shape_b)
    if op_name == "div":
        # Keep the denominator away from 0 so finite differences behave.
        b = np.sign(b) * (np.abs(b) + 0.5)
    return a, b


@pytest.mark.parametrize("op_name", BINARY_OPS)
@pytest.mark.parametrize("shape_a,shape_b", SHAPE_PAIRS)
def test_broadcast_grad_shapes_and_values(op_name, shape_a, shape_b):
    rng = np.random.default_rng(_seed(op_name, shape_a, shape_b))
    op = getattr(ops, op_name)
    a, b = _operands(rng, op_name, shape_a, shape_b)

    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    out = op(ta, tb)
    assert out.shape == np.broadcast_shapes(shape_a, shape_b)
    ops.sum(out).backward()
    assert ta.grad.shape == ta.data.shape, (
        f"{op_name}: grad of input a has shape {ta.grad.shape}, "
        f"expected {ta.data.shape} (unbroadcast did not round-trip)")
    assert tb.grad.shape == tb.data.shape

    gradcheck(lambda x, y: ops.sum(ops.mul(op(x, y), op(x, y))), a, b)


@pytest.mark.gradcheck
@pytest.mark.parametrize("op_name", BINARY_OPS)
@pytest.mark.parametrize("shape_a,shape_b", SHAPE_PAIRS)
def test_broadcast_gradcheck_multi_seed(op_name, shape_a, shape_b):
    op = getattr(ops, op_name)
    for trial in range(3):
        rng = np.random.default_rng(_seed(op_name, shape_a, shape_b, trial))
        a, b = _operands(rng, op_name, shape_a, shape_b)
        gradcheck(lambda x, y: ops.sum(ops.mul(op(x, y), op(x, y))), a, b)


class TestUnbroadcast:
    """Direct unit tests of the gradient-reduction helper."""

    def test_identity_when_shapes_match(self):
        g = np.arange(6.0).reshape(2, 3)
        assert unbroadcast(g, (2, 3)) is g

    def test_sums_over_expanded_leading_axis(self):
        g = np.ones((4, 2, 3))
        out = unbroadcast(g, (2, 3))
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out, 4.0)

    def test_sums_over_size_one_axis_keeping_dims(self):
        g = np.arange(6.0).reshape(2, 3)
        out = unbroadcast(g, (2, 1))
        assert out.shape == (2, 1)
        np.testing.assert_allclose(out[:, 0], g.sum(axis=1))

    def test_scalar_target_collapses_everything(self):
        g = np.ones((2, 3, 4))
        out = unbroadcast(g, ())
        assert np.shape(out) == ()
        assert float(out) == 24.0

    def test_mixed_leading_and_size_one(self):
        g = np.ones((5, 2, 1, 3))
        out = unbroadcast(g, (1, 3))
        assert out.shape == (1, 3)
        np.testing.assert_allclose(out, 10.0)
