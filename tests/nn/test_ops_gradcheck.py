"""Finite-difference gradient checks for every differentiable op.

These are the ground-truth tests of the autodiff engine: each op's
backward closure is compared against central differences on random
inputs, including broadcasting shapes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import ops
from tests.conftest import assert_gradcheck

RNG = np.random.default_rng(7)


def _rand(*shape):
    return RNG.normal(size=shape)


class TestElementwiseGrads:
    def test_add_broadcast(self):
        assert_gradcheck(lambda a, b: (a + b).sum(), _rand(3, 4), _rand(4))

    def test_sub_broadcast(self):
        assert_gradcheck(lambda a, b: (a - b).sum(), _rand(2, 1, 3), _rand(3))

    def test_mul_broadcast(self):
        assert_gradcheck(lambda a, b: (a * b).sum(), _rand(3, 4), _rand(3, 1))

    def test_div(self):
        assert_gradcheck(lambda a, b: (a / b).sum(),
                         _rand(3, 4), _rand(3, 4) + 3.0)

    def test_neg(self):
        assert_gradcheck(lambda a: (-a).sum(), _rand(5))

    def test_power(self):
        assert_gradcheck(lambda a: (a ** 3).sum(), _rand(4))

    def test_clip(self):
        assert_gradcheck(lambda a: ops.clip(a, -0.5, 0.5).sum(),
                         _rand(8) * 2.0)


class TestTranscendentalGrads:
    def test_exp(self):
        assert_gradcheck(lambda a: ops.exp(a).sum(), _rand(5))

    def test_log(self):
        assert_gradcheck(lambda a: ops.log(a).sum(), np.abs(_rand(5)) + 1.0)

    def test_sqrt(self):
        assert_gradcheck(lambda a: ops.sqrt(a).sum(), np.abs(_rand(5)) + 1.0)

    def test_tanh(self):
        assert_gradcheck(lambda a: ops.tanh(a).sum(), _rand(5))

    def test_sigmoid(self):
        assert_gradcheck(lambda a: ops.sigmoid(a).sum(), _rand(5))

    def test_relu(self):
        assert_gradcheck(lambda a: ops.relu(a).sum(), _rand(7) + 0.3)


class TestReductionGrads:
    def test_sum_all(self):
        assert_gradcheck(lambda a: a.sum(), _rand(3, 4))

    def test_sum_axis(self):
        assert_gradcheck(lambda a: a.sum(axis=1).sum(), _rand(3, 4))

    def test_sum_keepdims(self):
        assert_gradcheck(lambda a: (a.sum(axis=0, keepdims=True) ** 2).sum(),
                         _rand(3, 4))

    def test_sum_negative_axis(self):
        assert_gradcheck(lambda a: (a.sum(axis=-1) ** 2).sum(), _rand(2, 3))

    def test_mean_axis(self):
        assert_gradcheck(lambda a: (a.mean(axis=1) ** 2).sum(), _rand(3, 4))

    def test_mean_axis_tuple(self):
        assert_gradcheck(lambda a: (ops.mean(a, axis=(0, 2)) ** 2).sum(),
                         _rand(2, 3, 4))

    def test_var(self):
        assert_gradcheck(lambda a: ops.var(a, axis=-1).sum(), _rand(3, 5))


class TestMatmulGrads:
    def test_2d_2d(self):
        assert_gradcheck(lambda a, b: (a @ b).sum(), _rand(3, 4), _rand(4, 2))

    def test_batched(self):
        assert_gradcheck(lambda a, b: (a @ b).sum(),
                         _rand(2, 3, 4), _rand(2, 4, 2))

    def test_broadcast_left(self):
        assert_gradcheck(lambda a, b: (a @ b).sum(),
                         _rand(2, 3, 4), _rand(4, 2))

    def test_broadcast_right(self):
        assert_gradcheck(lambda a, b: (a @ b).sum(),
                         _rand(3, 4), _rand(2, 4, 2))

    def test_vector_matrix(self):
        assert_gradcheck(lambda a, b: (a @ b).sum(), _rand(4), _rand(4, 3))

    def test_matrix_vector(self):
        assert_gradcheck(lambda a, b: (a @ b).sum(), _rand(3, 4), _rand(4))

    def test_vector_vector(self):
        assert_gradcheck(lambda a, b: a @ b, _rand(4), _rand(4))

    def test_batched_matrix_vector(self):
        assert_gradcheck(lambda a, b: (a @ b).sum(), _rand(2, 3, 4), _rand(4))

    def test_4d_batched(self):
        assert_gradcheck(lambda a, b: (a @ b).sum(),
                         _rand(2, 2, 3, 4), _rand(2, 2, 4, 3))


class TestShapeGrads:
    def test_reshape(self):
        assert_gradcheck(lambda a: (a.reshape(6) ** 2).sum(), _rand(2, 3))

    def test_transpose_default(self):
        assert_gradcheck(lambda a: (ops.transpose(a) ** 2).sum(), _rand(2, 3))

    def test_transpose_axes(self):
        assert_gradcheck(lambda a: (ops.transpose(a, (1, 2, 0)) ** 2).sum(),
                         _rand(2, 3, 4))

    def test_swapaxes(self):
        assert_gradcheck(lambda a: (ops.swapaxes(a, 0, 2) ** 2).sum(),
                         _rand(2, 3, 4))

    def test_getitem_slice(self):
        assert_gradcheck(lambda a: (a[1:, :2] ** 2).sum(), _rand(3, 4))

    def test_getitem_negative_step(self):
        assert_gradcheck(lambda a: (a[:, ::-1] * np.arange(4.0)).sum(),
                         _rand(3, 4))

    def test_getitem_integer_array(self):
        idx = np.array([0, 2, 2])
        assert_gradcheck(lambda a: (a[idx] ** 2).sum(), _rand(3, 4))

    def test_concat(self):
        assert_gradcheck(lambda a, b: (ops.concat([a, b], axis=1) ** 2).sum(),
                         _rand(2, 3), _rand(2, 2))

    def test_split(self):
        assert_gradcheck(
            lambda a: sum((part ** 2).sum() * (i + 1)
                          for i, part in enumerate(ops.split(a, 3, axis=-1))),
            _rand(2, 6))

    def test_pad_last(self):
        assert_gradcheck(lambda a: (ops.pad_last(a, 1, 2) ** 2).sum(),
                         _rand(2, 3))


class TestSoftmaxGrads:
    def test_softmax(self):
        assert_gradcheck(lambda a: (ops.softmax(a, axis=-1)
                                    * np.arange(4.0)).sum(), _rand(3, 4))

    def test_softmax_axis0(self):
        assert_gradcheck(lambda a: (ops.softmax(a, axis=0) ** 2).sum(),
                         _rand(3, 4))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
def test_matmul_gradcheck_random_shapes(m, k, n):
    """Property: matmul gradients match finite differences for any shape."""
    rng = np.random.default_rng(m * 100 + k * 10 + n)
    assert_gradcheck(lambda a, b: ((a @ b) ** 2).sum(),
                     rng.normal(size=(m, k)), rng.normal(size=(k, n)))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(1, 3))
def test_softmax_rows_sum_to_one(cols, rows):
    """Property: softmax output is a distribution along the chosen axis."""
    rng = np.random.default_rng(cols * 7 + rows)
    from repro import nn
    x = nn.Tensor(rng.normal(size=(rows, cols)) * 5)
    out = ops.softmax(x, axis=-1).data
    assert np.allclose(out.sum(axis=-1), 1.0)
    assert (out >= 0).all()


class TestBackwardRegressions:
    """Regression tests for backward bugs surfaced by the registry sweep."""

    def test_power_zero_exponent_has_zero_grad_at_zero_base(self):
        # d/dx x**0 = 0 everywhere; the generic 0 * x**-1 formula emitted
        # NaN at x = 0.
        from repro import nn
        x = nn.Tensor(np.array([0.0, 2.0, -1.5]), requires_grad=True)
        ops.sum(ops.power(x, 0.0)).backward()
        np.testing.assert_allclose(x.grad, 0.0)

    def test_transpose_negative_axes_gradcheck(self):
        # The inverse permutation was computed from the raw (negative)
        # axes, scattering gradients to the wrong positions.
        assert_gradcheck(
            lambda a: ((ops.transpose(a, (0, -1, 1))
                        * np.arange(24.0).reshape(2, 4, 3)) ** 2).sum(),
            _rand(2, 3, 4))

    def test_transpose_negative_axes_roundtrip_grad(self):
        from repro import nn
        x = nn.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        weights = np.arange(6.0).reshape(3, 2)
        ops.sum(ops.mul(ops.transpose(x, (-1, -2)),
                        nn.Tensor(weights))).backward()
        np.testing.assert_allclose(x.grad, weights.T)
