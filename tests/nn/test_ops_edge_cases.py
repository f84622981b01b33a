"""Edge-case tests of the op layer beyond the gradcheck suite."""

import numpy as np
import pytest

from repro import nn
from repro.nn import ops


class TestShapesAndErrors:
    def test_split_rejects_uneven(self):
        with pytest.raises(ValueError):
            ops.split(nn.Tensor(np.zeros((2, 5))), 2, axis=-1)

    def test_split_count_and_shapes(self):
        parts = ops.split(nn.Tensor(np.zeros((2, 6))), 3, axis=-1)
        assert len(parts) == 3
        assert all(p.shape == (2, 2) for p in parts)

    def test_concat_axis0(self):
        a = nn.Tensor(np.ones((2, 3)))
        b = nn.Tensor(np.zeros((1, 3)))
        out = ops.concat([a, b], axis=0)
        assert out.shape == (3, 3)
        assert out.data[-1].sum() == 0.0

    def test_getitem_boolean_mask_forward(self):
        x = nn.Tensor(np.arange(6.0))
        mask = np.array([True, False, True, False, True, False])
        assert np.array_equal(x[mask].data, [0.0, 2.0, 4.0])

    @pytest.mark.parametrize("index", [
        (slice(1, None), slice(None, 2)),
        (slice(None), slice(None, None, -2)),
        (Ellipsis, 1),
        (0, None, slice(1, 3)),
        2,
    ], ids=["slices", "negative-step", "ellipsis-int", "int-newaxis", "int"])
    def test_getitem_basic_index_backward_matches_add_at(self, index):
        """The assignment fast path for basic indices writes exactly the
        scatter-add result."""
        rng = np.random.default_rng(0)
        a = nn.Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
        out = ops.getitem(a, index)
        grad = rng.normal(size=out.shape)
        (out * nn.Tensor(grad)).sum().backward()
        expected = np.zeros_like(a.data)
        np.add.at(expected, index, grad)
        np.testing.assert_array_equal(a.grad, expected)

    def test_getitem_repeated_advanced_index_accumulates(self):
        a = nn.Tensor(np.zeros((3, 4)), requires_grad=True)
        ops.getitem(a, np.array([0, 2, 2])).sum().backward()
        np.testing.assert_array_equal(a.grad[:, 0], [1.0, 0.0, 2.0])

class TestNumericalStability:
    def test_softmax_extreme_logits(self):
        x = nn.Tensor(np.array([[1000.0, -1000.0, 0.0]]))
        out = ops.softmax(x, axis=-1).data
        assert np.isfinite(out).all()
        assert np.isclose(out.sum(), 1.0)
        assert out[0, 0] > 0.999

    def test_sigmoid_extreme_values(self):
        x = nn.Tensor(np.array([500.0, -500.0]))
        out = ops.sigmoid(x).data
        assert np.isfinite(out).all()
        assert out[0] > 0.999 and out[1] < 0.001

    def test_softmax_cross_entropy_extreme(self):
        x = nn.Tensor(np.array([[800.0, 0.0]]), requires_grad=True)
        out = ops.softmax_cross_entropy(x, np.array([1]))
        assert np.isfinite(out.data).all()
        out.sum().backward()
        assert np.isfinite(x.grad).all()


class TestKinks:
    """The gradient each piecewise op takes exactly at its kink."""

    def test_clip_passes_gradient_at_the_bounds(self):
        x = nn.Tensor(np.array([-0.5, 0.5, 0.0, 0.7, -0.9]),
                      requires_grad=True)
        ops.clip(x, -0.5, 0.5).sum().backward()
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0, 0.0, 0.0])

    def test_relu_has_zero_gradient_at_zero(self):
        x = nn.Tensor(np.array([0.0, -0.0, 1e-30, -1.0]),
                      requires_grad=True)
        ops.relu(x).sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0, 0.0])

