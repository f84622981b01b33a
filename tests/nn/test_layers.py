"""Tests of the layer zoo: shapes, semantics, and reference comparisons."""

import numpy as np
import pytest

from repro import nn
from repro.nn import ops
from repro.nn.layers import (GRU, AdditiveAttention, BiGRU, Conv1D, Dense,
                             GeneralAttention, GRUCell, LayerNorm,
                             LocationAttention, MLP, LSTMCell,
                             MultiHeadSelfAttention, positional_encoding)


@pytest.fixture
def local_rng():
    return np.random.default_rng(99)


class TestDense:
    def test_output_shape(self, local_rng):
        layer = Dense(4, 7, local_rng)
        out = layer(nn.Tensor(np.zeros((3, 4))))
        assert out.shape == (3, 7)

    def test_broadcasts_over_leading_dims(self, local_rng):
        layer = Dense(4, 7, local_rng)
        out = layer(nn.Tensor(np.zeros((2, 5, 4))))
        assert out.shape == (2, 5, 7)

    def test_activation_applied(self, local_rng):
        layer = Dense(3, 3, local_rng, activation="relu")
        out = layer(nn.Tensor(-np.ones((1, 3)) * 100))
        assert np.all(out.data >= 0)

    def test_no_bias_option(self, local_rng):
        layer = Dense(3, 2, local_rng, use_bias=False)
        assert len(layer.parameters()) == 1

    def test_unknown_activation_raises(self, local_rng):
        with pytest.raises(ValueError):
            Dense(2, 2, local_rng, activation="warp")

    def test_callable_activation(self, local_rng):
        layer = Dense(2, 2, local_rng, activation=ops.tanh)
        out = layer(nn.Tensor(np.ones((1, 2)) * 100))
        assert np.all(np.abs(out.data) <= 1.0)


class TestMLP:
    def test_stacks_layers(self, local_rng):
        mlp = MLP([4, 8, 8, 2], local_rng)
        assert mlp(nn.Tensor(np.zeros((3, 4)))).shape == (3, 2)

    def test_requires_two_sizes(self, local_rng):
        with pytest.raises(ValueError):
            MLP([4], local_rng)


class TestRecurrent:
    def test_gru_sequence_shape(self, local_rng):
        gru = GRU(5, 8, local_rng)
        out = gru(nn.Tensor(np.zeros((2, 6, 5))))
        assert out.shape == (2, 6, 8)

    def test_gru_last_state_mode(self, local_rng):
        gru = GRU(5, 8, local_rng, return_sequences=False)
        assert gru(nn.Tensor(np.zeros((2, 6, 5)))).shape == (2, 8)

    def test_gru_zero_input_zero_state_stays_bounded(self, local_rng):
        gru = GRU(3, 4, local_rng)
        out = gru(nn.Tensor(np.zeros((1, 10, 3))))
        assert np.all(np.abs(out.data) <= 1.0)

    def test_gru_cell_matches_manual_formula(self, local_rng):
        cell = GRUCell(2, 3, local_rng)
        x = local_rng.normal(size=(1, 2))
        h = local_rng.normal(size=(1, 3))
        out = cell(nn.Tensor(x), nn.Tensor(h)).data

        def sigmoid(v):
            return 1 / (1 + np.exp(-v))

        gates_x = x @ cell.w_ih.data + cell.b_ih.data
        gates_h = h @ cell.w_hh.data + cell.b_hh.data
        z = sigmoid(gates_x[:, :3] + gates_h[:, :3])
        r = sigmoid(gates_x[:, 3:6] + gates_h[:, 3:6])
        n = np.tanh(gates_x[:, 6:] + r * gates_h[:, 6:])
        expected = z * h + (1 - z) * n
        assert np.allclose(out, expected)

    def test_lstm_forget_bias_initialized_to_one(self, local_rng):
        cell = LSTMCell(4, 6, local_rng)
        assert np.all(cell.bias.data[6:12] == 1.0)

    def test_bigru_concatenates_directions(self, local_rng):
        bigru = BiGRU(5, 8, local_rng)
        assert bigru(nn.Tensor(np.zeros((2, 6, 5)))).shape == (2, 6, 16)

    def test_bigru_backward_direction_sees_future(self, local_rng):
        bigru = BiGRU(1, 4, local_rng)
        x = np.zeros((1, 5, 1))
        x[0, -1, 0] = 1.0  # impulse at the last step
        out = bigru(nn.Tensor(x)).data
        # The backward half at t=0 must react to the impulse at t=4.
        assert np.abs(out[0, 0, 4:]).max() > 1e-6
        # The forward half at t=0 must not.
        assert np.abs(out[0, 0, :4]).max() < 1e-12


class TestAttention:
    def test_location_scores_shape(self, local_rng):
        attn = LocationAttention(8, local_rng)
        assert attn(nn.Tensor(np.zeros((2, 5, 8)))).shape == (2, 5, 1)

    def test_general_scores_shape(self, local_rng):
        attn = GeneralAttention(8, local_rng)
        out = attn(nn.Tensor(np.zeros((2, 8))), nn.Tensor(np.zeros((2, 5, 8))))
        assert out.shape == (2, 5, 1)

    def test_additive_scores_shape(self, local_rng):
        attn = AdditiveAttention(8, 6, local_rng)
        out = attn(nn.Tensor(np.zeros((2, 8))), nn.Tensor(np.zeros((2, 5, 8))))
        assert out.shape == (2, 5, 1)

    def test_multihead_output_shape(self, local_rng):
        attn = MultiHeadSelfAttention(8, 2, local_rng)
        assert attn(nn.Tensor(np.zeros((2, 5, 8)))).shape == (2, 5, 8)

    def test_multihead_rejects_indivisible(self, local_rng):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(7, 2, local_rng)

    def test_causal_mask_blocks_future(self, local_rng):
        attn = MultiHeadSelfAttention(4, 1, local_rng, causal=True)
        x = local_rng.normal(size=(1, 6, 4))
        _, weights = attn(nn.Tensor(x), return_weights=True)
        w = weights.data[0, 0]  # (T, T)
        assert np.all(np.triu(w, k=1) < 1e-9)
        assert np.allclose(w.sum(axis=-1), 1.0)

    def test_attention_weights_are_distributions(self, local_rng):
        attn = MultiHeadSelfAttention(4, 2, local_rng)
        x = local_rng.normal(size=(2, 5, 4))
        _, weights = attn(nn.Tensor(x), return_weights=True)
        assert np.allclose(weights.data.sum(axis=-1), 1.0)


class TestLayerNorm:
    def test_layernorm_standardizes(self, local_rng):
        norm = LayerNorm(16)
        x = local_rng.normal(loc=5.0, scale=3.0, size=(4, 16))
        out = norm(nn.Tensor(x)).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-3)

    def test_layernorm_scale_shift_are_learned(self):
        norm = LayerNorm(4)
        assert len(norm.parameters()) == 2

class TestConv1D:
    def test_same_padding_shape(self, local_rng):
        conv = Conv1D(3, 5, 3, local_rng)
        assert conv(nn.Tensor(np.zeros((2, 7, 3)))).shape == (2, 7, 5)

    def test_rejects_even_kernel(self, local_rng):
        with pytest.raises(ValueError):
            Conv1D(3, 5, 4, local_rng)

    def test_matches_naive_convolution(self, local_rng):
        conv = Conv1D(2, 3, 3, local_rng)
        x = local_rng.normal(size=(1, 6, 2))
        out = conv(nn.Tensor(x)).data

        kernel = conv.kernel.data  # (3, 2, 3)
        padded = np.pad(x, ((0, 0), (1, 1), (0, 0)))
        expected = np.zeros((1, 6, 3))
        for t in range(6):
            for k in range(3):
                expected[0, t] += padded[0, t + k] @ kernel[k]
        expected += conv.bias.data
        assert np.allclose(out, expected)


class TestPositionalEncoding:
    def test_positional_encoding_shape_and_range(self):
        pe = positional_encoding(48, 16).data
        assert pe.shape == (48, 16)
        assert np.all(np.abs(pe) <= 1.0)

    def test_positional_encoding_rows_distinct(self):
        pe = positional_encoding(20, 8).data
        dists = np.linalg.norm(pe[:, None] - pe[None, :], axis=-1)
        np.fill_diagonal(dists, np.inf)
        assert dists.min() > 1e-3
