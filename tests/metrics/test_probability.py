"""Shared probability/loss helpers (used by the engine's eval path)."""

import numpy as np

import pytest

from repro.metrics import (evaluate_multiclass, multiclass_ce, sigmoid_probs,
                           softmax_probs)
from repro.metrics.probability import probabilities


class TestSoftmaxProbs:
    def test_rows_sum_to_one(self):
        probs = softmax_probs(np.random.default_rng(0).normal(size=(5, 7)))
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0)
        assert (probs > 0).all()

    def test_shift_invariance_and_large_logits(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(softmax_probs(logits),
                                   softmax_probs(logits + 1000.0))
        assert np.isfinite(softmax_probs(np.array([[1e4, -1e4]]))).all()


class TestSigmoidProbs:
    def test_matches_closed_form(self):
        z = np.linspace(-5, 5, 11)
        np.testing.assert_allclose(sigmoid_probs(z), 1 / (1 + np.exp(-z)))

    def test_range(self):
        assert ((sigmoid_probs(np.array([-50.0, 0.0, 50.0])) >= 0).all())


class TestProbabilities:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_1d_logits_are_the_sigmoid_bit_for_bit(self, dtype):
        logits = np.random.default_rng(1).normal(size=9).astype(dtype)
        probs = probabilities(logits)
        assert probs.dtype == dtype
        np.testing.assert_array_equal(probs, sigmoid_probs(logits))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_2d_logits_are_the_softmax_bit_for_bit(self, dtype):
        logits = np.random.default_rng(2).normal(size=(6, 4)).astype(dtype)
        probs = probabilities(logits)
        assert probs.dtype == dtype
        np.testing.assert_array_equal(probs, softmax_probs(logits))

    def test_single_column_2d_is_a_softmax(self):
        """The rule is the rank, not the width: an (N, 1) head is a
        one-class softmax, all ones, not a sigmoid."""
        probs = probabilities(np.array([[-3.0], [0.0], [2.5]]))
        np.testing.assert_array_equal(probs, np.ones((3, 1)))

    def test_integer_logits_are_promoted(self):
        probs = probabilities(np.array([0, 0]))
        assert probs.dtype.kind == "f"
        np.testing.assert_array_equal(probs, [0.5, 0.5])


class TestMulticlassCE:
    def test_perfect_prediction_is_zero(self):
        probs = np.eye(3)
        assert multiclass_ce(probs, np.arange(3)) == 0.0

    def test_uniform_is_log_k(self):
        probs = np.full((4, 5), 0.2)
        np.testing.assert_allclose(multiclass_ce(probs, np.zeros(4)),
                                   np.log(5))

    def test_zero_probability_is_clipped_finite(self):
        probs = np.array([[0.0, 1.0]])
        assert np.isfinite(multiclass_ce(probs, np.array([0])))

    def test_evaluate_multiclass_pair(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8]])
        out = evaluate_multiclass(probs, np.array([0, 1]))
        assert set(out) == {"ce", "accuracy"}
        assert out["accuracy"] == 1.0
