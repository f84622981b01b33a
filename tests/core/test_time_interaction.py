"""Tests of the Time-level Interaction Learning Module (Eqs. 7-11)."""

import numpy as np
import pytest

from repro import nn
from repro.core.time_interaction import TimeInteractionModule

B, T, IN, H = 3, 6, 4, 5


@pytest.fixture
def module():
    return TimeInteractionModule(IN, H, np.random.default_rng(8))


@pytest.fixture
def sequence(rng):
    return rng.normal(size=(B, T, IN))


def naive_fuse(module, states):
    """Direct implementation of Eqs. 8-11 given the GRU states."""
    w = module.attn_weight.data.reshape(-1)
    fused = np.zeros((states.shape[0], 2 * H))
    betas = np.zeros((states.shape[0], states.shape[1] - 1))
    for n in range(states.shape[0]):
        h = states[n]
        h_T = h[-1]
        s = np.array([h[i] * h_T for i in range(len(h) - 1)])   # Eq. 8
        logits = s @ w                                          # Eq. 9
        exps = np.exp(logits - logits.max())
        beta = exps / exps.sum()                                # Eq. 10
        betas[n] = beta
        g = (beta[:, None] * s).sum(axis=0)                     # Eq. 11
        fused[n] = np.concatenate([h_T, g])
    return fused, betas


class TestEquivalenceWithNaive:
    def test_fused_representation_matches(self, module, sequence):
        with nn.no_grad():
            states = module.gru(nn.Tensor(sequence)).data
            fast = module(nn.Tensor(sequence)).data
        slow, _ = naive_fuse(module, states)
        assert np.allclose(fast, slow, atol=1e-10)

    def test_beta_matches(self, module, sequence):
        with nn.no_grad():
            states = module.gru(nn.Tensor(sequence)).data
            _, beta = module(nn.Tensor(sequence), return_attention=True)
        _, expected = naive_fuse(module, states)
        assert np.allclose(beta.data, expected, atol=1e-10)


class TestProperties:
    def test_output_shape(self, module, sequence):
        assert module(nn.Tensor(sequence)).shape == (B, 2 * H)

    def test_beta_is_distribution_over_earlier_steps(self, module, sequence):
        _, beta = module(nn.Tensor(sequence), return_attention=True)
        assert beta.shape == (B, T - 1)
        assert np.allclose(beta.data.sum(axis=1), 1.0)
        assert (beta.data >= 0).all()

    def test_gradients_reach_all_parameters(self, module, sequence):
        out = module(nn.Tensor(sequence))
        (out * out).sum().backward()
        for name, param in module.named_parameters():
            assert param.grad is not None, f"no gradient for {name}"

    def test_first_half_is_last_hidden_state(self, module, sequence):
        with nn.no_grad():
            states = module.gru(nn.Tensor(sequence)).data
            fused = module(nn.Tensor(sequence)).data
        assert np.allclose(fused[:, :H], states[:, -1, :])

    def test_handles_minimum_two_steps(self, module, rng):
        out, beta = module(nn.Tensor(rng.normal(size=(1, 2, IN))),
                           return_attention=True)
        assert out.shape == (1, 2 * H)
        assert np.allclose(beta.data, 1.0)  # single earlier step gets all
