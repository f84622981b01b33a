"""Tests of the Feature-level Interaction Learning Module.

The module uses an algebraic identity to avoid materializing the
(B, T, C, C, e) tensor; the reference tests here recompute Eqs. 3-6
naively and check exact agreement.
"""

import numpy as np
import pytest

from repro import nn
from repro.core.feature_interaction import FeatureInteractionModule

B, T, C, E, D = 2, 3, 5, 4, 2


@pytest.fixture
def module():
    return FeatureInteractionModule(C, E, D, np.random.default_rng(5))


@pytest.fixture
def embedded(rng):
    return rng.normal(size=(B, T, C, E))


def naive_forward(module, embedded):
    """Direct implementation of paper Eqs. 3-6 with explicit loops."""
    w = module.attn_weight.data        # (C, E)
    p = module.compress.data           # (2E, D)
    out = np.zeros((B, T, C * D))
    alphas = np.zeros((B, T, C, C))
    for n in range(B):
        for t in range(T):
            e = embedded[n, t]         # (C, E)
            features = []
            for i in range(C):
                logits = np.full(C, -np.inf)
                for j in range(C):
                    if j == i:
                        continue
                    r_ij = e[i] * e[j]                      # Eq. 3
                    logits[j] = w[i] @ r_ij                 # Eq. 4
                stable = logits - logits[np.isfinite(logits)].max()
                exps = np.where(np.isfinite(stable), np.exp(stable), 0.0)
                alpha = exps / exps.sum()                   # Eq. 5
                alphas[n, t, i] = alpha
                c_i = sum(alpha[j] * (e[i] * e[j])
                          for j in range(C) if j != i)
                enriched = np.concatenate([e[i], c_i])
                features.append(np.maximum(enriched, 0.0) @ p)  # Eq. 6
            out[n, t] = np.concatenate(features)
    return out, alphas


class TestEquivalenceWithNaive:
    def test_output_matches_naive(self, module, embedded):
        fast = module(nn.Tensor(embedded)).data
        slow, _ = naive_forward(module, embedded)
        assert np.allclose(fast, slow, atol=1e-10)

    def test_attention_matches_naive(self, module, embedded):
        _, alpha = module(nn.Tensor(embedded), return_attention=True)
        _, expected = naive_forward(module, embedded)
        assert np.allclose(alpha.data, expected, atol=1e-10)


class TestAttentionProperties:
    def test_rows_are_distributions(self, module, embedded):
        _, alpha = module(nn.Tensor(embedded), return_attention=True)
        assert np.allclose(alpha.data.sum(axis=-1), 1.0)
        assert (alpha.data >= 0).all()

    def test_diagonal_excluded(self, module, embedded):
        """Eq. 5 sums over j != i: no self-interaction attention."""
        _, alpha = module(nn.Tensor(embedded), return_attention=True)
        diag = np.diagonal(alpha.data, axis1=-2, axis2=-1)
        assert np.all(diag < 1e-12)

    def test_output_shape(self, module, embedded):
        out = module(nn.Tensor(embedded))
        assert out.shape == (B, T, C * D)

    def test_gradients_reach_all_parameters(self, module, embedded):
        out = module(nn.Tensor(embedded))
        (out * out).sum().backward()
        for name, param in module.named_parameters():
            assert param.grad is not None, f"no gradient for {name}"
            assert np.abs(param.grad).max() > 0, f"zero gradient for {name}"

    def test_interaction_symmetry_of_r_not_of_alpha(self, module, rng):
        """r_ij = r_ji, but attention is per-row: α_ij != α_ji in general
        (the paper's 'same interaction, different attention' finding)."""
        embedded = rng.normal(size=(1, 1, C, E))
        _, alpha = module(nn.Tensor(embedded), return_attention=True)
        a = alpha.data[0, 0]
        assert not np.allclose(a, a.T)

    def test_compression_factor_controls_width(self, rng):
        wide = FeatureInteractionModule(C, E, 6, np.random.default_rng(0))
        out = wide(nn.Tensor(rng.normal(size=(1, 2, C, E))))
        assert out.shape == (1, 2, C * 6)
