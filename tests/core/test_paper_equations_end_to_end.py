"""Specification test: full ELDA-Net forward vs. an independent
loop-based implementation of the paper's equations (Eqs. 2-12).

The production model uses vectorized algebraic identities; this test
recomputes one batch entirely with explicit loops and plain numpy and
demands agreement to ~1e-9, pinning the implementation to the paper.

Eq. 4's ``b_i^α`` and Eq. 9's ``b^β`` are not parameters of the model:
each is constant along the axis its softmax (Eqs. 5 and 10) runs over,
so it cancels.  The cancellation tests below pin that reason with the
attention oracles of tests/nn/oracles.py.
"""

import numpy as np

from repro import nn
from repro.core.elda_net import ELDANet
from repro.nn.dtype import autocast
from tests.nn.oracles import (feature_attention_reference,
                              time_attention_reference)

C, E, D, H = 5, 4, 2, 6
B, T = 2, 5


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def reference_forward(model, values, ever_observed):
    """Paper Eqs. 2-12, loops only."""
    emb = model.embedding
    fim = model.feature_module
    tim = model.time_module
    head = model.prediction
    a, b = emb.lower, emb.upper
    va, vb, vm = (emb.table_lower.data, emb.table_upper.data,
                  emb.missing_table.data)
    w_alpha = fim.attn_weight.data
    p = fim.compress.data
    cell = tim.gru.cell
    w_beta = tim.attn_weight.data.reshape(-1)
    w_pred = head.weight.data.reshape(-1)
    b_pred = float(head.bias.data[0])

    outputs = np.empty(B)
    for n in range(B):
        # ---- Bi-directional Embedding Module (Eq. 2) ----
        e = np.empty((T, C, E))
        for t in range(T):
            for i in range(C):
                x = values[n, t, i]
                e[t, i] = (va[i] * (x - a) + vb[i] * (b - x)) / (b - a)
                if not ever_observed[n, i]:
                    e[t, i] = vm[i]

        # ---- Feature-level Interaction Learning (Eqs. 3-6) ----
        x_tilde = np.empty((T, C * D))
        for t in range(T):
            features = []
            for i in range(C):
                logits = np.full(C, -np.inf)
                for j in range(C):
                    if j != i:
                        r_ij = e[t, i] * e[t, j]               # Eq. 3
                        logits[j] = w_alpha[i] @ r_ij          # Eq. 4
                stable = logits - np.nanmax(logits[np.isfinite(logits)])
                exps = np.where(np.isfinite(stable), np.exp(stable), 0.0)
                alpha = exps / exps.sum()                      # Eq. 5
                c_i = sum(alpha[j] * e[t, i] * e[t, j]
                          for j in range(C) if j != i)
                features.append(np.maximum(
                    np.concatenate([e[t, i], c_i]), 0.0) @ p)  # Eq. 6
            x_tilde[t] = np.concatenate(features)

        # ---- GRU (Eq. 7) ----
        h = np.zeros(H)
        states = np.empty((T, H))
        for t in range(T):
            gx = x_tilde[t] @ cell.w_ih.data + cell.b_ih.data
            gh = h @ cell.w_hh.data + cell.b_hh.data
            z = sigmoid(gx[:H] + gh[:H])
            r = sigmoid(gx[H:2 * H] + gh[H:2 * H])
            cand = np.tanh(gx[2 * H:] + r * gh[2 * H:])
            h = z * h + (1 - z) * cand
            states[t] = h

        # ---- Time-level Interaction Learning (Eqs. 8-11) ----
        s = states[:-1] * states[-1]                           # Eq. 8
        logits = s @ w_beta                                    # Eq. 9
        beta = np.exp(logits - logits.max())
        beta /= beta.sum()                                     # Eq. 10
        g = (beta[:, None] * s).sum(axis=0)                    # Eq. 11
        fused = np.concatenate([states[-1], g])

        # ---- Prediction Module (Eq. 12) ----
        outputs[n] = sigmoid(fused @ w_pred + b_pred)
    return outputs


def test_full_forward_matches_reference(rng):
    model = ELDANet(C, np.random.default_rng(17), embedding_size=E,
                    hidden_size=H, compression=D)
    values = rng.normal(size=(B, T, C))
    ever = np.ones((B, C), dtype=bool)
    ever[0, 2] = False
    with nn.no_grad():
        fast = model(values, ever_observed=ever).data
    slow = reference_forward(model, values, ever)
    assert np.allclose(fast, slow, atol=1e-9), (fast, slow)


def _model_attention(rng):
    model = ELDANet(C, np.random.default_rng(17), embedding_size=E,
                    hidden_size=H, compression=D)
    values = rng.normal(size=(B, T, C))
    ever = np.ones((B, C), dtype=bool)
    ever[1, 3] = False
    with nn.no_grad():
        _, attention = model(values, ever_observed=ever,
                             return_attention=True)
        embedded = model.embedding(nn.Tensor(values), ever_observed=ever)
        sequence = model.feature_module(embedded)
        states = model.time_module.gru(sequence)
    return model, embedded, states, attention


def test_feature_logit_bias_cancels_in_alpha(rng):
    """Any per-i constant added to the Eq. 4 logits leaves α unchanged."""
    with autocast("float64"):
        model, embedded, _, attention = _model_attention(rng)
    weight = model.feature_module.attn_weight
    with autocast("float64"), nn.no_grad():
        plain = feature_attention_reference(embedded, weight).data
        assert np.abs(plain - attention["feature"].data).max() < 1e-12
        for scale in (1e-3, 1.0, 50.0):
            shift = rng.normal(size=C) * scale
            shifted = feature_attention_reference(embedded, weight,
                                                  shift).data
            assert np.abs(shifted - plain).max() < 1e-12, scale


def test_time_logit_bias_cancels_in_beta(rng):
    """A scalar added to the Eq. 9 logits leaves β unchanged."""
    with autocast("float64"):
        model, _, states, attention = _model_attention(rng)
    weight = model.time_module.attn_weight
    with autocast("float64"), nn.no_grad():
        plain = time_attention_reference(states, weight).data
        assert np.abs(plain - attention["time"].data).max() < 1e-12
        for shift in (-30.0, -0.7, 1e-3, 4.0):
            shifted = time_attention_reference(states, weight, shift).data
            assert np.abs(shifted - plain).max() < 1e-12, shift
