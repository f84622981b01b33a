"""Test-only reference compositions for the fused kernels.

Each oracle spells a fused op out of the engine's small autodiff
primitives (the recurrences one timestep at a time), exactly as the
production layer computed it before the kernel existed.  The kernels
are held to these compositions by tolerance
(tests/nn/test_scan_equivalence.py, tests/nn/test_elda_equivalence.py);
nothing under ``src/`` imports them (tests/test_no_test_imports.py
guards that).

Ragged ``lengths`` freeze exhausted rows with a per-step ``where``: a
row past its length carries its state unchanged, which is the scans'
frozen-row semantics.
"""

import numpy as np

from repro.nn import Tensor, ops


def _keep_masks(lengths, steps, batch):
    """Per-step ``(batch, 1)`` keep-masks, or ``None`` without lengths.

    ``masks[t]`` is True for rows still active at step ``t``.
    """
    if lengths is None:
        return None
    lengths = np.asarray(lengths, dtype=np.int64).reshape(batch, 1)
    return [lengths > t for t in range(steps)]


def _stack_steps(states):
    """Per-step ``(batch, hidden)`` states as one ``(batch, steps,
    hidden)`` trajectory."""
    return ops.concat([h.reshape(h.shape[0], 1, h.shape[1])
                       for h in states], axis=1)


def gru_reference(layer, x, h0=None, lengths=None):
    """Step-unrolled oracle for :class:`repro.nn.layers.GRU`
    (:func:`repro.nn.ops.gru_scan`): ``layer.cell`` applied per step.
    """
    batch, steps, _ = x.shape
    h = h0 if h0 is not None else Tensor(np.zeros((batch, layer.hidden_size)))
    keep = _keep_masks(lengths, steps, batch)
    outputs = []
    for t in range(steps):
        h_new = layer.cell(x[:, t], h)
        h = h_new if keep is None else ops.where(keep[t], h_new, h)
        outputs.append(h)
    if layer.return_sequences:
        return _stack_steps(outputs)
    return h


def grud_reference(model, batch):
    """Step-unrolled oracle for :meth:`repro.baselines.GRUD.forward_batch`
    (:func:`repro.nn.ops.grud_scan`); returns the logits.
    """
    values = Tensor(batch.values)                       # LOCF-imputed x'
    mask = Tensor(batch.mask)
    deltas = Tensor(batch.deltas)
    batch_size, steps, _ = values.shape
    h = Tensor(np.zeros((batch_size, model.hidden_size)))
    for t in range(steps):
        delta_t = deltas[:, t]
        v_t = values[:, t]
        m_t = mask[:, t]
        # Input decay toward the (zero) global mean.
        gamma_x = ops.exp(-ops.relu(delta_t * model.input_decay))
        x_hat = m_t * v_t + (1.0 - m_t) * gamma_x * v_t
        # Hidden-state decay.
        gamma_h = ops.exp(-ops.relu(
            ops.matmul(delta_t, model.hidden_decay_w) + model.hidden_decay_b))
        h = model.cell(ops.concat([x_hat, m_t], axis=-1), gamma_h * h)
    return (ops.matmul(h, model.weight) + model.bias).reshape(-1)


def stagenet_reference(model, batch):
    """Step-unrolled oracle for :meth:`repro.baselines.StageNet.forward_batch`
    (:func:`repro.nn.ops.stagenet_scan`); returns the logits.
    """
    values = Tensor(batch.values)
    batch_size, steps, _ = values.shape
    h = Tensor(np.zeros((batch_size, model.hidden_size)))
    c = Tensor(np.zeros((batch_size, model.hidden_size)))
    states = []
    for t in range(steps):
        x_t = values[:, t]
        h, c = model.cell(x_t, (h, c))
        # Stage progression gate: how much the stage advanced.
        stage = model.stage_gate(ops.concat([h, x_t], axis=-1))
        c = stage * c                       # re-calibrate cell memory
        states.append(h)
    trajectory = _stack_steps(states)                       # (B,T,H)
    return model._head(trajectory, h)


def per_feature_gru_reference(values, w_ih, w_hh, bias):
    """Step-unrolled oracle for :func:`repro.nn.ops.per_feature_gru_scan`.

    ``values`` ``(B, T, C)``; ``w_ih`` ``(C, 1, 3H)``, ``w_hh``
    ``(C, H, 3H)``, ``bias`` ``(C, 3H)`` tensors.  Runs the ``C``
    stacked single-input GRUs from a zero state with per-step batched
    matmuls, ``split`` gate slices and elementwise gate ops, and returns
    the final states ``(B, C, H)``.
    """
    batch, steps, channels = values.shape
    hidden = w_hh.shape[1]
    h3 = 3 * hidden
    h = Tensor(np.zeros((channels, batch, hidden)))
    x_all = values.transpose((2, 1, 0)).reshape(channels, steps, batch, 1)
    gates_x = ops.matmul(x_all, w_ih.reshape(channels, 1, 1, h3)) \
        + bias.reshape(channels, 1, 1, h3)
    for t in range(steps):
        gates_h = ops.matmul(h, w_hh)
        zx, rx, nx = ops.split(gates_x[:, t], 3, axis=-1)
        zh, rh, nh = ops.split(gates_h, 3, axis=-1)
        update = ops.sigmoid(zx + zh)
        reset = ops.sigmoid(rx + rh)
        candidate = ops.tanh(nx + reset * nh)
        h = update * h + (1.0 - update) * candidate
    return h.transpose((1, 0, 2))


def softmax_cross_entropy_reference(logits, targets):
    """Eager oracle for :func:`repro.nn.ops.softmax_cross_entropy`: the
    log-softmax, gather and negate it fuses.  The shift by the row max
    is a constant (log-softmax is shift-invariant), and the forward runs
    the fused op's ufuncs in its order, so values agree bit for bit.
    """
    shifted = logits - logits.data.max(axis=-1, keepdims=True)
    log_z = ops.log(ops.sum(ops.exp(shifted), axis=-1, keepdims=True))
    log_probs = shifted - log_z
    rows = np.arange(log_probs.shape[0])
    return -ops.getitem(log_probs, (rows, np.asarray(targets)))


def bi_embedding_reference(x, table_lower, table_upper, lower, upper):
    """Eager oracle for :func:`repro.nn.ops.bi_embedding`: paper Eq. 2
    as ``BiDirectionalEmbedding`` composed it from five ops.
    """
    span = upper - lower
    x_col = x.reshape(*x.shape, 1)
    toward_upper = (x_col - lower) * table_lower
    toward_lower = (upper - x_col) * table_upper
    return (toward_upper + toward_lower) / span


def feature_attention_reference(embedded, attn_weight, logit_shift=None):
    """Eqs. 4-5's α ``(..., C, C)`` as ``FeatureInteractionModule``
    composed it: ``α'_ij = (e_i ⊙ W_i) · e_j``, a ``-1e9`` diagonal mask
    for ``j != i``, and a softmax over ``j``.  ``logit_shift`` ``(C,)``
    adds a per-``i`` constant to the logits (Eq. 4's ``b_i^α``); the
    softmax cancels it.
    """
    num_features = embedded.shape[-2]
    diag_mask = np.full((num_features, num_features), 0.0)
    np.fill_diagonal(diag_mask, -1e9)
    keyed = embedded * attn_weight                     # e_i ⊙ W_i
    logits = ops.matmul(keyed, embedded.swapaxes(-1, -2))
    if logit_shift is not None:
        logits = logits + Tensor(np.reshape(logit_shift, (-1, 1)))
    logits = logits + Tensor(diag_mask)
    return ops.softmax(logits, axis=-1)                # (B, T, C, C)


def time_attention_reference(states, attn_weight, logit_shift=0.0):
    """Eqs. 8-10's β ``(B, T-1)`` over GRU ``states`` ``(B, T, H)``:
    ``β'_i = w^T (h_i ⊙ h_T)``, softmaxed over ``i``.  ``logit_shift``
    adds a scalar to every logit (Eq. 9's ``b^β``); the softmax cancels
    it.
    """
    last = states[:, -1:, :]
    scores = ops.matmul(states[:, :-1, :] * last, attn_weight) + logit_shift
    beta = ops.softmax(scores, axis=1)
    return beta.reshape(beta.shape[0], beta.shape[1])


def feature_interaction_reference(embedded, attn_weight, compress):
    """Eager oracle for :func:`repro.nn.ops.feature_interaction`: Eqs. 3-6
    as ``FeatureInteractionModule`` composed them from small ops (α from
    :func:`feature_attention_reference`) and a concat for Eq. 6.  A
    ``None`` attention weight pools uniformly (the ablation).
    """
    num_features = embedded.shape[-2]
    compression = compress.shape[-1]
    if attn_weight is not None:
        alpha = feature_attention_reference(embedded, attn_weight)
    else:
        uniform = np.full((num_features, num_features),
                          1.0 / (num_features - 1))
        np.fill_diagonal(uniform, 0.0)
        alpha = Tensor(np.broadcast_to(
            uniform, embedded.shape[:2] + uniform.shape).copy())

    summed = ops.matmul(alpha, embedded)               # Σ_j α_ij e_j
    context = embedded * summed                        # c_i = e_i ⊙ Σ α e_j
    enriched = ops.concat([embedded, context], axis=-1)
    compressed = ops.matmul(ops.relu(enriched), compress)

    batch, steps = compressed.shape[0], compressed.shape[1]
    return compressed.reshape(batch, steps, num_features * compression)
