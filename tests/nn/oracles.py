"""Test-only reference compositions for the fused recurrent kernels.

Each oracle spells a fused op out of the engine's small autodiff
primitives, one timestep at a time, exactly as the production layer
computed it before the kernel existed.  The kernels are held to these
compositions by tolerance (tests/nn/test_scan_equivalence.py); nothing
under ``src/`` imports them.
"""

import numpy as np

from repro.nn import Tensor, ops


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
