"""Sinusoidal positional encodings."""

from __future__ import annotations

from ..backend import xp as np

from ..tensor import Tensor

__all__ = ["positional_encoding"]


def positional_encoding(steps, model_size):
    """Sinusoidal positional encoding of shape (steps, model_size).

    Used by SAnD to inject temporal order into its self-attention stack.
    """
    positions = np.arange(steps)[:, None]
    dims = np.arange(model_size)[None, :]
    angle_rates = 1.0 / np.power(10000.0, (2 * (dims // 2)) / model_size)
    angles = positions * angle_rates
    encoding = np.zeros((steps, model_size))
    encoding[:, 0::2] = np.sin(angles[:, 0::2])
    encoding[:, 1::2] = np.cos(angles[:, 1::2])
    return Tensor(encoding)
