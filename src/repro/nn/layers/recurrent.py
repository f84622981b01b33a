"""Recurrent layers: GRU cells and sequences, the LSTM cell, BiGRU.

Sequences are represented as tensors of shape ``(batch, time, features)``.
:class:`GRU` runs through the sequence-fused scan kernel
(:func:`repro.nn.ops.gru_scan`): one graph node per sequence with a
hand-derived backward, instead of one node chain per timestep.  The
cells are the single-step op-by-op compositions;
``tests/nn/test_scan_equivalence.py`` holds each scan to a step-unrolled
loop over its cell (``tests/nn/oracles.py``) in both dtype planes.
:class:`LSTMCell` carries StageNet's parameters, which
:func:`repro.nn.ops.stagenet_scan` runs.
"""

from __future__ import annotations

from ..backend import xp as np

from .. import init, ops
from ..dtype import get_default_dtype
from ..module import Module, Parameter
from ..tensor import Tensor

__all__ = ["GRUCell", "GRU", "LSTMCell", "BiGRU"]


class GRUCell(Module):
    """Single-step gated recurrent unit (Cho et al., 2014).

    Gate layout is ``[update z | reset r | candidate n]``, the same as
    the scan kernels that :class:`GRU` runs over these weights.
    """

    def __init__(self, input_size, hidden_size, rng):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_ih = Parameter(init.glorot_uniform((input_size, 3 * hidden_size), rng))
        self.w_hh = Parameter(init.orthogonal((hidden_size, 3 * hidden_size), rng))
        self.b_ih = Parameter(np.zeros(3 * hidden_size))
        self.b_hh = Parameter(np.zeros(3 * hidden_size))

    def forward(self, x, h):
        """Advance one step: ``x`` is (batch, input), ``h`` is (batch, hidden)."""
        gates_x = ops.matmul(x, self.w_ih) + self.b_ih
        gates_h = ops.matmul(h, self.w_hh) + self.b_hh
        zx, rx, nx = ops.split(gates_x, 3, axis=-1)
        zh, rh, nh = ops.split(gates_h, 3, axis=-1)
        update = ops.sigmoid(zx + zh)
        reset = ops.sigmoid(rx + rh)
        candidate = ops.tanh(nx + reset * nh)
        return update * h + (1.0 - update) * candidate


class GRU(Module):
    """GRU over a full sequence, returning all hidden states.

    Parameters
    ----------
    return_sequences:
        When true (default), :meth:`forward` returns a (batch, time, hidden)
        tensor; otherwise only the final state (batch, hidden).

    The whole sequence runs through :func:`repro.nn.ops.gru_scan` — one
    graph node with a single sequence-level backward.  :meth:`forward`
    accepts optional per-row ``lengths``; rows freeze at their true
    length (the scan stops early and carries their state unchanged).
    """

    def __init__(self, input_size, hidden_size, rng, return_sequences=True):
        super().__init__()
        self.cell = GRUCell(input_size, hidden_size, rng)
        self.hidden_size = hidden_size
        self.return_sequences = return_sequences

    def forward(self, x, h0=None, lengths=None):
        batch = x.shape[0]
        h = h0 if h0 is not None else Tensor(np.zeros((batch, self.hidden_size)))
        cell = self.cell
        return ops.gru_scan(x, h, cell.w_ih, cell.w_hh, cell.b_ih, cell.b_hh,
                            lengths=lengths,
                            return_sequences=self.return_sequences)

    # -- streaming inference (serve tier) ------------------------------
    def initial_state(self, batch_size):
        """Zero hidden state for :meth:`stream_step` (policy dtype)."""
        return np.zeros((batch_size, self.hidden_size),
                        dtype=get_default_dtype())

    def stream_step(self, x_t, h):
        """Advance one inference-only step on plain arrays.

        ``x_t`` is ``(batch, features)``, ``h`` ``(batch, hidden)``;
        returns the new hidden state.  Bit-identical to one step of the
        fused scan (:func:`repro.nn.ops.gru_scan_step`), which is what
        lets :class:`repro.serve.StreamingSession` turn each new hourly
        observation into an O(1) update instead of a full-sequence
        recompute.
        """
        cell = self.cell
        x_t = np.asarray(x_t, dtype=get_default_dtype())
        return ops.gru_scan_step(x_t, h, cell.w_ih.data, cell.w_hh.data,
                                 cell.b_ih.data, cell.b_hh.data)


class LSTMCell(Module):
    """Single-step LSTM (Hochreiter & Schmidhuber, 1997).

    Gate layout is ``[input i | forget f | cell g | output o]``; the forget
    bias is initialized to 1 as is conventional.
    """

    def __init__(self, input_size, hidden_size, rng):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_ih = Parameter(init.glorot_uniform((input_size, 4 * hidden_size), rng))
        self.w_hh = Parameter(init.orthogonal((hidden_size, 4 * hidden_size), rng))
        bias = np.zeros(4 * hidden_size)
        bias[hidden_size:2 * hidden_size] = 1.0
        self.bias = Parameter(bias)

    def forward(self, x, state):
        """Advance one step; ``state`` is the tuple (h, c)."""
        h, c = state
        gates = ops.matmul(x, self.w_ih) + ops.matmul(h, self.w_hh) + self.bias
        i, f, g, o = ops.split(gates, 4, axis=-1)
        i, f, o = ops.sigmoid(i), ops.sigmoid(f), ops.sigmoid(o)
        g = ops.tanh(g)
        c_next = f * c + i * g
        h_next = o * ops.tanh(c_next)
        return h_next, c_next


class BiGRU(Module):
    """Bidirectional GRU; outputs forward and backward states concatenated.

    Output shape is (batch, time, 2*hidden).  Used by Dipole.
    """

    def __init__(self, input_size, hidden_size, rng):
        super().__init__()
        self.forward_gru = GRU(input_size, hidden_size, rng)
        self.backward_gru = GRU(input_size, hidden_size, rng)
        self.hidden_size = hidden_size

    def forward(self, x):
        fwd = self.forward_gru(x)
        reversed_x = x[:, ::-1, :]
        bwd = self.backward_gru(reversed_x)
        bwd = bwd[:, ::-1, :]
        return ops.concat([fwd, bwd], axis=-1)
