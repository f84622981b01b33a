"""Neural network layers built on the :mod:`repro.nn` autodiff engine."""

from .attention import (AdditiveAttention, GeneralAttention, LocationAttention,
                        MultiHeadSelfAttention)
from .conv import Conv1D
from .dense import MLP, Dense
from .embedding import positional_encoding
from .norm import LayerNorm
from .recurrent import GRU, BiGRU, GRUCell, LSTMCell

__all__ = [
    "Dense", "MLP", "LayerNorm", "Conv1D", "positional_encoding",
    "GRUCell", "GRU", "LSTMCell", "BiGRU",
    "LocationAttention", "GeneralAttention", "AdditiveAttention",
    "MultiHeadSelfAttention",
]
