"""Module system: parameters, composable modules, and state dicts.

Mirrors the familiar torch-style API at a small scale:

* :class:`Parameter` — a trainable :class:`~repro.nn.tensor.Tensor`;
* :class:`Module` — auto-registers parameters and child modules assigned
  as attributes, exposes ``parameters()``, ``named_parameters()``,
  ``state_dict()`` / ``load_state_dict()``, and a train/eval switch;
* :class:`ModuleList` — an indexable container of child modules.
"""

from __future__ import annotations

import warnings
from collections import OrderedDict

from .backend import xp as np

from .tensor import Tensor

__all__ = ["Parameter", "Module", "ModuleList", "RETIRED_PARAMETERS",
           "RetiredParameterWarning"]

#: Parameter names that older checkpoints hold but the models no longer
#: have: attention-score biases that a softmax over the scored axis
#: cancels (they never changed an output and never got a gradient).
#: :meth:`Module.load_state_dict` drops them, whatever their values.
RETIRED_PARAMETERS = frozenset({
    "alpha_score.bias",           # RETAIN's visit-attention score
    "attention.bias",             # Dipole_l's LocationAttention
    "attn.bias",                  # StageNet's pattern-attention score
    "feature_module.attn_bias",   # ELDA-Net's b^α (Eq. 4)
    "time_module.attn_bias",      # ELDA-Net's b^β (Eq. 9)
})


class RetiredParameterWarning(UserWarning):
    """A loaded state dict carried parameters the model no longer has
    (:data:`RETIRED_PARAMETERS`); they were dropped."""


class Parameter(Tensor):
    """A tensor that is a learnable parameter of a module."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for all neural-network modules.

    Subclasses define parameters and child modules as attributes in
    ``__init__`` and implement :meth:`forward`.  Calling the module invokes
    ``forward``.
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # Attribute registration
    # ------------------------------------------------------------------
    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._parameters[name] = value
            self._modules.pop(name, None)
        elif isinstance(value, Module):
            self._modules[name] = value
            self._parameters.pop(name, None)
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Parameter access
    # ------------------------------------------------------------------
    def named_parameters(self, prefix=""):
        """Yield ``(qualified_name, parameter)`` pairs recursively."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self):
        """Return all parameters of this module and its children."""
        return [p for _, p in self.named_parameters()]

    def num_parameters(self):
        """Total number of scalar trainable parameters."""
        return sum(p.size for p in self.parameters())

    def modules(self):
        """Yield this module and all descendants."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def zero_grad(self):
        """Clear gradients on every parameter."""
        for param in self.parameters():
            param.zero_grad()

    def requires_grad_(self, flag=True):
        """Set ``requires_grad`` on every parameter (freeze / unfreeze).

        Used by :func:`repro.nn.gradcheck.check_module` callers to mask
        sub-modules out of a check, and generally for transfer-style
        freezing.  Returns ``self`` for chaining.
        """
        for param in self.parameters():
            param.requires_grad = bool(flag)
        return self

    # ------------------------------------------------------------------
    # Mode switching
    # ------------------------------------------------------------------
    def train(self, mode=True):
        """Set training mode recursively (affects dropout etc.)."""
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self):
        """Set inference mode recursively."""
        return self.train(False)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self):
        """Return an ordered mapping of parameter name -> numpy array copy."""
        return OrderedDict((name, param.data.copy())
                           for name, param in self.named_parameters())

    def load_state_dict(self, state):
        """Load parameter values from a mapping produced by :meth:`state_dict`.

        Values are cast once into each parameter's own dtype (the policy
        dtype the model was built under), keeping checkpoint round-trips
        dtype-stable.  A precision-*losing* cast — e.g. a float64
        checkpoint loaded into a float32 model — emits a single
        ``UserWarning`` naming the transition.  Keys in
        :data:`RETIRED_PARAMETERS` that the model lacks are dropped with
        one :class:`RetiredParameterWarning`; any other unexpected or
        missing key raises ``KeyError``.
        """
        own = dict(self.named_parameters())
        retired = sorted((set(state) - set(own)) & RETIRED_PARAMETERS)
        state = {name: value for name, value in state.items()
                 if name not in retired}
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)}, "
                           f"unexpected={sorted(unexpected)}")
        if retired:
            warnings.warn(
                f"dropped retired parameters {retired}: softmax-cancelled "
                "attention biases that no longer exist",
                RetiredParameterWarning, stacklevel=2)
        narrowed = None
        for name, value in state.items():
            param = own[name]
            value = np.asarray(value)
            if value.shape != param.shape:
                raise ValueError(f"shape mismatch for {name}: "
                                 f"{value.shape} vs {param.shape}")
            if (narrowed is None and value.dtype.kind == "f"
                    and value.dtype.itemsize > param.dtype.itemsize):
                narrowed = (value.dtype, param.dtype)
            param.data[...] = value
        if narrowed is not None:
            warnings.warn(
                f"checkpoint stored as {narrowed[0]} but the model runs "
                f"{narrowed[1]}; weights were cast once at load (set the "
                "precision policy with repro.nn.dtype before building the "
                "model to avoid the cast)",
                UserWarning, stacklevel=2)

    def to(self, dtype):
        """Cast every parameter (in place) to ``dtype``; returns ``self``.

        The policy governs construction only — use this to migrate an
        already-built model, e.g. ``check_module`` upcasting a float32
        model to float64 for finite differencing.
        """
        from .dtype import resolve_dtype
        target = resolve_dtype(dtype)
        for param in self.parameters():
            if param.data.dtype != target:
                param.data = param.data.astype(target)
                if param.grad is not None:
                    param.grad = param.grad.astype(target)
        return self

    # ------------------------------------------------------------------
    # Invocation
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """A list of child modules registered for parameter discovery."""

    def __init__(self, modules=()):
        super().__init__()
        self._items = []
        for module in modules:
            self.append(module)

    def append(self, module):
        if not isinstance(module, Module):
            raise TypeError("ModuleList only stores Module instances")
        index = len(self._items)
        self._items.append(module)
        self._modules[str(index)] = module
        return self

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, index):
        return self._items[index]
