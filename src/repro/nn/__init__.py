"""``repro.nn`` — a from-scratch deep-learning substrate on numpy.

The ELDA paper implements its models in Keras/TensorFlow; this package
provides the equivalent substrate: a reverse-mode autodiff tensor, a module
system, layers (dense, recurrent, attention, conv, normalization),
initializers, optimizers, and losses.

Correctness is first-class: :mod:`repro.nn.gradcheck` validates any op or
whole module against central finite differences, :mod:`repro.nn.debug`
provides opt-in NaN/Inf anomaly detection and graph audits, and every
primitive in :mod:`repro.nn.ops` is registered with sample inputs that an
exhaustive test sweep gradchecks mechanically (see docs/CORRECTNESS.md).
"""

from . import backend, debug, dtype, gradcheck, init, losses, ops, schedules
from .debug import AnomalyError, audit_backward, detect_anomaly
from .dtype import autocast, get_default_dtype, set_default_dtype
from .gradcheck import GradcheckFailure, check_module
from .inference import InferenceMixin
from .module import Module, ModuleList, Parameter
from .optim import SGD, Adam, Optimizer, RMSProp, clip_grad_norm
from .serialization import load_state, load_weights, save_state, save_weights
from .tensor import Tensor, as_tensor, is_grad_enabled, no_grad

__all__ = [
    "Tensor", "as_tensor", "no_grad", "is_grad_enabled",
    "get_default_dtype", "set_default_dtype", "autocast",
    "Module", "ModuleList", "Parameter", "InferenceMixin",
    "Optimizer", "SGD", "Adam", "RMSProp", "clip_grad_norm",
    "save_weights", "load_weights", "save_state", "load_state",
    "detect_anomaly", "AnomalyError", "audit_backward",
    "check_module", "GradcheckFailure",
    "ops", "init", "losses", "schedules", "gradcheck", "debug", "dtype",
    "backend",
]
