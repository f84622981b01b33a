"""Differentiable primitive operations for :class:`repro.nn.Tensor`.

Every function takes tensors (or array-likes, which are promoted) and
returns a new tensor wired into the computation graph.  The backward
closures follow a single convention: they receive the gradient of the loss
w.r.t. the op output and accumulate gradients into each parent that
requires them, using :func:`repro.nn.tensor.unbroadcast` to undo numpy
broadcasting.

Dtype discipline
----------------
Ops must preserve the dtype of their tensor inputs (the policy dtype
from :mod:`repro.nn.dtype`).  Under NEP 50 numpy promotion, python
scalars are "weak" (``float32_array * 0.5`` stays float32) but numpy
scalars and bool arrays are not (``np.prod(...)`` yields a strong
int64/float64 scalar, and ``bool_array + 0.5`` promotes to float64), so
coefficient arrays derived from masks are built with explicit dtypes
below — a silent promotion to float64 in one backward closure would
drag the whole gradient plane back to double precision.

Gradient ownership
------------------
Backward closures pass ``owned=True`` to ``Tensor._accumulate`` when the
array they hand over is freshly computed inside the closure; the tensor
then adopts it as its gradient buffer without a copy.  Closures that
forward the *incoming* gradient, or a view of it (reshape/transpose/
concat slices), must not claim ownership — the same buffer may feed a
sibling branch of the graph.

Op registry
-----------
Each primitive is declared with the :func:`differentiable` decorator,
which records it in a registry together with a *sample-input factory*: a
callable ``rng -> [OpSample, ...]`` producing scalar-valued test
scenarios for the op.  The test suite enumerates the registry and runs a
finite-difference gradient check over every sample
(``tests/nn/test_gradcheck_registry.py``), so a new op cannot land
without gradcheck coverage: registering one without a factory makes the
sweep fail with :class:`MissingSampleFactory`.
"""

from __future__ import annotations

import builtins
import functools
from collections import OrderedDict

from .backend import xp as np

from ..bench import _hooks as _bench_hooks
from .tensor import Tensor, as_tensor, is_grad_enabled, unbroadcast

__all__ = [
    "add", "sub", "mul", "div", "neg", "power", "matmul", "exp", "log",
    "sqrt", "tanh", "sigmoid", "relu", "clip", "sum", "mean", "var",
    "reshape", "transpose", "swapaxes", "getitem", "concat", "split",
    "softmax", "softmax_cross_entropy", "pad_last", "gru_scan",
    "per_feature_gru_scan", "grud_scan", "stagenet_scan",
    "affine_embedding", "feature_interaction",
]
# gru_scan_step / per_feature_gru_scan_step / grud_scan_step /
# stagenet_scan_step / linear_rows / feature_attention are deliberately
# NOT in __all__: they are inference-only array kernels (no Tensor, no
# graph, no backward) behind the streaming stream_step hooks and the
# attention readout, and __all__ doubles as the differentiable-op
# registry contract (tests/nn/test_gradcheck_registry).


# ----------------------------------------------------------------------
# Op registry
# ----------------------------------------------------------------------

class MissingSampleFactory(LookupError):
    """An op was registered without gradcheck sample inputs."""


class OpSample:
    """One gradcheck scenario for a registered op.

    Parameters
    ----------
    build:
        ``build(*tensors) -> scalar Tensor`` exercising the op; receives
        one tensor per entry of ``arrays``.
    arrays:
        The differentiable numpy inputs of the scenario.
    """

    __slots__ = ("build", "arrays")

    def __init__(self, build, *arrays):
        self.build = build
        self.arrays = tuple(np.asarray(a, dtype=np.float64) for a in arrays)


class OpSpec:
    """Registry record: the op callable plus its sample-input factory."""

    __slots__ = ("name", "fn", "sample_factory")

    def __init__(self, name, fn, sample_factory):
        self.name = name
        self.fn = fn
        self.sample_factory = sample_factory

    def __repr__(self):
        flag = "" if self.sample_factory else ", no samples"
        return f"OpSpec({self.name!r}{flag})"


_REGISTRY = OrderedDict()


def differentiable(sample_factory=None):
    """Decorator registering a differentiable primitive.

    ``sample_factory(rng)`` must return a list of :class:`OpSample`
    scenarios; the registry-driven test sweep gradchecks every one.
    Registering without a factory is allowed syntactically but fails the
    sweep — the escape hatch exists only so the failure mode itself is
    testable.
    """
    def decorate(fn):
        name = fn.__name__
        active_profilers = _bench_hooks._PROFILERS  # bound once; shared list

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # Fast path: one truthiness check when no profiler observes.
            if active_profilers:
                return _bench_hooks.call_op(name, fn, args, kwargs)
            return fn(*args, **kwargs)

        _REGISTRY[name] = OpSpec(name, wrapper, sample_factory)
        return wrapper
    return decorate


def registered_ops():
    """Snapshot of the op registry: ``name -> OpSpec``."""
    return OrderedDict(_REGISTRY)


def sample_inputs(name, rng):
    """Build the gradcheck scenarios for a registered op.

    Raises :class:`MissingSampleFactory` when the op was registered
    without a factory, and ``KeyError`` for unknown ops.
    """
    spec = _REGISTRY[name]
    if spec.sample_factory is None:
        raise MissingSampleFactory(
            f"op {name!r} is registered without a sample-input factory; "
            f"every differentiable primitive must declare gradcheck "
            f"samples via @differentiable(factory)")
    return list(spec.sample_factory(rng))


def _sqsum(t):
    """Scalar-valued wrapper used by sample factories: ``sum(t * t)``."""
    return sum(mul(t, t))


def _away_from_zero(rng, shape, gap=0.3):
    """Random values with ``|x| >= gap`` (keeps kinked ops off their kink)."""
    signs = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return rng.uniform(gap, 1.0 + gap, size=shape) * signs


# ----------------------------------------------------------------------
# Elementwise arithmetic
# ----------------------------------------------------------------------

@differentiable(lambda rng: [
    OpSample(lambda a, b: sum(add(a, b)),
             rng.normal(size=(3, 4)), rng.normal(size=(4,))),
    OpSample(lambda a, b: _sqsum(add(a, b)),
             rng.normal(size=(2, 1, 3)), rng.normal(size=(3,))),
])
def add(a, b):
    """Elementwise ``a + b`` with numpy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate(unbroadcast(grad, a.shape))
        if b.requires_grad:
            b._accumulate(unbroadcast(grad, b.shape))

    return Tensor._make(out_data, (a, b), backward)


@differentiable(lambda rng: [
    OpSample(lambda a, b: sum(sub(a, b)),
             rng.normal(size=(3, 4)), rng.normal(size=(3, 1))),
    OpSample(lambda a, b: _sqsum(sub(a, b)),
             rng.normal(), rng.normal(size=(5,))),
])
def sub(a, b):
    """Elementwise ``a - b`` with numpy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate(unbroadcast(grad, a.shape))
        if b.requires_grad:
            b._accumulate(unbroadcast(-grad, b.shape), owned=True)

    return Tensor._make(out_data, (a, b), backward)


@differentiable(lambda rng: [
    OpSample(lambda a, b: sum(mul(a, b)),
             rng.normal(size=(3, 4)), rng.normal(size=(4,))),
    OpSample(lambda a, b: _sqsum(mul(a, b)),
             rng.normal(size=(2, 3)), rng.normal()),
])
def mul(a, b):
    """Elementwise ``a * b`` with numpy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate(unbroadcast(grad * b.data, a.shape), owned=True)
        if b.requires_grad:
            b._accumulate(unbroadcast(grad * a.data, b.shape), owned=True)

    return Tensor._make(out_data, (a, b), backward)


@differentiable(lambda rng: [
    OpSample(lambda a, b: sum(div(a, b)),
             rng.normal(size=(3, 4)), _away_from_zero(rng, (4,), gap=1.0)),
    OpSample(lambda a, b: _sqsum(div(a, b)),
             rng.normal(size=(2, 3)), _away_from_zero(rng, (2, 1), gap=1.0)),
])
def div(a, b):
    """Elementwise ``a / b`` with numpy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data / b.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate(unbroadcast(grad / b.data, a.shape), owned=True)
        if b.requires_grad:
            b._accumulate(unbroadcast(-grad * a.data / (b.data ** 2), b.shape),
                          owned=True)

    return Tensor._make(out_data, (a, b), backward)


@differentiable(lambda rng: [
    OpSample(lambda a: _sqsum(neg(a)), rng.normal(size=(5,))),
])
def neg(a):
    """Elementwise negation."""
    a = as_tensor(a)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(-grad, owned=True)

    return Tensor._make(-a.data, (a,), backward)


@differentiable(lambda rng: [
    OpSample(lambda a: sum(power(a, 3)), rng.normal(size=(4,))),
    OpSample(lambda a: sum(power(a, 1.5)),
             rng.uniform(0.5, 2.0, size=(4,))),
    # exponent 0 must have an exactly-zero gradient, even at base 0
    OpSample(lambda a: sum(power(a, 0)),
             np.concatenate([rng.normal(size=(3,)), [0.0]])),
])
def power(a, exponent):
    """Elementwise ``a ** exponent`` for a constant scalar exponent."""
    a = as_tensor(a)
    if isinstance(exponent, Tensor):
        raise TypeError("power() only supports constant scalar exponents")
    exponent = float(exponent)
    out_data = a.data ** exponent

    def backward(grad):
        if a.requires_grad:
            if exponent == 0.0:
                # d/dx x^0 = 0 everywhere; the generic formula would
                # evaluate 0 * x^-1 and emit NaN at x = 0.
                a._accumulate(np.zeros_like(a.data), owned=True)
            else:
                a._accumulate(grad * exponent * a.data ** (exponent - 1.0),
                              owned=True)

    return Tensor._make(out_data, (a,), backward)


@differentiable(lambda rng: [
    OpSample(lambda a: sum(clip(a, -0.5, 0.5)), rng.normal(size=(8,)) * 2.0),
])
def clip(a, low, high):
    """Clamp values to ``[low, high]``; gradient is zero outside the range."""
    a = as_tensor(a)
    out_data = np.clip(a.data, low, high)
    mask = (a.data >= low) & (a.data <= high)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * mask, owned=True)

    return Tensor._make(out_data, (a,), backward)


# ----------------------------------------------------------------------
# Transcendental / activation functions
# ----------------------------------------------------------------------

@differentiable(lambda rng: [
    OpSample(lambda a: sum(exp(a)), rng.normal(size=(5,))),
])
def exp(a):
    """Elementwise exponential."""
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * out_data, owned=True)

    return Tensor._make(out_data, (a,), backward)


@differentiable(lambda rng: [
    OpSample(lambda a: sum(log(a)), rng.uniform(0.5, 3.0, size=(5,))),
])
def log(a):
    """Elementwise natural logarithm."""
    a = as_tensor(a)
    out_data = np.log(a.data)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad / a.data, owned=True)

    return Tensor._make(out_data, (a,), backward)


@differentiable(lambda rng: [
    OpSample(lambda a: sum(sqrt(a)), rng.uniform(0.5, 3.0, size=(5,))),
])
def sqrt(a):
    """Elementwise square root."""
    a = as_tensor(a)
    out_data = np.sqrt(a.data)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * 0.5 / out_data, owned=True)

    return Tensor._make(out_data, (a,), backward)


@differentiable(lambda rng: [
    OpSample(lambda a: sum(tanh(a)), rng.normal(size=(5,))),
])
def tanh(a):
    """Elementwise hyperbolic tangent."""
    a = as_tensor(a)
    out_data = np.tanh(a.data)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * (1.0 - out_data ** 2), owned=True)

    return Tensor._make(out_data, (a,), backward)


def _stable_sigmoid(x, out=None):
    """Numerically stable logistic sigmoid on a raw numpy array.

    With ``out`` the result is written into that array (which may be
    ``x`` itself, or a view such as a gate slice) instead of a fresh
    allocation.
    """
    out = np.empty_like(x) if out is None else out
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@differentiable(lambda rng: [
    OpSample(lambda a: sum(sigmoid(a)), rng.normal(size=(5,)) * 3.0),
])
def sigmoid(a):
    """Numerically stable elementwise logistic sigmoid."""
    a = as_tensor(a)
    out_data = _stable_sigmoid(a.data)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * out_data * (1.0 - out_data), owned=True)

    return Tensor._make(out_data, (a,), backward)


@differentiable(lambda rng: [
    OpSample(lambda a: sum(relu(a)), _away_from_zero(rng, (7,))),
])
def relu(a):
    """Elementwise rectified linear unit."""
    a = as_tensor(a)
    mask = a.data > 0
    out_data = a.data * mask

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * mask, owned=True)

    return Tensor._make(out_data, (a,), backward)


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------

def _expand_reduced(grad, shape, axis, keepdims):
    """Broadcast a reduced gradient back to the pre-reduction shape."""
    if axis is None:
        return np.broadcast_to(grad, shape)
    if not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        axes = builtins.sorted(ax % len(shape) for ax in axes)
        for ax in axes:
            grad = np.expand_dims(grad, ax)
    return np.broadcast_to(grad, shape)


@differentiable(lambda rng: [
    OpSample(lambda a: sum(a), rng.normal(size=(3, 4))),
    OpSample(lambda a: _sqsum(sum(a, axis=1)), rng.normal(size=(3, 4))),
    OpSample(lambda a: _sqsum(sum(a, axis=0, keepdims=True)),
             rng.normal(size=(3, 4))),
    OpSample(lambda a: _sqsum(sum(a, axis=(0, 2))),
             rng.normal(size=(2, 3, 4))),
    OpSample(lambda a: _sqsum(sum(a, axis=-1)), rng.normal(size=(2, 3))),
])
def sum(a, axis=None, keepdims=False):  # noqa: A001 - mirrors numpy naming
    """Sum over the given axis (or all axes)."""
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_expand_reduced(grad, a.shape, axis, keepdims))

    return Tensor._make(out_data, (a,), backward)


@differentiable(lambda rng: [
    OpSample(lambda a: mean(a), rng.normal(size=(3, 4))),
    OpSample(lambda a: _sqsum(mean(a, axis=1)), rng.normal(size=(3, 4))),
    OpSample(lambda a: _sqsum(mean(a, axis=(0, 2), keepdims=True)),
             rng.normal(size=(2, 3, 4))),
])
def mean(a, axis=None, keepdims=False):
    """Mean over the given axis (or all axes)."""
    a = as_tensor(a)
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    # A python int: an np.prod scalar is "strong" under NEP 50 and would
    # promote float32 gradients to float64 in the division below.
    count = a.data.size if axis is None else int(np.prod(
        [a.shape[ax % a.ndim] for ax in (axis if isinstance(axis, tuple) else (axis,))]))

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_expand_reduced(grad, a.shape, axis, keepdims) / count,
                          owned=True)

    return Tensor._make(out_data, (a,), backward)


@differentiable(lambda rng: [
    OpSample(lambda a: sum(var(a, axis=-1)), rng.normal(size=(3, 5))),
    OpSample(lambda a: var(a), rng.normal(size=(4,))),
])
def var(a, axis=None, keepdims=False):
    """Population variance over the given axis (ddof=0)."""
    mu = mean(a, axis=axis, keepdims=True)
    centered = sub(a, mu)
    return mean(mul(centered, centered), axis=axis, keepdims=keepdims)


# ----------------------------------------------------------------------
# Linear algebra
# ----------------------------------------------------------------------

@differentiable(lambda rng: [
    OpSample(lambda a, b: sum(matmul(a, b)),
             rng.normal(size=(3, 4)), rng.normal(size=(4, 2))),
    OpSample(lambda a, b: sum(matmul(a, b)),
             rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 4, 2))),
    OpSample(lambda a, b: sum(matmul(a, b)),
             rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 2))),
    OpSample(lambda a, b: sum(matmul(a, b)),
             rng.normal(size=(4,)), rng.normal(size=(4, 3))),
    OpSample(lambda a, b: sum(matmul(a, b)),
             rng.normal(size=(3, 4)), rng.normal(size=(4,))),
    OpSample(lambda a, b: matmul(a, b),
             rng.normal(size=(4,)), rng.normal(size=(4,))),
    OpSample(lambda a, b: sum(matmul(a, b)),
             rng.normal(size=(2, 3, 4)), rng.normal(size=(4,))),
])
def matmul(a, b):
    """Matrix product with numpy's stacked-batch semantics.

    Supports ``(..., m, k) @ (..., k, n)`` with broadcasting of the leading
    batch dimensions, plus 1-D operands following numpy's rules.
    """
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data @ b.data

    def backward(grad):
        a_data, b_data = a.data, b.data
        if a.requires_grad:
            if b_data.ndim == 1:
                if a_data.ndim == 1:
                    grad_a = grad * b_data
                else:
                    grad_a = np.expand_dims(grad, -1) * b_data
            else:
                g = np.expand_dims(grad, -2) if a_data.ndim == 1 else grad
                grad_a = g @ np.swapaxes(b_data, -1, -2)
                if a_data.ndim == 1:
                    grad_a = grad_a.reshape(a_data.shape[-1:]) if grad_a.ndim <= 2 \
                        else grad_a.sum(axis=tuple(range(grad_a.ndim - 2))).reshape(-1)
            a._accumulate(unbroadcast(grad_a, a.shape), owned=True)
        if b.requires_grad:
            if a_data.ndim == 1:
                if b_data.ndim == 1:
                    grad_b = grad * a_data
                else:
                    grad_b = np.expand_dims(a_data, -1) * grad
            else:
                g = np.expand_dims(grad, -1) if b_data.ndim == 1 else grad
                grad_b = np.swapaxes(a_data, -1, -2) @ g
                if b_data.ndim == 1:
                    # Drop the column axis we added, then sum any batch dims.
                    grad_b = grad_b[..., 0]
                    if grad_b.ndim > 1:
                        grad_b = grad_b.sum(axis=tuple(range(grad_b.ndim - 1)))
            b._accumulate(unbroadcast(grad_b, b.shape), owned=True)

    return Tensor._make(out_data, (a, b), backward)


# ----------------------------------------------------------------------
# Shape manipulation
# ----------------------------------------------------------------------

@differentiable(lambda rng: [
    OpSample(lambda a: _sqsum(reshape(a, (6,))), rng.normal(size=(2, 3))),
    OpSample(lambda a: _sqsum(reshape(a, (3, 4))),
             rng.normal(size=(2, 3, 2))),
])
def reshape(a, shape):
    """Reshape without copying data."""
    a = as_tensor(a)
    out_data = a.data.reshape(shape)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad.reshape(a.shape))

    return Tensor._make(out_data, (a,), backward)


@differentiable(lambda rng: [
    OpSample(lambda a: _sqsum(transpose(a)), rng.normal(size=(2, 3))),
    OpSample(lambda a: _sqsum(transpose(a, (1, 2, 0))),
             rng.normal(size=(2, 3, 4))),
    # negative axes must invert correctly (regression: argsort on raw
    # negative axes produced a wrong inverse permutation)
    OpSample(lambda a: _sqsum(transpose(a, (0, -1, 1))),
             rng.normal(size=(2, 3, 4))),
])
def transpose(a, axes=None):
    """Permute axes (full reverse by default, like ``ndarray.T``)."""
    a = as_tensor(a)
    out_data = a.data.transpose(axes)
    if axes is None:
        inverse = None
    else:
        # Normalize negative axes before inverting the permutation.
        inverse = np.argsort([ax % a.ndim for ax in axes])

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad.transpose(inverse) if inverse is not None
                          else grad.transpose())

    return Tensor._make(out_data, (a,), backward)


@differentiable(lambda rng: [
    OpSample(lambda a: _sqsum(swapaxes(a, 0, 2)), rng.normal(size=(2, 3, 4))),
    OpSample(lambda a: _sqsum(swapaxes(a, -1, -2)),
             rng.normal(size=(2, 3, 4))),
])
def swapaxes(a, axis1, axis2):
    """Swap two axes."""
    a = as_tensor(a)
    out_data = np.swapaxes(a.data, axis1, axis2)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(np.swapaxes(grad, axis1, axis2))

    return Tensor._make(out_data, (a,), backward)


def _is_basic_index(index):
    """Whether ``index`` is numpy *basic* indexing (ints, slices,
    ``Ellipsis``, ``None``), which can never select an element twice."""
    items = index if isinstance(index, tuple) else (index,)
    return builtins.all(
        item is None or item is Ellipsis or isinstance(item, slice)
        or (isinstance(item, (int, np.integer))
            and not isinstance(item, bool))
        for item in items)


@differentiable(lambda rng: [
    OpSample(lambda a: _sqsum(getitem(a, (slice(1, None), slice(None, 2)))),
             rng.normal(size=(3, 4))),
    OpSample(lambda a: _sqsum(getitem(a, (slice(None), slice(None, None, -1)))),
             rng.normal(size=(3, 4))),
    OpSample(lambda a: _sqsum(getitem(a, np.array([0, 2, 2]))),
             rng.normal(size=(3, 4))),
    OpSample(lambda a: _sqsum(getitem(a, np.array([True, False, True]))),
             rng.normal(size=(3, 4))),
])
def getitem(a, index):
    """Basic and advanced indexing; gradients scatter-add back.

    A basic index selects each element at most once, so its backward is
    a plain strided assignment into the zeros; only advanced indices
    (which may repeat an element) pay for the accumulating
    ``np.add.at``.
    """
    a = as_tensor(a)
    out_data = a.data[index]
    basic = _is_basic_index(index)

    def backward(grad):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            if basic:
                full[index] = grad
            else:
                np.add.at(full, index, grad)
            a._accumulate(full, owned=True)

    return Tensor._make(out_data, (a,), backward)


@differentiable(lambda rng: [
    OpSample(lambda a, b: _sqsum(concat([a, b], axis=1)),
             rng.normal(size=(2, 3)), rng.normal(size=(2, 2))),
    OpSample(lambda a, b, c: _sqsum(concat([a, b, c], axis=-1)),
             rng.normal(size=(2, 1)), rng.normal(size=(2, 2)),
             rng.normal(size=(2, 3))),
])
def concat(tensors, axis=-1):
    """Concatenate tensors along an axis."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                t._accumulate(grad[tuple(slicer)])

    return Tensor._make(out_data, tuple(tensors), backward)


def _split_weighted(a, sections, axis):
    parts = split(a, sections, axis=axis)
    total = None
    for i, part in enumerate(parts):
        term = mul(float(i + 1), _sqsum(part))
        total = term if total is None else add(total, term)
    return total


@differentiable(lambda rng: [
    OpSample(lambda a: _split_weighted(a, 3, -1), rng.normal(size=(2, 6))),
    OpSample(lambda a: _split_weighted(a, 2, 0), rng.normal(size=(4, 3))),
])
def split(a, sections, axis=-1):
    """Split into equal sections along an axis; returns a list of tensors."""
    a = as_tensor(a)
    size = a.shape[axis]
    if size % sections:
        raise ValueError(f"axis of size {size} cannot be split into {sections} equal parts")
    step = size // sections
    outs = []
    for k in range(sections):
        slicer = [slice(None)] * a.ndim
        slicer[axis] = slice(k * step, (k + 1) * step)
        outs.append(getitem(a, tuple(slicer)))
    return outs


@differentiable(lambda rng: [
    OpSample(lambda a: _sqsum(pad_last(a, 1, 2)), rng.normal(size=(2, 3))),
    OpSample(lambda a: _sqsum(pad_last(a, 0, 1, value=0.7)),
             rng.normal(size=(3,))),
])
def pad_last(a, before, after, value=0.0):
    """Pad the last axis with a constant value."""
    a = as_tensor(a)
    widths = [(0, 0)] * (a.ndim - 1) + [(before, after)]
    out_data = np.pad(a.data, widths, constant_values=value)

    def backward(grad):
        if a.requires_grad:
            slicer = [slice(None)] * (a.ndim - 1) + [slice(before, before + a.shape[-1])]
            a._accumulate(grad[tuple(slicer)])

    return Tensor._make(out_data, (a,), backward)


# ----------------------------------------------------------------------
# Softmax family
# ----------------------------------------------------------------------

@differentiable(lambda rng: [
    OpSample(lambda a: sum(mul(softmax(a, axis=-1), np.arange(4.0))),
             rng.normal(size=(3, 4))),
    OpSample(lambda a: _sqsum(softmax(a, axis=0)), rng.normal(size=(3, 4))),
])
def softmax(a, axis=-1):
    """Numerically stable softmax along ``axis``."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    exped = np.exp(shifted)
    out_data = exped / exped.sum(axis=axis, keepdims=True)

    def backward(grad):
        if a.requires_grad:
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            a._accumulate(out_data * (grad - dot), owned=True)

    return Tensor._make(out_data, (a,), backward)


@differentiable(lambda rng: [
    OpSample(lambda a: mean(softmax_cross_entropy(a, np.array([0, 2, 1]))),
             rng.normal(size=(3, 4))),
    OpSample(lambda a: sum(softmax_cross_entropy(a, np.array([1]))),
             rng.normal(size=(1, 3)) * 2.0),
])
def softmax_cross_entropy(logits, targets):
    """Fused log-softmax + negative-log-likelihood gather.

    ``logits`` is (batch, classes); ``targets`` a constant integer class
    vector.  Returns the per-sample loss vector (callers reduce).  The
    forward values are bit-identical to the unfused composition
    ``neg(getitem(log_softmax(logits), (rows, targets)))`` (kept as an
    oracle in ``tests/nn/oracles.py``); the single backward closure
    replaces the composition's graph nodes (and getitem's ``np.add.at``
    scatter) with one dense update.
    """
    logits = as_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2 or targets.ndim != 1:
        raise ValueError("softmax_cross_entropy expects (batch, classes) "
                         "logits and a 1-D integer target vector")
    x = logits.data
    shifted = x - x.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - log_z
    rows = np.arange(x.shape[0])
    out_data = -log_probs[rows, targets]

    def backward(grad):
        if logits.requires_grad:
            # d loss_i / d logits_i = softmax_i - onehot_i, row-scaled by
            # the incoming per-sample gradient.  One buffer: exp writes
            # it, the row scale and one-hot subtraction update in place,
            # and the tensor adopts it as its gradient without a copy.
            full = np.exp(log_probs)
            full *= grad[:, None]
            full[rows, targets] -= grad
            logits._accumulate(full, owned=True)

    return Tensor._make(out_data, (logits,), backward)


# ----------------------------------------------------------------------
# Fused recurrent kernels
# ----------------------------------------------------------------------

def _sigmoid_into(x, out):
    """Branch-free sigmoid via ``0.5 * (1 + tanh(x/2))`` for the scans.

    Mathematically identical to :func:`_stable_sigmoid` and equally
    stable (tanh saturates cleanly), but four strided ufunc passes with
    no boolean fancy indexing — an order of magnitude cheaper on the
    small per-timestep gate slabs the scan loop touches.  The scan
    kernels are held to their step-unrolled oracles by tolerance (not
    bit-identity), so they are free to use it; :func:`sigmoid` keeps
    ``_stable_sigmoid``.
    """
    np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def _gru_gates_into(gt, gh, h_prev, g_act, h_new, tmp):
    """The GRU gate tail shared by the GRU scans and their stream steps.

    Rank-agnostic (gates on the last axis, laid out ``[z | r | n]``):
    ``gt`` holds the input-side gate pre-activations and is consumed in
    place, ``gh`` the hidden-side ones (its candidate block ``n_h`` is
    read, never written).  Writes the post-activation ``[z | r | n]``
    into ``g_act`` (which may alias ``gt``) and
    ``z * h_prev + (1 - z) * n`` into ``h_new``; ``tmp`` is scratch of
    ``h_prev``'s shape.  Scan and step kernels run this one ufunc
    sequence, so a streamed step reproduces its scan step bit for bit.
    Callers may pass swapped views: :func:`per_feature_gru_scan` keeps
    its gates gate-major ``(..., 3H, B)`` and passes ``.swapaxes(-1,
    -2)`` views, which the ufuncs walk in memory order.
    """
    hidden = h_prev.shape[-1]
    h2 = 2 * hidden
    gt[..., :h2] += gh[..., :h2]
    _sigmoid_into(gt[..., :h2], out=g_act[..., :h2])
    z = g_act[..., :hidden]
    r = g_act[..., hidden:h2]
    n_pre = gt[..., h2:]
    np.multiply(r, gh[..., h2:], out=tmp)
    n_pre += tmp
    n = np.tanh(n_pre, out=g_act[..., h2:])
    np.subtract(h_prev, n, out=h_new)            # z*h + (1-z)*n
    h_new *= z
    h_new += n
    return h_new


def _gru_gates_backward_into(dh, g_act, nh, h_prev, dgx, dgh, om):
    """Backward of :func:`_gru_gates_into` for one step.

    Given ``dh`` (the gradient w.r.t. ``h_new``), the cached ``g_act``
    and ``nh`` (the hidden-side candidate pre-activation), fills ``dgx``
    with the gradient w.r.t. the input-side gates ``[z | r | n]`` and
    ``dgh`` with the gradient w.r.t. the hidden-side gates, which differ
    only in the candidate block (scaled by the reset gate).  ``om`` is
    scratch of ``dh``'s shape.  The direct term ``dh * z`` of
    ``d h_prev`` is left to the caller.
    """
    hidden = dh.shape[-1]
    h2 = 2 * hidden
    z = g_act[..., :hidden]
    r = g_act[..., hidden:h2]
    n = g_act[..., h2:]
    d_z = dgx[..., :hidden]
    d_r = dgx[..., hidden:h2]
    d_n = dgx[..., h2:]
    np.subtract(1.0, z, out=om)                  # 1 - z
    np.multiply(n, n, out=d_n)                   # d_n_pre
    np.subtract(1.0, d_n, out=d_n)
    d_n *= dh
    d_n *= om
    np.subtract(h_prev, n, out=d_z)              # d_z_pre
    d_z *= dh
    d_z *= z
    d_z *= om
    np.subtract(1.0, r, out=om)                  # buffer becomes 1-r
    np.multiply(d_n, nh, out=d_r)                # d_r_pre
    d_r *= r
    d_r *= om
    dgh[..., :h2] = dgx[..., :h2]
    np.multiply(d_n, r, out=dgh[..., h2:])


def _lstm_gates_into(gt, gh, c_prev, g_act, c_new, tc, h_new, tmp):
    """The LSTM gate tail shared by the StageNet scan and its stream step.

    Gates on the last axis, laid out ``[i | f | g | o]``: ``gh`` (the
    recurrent projection) is added into ``gt`` (the input-side
    pre-activations, consumed in place), the post-activations go to
    ``g_act``, the cell ``f * c_prev + i * g`` to ``c_new``, its
    ``tanh`` to ``tc`` and ``o * tanh(c)`` to ``h_new``; ``tmp`` is
    scratch of ``c_prev``'s shape.  StageNet passes its pre-stage cell
    as ``c_new``.  One ufunc sequence for scans and steps, as with
    :func:`_gru_gates_into`.
    """
    hidden = c_prev.shape[-1]
    h2, h3 = 2 * hidden, 3 * hidden
    gt += gh
    _sigmoid_into(gt[..., :h2], out=g_act[..., :h2])       # i | f
    g = np.tanh(gt[..., h2:h3], out=g_act[..., h2:h3])
    o = _sigmoid_into(gt[..., h3:], out=g_act[..., h3:])
    np.multiply(g_act[..., hidden:h2], c_prev, out=c_new)
    np.multiply(g_act[..., :hidden], g, out=tmp)
    c_new += tmp
    np.tanh(c_new, out=tc)
    return np.multiply(o, tc, out=h_new)


def _lstm_gates_backward_into(dh, dc, g_act, tc, c_prev, dg, om, scr):
    """Backward of :func:`_lstm_gates_into` for one step.

    Given ``dh`` (the gradient w.r.t. ``h_new``) and ``dc`` (w.r.t. the
    cell), adds the ``h = o * tanh(c)`` leg of ``dh`` into ``dc`` in
    place and fills ``dg`` with the gradient w.r.t. the gate
    pre-activations ``[i | f | g | o]``.  ``om`` and ``scr`` are scratch
    of ``dh``'s shape.  The carries ``dg @ W_hh.T`` and ``dc * f`` are
    left to the caller.
    """
    hidden = dh.shape[-1]
    h2, h3 = 2 * hidden, 3 * hidden
    i = g_act[..., :hidden]
    f = g_act[..., hidden:h2]
    g = g_act[..., h2:h3]
    o = g_act[..., h3:]
    d_i = dg[..., :hidden]
    d_f = dg[..., hidden:h2]
    d_g = dg[..., h2:h3]
    d_o = dg[..., h3:]
    np.multiply(dh, tc, out=d_o)                 # d_o_pre
    d_o *= o
    np.subtract(1.0, o, out=om)
    d_o *= om
    np.multiply(tc, tc, out=scr)                 # dh -> dc via tanh(c)
    np.subtract(1.0, scr, out=scr)
    scr *= o
    scr *= dh
    dc += scr
    np.multiply(dc, g, out=d_i)                  # d_i_pre
    d_i *= i
    np.subtract(1.0, i, out=om)
    d_i *= om
    np.multiply(dc, c_prev, out=d_f)             # d_f_pre
    d_f *= f
    np.subtract(1.0, f, out=om)
    d_f *= om
    np.multiply(g, g, out=d_g)                   # d_g_pre
    np.subtract(1.0, d_g, out=d_g)
    d_g *= dc
    d_g *= i


def _rowstable_matmul(a, b):
    """``a @ b`` computed in the BLAS row-stable regime (M >= 2).

    On this container's BLAS, a single-row float64 GEMM dispatches to a
    GEMV-shaped kernel whose accumulation order differs in the last bits
    from the GEMM used for M >= 2 rows, while every M >= 2 shape agrees
    row-for-row.  Padding the lone row keeps all callers — the fused
    scans' flattened input projection and the streaming single-step
    kernels — inside the same row-stable class, which is what makes
    streaming inference bit-identical to the full forward
    (tests/serve/test_streaming.py pins the contract).
    """
    if a.shape[0] == 1:
        padded = np.zeros((2, a.shape[1]), dtype=a.dtype)
        padded[0] = a[0]
        return np.matmul(padded, b)[:1]
    return np.matmul(a, b)


def _check_scan_lengths(lengths, batch, steps):
    """Validate per-row sequence lengths for the scan kernels.

    Returns ``(lengths, t_run, min_len)``: the lengths as int64 (or
    ``None``), the number of steps the loop runs (the longest length),
    and the first step at which any row can be frozen (the shortest).
    """
    if lengths is None:
        return None, steps, 0
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.shape != (batch,):
        raise ValueError(
            f"lengths shape {lengths.shape} does not match batch {batch}")
    if lengths.size and (lengths.min() < 0 or lengths.max() > steps):
        raise ValueError(
            f"lengths must lie in [0, {steps}], got "
            f"[{lengths.min()}, {lengths.max()}]")
    return (lengths, int(lengths.max(initial=0)),
            int(lengths.min(initial=steps)))


def _frozen_rows(lengths, min_len, t):
    """Mask of the rows whose sequence has ended before step ``t``, or
    ``None`` while every row is still running."""
    if lengths is None or t < min_len:
        return None
    return lengths <= t


def _time_major(a, t_run):
    """The first ``t_run`` steps of a ``(batch, steps, ...)`` array as a
    contiguous time-major ``(t_run, batch, ...)`` copy, so each step's
    slice is contiguous and the flattened ``(t_run * batch, ...)`` row
    view of the input projection GEMM is free."""
    return np.ascontiguousarray(a[:, :t_run].swapaxes(0, 1))


def _project(rows, weight, bias, shape):
    """``rows @ weight + bias`` as one row-stable GEMM, viewed as
    ``shape`` (the scans' hoisted input projection of every step)."""
    out = _rowstable_matmul(rows, weight)
    out += bias
    return out.reshape(shape)


def _scan_output(h_stack, steps, return_sequences):
    """A scan's result from its ``(t_run + 1, batch, hidden)`` states.

    The ``(batch, steps, hidden)`` trajectory, whose padded tail past
    ``t_run`` repeats the frozen final state, or the final state alone.
    """
    t_run = len(h_stack) - 1
    if not return_sequences:
        return h_stack[t_run].copy()
    batch, hidden = h_stack.shape[1:]
    out = np.empty((batch, steps, hidden), dtype=h_stack.dtype)
    if t_run:
        out[:, :t_run] = h_stack[1:].swapaxes(0, 1)
    if t_run < steps:
        out[:, t_run:] = h_stack[t_run][:, None, :]
    return out


def _final_state_grad(grad, t_run, return_sequences):
    """The reverse loop's seed ``dh``: the gradient reaching the last
    state, which every padded-tail slot of a trajectory carries."""
    if return_sequences:
        return grad[:, t_run:].sum(axis=1)
    return grad.copy()


def _batch_major(g_tm, steps):
    """A time-major ``(t_run, batch, ...)`` input gradient as
    ``(batch, steps, ...)``, zero over the steps the loop never ran."""
    t_run = len(g_tm)
    if t_run == steps:
        return np.ascontiguousarray(g_tm.swapaxes(0, 1))
    full = np.zeros((g_tm.shape[1], steps) + g_tm.shape[2:],
                    dtype=g_tm.dtype)
    full[:, :t_run] = g_tm.swapaxes(0, 1)
    return full


def _gru_scan_sample(rng):
    batch, steps, num_in, hidden = 2, 3, 3, 2

    def arrays():
        return (rng.normal(size=(batch, steps, num_in)),
                rng.normal(size=(batch, hidden)),
                rng.normal(size=(num_in, 3 * hidden)) * 0.5,
                rng.normal(size=(hidden, 3 * hidden)) * 0.5,
                rng.normal(size=3 * hidden) * 0.1,
                rng.normal(size=3 * hidden) * 0.1)

    ragged = np.array([1, 3])
    return [
        OpSample(lambda x, h, wi, wh, bi, bh: _sqsum(
            gru_scan(x, h, wi, wh, bi, bh)), *arrays()),
        OpSample(lambda x, h, wi, wh, bi, bh: _sqsum(
            gru_scan(x, h, wi, wh, bi, bh, lengths=ragged)), *arrays()),
        OpSample(lambda x, h, wi, wh, bi, bh: _sqsum(
            gru_scan(x, h, wi, wh, bi, bh, lengths=ragged,
                     return_sequences=False)), *arrays()),
    ]


@differentiable(_gru_scan_sample)
def gru_scan(x, h0, w_ih, w_hh, b_ih, b_hh, lengths=None,
             return_sequences=True):
    """Fused GRU over a whole ``(batch, steps, features)`` sequence.

    Computes the function of a step-unrolled loop over
    :class:`~repro.nn.layers.GRUCell` (gate layout ``[update z | reset r
    | candidate n]``, candidate ``tanh(n_x + r * n_h)``) as one graph
    node: the input projection ``X @ W_ih`` for all
    timesteps runs as a single GEMM up front, the python loop touches
    only the small recurrent ``h @ W_hh`` product plus the elementwise
    gate tail (all via out= ufuncs into preallocated stacks), and the
    whole sequence records **one** graph node whose hand-derived backward
    replays the loop in reverse and then collapses the weight gradients
    into one big GEMM each.

    ``lengths`` (optional, ``(batch,)`` ints) gives each row's true
    sequence length: the loop runs only to ``lengths.max()`` and rows are
    *frozen* once exhausted — ``h_t = h_{t-1}`` for ``t >= lengths[i]``,
    so the final state equals the state at each row's last real step and
    padded timesteps cost nothing beyond the masked copy.  Gradients
    honour the same semantics: frozen steps contribute no gate gradients
    and pass the carried ``dh`` straight through.

    Returns ``(batch, steps, hidden)`` when ``return_sequences`` (frozen
    rows repeat their final state over the padded tail) else
    ``(batch, hidden)``.
    """
    x, h0 = as_tensor(x), as_tensor(h0)
    w_ih, w_hh = as_tensor(w_ih), as_tensor(w_hh)
    b_ih, b_hh = as_tensor(b_ih), as_tensor(b_hh)
    if x.data.ndim != 3:
        raise ValueError(f"gru_scan expects (batch, steps, features) input, "
                         f"got shape {x.shape}")
    batch, steps, num_in = x.shape
    hidden = h0.shape[-1]
    h2 = 2 * hidden
    if h0.shape != (batch, hidden) \
            or w_ih.shape != (num_in, 3 * hidden) \
            or w_hh.shape != (hidden, 3 * hidden):
        raise ValueError(
            f"gru_scan shapes do not line up: x {x.shape}, h0 {h0.shape}, "
            f"w_ih {w_ih.shape}, w_hh {w_hh.shape}")
    lengths, t_run, min_len = _check_scan_lengths(lengths, batch, steps)

    # One big GEMM for the input projection of every timestep.
    x_2d = _time_major(x.data, t_run).reshape(t_run * batch, num_in)
    gx = _project(x_2d, w_ih.data, b_ih.data, (t_run, batch, 3 * hidden))
    dt = gx.dtype

    needs_grad = is_grad_enabled() and any(
        p.requires_grad for p in (x, h0, w_ih, w_hh, b_ih, b_hh))
    h_stack = np.empty((t_run + 1, batch, hidden), dtype=dt)
    h_stack[0] = h0.data
    if needs_grad:
        # One (B, 3H) activation slab per step: [z | r | n] post-gate.
        gact = np.empty((t_run, batch, 3 * hidden), dtype=dt)
        nhs = np.empty((t_run, batch, hidden), dtype=dt)
    else:
        scratch = np.empty((batch, 3 * hidden), dtype=dt)

    w_hh_d, b_hh_d = w_hh.data, b_hh.data
    gh = np.empty((batch, 3 * hidden), dtype=dt)
    tmp = np.empty((batch, hidden), dtype=dt)
    for t in range(t_run):
        h_prev = h_stack[t]
        h_new = h_stack[t + 1]
        np.matmul(h_prev, w_hh_d, out=gh)
        gh += b_hh_d
        if needs_grad:
            nhs[t] = gh[:, h2:]              # h @ W_hh_n + b_hh_n
        _gru_gates_into(gx[t], gh, h_prev,
                        gact[t] if needs_grad else scratch, h_new, tmp)
        frozen = _frozen_rows(lengths, min_len, t)
        if frozen is not None:
            h_new[frozen] = h_prev[frozen]

    out_data = _scan_output(h_stack, steps, return_sequences)

    def backward(grad):
        w_ih_d = w_ih.data
        dh = _final_state_grad(grad, t_run, return_sequences)
        dgx = np.empty((t_run, batch, 3 * hidden), dtype=dt)
        dgh = np.empty_like(dgx)
        om = np.empty((batch, hidden), dtype=dt)
        scr = np.empty_like(om)
        for t in range(t_run - 1, -1, -1):
            if return_sequences:
                dh += grad[:, t]
            z = gact[t, :, :hidden]
            dgx_t, dgh_t = dgx[t], dgh[t]
            _gru_gates_backward_into(dh, gact[t], nhs[t], h_stack[t],
                                     dgx_t, dgh_t, om)
            frozen = _frozen_rows(lengths, min_len, t)
            if frozen is not None:
                dgx_t[frozen] = 0.0
                dgh_t[frozen] = 0.0
            carry = dgh_t @ w_hh_d.T
            np.multiply(dh, z, out=scr)
            carry += scr
            if frozen is not None:
                carry[frozen] = dh[frozen]
            dh = carry
        dgx_2d = dgx.reshape(-1, 3 * hidden)
        dgh_2d = dgh.reshape(-1, 3 * hidden)
        if x.requires_grad:
            dx_tm = (dgx_2d @ w_ih_d.T).reshape(t_run, batch, num_in)
            x._accumulate(_batch_major(dx_tm, steps), owned=True)
        if h0.requires_grad:
            h0._accumulate(dh, owned=True)
        if w_ih.requires_grad:
            w_ih._accumulate(x_2d.T @ dgx_2d, owned=True)
        if w_hh.requires_grad:
            h_prev_2d = h_stack[:t_run].reshape(-1, hidden)
            w_hh._accumulate(h_prev_2d.T @ dgh_2d, owned=True)
        if b_ih.requires_grad:
            b_ih._accumulate(dgx_2d.sum(axis=0), owned=True)
        if b_hh.requires_grad:
            b_hh._accumulate(dgh_2d.sum(axis=0), owned=True)

    return Tensor._make(out_data, (x, h0, w_ih, w_hh, b_ih, b_hh), backward)


def _gates_last(*arrays):
    """Gate-major ``(..., 3H, B)`` arrays viewed as ``(..., B, 3H)``, the
    layout the shared gate tails take; each gate block stays one
    contiguous run of ``H * B`` elements for the ufuncs to walk."""
    return [a.swapaxes(-1, -2) for a in arrays]


def _per_feature_step_into(x_t, h_prev, w_col, w_hh_t, b_col, gt, gh, h_new,
                           tmp):
    """One gate-major step of :func:`per_feature_gru_scan`, shared with
    :func:`per_feature_gru_scan_step`: ``x_t`` is ``(C, B)``, the states
    ``(C, H, B)``, ``gt``/``gh`` ``(C, 3H, B)`` scratch.  The projection
    ``x_t * w_ih + bias`` is elementwise and the recurrent one is one
    batched ``(C, 3H, H) @ (C, H, B)`` GEMM on the same operand views in
    scan and step, so both reach the same state bit for bit.  ``gh`` is
    left holding the hidden-side pre-activations; returns ``h_new``."""
    np.multiply(x_t[:, None], w_col, out=gt)
    gt += b_col
    np.matmul(w_hh_t, h_prev, out=gh)
    _gru_gates_into(*_gates_last(gt, gh, h_prev, gt, h_new, tmp))
    return h_new


def _per_feature_gru_scan_sample(rng):
    channels, hidden = 3, 4

    def arrays(batch, steps):
        return (rng.normal(size=(batch, steps, channels)),
                rng.normal(size=(channels, 1, 3 * hidden)) * 0.5,
                rng.normal(size=(channels, hidden, 3 * hidden)) * 0.5,
                rng.normal(size=(channels, 3 * hidden)) * 0.1)

    def build(v, wi, wh, b):
        return _sqsum(per_feature_gru_scan(v, wi, wh, b))

    return [OpSample(build, *arrays(2, 3)),
            OpSample(build, *arrays(1, 1))]


@differentiable(_per_feature_gru_scan_sample)
def per_feature_gru_scan(values, w_ih, w_hh, bias):
    """ConCare's ``C`` single-input GRUs over a whole sequence, one node.

    ``values`` is ``(batch, steps, C)``; feature ``c``'s scalar series
    drives its own GRU with input weights ``w_ih[c]`` ``(1, 3H)``,
    recurrent weights ``w_hh[c]`` ``(H, 3H)`` and one bias ``bias[c]``
    ``(3H,)`` on the input side, from a zero initial state.  Returns the
    final states as ``(batch, C, H)``.

    The ``C`` recurrences run stacked in a gate-major layout: a state is
    ``(C, H, B)`` and a step's gates ``(C, 3H, B)``, so each step is one
    batched ``(C, 3H, H) @ (C, H, B)`` GEMM plus the shared gate tail on
    swapped views, whose every gate block is one contiguous run of
    ``H * B`` elements (:func:`_per_feature_step_into`, which the stream
    step runs too).  With a graph the time-major projection slab
    ``(T, C, 3H, B)`` (overwritten by the activations) and the state
    stack ``(T + 1, C, H, B)`` are kept for the backward; without one
    the loop keeps two states and one step's scratch.  The hand-derived
    backward replays the loop in reverse with one step's gate-gradient
    scratch, accumulating ``dW_hh += h_prev @ dgh_t^T``, the input weight
    and bias gradients as one GEMM of ``dgx_t`` against the
    ``[x_t, 1]`` columns, and the input gradient ``w_ih @ dgx_t`` step
    by step.
    """
    values, w_ih = as_tensor(values), as_tensor(w_ih)
    w_hh, bias = as_tensor(w_hh), as_tensor(bias)
    if values.data.ndim != 3 or w_hh.data.ndim != 3:
        raise ValueError(
            f"per_feature_gru_scan expects (batch, steps, features) values "
            f"and (features, hidden, 3*hidden) w_hh, got shapes "
            f"{values.shape} and {w_hh.shape}")
    batch, steps, channels = values.shape
    hidden = w_hh.shape[1]
    h3 = 3 * hidden
    if w_hh.shape != (channels, hidden, h3) \
            or w_ih.shape != (channels, 1, h3) \
            or bias.shape != (channels, h3):
        raise ValueError(
            f"per_feature_gru_scan shapes do not line up: values "
            f"{values.shape}, w_ih {w_ih.shape}, w_hh {w_hh.shape}, "
            f"bias {bias.shape}")

    needs_grad = is_grad_enabled() and any(
        p.requires_grad for p in (values, w_ih, w_hh, bias))
    dt = np.result_type(values.data, w_ih.data)
    x_tm = values.data.transpose(1, 2, 0)                # (T, C, B) view
    w_col = w_ih.data.transpose(0, 2, 1)                 # (C, 3H, 1)
    w_hh_t = w_hh.data.transpose(0, 2, 1)                # (C, 3H, H)
    b_col = bias.data[..., None]
    # The graph keeps every step's activations and state; inference
    # cycles one projection slot and two state slots.
    kept = steps + 1 if needs_grad else 2
    gx = np.empty((kept - 1, channels, h3, batch), dtype=dt)
    h_stack = np.empty((kept, channels, hidden, batch), dtype=dt)
    h_stack[0] = 0.0
    if needs_grad:
        nhs = np.empty((steps, channels, hidden, batch), dtype=dt)
    gh = np.empty((channels, h3, batch), dtype=dt)
    tmp = np.empty((channels, hidden, batch), dtype=dt)
    for t in range(steps):
        _per_feature_step_into(x_tm[t], h_stack[t % kept], w_col, w_hh_t,
                               b_col, gx[t % len(gx)], gh,
                               h_stack[(t + 1) % kept], tmp)
        if needs_grad:
            nhs[t] = gh[:, 2 * hidden:]
    # A contiguous (C, H, B) state, viewed as (B, C, H): the layout the
    # streaming state has, so downstream ops see the same strides.
    out_data = h_stack[steps % kept].copy().transpose(2, 0, 1)

    def backward(grad):
        dh = np.ascontiguousarray(grad.transpose(1, 2, 0))   # (C, H, B)
        dgx = np.empty((channels, h3, batch), dtype=dt)
        dgh = np.empty_like(dgx)
        om = np.empty_like(dh)
        carry = np.empty_like(dh)
        x_one = np.ones((steps, channels, batch, 2), dtype=dt)
        x_one[..., 0] = x_tm                              # [x_t, 1] columns
        d_ib = np.zeros((channels, h3, 2), dtype=dt)
        ib_t = np.empty_like(d_ib)
        d_hh = np.zeros((channels, hidden, h3), dtype=dt)
        hh_t = np.empty_like(d_hh)
        if values.requires_grad:
            dx = np.empty((steps, channels, 1, batch), dtype=dt)
        for t in range(steps - 1, -1, -1):
            g_act = gx[t]
            _gru_gates_backward_into(*_gates_last(
                dh, g_act, nhs[t], h_stack[t], dgx, dgh, om))
            d_ib += np.matmul(dgx, x_one[t], out=ib_t)
            if values.requires_grad:
                np.matmul(w_ih.data, dgx, out=dx[t])
            if t:                          # h_0 = 0: no weight term, no carry
                d_hh += np.matmul(h_stack[t], dgh.swapaxes(1, 2), out=hh_t)
                np.matmul(w_hh.data, dgh, out=carry)
                np.multiply(dh, g_act[:, :hidden], out=om)
                carry += om
                dh, carry = carry, dh
        if values.requires_grad:
            values._accumulate(np.ascontiguousarray(
                dx[:, :, 0].transpose(2, 0, 1)), owned=True)
        if w_ih.requires_grad:
            w_ih._accumulate(np.ascontiguousarray(d_ib[:, None, :, 0]),
                             owned=True)
        if w_hh.requires_grad:
            w_hh._accumulate(d_hh, owned=True)
        if bias.requires_grad:
            bias._accumulate(np.ascontiguousarray(d_ib[..., 1]), owned=True)

    return Tensor._make(out_data, (values, w_ih, w_hh, bias), backward)


def _grud_scan_sample(rng):
    batch, steps, channels, hidden = 2, 3, 3, 2
    mask = (rng.random(size=(batch, steps, channels)) < 0.6).astype(
        np.float64)

    def arrays():
        return (rng.normal(size=(batch, steps, channels)),
                np.abs(rng.normal(size=(batch, steps, channels))) + 0.5,
                rng.normal(size=(batch, hidden)),
                _away_from_zero(rng, (channels,)),
                rng.normal(size=(channels, hidden)) * 0.5,
                rng.normal(size=hidden) * 0.1,
                rng.normal(size=(2 * channels, 3 * hidden)) * 0.5,
                rng.normal(size=(hidden, 3 * hidden)) * 0.5,
                rng.normal(size=3 * hidden) * 0.1,
                rng.normal(size=3 * hidden) * 0.1)

    ragged = np.array([1, 3])
    return [
        OpSample(lambda v, d, h, wd, whd, bhd, wi, wh, bi, bh: _sqsum(
            grud_scan(v, mask, d, h, wd, whd, bhd, wi, wh, bi, bh)),
            *arrays()),
        OpSample(lambda v, d, h, wd, whd, bhd, wi, wh, bi, bh: _sqsum(
            grud_scan(v, mask, d, h, wd, whd, bhd, wi, wh, bi, bh,
                      lengths=ragged, return_sequences=True)),
            *arrays()),
    ]


@differentiable(_grud_scan_sample)
def grud_scan(values, mask, deltas, h0, input_decay, hidden_decay_w,
              hidden_decay_b, w_ih, w_hh, b_ih, b_hh, lengths=None,
              return_sequences=False):
    """Fused GRU-D over a whole sequence; see :func:`gru_scan`.

    The decay-augmented recurrence of :class:`repro.baselines.GRUD`
    (Che et al. 2018) as one graph node: every input-side projection —
    the elementwise input decay ``γ_x = exp(-relu(δ ⊙ w))``, the imputed
    ``x̂ = (m + (1-m) γ_x) ⊙ v``, the hidden-decay GEMM
    ``γ_h = exp(-relu(δ W_h + b_h))`` and the gate projection
    ``[x̂ ; m] @ W_ih`` — is hoisted out of the time loop into batched
    ``(T*B, ·)`` computations, leaving only the per-step recurrent GEMM
    on the decayed state ``γ_h(t) ⊙ h_{t-1}`` plus the out=-buffered
    gate tail inside the loop.  One hand-derived backward walks the
    sequence once in reverse filling per-step gate/decay delta stacks,
    then collapses every weight gradient into a single GEMM.

    ``mask`` is the 0/1 observation indicator and is a **constant**
    (non-differentiated) input, exactly as in the reference model where
    it enters as data.  ``lengths`` freezes finished rows as in
    :func:`gru_scan`.  Returns the final hidden state ``(batch, hidden)``
    by default (the model's head consumes only ``h_T``), or the full
    ``(batch, steps, hidden)`` trajectory with ``return_sequences``.
    """
    values, deltas, h0 = as_tensor(values), as_tensor(deltas), as_tensor(h0)
    input_decay = as_tensor(input_decay)
    hidden_decay_w = as_tensor(hidden_decay_w)
    hidden_decay_b = as_tensor(hidden_decay_b)
    w_ih, w_hh = as_tensor(w_ih), as_tensor(w_hh)
    b_ih, b_hh = as_tensor(b_ih), as_tensor(b_hh)
    if values.data.ndim != 3:
        raise ValueError(f"grud_scan expects (batch, steps, features) "
                         f"values, got shape {values.shape}")
    batch, steps, channels = values.shape
    hidden = h0.shape[-1]
    h2 = 2 * hidden
    mask_data = np.asarray(getattr(mask, "data", mask))
    if mask_data.shape != (batch, steps, channels) \
            or deltas.shape != (batch, steps, channels):
        raise ValueError(
            f"grud_scan mask/deltas shapes {mask_data.shape}/{deltas.shape} "
            f"do not match values {values.shape}")
    if h0.shape != (batch, hidden) \
            or input_decay.shape != (channels,) \
            or hidden_decay_w.shape != (channels, hidden) \
            or w_ih.shape != (2 * channels, 3 * hidden) \
            or w_hh.shape != (hidden, 3 * hidden):
        raise ValueError(
            f"grud_scan shapes do not line up: values {values.shape}, "
            f"h0 {h0.shape}, input_decay {input_decay.shape}, "
            f"hidden_decay_w {hidden_decay_w.shape}, w_ih {w_ih.shape}, "
            f"w_hh {w_hh.shape}")
    lengths, t_run, min_len = _check_scan_lengths(lengths, batch, steps)
    dt = np.result_type(values.data, w_ih.data)

    # Hoisted input plane, all time-major: input decay, imputation, the
    # hidden-decay GEMM, and the gate projection of every timestep.
    v_tm = _time_major(values.data, t_run)
    d_tm = _time_major(deltas.data, t_run)
    m_tm = mask_data[:, :t_run].swapaxes(0, 1).astype(dt)
    gamma_x = d_tm * input_decay.data            # pre-activation ...
    np.maximum(gamma_x, 0.0, out=gamma_x)        # ... -> relu ...
    np.negative(gamma_x, out=gamma_x)
    np.exp(gamma_x, out=gamma_x)                 # ... -> decay (T, B, C)
    xm = np.empty((t_run, batch, 2 * channels), dtype=dt)
    x_hat = xm[..., :channels]
    np.subtract(1.0, m_tm, out=x_hat)            # (m + (1-m) γ_x) ⊙ v
    x_hat *= gamma_x
    x_hat += m_tm
    x_hat *= v_tm
    xm[..., channels:] = m_tm
    d_2d = d_tm.reshape(t_run * batch, channels)
    ph = _rowstable_matmul(d_2d, hidden_decay_w.data)
    ph += hidden_decay_b.data                    # pre-relu, kept for bwd
    gamma_h = np.maximum(ph, 0.0)
    np.negative(gamma_h, out=gamma_h)
    np.exp(gamma_h, out=gamma_h)
    gamma_h = gamma_h.reshape(t_run, batch, hidden)
    xm_2d = xm.reshape(t_run * batch, 2 * channels)
    gx = _project(xm_2d, w_ih.data, b_ih.data, (t_run, batch, 3 * hidden))

    needs_grad = is_grad_enabled() and any(
        p.requires_grad for p in (values, deltas, h0, input_decay,
                                  hidden_decay_w, hidden_decay_b,
                                  w_ih, w_hh, b_ih, b_hh))
    h_stack = np.empty((t_run + 1, batch, hidden), dtype=dt)
    h_stack[0] = h0.data
    if needs_grad:
        gact = np.empty((t_run, batch, 3 * hidden), dtype=dt)
        nhs = np.empty((t_run, batch, hidden), dtype=dt)
    else:
        scratch = np.empty((batch, 3 * hidden), dtype=dt)

    w_hh_d, b_hh_d = w_hh.data, b_hh.data
    gh = np.empty((batch, 3 * hidden), dtype=dt)
    tmp = np.empty((batch, hidden), dtype=dt)
    heff = np.empty((batch, hidden), dtype=dt)
    for t in range(t_run):
        h_prev = h_stack[t]
        h_new = h_stack[t + 1]
        np.multiply(gamma_h[t], h_prev, out=heff)
        np.matmul(heff, w_hh_d, out=gh)
        gh += b_hh_d
        if needs_grad:
            nhs[t] = gh[:, h2:]
        # z*γ_h h + (1-z)*n: the gate tail over the decayed state.
        _gru_gates_into(gx[t], gh, heff,
                        gact[t] if needs_grad else scratch, h_new, tmp)
        frozen = _frozen_rows(lengths, min_len, t)
        if frozen is not None:
            h_new[frozen] = h_prev[frozen]

    out_data = _scan_output(h_stack, steps, return_sequences)

    def backward(grad):
        dh = _final_state_grad(grad, t_run, return_sequences)
        dgx = np.empty((t_run, batch, 3 * hidden), dtype=dt)
        dgh = np.empty_like(dgx)
        dgamma_h = np.empty((t_run, batch, hidden), dtype=dt)
        om = np.empty((batch, hidden), dtype=dt)
        scr = np.empty_like(om)
        heff_t = np.empty_like(om)
        for t in range(t_run - 1, -1, -1):
            if return_sequences:
                dh += grad[:, t]
            z = gact[t, :, :hidden]
            h_prev = h_stack[t]
            np.multiply(gamma_h[t], h_prev, out=heff_t)
            dgx_t, dgh_t = dgx[t], dgh[t]
            _gru_gates_backward_into(dh, gact[t], nhs[t], heff_t,
                                     dgx_t, dgh_t, om)
            frozen = _frozen_rows(lengths, min_len, t)
            if frozen is not None:
                dgx_t[frozen] = 0.0
                dgh_t[frozen] = 0.0
            carry = dgh_t @ w_hh_d.T                 # d(γ_h ⊙ h_prev)
            np.multiply(dh, z, out=scr)
            carry += scr
            if frozen is not None:
                carry[frozen] = 0.0
            np.multiply(carry, h_prev, out=dgamma_h[t])
            carry *= gamma_h[t]
            if frozen is not None:
                carry[frozen] = dh[frozen]
            dh = carry
        dgx_2d = dgx.reshape(-1, 3 * hidden)
        dgh_2d = dgh.reshape(-1, 3 * hidden)
        x_side = (values.requires_grad or deltas.requires_grad
                  or input_decay.requires_grad)
        if x_side:
            dxhat = (dgx_2d @ w_ih.data.T)[:, :channels].reshape(
                t_run, batch, channels)
        grad_v = None
        if values.requires_grad:
            coef = np.subtract(1.0, m_tm)            # m + (1-m) γ_x
            coef *= gamma_x
            coef += m_tm
            coef *= dxhat                            # becomes dv (T,B,C)
            grad_v = coef
        grad_d = None
        if deltas.requires_grad or input_decay.requires_grad:
            dpx = np.subtract(1.0, m_tm)             # d γ_x
            dpx *= v_tm
            dpx *= dxhat
            dpx *= gamma_x                           # chain exp(-relu(·))
            np.negative(dpx, out=dpx)
            dpx *= (d_tm * input_decay.data) > 0
            if input_decay.requires_grad:
                input_decay._accumulate(
                    (d_tm * dpx).sum(axis=(0, 1)), owned=True)
            if deltas.requires_grad:
                grad_d = dpx * input_decay.data
        if deltas.requires_grad or hidden_decay_w.requires_grad \
                or hidden_decay_b.requires_grad:
            dph = dgamma_h.reshape(t_run * batch, hidden)
            dph *= gamma_h.reshape(t_run * batch, hidden)
            np.negative(dph, out=dph)
            dph *= ph > 0
            if hidden_decay_w.requires_grad:
                hidden_decay_w._accumulate(d_2d.T @ dph, owned=True)
            if hidden_decay_b.requires_grad:
                hidden_decay_b._accumulate(dph.sum(axis=0), owned=True)
            if deltas.requires_grad:
                dd_h = (dph @ hidden_decay_w.data.T).reshape(
                    t_run, batch, channels)
                if grad_d is None:
                    grad_d = dd_h
                else:
                    grad_d += dd_h
        if values.requires_grad:
            values._accumulate(_batch_major(grad_v, steps), owned=True)
        if deltas.requires_grad:
            deltas._accumulate(_batch_major(grad_d, steps), owned=True)
        if h0.requires_grad:
            h0._accumulate(dh, owned=True)
        if w_ih.requires_grad:
            w_ih._accumulate(xm_2d.T @ dgx_2d, owned=True)
        if w_hh.requires_grad:
            heff_2d = (gamma_h * h_stack[:t_run]).reshape(-1, hidden)
            w_hh._accumulate(heff_2d.T @ dgh_2d, owned=True)
        if b_ih.requires_grad:
            b_ih._accumulate(dgx_2d.sum(axis=0), owned=True)
        if b_hh.requires_grad:
            b_hh._accumulate(dgh_2d.sum(axis=0), owned=True)

    return Tensor._make(
        out_data,
        (values, deltas, h0, input_decay, hidden_decay_w, hidden_decay_b,
         w_ih, w_hh, b_ih, b_hh), backward)


def _stagenet_scan_sample(rng):
    batch, steps, channels, hidden = 2, 3, 3, 2

    def arrays():
        return (rng.normal(size=(batch, steps, channels)),
                rng.normal(size=(batch, hidden)),
                rng.normal(size=(batch, hidden)),
                rng.normal(size=(channels, 4 * hidden)) * 0.5,
                rng.normal(size=(hidden, 4 * hidden)) * 0.5,
                rng.normal(size=4 * hidden) * 0.1,
                rng.normal(size=(hidden + channels, 1)) * 0.5,
                rng.normal(size=1) * 0.1)

    ragged = np.array([2, 3])
    return [
        OpSample(lambda x, h, c, wi, wh, b, sw, sb: _sqsum(
            stagenet_scan(x, h, c, wi, wh, b, sw, sb)), *arrays()),
        OpSample(lambda x, h, c, wi, wh, b, sw, sb: _sqsum(
            stagenet_scan(x, h, c, wi, wh, b, sw, sb, lengths=ragged,
                          return_sequences=False)), *arrays()),
    ]


@differentiable(_stagenet_scan_sample)
def stagenet_scan(x, h0, c0, w_ih, w_hh, bias, stage_weight, stage_bias,
                  lengths=None, return_sequences=True):
    """Fused stage-aware LSTM over a whole sequence; see :func:`gru_scan`.

    Gate layout ``[input i | forget f | cell g | output o]`` with the
    single combined bias of :class:`~repro.nn.layers.LSTMCell`; frozen
    rows carry both ``h`` and ``c`` unchanged past their length.  The
    :class:`repro.baselines.StageNet` recurrence (Gao et al. 2020)
    as one graph node: an LSTM step followed by a scalar stage-
    progression gate ``s_t = σ(h_t W_sh + x_t W_sx + b_s)`` that
    re-calibrates the cell state, ``c_t = s_t ⊙ (f c_{t-1} + i g)``.
    ``stage_weight`` is the stacked ``(hidden + features, 1)`` kernel of
    the model's stage Dense layer (hidden rows first); its input-side
    slice joins the gate projection in the hoisted pre-loop GEMMs, so
    the loop touches only the recurrent GEMM, the ``(B, 1)`` stage
    product, and the out=-buffered elementwise tail.  Returns the hidden
    trajectory ``(batch, steps, hidden)`` (the conv/attention head reads
    all of it) or the final hidden state with ``return_sequences=False``.
    """
    x, h0, c0 = as_tensor(x), as_tensor(h0), as_tensor(c0)
    w_ih, w_hh, bias = as_tensor(w_ih), as_tensor(w_hh), as_tensor(bias)
    stage_weight = as_tensor(stage_weight)
    stage_bias = as_tensor(stage_bias)
    if x.data.ndim != 3:
        raise ValueError(f"stagenet_scan expects (batch, steps, features) "
                         f"input, got shape {x.shape}")
    batch, steps, num_in = x.shape
    hidden = h0.shape[-1]
    h2 = 2 * hidden
    if h0.shape != (batch, hidden) or c0.shape != (batch, hidden) \
            or w_ih.shape != (num_in, 4 * hidden) \
            or w_hh.shape != (hidden, 4 * hidden) \
            or stage_weight.shape != (hidden + num_in, 1):
        raise ValueError(
            f"stagenet_scan shapes do not line up: x {x.shape}, "
            f"h0 {h0.shape}, c0 {c0.shape}, w_ih {w_ih.shape}, "
            f"w_hh {w_hh.shape}, stage_weight {stage_weight.shape}")
    lengths, t_run, min_len = _check_scan_lengths(lengths, batch, steps)

    w_sh = stage_weight.data[:hidden]
    w_sx = stage_weight.data[hidden:]
    x_2d = _time_major(x.data, t_run).reshape(t_run * batch, num_in)
    gx = _project(x_2d, w_ih.data, bias.data, (t_run, batch, 4 * hidden))
    sx = _project(x_2d, w_sx, stage_bias.data, (t_run, batch, 1))
    dt = gx.dtype

    needs_grad = is_grad_enabled() and any(
        p.requires_grad for p in (x, h0, c0, w_ih, w_hh, bias,
                                  stage_weight, stage_bias))
    h_stack = np.empty((t_run + 1, batch, hidden), dtype=dt)
    c_stack = np.empty_like(h_stack)
    h_stack[0] = h0.data
    c_stack[0] = c0.data
    if needs_grad:
        gact = np.empty((t_run, batch, 4 * hidden), dtype=dt)
        tcs = np.empty((t_run, batch, hidden), dtype=dt)
        cmid = np.empty((t_run, batch, hidden), dtype=dt)
        s_stack = np.empty((t_run, batch, 1), dtype=dt)
    else:
        scratch = np.empty((batch, 4 * hidden), dtype=dt)
        scratch_tc = np.empty((batch, hidden), dtype=dt)
        scratch_cm = np.empty((batch, hidden), dtype=dt)
        scratch_s = np.empty((batch, 1), dtype=dt)

    w_hh_d = w_hh.data
    gh = np.empty((batch, 4 * hidden), dtype=dt)
    tmp = np.empty((batch, hidden), dtype=dt)
    pbuf = np.empty((batch, 1), dtype=dt)
    for t in range(t_run):
        h_prev, c_prev = h_stack[t], c_stack[t]
        h_new, c_new = h_stack[t + 1], c_stack[t + 1]
        np.matmul(h_prev, w_hh_d, out=gh)
        c_mid = cmid[t] if needs_grad else scratch_cm
        _lstm_gates_into(gx[t], gh, c_prev,
                         gact[t] if needs_grad else scratch, c_mid,
                         tcs[t] if needs_grad else scratch_tc, h_new, tmp)
        np.matmul(h_new, w_sh, out=pbuf)                   # stage gate
        pbuf += sx[t]
        s = _sigmoid_into(pbuf, out=s_stack[t] if needs_grad
                          else scratch_s)
        np.multiply(s, c_mid, out=c_new)                   # re-calibrate
        frozen = _frozen_rows(lengths, min_len, t)
        if frozen is not None:
            h_new[frozen] = h_prev[frozen]
            c_new[frozen] = c_prev[frozen]

    out_data = _scan_output(h_stack, steps, return_sequences)

    def backward(grad):
        dh = _final_state_grad(grad, t_run, return_sequences)
        dc = np.zeros((batch, hidden), dtype=dt)
        dg = np.empty((t_run, batch, 4 * hidden), dtype=dt)
        dp = np.empty((t_run, batch, 1), dtype=dt)
        om = np.empty((batch, hidden), dtype=dt)
        scr = np.empty_like(om)
        dcm = np.empty_like(om)
        for t in range(t_run - 1, -1, -1):
            if return_sequences:
                dh += grad[:, t]
            s = s_stack[t]
            dg_t, dp_t = dg[t], dp[t]
            # Stage gate: c_t = s ⊙ c_mid with s = σ(h_t W_sh + sx).
            np.multiply(dc, cmid[t], out=scr)
            ds = scr.sum(axis=-1, keepdims=True)
            np.subtract(1.0, s, out=dp_t)            # d p = ds·s·(1-s)
            dp_t *= s
            dp_t *= ds
            np.multiply(dc, s, out=dcm)              # d c_mid (stage leg)
            dh_tot = dp_t @ w_sh.T                   # h_t feeds the gate
            dh_tot += dh
            _lstm_gates_backward_into(dh_tot, dcm, gact[t], tcs[t],
                                      c_stack[t], dg_t, om, scr)
            frozen = _frozen_rows(lengths, min_len, t)
            if frozen is not None:
                dg_t[frozen] = 0.0
                dp_t[frozen] = 0.0
            carry = dg_t @ w_hh_d.T
            dc_next = np.multiply(dcm, gact[t, :, hidden:h2])
            if frozen is not None:
                carry[frozen] = dh[frozen]
                dc_next[frozen] = dc[frozen]
            dh = carry
            dc = dc_next
        dg_2d = dg.reshape(-1, 4 * hidden)
        dp_2d = dp.reshape(-1, 1)
        if x.requires_grad:
            dx_2d = dg_2d @ w_ih.data.T
            dx_2d += dp_2d @ w_sx.T
            x._accumulate(_batch_major(
                dx_2d.reshape(t_run, batch, num_in), steps), owned=True)
        if h0.requires_grad:
            h0._accumulate(dh, owned=True)
        if c0.requires_grad:
            c0._accumulate(dc, owned=True)
        if w_ih.requires_grad:
            w_ih._accumulate(x_2d.T @ dg_2d, owned=True)
        if w_hh.requires_grad:
            h_prev_2d = h_stack[:t_run].reshape(-1, hidden)
            w_hh._accumulate(h_prev_2d.T @ dg_2d, owned=True)
        if bias.requires_grad:
            bias._accumulate(dg_2d.sum(axis=0), owned=True)
        if stage_weight.requires_grad:
            h_out_2d = h_stack[1:].reshape(-1, hidden)
            stage_weight._accumulate(np.concatenate(
                [h_out_2d.T @ dp_2d, x_2d.T @ dp_2d], axis=0), owned=True)
        if stage_bias.requires_grad:
            stage_bias._accumulate(dp_2d.sum(axis=0), owned=True)

    return Tensor._make(
        out_data, (x, h0, c0, w_ih, w_hh, bias, stage_weight, stage_bias),
        backward)


# ----------------------------------------------------------------------
# ELDA-Net feature path (paper Eqs. 2-6)
#
# Two graph nodes carry the whole feature path over the (B, T, C, e)
# slab: affine_embedding (Eq. 2 with the missing-value routing) and
# feature_interaction (Eqs. 3-6).
# ----------------------------------------------------------------------

#: ``|x|`` below this is an exact standardized zero for the ``star``
#: routing of :func:`affine_embedding`.
_ZERO_TOL = 1e-9

#: Lead rows per tile of :func:`feature_interaction`.  A 64-row tile's
#: ``(64, C, C)`` grid and ``(64, C, e)`` slabs stay in a 2 MiB L2 at
#: C=37, e=24; see docs/PERFORMANCE.md for the measured sizes.
_INTERACTION_TILE = 64


def _affine_embedding_sample(rng):
    channels, size = 3, 2
    x = rng.normal(size=(2, 3, channels))
    ever = np.array([[True, False, True], [True, True, False]])
    # The star sample's zeros are constants: a finite difference on
    # them would step off the routed set.
    zeros = x.copy()
    zeros[0, 1, 0] = zeros[1, 2, 2] = zeros[1, 0, 1] = 0.0

    def table():
        return rng.normal(size=(channels, size))

    return [
        OpSample(lambda x, s, i: _sqsum(affine_embedding(x, s, i)),
                 x, table(), table()),
        OpSample(lambda x, s, m: _sqsum(affine_embedding(x, s, None, ever,
                                                         m)),
                 x, table(), table()),
        OpSample(lambda s, i, m: _sqsum(affine_embedding(
            zeros, s, i, ever, m, star=True)), table(), table(), table()),
    ]


@differentiable(_affine_embedding_sample)
def affine_embedding(x, slope, intercept=None, ever_observed=None,
                     missing=None, star=False):
    """ELDA-Net's value embedding with its missing-value routing, one node.

    ``x`` is ``(..., C)``; ``slope`` and ``intercept`` are ``(C, e)``
    (``None`` is a zero intercept).  Returns ``(..., C, e)``,

        e_i = x_i slope_i + intercept_i,

    which is paper Eq. 2 for the bi-directional tables and the FM
    embedding ``x_i V_i`` with a zero intercept
    (:mod:`repro.core.embedding`), with two routings written over it as
    masked copies:

    * ``star``: an exact standardized zero (``|x_i| < 1e-9``) embeds as
      all ones;
    * ``ever_observed`` ``(B, C)``, with ``x`` ``(B, T, C)``: a false
      entry embeds feature ``i`` of admission ``b`` as the ``missing``
      row ``V_i^m`` at every step, over ``star``.

    Both masks are computed here from ``x`` and ``ever_observed``.  The
    backward zeroes the routed entries of ``dx`` and of the ``x`` rows
    that feed the slope gradient.  The slope, intercept and
    missing-table gradients are one batched GEMM over ``C``: the masked
    ``x``, the keep mask and the never mask as rows against a
    feature-major view of the incoming gradient, so no ``(..., C, e)``
    temporary exists.
    """
    x, slope = as_tensor(x), as_tensor(slope)
    intercept = None if intercept is None else as_tensor(intercept)
    routed = ever_observed is not None
    if routed:
        ever_observed = np.asarray(ever_observed.data if isinstance(
            ever_observed, Tensor) else ever_observed)
    missing = as_tensor(missing) if routed else None
    tables = [t for t in (slope, intercept, missing) if t is not None]
    channels = x.shape[-1]
    if slope.ndim != 2 or slope.shape[0] != channels \
            or any(t.shape != slope.shape for t in tables) \
            or (routed and (x.ndim != 3 or ever_observed.shape
                            != (x.shape[0], channels))):
        raise ValueError(
            f"affine_embedding shapes do not line up: x {x.shape}, "
            f"tables {[t.shape for t in tables]}, ever_observed "
            f"{ever_observed.shape if routed else None}")
    size = slope.shape[1]
    out_data = np.multiply(x.data[..., None], slope.data, out=np.empty(
        x.shape + (size,), dtype=slope.data.dtype))
    if intercept is not None:
        out_data += intercept.data
    zero = never = None
    if star:
        zero = np.abs(x.data) < x.data.dtype.type(_ZERO_TOL)
        out_data[zero] = 1.0
    if routed:
        never = np.logical_not(ever_observed)
        rows, cols = np.nonzero(never)
        out_data[rows, :, cols] = missing.data[cols, None]
    parents = (x,) + tuple(tables)

    def backward(grad):
        dt = grad.dtype
        # Feature-major (C, N, e) view: each gradient is one GEMM over C.
        g_cm = grad.reshape(-1, channels, size).transpose(1, 0, 2)
        # The routing masks, feature-major (C, N) like g_cm.
        never_cm = None if never is None else np.broadcast_to(
            never[:, None, :], x.shape).reshape(-1, channels).T
        zero_cm = None if zero is None else zero.reshape(-1, channels).T
        hit = zero_cm if never_cm is None else never_cm if zero_cm is None \
            else zero_cm | never_cm
        keep = None if hit is None else ~hit
        if x.requires_grad:
            dx = np.matmul(g_cm, slope.data[:, :, None])[..., 0]
            if keep is not None:
                dx *= keep
            x._accumulate(np.ascontiguousarray(dx.T).reshape(x.shape),
                          owned=True)
        rows = []
        if slope.requires_grad:
            x_cm = x.data.reshape(-1, channels).T
            rows.append((slope, x_cm if keep is None
                         else np.where(keep, x_cm, 0.0)))
        if intercept is not None and intercept.requires_grad:
            rows.append((intercept, np.ones(g_cm.shape[:2], dtype=dt)
                         if keep is None else keep.astype(dt)))
        if missing is not None and missing.requires_grad:
            rows.append((missing, never_cm.astype(dt)))
        if rows:
            sums = np.matmul(np.stack([r for _, r in rows], axis=1), g_cm)
            for k, (table, _) in enumerate(rows):
                table._accumulate(np.ascontiguousarray(sums[:, k]),
                                  owned=True)

    return Tensor._make(out_data, parents, backward)


def _uniform_grid(channels, dtype):
    """The attention-off ablation's α: ``1 / (C - 1)`` off the diagonal."""
    grid = np.full((channels, channels), 1.0 / (channels - 1), dtype=dtype)
    np.fill_diagonal(grid, 0.0)
    return grid


def _interaction_grid(embedded, weight, keyed, grid):
    """Eqs. 4-5 into ``grid``, transposed: ``grid[..., j, i] = α_ij``.

    With the softmax over axis -2, its max and its sum (a GEMM against
    a ones row) run over whole contiguous rows rather than along a short
    inner axis.  ``keyed`` receives ``k_i = e_i ⊙ W_i``, so
    that ``α'_ij = k_i · e_j``; Eq. 4's bias ``b_i^α`` is constant over
    the softmax axis ``j`` and cancels in Eq. 5, so it is not a
    parameter.  The ``j ≠ i`` exclusion is a ``-inf`` written over the
    diagonal of the logits slab, and the softmax then runs in place on
    that one slab.
    """
    channels = grid.shape[-1]
    np.multiply(embedded, weight, out=keyed)
    np.matmul(embedded, keyed.swapaxes(-1, -2), out=grid)
    flat = grid.reshape(grid.shape[:-2] + (channels * channels,))
    flat[..., ::channels + 1] = -np.inf
    grid -= grid.max(axis=-2, keepdims=True)
    np.exp(grid, out=grid)
    grid /= np.matmul(np.ones((1, channels), dtype=grid.dtype), grid)
    return grid


def _interaction_enrich(embedded, grid, compress, summed, relu_e, relu_ctx,
                        partial, out):
    """Eqs. 3 and 6 given the attention ``grid``: writes ``out``.

    ``summed`` receives ``s_i = Σ_j α_ij e_j`` (so the context is
    ``c_i = e_i ⊙ s_i``), ``relu_e`` / ``relu_ctx`` the two rectified
    halves of ``[e_i; c_i]``, and ``partial`` the context half of the
    split compress ``relu(e) @ P[:e] + relu(c) @ P[e:]``.
    """
    size = embedded.shape[-1]
    np.matmul(grid.swapaxes(-1, -2), embedded, out=summed)
    np.multiply(embedded, summed, out=relu_ctx)
    np.maximum(relu_ctx, 0.0, out=relu_ctx)
    np.maximum(embedded, 0.0, out=relu_e)
    np.matmul(relu_e, compress[:size], out=out)
    np.matmul(relu_ctx, compress[size:], out=partial)
    out += partial
    return out


def _interaction_slabs(rows, channels, size, width, dtype, attend):
    """``(grid, summed, partial)`` for ``rows`` lead rows: the forward's
    slabs that the backward reads (``grid`` is ``None`` without
    attention)."""
    grid = np.empty((rows, channels, channels), dtype=dtype) \
        if attend else None
    return (grid, np.empty((rows, channels, size), dtype=dtype),
            np.empty((rows, channels, width), dtype=dtype))


def _interaction_forward(embedded, weight, compress, slabs, out):
    """Eqs. 3-6 over ``(N, C, e)`` rows into ``out`` ``(N, C, d)``, one
    :data:`_INTERACTION_TILE`-row tile at a time.

    ``slabs`` (from :func:`_interaction_slabs`) either span all ``N``
    rows, and are filled tile by tile and kept for the backward, or
    span one tile, and are reused by every tile.  The two rectified
    halves of ``[e; c]`` always live in one tile's scratch.  ``weight``
    ``None`` pools with the uniform grid.  Every step is
    row-independent, so the tiling changes no bit of the output.
    """
    rows, channels, size = embedded.shape
    kept = len(slabs[1]) == rows
    relu_e, relu_ctx = (
        np.empty((min(rows, _INTERACTION_TILE), channels, size),
                 dtype=embedded.dtype) for _ in range(2))
    uniform = None if weight is not None \
        else _uniform_grid(channels, embedded.dtype)
    for start in range(0, rows, _INTERACTION_TILE):
        stop = min(start + _INTERACTION_TILE, rows)
        n = stop - start
        grid, summed, partial = (
            None if s is None else s[start:stop] if kept else s[:n]
            for s in slabs)
        e = embedded[start:stop]
        if weight is None:
            grid = uniform
        else:
            # relu_e doubles as the keyed slab, which only the logits read.
            _interaction_grid(e, weight, relu_e[:n], grid)
        _interaction_enrich(e, grid, compress, summed, relu_e[:n],
                            relu_ctx[:n], partial, out[start:stop])
    return out


def _feature_interaction_sample(rng):
    channels, size, width = 4, 3, 2

    def arrays(batch, steps):
        return (rng.normal(size=(batch, steps, channels, size)),
                rng.normal(size=(channels, size)) * 0.5,
                rng.normal(size=(2 * size, width)))

    def build(e, w, p):
        return _sqsum(feature_interaction(e, w, p))

    def build_uniform(e, p):
        return _sqsum(feature_interaction(e, None, p))

    embedded, _, compress = arrays(2, 2)
    return [OpSample(build, *arrays(2, 3)),
            OpSample(build, *arrays(1, 1)),
            OpSample(build_uniform, embedded, compress)]


@differentiable(_feature_interaction_sample)
def feature_interaction(embedded, attn_weight, compress):
    """ELDA-Net's feature-level interaction learning (Eqs. 3-6), one node.

    ``embedded`` is ``(..., C, e)``; ``attn_weight`` ``(C, e)`` holds the
    per-feature attention scorers, and ``compress`` ``(2e, d)`` is
    Eq. 6's ``P``.  Returns the x̃ rows ``(..., C * d)``.  Passing
    ``None`` for the attention weight pools the interactions with
    uniform weights instead (the attention ablation).

    Both directions walk the flattened lead axis in tiles of
    :data:`_INTERACTION_TILE` rows, so each tile's grid and slabs stay
    in cache.  A forward that records a graph fills the slabs the
    backward reads tile by tile and keeps them: the transposed α
    ``grid``, ``summed`` and the context half ``partial`` of the
    compress.  The keyed slab and the two rectified halves of
    ``[e; c]`` live in one tile's scratch.  A forward without a graph
    (``no_grad``, or no input that needs a gradient) keeps nothing but
    its output.  The backward runs each tile in one reused set of tile
    scratch: it rebuilds the tile's rectified halves from ``e`` and the
    kept ``summed``, and runs the softmax backward in place on a
    ``(tile, C, C)`` attention gradient.  Beyond that scratch it
    allocates only the input gradient and the small parameter
    gradients; the ``compress`` and ``attn_weight`` gradients are sums
    over tiles.  Its row term ``Σ_j α_ij dα_ij`` equals
    ``dout_i · (relu(c_i) @ P[e:])``, a dot over ``d`` against the kept
    ``partial`` instead of over ``C``.
    """
    embedded, compress = as_tensor(embedded), as_tensor(compress)
    attend = attn_weight is not None
    if attend:
        attn_weight = as_tensor(attn_weight)
    e3 = embedded.data
    *lead, channels, size = e3.shape
    lead = tuple(lead)
    width = compress.shape[-1]
    if channels < 2 or compress.shape != (2 * size, width) or (
            attend and attn_weight.shape != (channels, size)):
        raise ValueError(
            f"feature_interaction shapes do not line up: embedded "
            f"{embedded.shape} (needs at least two features), attention "
            f"{attn_weight.shape if attend else None}, compress "
            f"{compress.shape}")
    dt = e3.dtype
    e3 = e3.reshape(-1, channels, size)
    rows = len(e3)
    params = (embedded, attn_weight, compress) if attend \
        else (embedded, compress)
    graph = is_grad_enabled() and any(t.requires_grad for t in params)
    slabs = _interaction_slabs(
        rows if graph else min(rows, _INTERACTION_TILE), channels, size,
        width, dt, attend)
    out3 = _interaction_forward(e3, attn_weight.data if attend else None,
                                compress.data, slabs,
                                np.empty((rows, channels, width), dtype=dt))
    out_data = out3.reshape(lead + (channels * width,))
    if not graph:
        return Tensor._make(out_data, params, None)
    grid, summed, partial = slabs
    if not attend:
        grid = _uniform_grid(channels, dt)

    def backward(grad):
        p = compress.data
        g3 = grad.reshape(rows, channels, width)
        chain = any(t.requires_grad for t in params[:-1])
        tile = min(rows, _INTERACTION_TILE)
        mask = np.empty((tile, channels, size), dtype=bool)
        relu_e, relu_ctx, d_ctx, d_s = (
            np.empty((tile, channels, size), dtype=dt) for _ in range(4))
        if compress.requires_grad:
            dp = np.zeros_like(p)
        if chain:
            d_e = np.empty_like(e3)
        if chain and attend:
            w = attn_weight.data
            d_grid = np.empty((tile, channels, channels), dtype=dt)
            prod = np.empty((tile, channels, width), dtype=dt)
            ones = np.ones(max(width, tile), dtype=dt)
            d_w = np.zeros(channels * size, dtype=dt)
        for start in range(0, rows, _INTERACTION_TILE):
            stop = min(start + _INTERACTION_TILE, rows)
            n, t = stop - start, slice(start, stop)
            e, g = e3[t], g3[t]
            mk, re, rc, dc, ds = (a[:n] for a in (mask, relu_e, relu_ctx,
                                                  d_ctx, d_s))
            # The two rectified halves of [e; c], rebuilt from the kept
            # summed slab: c_i = e_i ⊙ s_i.
            np.maximum(e, 0.0, out=re)
            np.multiply(e, summed[t], out=rc)
            np.maximum(rc, 0.0, out=rc)
            if compress.requires_grad:
                g2 = g.reshape(-1, width)
                dp[:size] += np.matmul(re.reshape(-1, size).T, g2)
                dp[size:] += np.matmul(rc.reshape(-1, size).T, g2)
            if not chain:
                continue
            # Eq. 6 through the split compress and its two rectifiers.
            de = d_e[t]
            np.matmul(g, p[:size].T, out=de)
            de *= np.greater(e, 0.0, out=mk)
            np.matmul(g, p[size:].T, out=dc)
            dc *= np.greater(rc, 0.0, out=mk)
            # c_i = e_i ⊙ s_i, then s_i = Σ_j α_ij e_j = (grid^T @ E)_i;
            # dc is scratch from here on.
            np.multiply(dc, e, out=ds)
            dc *= summed[t]
            de += dc
            np.matmul(grid if not attend else grid[t], ds, out=dc)
            de += dc
            if not attend:
                continue
            # d_grid[j, i] = dα_ij = e_j · ds_i, then the softmax backward
            # in place: dα'_ij = α_ij (dα_ij - Σ_k α_ik dα_ik).
            # Sums run as GEMVs against ones, not as short-axis reductions.
            dg = d_grid[:n]
            np.matmul(e, ds.swapaxes(-1, -2), out=dg)
            row = np.matmul(np.multiply(g, partial[t], out=prod[:n])
                            .reshape(-1, width), ones[:width])
            dg -= row.reshape(n, 1, channels)
            dg *= grid[t]
            # α'_ij = k_i · e_j with k_i = e_i ⊙ W_i, recomputed into ds.
            np.matmul(dg, np.multiply(e, w, out=ds), out=dc)
            de += dc
            np.matmul(dg.swapaxes(-1, -2), e, out=dc)            # dk_i
            if attn_weight.requires_grad:
                d_w += np.matmul(ones[:n], np.multiply(dc, e, out=ds)
                                 .reshape(n, channels * size))
            dc *= w
            de += dc
        if compress.requires_grad:
            compress._accumulate(dp, owned=True)
        if chain and attend and attn_weight.requires_grad:
            attn_weight._accumulate(d_w.reshape(w.shape), owned=True)
        if embedded.requires_grad:
            embedded._accumulate(d_e.reshape(embedded.shape), owned=True)

    return Tensor._make(out_data, params, backward)


def feature_attention(embedded, attn_weight=None):
    """Inference-only α grid of :func:`feature_interaction`.

    Takes the op's arguments (tensors or arrays) and returns a plain
    ``(..., C, C)`` array, no graph: entry ``[.., i, j]`` is the
    attention of feature ``i`` on its interaction with feature ``j``
    (the Figures 9-10 signal), computed by the op's own forward helper.
    A ``None`` attention weight gives the uniform ablation grid.
    """
    e = as_tensor(embedded).data
    *lead, channels, _ = e.shape
    shape = tuple(lead) + (channels, channels)
    if attn_weight is None:
        return np.broadcast_to(_uniform_grid(channels, e.dtype),
                               shape).copy()
    grid = _interaction_grid(e, as_tensor(attn_weight).data,
                             np.empty(e.shape, dtype=e.dtype),
                             np.empty(shape, dtype=e.dtype))
    return np.ascontiguousarray(grid.swapaxes(-1, -2))


def gru_scan_step(x_t, h, w_ih, w_hh, b_ih, b_hh):
    """One inference-only GRU step, bit-identical to a :func:`gru_scan` step.

    Operates on plain arrays (no tensors, no graph, no backward): ``x_t``
    is ``(batch, features)``, ``h`` is ``(batch, hidden)``; returns the
    new hidden state.  The body replays exactly the scan loop's ufunc
    tail and runs the input projection through :func:`_rowstable_matmul`
    — the same row-stable GEMM class as the scan's flattened projection
    — so feeding a sequence one step at a time reproduces ``gru_scan``
    bit-for-bit at every prefix.  That equality is the streaming
    inference contract (:class:`repro.serve.StreamingSession`); it holds
    per batch width, i.e. a streaming session of ``n`` admissions
    matches a full forward over those same ``n`` rows.
    """
    gh = np.matmul(h, w_hh)
    gh += b_hh
    gt = _rowstable_matmul(x_t, w_ih)
    gt += b_ih
    return _gru_gates_into(gt, gh, h, np.empty_like(gt), np.empty_like(h),
                           np.empty_like(h))


def per_feature_gru_scan_step(x_t, h, w_ih, w_hh, bias):
    """One inference-only step of :func:`per_feature_gru_scan`.

    Plain arrays: ``x_t`` is ``(batch, C)``, ``h`` the stacked
    gate-major state ``(C, H, batch)`` (zeros before the first step);
    returns the new state.  It runs the scan's own step
    (:func:`_per_feature_step_into`) on the same operand views, so
    feeding a sequence one step at a time reproduces the scan's state
    bit for bit at every prefix (the streaming contract, per batch
    width; see :func:`gru_scan_step`).
    """
    gt = np.empty((w_hh.shape[0], w_hh.shape[2], h.shape[-1]),
                  dtype=np.result_type(x_t, w_ih))
    return _per_feature_step_into(
        x_t.T, h, w_ih.transpose(0, 2, 1), w_hh.transpose(0, 2, 1),
        bias[..., None], gt, np.empty_like(gt), np.empty_like(h),
        np.empty_like(h))


def grud_scan_step(values_t, mask_t, deltas_t, h, input_decay,
                   hidden_decay_w, hidden_decay_b, w_ih, w_hh, b_ih, b_hh):
    """One inference-only GRU-D step, bit-identical to a :func:`grud_scan`
    step; see :func:`gru_scan_step`.  All inputs are plain arrays;
    ``mask_t`` must already be in the compute dtype.  Returns the new
    hidden state.
    """
    channels = values_t.shape[-1]
    gamma_x = deltas_t * input_decay
    np.maximum(gamma_x, 0.0, out=gamma_x)
    np.negative(gamma_x, out=gamma_x)
    np.exp(gamma_x, out=gamma_x)
    xm = np.empty((values_t.shape[0], 2 * channels), dtype=gamma_x.dtype)
    x_hat = xm[:, :channels]
    np.subtract(1.0, mask_t, out=x_hat)          # (m + (1-m) γ_x) ⊙ v
    x_hat *= gamma_x
    x_hat += mask_t
    x_hat *= values_t
    xm[:, channels:] = mask_t
    ph = _rowstable_matmul(deltas_t, hidden_decay_w)
    ph += hidden_decay_b
    np.maximum(ph, 0.0, out=ph)
    np.negative(ph, out=ph)
    gamma_h = np.exp(ph, out=ph)
    heff = np.multiply(gamma_h, h)
    gh = np.matmul(heff, w_hh)
    gh += b_hh
    gt = _rowstable_matmul(xm, w_ih)
    gt += b_ih
    return _gru_gates_into(gt, gh, heff, np.empty_like(gt),
                           np.empty_like(heff), np.empty_like(heff))


def stagenet_scan_step(x_t, h, c, w_ih, w_hh, bias, stage_weight,
                       stage_bias):
    """One inference-only StageNet step, bit-identical to a
    :func:`stagenet_scan` step; see :func:`gru_scan_step`.  Returns
    ``(h_new, c_new)`` where ``c_new`` is the stage-recalibrated cell.
    """
    hidden = h.shape[-1]
    w_sh = stage_weight[:hidden]
    w_sx = stage_weight[hidden:]
    gh = np.matmul(h, w_hh)
    gt = _rowstable_matmul(x_t, w_ih)
    gt += bias
    c_mid = np.empty_like(c)
    h_new = _lstm_gates_into(gt, gh, c, gt, c_mid, np.empty_like(c),
                             np.empty_like(h), np.empty_like(c))
    p = np.matmul(h_new, w_sh)                         # stage gate
    sxt = _rowstable_matmul(x_t, w_sx)
    sxt += stage_bias
    p += sxt
    s = _sigmoid_into(p, out=p)
    c_new = np.multiply(s, c_mid)
    return h_new, c_new


def linear_rows(x_t, weight, bias=None):
    """Inference-only affine projection of one timestep slice.

    ``x_t`` is a plain ``(batch, features)`` array; returns
    ``x_t @ weight (+ bias)`` through :func:`_rowstable_matmul`, the
    same row-stable GEMM class as a batched ``(B, T, F) @ (F, M)``
    projection over a multi-step sequence.  Row ``b`` of the result is
    therefore bit-identical to row ``(b, t)`` of the full-sequence
    projection whenever ``T >= 2`` — which is what lets the incremental
    streaming paths (RETAIN's visit embedding, SAnD's input embedding)
    cache per-step projections instead of re-embedding the whole prefix
    every step.  The lone exception is the ``T == 1`` prefix, whose
    full-sequence projection runs in the GEMV regime; streaming models
    serve that prefix via the exact full forward instead.
    """
    out = _rowstable_matmul(x_t, weight)
    if bias is not None:
        out += bias
    return out
