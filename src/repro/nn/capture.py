"""Inference graph capture and replay.

:func:`trace` runs one ``no_grad`` forward of a model over a sample
batch while a tracer hook (:mod:`repro.nn._capture_hooks`) observes
every top-level registered op.  The trace is compiled into a
:class:`CapturedGraph`: a static list of replay thunks over a fixed set
of preallocated buffers, keyed by the batch shape it was captured at.

Replay re-executes the same numeric recipe with no autodiff graph and
no per-op Tensor boxing:

* the four batch arrays are copied into pinned *input buffers* that the
  traced forward consumed directly (``Tensor(...)`` passes a
  policy-dtype array through without copying, so the tensors the model
  built during the trace wrap these very buffers);
* each traced op's output array is retained as that step's *output
  buffer*; replay thunks write into it with ``out=``-style numpy calls
  that mirror the op's eager forward ufunc-for-ufunc, so replayed
  outputs are **bit-identical** to an eager forward on the same batch;
* ops that returned views (``reshape``, ``transpose``, ``getitem``
  and ``split`` slices …) need no thunk at all — the view objects
  captured at trace time stay live over the mutated base buffers;
* the fused ELDA-Net ops (``affine_embedding``, ``feature_interaction``)
  replay through the very out=-buffered helpers their eager forwards
  call; ``affine_embedding`` recomputes its routing masks from the live
  batch buffers, and ``feature_interaction`` runs in one tile's pinned
  scratch, keeping no full-size slab;
* composite or fused ops with no hand kernel (``var``, ``gru_scan``,
  ``grud_scan`` …) fall back to re-running their eager forward on the
  retained argument tensors — whose ``.data`` *are* the live buffers —
  and copying the result into the step's output buffer.  Exact by
  construction, at the cost of that one op's eager allocations.

Capture is validated by tracing **twice** (the second time on a
jittered copy of the sample batch) and comparing the op sequence, the
argument classification, and every baked constant, then checking
replay-vs-eager bit-identity end to end on the jitter batch.  A model
whose forward bakes input-derived values outside the op layer (e.g.
mask-derived sequence lengths) fails validation with
:class:`CaptureUnsupportedError` rather than silently replaying stale
data; callers such as :class:`repro.serve.Predictor` treat that as
"serve this model eagerly".

Invalidation rules (checked on every replay):

* batch shape must match the captured shape — :class:`CaptureShapeError`;
* the precision policy (:func:`repro.nn.dtype.get_default_dtype`) must
  still match the capture-time dtype;
* parameter *storage* must be unchanged: in-place updates
  (``load_state_dict``, optimizer steps) flow into a captured graph for
  free, but anything that replaces ``param.data`` with a new array
  (e.g. ``Module.to``) invalidates the capture — :class:`CaptureError`.
"""

from __future__ import annotations

from .backend import xp as np

from . import _capture_hooks, ops
from .dtype import get_default_dtype
from .tensor import Tensor, no_grad

__all__ = [
    "CaptureBatch",
    "CaptureError",
    "CaptureShapeError",
    "CaptureUnsupportedError",
    "CapturedGraph",
    "trace",
]


class CaptureError(RuntimeError):
    """A captured graph cannot be built or is no longer valid."""


class CaptureShapeError(CaptureError):
    """Replay batch shape differs from the captured batch shape."""


class CaptureUnsupportedError(CaptureError):
    """The model's forward is not capture-safe (trace validation failed)."""


_INPUT_FIELDS = ("values", "mask", "deltas", "ever_observed")


class CaptureBatch:
    """The four model-facing batch arrays, pinned in the policy dtype.

    Quacks like :class:`repro.data.EMRDataset` for ``forward_batch``
    purposes (``values`` / ``mask`` / ``deltas`` / ``ever_observed``).
    Arrays are always fresh copies so a graph never aliases caller data.
    """

    __slots__ = _INPUT_FIELDS

    def __init__(self, values, mask, deltas, ever_observed):
        self.values = values
        self.mask = mask
        self.deltas = deltas
        self.ever_observed = ever_observed

    @classmethod
    def from_batch(cls, batch, dtype):
        return cls(*(np.asarray(getattr(batch, f)).astype(dtype, copy=True)
                     for f in _INPUT_FIELDS))

    def __len__(self):
        return self.values.shape[0]


# ----------------------------------------------------------------------
# Argument classification
# ----------------------------------------------------------------------

def _classify(obj, serial_of, param_index):
    """Map one op argument to a (kind, payload) signature node.

    ``slot`` — a tensor over a recorded buffer (dynamic data);
    ``param`` — a tensor over a registered parameter array;
    ``const`` — any other array-valued argument, baked by reference;
    ``lit`` — plain python values (axes, shapes, slices, floats).
    Sequences recurse so list-taking ops (``concat``) classify per
    element.
    """
    if isinstance(obj, Tensor):
        arr = obj.data
        serial = serial_of.get(id(arr))
        if serial is not None:
            return ("slot", serial)
        idx = param_index.get(id(arr))
        if idx is not None:
            return ("param", idx)
        return ("const", arr)
    if isinstance(obj, np.ndarray):
        # Raw arrays can alias a recorded buffer too: the scan composites
        # take constant (non-differentiated) planes like grud_scan's
        # observation mask directly as arrays, and those must bind as
        # dynamic slots — not baked constants — for the replay fallback
        # to see refreshed batch data.
        serial = serial_of.get(id(obj))
        if serial is not None:
            return ("slot", serial)
        return ("const", obj)
    if isinstance(obj, (list, tuple)):
        return ("seq", tuple(_classify(o, serial_of, param_index)
                             for o in obj))
    return ("lit", obj)


def _sig_equal(a, b):
    """Structural equality of two signature nodes (arrays by value)."""
    kind_a, pay_a = a
    kind_b, pay_b = b
    if kind_a != kind_b:
        return False
    if kind_a == "seq":
        return len(pay_a) == len(pay_b) and all(
            _sig_equal(x, y) for x, y in zip(pay_a, pay_b))
    if kind_a == "const":
        return (pay_a.shape == pay_b.shape
                and pay_a.dtype == pay_b.dtype
                and bool(np.array_equal(pay_a, pay_b)))
    if kind_a == "lit":
        return _lit_equal(pay_a, pay_b)
    return pay_a == pay_b


def _lit_equal(a, b):
    """Equality for literals, descending into tuples that may hold arrays
    (advanced ``getitem`` indices mix slices and index arrays)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.shape == b.shape and bool(np.array_equal(a, b)))
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(
            _lit_equal(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


def _is_view_of(arr, known_ids):
    """Whether ``arr``'s base chain reaches a registered buffer."""
    base = arr.base
    while base is not None:
        if id(base) in known_ids:
            return True
        base = getattr(base, "base", None)
    return False


def _param(args, kwargs, pos, name, default):
    """Fetch an op parameter given positionally or by keyword."""
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _data(x):
    """Raw array (or passthrough literal) for kernel closures."""
    return x.data if isinstance(x, Tensor) else x


def _operand(x, dtype):
    """An argument as the array operand the eager op would compute with.

    Mirrors ``as_tensor``'s coercion: literals and off-policy arrays
    become policy-dtype arrays *before* the ufunc runs.  Passing e.g. a
    raw ``np.float64`` scalar straight to a ufunc instead would promote
    the whole loop to float64 under NEP 50 and break bit-identity on
    the float32 plane.
    """
    if isinstance(x, Tensor):
        return x.data
    if isinstance(x, np.ndarray):
        return x.astype(dtype) if x.dtype != dtype else x
    return np.asarray(x, dtype=dtype)


# ----------------------------------------------------------------------
# Replay kernels
#
# Each builder receives the op's live argument objects, its kwargs, and
# the output buffer, and returns a zero-argument thunk that recomputes
# the output *bit-identically* to the op's eager forward — same ufuncs,
# same order, writing into preallocated buffers.  Returning ``None``
# defers to the generic eager-fallback thunk.
# ----------------------------------------------------------------------

def _binary_kernel(ufunc):
    def build(args, kwargs, out):
        a, b = (_operand(args[0], out.dtype), _operand(args[1], out.dtype))

        def thunk():
            ufunc(a, b, out=out)
        return thunk
    return build


def _unary_kernel(ufunc):
    def build(args, kwargs, out):
        a = _operand(args[0], out.dtype)

        def thunk():
            ufunc(a, out=out)
        return thunk
    return build


def _build_relu(args, kwargs, out):
    a = _operand(args[0], out.dtype)
    mask = np.empty(a.shape, dtype=bool)

    def thunk():
        np.greater(a, 0, out=mask)
        np.multiply(a, mask, out=out)
    return thunk


def _reduction_kernel(reducer):
    def build(args, kwargs, out):
        a = _operand(args[0], out.dtype)
        axis = _param(args, kwargs, 1, "axis", None)
        keepdims = _param(args, kwargs, 2, "keepdims", False)

        def thunk():
            reducer(a, axis=axis, out=out, keepdims=keepdims)
        return thunk
    return build


def _build_matmul(args, kwargs, out):
    if out.ndim == 0:
        return None  # np.matmul rejects 0-d out; vec·vec falls back
    a, b = _operand(args[0], out.dtype), _operand(args[1], out.dtype)

    def thunk():
        np.matmul(a, b, out=out)
    return thunk


def _build_softmax(args, kwargs, out):
    a = _operand(args[0], out.dtype)
    axis = _param(args, kwargs, 1, "axis", -1)
    peak = np.empty_like(a.max(axis=axis, keepdims=True))
    total = np.empty_like(peak)

    def thunk():
        np.amax(a, axis=axis, keepdims=True, out=peak)
        np.subtract(a, peak, out=out)
        np.exp(out, out=out)
        np.sum(out, axis=axis, keepdims=True, out=total)
        np.divide(out, total, out=out)
    return thunk


def _build_concat(args, kwargs, out):
    arrays = [_operand(t, out.dtype) for t in args[0]]
    axis = _param(args, kwargs, 1, "axis", -1)

    def thunk():
        np.concatenate(arrays, axis=axis, out=out)
    return thunk


def _build_pad_last(args, kwargs, out):
    a = _operand(args[0], out.dtype)
    before = int(_param(args, kwargs, 1, "before", None))
    # Pad lanes hold the (constant) pad value from the trace and are
    # never rewritten; replay refreshes only the interior.
    interior = out[..., before:before + a.shape[-1]]

    def thunk():
        np.copyto(interior, a)
    return thunk


def _build_reshape(args, kwargs, out):
    a = _operand(args[0], out.dtype)
    shape = _param(args, kwargs, 1, "shape", None)

    def thunk():
        np.copyto(out, a.reshape(shape))
    return thunk


def _build_getitem(args, kwargs, out):
    a = _operand(args[0], out.dtype)
    index = _param(args, kwargs, 1, "index", None)

    def thunk():
        np.copyto(out, a[index])
    return thunk


def _build_affine_embedding(args, kwargs, out):
    x = _operand(args[0], out.dtype)
    slope = _operand(_param(args, kwargs, 1, "slope", None), out.dtype)
    intercept = _param(args, kwargs, 2, "intercept", None)
    if intercept is not None:
        intercept = _operand(intercept, out.dtype)
    ever = _data(_param(args, kwargs, 3, "ever_observed", None))
    missing = _param(args, kwargs, 4, "missing", None)
    if ever is not None:
        ever = np.asarray(ever)
        missing = _operand(missing, out.dtype)
    star = _param(args, kwargs, 5, "star", False)

    def thunk():
        # Both routing masks come from the live batch buffers.
        zero, never = ops._embedding_masks(x, ever, star)
        ops._affine_embedding_into(x, slope, intercept, zero, never,
                                   missing, out)
    return thunk


def _build_feature_interaction(args, kwargs, out):
    embedded = _operand(args[0], out.dtype)
    weight = _param(args, kwargs, 1, "attn_weight", None)
    if weight is not None:
        weight = _operand(weight, out.dtype)
    compress = _operand(_param(args, kwargs, 2, "compress", None), out.dtype)
    channels, size = embedded.shape[-2:]
    width = compress.shape[-1]
    rows = embedded.size // (channels * size)
    flat = embedded.reshape(rows, channels, size)
    if not np.shares_memory(flat, embedded):
        return None           # a copied reshape would replay stale data
    out3 = out.reshape(rows, channels, width)          # a view: out is fresh
    slabs = ops._interaction_slabs(min(rows, ops._INTERACTION_TILE),
                                   channels, size, width, out.dtype,
                                   weight is not None)

    def thunk():
        ops._interaction_forward(flat, weight, compress, slabs, out3)
    return thunk


_KERNEL_BUILDERS = {
    "add": _binary_kernel(np.add),
    "sub": _binary_kernel(np.subtract),
    "mul": _binary_kernel(np.multiply),
    "div": _binary_kernel(np.divide),
    "sqrt": _unary_kernel(np.sqrt),
    "tanh": _unary_kernel(np.tanh),
    "relu": _build_relu,
    "sum": _reduction_kernel(np.sum),
    "mean": _reduction_kernel(np.mean),
    "matmul": _build_matmul,
    "softmax": _build_softmax,
    "concat": _build_concat,
    "pad_last": _build_pad_last,
    "affine_embedding": _build_affine_embedding,
    "feature_interaction": _build_feature_interaction,
    "reshape": _build_reshape,
    "getitem": _build_getitem,
}


def _make_fallback(name, args, kwargs, writes):
    """Generic thunk: re-run the op's eager forward on the retained
    argument tensors (whose ``.data`` are live buffers) and copy each
    result into its pinned output buffer.  Bit-exact by construction."""
    fn = getattr(ops, name)

    def thunk():
        result = fn(*args, **kwargs)
        outs = result if isinstance(result, (list, tuple)) else (result,)
        for position, buffer in writes:
            np.copyto(buffer, outs[position].data)
    return thunk


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------

class _Tracer:
    """Records top-level op calls into buffers, signatures, and thunks."""

    def __init__(self, batch, param_index):
        self.batch = batch
        self.param_index = param_index
        self.serial_of = {}
        for field in _INPUT_FIELDS:
            self.serial_of[id(getattr(batch, field))] = f"in:{field}"
        self.known = set(self.serial_of)
        self.known.update(param_index)
        self.thunks = []
        self.specs = []
        self._retained = []
        self._next_serial = 0

    def record(self, name, args, kwargs, result):
        outs = list(result) if isinstance(result, (list, tuple)) else [result]
        signature = (
            name,
            tuple(_classify(a, self.serial_of, self.param_index)
                  for a in args),
            tuple(sorted(
                (k, _classify(v, self.serial_of, self.param_index))
                for k, v in kwargs.items())),
            tuple(t.data.shape for t in outs),
        )
        self.specs.append(signature)
        self._retained.append(outs)

        writes = []
        for position, tensor in enumerate(outs):
            arr = tensor.data
            if id(arr) in self.known:
                continue  # op returned an existing buffer unchanged
            self.serial_of[id(arr)] = self._next_serial
            self._next_serial += 1
            self.known.add(id(arr))
            if not _is_view_of(arr, self.known):
                writes.append((position, arr))
        if not writes:
            return  # pure view/aliasing step: base-buffer writes suffice

        builder = _KERNEL_BUILDERS.get(name)
        thunk = None
        if builder is not None and len(writes) == 1 and writes[0][0] == 0:
            thunk = builder(args, kwargs, writes[0][1])
        if thunk is None:
            thunk = _make_fallback(name, args, kwargs, writes)
        self.thunks.append(thunk)


def _trace_once(model, arrays, dtype):
    """One traced ``predict_logits`` forward → a CapturedGraph."""
    params = [(tensor, tensor.data)
              for _, tensor in model.named_parameters()]
    param_index = {id(arr): idx for idx, (_, arr) in enumerate(params)}
    batch = CaptureBatch(*arrays)
    tracer = _Tracer(batch, param_index)
    _capture_hooks.push(tracer)
    try:
        output = model.predict_logits(batch)
    finally:
        _capture_hooks.pop(tracer)
    if id(output) not in tracer.known \
            and not _is_view_of(output, tracer.known):
        raise CaptureUnsupportedError(
            f"{type(model).__name__} produced an output array that no "
            "recorded op wrote; its forward computes outside the op layer")
    return CapturedGraph(
        model_name=type(model).__name__,
        batch=batch,
        thunks=tracer.thunks,
        specs=tracer.specs,
        params=params,
        output=output,
        dtype=dtype,
        retained=tracer._retained,
    )


def _jitter_arrays(arrays, dtype):
    """A perturbed copy of the sample batch for trace validation.

    Every input plane changes — continuous values and deltas shift,
    one mask bit flips (rows also rotate), one ever-observed bit flips —
    so anything a forward bakes from batch *data* diverges between the
    two traces and trips the signature or bit-identity comparison.
    """
    one = dtype(1.0)
    values, mask, deltas, ever = (a.copy() for a in arrays)
    values *= dtype(1.0625)
    values += dtype(0.03125)
    mask = np.roll(mask, 1, axis=0)
    mask[(0,) * mask.ndim] = one - mask[(0,) * mask.ndim]
    deltas += dtype(0.5)
    ever[(0,) * ever.ndim] = one - ever[(0,) * ever.ndim]
    return values, mask, deltas, ever


def trace(model, batch, validate=True):
    """Capture one inference forward of ``model`` over ``batch``.

    Parameters
    ----------
    model:
        A module with ``predict_logits`` (:class:`~repro.nn.InferenceMixin`).
    batch:
        Any object with ``values`` / ``mask`` / ``deltas`` /
        ``ever_observed`` arrays; the capture is pinned to these shapes.
    validate:
        Trace a second, jittered batch and require an identical op
        signature plus bit-identical replay-vs-eager output; raises
        :class:`CaptureUnsupportedError` on divergence.  Only disable
        for models already known capture-safe.

    Returns a :class:`CapturedGraph` whose :meth:`~CapturedGraph.replay`
    is bit-identical to ``model.predict_logits`` at the captured shape.
    """
    if _capture_hooks.active():
        raise CaptureError("cannot start a capture inside another capture")
    dtype = get_default_dtype()
    arrays = tuple(np.asarray(getattr(batch, f)).astype(dtype, copy=True)
                   for f in _INPUT_FIELDS)
    graph = _trace_once(model, arrays, dtype)
    if validate:
        jitter = _jitter_arrays(arrays, dtype)
        shadow = _trace_once(model, jitter, dtype)
        _compare_traces(graph, shadow)
        eager = model.predict_logits(CaptureBatch(*jitter))
        replayed = graph.replay(CaptureBatch(*jitter))
        if not np.array_equal(eager, replayed):
            raise CaptureUnsupportedError(
                f"captured replay of {graph.model_name} diverges from "
                "the eager forward on a perturbed batch; the model bakes "
                "batch-dependent state outside the op layer")
    return graph


def _compare_traces(graph, shadow):
    """Require two traces to agree step-for-step."""
    a, b = graph.specs, shadow.specs
    if len(a) != len(b):
        raise CaptureUnsupportedError(
            f"{graph.model_name} is not capture-safe: traced op counts "
            f"differ between batches ({len(a)} vs {len(b)}); the forward "
            "branches on batch data")
    for step, (sa, sb) in enumerate(zip(a, b)):
        if sa[0] != sb[0]:
            raise CaptureUnsupportedError(
                f"{graph.model_name} is not capture-safe: step {step} "
                f"records {sa[0]!r} on one batch and {sb[0]!r} on another")
        same = (len(sa[1]) == len(sb[1]) and len(sa[2]) == len(sb[2])
                and sa[3] == sb[3]
                and all(_sig_equal(x, y) for x, y in zip(sa[1], sb[1]))
                and all(ka == kb and _sig_equal(va, vb)
                        for (ka, va), (kb, vb) in zip(sa[2], sb[2])))
        if not same:
            raise CaptureUnsupportedError(
                f"{graph.model_name} is not capture-safe: step {step} "
                f"({sa[0]}) binds batch-dependent values as constants "
                "(its arguments differ between two traced batches)")


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------

class CapturedGraph:
    """A shape-pinned, replayable recording of one inference forward."""

    def __init__(self, model_name, batch, thunks, specs, params, output,
                 dtype, retained):
        self.model_name = model_name
        self._batch = batch
        self._thunks = thunks
        self.specs = specs
        self._params = params
        self._output = output
        self.dtype = dtype
        # Keeps every traced tensor alive so buffer ids stay unique and
        # fallback thunks' argument tensors remain valid.
        self._retained = retained

    @property
    def batch_shape(self):
        """Captured input shapes, one per batch field."""
        return {f: getattr(self._batch, f).shape for f in _INPUT_FIELDS}

    @property
    def num_steps(self):
        """Recorded top-level ops (including view-only steps)."""
        return len(self.specs)

    @property
    def num_thunks(self):
        """Replay thunks (view-only steps need none)."""
        return len(self._thunks)

    def _check_ready(self, batch):
        if _capture_hooks.active():
            raise CaptureError("cannot replay inside an active capture")
        policy = get_default_dtype()
        if policy != self.dtype:
            raise CaptureError(
                f"graph for {self.model_name} was captured under "
                f"{np.dtype(self.dtype).name} but the active policy is "
                f"{np.dtype(policy).name}; re-trace under the new policy")
        for name_idx, (tensor, arr) in enumerate(self._params):
            if tensor.data is not arr:
                raise CaptureError(
                    f"parameter storage of {self.model_name} changed "
                    f"(param #{name_idx}) since capture — e.g. via "
                    "Module.to(); in-place updates are fine, storage "
                    "replacement requires a re-trace")
        for field in _INPUT_FIELDS:
            buffer = getattr(self._batch, field)
            incoming = np.asarray(getattr(batch, field))
            if incoming.shape != buffer.shape:
                raise CaptureShapeError(
                    f"graph for {self.model_name} was captured at "
                    f"{field}.shape == {buffer.shape} but the replay "
                    f"batch has {field}.shape == {incoming.shape}; "
                    "capture is shape-pinned — trace once per shape "
                    "(or pad, as repro.serve.Predictor does)")

    def replay(self, batch):
        """Re-execute the captured forward on a new same-shape batch.

        Returns a fresh array, bit-identical to
        ``model.predict_logits(batch)`` under the capture-time policy.
        """
        self._check_ready(batch)
        with no_grad():
            for field in _INPUT_FIELDS:
                np.copyto(getattr(self._batch, field),
                          np.asarray(getattr(batch, field)),
                          casting="unsafe")
            for thunk in self._thunks:
                thunk()
        return self._output.astype(self.dtype, copy=True)
