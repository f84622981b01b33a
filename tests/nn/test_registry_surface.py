"""``repro.nn`` keeps only what the 18 registry models reach and learn.

One shared sweep runs every model of :data:`ALL_MODEL_NAMES` in float64
under :func:`repro.bench.profile`: three binary training steps (forward,
BCE, backward) on seeded batches, one multi-class step for the ELDA-Net
variants that take ``num_classes``, a :meth:`Predictor.predict_proba`
and three :meth:`StreamingSession.step` calls.  Two guards read it:

* **Reachability.** Every op in :func:`repro.nn.ops.registered_ops` is
  reached by the sweep, or sits on :data:`CALLER_ALLOWLIST`, whose
  entry names the non-test ``src/`` caller that keeps it (and that
  caller's source must really call the op).  An op with neither is
  dead code: delete it with its sample factory and tests.
* **Liveness.** Every parameter of every model gets a gradient above a
  roundoff-scaled floor on at least one batch.  A parameter below it
  cannot change the loss — e.g. an attention-score bias that the
  softmax over the scored axis cancels — so it is deleted, not
  excused: there is no liveness allowlist.
"""

from __future__ import annotations

import importlib
import inspect
import re

import numpy as np
import pytest

from repro.baselines import ALL_MODEL_NAMES, build_model
from repro.bench import profile
from repro.data import NUM_FEATURES, SyntheticEMRGenerator, build_dataset
from repro.nn import ops
from repro.nn.dtype import autocast
from repro.nn.losses import bce_with_logits, cross_entropy
from repro.serve import Predictor

from tests.baselines.test_registry import SMALL_KWARGS

#: Registered ops that no model step, predict or stream step reaches,
#: each kept for one named caller in ``src/``: ``op -> (module,
#: qualified name)``.  The guard reads only that the caller's source
#: calls the op, not whether anything calls the caller:
#: ``binary_cross_entropy`` and ``GRUCell.forward`` have no caller in
#: ``src/``, ``examples/`` or ``benchmarks/`` (the models hold a
#: ``GRUCell`` only for its parameters and run ``gru_scan``/``grud_scan``),
#: so ``clip``, ``log``, ``sigmoid`` and ``split`` survive on callers
#: that only tests reach.
CALLER_ALLOWLIST = {
    "neg": ("repro.nn.tensor", "Tensor.__neg__"),
    "power": ("repro.nn.tensor", "Tensor.__pow__"),
    "exp": ("repro.nn.tensor", "Tensor.exp"),
    "clip": ("repro.nn.losses", "binary_cross_entropy"),
    "log": ("repro.nn.losses", "binary_cross_entropy"),
    "sigmoid": ("repro.nn.layers.recurrent", "GRUCell.forward"),
    "split": ("repro.nn.layers.recurrent", "GRUCell.forward"),
}

#: A gradient is live when its largest entry exceeds this multiple of
#: float64 epsilon times the model's largest gradient entry.  A
#: softmax-cancelled bias sits at roundoff (≲ 1e-15 relative); the
#: least live parameter of the sweep sits near 1e-7 (AFM's attention).
ROUNDOFF_FACTOR = 2.0 ** 10

BATCHES, ROWS, STEPS, STREAM_STEPS, CLASSES = 3, 4, 8, 3, 3


def _multiclass(name):
    return name.startswith("ELDA")


def _train_step(model, batch, labels, loss_fn, peaks):
    """Forward, loss, backward; folds each parameter's largest gradient
    magnitude into ``peaks``."""
    model.zero_grad()
    loss_fn(model.forward_batch(batch), labels).backward()
    for name, param in model.named_parameters():
        grad = 0.0 if param.grad is None else float(np.abs(param.grad).max())
        peaks[name] = max(peaks.get(name, 0.0), grad)


def _stream(model, batch):
    session = Predictor(model).start_stream(batch_size=len(batch))
    for t in range(STREAM_STEPS):
        try:
            session.step(batch.values[:, t], batch.mask[:, t],
                         batch.deltas[:, t])
        except ValueError:
            # Attention over earlier steps needs two of them; only the
            # first step may be refused.
            if t:
                raise


@pytest.fixture(scope="module")
def sweep():
    """``(profiler, peaks)``: the op counts of the whole sweep, and per
    model (multi-class runs keyed ``"<name> (K classes)"``) each
    parameter's peak gradient magnitude."""
    admissions = SyntheticEMRGenerator().sample_many(
        BATCHES * ROWS, np.random.default_rng(3))
    dataset, _ = build_dataset(admissions)
    batches = [dataset.subset(np.arange(k * ROWS, (k + 1) * ROWS))
               .truncate(STEPS) for k in range(BATCHES)]
    label_rng = np.random.default_rng(4)
    binary = [label_rng.integers(0, 2, ROWS).astype(np.float64)
              for _ in batches]
    classes = label_rng.integers(0, CLASSES, ROWS)
    peaks = {}
    with autocast("float64"), profile() as prof:
        for name in ALL_MODEL_NAMES:
            model = build_model(name, NUM_FEATURES, np.random.default_rng(0),
                                **SMALL_KWARGS[name])
            peaks[name] = {}
            for batch, labels in zip(batches, binary):
                _train_step(model, batch, labels, bce_with_logits,
                            peaks[name])
            Predictor(model).predict_proba(batches[0])
            _stream(model, batches[0])
            if _multiclass(name):
                key = f"{name} ({CLASSES} classes)"
                peaks[key] = {}
                model = build_model(name, NUM_FEATURES,
                                    np.random.default_rng(0),
                                    num_classes=CLASSES,
                                    **SMALL_KWARGS[name])
                _train_step(model, batches[0], classes, cross_entropy,
                            peaks[key])
    return prof, peaks


# ----------------------------------------------------------------------
# Reachability
# ----------------------------------------------------------------------

def _reached(prof):
    return {name for name in ops.registered_ops()
            if prof.forward_calls(name)}


class TestReachability:
    @pytest.mark.parametrize("op", sorted(ops.registered_ops()))
    def test_op_is_reached_or_has_a_named_caller(self, sweep, op):
        prof, _ = sweep
        assert op in _reached(prof) or op in CALLER_ALLOWLIST, (
            f"no registry model reaches ops.{op} and no src/ caller keeps "
            f"it; delete it (op, sample factory, tests) "
            f"or name its caller in CALLER_ALLOWLIST")

    def test_allowlist_holds_only_unreached_registered_ops(self, sweep):
        prof, _ = sweep
        stale = sorted(set(CALLER_ALLOWLIST)
                       - (set(ops.registered_ops()) - _reached(prof)))
        assert not stale, f"allowlisted ops now reached or gone: {stale}"

    @pytest.mark.parametrize("op", sorted(CALLER_ALLOWLIST))
    def test_allowlisted_caller_calls_the_op(self, op):
        module_name, qualname = CALLER_ALLOWLIST[op]
        target = importlib.import_module(module_name)
        for part in qualname.split("."):
            target = getattr(target, part)
        source_file = inspect.getsourcefile(target)
        assert "/tests/" not in source_file.replace("\\", "/")
        assert re.search(rf"\bops\.{op}\(", inspect.getsource(target)), (
            f"{module_name}.{qualname} does not call ops.{op}")


# ----------------------------------------------------------------------
# Liveness
# ----------------------------------------------------------------------

_RUNS = list(ALL_MODEL_NAMES) + [f"{name} ({CLASSES} classes)"
                                 for name in ALL_MODEL_NAMES
                                 if _multiclass(name)]


class TestLiveness:
    @pytest.mark.parametrize("run", _RUNS)
    def test_every_parameter_gets_a_gradient(self, sweep, run):
        _, peaks = sweep
        grads = peaks[run]
        floor = ROUNDOFF_FACTOR * np.finfo(np.float64).eps * max(
            grads.values())
        dead = {name: grad for name, grad in grads.items() if grad <= floor}
        assert not dead, (
            f"{run}: parameters whose gradient never exceeds roundoff "
            f"({floor:.1e}): {dead}")
