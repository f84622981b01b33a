"""Event-driven training engine with durable, resumable run artifacts.

:class:`Engine` owns *only* the batch loop — shuffle, forward, backward,
clip, optimizer step — and emits events to an ordered list of
:class:`~repro.train.callbacks.Callback` objects.  Everything else the
old monolithic trainer hard-wired (early stopping, scheduler stepping,
timing, anomaly aborts, and the new checkpoint/metric artifacts) is a
callback; see :mod:`repro.train.callbacks`.

A run directory makes training durable::

    run_dir/
      config.json       # engine configuration (JSONLLogger)
      metrics.jsonl     # one JSON record per epoch (JSONLLogger)
      checkpoints/
        last/           # rolling resume point (Checkpointer)
        best/           # best-on-validation snapshot
        epoch_0004/     # optional periodic keeps (every=k)

Each checkpoint holds the model weights, the optimizer moments, the
batch-shuffling RNG state, the epoch counter, the full history so far,
and every stateful callback's state — :meth:`Engine.resume` restores
all of it, so an interrupted run continues bit-for-bit where it left
off (``tests/train/test_resume.py`` pins this).  A checkpoint is written
whole into a sibling staging directory and swapped into place, so a
save that dies part-way leaves the previous checkpoint intact.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from ..nn.backend import xp as np

from .. import nn
from ..data.dataset import iterate_batches
from ..metrics import (evaluate_all, evaluate_multiclass, sigmoid_probs,
                       softmax_probs)
from ..nn.losses import bce_with_logits, cross_entropy
from ..nn.serialization import (load_state, load_weights, save_state,
                                save_weights)

__all__ = ["Engine", "TrainingHistory", "IncompleteCheckpointError"]

_CHECKPOINT_FORMAT = 1
#: Written last into a checkpoint directory; its presence means every
#: other file of the checkpoint is complete.
_COMPLETE_MARKER = "COMPLETE"


class IncompleteCheckpointError(RuntimeError):
    """A checkpoint directory lacks its completeness marker (a save was
    interrupted, or the directory was not written by this engine)."""


def _retired(directory):
    return directory.with_name(f".{directory.name}.old")


def finish_checkpoint_swap(directory):
    """Complete a checkpoint swap that was killed between its two
    renames: the previous checkpoint is back under its own name.

    Anything that reads ``checkpoints/<name>/`` calls this first
    (:meth:`Engine.save_checkpoint`, :meth:`Engine.resume`,
    :meth:`repro.serve.Predictor.load`)."""
    retired = _retired(directory)
    if retired.exists() and not directory.exists():
        try:
            os.replace(retired, directory)
        except OSError:
            # Another process (a second replica loading the same run)
            # put it back first.
            if not directory.exists():
                raise


@dataclass
class TrainingHistory:
    """Per-epoch record of losses, metrics, and timings."""

    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    val_auc_pr: list = field(default_factory=list)
    val_auc_roc: list = field(default_factory=list)
    seconds_per_batch: float = 0.0
    prediction_seconds_per_sample: float = 0.0
    best_epoch: int = -1

    @property
    def num_epochs(self):
        return len(self.train_loss)

    def to_dict(self):
        """JSON-able representation (checkpointed per epoch)."""
        return {
            "train_loss": list(self.train_loss),
            "val_loss": list(self.val_loss),
            "val_auc_pr": list(self.val_auc_pr),
            "val_auc_roc": list(self.val_auc_roc),
            "seconds_per_batch": self.seconds_per_batch,
            "prediction_seconds_per_sample":
                self.prediction_seconds_per_sample,
            "best_epoch": self.best_epoch,
        }

    @classmethod
    def from_dict(cls, state):
        history = cls()
        for key, value in state.items():
            setattr(history, key, value)
        return history


class Engine:
    """Minimal batch-loop owner; behaviors attach as callbacks.

    Parameters
    ----------
    model:
        Module with ``forward_batch(batch) -> logits``.
    task:
        Label column name (``"mortality"``, ``"los"``, ``"phenotype"``).
    optimizer:
        A :class:`repro.nn.Optimizer` over the model's parameters.
    num_classes:
        1 for binary tasks (sigmoid/BCE); > 1 for softmax/CE.
    batch_size, max_epochs, clip_norm:
        Loop settings (paper defaults 64 / 20 / 5.0).
    seed:
        Seed of the batch-shuffling RNG (its state is checkpointed).
    bucket_by_length:
        Draw training minibatches from a length-bucketed sampler (see
        :func:`repro.data.iterate_batches`) so mask-aware models skip
        padded timesteps; evaluation always iterates in order.
    callbacks:
        Ordered :class:`~repro.train.callbacks.Callback` stack; events
        reach callbacks in list order.
    run_dir:
        Optional run directory (used by :meth:`resume`; artifact
        callbacks carry their own copy of the path).
    config:
        JSON-able run configuration persisted to ``config.json`` by
        :class:`~repro.train.callbacks.JSONLLogger`.
    """

    def __init__(self, model, task, optimizer, *, num_classes=1,
                 batch_size=64, max_epochs=20, clip_norm=5.0, seed=0,
                 bucket_by_length=False, callbacks=(), run_dir=None,
                 config=None):
        self.model = model
        self.task = task
        self.optimizer = optimizer
        self.num_classes = num_classes
        self.batch_size = batch_size
        self.bucket_by_length = bucket_by_length
        self.max_epochs = max_epochs
        self.clip_norm = clip_norm
        self.callbacks = list(callbacks)
        self.run_dir = Path(run_dir) if run_dir is not None else None
        self.config = dict(config or {})
        self.rng = np.random.default_rng(seed)
        self.history = TrainingHistory()
        self.epoch = 0            # epochs completed so far
        self.should_stop = False
        self.stop_reason = None
        self.train_data = None
        self.validation_data = None

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------
    def _emit(self, event, *args):
        for callback in self.callbacks:
            getattr(callback, event)(self, *args)

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def fit(self, train, validation):
        """Run the batch loop until ``max_epochs`` or a callback stops it.

        Returns the accumulated :class:`TrainingHistory`.  On a resumed
        engine the loop continues from the restored epoch counter.
        """
        self.train_data, self.validation_data = train, validation
        self.should_stop = False
        self._emit("on_fit_start")
        for epoch in range(self.epoch, self.max_epochs):
            self._emit("on_epoch_start", epoch)
            self.model.train()
            epoch_losses = []
            for batch_index, (batch, labels) in enumerate(
                    iterate_batches(train, self.task, self.batch_size,
                                    self.rng,
                                    bucket_by_length=self.bucket_by_length)):
                epoch_losses.append(
                    self._run_batch(epoch, batch_index, batch, labels))

            logs = {"train_loss": float(np.mean(epoch_losses))}
            val_metrics = self.evaluate(validation)
            logs["val_loss"] = val_metrics[
                "ce" if self.num_classes > 1 else "bce"]
            logs["val_auc_pr"] = val_metrics.get("auc_pr", float("nan"))
            logs["val_auc_roc"] = val_metrics.get("auc_roc", float("nan"))

            self.history.train_loss.append(logs["train_loss"])
            self.history.val_loss.append(logs["val_loss"])
            self.history.val_auc_pr.append(logs["val_auc_pr"])
            self.history.val_auc_roc.append(logs["val_auc_roc"])

            self.epoch = epoch + 1
            self._emit("on_epoch_end", epoch, logs)
            if self.should_stop:
                break
        self._emit("on_fit_end")
        return self.history

    def _run_batch(self, epoch, batch_index, batch, labels):
        """One optimizer step; returns the scalar loss value."""
        self._emit("on_batch_start", epoch, batch_index)
        loss_value = float("nan")
        try:
            self.optimizer.zero_grad()
            loss_value = self._forward_backward(batch, labels)
            self._emit("on_backward_end", epoch, batch_index, loss_value)
            nn.clip_grad_norm(self.model.parameters(), self.clip_norm)
            self.optimizer.step()
        finally:
            # Always emitted so context-holding callbacks (AnomalyGuard)
            # and timers unwind even when the step raised.
            self._emit("on_batch_end", epoch, batch_index, loss_value)
        return loss_value

    def _forward_backward(self, batch, labels):
        logits = self.model.forward_batch(batch)
        if self.num_classes > 1:
            loss = cross_entropy(logits, labels.astype(int))
        else:
            loss = bce_with_logits(
                logits, labels.astype(nn.get_default_dtype()))
        loss.backward()
        return loss.item()

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def predict_proba(self, dataset):
        """Predicted probabilities per admission.

        Binary tasks return a vector of positive-class probabilities;
        multi-class tasks return an (N, K) softmax matrix.  The whole
        pass runs under :class:`~repro.nn.tensor.no_grad` (pinned by
        ``tests/train/test_eval_no_grad.py``) and the model's train/eval
        mode is restored on exit.

        Models carrying the shared inference protocol
        (:class:`repro.nn.InferenceMixin` — every registry model) are
        delegated to per batch, so training-time validation and the
        serving layer (:mod:`repro.serve`) run the *same* code path and
        agree bit-for-bit; duck-typed models exposing only
        ``forward_batch`` fall back to the inline sigmoid/softmax.
        """
        delegate = getattr(self.model, "predict_proba", None)
        outputs = []
        if delegate is not None:
            for batch, _ in iterate_batches(dataset, self.task,
                                            self.batch_size):
                outputs.append(delegate(batch))
        else:
            was_training = self.model.training
            self.model.eval()
            with nn.no_grad():
                for batch, _ in iterate_batches(dataset, self.task,
                                                self.batch_size):
                    logits = self.model.forward_batch(batch).data
                    if self.num_classes > 1:
                        outputs.append(softmax_probs(logits))
                    else:
                        outputs.append(sigmoid_probs(logits))
            self.model.train(was_training)
        return np.concatenate(outputs)

    def evaluate(self, dataset):
        """Task metrics of the current weights on a dataset.

        Binary tasks report the paper's triple (BCE / AUC-ROC / AUC-PR);
        multi-class tasks report cross-entropy and accuracy.
        """
        scores = self.predict_proba(dataset)
        labels = dataset.labels(self.task)
        if self.num_classes > 1:
            return evaluate_multiclass(scores, labels)
        return evaluate_all(labels, scores)

    def time_prediction(self, dataset):
        """Per-sample inference latency over a bounded probe subset."""
        import time
        if len(dataset) == 0:
            return 0.0
        probe = dataset.subset(
            np.arange(min(len(dataset), 4 * self.batch_size)))
        was_training = self.model.training
        self.model.eval()
        started = time.perf_counter()
        with nn.no_grad():
            for batch, _ in iterate_batches(probe, self.task,
                                            self.batch_size):
                self.model.forward_batch(batch)
        elapsed = time.perf_counter() - started
        self.model.train(was_training)
        return elapsed / len(probe)

    # ------------------------------------------------------------------
    # Durable checkpoints
    # ------------------------------------------------------------------
    def save_checkpoint(self, directory):
        """Write a complete resume point into ``directory``, atomically.

        Layout: ``weights.npz`` (model), ``optimizer.npz`` (moments),
        ``state.json`` (epoch counter, RNG state, history, callback
        scalars), one ``cb_<i>_<Class>.npz`` per callback with array
        state, and the ``COMPLETE`` marker.  Everything is written into
        the sibling ``.<name>.partial`` first; only then does the old
        directory move aside to ``.<name>.old`` and the new one take its
        name.  A save that dies while writing leaves ``directory``
        untouched (the next save clears the partial one); one that dies
        between the renames leaves it under ``.<name>.old``, where the
        next save or :meth:`resume` puts it back.
        """
        directory = Path(directory)
        staging = directory.with_name(f".{directory.name}.partial")
        retired = _retired(directory)
        finish_checkpoint_swap(directory)
        for stale in (staging, retired):
            if stale.exists():
                shutil.rmtree(stale)
        staging.mkdir(parents=True)
        try:
            self._write_checkpoint(staging)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        if directory.exists():
            os.replace(directory, retired)
        os.replace(staging, directory)
        shutil.rmtree(retired, ignore_errors=True)

    def _write_checkpoint(self, directory):
        save_weights(self.model, directory / "weights.npz")
        save_state(directory / "optimizer.npz", self.optimizer.state_dict())
        for key, callback in self._named_callbacks():
            arrays = callback.array_state()
            if arrays:
                np.savez_compressed(directory / f"{key}.npz", **arrays)
        state = {
            "format": _CHECKPOINT_FORMAT,
            "epoch": self.epoch,
            "task": self.task,
            "num_classes": self.num_classes,
            "rng_state": self.rng.bit_generator.state,
            "history": self.history.to_dict(),
            "callbacks": {key: callback.state_dict()
                          for key, callback in self._named_callbacks()},
        }
        with open(directory / "state.json", "w") as handle:
            json.dump(state, handle, indent=2, sort_keys=True)
            handle.write("\n")
        (directory / _COMPLETE_MARKER).touch()

    def load_checkpoint(self, directory):
        """Restore a checkpoint written by :meth:`save_checkpoint`.

        Raises :class:`IncompleteCheckpointError` when ``directory``
        lacks the completeness marker.
        """
        directory = Path(directory)
        if not (directory / _COMPLETE_MARKER).exists():
            raise IncompleteCheckpointError(
                f"checkpoint {directory} has no {_COMPLETE_MARKER} marker; "
                "it is partial or was not written by Engine.save_checkpoint")
        with open(directory / "state.json") as handle:
            state = json.load(handle)
        if state.get("format") != _CHECKPOINT_FORMAT:
            raise ValueError(f"unsupported checkpoint format "
                             f"{state.get('format')!r} in {directory}")
        load_weights(self.model, directory / "weights.npz")
        self.optimizer.load_state_dict(
            load_state(directory / "optimizer.npz"))
        self.rng.bit_generator.state = state["rng_state"]
        self.history = TrainingHistory.from_dict(state["history"])
        self.epoch = int(state["epoch"])
        saved = state.get("callbacks", {})
        for key, callback in self._named_callbacks():
            if key in saved:
                callback.load_state_dict(saved[key])
            arrays_path = directory / f"{key}.npz"
            if arrays_path.exists():
                with np.load(arrays_path) as archive:
                    callback.load_array_state(
                        {name: archive[name] for name in archive.files})
        return self

    def resume(self, run_dir=None):
        """Restore the rolling ``checkpoints/last`` resume point.

        ``run_dir`` defaults to the engine's own run directory.  A
        subsequent :meth:`fit` continues from the restored epoch with
        identical weights, optimizer moments, and shuffle RNG.
        """
        run_dir = Path(run_dir) if run_dir is not None else self.run_dir
        if run_dir is None:
            raise ValueError("resume needs a run directory (none configured)")
        checkpoint = run_dir / "checkpoints" / "last"
        finish_checkpoint_swap(checkpoint)
        if not checkpoint.exists():
            raise FileNotFoundError(
                f"no resumable checkpoint under {checkpoint}")
        return self.load_checkpoint(checkpoint)

    def _named_callbacks(self):
        """Stable per-checkpoint keys: stack index + class name."""
        return [(f"cb_{index:02d}_{type(callback).__name__}", callback)
                for index, callback in enumerate(self.callbacks)]
