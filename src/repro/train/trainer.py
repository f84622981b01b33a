"""Backward-compatible facade over the event-driven training engine.

Any model exposing ``forward_batch(batch) -> logits`` (where ``batch``
is an :class:`repro.data.EMRDataset` subset) can be trained.  The
trainer implements the paper's protocol — Adam at lr 1e-3, batch size
64, early stopping on the validation split with best-on-validation
weights restored — by assembling the default callback stack on a bare
:class:`~repro.train.engine.Engine`:

``[LRSchedulerCallback?] → BatchTimer → AnomalyGuard → EarlyStopping →
[Checkpointer → JSONLLogger]``

(the bracketed entries appear only when a scheduler / a ``run_dir`` is
configured).  The engine owns the batch loop; every behavior above is a
plugin, so callers needing checkpoint/resume, metric streams, or custom
hooks pass ``run_dir=...`` / ``callbacks=[...]`` instead of editing a
training loop.  See docs/ARCHITECTURE.md.
"""

from __future__ import annotations

from ..nn.backend import xp as np

from .callbacks import (AnomalyGuard, BatchTimer, Checkpointer,
                        EarlyStopping, JSONLLogger, LRSchedulerCallback)
from .engine import Engine, TrainingHistory
from .. import nn

__all__ = ["Trainer", "TrainingHistory"]


class Trainer:
    """Trains a sequence classifier with early stopping.

    Parameters
    ----------
    model:
        Module with ``forward_batch(batch) -> logits``.
    task:
        ``"mortality"`` or ``"los"``.
    lr, batch_size:
        Optimizer settings; paper defaults are 1e-3 and 64.
    max_epochs:
        Upper bound on training epochs.
    patience:
        Early-stopping patience in epochs on validation AUC-PR.
    clip_norm:
        Global gradient-norm clip (stabilizes recurrent models).
    seed:
        Seed for batch shuffling.
    monitor:
        Validation quantity for early stopping: ``"auc_pr"`` (default)
        or ``"loss"``.
    num_classes:
        1 for the paper's binary tasks; > 1 enables the multi-class
        (softmax / cross-entropy) path, e.g. for archetype phenotyping.
    scheduler_factory:
        Optional callable ``optimizer -> scheduler``; the scheduler's
        ``step`` is called once per epoch with the validation loss (e.g.
        ``lambda opt: nn.schedules.ReduceOnPlateau(opt)``).
    anomaly_mode:
        Run every training step under
        :class:`repro.nn.debug.detect_anomaly`, so the first NaN/Inf in
        any forward value or gradient raises immediately naming the
        offending op (CLI: ``--debug-anomaly``).  Independent of this
        flag, a non-finite training loss always aborts the run instead
        of silently training on garbage.
    bucket_by_length:
        Draw training minibatches from the length-bucketed sampler
        (:class:`repro.data.BucketSampler`) so same-length admissions
        share batches and mask-aware models skip padded timesteps;
        every admission still trains exactly once per epoch and the
        seed contract is preserved.
    run_dir:
        Optional run directory.  When given, every epoch streams to
        ``metrics.jsonl``, the configuration lands in ``config.json``,
        and rolling/best checkpoints are written under ``checkpoints/``
        (CLI: ``--run-dir``; resume with ``fit(..., resume=True)``).
    checkpoint_every:
        With a ``run_dir``, additionally keep a permanent checkpoint
        every k epochs (0 = only ``last``/``best``).
    callbacks:
        Extra :class:`~repro.train.callbacks.Callback` objects appended
        after the default stack.
    """

    def __init__(self, model, task, lr=1e-3, batch_size=64, max_epochs=20,
                 patience=4, clip_norm=5.0, seed=0, monitor="auc_pr",
                 num_classes=1, scheduler_factory=None, anomaly_mode=False,
                 bucket_by_length=False, run_dir=None, checkpoint_every=0,
                 callbacks=()):
        if num_classes > 1 and monitor == "auc_pr":
            monitor = "loss"
        if monitor not in ("auc_pr", "loss"):
            raise ValueError("monitor must be 'auc_pr' or 'loss'")
        self.model = model
        self.task = task
        self.num_classes = num_classes
        self.batch_size = batch_size
        self.max_epochs = max_epochs
        self.patience = patience
        self.clip_norm = clip_norm
        self.monitor = monitor
        self.anomaly_mode = anomaly_mode
        self.run_dir = run_dir
        self.optimizer = nn.Adam(model.parameters(), lr=lr)
        self.scheduler = (scheduler_factory(self.optimizer)
                          if scheduler_factory is not None else None)

        stack = []
        if self.scheduler is not None:
            stack.append(LRSchedulerCallback(self.scheduler))
        self.early_stopping = EarlyStopping(monitor=monitor,
                                            patience=patience)
        stack += [BatchTimer(), AnomalyGuard(anomaly_mode),
                  self.early_stopping]
        if run_dir is not None:
            stack += [Checkpointer(run_dir, every=checkpoint_every),
                      JSONLLogger(run_dir)]
        stack += list(callbacks)

        self.engine = Engine(
            model, task, self.optimizer, num_classes=num_classes,
            batch_size=batch_size, max_epochs=max_epochs,
            clip_norm=clip_norm, seed=seed,
            bucket_by_length=bucket_by_length, callbacks=stack,
            run_dir=run_dir,
            config={
                "model_class": type(model).__name__,
                "model_spec": (model.spec.to_dict()
                               if getattr(model, "spec", None) is not None
                               else None),
                "num_parameters": model.num_parameters(),
                "task": task, "num_classes": num_classes, "lr": lr,
                "batch_size": batch_size, "max_epochs": max_epochs,
                "patience": patience, "clip_norm": clip_norm,
                "seed": seed, "monitor": monitor,
                "bucket_by_length": bool(bucket_by_length),
                "dtype": np.dtype(nn.get_default_dtype()).name,
                "anomaly_mode": bool(anomaly_mode),
                "scheduler": (type(self.scheduler).__name__
                              if self.scheduler is not None else None),
            })

    # ------------------------------------------------------------------
    def fit(self, train, validation, resume=False):
        """Train until early stopping; returns a :class:`TrainingHistory`.

        The model is left holding its best-on-validation weights.  With
        ``resume=True`` the rolling checkpoint under
        ``run_dir/checkpoints/last`` is restored first (weights,
        optimizer moments, RNG state, epoch counter, callback state) and
        the loop continues from the saved epoch.
        """
        if resume:
            self.engine.resume()
        return self.engine.fit(train, validation)

    def evaluate(self, dataset):
        """Task metrics of the current weights (engine pass-through)."""
        return self.engine.evaluate(dataset)

    @property
    def history(self):
        """The engine's accumulated :class:`TrainingHistory`."""
        return self.engine.history
