"""Training stack: event-driven engine, callbacks, and the Trainer facade.

:class:`~repro.train.engine.Engine` owns the batch loop and emits
events; :mod:`repro.train.callbacks` implements every training behavior
(early stopping, schedulers, timing, anomaly aborts, checkpoints,
metric streams) as pluggable callbacks; :class:`Trainer` assembles the
default stack for the paper's protocol.  See docs/ARCHITECTURE.md.
"""

from .callbacks import (AnomalyGuard, BatchTimer, Callback, Checkpointer,
                        EarlyStopping, JSONLLogger, LRSchedulerCallback,
                        monitor_score)
from .engine import Engine, IncompleteCheckpointError, TrainingHistory
from .trainer import Trainer

__all__ = [
    "Trainer", "TrainingHistory", "Engine", "IncompleteCheckpointError",
    "Callback", "EarlyStopping", "LRSchedulerCallback", "BatchTimer",
    "AnomalyGuard", "Checkpointer", "JSONLLogger", "monitor_score",
]
