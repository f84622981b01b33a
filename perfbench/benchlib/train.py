"""``train-elda`` and ``train-concare``: whole epochs of ``Trainer.fit``.

Each run generates a seeded cohort of full 48-hour admissions with 37
features, builds the model under float32, and trains with batch 32 for
whole epochs, each followed by validation, until ``seconds`` of
training have passed and enough steps are timed for the workload's tail
percentile.  The first ``warmup_steps`` steps and the first epoch's
validation are warm-up and are not timed.  Set-up is repeated between
epochs, spread evenly over the timed phase, and left out of its clock.

Timing comes from engine events (a :class:`~repro.train.Callback`) and
from per-instance wrappers around ``model.predict_proba`` (one
validation batch) and ``engine.evaluate`` (one validation pass).  The
traced run additionally wraps ``model.forward_batch`` and the model's
named child modules, alternating traced and untraced epochs so the
tracing overhead is measured in the same process.
"""

from __future__ import annotations

import gc
import math
import warnings
from dataclasses import dataclass
from statistics import median
from time import perf_counter

from repro.train import Callback

from .protocol import BenchmarkError, peak_rss_mb, required_percentile
from .tracing import Tracer, wrap_method

__all__ = ["TrainSizes", "TRAIN_WORKLOADS", "run_train"]

#: Epochs after which ``val_auroc`` is read; every run trains at least
#: this many.
MIN_EPOCHS = 2


@dataclass(frozen=True)
class TrainSizes:
    """Input sizes of one train run (tests shrink them)."""

    train: int = 128
    validation: int = 128
    test: int = 16
    hours: int = 48
    batch_size: int = 32
    #: Set-ups per run: one before the timed phase, the rest between
    #: its epochs (and after it, when the run had too few epochs).
    setup_reps: int = 17
    warmup_steps: int = 2
    #: Steps of the exact-counts pass (traced run only).
    count_steps: int = 2


@dataclass(frozen=True)
class TrainWorkload:
    model: str
    #: Percentile reported as ``step_tail_ms``: the highest the run's
    #: step count supports (p90 needs 100 timed steps).
    tail_q: float
    min_steps: int
    #: Span name -> attribute of the model holding that child module.
    layers: dict


TRAIN_WORKLOADS = {
    # ELDA-Net, the paper's model: forward is dominated by the feature
    # interaction over (B, T, C, C) grids, backward by large tensors.
    "train-elda": TrainWorkload(
        model="ELDA-Net", tail_q=90, min_steps=100,
        layers={"core.embedding": "embedding",
                "core.feature_interaction": "feature_module",
                "core.time_interaction": "time_module"}),
    # ConCare: a per-feature GRU of many small ops, so per-op autodiff
    # overhead dominates; no feature-interaction work at all.  Its ~1 s
    # steps give ~30 timed steps per run, which supports only the median.
    "train-concare": TrainWorkload(
        model="ConCare", tail_q=50, min_steps=20,
        layers={"baselines.concare.encoder": "encoder",
                "baselines.concare.attention": "attention"}),
}


def _setup(workload, sizes, seed):
    """Cohort, preprocessing and model build; returns timings too."""
    import numpy as np

    from repro.baselines import build_model
    from repro.data import (NUM_FEATURES, SyntheticEMRGenerator,
                            train_val_test_split)

    total = sizes.train + sizes.validation + sizes.test
    started = perf_counter()
    rng = np.random.default_rng(seed)
    admissions = SyntheticEMRGenerator(steps=sizes.hours).sample_many(
        total, rng)
    cohort_done = perf_counter()
    splits = train_val_test_split(
        admissions, rng, fractions=(sizes.train / total,
                                    sizes.validation / total,
                                    sizes.test / total))
    preprocess_done = perf_counter()
    model = build_model(workload.model, NUM_FEATURES,
                        np.random.default_rng(seed + 1))
    model_done = perf_counter()
    if (len(splits.train), len(splits.validation)) != (sizes.train,
                                                        sizes.validation):
        raise BenchmarkError("cohort split sizes differ from the plan")
    return splits, model, {
        "total": model_done - started,
        "cohort": cohort_done - started,
        "preprocess": preprocess_done - cohort_done,
        "model": model_done - preprocess_done,
    }


class _Clock(Callback):
    """Engine-event timing of every step, plus spans when tracing.

    Stops the fit at the end of the first epoch at which ``seconds``
    have passed, at least ``MIN_EPOCHS`` epochs ran and at least
    ``min_steps`` steps were timed.  At other epoch ends it calls
    ``set_up`` as often as needed to keep ``reps`` set-ups spread evenly
    over ``seconds``; their time is not counted towards ``seconds``.
    """

    def __init__(self, sizes, workload, seconds, tracer, set_up, reps):
        self.sizes = sizes
        self.workload = workload
        self.seconds = seconds
        self.tracer = tracer
        self.set_up = set_up
        self.reps = reps
        self.setups = 0
        self.setup_seconds = 0.0
        self.started = None
        self.epoch = 0
        self.step_index = 0
        self.steps = []          # (traced, seconds) of timed steps
        self.gaps = []           # on_batch_end -> next on_batch_start
        self.nonfinite = 0
        self.step_start = None
        self.last_end = None
        self.forward_end = None
        self.backward_end = None
        self.step_span = None
        self.val_auroc = None

    def _timed(self):
        return self.step_index >= self.sizes.warmup_steps

    def on_fit_start(self, engine):
        self.started = perf_counter()

    def on_epoch_start(self, engine, epoch):
        self.epoch = epoch
        self.last_end = None
        if self.tracer is not None:
            # Odd epochs traced, even epochs untraced: the overhead is
            # their ratio within one process.
            self.tracer.enabled = epoch % 2 == 1

    def on_batch_start(self, engine, epoch, batch_index):
        now = perf_counter()
        if self.last_end is not None and self._timed():
            self.gaps.append(now - self.last_end)
        self.step_start = now
        if self.tracer is not None and self.tracer.enabled:
            self.step_span = self.tracer.open("train.step", start=now,
                                              op=self.step_index)

    def on_backward_end(self, engine, epoch, batch_index, loss):
        self.backward_end = perf_counter()
        if self.step_span is not None and self.forward_end is not None:
            self.tracer.record("train.backward", self.forward_end,
                               self.backward_end, parent=self.step_span)

    def on_batch_end(self, engine, epoch, batch_index, loss):
        end = perf_counter()
        if not math.isfinite(loss):
            self.nonfinite += 1
        if self.step_span is not None:
            if self.backward_end is not None:
                self.tracer.record("train.optim", self.backward_end, end,
                                   parent=self.step_span)
            self.tracer.close(self.step_span, end=end)
        if self._timed():
            self.steps.append((self.step_span is not None,
                               end - self.step_start))
        self.step_span = None
        self.forward_end = self.backward_end = None
        self.last_end = end
        self.step_index += 1

    def on_epoch_end(self, engine, epoch, logs):
        if epoch + 1 == MIN_EPOCHS:
            self.val_auroc = logs["val_auc_roc"]
        elapsed = perf_counter() - self.started - self.setup_seconds
        if (elapsed >= self.seconds and epoch + 1 >= MIN_EPOCHS
                and len(self.steps) >= self.workload.min_steps):
            engine.should_stop = True
            return
        due = math.floor(self.reps * min(1.0, elapsed / self.seconds))
        while self.setups < due:
            started = perf_counter()
            self.set_up()
            gc.collect()
            self.setups += 1
            self.setup_seconds += perf_counter() - started


def _timed_calls(obj, attribute, clock, record):
    """Wrap ``obj.attribute`` to append ``(epoch, seconds, result)`` per
    call.  Spans are paused inside, so validation does not count as
    training-step layer time."""
    inner = getattr(obj, attribute)
    tracer = clock.tracer

    def wrapper(*args, **kwargs):
        enabled = tracer is not None and tracer.enabled
        if enabled:
            tracer.enabled = False
        try:
            started = perf_counter()
            result = inner(*args, **kwargs)
            record.append((clock.epoch, perf_counter() - started, result))
        finally:
            if enabled:
                tracer.enabled = True
        return result

    object.__setattr__(obj, attribute, wrapper)


def _exact_counts(workload, sizes, splits, seed):
    """Op count, allocated bytes and peak gradient bytes of the first
    ``count_steps`` training steps under ``repro.bench.profile()``."""
    import numpy as np

    from repro.baselines import build_model
    from repro.bench import profile
    from repro.data import NUM_FEATURES
    from repro.train import Callback, Trainer

    class Profiled(Callback):
        def __init__(self, profiler):
            self.profiler = profiler
            self.steps = 0

        def on_batch_start(self, engine, epoch, batch_index):
            self.profiler.__enter__()

        def on_batch_end(self, engine, epoch, batch_index, loss):
            self.profiler.__exit__(None, None, None)
            self.steps += 1

    subset = splits.train.subset(
        np.arange(sizes.count_steps * sizes.batch_size))
    probe = splits.validation.subset(np.arange(sizes.batch_size))
    model = build_model(workload.model, NUM_FEATURES,
                        np.random.default_rng(seed + 1))
    profiler = profile("exact-counts")
    counter = Profiled(profiler)
    with warnings.catch_warnings():
        # A 32-row probe may hold one class only (AUROC undefined).
        warnings.simplefilter("ignore")
        Trainer(model, "mortality", batch_size=sizes.batch_size,
                max_epochs=1, seed=seed, callbacks=[counter]).fit(subset,
                                                                  probe)
    calls = sum(s.forward_calls + s.backward_calls
                for s in profiler.stats.values())
    nbytes = sum(s.forward_bytes + s.backward_bytes
                 for s in profiler.stats.values())
    return (calls / counter.steps, nbytes / counter.steps / 2**20,
            profiler.peak_grad_bytes / 2**20)


def run_train(name, seed, seconds, trace, sizes=TrainSizes()):
    """Run one train workload; returns the result dictionary."""
    import numpy as np

    from repro import nn
    from repro.train import Trainer

    workload = TRAIN_WORKLOADS[name]
    nn.set_default_dtype(np.float32)

    setups = []

    def set_up():
        # Collected before each set-up and timed phase, so no phase pays
        # for another's garbage.
        gc.collect()
        splits, model, timing = _setup(workload, sizes, seed)
        setups.append(timing)
        return splits, model

    # The host's speed drifts in phases of seconds, so the set-ups are
    # spread over the whole run and ``setup_s`` is their median.
    splits, model = set_up()
    tracer = Tracer(enabled=False) if trace else None
    clock = _Clock(sizes, workload, seconds, tracer, set_up,
                   sizes.setup_reps - 1)
    trainer = Trainer(model, "mortality", batch_size=sizes.batch_size,
                      max_epochs=10**9, patience=10**9, seed=seed,
                      callbacks=[clock])
    batch_calls, eval_calls = [], []
    _timed_calls(model, "predict_proba", clock, batch_calls)
    _timed_calls(trainer.engine, "evaluate", clock, eval_calls)
    if tracer is not None:
        for span, attribute in workload.layers.items():
            wrap_method(getattr(model, attribute), "forward", tracer, span)
        inner_forward = model.forward_batch

        def forward_batch(batch):
            if clock.step_span is None:
                return inner_forward(batch)
            index = tracer.open("train.forward")
            try:
                return inner_forward(batch)
            finally:
                tracer.close(index)
                clock.forward_end = tracer.spans[index].end

        object.__setattr__(model, "forward_batch", forward_batch)

    gc.collect()
    trainer.fit(splits.train, splits.validation)
    rss = peak_rss_mb()
    while len(setups) < sizes.setup_reps:
        set_up()

    step_seconds = [s for _, s in clock.steps]
    timed_batches = [s for epoch, s, _ in batch_calls if epoch >= 1]
    timed_evals = [s for epoch, s, _ in eval_calls if epoch >= 1]
    if not timed_batches or not timed_evals:
        raise BenchmarkError("no validation pass was timed")
    step_p50 = median(step_seconds) * 1e3
    tail = required_percentile(step_seconds, workload.tail_q,
                               "step_tail_ms") * 1e3
    # Every step must give a finite loss and every validation batch
    # finite probabilities.
    attempted = clock.step_index + len(batch_calls)
    failed = clock.nonfinite + sum(
        not np.isfinite(probs).all() for _, _, probs in batch_calls)
    if clock.val_auroc is None or not math.isfinite(clock.val_auroc):
        failed += 1
    setup_s = median([t["total"] for t in setups])

    report = {
        "setup_s": setup_s,
        "train_adm_per_s": (len(step_seconds) * sizes.batch_size
                            / sum(step_seconds)),
        "step_p50_ms": step_p50,
        "eval_adm_per_s": (len(timed_evals) * sizes.validation
                           / sum(timed_evals)),
        "val_auroc": clock.val_auroc,
        "error_rate": failed / attempted,
        "peak_rss_mb": rss,
    }
    if workload.tail_q == 90:
        report["step_p90_ms"] = tail
    metrics = {
        "setup_s": setup_s,
        "step_p50_ms": step_p50,
        "step_tail_ms": tail,
        "score_p50_ms": median(timed_batches) * 1e3,
        "peak_rss_mb": rss,
    }
    details = {"timed_steps": len(step_seconds),
               "epochs": clock.epoch + 1,
               "setups_between_epochs": clock.setups,
               "tail_percentile": workload.tail_q,
               "validation_batches_timed": len(timed_batches)}

    layers = None
    if tracer is not None:
        layers = _train_layers(tracer, clock, workload, sizes, timed_evals)
        counts = [_exact_counts(workload, sizes, splits, seed)
                  for _ in range(2)]
        if counts[0] != counts[1]:
            raise BenchmarkError(f"exact counts differ between two "
                                 f"passes: {counts}")
        layers["nn.ops_per_step"], layers["nn.alloc_mb_per_step"], \
            layers["nn.peak_grad_mb"] = counts[0]
        for key in ("cohort", "preprocess", "model"):
            layers[f"setup.{key}_s"] = median([t[key] for t in setups])
    return {"report": report, "metrics": metrics, "layers": layers,
            "attempted": attempted, "failed": failed, "details": details}


def _train_layers(tracer, clock, workload, sizes, timed_evals):
    summary = tracer.summary()

    def mean_ms(name, self_time=False):
        count, total, total_self = summary.get(name, (0, 0.0, 0.0))
        return (total_self if self_time else total) / count * 1e3 \
            if count else 0.0

    traced = [s for flag, s in clock.steps if flag]
    untraced = [s for flag, s in clock.steps if not flag]
    if not traced or not untraced:
        raise BenchmarkError("the traced run needs traced and untraced "
                             "epochs to measure the tracing overhead")
    layers = {
        "data.batch_ms": median(clock.gaps) * 1e3 if clock.gaps else 0.0,
        "train.forward_ms": mean_ms("train.forward"),
        "train.backward_ms": mean_ms("train.backward"),
        "train.optim_ms": mean_ms("train.optim"),
        "train.eval_ms_per_adm": (sum(timed_evals) * 1e3
                                  / (len(timed_evals) * sizes.validation)),
        "trace.overhead_pct": (median(traced) / median(untraced) - 1) * 100,
    }
    for span in workload.layers:
        layers[f"{span}.fwd_ms"] = mean_ms(span, self_time=True)
    return layers
