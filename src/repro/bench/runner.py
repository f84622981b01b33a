"""End-to-end training benchmarks over a fixed synthetic cohort.

This module is the measurement half of the performance subsystem: it
trains a real model with the real :class:`~repro.train.Trainer` on a
deterministic synthetic cohort, under the per-op profiler, and reports
throughput (training steps/sec) plus the per-op breakdown.  The
``repro bench`` CLI subcommand and the ``pytest -m bench`` perf-smoke
lane are both thin wrappers over :func:`benchmark_training`.

Imports of the model/training stack happen at module level here — this
module must therefore never be imported from ``repro.bench.__init__``
eagerly (it is exposed lazily), keeping the ``repro.nn -> repro.bench``
hook import one-way.
"""

from __future__ import annotations

import resource
from time import perf_counter

import numpy as np

from ..baselines import build_model
from ..data import (NUM_FEATURES, ShardedDataset, SyntheticEMRGenerator,
                    train_val_test_split)
from ..train import Trainer
from .profiler import profile

__all__ = ["benchmark_cohort", "benchmark_streaming",
           "benchmark_training", "benchmark_sharded_training",
           "max_rss_bytes"]


def max_rss_bytes():
    """Peak resident set size of this process so far, in bytes.

    ``ru_maxrss`` is reported in kilobytes on Linux; it is a
    process-lifetime high-water mark, so memory-ceiling measurements
    must run in a fresh subprocess (see docs/DATA.md)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def benchmark_cohort(num_admissions=64, seed=0):
    """A deterministic synthetic cohort for benchmarking (same seed, same
    bytes — throughput numbers are comparable across runs)."""
    generator = SyntheticEMRGenerator()
    admissions = generator.sample_many(num_admissions,
                                       np.random.default_rng(seed))
    return train_val_test_split(admissions, np.random.default_rng(seed + 1))


def benchmark_training(model_name="GRU", task="mortality", epochs=2,
                       num_admissions=64, batch_size=32, seed=0,
                       bucket_by_length=False,
                       with_profiler=True, run_dir=None, dtype=None):
    """Train ``model_name`` for ``epochs`` epochs and measure throughput.

    Early stopping is disabled (patience > epochs) so every run performs
    the same number of optimizer steps.  The epoch loop itself is the
    training engine's; ``run_dir`` optionally leaves the durable
    config/metrics/checkpoint artifacts alongside the benchmark numbers.
    ``dtype`` scopes the precision policy (``"float32"``/``"float64"``)
    around model construction *and* training via
    :class:`repro.nn.dtype.autocast`; default is the ambient policy.
    ``bucket_by_length`` enables length-bucketed batching and also flips
    the model's ``mask_aware`` flag (when it has one) so the scan
    actually stops at each bucket's maximum length.

    Returns a dict with:

    ``steps_per_sec`` / ``seconds_per_batch``
        Training throughput (forward + backward + clip + optimizer step,
        averaged over all batches).
    ``profiler``
        The :class:`~repro.bench.Profiler` covering ``Trainer.fit``, or
        ``None`` when ``with_profiler=False`` (the perf-smoke floor test
        measures raw, uninstrumented speed).
    ``history`` / ``model`` / ``config``
        The training history, trained model, and the run configuration
        (the latter is what ``repro bench`` persists under ``extra``).
        With the profiler on, ``config`` additionally carries the
        per-step byte accounting (``allocated_bytes_per_step``,
        ``peak_grad_bytes``) used by the precision-policy comparison.
    """
    from ..nn.dtype import autocast, get_default_dtype, resolve_dtype

    resolved = resolve_dtype(dtype) if dtype is not None else get_default_dtype()
    with autocast(resolved):
        splits = benchmark_cohort(num_admissions=num_admissions, seed=seed)
        model = build_model(model_name, NUM_FEATURES,
                            np.random.default_rng(seed))
        if bucket_by_length and hasattr(model, "mask_aware"):
            # Bucketing only pays off when the model reads true lengths
            # from the mask so the scan stops at the bucket maximum.
            model.mask_aware = True
        trainer = Trainer(model, task, batch_size=batch_size,
                          max_epochs=epochs, patience=epochs + 1, seed=seed,
                          bucket_by_length=bucket_by_length,
                          run_dir=run_dir)

        profiler = None
        if with_profiler:
            with profile(f"train-{model_name}") as profiler:
                history = trainer.fit(splits.train, splits.validation)
        else:
            history = trainer.fit(splits.train, splits.validation)

    seconds_per_batch = history.seconds_per_batch
    config = {
        "model": model_name,
        "task": task,
        "epochs": epochs,
        "num_admissions": num_admissions,
        "batch_size": batch_size,
        "seed": seed,
        "bucket_by_length": bool(bucket_by_length),
        "mask_aware": bool(getattr(model, "mask_aware", False)),
        "dtype": np.dtype(resolved).name,
        "num_parameters": model.num_parameters(),
    }
    if profiler is not None:
        # Per-step byte accounting: total op-output allocations (forward)
        # plus backward gradient traffic, normalized by optimizer steps.
        _attach_byte_accounting(config, profiler, history,
                                len(splits.train), batch_size)
    return {
        "steps_per_sec": (1.0 / seconds_per_batch
                          if seconds_per_batch > 0 else float("inf")),
        "seconds_per_batch": seconds_per_batch,
        "profiler": profiler,
        "history": history,
        "model": model,
        "config": config,
    }


def _attach_byte_accounting(config, profiler, history, train_size,
                            batch_size):
    batches_per_epoch = -(-train_size // batch_size)
    num_steps = max(1, history.num_epochs * batches_per_epoch)
    total_bytes = sum(s.forward_bytes + s.backward_bytes
                      for s in profiler.stats.values())
    config["profiled_steps"] = int(num_steps)
    config["allocated_bytes_per_step"] = int(total_bytes // num_steps)
    config["peak_grad_bytes"] = int(profiler.peak_grad_bytes)


def benchmark_streaming(model_name="GRU", num_admissions=64, seed=0,
                        num_steps=48, repeats=5, dtype=None):
    """Full-recompute vs streaming per-observation inference latency.

    The monitoring workload scores an admission again after every new
    hourly observation.  The *recompute* lane runs a full
    ``predict_logits`` over the growing prefix at each step (what the
    batch serving path costs, O(t) recurrence per observation); the
    *streaming* lane feeds the same observations through one
    :class:`~repro.serve.StreamingSession` (the model's own cached
    state for natively streaming models, exact prefix replay
    otherwise).  Both lanes score the identical ``num_steps``
    observations of one admission, ``repeats`` times; the reported
    per-step latency is the overall mean, and the lanes' probabilities
    are verified bit-identical at every prefix first.

    Models that reject short prefixes (attention over ``t - 1`` earlier
    steps needs at least two) are timed from their first served prefix;
    the rejected prefixes are skipped in both lanes identically.

    Returns ``{"config": ..., "recompute_seconds_per_step": ...,
    "streaming_seconds_per_step": ..., "speedup": ..., "native": ...}``;
    the ``repro bench --streaming`` CLI lane persists it as
    ``BENCH_*.json``.
    """
    from ..metrics.probability import probabilities
    from ..nn.dtype import autocast, get_default_dtype, resolve_dtype
    from ..serve import Predictor

    resolved = (resolve_dtype(dtype) if dtype is not None
                else get_default_dtype())
    with autocast(resolved):
        splits = benchmark_cohort(num_admissions=num_admissions, seed=seed)
        model = build_model(model_name, NUM_FEATURES,
                            np.random.default_rng(seed))
        predictor = Predictor(model)
        row = splits.test.subset([0])
        num_steps = min(num_steps, row.num_time_steps)

        def prefix_probs(t):
            return probabilities(predictor.predict_logits(row.truncate(t)))

        def step_session(session, t):
            return session.step(row.values[:, t - 1], row.mask[:, t - 1],
                                row.deltas[:, t - 1])

        rejected = set()
        session = predictor.start_stream()
        for t in range(1, num_steps + 1):
            try:
                expected = prefix_probs(t)
            except Exception:
                # Both lanes must reject the short prefix identically
                # (e.g. attention over t-1 earlier steps needs two); the
                # session keeps the buffered observation either way.
                try:
                    step_session(session, t)
                except Exception:
                    rejected.add(t)
                    continue
                raise AssertionError(
                    f"streamed {model_name} served prefix {t} that the "
                    "full forward rejects")
            streamed = step_session(session, t)
            if not np.array_equal(streamed, expected):
                raise AssertionError(
                    f"streamed {model_name} probabilities diverge from the "
                    f"full forward at prefix {t}")

        recompute_seconds = 0.0
        streaming_seconds = 0.0
        for _ in range(repeats):
            started = perf_counter()
            for t in range(1, num_steps + 1):
                if t not in rejected:
                    prefix_probs(t)
            recompute_seconds += perf_counter() - started

            session = predictor.start_stream()
            started = perf_counter()
            for t in range(1, num_steps + 1):
                try:
                    step_session(session, t)
                except Exception:
                    if t not in rejected:
                        raise
            streaming_seconds += perf_counter() - started

    total_steps = repeats * (num_steps - len(rejected))
    recompute = recompute_seconds / total_steps
    streaming = streaming_seconds / total_steps
    return {
        "config": {
            "model": model_name,
            "num_admissions": num_admissions,
            "seed": seed,
            "num_steps": num_steps,
            "served_steps": num_steps - len(rejected),
            "repeats": repeats,
            "dtype": np.dtype(resolved).name,
            "num_parameters": model.num_parameters(),
        },
        "native": bool(getattr(model, "stream_native", False)),
        "recompute_seconds_per_step": recompute,
        "streaming_seconds_per_step": streaming,
        "speedup": (recompute / streaming if streaming > 0
                    else float("inf")),
    }


def benchmark_sharded_training(shards_dir, model_name="GRU",
                               task="mortality", epochs=1, batch_size=32,
                               seed=0, val_shards=1, bucket_by_length=True,
                               dtype=None, run_dir=None):
    """Train one model out-of-core from a sharded store and measure
    throughput *and* peak memory.

    The store at ``shards_dir`` (from :func:`repro.data.generate_shards`
    / ``repro shard``) is opened lazily, split into train/validation
    shard views, and streamed through the :class:`ShardedDataLoader` by
    the ordinary :class:`~repro.train.Trainer` — batches never
    materialize more than O(batch + prefetch·batch) admissions.  The
    headline numbers are ``steps_per_sec`` and ``max_rss_bytes`` (the
    process peak RSS after training), which is what BENCH_7.json's
    memory-ceiling claim records; run this in a fresh subprocess when
    the ceiling matters, since ``ru_maxrss`` never decreases.

    Returns the same shape as :func:`benchmark_training` (without a
    profiler) plus ``max_rss_bytes``, ``open_seconds``, and
    ``fit_seconds`` in the result and store metadata in ``config``.
    """
    from ..nn.dtype import autocast, get_default_dtype, resolve_dtype

    resolved = resolve_dtype(dtype) if dtype is not None else get_default_dtype()
    with autocast(resolved):
        opened = perf_counter()
        store = ShardedDataset.open(shards_dir)
        train, validation = store.split(val_shards=val_shards)
        open_seconds = perf_counter() - opened

        model = build_model(model_name, store.num_features,
                            np.random.default_rng(seed))
        if bucket_by_length and hasattr(model, "mask_aware"):
            model.mask_aware = True
        trainer = Trainer(model, task, batch_size=batch_size,
                          max_epochs=epochs, patience=epochs + 1, seed=seed,
                          bucket_by_length=bucket_by_length,
                          run_dir=run_dir)
        started = perf_counter()
        history = trainer.fit(train, validation)
        fit_seconds = perf_counter() - started

    seconds_per_batch = history.seconds_per_batch
    config = {
        "model": model_name,
        "task": task,
        "epochs": epochs,
        "shards_dir": str(shards_dir),
        "cohort": store.manifest["cohort"],
        "num_admissions": len(store),
        "train_admissions": len(train),
        "val_admissions": len(validation),
        "num_shards": store.num_shards,
        "shard_size": store.manifest["shard_size"],
        "val_shards": int(val_shards),
        "batch_size": batch_size,
        "seed": seed,
        "bucket_by_length": bool(bucket_by_length),
        "mask_aware": bool(getattr(model, "mask_aware", False)),
        "dtype": np.dtype(resolved).name,
        "num_parameters": model.num_parameters(),
    }
    return {
        "steps_per_sec": (1.0 / seconds_per_batch
                          if seconds_per_batch > 0 else float("inf")),
        "seconds_per_batch": seconds_per_batch,
        "open_seconds": open_seconds,
        "fit_seconds": fit_seconds,
        "max_rss_bytes": max_rss_bytes(),
        "profiler": None,
        "history": history,
        "model": model,
        "config": config,
    }
