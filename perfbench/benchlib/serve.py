"""``serve-icu``: ICU monitoring through a one-worker ``ReplicaPool``.

One client process drives the pool open-loop from a seeded schedule
that interleaves two kinds of traffic:

* hourly observations of many concurrently monitored admissions,
  streamed as ``submit_step`` calls (stateful: each writes its
  admission's session in the worker);
* periodic ward rounds that risk-score the same 32 whole admissions:
  each round prepares the raw records through a client-side
  ``PreprocessCache`` and submits them as one stateless predict, which
  the worker runs as one forward padded to 32 rows.  (Submitted as 32
  single-row predicts, a round split into 1 to 32-row forwards at
  random: the pipe to the worker holds about two 31 KB rows, so the
  worker's drain sees only part of a burst.  Round latency then
  varied twofold between runs.)

Every op is timed from its due time, so a stall also counts against
the ops that were due behind it; the generator's own lateness is
reported separately.  Capture is on and no deadline is set; the
in-flight bound exceeds the schedule's op count, so no op fails for
timing reasons; an op still open ``DRAIN_TIMEOUT_S`` after the last
send is a failure.  References for the correctness checks are computed
after the timed window.
"""

from __future__ import annotations

import gc
import shutil
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

from .protocol import (BenchmarkError, peak_rss_mb, percentile,
                       required_percentile)
from .tracing import Tracer, wrap_method

__all__ = ["ServeSizes", "Event", "build_schedule", "OpenLoop", "run_serve"]

WORK_DIR = Path(__file__).resolve().parent.parent / ".work"

#: How long after the last send every op must have completed.
DRAIN_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class ServeSizes:
    """Traffic and input sizes of one serve run (tests shrink them)."""

    hours: int = 48
    #: Admissions re-scored by every ward round; one padded forward.
    ward: int = 32
    #: Admissions streaming at once.  Each streams ``hours`` steps in
    #: ``hours * monitored / stream_rate`` seconds (15 s), so sessions
    #: open and finish throughout the timed window.
    monitored: int = 32
    #: Streaming steps per second, over all monitored admissions.
    stream_rate: float = 100.0
    #: Seconds between ward rounds (50 rounds in 30 s support p80).
    round_period: float = 0.6
    #: Set-ups per run: half before the timed phase, half after it.
    setup_reps: int = 6
    #: Streamed admissions whose every step is checked bit-for-bit.
    checked_streams: int = 8
    max_batch_size: int = 32


@dataclass(frozen=True)
class Event:
    """One scheduled op: a streaming step of ``(admission, hour)`` or a
    ward round (``admission`` is None)."""

    due: float
    admission: int | None = None
    hour: int | None = None


def build_schedule(seed, seconds, sizes):
    """Seeded open-loop schedule, sorted by due time (seconds from the
    start).  Stream steps are evenly spaced with jitter of a quarter
    interval, so their order is fixed; slot ``k % monitored`` streams
    one admission at a time, and a slot whose admission reached its
    last hour starts the next admission.  Ward rounds follow every
    ``round_period`` from a seeded phase."""
    import numpy as np

    rng = np.random.default_rng([seed, 7])
    interval = 1.0 / sizes.stream_rate
    count = int(seconds * sizes.stream_rate)
    jitter = rng.uniform(-0.25, 0.25, size=count) * interval
    slots = [None] * sizes.monitored
    hours = [0] * sizes.monitored
    next_admission = 0
    events = []
    for k in range(count):
        slot = k % sizes.monitored
        if slots[slot] is None or hours[slot] == sizes.hours:
            slots[slot], hours[slot] = next_admission, 0
            next_admission += 1
        events.append(Event((k + 0.5) * interval + jitter[k], slots[slot],
                            hours[slot]))
        hours[slot] += 1
    due = rng.uniform(0.0, sizes.round_period)
    while due < seconds:
        events.append(Event(due))
        due += sizes.round_period
    events.sort(key=lambda event: event.due)
    return events


class OpenLoop:
    """Sends each event at its due time, whatever happened before.

    ``send(event, due_at)`` submits the op.  Latency runs from
    ``due_at``, not from when the op was sent, so a stall in the
    generator or the program counts against every op due behind it.
    ``late`` holds, per event, how long after its due time the
    generator got to it.
    """

    def __init__(self, schedule, send, clock=perf_counter, sleep=time.sleep):
        self.schedule = schedule
        self.send = send
        self.clock = clock
        self.sleep = sleep
        self.late = []
        self.started = None

    def run(self):
        self.started = self.clock()
        for event in self.schedule:
            due_at = self.started + event.due
            wait = due_at - self.clock()
            if wait > 0:
                self.sleep(wait)
            self.late.append(self.clock() - due_at)
            self.send(event, due_at)

    @staticmethod
    def latency_ms(due_at, done_at):
        return (done_at - due_at) * 1e3


def _stack(rows):
    """One dataset of the given single-admission datasets, in order."""
    import numpy as np

    from repro.data import EMRDataset

    def cat(field):
        return np.concatenate([getattr(row, field) for row in rows])

    return EMRDataset(values=cat("values"), mask=cat("mask"),
                      ever_observed=cat("ever_observed"),
                      deltas=cat("deltas"), mortality=cat("mortality"),
                      long_stay=cat("long_stay"))


class _Op:
    """Outcome of one submitted op, filled by its future's callback."""

    __slots__ = ("kind", "admission", "hour", "due_at", "sent_at",
                 "done_at", "drained", "future", "traced")

    def __init__(self, kind, admission, hour, due_at, sent_at, traced):
        self.kind = kind
        self.admission = admission
        self.hour = hour
        self.due_at = due_at
        self.sent_at = sent_at
        self.done_at = None
        #: Completed within the drain timeout (set when the drain ends).
        self.drained = False
        self.future = None
        self.traced = traced


def _setup(seed, sizes, schedule, run_dir, config):
    """Cohort, preprocessing, model + checkpoint, pool start, warm-up."""
    import json

    import numpy as np

    from repro.baselines import build_model
    from repro.data import NUM_FEATURES, SyntheticEMRGenerator, build_dataset
    from repro.nn.serialization import save_weights
    from repro.serve import ReplicaPool, ServeWorkerError

    streamed = 1 + max(e.admission for e in schedule
                       if e.admission is not None)
    marks = [perf_counter()]
    admissions = SyntheticEMRGenerator(steps=sizes.hours).sample_many(
        sizes.ward + streamed, np.random.default_rng([seed, 3]))
    marks.append(perf_counter())
    # The stream cohort plays the training split: it fits the
    # standardizer the served model would have been trained with.
    streams, standardizer = build_dataset(admissions[sizes.ward:])
    ward = admissions[:sizes.ward]
    marks.append(perf_counter())
    model = build_model("ELDA-Net", NUM_FEATURES,
                        np.random.default_rng([seed, 5]))
    if run_dir.exists():
        shutil.rmtree(run_dir)
    (run_dir / "checkpoints" / "best").mkdir(parents=True)
    save_weights(model, run_dir / "checkpoints" / "best" / "weights.npz")
    (run_dir / "config.json").write_text(json.dumps(
        {"model_spec": model.spec.to_dict(), "serve": config.to_dict()}))
    marks.append(perf_counter())
    pool = ReplicaPool(run_dir, config=config).start()
    marks.append(perf_counter())
    try:
        # First forward traces the capture graph; first stream steps
        # open a session (the one-hour prefix is rejected by design).
        pool.predict_proba(build_dataset(ward, standardizer)[0])
        for hour in range(2):
            try:
                pool.step("warm-up", streams.values[:1, hour],
                          streams.mask[:1, hour], streams.deltas[:1, hour])
            except ServeWorkerError:
                if hour:
                    raise
    except BaseException:
        pool.stop()
        raise
    marks.append(perf_counter())
    names = ("cohort", "preprocess", "model", "pool_start", "warmup")
    timing = {name: marks[i + 1] - marks[i] for i, name in enumerate(names)}
    timing["total"] = marks[-1] - marks[0]
    return pool, model, streams, standardizer, ward, timing


def run_serve(seed, seconds, trace, sizes=ServeSizes()):
    """Run the serve workload; returns the result dictionary."""
    import numpy as np

    from repro import nn
    from repro.serve import ServeConfig

    nn.set_default_dtype(np.float32)
    schedule = build_schedule(seed, seconds, sizes)
    config = ServeConfig(workers=1, capture=True,
                         max_batch_size=sizes.max_batch_size,
                         deadline_ms=None, queue_depth=len(schedule) + 1)
    run_dir = WORK_DIR / f"serve-{seed}-{time.time_ns()}"
    setups = []

    def set_up():
        # Collected before each set-up and timed phase, so no phase pays
        # for another's garbage.
        gc.collect()
        pool, *rest, timing = _setup(seed, sizes, schedule, run_dir, config)
        setups.append(timing)
        return pool, rest

    def set_up_warmup_only():
        pool, _ = set_up()
        pool.stop()
        # This pool served the warm-up only: its forward time is what
        # the warm-up adds to the measured pool's.
        setups[-1]["warmup_forward_s"] = \
            pool.metrics.snapshot()["batch_seconds"]

    try:
        # Half the set-ups run after the timed phase, so their median
        # spans two moments of the host's speed.
        for _ in range(sizes.setup_reps - sizes.setup_reps // 2 - 1):
            set_up_warmup_only()
        pool, (model, streams, standardizer, ward) = set_up()
        try:
            ops, loop, cache, tracer = _drive(pool, schedule, streams,
                                              standardizer, ward, config,
                                              sizes, trace)
        finally:
            pool.stop()
        rss = max(peak_rss_mb(), peak_rss_mb(children=True))
        for _ in range(sizes.setup_reps // 2):
            set_up_warmup_only()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if WORK_DIR.exists() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    failed, checked = _check(ops, model, streams, standardizer, ward,
                             config, sizes, seed)

    stream_ms = [OpenLoop.latency_ms(o.due_at, o.done_at) for o in ops
                 if o.kind == "stream" and o.drained]
    score_ms = [OpenLoop.latency_ms(o.due_at, o.done_at) for o in ops
                if o.kind == "score" and o.drained]
    setup_s = median([t["total"] for t in setups])
    report = {
        "setup_s": setup_s,
        "stream_p50_ms": median(stream_ms),
        "stream_p99_ms": required_percentile(stream_ms, 99, "stream_p99_ms"),
        "score_p50_ms": median(score_ms),
        "error_rate": failed / len(ops),
        "peak_rss_mb": rss,
    }
    # 50 rounds (30 s) support p80; shorter runs print no score tail.
    score_tail = percentile(score_ms, 80)
    if score_tail is not None:
        report["score_p80_ms"] = score_tail
    metrics = {
        "setup_s": setup_s,
        "step_p50_ms": report["stream_p50_ms"],
        "step_tail_ms": report["stream_p99_ms"],
        "score_p50_ms": report["score_p50_ms"],
        "peak_rss_mb": rss,
    }
    details = {"stream_ops": len(stream_ms), "score_ops": len(score_ms),
               "rounds": sum(e.admission is None for e in schedule),
               "tail_percentile": 99, "checked_ops": checked,
               "generator_late_p50_ms": median(loop.late) * 1e3}
    layers = None
    if trace:
        warmup = [t["warmup_forward_s"] for t in setups
                  if "warmup_forward_s" in t]
        layers = _serve_layers(ops, loop, cache, tracer, pool.metrics,
                               median(warmup) if warmup else None,
                               sizes, model, standardizer, ward)
        for key in ("cohort", "preprocess", "model", "pool_start",
                    "warmup"):
            layers[f"setup.{key}_s"] = median([t[key] for t in setups])
    return {"report": report, "metrics": metrics, "layers": layers,
            "attempted": len(ops), "failed": failed, "details": details}


def _drive(pool, schedule, streams, standardizer, ward, config, sizes,
           trace):
    """The timed window: send the schedule, then wait for every op."""
    from repro.serve import PreprocessCache

    cache = PreprocessCache(standardizer, config=config)
    tracer = Tracer(enabled=False) if trace else None
    if tracer is not None:
        wrap_method(cache, "get", tracer, "serve.cache.get")
        wrap_method(pool, "submit", tracer, "serve.pool.submit")
        wrap_method(pool, "submit_step", tracer, "serve.pool.submit")
    ops = []

    def completed(op):
        def callback(_future):
            op.done_at = perf_counter()
        return callback

    def send(event, due_at):
        traced = False
        if tracer is not None:
            # Traced and untraced windows alternate round by round, so
            # both see the same traffic mix.
            window = (due_at - loop.started - first_round) // \
                sizes.round_period
            traced = tracer.enabled = window % 2 == 1
        if traced:
            # The op's client-side spans (cache, submit) share its id.
            index = tracer.open("serve.send", op=len(ops))
            try:
                submit(event, due_at, traced)
            finally:
                tracer.close(index)
        else:
            submit(event, due_at, traced)

    def submit(event, due_at, traced):
        if event.admission is not None:
            a, h = event.admission, event.hour
            op = _Op("stream", a, h, due_at, perf_counter(), traced)
            op.future = pool.submit_step(
                f"adm-{a}", streams.values[a:a + 1, h],
                streams.mask[a:a + 1, h], streams.deltas[a:a + 1, h])
            ops.append(op)
            op.future.add_done_callback(completed(op))
            return
        op = _Op("score", None, None, due_at, perf_counter(), traced)
        op.future = pool.submit(_stack([cache.get(i, adm.values)
                                        for i, adm in enumerate(ward)]))
        ops.append(op)
        op.future.add_done_callback(completed(op))

    first_round = min(e.due for e in schedule if e.admission is None)
    loop = OpenLoop(schedule, send)
    gc.collect()
    loop.run()
    deadline = perf_counter() + DRAIN_TIMEOUT_S
    for op in ops:
        try:
            op.future.exception(timeout=max(0.0, deadline - perf_counter()))
        except FutureTimeoutError:
            break
    # Decided before ``pool.stop()``, which fails the ops still open:
    # those count as failures and have no latency.
    for op in ops:
        op.drained = op.future.done()
    return ops, loop, cache, tracer


def _check(ops, model, streams, standardizer, ward, config, sizes, seed):
    """Count ops whose outcome differs from an in-process reference.

    Every ward-round predict must equal ``Predictor.predict_proba(row,
    pad_to=max_batch_size)`` bit for bit.  For a seeded sample of
    streamed admissions every step must equal the full forward over
    that prefix; a step rejected by the worker (``ServeWorkerError``)
    must be rejected by that forward too.  An op that did not complete
    within the drain timeout is a failure.
    """
    import numpy as np

    from repro.serve import Predictor, ServeWorkerError
    from repro.serve.cache import prepare_admission

    padded = Predictor(model, config)
    eager = Predictor(model, config.replace(capture=False))
    ward_refs = np.concatenate([padded.predict_proba(
        prepare_admission(adm.values, standardizer),
        pad_to=sizes.max_batch_size) for adm in ward])
    streamed = sorted({o.admission for o in ops if o.kind == "stream"})
    rng = np.random.default_rng([seed, 11])
    sampled = set(rng.choice(streamed, size=min(sizes.checked_streams,
                                                len(streamed)),
                             replace=False).tolist())

    def prefix_reference(admission, hour):
        row = streams.subset(np.arange(admission, admission + 1))
        try:
            return eager.predict_proba(row.truncate(hour + 1))
        except ValueError:
            return None

    failed = checked = 0
    for op in ops:
        if not op.drained:
            failed += 1
            continue
        error = op.future.exception()
        if op.kind == "score":
            checked += 1
            failed += error is not None or not np.array_equal(
                op.future.result(), ward_refs)
        elif error is not None or op.admission in sampled:
            checked += 1
            reference = prefix_reference(op.admission, op.hour)
            if error is not None:
                failed += (reference is not None
                           or not isinstance(error, ServeWorkerError))
            else:
                failed += reference is None or not np.array_equal(
                    op.future.result(), reference)
    return failed, checked


def _serve_layers(ops, loop, cache, tracer, pool_metrics, warmup_forward_s,
                  sizes, model, standardizer, ward):
    from repro.bench import profile
    from repro.data import build_dataset

    summary = tracer.summary()

    def mean_ms(name, self_time=False):
        count, total, total_self = summary.get(name, (0, 0.0, 0.0))
        return (total_self if self_time else total) / count * 1e3 \
            if count else 0.0

    snapshot = pool_metrics.snapshot()
    batches = {int(k): v for k, v in snapshot["batch_sizes"].items()}
    forwards = sum(batches.values())
    rows = sum(size * count for size, count in batches.items())
    forward_seconds = snapshot["batch_seconds"]
    if warmup_forward_s is not None:
        # Take out the warm-up forward, which traced the capture graph;
        # the other set-ups measured its cost.
        forwards -= 1
        rows -= len(ward)
        forward_seconds -= warmup_forward_s
    captures = snapshot["capture_hits"] + snapshot["capture_fallbacks"]
    worker_step_ms = (snapshot["stream_seconds"] / snapshot["stream_steps"]
                      * 1e3 if snapshot["stream_steps"] else 0.0)
    rtts = [(o.done_at - o.sent_at) * 1e3 for o in ops
            if o.kind == "stream" and o.traced and o.drained]
    rtt_ms = sum(rtts) / len(rtts)
    traced = [OpenLoop.latency_ms(o.due_at, o.done_at) for o in ops
              if o.kind == "stream" and o.traced and o.drained]
    untraced = [OpenLoop.latency_ms(o.due_at, o.done_at) for o in ops
                if o.kind == "stream" and not o.traced and o.drained]
    late_ms = [s * 1e3 for s in loop.late]
    layers = {
        "serve.cache.prepare_ms": mean_ms("serve.cache.get"),
        "serve.cache.hit_rate": cache.hit_rate,
        "serve.pool.submit_ms": mean_ms("serve.pool.submit"),
        "serve.pool.stream_rtt_ms": rtt_ms,
        "serve.pool.ipc_ms": rtt_ms - worker_step_ms,
        "serve.worker.step_ms": worker_step_ms,
        "serve.worker.forward_ms": (forward_seconds / forwards * 1e3
                                    if forwards else 0.0),
        "serve.worker.rows_per_forward": rows / forwards if forwards else 0.0,
        "serve.worker.pad_util": (rows / (forwards * sizes.max_batch_size)
                                  if forwards else 0.0),
        "serve.worker.capture_hit_rate": (snapshot["capture_hits"] / captures
                                          if captures else 0.0),
        "gen.late_p99_ms": required_percentile(late_ms, 99,
                                               "gen.late_p99_ms"),
        "trace.overhead_pct": (median(traced) / median(untraced) - 1) * 100,
    }

    # The worker's modules cannot be wrapped from the client, so the
    # ward round's padded forward is attributed to modules in-process,
    # eagerly, on the same 32 rows after the timed window.
    ward_rows, _ = build_dataset(ward, standardizer=standardizer)
    module_tracer = Tracer()
    spans = {"core.embedding": model.embedding,
             "core.feature_interaction": model.feature_module,
             "core.time_interaction": model.time_module}
    for name, module in spans.items():
        wrap_method(module, "forward", module_tracer, name)
    counts = []
    for _ in range(2):
        with profile("padded-forward") as profiler:
            model.predict_logits(ward_rows)
        counts.append((profiler.forward_calls(),
                       sum(s.forward_bytes for s in profiler.stats.values()),
                       profiler.peak_grad_bytes))
    if counts[0] != counts[1]:
        raise BenchmarkError(f"exact counts differ between two passes: "
                             f"{counts}")
    model_summary = module_tracer.summary()
    for name in spans:
        count, _total, total_self = model_summary[name]
        layers[f"{name}.fwd_ms"] = total_self / count * 1e3
    layers["nn.ops_per_step"] = counts[0][0]
    layers["nn.alloc_mb_per_step"] = counts[0][1] / 2**20
    layers["nn.peak_grad_mb"] = counts[0][2] / 2**20
    return layers
