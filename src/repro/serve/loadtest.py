"""Load testing the replica pool: latency percentiles under real traffic.

``repro loadtest`` (and :func:`run_loadtest` underneath) drives a
:class:`~repro.serve.ReplicaPool` through its
:class:`~repro.serve.AsyncServeFrontend` with a synthetic mixed
workload — stateless cohort predicts plus per-admission streaming step
trains — and reports p50/p95/p99 latency, throughput, and the set of
worker PIDs that actually answered (≥2 distinct PIDs is the proof that
requests fanned out across processes, not threads).  The report lands in
the standard ``SERVE_*.json`` schema via
:meth:`~repro.serve.ServeMetrics.save`, with the loadtest summary under
``extra.loadtest``.

CI regression floors: :func:`check_floor` compares a report against a
committed floor file (``benchmarks/results/pool_floor.json``) and
returns the list of violations — empty means the serving tier still
meets its latency/throughput/fan-out bar.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path
from time import perf_counter

from ..nn.backend import xp as np

from .config import ServeConfig, resolve_config
from .metrics import ServeMetrics
from .pool import AsyncServeFrontend, ReplicaPool, ServeDeadlineError

__all__ = ["run_loadtest", "check_floor"]


def _workload(num_requests, num_streams, stream_steps, seed):
    """Synthetic traffic: single-admission predict rows + step trains."""
    from ..data.synthetic import SyntheticEMRGenerator
    from .cache import prepare_admission
    from ..data.preprocess import Standardizer

    generator = SyntheticEMRGenerator()
    rng = np.random.default_rng(seed)
    needed = max(num_requests, num_streams, 1)
    admissions = generator.sample_many(needed, rng)
    standardizer = Standardizer().fit(
        np.stack([adm.values for adm in admissions]))

    predict_rows = [prepare_admission(admissions[i % needed].values,
                                      standardizer)
                    for i in range(num_requests)]
    stream_jobs = []
    for i in range(num_streams):
        prepared = prepare_admission(admissions[i].values, standardizer)
        steps = [(prepared.values[:, t], prepared.mask[:, t],
                  prepared.deltas[:, t])
                 for t in range(min(stream_steps, prepared.num_time_steps))]
        stream_jobs.append((f"loadtest-admission-{i}", steps))
    return predict_rows, stream_jobs


async def _drive(frontend, predict_rows, stream_jobs, concurrency):
    """Run the whole workload; returns client-side error count."""
    errors = []
    semaphore = asyncio.Semaphore(concurrency)

    async def one_predict(rows):
        async with semaphore:
            try:
                await frontend.predict_proba(rows)
            except ServeDeadlineError:
                pass  # counted by the frontend
            except Exception as error:
                errors.append(repr(error))

    async def one_stream(admission_id, steps):
        async with semaphore:
            for values_t, mask_t, deltas_t in steps:
                try:
                    await frontend.step(admission_id, values_t,
                                        mask_t=mask_t, deltas_t=deltas_t)
                except ServeDeadlineError:
                    pass
                except Exception as error:
                    errors.append(repr(error))

    tasks = [one_predict(rows) for rows in predict_rows]
    tasks += [one_stream(admission_id, steps)
              for admission_id, steps in stream_jobs]
    await asyncio.gather(*tasks)
    return errors


def run_loadtest(run_dir, checkpoint="best", config=None, *,
                 num_requests=64, num_streams=8, stream_steps=4,
                 concurrency=16, max_seconds=120.0, seed=0,
                 out_dir=None, label=None):
    """Drive a replica pool and return the loadtest report dict.

    ``max_seconds`` is a hard watchdog on the whole drive phase — a hung
    pool fails the loadtest instead of hanging CI.  When ``out_dir`` is
    given the full metrics payload (report under ``extra.loadtest``) is
    written as ``SERVE_*.json``; the report also carries the output path.
    """
    # Seed defaults from the run directory's persisted ``serve`` block
    # (exactly like ReplicaPool does) so a bare ``repro loadtest``
    # honors the run's recorded serving preferences instead of
    # silently falling back to ServeConfig() defaults.
    base = None
    config_path = Path(run_dir) / "config.json"
    if config_path.exists():
        base = ServeConfig.from_run_config(
            json.loads(config_path.read_text()))
    config = resolve_config(config, owner="run_loadtest", base=base)
    predict_rows, stream_jobs = _workload(num_requests, num_streams,
                                          stream_steps, seed)
    metrics = ServeMetrics(label=label or f"loadtest-{Path(run_dir).name}")
    pool = ReplicaPool(run_dir, checkpoint=checkpoint, config=config,
                       metrics=metrics)

    async def _main():
        frontend = AsyncServeFrontend(pool)
        started = perf_counter()
        errors = await asyncio.wait_for(
            _drive(frontend, predict_rows, stream_jobs, concurrency),
            timeout=max_seconds)
        return frontend, errors, perf_counter() - started

    with pool:
        frontend, errors, duration = asyncio.run(_main())
        observed_pids = sorted(pool.served_pids)
        worker_pids = list(pool.worker_pids)

    total = num_requests + sum(len(steps) for _, steps in stream_jobs)
    report = {
        "schema": "repro.loadtest/v1",
        "requests": num_requests,
        "stream_sessions": num_streams,
        "stream_steps": total - num_requests,
        "duration_seconds": duration,
        "throughput_rps": (total / duration) if duration > 0 else 0.0,
        "latency_ms": {
            "p50": metrics.latency_quantile(50) * 1e3,
            "p95": metrics.latency_quantile(95) * 1e3,
            "p99": metrics.latency_quantile(99) * 1e3,
            "max": metrics.latency_quantile(100) * 1e3,
        },
        "workers": {
            "configured": config.workers,
            "pids": worker_pids,
            "observed_pids": observed_pids,
        },
        "deadline_misses": frontend.deadline_misses,
        "errors": errors,
    }
    if out_dir is not None:
        report["report_path"] = str(metrics.save(
            out_dir, extra={"loadtest": report}))
    return report


def check_floor(report, floor_path):
    """Compare a loadtest report against a committed floor file.

    The floor file holds the *minimum acceptable* serving behavior::

        {"max_p50_ms": ..., "max_p95_ms": ..., "max_p99_ms": ...,
         "min_throughput_rps": ..., "min_observed_workers": 2,
         "max_errors": 0}

    Any key may be omitted.  Returns a list of human-readable violation
    strings — empty means the floor holds.
    """
    floor = json.loads(Path(floor_path).read_text())
    latency = report["latency_ms"]
    violations = []
    for quantile in ("p50", "p95", "p99"):
        bound = floor.get(f"max_{quantile}_ms")
        if bound is not None and latency[quantile] > bound:
            violations.append(
                f"{quantile} latency {latency[quantile]:.2f} ms exceeds "
                f"floor {bound:g} ms")
    min_rps = floor.get("min_throughput_rps")
    if min_rps is not None and report["throughput_rps"] < min_rps:
        violations.append(
            f"throughput {report['throughput_rps']:.1f} rps below floor "
            f"{min_rps:g} rps")
    min_workers = floor.get("min_observed_workers")
    if min_workers is not None and \
            len(report["workers"]["observed_pids"]) < min_workers:
        violations.append(
            f"only {len(report['workers']['observed_pids'])} worker pid(s) "
            f"answered; floor requires {min_workers}")
    max_errors = floor.get("max_errors")
    if max_errors is not None and len(report["errors"]) > max_errors:
        violations.append(
            f"{len(report['errors'])} client-side errors exceed floor "
            f"{max_errors} (first: {report['errors'][:1]})")
    return violations
