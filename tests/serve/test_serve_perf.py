"""Serving throughput floor (``pytest -m serve`` perf lane).

Marked ``bench`` as well, so tier-1 skips it (timing on shared machines
is noisy) while ``pytest -m serve`` — the serving CI lane — runs it.
The test drives the micro-batcher with many concurrent clients and fails
if its throughput advantage over one-at-a-time requests drops below the
floor recorded in ``benchmarks/results/serve_floor.json``.  The floor is
deliberately conservative (~55% of the measured speedup) so it trips on
real regressions — losing batching, accidental per-request forwards —
not on scheduler jitter.
"""

import json
import threading
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

from repro.baselines import build_model
from repro.data import NUM_FEATURES, SyntheticEMRGenerator, build_dataset
from repro.serve import MicroBatcher, Predictor, ServeMetrics

pytestmark = [pytest.mark.serve, pytest.mark.bench]

FLOOR_PATH = (Path(__file__).resolve().parents[2]
              / "benchmarks" / "results" / "serve_floor.json")


@pytest.fixture(scope="module")
def floor_spec():
    return json.loads(FLOOR_PATH.read_text())


def test_floor_file_is_well_formed(floor_spec):
    assert floor_spec["schema"] == "repro.serve/speedup-floor-v1"
    assert 1.0 < floor_spec["floor_speedup"] < floor_spec["measured_speedup"]
    load = floor_spec["load"]
    assert load["clients"] >= 16 and load["max_batch_size"] >= 16


def test_micro_batching_speedup_above_floor(floor_spec):
    load = floor_spec["load"]
    rng = np.random.default_rng(load["seed"])
    admissions = SyntheticEMRGenerator().sample_many(load["pool"], rng)
    dataset, _ = build_dataset(admissions)
    rows = [dataset.subset(np.asarray([i])) for i in range(len(dataset))]
    model = build_model(load["model"], NUM_FEATURES,
                        np.random.default_rng(load["seed"]))
    predictor = Predictor(model)

    # Baseline: one-at-a-time forwards, no batching.
    for row in rows[:8]:
        predictor.predict_logits(row)  # warm up kernels
    started = perf_counter()
    for row in rows:
        predictor.predict_logits(row)
    single_rps = len(rows) / (perf_counter() - started)

    # Micro-batched: many blocked clients feeding one worker.  A second
    # predictor over the same model routes forwards into the metrics
    # sink without polluting it with the baseline's single forwards.
    clients = load["clients"]
    requests = load["requests"]
    metrics = ServeMetrics("perf")
    batched_predictor = Predictor(model, metrics=metrics)
    config = batched_predictor.config.replace(
        max_batch_size=load["max_batch_size"],
        max_wait_ms=load["max_wait_ms"])
    with MicroBatcher(batched_predictor, config=config,
                      metrics=metrics) as batcher:
        started = perf_counter()

        def client(k):
            for i in range(k, requests, clients):
                batcher.predict_proba(rows[i % len(rows)], timeout=120)

        threads = [threading.Thread(target=client, args=(k,))
                   for k in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        batched_rps = requests / (perf_counter() - started)

    assert metrics.request_count == requests
    assert metrics.mean_batch_size() >= 16, (
        f"coalescing collapsed: mean batch size "
        f"{metrics.mean_batch_size():.1f} < 16 "
        f"(histogram {metrics.batch_size_histogram()})")
    speedup = batched_rps / single_rps
    floor = floor_spec["floor_speedup"]
    assert speedup >= floor, (
        f"micro-batching speedup regression: {speedup:.2f}x "
        f"({batched_rps:.0f} vs {single_rps:.0f} req/s) is below the "
        f"recorded floor of {floor:.2f}x (measured: "
        f"{floor_spec['measured_speedup']:.2f}x). If this machine is "
        f"genuinely different, re-measure and update {FLOOR_PATH.name}; "
        f"see docs/SERVING.md.")
