"""Perf-smoke regression lane (``pytest -m bench``).

Excluded from tier-1 (timing on shared machines is noisy); run it
deliberately via ``pytest -m bench``.  The test trains the small GRU
baseline on the fixed synthetic benchmark cohort — once per precision
policy dtype — and fails if throughput drops below that dtype's floor
recorded in ``benchmarks/results/perf_floor.json``.  Each floor is a
deliberately conservative ~35% of the measured throughput with the
sequence-fused scan kernels and length-bucketed batching enabled, so it
only trips on real regressions (e.g. losing the scan or fused kernels,
or the float32 plane silently computing in float64), not machine noise.
See docs/PERFORMANCE.md for the floor-update protocol.
"""

import json
from pathlib import Path

import pytest

from repro.bench.runner import benchmark_training

pytestmark = pytest.mark.bench

FLOOR_PATH = (Path(__file__).resolve().parents[2]
              / "benchmarks" / "results" / "perf_floor.json")


@pytest.fixture(scope="module")
def floor_spec():
    return json.loads(FLOOR_PATH.read_text())


def test_floor_file_is_well_formed(floor_spec):
    assert floor_spec["schema"] == "repro.bench/perf-floor-v8"
    assert floor_spec["benchmark"]["bucket_by_length"] is True
    assert set(floor_spec["dtypes"]) == {"float32", "float64"}
    for entry in floor_spec["dtypes"].values():
        assert 0 < entry["floor_steps_per_sec"] \
            < entry["measured_steps_per_sec"]
    assert set(floor_spec["scan_models"]) == {"GRU-D", "StageNet",
                                              "ConCare", "ELDA-Net"}
    for lanes in floor_spec["scan_models"].values():
        assert set(lanes) == {"float32", "float64"}
        for entry in lanes.values():
            assert 0 < entry["floor_steps_per_sec"] \
                < entry["measured_steps_per_sec"]
    capture = floor_spec["capture"]
    assert 1.0 < capture["floor_speedup"] < capture["measured_speedup"]


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_training_throughput_above_floor(floor_spec, dtype):
    spec = floor_spec["benchmark"]
    result = benchmark_training(
        model_name=spec["model"], task=spec["task"], epochs=spec["epochs"],
        num_admissions=spec["num_admissions"],
        batch_size=spec["batch_size"], seed=spec["seed"],
        bucket_by_length=spec["bucket_by_length"],
        with_profiler=False, dtype=dtype)
    lane = floor_spec["dtypes"][dtype]
    floor = lane["floor_steps_per_sec"]
    assert result["steps_per_sec"] >= floor, (
        f"throughput regression under {dtype}: "
        f"{result['steps_per_sec']:.1f} steps/sec is below the recorded "
        f"floor of {floor:.1f} "
        f"(measured when fused: {lane['measured_steps_per_sec']:.1f}). "
        f"If this machine is genuinely slower, re-measure and update "
        f"{FLOOR_PATH.name}; see docs/PERFORMANCE.md.")


@pytest.mark.parametrize("model_name",
                         ["GRU-D", "StageNet", "ConCare", "ELDA-Net"])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_scan_model_throughput_above_floor(floor_spec, model_name, dtype):
    """GRU-D/StageNet/ConCare run only through their sequence-fused
    scans; dropping below the floor means a scan kernel lost the speed
    it had over the step-unrolled loops it replaced (their float32
    throughput sits under these floors — see BENCH_9.json and the v6
    note in the floor file).  ELDA-Net's lane (v7) guards its fused
    feature path (``ops.affine_embedding`` / ``ops.feature_interaction``)
    on top of the GRU scan."""
    spec = floor_spec["benchmark"]
    result = benchmark_training(
        model_name=model_name, task=spec["task"], epochs=spec["epochs"],
        num_admissions=spec["num_admissions"],
        batch_size=spec["batch_size"], seed=spec["seed"],
        bucket_by_length=spec["bucket_by_length"],
        with_profiler=False, dtype=dtype)
    lane = floor_spec["scan_models"][model_name][dtype]
    floor = lane["floor_steps_per_sec"]
    assert result["steps_per_sec"] >= floor, (
        f"{model_name} scan throughput regression under {dtype}: "
        f"{result['steps_per_sec']:.1f} steps/sec is below the recorded "
        f"floor of {floor:.1f} "
        f"(measured with the scan: {lane['measured_steps_per_sec']:.1f}). "
        f"If this machine is genuinely slower, re-measure and update "
        f"{FLOOR_PATH.name}; see docs/PERFORMANCE.md.")
