"""Tiny runs of every workload emit every named metric with its unit."""

import json

import pytest

from benchlib.protocol import declared_units, result_lines
from benchlib.schema import REPORT
from benchlib.serve import ServeSizes, run_serve
from benchlib.train import TrainSizes, run_train

TINY_TRAIN = TrainSizes(train=8, validation=16, test=2, hours=6,
                        batch_size=4, setup_reps=2, warmup_steps=1,
                        count_steps=1)
TINY_SERVE = ServeSizes(hours=6, ward=4, monitored=4, stream_rate=1000.0,
                        round_period=0.01, setup_reps=2, checked_streams=2,
                        max_batch_size=4)


def tiny_run(workload, trace):
    if workload == "serve-icu":
        return run_serve(1, 1.1, trace, sizes=TINY_SERVE)
    return run_train(workload, 1, 0.1, trace, sizes=TINY_TRAIN)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload",
                         ["train-elda", "train-concare", "serve-icu"])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = tiny_run(workload, trace)
    lines = result_lines({"workload": workload}, result, trace)
    header = json.loads(lines[0])
    assert header["workload"] == workload and "details" in header
    for line in lines[1:-1]:
        name_workload, name, value, unit = line.split(" ")
        assert name_workload == workload
        assert REPORT[name] == unit
        float(value)
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    expected = declared_units("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in last["metrics"].items()} == \
        expected
    if not trace:
        assert all(m["value"] > 0 for m in last["metrics"].values())
    else:
        # Layers the workload calls report work; the rest report 0.
        values = {name: m["value"] for name, m in last["metrics"].items()}
        assert set(result["layers"]) <= set(expected)
        assert values["setup.cohort_s"] > 0
        assert values["nn.ops_per_step"] > 0
