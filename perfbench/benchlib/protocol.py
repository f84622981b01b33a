"""Run protocol: statistics, machine block, memory, and the result line.

Statistics follow one rule: a timing is reported as its median
(``statistics.median``), and a tail percentile only when at least ten
samples lie beyond it (p90 needs 100 samples, p99 needs 1000).  A tail
the sample cannot support raises instead of printing a number that is
mostly noise.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import resource
from pathlib import Path

__all__ = ["BenchmarkError", "THREAD_VARIABLES", "DECLARATION",
           "declared_units", "percentile", "required_percentile",
           "samples_beyond", "machine_block", "peak_rss_mb", "result_lines"]

#: The benchmark's declaration: workloads, metric names and units.
DECLARATION = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Environment variables the entry point pins to 1 before numpy loads.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

MIN_BEYOND = 10


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def samples_beyond(count, q):
    """How many of ``count`` samples rank above the ``q``-th percentile."""
    return math.floor(count * (100.0 - q) / 100.0 + 1e-9)


def percentile(samples, q, min_beyond=MIN_BEYOND):
    """``q``-th percentile (linear interpolation, as numpy's default),
    or ``None`` when fewer than ``min_beyond`` samples lie beyond it."""
    import numpy as np

    if samples_beyond(len(samples), q) < min_beyond:
        return None
    return float(np.percentile(samples, q))


def required_percentile(samples, q, what):
    value = percentile(samples, q)
    if value is None:
        raise BenchmarkError(
            f"{what}: p{q:g} needs {MIN_BEYOND} samples beyond it, "
            f"only {samples_beyond(len(samples), q)} of {len(samples)}")
    return value


def peak_rss_mb(children=False):
    """Peak resident set of this process (or of its largest waited-for
    child) in MiB; Linux reports ``ru_maxrss`` in KiB."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _openblas():
    """``(config string, live thread count)`` of the loaded OpenBLAS."""
    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle
                     if "openblas" in line and ".so" in line}
    except OSError:
        return None, None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}",
                                      None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                return get_config().decode(), int(get_threads())
    return None, None


def machine_block(dtype):
    """Where a result was measured: cores, BLAS build and threads,
    numpy and python versions, and the compute dtype."""
    import numpy

    config, threads = _openblas()
    blas = {}
    try:
        info = numpy.show_config(mode="dicts")
        blas = dict(info["Build Dependencies"]["blas"])
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": config, "threads": threads},
        "thread_env": {name: os.environ.get(name)
                       for name in THREAD_VARIABLES},
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "dtype": dtype,
    }


def declared_units(section):
    """``{name: unit}`` of the metrics BENCHMARK.json declares in
    ``section`` (``"end_to_end"`` or ``"per_layer"``)."""
    declared = json.loads(DECLARATION.read_text())
    return {metric["name"]: metric["unit"] for metric in declared[section]}


def result_lines(header, result, trace):
    """Output lines of one run: a JSON header with the machine block and
    run details, one ``workload name value unit`` line per reported
    figure, and last the JSON result line with ``correct``,
    ``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics
    untraced, the per-layer metrics traced), as BENCHMARK.json declares
    them."""
    from .schema import REPORT

    workload = header["workload"]
    lines = [json.dumps(dict(header, details=result["details"]))]
    lines += [f"{workload} {name} {value:.6g} {REPORT[name]}"
              for name, value in result["report"].items()]
    units = declared_units("per_layer" if trace else "end_to_end")
    values = result["layers"] if trace else result["metrics"]
    unknown = set(values) - set(units)
    missing = set(units) - set(values)
    if unknown or (missing and not trace):
        raise BenchmarkError(f"metrics unknown {sorted(unknown)}, "
                             f"missing {sorted(missing)}")
    # A layer this workload never calls did no work in it.
    metrics = {name: {"value": float(values.get(name, 0.0)),
                      "unit": unit} for name, unit in units.items()}
    lines.append(json.dumps({"correct": result["failed"] == 0,
                             "attempted": int(result["attempted"]),
                             "failed": int(result["failed"]),
                             "metrics": metrics}))
    return lines
