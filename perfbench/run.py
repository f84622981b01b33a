#!/usr/bin/env python3
"""Repository benchmark: training steps, pool predicts, streaming steps.

Run from the repository root::

    python3 perfbench/run.py --workload train-elda --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same workload with spans around every layer and reports the per-layer
metrics instead.  Every figure is printed as ``name value unit`` lines;
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs each workload in
its own process, one after the other.  See perfbench/README.md.
"""

import os

# Pinned before numpy loads, so BLAS never starts its thread pool and
# forked pool workers inherit the setting: on two cores a 64-thread
# OpenBLAS burns a second core for the same throughput and contends
# with the pool client.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = tuple(workload["name"] for workload in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["workloads"])


def _import_program():
    """Put the checkout's ``src`` first on the path; refuse to run
    against any other copy of the program."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source under {source}")
    sys.path[:0] = [str(source), str(HERE)]
    import repro
    if Path(repro.__file__).resolve().parent != source / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {source}")


def run_one(workload, seed, seconds, trace):
    from benchlib.protocol import machine_block, result_lines

    if workload == "serve-icu":
        from benchlib.serve import run_serve
        result = run_serve(seed, seconds, trace)
    else:
        from benchlib.train import run_train
        result = run_train(workload, seed, seconds, trace)
    header = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "machine": machine_block("float32")}
    for line in result_lines(header, result, trace):
        print(line)


def run_all(seed, seconds):
    """Each workload, untraced then traced, in its own process."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            completed = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, check=False)
            status = status or completed.returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    _import_program()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
