"""Units of the figures printed above the last output line.

The metrics of the last line are declared in BENCHMARK.json
(``protocol.declared_units``).  ``REPORT`` holds the workload-specific
figures, under the names a trainer or a ward operator would use.
"""

REPORT = {
    "setup_s": "s",
    "train_adm_per_s": "1/s",
    "step_p50_ms": "ms",
    "step_p90_ms": "ms",
    "eval_adm_per_s": "1/s",
    "val_auroc": "ratio",
    "stream_p50_ms": "ms",
    "stream_p99_ms": "ms",
    "score_p50_ms": "ms",
    "score_p80_ms": "ms",
    "error_rate": "ratio",
    "peak_rss_mb": "MiB",
}
