"""Command-line interface: ``python -m repro <command>``.

Subcommands
-----------
``stats``
    Print Table-I-style statistics for a cohort, or (``--shards DIR``)
    for a sharded store from its manifest metadata alone.
``shard``
    Generate a deterministic sharded cohort store (manifest.json +
    per-shard ``.npy`` arrays) for out-of-core training; see
    docs/DATA.md for the layout and determinism contract.
``train``
    Train a model on a cohort/task, print test metrics, optionally save
    the weights.  ``--run-dir`` makes the run durable (config.json,
    metrics.jsonl, checkpoints/) and ``--resume`` continues an
    interrupted run from its last checkpoint.  ``--shards DIR`` streams
    batches out-of-core from a sharded store instead of materializing a
    cohort in memory.
``compare``
    Train several models on one (cohort, task) cell and print the
    Figure-6-style metrics table.
``interpret``
    Train ELDA-Net and print Patient A's feature-level attention grid at
    a chosen hour (the Figure 9 analysis).
``bench``
    Profile a training run with the per-op profiler (repro.bench), print
    the sorted forward/backward timing table, and write a
    ``BENCH_*.json`` report (see docs/PERFORMANCE.md).  ``--shards DIR``
    instead benchmarks out-of-core training (throughput + peak RSS,
    profiler off).
``predict``
    Load a trained run directory (``--run-dir`` from ``train``) into a
    ``repro.serve.Predictor`` and print per-admission probabilities for
    a cohort split — bit-identical to the training-time evaluation pass.
``serve``
    Run the micro-batched inference runtime against a trained run
    directory under a synthetic multi-client request load; print serving
    metrics (throughput, p50/p95 latency, batch-size histogram, cache
    hit rate) and write a ``SERVE_*.json`` report (see docs/SERVING.md).

Every command accepts ``--scale {small,medium,paper}``; the default
follows the ``REPRO_SCALE`` environment variable.
"""

from __future__ import annotations

import argparse
import sys

from .nn.backend import xp as np

__all__ = ["main", "build_parser"]


def build_parser():
    """Construct the argparse parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ELDA reproduction command-line interface")
    parser.add_argument("--scale", choices=("small", "medium", "paper"),
                        default=None, help="protocol scale (default: "
                        "REPRO_SCALE env var, then 'small')")
    parser.add_argument("--debug-anomaly", action="store_true",
                        help="train under NaN/Inf anomaly detection: the "
                        "first non-finite forward value or gradient raises "
                        "naming the offending op")
    commands = parser.add_subparsers(dest="command", required=True)

    stats = commands.add_parser("stats", help="print dataset statistics")
    stats.add_argument("--cohort", default="physionet2012",
                       choices=("physionet2012", "mimic3"))
    stats.add_argument("--shards", default=None, metavar="DIR",
                       help="print statistics for a sharded store "
                       "(manifest metadata only, no array loads)")

    shard = commands.add_parser(
        "shard", help="generate a deterministic sharded cohort store")
    shard.add_argument("--out", required=True, metavar="DIR",
                       help="destination store directory (must not "
                       "already hold a manifest.json)")
    shard.add_argument("--cohort", default="physionet2012",
                       choices=("physionet2012", "mimic3"))
    shard.add_argument("--admissions", type=int, required=True,
                       help="total cohort size")
    shard.add_argument("--shard-size", type=int, default=4096,
                       help="admissions per shard (last may be short)")
    shard.add_argument("--seed", type=int, default=0)
    shard.add_argument("--workers", type=int, default=1,
                       help="generation worker processes (any count "
                       "yields byte-identical shards)")
    shard.add_argument("--dtype", default="float32",
                       choices=("float32", "float64"),
                       help="on-disk dtype of the raw value arrays")

    train = commands.add_parser("train", help="train one model")
    train.add_argument("--model", default="ELDA-Net")
    train.add_argument("--cohort", default="physionet2012",
                       choices=("physionet2012", "mimic3"))
    train.add_argument("--shards", default=None, metavar="DIR",
                       help="train out-of-core from a sharded store "
                       "(overrides --cohort; see `repro shard`)")
    train.add_argument("--val-shards", type=int, default=1, metavar="K",
                       help="with --shards, hold out the last K shards "
                       "as the validation split")
    train.add_argument("--task", default="mortality",
                       choices=("mortality", "los"))
    train.add_argument("--epochs", type=int, default=None,
                       help="override the scale preset's epoch budget")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--save", default=None, metavar="PATH",
                       help="save trained weights to an .npz file")
    train.add_argument("--run-dir", default=None, metavar="DIR",
                       help="durable run directory: config.json, "
                       "metrics.jsonl, and checkpoints/ (enables --resume)")
    train.add_argument("--resume", action="store_true",
                       help="resume from DIR/checkpoints/last (weights, "
                       "optimizer moments, RNG state, epoch counter)")
    train.add_argument("--checkpoint-every", type=int, default=0,
                       metavar="K", help="with --run-dir, keep a permanent "
                       "checkpoint every K epochs (0 = last/best only)")

    compare = commands.add_parser("compare", help="compare several models")
    compare.add_argument("--models", nargs="+",
                         default=["LR", "GRU", "Dipole_l", "ELDA-Net"])
    compare.add_argument("--cohort", default="physionet2012",
                         choices=("physionet2012", "mimic3"))
    compare.add_argument("--task", default="mortality",
                         choices=("mortality", "los"))

    interpret = commands.add_parser(
        "interpret", help="print Patient A's attention grid")
    interpret.add_argument("--hour", type=int, default=13)
    interpret.add_argument("--epochs", type=int, default=None)

    bench = commands.add_parser(
        "bench", help="profile a training run per-op and write BENCH_*.json")
    bench.add_argument("--model", default="GRU")
    bench.add_argument("--task", default="mortality",
                       choices=("mortality", "los"))
    bench.add_argument("--epochs", type=int, default=2)
    bench.add_argument("--admissions", type=int, default=64)
    bench.add_argument("--batch-size", type=int, default=32)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--shards", default=None, metavar="DIR",
                       help="benchmark out-of-core training from a "
                       "sharded store (throughput + peak RSS; no "
                       "per-op profiler)")
    bench.add_argument("--val-shards", type=int, default=1, metavar="K",
                       help="with --shards, validation shards to hold out")
    bench.add_argument("--streaming", action="store_true",
                       help="benchmark streaming inference (full prefix "
                            "recompute vs StreamingSession.step per "
                            "observation) instead of training")
    bench.add_argument("--capture", action="store_true",
                       help="benchmark inference graph capture instead of "
                            "training: eager vs replay latency at several "
                            "batch sizes")
    bench.add_argument("--batch-sizes", default="1,32,64", metavar="LIST",
                       help="comma-separated forward batch sizes for the "
                            "--capture lane")
    bench.add_argument("--repeats", type=int, default=30,
                       help="timed iterations per --capture lane")
    bench.add_argument("--bucket", action="store_true",
                       help="enable length-bucketed batching (also flips "
                       "the model mask-aware so the scan stops at each "
                       "bucket's max length)")
    bench.add_argument("--dtype", default=None,
                       choices=("float32", "float64"),
                       help="precision policy for the run (default: the "
                       "ambient policy / REPRO_DTYPE, normally float32)")
    bench.add_argument("--sort", default="total",
                       choices=("total", "forward", "backward", "self",
                                "calls", "bytes"))
    bench.add_argument("--top", type=int, default=15,
                       help="rows to print (the JSON always has all ops)")
    bench.add_argument("--out", default=".", metavar="DIR",
                       help="directory for the BENCH_*.json report")
    bench.add_argument("--no-json", action="store_true",
                       help="print the table only, write no report")

    predict = commands.add_parser(
        "predict", help="print probabilities from a trained run directory")
    predict.add_argument("--run-dir", required=True, metavar="DIR",
                         help="run directory from `repro train --run-dir`")
    predict.add_argument("--checkpoint", default="best",
                         choices=("best", "last"),
                         help="which checkpoint's weights to serve")
    predict.add_argument("--cohort", default="physionet2012",
                         choices=("physionet2012", "mimic3"))
    predict.add_argument("--split", default="test",
                         choices=("train", "validation", "test"))
    predict.add_argument("--capture", nargs="?", const="on",
                         choices=("on", "off", "auto"), default="auto",
                         help="captured graph replay: 'on'/'off' force and "
                              "persist the preference into the run dir; "
                              "'auto' (default) restores the run dir's "
                              "setting; bare --capture means 'on'")
    predict.add_argument("--limit", type=int, default=10, metavar="N",
                         help="print at most N rows (0 = all)")

    serve = commands.add_parser(
        "serve", help="micro-batched serving demo over a trained run dir")
    serve.add_argument("--run-dir", required=True, metavar="DIR",
                       help="run directory from `repro train --run-dir`")
    serve.add_argument("--checkpoint", default="best",
                       choices=("best", "last"))
    serve.add_argument("--requests", type=int, default=256,
                       help="total requests to serve")
    serve.add_argument("--clients", type=int, default=8,
                       help="concurrent client threads")
    serve.add_argument("--pool", type=int, default=64,
                       help="distinct admissions in the request stream "
                       "(repeats exercise the preprocessing cache)")
    serve.add_argument("--max-batch-size", type=int, default=None,
                       help="ServeConfig.max_batch_size (default: the run "
                            "dir's persisted serve block)")
    serve.add_argument("--max-wait-ms", type=float, default=None,
                       help="ServeConfig.max_wait_ms (default: persisted)")
    serve.add_argument("--capture", nargs="?", const="on",
                       choices=("on", "off", "auto"), default="auto",
                       help="captured graph replay: 'on'/'off' force and "
                            "persist the preference into the run dir; "
                            "'auto' (default) restores the run dir's "
                            "setting; bare --capture means 'on'")
    serve.add_argument("--cache-capacity", type=int, default=None,
                       help="ServeConfig.cache_capacity (default: persisted)")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--baseline", action="store_true",
                       help="also time the single-request path and "
                       "report the micro-batching speedup")
    serve.add_argument("--out", default=None, metavar="DIR",
                       help="directory for the SERVE_*.json report "
                            "(default: the run directory)")
    serve.add_argument("--no-json", action="store_true",
                       help="print the summary only, write no report")

    loadtest = commands.add_parser(
        "loadtest", help="drive a replica pool and report latency "
                         "percentiles + throughput")
    loadtest.add_argument("--run-dir", required=True, metavar="DIR",
                          help="run directory from `repro train --run-dir`")
    loadtest.add_argument("--checkpoint", default="best",
                          choices=("best", "last"))
    loadtest.add_argument("--workers", type=int, default=None,
                          help="ServeConfig.workers: replica pool size "
                               "(default: the run dir's persisted serve "
                               "block)")
    loadtest.add_argument("--max-batch-size", type=int, default=None,
                          help="ServeConfig.max_batch_size (default: "
                               "persisted)")
    loadtest.add_argument("--deadline-ms", type=float, default=None,
                          help="ServeConfig.deadline_ms: per-request "
                               "deadline (default: persisted / disabled)")
    loadtest.add_argument("--queue-depth", type=int, default=None,
                          help="ServeConfig.queue_depth: in-flight bound "
                               "(default: persisted)")
    loadtest.add_argument("--cache-capacity", type=int, default=None,
                          help="ServeConfig.cache_capacity: per-worker "
                               "session store size (default: persisted)")
    loadtest.add_argument("--capture", nargs="?", const="on",
                          choices=("on", "off", "auto"), default="auto",
                          help="captured graph replay in the workers "
                               "('auto' restores the run dir's setting)")
    loadtest.add_argument("--requests", type=int, default=64,
                          help="stateless predict requests to send")
    loadtest.add_argument("--streams", type=int, default=8,
                          help="concurrent streaming admissions")
    loadtest.add_argument("--stream-steps", type=int, default=4,
                          help="observations per streaming admission")
    loadtest.add_argument("--concurrency", type=int, default=16,
                          help="client-side request concurrency")
    loadtest.add_argument("--max-seconds", type=float, default=120.0,
                          help="hard watchdog on the whole drive phase")
    loadtest.add_argument("--seed", type=int, default=0)
    loadtest.add_argument("--check-floor", default=None, metavar="PATH",
                          help="fail (exit 1) unless the report clears the "
                               "floor file (benchmarks/results/"
                               "pool_floor.json)")
    loadtest.add_argument("--out", default=None, metavar="DIR",
                          help="directory for the SERVE_*.json report "
                               "(default: the run directory)")
    loadtest.add_argument("--no-json", action="store_true",
                          help="print the summary only, write no report")

    return parser


def _config(args):
    from .experiments import default_config
    config = default_config(args.scale)
    if getattr(args, "epochs", None):
        config.max_epochs = args.epochs
    return config


def _print_statistics(out, title, statistics):
    out.write(f"[{title}]\n")
    for key, value in statistics.items():
        formatted = f"{value:.4f}" if isinstance(value, float) else value
        out.write(f"  {key:<28} {formatted}\n")


def _cmd_stats(args, out):
    from .data import load_cohort
    if args.shards:
        from .data import ShardedDataset
        store = ShardedDataset.open(args.shards)
        _print_statistics(out, f"shards {args.shards} "
                          f"({store.num_shards} shards)",
                          store.statistics())
        return 0
    splits = load_cohort(args.cohort, scale=args.scale)
    for split_name, dataset in (("train", splits.train),
                                ("validation", splits.validation),
                                ("test", splits.test)):
        _print_statistics(out, f"{args.cohort} / {split_name}",
                          dataset.statistics())
    return 0


def _cmd_shard(args, out):
    from time import perf_counter

    from .data import generate_shards

    started = perf_counter()
    store = generate_shards(args.out, args.admissions, cohort=args.cohort,
                            shard_size=args.shard_size, seed=args.seed,
                            num_workers=args.workers, dtype=args.dtype)
    elapsed = perf_counter() - started
    total_bytes = sum(meta["bytes"] for entry in store.entries
                      for meta in entry["files"].values())
    out.write(f"sharded {args.cohort} cohort written to {args.out}\n")
    out.write(f"  admissions    : {len(store)}\n")
    out.write(f"  shards        : {store.num_shards} "
              f"(shard size {args.shard_size})\n")
    out.write(f"  dtype         : {args.dtype}\n")
    out.write(f"  seed          : {args.seed}\n")
    out.write(f"  bytes on disk : {total_bytes}\n")
    out.write(f"  generation    : {elapsed:.1f} s "
              f"({1e3 * elapsed / max(1, len(store)):.3f} ms/admission, "
              f"{args.workers} worker(s))\n")
    return 0


def _cmd_train(args, out):
    from .baselines import build_model
    from .data import NUM_FEATURES, load_cohort
    from .nn.serialization import save_weights
    from .train import Trainer

    if args.resume and not args.run_dir:
        raise SystemExit("--resume requires --run-dir")
    config = _config(args)
    if args.shards:
        # Out-of-core path: train/validation are shard views streamed by
        # the ShardedDataLoader; the held-out validation view doubles as
        # the reported test split (a sharded store has no 80/10/10).
        from .data import ShardedDataset
        store = ShardedDataset.open(args.shards)
        train_data, val_data = store.split(val_shards=args.val_shards)
        test_data = val_data
        standardizer = train_data.standardizer
        num_features = store.num_features
        source = f"shards:{args.shards}"
    else:
        splits = load_cohort(args.cohort, scale=args.scale,
                             fractions=config.fractions)
        train_data, val_data = splits.train, splits.validation
        test_data = splits.test
        standardizer = splits.standardizer
        num_features = NUM_FEATURES
        source = args.cohort
    model = build_model(args.model, num_features,
                        np.random.default_rng(args.seed))
    run_kwargs = {}
    if args.run_dir:
        run_kwargs = dict(run_dir=args.run_dir,
                          checkpoint_every=args.checkpoint_every)
    trainer = Trainer(model, args.task, anomaly_mode=args.debug_anomaly,
                      **run_kwargs, **config.trainer_kwargs(args.seed))
    if args.resume:
        history = trainer.fit(train_data, val_data, resume=True)
    else:
        history = trainer.fit(train_data, val_data)
    metrics = trainer.evaluate(test_data)
    out.write(f"{args.model} on {source}/{args.task}: "
              f"{history.num_epochs} epochs "
              f"(best {history.best_epoch})\n")
    if args.run_dir:
        # Persist the train-split preprocessing statistics next to the
        # checkpoints so `repro serve` can score raw admissions through
        # the exact training pipeline (repro.serve.PreprocessCache).
        from pathlib import Path
        standardizer.save(Path(args.run_dir) / "standardizer.npz")
        out.write(f"  run dir : {args.run_dir}\n")
    out.write(f"  params  : {model.num_parameters()}\n")
    out.write(f"  BCE     : {metrics['bce']:.4f}\n")
    out.write(f"  AUC-ROC : {metrics['auc_roc']:.4f}\n")
    out.write(f"  AUC-PR  : {metrics['auc_pr']:.4f}\n")
    if args.save:
        save_weights(model, args.save)
        out.write(f"  weights saved to {args.save}\n")
    return 0


def _cmd_compare(args, out):
    from .experiments import format_metric, render_table, run_grid
    config = _config(args)
    results = run_grid(tuple(args.models), args.cohort, args.task, config)
    rows = [[name, str(m["params"]), format_metric(m["bce"]),
             format_metric(m["auc_roc"]), format_metric(m["auc_pr"])]
            for name, m in results.items()]
    out.write(render_table(
        ["model", "params", "BCE", "AUC-ROC", "AUC-PR"], rows,
        title=f"{args.cohort} / {args.task}") + "\n")
    return 0


def _cmd_interpret(args, out):
    from .experiments import (ESSENTIAL_FEATURES, patient_a_processed,
                              trained_model)
    from .core.interpret import feature_attention_at

    config = _config(args)
    model, splits, metrics = trained_model("ELDA-Net", "physionet2012",
                                           "mortality", config, seed=0)
    values, ever_observed, _ = patient_a_processed(splits.standardizer)
    grid, names = feature_attention_at(model, values, ever_observed,
                                       args.hour,
                                       features=ESSENTIAL_FEATURES)
    out.write(f"Patient A feature-level attention at hour {args.hour} "
              f"(model AUC-ROC {metrics['auc_roc']:.3f}):\n")
    width = max(len(n) for n in names)
    out.write(" " * (width + 2)
              + "  ".join(f"{n:>7}" for n in names) + "\n")
    for i, name in enumerate(names):
        row = "  ".join(f"{grid[i, j] * 100:6.1f}%"
                        for j in range(len(names)))
        out.write(f"{name:<{width}}  {row}\n")
    return 0


def _cmd_bench(args, out):
    from .bench.runner import benchmark_training

    if args.shards:
        return _cmd_bench_shards(args, out)
    if args.capture:
        return _cmd_bench_capture(args, out)
    if args.streaming:
        return _cmd_bench_streaming(args, out)
    result = benchmark_training(
        model_name=args.model, task=args.task, epochs=args.epochs,
        num_admissions=args.admissions, batch_size=args.batch_size,
        seed=args.seed, bucket_by_length=args.bucket, dtype=args.dtype)
    profiler = result["profiler"]
    config = result["config"]
    batching = "bucketed" if args.bucket else "padded"
    out.write(f"{args.model} on synthetic/{args.task}: "
              f"{config['epochs']} epochs, batch {config['batch_size']} "
              f"({batching}), {config['dtype']}\n")
    out.write(f"  params        : {config['num_parameters']}\n")
    out.write(f"  sec/batch     : {result['seconds_per_batch']:.4f}\n")
    out.write(f"  steps/sec     : {result['steps_per_sec']:.2f}\n")
    out.write(f"  bytes/step    : {config['allocated_bytes_per_step']}\n")
    out.write(f"  peak grad     : {config['peak_grad_bytes']} bytes\n\n")
    out.write(profiler.table(sort_by=args.sort, limit=args.top) + "\n")
    if not args.no_json:
        extra = dict(config)
        extra["steps_per_sec"] = result["steps_per_sec"]
        extra["seconds_per_batch"] = result["seconds_per_batch"]
        path = profiler.save(directory=args.out, extra=extra)
        out.write(f"\nreport written to {path}\n")
    return 0


def _cmd_bench_capture(args, out):
    """``repro bench --capture``: eager vs replay inference latency.

    Captures one graph per batch size, checks bit-identity against the
    eager forward, and reports median steady-state latency per path.
    """
    import json
    import time
    from pathlib import Path

    from .bench.report import _slug
    from .bench.runner import benchmark_capture

    batch_sizes = tuple(int(b) for b in str(args.batch_sizes).split(",") if b)
    result = benchmark_capture(
        model_name=args.model, num_admissions=args.admissions,
        seed=args.seed, batch_sizes=batch_sizes, repeats=args.repeats,
        dtype=args.dtype)
    config = result["config"]
    out.write(f"{args.model} inference capture ({config['dtype']}, "
              f"{config['captured_thunks']} replay thunks for "
              f"{config['captured_steps']} traced ops)\n")
    out.write("  batch    eager ms   replay ms   speedup\n")
    for batch_size, lane in sorted(result["lanes"].items()):
        out.write(f"  {batch_size:>5}  {lane['eager_seconds'] * 1e3:9.3f}  "
                  f"{lane['replay_seconds'] * 1e3:10.3f}  "
                  f"{lane['speedup']:6.2f}x\n")
    if not args.no_json:
        stamp = time.strftime("%Y%m%d-%H%M%S")
        payload = dict(config)
        payload["lanes"] = {str(k): v for k, v in result["lanes"].items()}
        payload["created"] = stamp
        directory = Path(args.out)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"BENCH_capture-{_slug(args.model)}_{stamp}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        out.write(f"report written to {path}\n")
    return 0


def _cmd_bench_streaming(args, out):
    """``repro bench --streaming``: recompute vs streaming step latency.

    Verifies bit-identity at every prefix first, then times both lanes
    over the same observations.
    """
    import json
    import time
    from pathlib import Path

    from .bench.report import _slug
    from .bench.runner import benchmark_streaming

    result = benchmark_streaming(
        model_name=args.model, num_admissions=args.admissions,
        seed=args.seed, repeats=args.repeats, dtype=args.dtype)
    config = result["config"]
    mode = "native state" if result["native"] else "exact prefix replay"
    out.write(f"{args.model} streaming inference ({config['dtype']}, "
              f"{config['num_steps']} steps, {mode})\n")
    out.write(f"  recompute/step: "
              f"{result['recompute_seconds_per_step'] * 1e3:.3f} ms\n")
    out.write(f"  streaming/step: "
              f"{result['streaming_seconds_per_step'] * 1e3:.3f} ms\n")
    out.write(f"  speedup       : {result['speedup']:.2f}x\n")
    if not args.no_json:
        stamp = time.strftime("%Y%m%d-%H%M%S")
        payload = dict(config)
        payload.update(
            native=result["native"],
            recompute_seconds_per_step=result["recompute_seconds_per_step"],
            streaming_seconds_per_step=result["streaming_seconds_per_step"],
            speedup=result["speedup"],
            created=stamp,
        )
        directory = Path(args.out)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"BENCH_streaming-{_slug(args.model)}_{stamp}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        out.write(f"report written to {path}\n")
    return 0


def _cmd_bench_shards(args, out):
    """``repro bench --shards DIR``: out-of-core throughput + peak RSS.

    The per-op profiler stays off here — its bookkeeping would inflate
    both timings and the resident-set high-water mark that the sharded
    benchmark exists to measure.
    """
    import json
    import time
    from pathlib import Path

    from .bench.report import _slug
    from .bench.runner import benchmark_sharded_training

    result = benchmark_sharded_training(
        shards_dir=args.shards, model_name=args.model, task=args.task,
        epochs=args.epochs, batch_size=args.batch_size, seed=args.seed,
        val_shards=args.val_shards, bucket_by_length=args.bucket,
        dtype=args.dtype)
    config = result["config"]
    out.write(f"{args.model} on {args.shards}/{args.task}: "
              f"{config['epochs']} epoch(s), batch {config['batch_size']} "
              f"({'bucketed' if args.bucket else 'padded'}), "
              f"{config['dtype']}, streaming\n")
    out.write(f"  admissions    : {config['num_admissions']} "
              f"({config['num_shards']} shards, "
              f"{config['val_shards']} held out)\n")
    out.write(f"  params        : {config['num_parameters']}\n")
    out.write(f"  open          : {result['open_seconds']:.2f} s\n")
    out.write(f"  fit           : {result['fit_seconds']:.1f} s\n")
    out.write(f"  sec/batch     : {result['seconds_per_batch']:.4f}\n")
    out.write(f"  steps/sec     : {result['steps_per_sec']:.2f}\n")
    out.write(f"  peak RSS      : {result['max_rss_bytes'] / 2**20:.1f} "
              "MiB\n")
    if not args.no_json:
        stamp = time.strftime("%Y%m%d-%H%M%S")
        payload = dict(config)
        payload.update(
            steps_per_sec=result["steps_per_sec"],
            seconds_per_batch=result["seconds_per_batch"],
            open_seconds=result["open_seconds"],
            fit_seconds=result["fit_seconds"],
            max_rss_bytes=result["max_rss_bytes"],
            created=stamp,
        )
        directory = Path(args.out)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"BENCH_shards-{_slug(args.model)}_{stamp}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        out.write(f"report written to {path}\n")
    return 0


def _capture_override(value):
    """Map the tri-state ``--capture {on,off,auto}`` flag to bool-or-None."""
    return {"on": True, "off": False, "auto": None}[value]


def _serve_config_overrides(args, *fields):
    """ServeConfig overrides explicitly given on the command line.

    Flags default to ``None`` so the run directory's persisted ``serve``
    block stays authoritative unless the user says otherwise; the
    tri-state ``--capture`` contributes only when not ``auto``.
    """
    overrides = {name: getattr(args, name) for name in fields
                 if getattr(args, name) is not None}
    capture = _capture_override(args.capture)
    if capture is not None:
        overrides["capture"] = capture
    return overrides


def _resolve_serve_config(args, *fields):
    """The effective ServeConfig for a run-dir command, or ``None``.

    ``None`` means "no explicit choice" — ``Predictor.load`` (and the
    pool) then restore the persisted block without rewriting it.
    """
    from .serve import ServeConfig

    overrides = _serve_config_overrides(args, *fields)
    if not overrides:
        return None
    return ServeConfig.from_run_dir(args.run_dir).replace(**overrides)


def _cmd_predict(args, out):
    from .data import load_cohort
    from .serve import Predictor

    predictor = Predictor.load(args.run_dir, checkpoint=args.checkpoint,
                               config=_resolve_serve_config(args))
    splits = load_cohort(args.cohort, scale=args.scale)
    dataset = getattr(splits, args.split)
    probabilities = predictor.predict_proba(dataset)
    labels = predictor.predict(dataset)
    spec = predictor.spec
    out.write(f"{spec.name if spec else '?'} from {args.run_dir} "
              f"({args.checkpoint} checkpoint) on "
              f"{args.cohort}/{args.split}: {len(dataset)} admissions\n")
    limit = len(dataset) if args.limit == 0 else min(args.limit, len(dataset))
    for i in range(limit):
        if probabilities.ndim == 1:
            out.write(f"  admission {i:>4}  p={probabilities[i]:.6f}  "
                      f"label={labels[i]}\n")
        else:
            row = " ".join(f"{p:.4f}" for p in probabilities[i])
            out.write(f"  admission {i:>4}  p=[{row}]  label={labels[i]}\n")
    if limit < len(dataset):
        out.write(f"  ... ({len(dataset) - limit} more; --limit 0 for all)\n")
    return 0


def _cmd_serve(args, out):
    import threading
    from pathlib import Path
    from time import perf_counter

    from .data import SyntheticEMRGenerator
    from .data.preprocess import Standardizer
    from .serve import MicroBatcher, Predictor, PreprocessCache, ServeMetrics

    metrics = ServeMetrics(label=f"serve-{Path(args.run_dir).name}")
    predictor = Predictor.load(
        args.run_dir, checkpoint=args.checkpoint, metrics=metrics,
        config=_resolve_serve_config(args, "max_batch_size", "max_wait_ms",
                                     "cache_capacity"))
    standardizer_path = Path(args.run_dir) / "standardizer.npz"
    if not standardizer_path.exists():
        raise SystemExit(f"no standardizer.npz under {args.run_dir}; "
                         "re-train with `repro train --run-dir` to produce "
                         "a servable run directory")
    cache = PreprocessCache(Standardizer.load(standardizer_path),
                            predictor.config, metrics=metrics)

    # Synthetic request stream: `--requests` lookups cycling over a pool
    # of `--pool` distinct admissions (repeat traffic -> cache hits).
    generator = SyntheticEMRGenerator()
    pool = generator.sample_many(args.pool,
                                 np.random.default_rng(args.seed))
    request_ids = [i % args.pool for i in range(args.requests)]

    single_seconds = None
    if args.baseline:
        probe = [cache.get(i, pool[i].values) for i in range(args.pool)]
        started = perf_counter()
        for row in probe:
            predictor.predict_logits(row)
        single_seconds = (perf_counter() - started) / len(probe)

    spec = predictor.spec
    serve_config = predictor.config
    out.write(f"serving {spec.name if spec else '?'} from {args.run_dir}: "
              f"{args.requests} requests, {args.clients} clients, "
              f"max batch {serve_config.max_batch_size}, "
              f"max wait {serve_config.max_wait_ms:.1f} ms\n")

    errors = []
    started = perf_counter()
    with MicroBatcher(predictor, serve_config, metrics=metrics) as batcher:
        def client(worker_index):
            for request_index in range(worker_index, args.requests,
                                       args.clients):
                admission_id = request_ids[request_index]
                try:
                    row = cache.get(admission_id,
                                    pool[admission_id].values)
                    batcher.predict_proba(row, timeout=60)
                except Exception as error:  # surfaced after the run
                    errors.append(error)
                    return

        threads = [threading.Thread(target=client, args=(k,))
                   for k in range(args.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    elapsed = perf_counter() - started
    if errors:
        raise SystemExit(f"serving failed: {errors[0]!r}")

    throughput = args.requests / elapsed
    out.write(metrics.table() + "\n")
    out.write(f"throughput      : {throughput:.1f} req/s\n")
    extra = {
        "run_dir": str(args.run_dir),
        "model": spec.name if spec else None,
        "requests": args.requests,
        "clients": args.clients,
        "max_batch_size": serve_config.max_batch_size,
        "max_wait_ms": serve_config.max_wait_ms,
        "throughput_req_per_sec": throughput,
    }
    if single_seconds is not None:
        speedup = throughput * single_seconds
        out.write(f"single-request  : {1.0 / single_seconds:.1f} req/s "
                  f"(micro-batching speedup {speedup:.1f}x)\n")
        extra["single_request_req_per_sec"] = 1.0 / single_seconds
        extra["speedup"] = speedup
    if not args.no_json:
        path = metrics.save(directory=args.out or args.run_dir,
                            extra=extra)
        out.write(f"report written to {path}\n")
    return 0


def _cmd_loadtest(args, out):
    from .serve import check_floor, run_loadtest

    config = _resolve_serve_config(
        args, "workers", "max_batch_size", "deadline_ms", "queue_depth",
        "cache_capacity")
    report = run_loadtest(
        args.run_dir, checkpoint=args.checkpoint, config=config,
        num_requests=args.requests, num_streams=args.streams,
        stream_steps=args.stream_steps, concurrency=args.concurrency,
        max_seconds=args.max_seconds, seed=args.seed,
        out_dir=None if args.no_json else args.out or args.run_dir)

    latency = report["latency_ms"]
    workers = report["workers"]
    out.write(f"loadtest over {args.run_dir}: {report['requests']} predicts "
              f"+ {report['stream_sessions']} streams x "
              f"{args.stream_steps} steps, "
              f"{workers['configured']} workers\n")
    out.write(f"  p50 latency   : {latency['p50']:.2f} ms\n")
    out.write(f"  p95 latency   : {latency['p95']:.2f} ms\n")
    out.write(f"  p99 latency   : {latency['p99']:.2f} ms\n")
    out.write(f"  throughput    : {report['throughput_rps']:.1f} req/s\n")
    out.write(f"  worker pids   : {len(workers['observed_pids'])} of "
              f"{len(workers['pids'])} answered "
              f"({' '.join(str(p) for p in workers['observed_pids'])})\n")
    if report["deadline_misses"]:
        out.write(f"  deadline miss : {report['deadline_misses']}\n")
    if report["errors"]:
        out.write(f"  errors        : {len(report['errors'])} "
                  f"(first: {report['errors'][0]})\n")
    if "report_path" in report:
        out.write(f"report written to {report['report_path']}\n")
    if args.check_floor:
        violations = check_floor(report, args.check_floor)
        if violations:
            for violation in violations:
                out.write(f"FLOOR VIOLATION: {violation}\n")
            return 1
        out.write(f"floor {args.check_floor} holds\n")
    return 0


_COMMANDS = {
    "stats": _cmd_stats,
    "shard": _cmd_shard,
    "train": _cmd_train,
    "compare": _cmd_compare,
    "interpret": _cmd_interpret,
    "bench": _cmd_bench,
    "predict": _cmd_predict,
    "serve": _cmd_serve,
    "loadtest": _cmd_loadtest,
}


def main(argv=None, out=None):
    """CLI entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args, out)


if __name__ == "__main__":
    raise SystemExit(main())
