"""Tests of the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_scale(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--scale", "galactic", "stats"])

    def test_parses_train_options(self):
        args = build_parser().parse_args(
            ["train", "--model", "GRU", "--task", "los", "--epochs", "2"])
        assert args.model == "GRU"
        assert args.task == "los"
        assert args.epochs == 2

    def test_compare_models_list(self):
        args = build_parser().parse_args(
            ["compare", "--models", "LR", "FM"])
        assert args.models == ["LR", "FM"]

    def test_debug_anomaly_defaults_off(self):
        args = build_parser().parse_args(["train", "--model", "LR"])
        assert args.debug_anomaly is False

    def test_debug_anomaly_parses(self):
        args = build_parser().parse_args(
            ["--debug-anomaly", "train", "--model", "LR"])
        assert args.debug_anomaly is True


class TestCommands:
    def test_stats_prints_all_splits(self):
        out = io.StringIO()
        code = main(["stats", "--cohort", "physionet2012"], out=out)
        text = out.getvalue()
        assert code == 0
        assert "[physionet2012 / train]" in text
        assert "[physionet2012 / test]" in text
        assert "missing_rate" in text

    def test_train_lr_end_to_end(self, tmp_path):
        out = io.StringIO()
        weights = tmp_path / "lr.npz"
        code = main(["train", "--model", "LR", "--epochs", "1",
                     "--save", str(weights)], out=out)
        text = out.getvalue()
        assert code == 0
        assert "AUC-ROC" in text
        assert "params  : 38" in text
        assert weights.exists()

    def test_compare_prints_table(self):
        out = io.StringIO()
        code = main(["compare", "--models", "LR", "FM"], out=out)
        text = out.getvalue()
        assert code == 0
        assert "LR" in text and "FM" in text and "AUC-PR" in text


class TestAnomalyPlumbing:
    def test_debug_anomaly_reaches_the_trainer(self, monkeypatch):
        """--debug-anomaly must plumb through to Trainer(anomaly_mode=...)."""
        import types

        import repro.train

        captured = {}

        class RecordingTrainer:
            def __init__(self, model, task, **kwargs):
                captured.update(kwargs, task=task)

            def fit(self, train, validation):
                return types.SimpleNamespace(num_epochs=0, best_epoch=-1)

            def evaluate(self, dataset):
                return {"bce": 0.0, "auc_roc": 0.5, "auc_pr": 0.5}

        monkeypatch.setattr(repro.train, "Trainer", RecordingTrainer)
        code = main(["--debug-anomaly", "train", "--model", "LR"],
                    out=io.StringIO())
        assert code == 0
        assert captured["anomaly_mode"] is True

        captured.clear()
        main(["train", "--model", "LR"], out=io.StringIO())
        assert captured["anomaly_mode"] is False


class TestInterpretParser:
    def test_parses_hour(self):
        args = build_parser().parse_args(["interpret", "--hour", "35"])
        assert args.hour == 35
        assert args.command == "interpret"


class TestServingCommands:
    @pytest.fixture(scope="class")
    def trained_run_dir(self, tmp_path_factory):
        run_dir = tmp_path_factory.mktemp("cli-serve") / "run"
        code = main(["train", "--model", "GRU", "--epochs", "1",
                     "--run-dir", str(run_dir)], out=io.StringIO())
        assert code == 0
        return run_dir

    def test_parses_predict_and_serve_options(self):
        args = build_parser().parse_args(
            ["predict", "--run-dir", "runs/x", "--checkpoint", "last",
             "--limit", "3"])
        assert (args.run_dir, args.checkpoint, args.limit) \
            == ("runs/x", "last", 3)
        args = build_parser().parse_args(
            ["serve", "--run-dir", "runs/x", "--requests", "32",
             "--clients", "4", "--max-batch-size", "8"])
        assert (args.requests, args.clients, args.max_batch_size) \
            == (32, 4, 8)

    def test_predict_and_serve_require_run_dir(self):
        for command in ("predict", "serve"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command])

    def test_train_persists_the_standardizer(self, trained_run_dir):
        assert (trained_run_dir / "standardizer.npz").exists()
        assert (trained_run_dir / "config.json").exists()

    def test_predict_prints_probabilities(self, trained_run_dir):
        out = io.StringIO()
        code = main(["predict", "--run-dir", str(trained_run_dir),
                     "--limit", "4"], out=out)
        text = out.getvalue()
        assert code == 0
        assert "GRU" in text
        assert text.count("p=") == 4

    def test_serve_reports_metrics(self, trained_run_dir, tmp_path):
        out = io.StringIO()
        code = main(["serve", "--run-dir", str(trained_run_dir),
                     "--requests", "48", "--clients", "4", "--pool", "8",
                     "--max-batch-size", "8", "--no-json"], out=out)
        text = out.getvalue()
        assert code == 0
        assert "requests        : 48" in text
        assert "cache hit rate" in text
        assert "throughput" in text

    def test_serve_writes_a_report(self, trained_run_dir, tmp_path):
        code = main(["serve", "--run-dir", str(trained_run_dir),
                     "--requests", "16", "--clients", "2", "--pool", "4",
                     "--out", str(tmp_path)], out=io.StringIO())
        assert code == 0
        reports = list(tmp_path.glob("SERVE_*.json"))
        assert len(reports) == 1

    def test_serve_without_standardizer_exits(self, trained_run_dir,
                                              tmp_path):
        import shutil
        broken = tmp_path / "broken"
        shutil.copytree(trained_run_dir, broken)
        (broken / "standardizer.npz").unlink()
        with pytest.raises(SystemExit, match="standardizer"):
            main(["serve", "--run-dir", str(broken), "--requests", "4"],
                 out=io.StringIO())


class TestShardCommands:
    def test_parses_shard_options(self):
        args = build_parser().parse_args(
            ["shard", "--out", "store", "--admissions", "100",
             "--shard-size", "25", "--workers", "2", "--seed", "9"])
        assert (args.out, args.admissions, args.shard_size,
                args.workers, args.seed) == ("store", 100, 25, 2, 9)
        with pytest.raises(SystemExit):   # --admissions is required
            build_parser().parse_args(["shard", "--out", "store"])

    def test_shard_generates_a_store(self, tmp_path):
        out = io.StringIO()
        store = tmp_path / "store"
        code = main(["shard", "--out", str(store), "--admissions", "48",
                     "--shard-size", "16", "--seed", "5"], out=out)
        text = out.getvalue()
        assert code == 0
        assert (store / "manifest.json").exists()
        assert "admissions    : 48" in text
        assert "shards        : 3" in text

    def test_stats_reads_manifest_metadata(self, shard_store):
        out = io.StringIO()
        code = main(["stats", "--shards", str(shard_store)], out=out)
        text = out.getvalue()
        assert code == 0
        assert "6 shards" in text
        assert "admissions                   96" in text
        assert "missing_rate" in text

    def test_train_streams_from_shards(self, shard_store, tmp_path):
        run_dir = tmp_path / "run"
        out = io.StringIO()
        code = main(["train", "--model", "LR", "--epochs", "1",
                     "--shards", str(shard_store),
                     "--run-dir", str(run_dir)], out=out)
        text = out.getvalue()
        assert code == 0
        assert "shards:" in text
        assert "AUC-ROC" in text
        # The persisted standardizer is the train view's (leak-free).
        assert (run_dir / "standardizer.npz").exists()

    def test_bench_reports_peak_rss_and_writes_json(self, shard_store,
                                                    tmp_path):
        out = io.StringIO()
        code = main(["bench", "--model", "LR", "--epochs", "1",
                     "--shards", str(shard_store), "--batch-size", "32",
                     "--out", str(tmp_path)], out=out)
        text = out.getvalue()
        assert code == 0
        assert "peak RSS" in text
        assert "steps/sec" in text
        reports = list(tmp_path.glob("BENCH_shards-LR_*.json"))
        assert len(reports) == 1
        import json
        payload = json.loads(reports[0].read_text())
        assert payload["num_admissions"] == 96
        assert payload["max_rss_bytes"] > 0


class TestRunDirAndResume:
    def test_parses_run_dir_and_resume(self):
        args = build_parser().parse_args(
            ["train", "--run-dir", "runs/x", "--resume"])
        assert args.run_dir == "runs/x"
        assert args.resume is True

    def test_resume_defaults_off(self):
        args = build_parser().parse_args(["train"])
        assert args.resume is False
        assert args.run_dir is None

    def test_resume_without_run_dir_exits(self):
        with pytest.raises(SystemExit):
            main(["train", "--model", "LR", "--resume"], out=io.StringIO())

    def test_run_dir_leaves_artifacts_and_resumes(self, tmp_path):
        run_dir = tmp_path / "run"
        out = io.StringIO()
        code = main(["train", "--model", "LR", "--epochs", "2",
                     "--run-dir", str(run_dir)], out=out)
        assert code == 0
        assert "run dir" in out.getvalue()
        assert (run_dir / "config.json").exists()
        assert (run_dir / "metrics.jsonl").exists()
        assert (run_dir / "checkpoints" / "last" / "weights.npz").exists()

        out = io.StringIO()
        code = main(["train", "--model", "LR", "--epochs", "4",
                     "--run-dir", str(run_dir), "--resume"], out=out)
        assert code == 0
        assert "4 epochs" in out.getvalue()
        lines = (run_dir / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 4  # 2 original + 2 resumed


class TestRetiredCaptureFlags:
    """Serving has one eager forward; the flags that chose a captured
    one fail loudly instead of being silently accepted."""

    @pytest.mark.parametrize("argv", [
        ["predict", "--run-dir", "runs/x", "--capture"],
        ["serve", "--run-dir", "runs/x", "--capture"],
        ["loadtest", "--run-dir", "runs/x", "--capture", "on"],
        ["bench", "--capture"],
        ["bench", "--batch-sizes", "1", "8"],
    ], ids=["predict", "serve", "loadtest", "bench", "bench-batch-sizes"])
    def test_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    @pytest.mark.parametrize("command", ["predict", "serve", "loadtest"])
    def test_parsed_args_carry_no_capture_choice(self, command):
        args = build_parser().parse_args([command, "--run-dir", "runs/x"])
        assert not hasattr(args, "capture")


class TestLoadtestCommand:
    @pytest.fixture(scope="class")
    def trained_run_dir(self, tmp_path_factory):
        run_dir = tmp_path_factory.mktemp("cli-loadtest") / "run"
        code = main(["train", "--model", "GRU", "--epochs", "1",
                     "--run-dir", str(run_dir)], out=io.StringIO())
        assert code == 0
        return run_dir

    def test_parses_loadtest_options(self):
        args = build_parser().parse_args(
            ["loadtest", "--run-dir", "runs/x", "--workers", "3",
             "--requests", "12", "--streams", "2", "--deadline-ms", "50",
             "--queue-depth", "9", "--check-floor", "floor.json"])
        assert (args.run_dir, args.workers, args.requests, args.streams) \
            == ("runs/x", 3, 12, 2)
        assert (args.deadline_ms, args.queue_depth, args.check_floor) \
            == (50.0, 9, "floor.json")

    def test_serve_config_flags_default_to_persisted(self):
        """Unset flags stay None so the run dir's serve block wins."""
        args = build_parser().parse_args(
            ["loadtest", "--run-dir", "runs/x"])
        assert args.workers is None
        assert args.max_batch_size is None
        assert args.cache_capacity is None
        serve_args = build_parser().parse_args(
            ["serve", "--run-dir", "runs/x"])
        assert serve_args.max_batch_size is None
        assert serve_args.max_wait_ms is None

    def test_loadtest_requires_run_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loadtest"])

    @pytest.mark.pool
    def test_loadtest_end_to_end_with_floor(self, trained_run_dir,
                                            tmp_path):
        floor_path = tmp_path / "floor.json"
        floor_path.write_text(
            '{"min_observed_workers": 2, "max_errors": 0}')
        out = io.StringIO()
        code = main(["loadtest", "--run-dir", str(trained_run_dir),
                     "--workers", "2", "--max-batch-size", "8",
                     "--requests", "8", "--streams", "2",
                     "--stream-steps", "2", "--concurrency", "4",
                     "--max-seconds", "60", "--out", str(tmp_path),
                     "--check-floor", str(floor_path)], out=out)
        text = out.getvalue()
        assert code == 0, text
        assert "p50 latency" in text
        assert "p99 latency" in text
        assert "throughput" in text
        assert "2 of 2 answered" in text
        assert f"floor {floor_path} holds" in text
        assert len(list(tmp_path.glob("SERVE_*.json"))) == 1

    @pytest.mark.pool
    def test_report_defaults_to_the_run_dir(self, trained_run_dir,
                                            tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        before = set(trained_run_dir.glob("SERVE_*.json"))
        code = main(["loadtest", "--run-dir", str(trained_run_dir),
                     "--workers", "1", "--requests", "4", "--streams", "0",
                     "--max-seconds", "60"], out=io.StringIO())
        assert code == 0
        assert not list(tmp_path.glob("SERVE_*.json"))
        assert len(set(trained_run_dir.glob("SERVE_*.json")) - before) == 1

    @pytest.mark.pool
    def test_floor_violation_fails_the_command(self, trained_run_dir,
                                               tmp_path):
        floor_path = tmp_path / "floor.json"
        floor_path.write_text('{"min_throughput_rps": 1e12}')
        out = io.StringIO()
        code = main(["loadtest", "--run-dir", str(trained_run_dir),
                     "--workers", "2", "--requests", "4", "--streams", "0",
                     "--max-seconds", "60", "--no-json",
                     "--check-floor", str(floor_path)], out=out)
        assert code == 1
        assert "FLOOR VIOLATION" in out.getvalue()
