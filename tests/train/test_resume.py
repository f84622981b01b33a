"""Kill-and-resume: a resumed run equals the uninterrupted one.

The checkpoint must carry weights, optimizer moments, shuffle-RNG
state, the epoch counter, and early-stopping state — restoring all of
them makes the continued run bit-identical to never having stopped.
"""

import json

import numpy as np
import pytest

from repro.baselines import GRUClassifier, LogisticRegression, build_model
from repro.data import NUM_FEATURES, SyntheticEMRGenerator, train_val_test_split
from repro.nn.schedules import StepDecay
from repro.train import Trainer


@pytest.fixture(scope="module")
def resume_splits():
    admissions = SyntheticEMRGenerator().sample_many(
        48, np.random.default_rng(123))
    return train_val_test_split(admissions, np.random.default_rng(124))


def _trainer(run_dir, max_epochs, **kwargs):
    kwargs.setdefault("monitor", "loss")
    model = GRUClassifier(NUM_FEATURES, np.random.default_rng(0),
                          hidden_size=8)
    return Trainer(model, "mortality", max_epochs=max_epochs, patience=10,
                   batch_size=16, seed=0, run_dir=str(run_dir), **kwargs)


class TestKillAndResume:
    def test_resumed_run_equals_uninterrupted(self, resume_splits, tmp_path):
        full = _trainer(tmp_path / "full", 6)
        history_full = full.fit(resume_splits.train, resume_splits.validation)
        metrics_full = full.evaluate(resume_splits.test)

        # "Kill" after 3 epochs, then resume with the full budget.
        part = _trainer(tmp_path / "part", 3)
        part.fit(resume_splits.train, resume_splits.validation)
        resumed = _trainer(tmp_path / "part", 6)
        history_resumed = resumed.fit(resume_splits.train,
                                      resume_splits.validation, resume=True)
        metrics_resumed = resumed.evaluate(resume_splits.test)

        assert history_full.train_loss == history_resumed.train_loss
        assert history_full.val_loss == history_resumed.val_loss
        assert history_full.best_epoch == history_resumed.best_epoch
        assert metrics_full == metrics_resumed
        full_weights = full.model.state_dict()
        resumed_weights = resumed.model.state_dict()
        for name in full_weights:
            np.testing.assert_array_equal(full_weights[name],
                                          resumed_weights[name])

    def test_optimizer_moments_round_trip(self, resume_splits, tmp_path):
        """Adam's m/v/step_count survive the checkpoint byte-for-byte."""
        trainer = _trainer(tmp_path / "run", 2)
        trainer.fit(resume_splits.train, resume_splits.validation)
        saved = trainer.optimizer.state_dict()

        fresh = _trainer(tmp_path / "run", 2)
        fresh.engine.resume()
        loaded = fresh.optimizer.state_dict()
        assert loaded["step_count"] == saved["step_count"]
        assert loaded["lr"] == saved["lr"]
        for slot in ("m", "v"):
            for a, b in zip(saved[slot], loaded[slot]):
                np.testing.assert_array_equal(a, b)

    def test_rng_state_round_trip(self, resume_splits, tmp_path):
        trainer = _trainer(tmp_path / "run", 2)
        trainer.fit(resume_splits.train, resume_splits.validation)
        state = trainer.engine.rng.bit_generator.state

        fresh = _trainer(tmp_path / "run", 2)
        fresh.engine.resume()
        assert fresh.engine.rng.bit_generator.state == state
        # Both generators produce the same next draws.
        np.testing.assert_array_equal(trainer.engine.rng.integers(0, 1 << 30, 8),
                                      fresh.engine.rng.integers(0, 1 << 30, 8))

    def test_epoch_counter_and_history_restored(self, resume_splits,
                                                tmp_path):
        trainer = _trainer(tmp_path / "run", 3)
        history = trainer.fit(resume_splits.train, resume_splits.validation)

        fresh = _trainer(tmp_path / "run", 3)
        fresh.engine.resume()
        assert fresh.engine.epoch == 3
        assert fresh.engine.history.train_loss == history.train_loss
        # Re-fitting with the same budget is a no-op (already done).
        again = fresh.fit(resume_splits.train, resume_splits.validation)
        assert again.num_epochs == 3

    def test_scheduler_state_resumes(self, resume_splits, tmp_path):
        factory = lambda opt: StepDecay(opt, 1, 0.5)  # noqa: E731
        model = LogisticRegression(NUM_FEATURES, np.random.default_rng(1))
        trainer = Trainer(model, "mortality", lr=0.01, max_epochs=2,
                          patience=10, batch_size=16, seed=0, monitor="loss",
                          run_dir=str(tmp_path / "sched"),
                          scheduler_factory=factory)
        trainer.fit(resume_splits.train, resume_splits.validation)
        assert np.isclose(trainer.optimizer.lr, 0.01 * 0.5 ** 2)

        model2 = LogisticRegression(NUM_FEATURES, np.random.default_rng(1))
        resumed = Trainer(model2, "mortality", lr=0.01, max_epochs=4,
                          patience=10, batch_size=16, seed=0, monitor="loss",
                          run_dir=str(tmp_path / "sched"),
                          scheduler_factory=factory)
        resumed.fit(resume_splits.train, resume_splits.validation,
                    resume=True)
        # Two more decays on top of the restored schedule state.
        assert np.isclose(resumed.optimizer.lr, 0.01 * 0.5 ** 4)

    def test_resume_without_checkpoint_raises(self, tmp_path):
        trainer = _trainer(tmp_path / "empty", 2)
        with pytest.raises(FileNotFoundError):
            trainer.engine.resume()

    def test_resume_without_run_dir_raises(self):
        model = LogisticRegression(NUM_FEATURES, np.random.default_rng(0))
        trainer = Trainer(model, "mortality")
        with pytest.raises(ValueError, match="run directory"):
            trainer.engine.resume()


def _checkpoint_bytes(directory):
    return {path.name: path.read_bytes()
            for path in sorted(directory.iterdir())}


class TestAtomicCheckpoints:
    """A save that dies part-way never leaves a mixed checkpoint."""

    def test_save_failing_after_weights_keeps_previous_checkpoint(
            self, resume_splits, tmp_path, monkeypatch):
        run_dir = tmp_path / "run"
        _trainer(run_dir, 2).fit(resume_splits.train,
                                 resume_splits.validation)
        last = run_dir / "checkpoints" / "last"
        before = _checkpoint_bytes(last)

        # Epoch 3's save dies right after writing weights.npz.
        import repro.train.engine as engine_module

        def injected_failure(path, tree):
            raise OSError("injected: disk gone after weights.npz")

        monkeypatch.setattr(engine_module, "save_state", injected_failure)
        with pytest.raises(OSError, match="injected"):
            _trainer(run_dir, 3).fit(resume_splits.train,
                                     resume_splits.validation, resume=True)
        monkeypatch.undo()

        assert _checkpoint_bytes(last) == before
        resumed = _trainer(run_dir, 3)
        resumed.engine.resume()
        assert resumed.engine.epoch == 2
        with np.load(last / "weights.npz") as saved:
            for name, value in resumed.model.state_dict().items():
                np.testing.assert_array_equal(value, saved[name])

    def test_load_refuses_a_checkpoint_without_marker(self, resume_splits,
                                                      tmp_path):
        from repro.train import IncompleteCheckpointError
        run_dir = tmp_path / "run"
        _trainer(run_dir, 1).fit(resume_splits.train,
                                 resume_splits.validation)
        (run_dir / "checkpoints" / "last" / "COMPLETE").unlink()
        with pytest.raises(IncompleteCheckpointError, match="COMPLETE"):
            _trainer(run_dir, 2).engine.resume()

    def test_swap_killed_between_renames_is_recovered(self, resume_splits,
                                                      tmp_path):
        """The previous checkpoint, moved aside but not yet replaced,
        is what resume loads."""
        run_dir = tmp_path / "run"
        _trainer(run_dir, 2).fit(resume_splits.train,
                                 resume_splits.validation)
        checkpoints = run_dir / "checkpoints"
        before = _checkpoint_bytes(checkpoints / "last")
        (checkpoints / "last").rename(checkpoints / ".last.old")
        (checkpoints / ".last.partial").mkdir()      # a half-written save
        resumed = _trainer(run_dir, 2)
        resumed.engine.resume()
        assert resumed.engine.epoch == 2
        assert _checkpoint_bytes(checkpoints / "last") == before

    def test_predictor_serves_best_moved_aside_by_a_killed_swap(
            self, resume_splits, tmp_path):
        """A kill between the renames of ``best`` leaves it under
        ``.best.old``; loading the run serves those weights, not
        ``last``, and puts ``best/`` back."""
        from repro.serve import Predictor
        run_dir = tmp_path / "run"
        model = build_model("GRU", NUM_FEATURES, np.random.default_rng(0),
                            hidden_size=8)
        history = Trainer(model, "mortality", max_epochs=3, patience=10,
                          batch_size=16, seed=0, run_dir=str(run_dir),
                          monitor="auc_pr").fit(resume_splits.train,
                                                resume_splits.validation)
        assert history.best_epoch != history.num_epochs - 1
        checkpoints = run_dir / "checkpoints"
        with np.load(checkpoints / "best" / "weights.npz") as saved:
            best = {name: saved[name] for name in saved.files}
        with np.load(checkpoints / "last" / "weights.npz") as saved:
            assert any(not np.array_equal(best[name], saved[name])
                       for name in best)
        (checkpoints / "best").rename(checkpoints / ".best.old")

        served = Predictor.load(run_dir, persist=False).model.state_dict()
        for name, value in best.items():
            np.testing.assert_array_equal(served[name], value)
        assert (checkpoints / "best" / "COMPLETE").exists()
        assert not (checkpoints / ".best.old").exists()

    def test_saves_leave_only_complete_checkpoints(self, resume_splits,
                                                   tmp_path):
        run_dir = tmp_path / "run"
        _trainer(run_dir, 3).fit(resume_splits.train,
                                 resume_splits.validation)
        checkpoints = run_dir / "checkpoints"
        assert sorted(p.name for p in checkpoints.iterdir()) \
            == ["best", "last"]
        for checkpoint in checkpoints.iterdir():
            assert (checkpoint / "COMPLETE").exists(), checkpoint.name

    def test_partial_left_by_a_killed_save_is_cleared(self, resume_splits,
                                                      tmp_path):
        """A save killed outright (no exception handler runs) leaves its
        staging directory; the next save clears it and completes."""
        run_dir = tmp_path / "run"
        _trainer(run_dir, 2).fit(resume_splits.train,
                                 resume_splits.validation)
        checkpoints = run_dir / "checkpoints"
        (checkpoints / ".last.partial").mkdir()
        (checkpoints / ".last.partial" / "weights.npz").write_bytes(b"torn")
        _trainer(run_dir, 3).fit(resume_splits.train,
                                 resume_splits.validation, resume=True)
        assert not (checkpoints / ".last.partial").exists()
        state = json.loads((checkpoints / "last" / "state.json").read_text())
        assert state["epoch"] == 3
        assert (checkpoints / "last" / "COMPLETE").exists()

    def test_best_snapshot_survives_a_failed_save(self, resume_splits,
                                                  tmp_path, monkeypatch):
        """``best/`` goes through the same staged swap as ``last/``."""
        import repro.train.engine as engine_module
        run_dir = tmp_path / "run"
        _trainer(run_dir, 1).fit(resume_splits.train,
                                 resume_splits.validation)
        best = run_dir / "checkpoints" / "best"
        before = _checkpoint_bytes(best)
        real_save_state = engine_module.save_state

        def fail_best_only(path, tree):
            if path.parent.name == ".best.partial":
                raise OSError("injected: disk gone while saving best")
            real_save_state(path, tree)

        monkeypatch.setattr(engine_module, "save_state", fail_best_only)
        with pytest.raises(OSError, match="saving best"):
            _trainer(run_dir, 2).fit(resume_splits.train,
                                     resume_splits.validation, resume=True)
        assert _checkpoint_bytes(best) == before
        assert not (run_dir / "checkpoints" / ".best.partial").exists()

    def test_directory_written_part_way_is_refused(self, resume_splits,
                                                   tmp_path, monkeypatch):
        """The marker is written after every other file, so a directory
        whose write stopped after ``weights.npz`` does not load."""
        from repro.train import IncompleteCheckpointError
        import repro.train.engine as engine_module
        trainer = _trainer(tmp_path / "run", 1)
        trainer.fit(resume_splits.train, resume_splits.validation)
        target = tmp_path / "direct"
        target.mkdir()

        def injected_failure(path, tree):
            raise OSError("injected: disk gone after weights.npz")

        monkeypatch.setattr(engine_module, "save_state", injected_failure)
        with pytest.raises(OSError, match="injected"):
            trainer.engine._write_checkpoint(target)
        assert (target / "weights.npz").exists()
        with pytest.raises(IncompleteCheckpointError, match="COMPLETE"):
            trainer.engine.load_checkpoint(target)


class TestRunArtifacts:
    def test_run_directory_layout(self, resume_splits, tmp_path):
        run_dir = tmp_path / "run"
        trainer = _trainer(run_dir, 2)
        trainer.fit(resume_splits.train, resume_splits.validation)

        assert (run_dir / "config.json").exists()
        assert (run_dir / "metrics.jsonl").exists()
        assert (run_dir / "checkpoints" / "last" / "weights.npz").exists()
        assert (run_dir / "checkpoints" / "last" / "optimizer.npz").exists()
        assert (run_dir / "checkpoints" / "last" / "state.json").exists()
        assert (run_dir / "checkpoints" / "last" / "COMPLETE").exists()
        assert (run_dir / "checkpoints" / "best" / "weights.npz").exists()

        config = json.loads((run_dir / "config.json").read_text())
        assert config["model_class"] == "GRUClassifier"
        assert config["task"] == "mortality"
        assert config["max_epochs"] == 2

        lines = [json.loads(line) for line in
                 (run_dir / "metrics.jsonl").read_text().splitlines()]
        assert [line["epoch"] for line in lines] == [0, 1]
        assert all(np.isfinite(line["train_loss"]) for line in lines)
        assert all("val_loss" in line and "lr" in line for line in lines)

    def test_periodic_checkpoints(self, resume_splits, tmp_path):
        run_dir = tmp_path / "run"
        trainer = _trainer(run_dir, 4, checkpoint_every=2)
        trainer.fit(resume_splits.train, resume_splits.validation)
        kept = sorted(p.name for p in (run_dir / "checkpoints").iterdir())
        assert "epoch_0001" in kept and "epoch_0003" in kept

    def test_fresh_fit_truncates_stale_stream(self, resume_splits, tmp_path):
        run_dir = tmp_path / "run"
        _trainer(run_dir, 2).fit(resume_splits.train,
                                 resume_splits.validation)
        _trainer(run_dir, 1).fit(resume_splits.train,
                                 resume_splits.validation)
        lines = (run_dir / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 1  # not appended to the first run's stream
