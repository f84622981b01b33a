"""Predictor: protocol coverage, validation, and bit-identity guarantees."""

import json
import shutil

import numpy as np
import pytest

from repro.baselines import build_model
from repro.data import NUM_FEATURES
from repro.serve import Predictor, ServeConfig, ServeMetrics

pytestmark = pytest.mark.serve

PROTOCOL_MODELS = {
    "LR": {},
    "GRU": dict(hidden_size=6),
    "GRU-D": dict(hidden_size=6),
    "RETAIN": dict(embedding_size=6, alpha_hidden=4, beta_hidden=4),
    "ELDA-Net": dict(embedding_size=4, hidden_size=6, compression=2),
}


class TestInferenceProtocol:
    @pytest.mark.parametrize("name", sorted(PROTOCOL_MODELS))
    def test_registry_models_serve_probabilities(self, name, tiny_dataset):
        model = build_model(name, NUM_FEATURES, np.random.default_rng(0),
                            **PROTOCOL_MODELS[name])
        batch = tiny_dataset.subset(np.arange(5))
        predictor = Predictor(model)
        probs = predictor.predict_proba(batch)
        assert probs.shape == (5,)
        assert np.all((probs >= 0) & (probs <= 1))
        labels = predictor.predict(batch)
        assert set(np.unique(labels)) <= {0, 1}

    def test_rejects_models_without_the_protocol(self):
        class Opaque:
            pass

        with pytest.raises(TypeError, match="inference protocol"):
            Predictor(Opaque())

    def test_forward_builds_no_gradient_graph(self, tiny_dataset):
        model = build_model("GRU", NUM_FEATURES, np.random.default_rng(0),
                            hidden_size=6)
        logits = model.predict_logits(tiny_dataset.subset(np.arange(4)))
        tensor_logits = model.forward_batch(tiny_dataset.subset(np.arange(4)))
        # predict_logits returns plain arrays from a no-grad forward...
        assert isinstance(logits, np.ndarray)
        # ...matching the training-mode-off graph forward numerically.
        np.testing.assert_array_equal(logits, tensor_logits.data)

    def test_eval_restores_training_mode(self, tiny_dataset):
        model = build_model("GRU", NUM_FEATURES, np.random.default_rng(0),
                            hidden_size=6)
        model.train()
        model.predict_proba(tiny_dataset.subset(np.arange(2)))
        assert model.training is True


class TestValidation:
    @pytest.fixture()
    def predictor(self):
        model = build_model("GRU", NUM_FEATURES, np.random.default_rng(0),
                            hidden_size=6)
        return Predictor(model)

    def test_rejects_non_dataset_objects(self, predictor):
        with pytest.raises(ValueError, match="lacks required array"):
            predictor.validate(object())

    def test_rejects_wrong_rank(self, predictor, tiny_dataset):
        batch = tiny_dataset.subset(np.arange(2))
        bad = type("B", (), dict(values=batch.values[0], mask=batch.mask,
                                 ever_observed=batch.ever_observed,
                                 deltas=batch.deltas))()
        with pytest.raises(ValueError, match=r"must be \(N, T, C\)"):
            predictor.validate(bad)

    def test_rejects_feature_count_mismatch(self, predictor, tiny_dataset):
        batch = tiny_dataset.subset(np.arange(2))
        bad = type("B", (), dict(
            values=batch.values[:, :, :5], mask=batch.mask[:, :, :5],
            ever_observed=batch.ever_observed[:, :5],
            deltas=batch.deltas[:, :, :5]))()
        with pytest.raises(ValueError, match="trained on"):
            predictor.validate(bad)

    def test_rejects_nan_values(self, predictor, tiny_dataset):
        batch = tiny_dataset.subset(np.arange(2))
        values = batch.values.copy()
        values[0, 0, 0] = np.nan
        bad = type("B", (), dict(values=values, mask=batch.mask,
                                 ever_observed=batch.ever_observed,
                                 deltas=batch.deltas))()
        with pytest.raises(ValueError, match="NaN"):
            predictor.validate(bad)

    def test_rejects_mask_shape_mismatch(self, predictor, tiny_dataset):
        batch = tiny_dataset.subset(np.arange(2))
        bad = type("B", (), dict(values=batch.values, mask=batch.mask[:1],
                                 ever_observed=batch.ever_observed,
                                 deltas=batch.deltas))()
        with pytest.raises(ValueError, match="batch.mask"):
            predictor.validate(bad)


class TestBitIdentity:
    def test_bulk_matches_trainer_predict_proba(self, trained_run,
                                                serve_splits):
        trainer, run_dir = trained_run
        reference = trainer.engine.predict_proba(serve_splits.test)
        predictor = Predictor.load(run_dir)
        served = predictor.predict_proba(serve_splits.test)
        np.testing.assert_array_equal(served, reference)

    def test_padded_forward_is_composition_independent(self, tiny_dataset):
        model = build_model("GRU", NUM_FEATURES, np.random.default_rng(0),
                            hidden_size=6)
        predictor = Predictor(model)
        batch = tiny_dataset.subset(np.arange(8))
        together = predictor.predict_logits(batch, pad_to=16)
        for i in range(8):
            alone = predictor.predict_logits(
                tiny_dataset.subset(np.asarray([i])), pad_to=16)
            np.testing.assert_array_equal(alone, together[i:i + 1])

    def test_pad_to_rejects_oversized_batches(self, tiny_dataset):
        model = build_model("GRU", NUM_FEATURES, np.random.default_rng(0),
                            hidden_size=6)
        with pytest.raises(ValueError, match="exceeds pad_to"):
            Predictor(model).predict_logits(
                tiny_dataset.subset(np.arange(8)), pad_to=4)


class TestLoad:
    def test_round_trip_restores_spec_and_batch_size(self, trained_run):
        trainer, run_dir = trained_run
        predictor = Predictor.load(run_dir)
        assert predictor.spec.name == "GRU"
        assert predictor.spec.hyperparameters == {"hidden_size": 8}
        assert predictor.batch_size == trainer.batch_size

    def test_best_and_last_checkpoints_load(self, trained_run, serve_splits):
        _, run_dir = trained_run
        batch = serve_splits.test.subset(np.arange(4))
        for checkpoint in ("best", "last"):
            probs = Predictor.load(run_dir, checkpoint=checkpoint) \
                .predict_proba(batch)
            assert probs.shape == (4,)

    def test_rejects_unknown_checkpoint_name(self, trained_run):
        _, run_dir = trained_run
        with pytest.raises(ValueError, match="best.*last"):
            Predictor.load(run_dir, checkpoint="median")

    def test_missing_run_dir_is_a_helpful_error(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="config.json"):
            Predictor.load(tmp_path / "nope")


class TestMetricsIntegration:
    def test_forwards_are_recorded(self, tiny_dataset):
        metrics = ServeMetrics("unit")
        model = build_model("LR", NUM_FEATURES, np.random.default_rng(0))
        predictor = Predictor(model, ServeConfig(batch_size=4),
                              metrics=metrics)
        predictor.predict_proba(tiny_dataset.subset(np.arange(10)))
        assert metrics.batch_count == 3  # 4 + 4 + 2
        assert metrics.batch_size_histogram() == {2: 1, 4: 2}


class _UncapturableModel:
    """Implements the inference protocol but computes outside the op
    layer, so trace validation rejects it."""

    def predict_logits(self, batch):
        return np.asarray(batch.values).sum(axis=(1, 2))

    def predict_proba(self, batch):
        return 1.0 / (1.0 + np.exp(-self.predict_logits(batch)))

    def named_parameters(self):
        return iter(())


class TestCapture:
    @pytest.fixture()
    def run_copy(self, trained_run, tmp_path):
        """A private copy of the trained run dir — capture persistence
        rewrites config.json, which must not leak into the shared
        session fixture."""
        _, run_dir = trained_run
        dest = tmp_path / "run"
        shutil.copytree(run_dir, dest)
        return dest

    def test_capture_serving_is_bit_identical(self, run_copy, serve_splits):
        metrics = ServeMetrics("capture")
        eager = Predictor.load(run_copy)
        captured = Predictor.load(
            run_copy, metrics=metrics,
            config=ServeConfig.from_run_dir(run_copy).replace(capture=True))
        reference = eager.predict_proba(serve_splits.test)
        served = captured.predict_proba(serve_splits.test)
        np.testing.assert_array_equal(served, reference)
        assert metrics.capture_hits > 0
        assert metrics.eager_fallbacks == 0
        # same graphs replay again on a second pass
        np.testing.assert_array_equal(
            captured.predict_proba(serve_splits.test), reference)

    def test_pad_to_pins_the_shape_to_one_graph(self, tiny_dataset):
        metrics = ServeMetrics("padded")
        model = build_model("GRU", NUM_FEATURES, np.random.default_rng(0),
                            hidden_size=6)
        predictor = Predictor(
            model, ServeConfig(capture=True, max_captures=1),
            metrics=metrics)
        for size in (1, 3, 5):
            batch = tiny_dataset.subset(np.arange(size))
            np.testing.assert_array_equal(
                predictor.predict_logits(batch, pad_to=8),
                Predictor(model).predict_logits(batch, pad_to=8))
        assert metrics.capture_hits == 3
        assert metrics.eager_fallbacks == 0

    def test_shape_budget_overflow_falls_back_to_eager(self, tiny_dataset):
        metrics = ServeMetrics("budget")
        model = build_model("LR", NUM_FEATURES, np.random.default_rng(0))
        predictor = Predictor(
            model, ServeConfig(capture=True, max_captures=1),
            metrics=metrics)
        predictor.predict_logits(tiny_dataset.subset(np.arange(2)))
        predictor.predict_logits(tiny_dataset.subset(np.arange(5)))
        assert metrics.capture_hits == 1
        assert metrics.eager_fallbacks == 1

    def test_uncapturable_model_serves_eagerly_forever(self, tiny_dataset):
        metrics = ServeMetrics("fallback")
        predictor = Predictor(_UncapturableModel(),
                              ServeConfig(capture=True), metrics=metrics)
        batch = tiny_dataset.subset(np.arange(3))
        expected = np.asarray(batch.values).sum(axis=(1, 2))
        for _ in range(2):
            np.testing.assert_array_equal(predictor.predict_logits(batch),
                                          expected)
        assert metrics.capture_hits == 0
        assert metrics.eager_fallbacks == 2

    def test_storage_swap_invalidates_then_retraces(self, tiny_dataset):
        metrics = ServeMetrics("swap")
        model = build_model("GRU", NUM_FEATURES, np.random.default_rng(0),
                            hidden_size=6)
        predictor = Predictor(model, ServeConfig(capture=True),
                              metrics=metrics)
        batch = tiny_dataset.subset(np.arange(3))
        predictor.predict_logits(batch)            # trace + replay
        for _, param in model.named_parameters():  # Module.to()-style swap
            param.data = param.data.copy()
        swapped = predictor.predict_logits(batch)  # stale graph -> eager
        retraced = predictor.predict_logits(batch)  # fresh trace
        np.testing.assert_array_equal(swapped, model.predict_logits(batch))
        np.testing.assert_array_equal(retraced, swapped)
        assert metrics.capture_hits == 2
        assert metrics.eager_fallbacks == 1

    def test_capture_choice_persists_in_the_run_dir(self, run_copy):
        assert Predictor.load(run_copy).capture is False
        Predictor.load(run_copy, config=ServeConfig.from_run_dir(run_copy)
                       .replace(capture=True))
        persisted = json.loads((run_copy / "config.json").read_text())
        assert persisted["serve"]["capture"] is True
        assert Predictor.load(run_copy).capture is True
        Predictor.load(run_copy, config=ServeConfig.from_run_dir(run_copy)
                       .replace(capture=False))
        assert Predictor.load(run_copy).capture is False

    def test_bulk_capture_matches_trainer_reference(self, run_copy,
                                                    trained_run,
                                                    serve_splits):
        """The strongest end-to-end claim: capture serving reproduces
        the training engine's validation scores bit-for-bit."""
        trainer, _ = trained_run
        reference = trainer.engine.predict_proba(serve_splits.test)
        served = Predictor.load(
            run_copy,
            config=ServeConfig.from_run_dir(run_copy).replace(capture=True)) \
            .predict_proba(serve_splits.test)
        np.testing.assert_array_equal(served, reference)
