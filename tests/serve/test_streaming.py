"""Streaming inference: bit-identity at every prefix, for every model.

The contract under test is the serving tier's strongest claim: after
``t`` calls to :meth:`StreamingSession.step`, the returned probabilities
equal ``predict_proba`` over the same ``t``-step prefix **bit for bit**,
in both dtype planes — whether the model streams natively (O(1) state
updates through ``stream_step``), incrementally (cached per-step
projections + attention readout over the cache), or by exact prefix
replay.
"""

import numpy as np
import pytest

from repro.baselines import ALL_MODEL_NAMES, build_model
from repro.data import NUM_FEATURES, SyntheticEMRGenerator
from repro.data.dataset import train_val_test_split
from repro.metrics.probability import sigmoid_probs, softmax_probs
from repro.nn.dtype import autocast
from repro.serve import (Predictor, ServeMetrics, SessionStore,
                         StreamingSession)

pytestmark = pytest.mark.serve

NATIVE_MODELS = {"GRU", "GRU-D", "StageNet", "ConCare",
                 "RETAIN", "Dipole_l", "Dipole_g", "Dipole_c", "SAnD",
                 "ELDA-Net", "ELDA-Net-T", "ELDA-Net-Fbi",
                 "ELDA-Net-Fbi*", "ELDA-Net-Ffm", "ELDA-Net-Ffm*"}
PREFIX_STEPS = 5


@pytest.fixture(scope="module")
def stream_batch():
    """Two admissions, truncated to a short window (keeps replay cheap)."""
    admissions = SyntheticEMRGenerator().sample_many(
        30, np.random.default_rng(5))
    splits = train_val_test_split(admissions, np.random.default_rng(6))
    return splits.test.subset([0, 1]).truncate(PREFIX_STEPS)


def _probs(logits):
    return sigmoid_probs(logits) if logits.ndim == 1 else softmax_probs(logits)


def _stream_vs_full(model_name, batch, dtype):
    """Step a session through ``batch`` asserting prefix bit-identity.

    A prefix where BOTH paths raise (models needing >= 2 steps, e.g.
    Dipole's attention over t-1 earlier steps) counts as covered: the
    session must keep the buffered observation and serve the next
    prefix correctly.
    """
    with autocast(dtype):
        model = build_model(model_name, NUM_FEATURES,
                            np.random.default_rng(0))
        predictor = Predictor(model)
        assert bool(getattr(model, "stream_native", False)) == \
            (model_name in NATIVE_MODELS)
        session = predictor.start_stream(batch_size=len(batch))
        covered = 0
        for t in range(1, batch.num_time_steps + 1):
            try:
                expected = _probs(predictor.predict_logits(
                    batch.truncate(t)))
            except Exception:
                with pytest.raises(Exception):
                    session.step(batch.values[:, t - 1],
                                 batch.mask[:, t - 1],
                                 batch.deltas[:, t - 1])
                continue
            streamed = session.step(batch.values[:, t - 1],
                                    batch.mask[:, t - 1],
                                    batch.deltas[:, t - 1])
            assert streamed.dtype == expected.dtype
            assert np.array_equal(streamed, expected), \
                f"{model_name} diverges at prefix {t} under {dtype}"
            covered += 1
        assert covered >= batch.num_time_steps - 1
        assert session.steps == batch.num_time_steps


@pytest.mark.parametrize("model_name", ALL_MODEL_NAMES)
def test_streaming_bit_identity_float64(model_name, stream_batch):
    _stream_vs_full(model_name, stream_batch, np.float64)


@pytest.mark.parametrize("model_name", ALL_MODEL_NAMES)
def test_streaming_bit_identity_float32(model_name, stream_batch):
    _stream_vs_full(model_name, stream_batch, np.float32)


@pytest.mark.parametrize("model_name",
                         sorted(NATIVE_MODELS))
def test_single_admission_streams_bit_identically(model_name, stream_batch):
    """n=1 is the serving case — and the BLAS row-stability danger zone."""
    _stream_vs_full(model_name, stream_batch.subset([0]),
                    np.float64)


def test_mask_aware_gru_streams_bit_identically(stream_batch):
    with autocast(np.float64):
        model = build_model("GRU", NUM_FEATURES, np.random.default_rng(0),
                            mask_aware=True)
        predictor = Predictor(model)
        session = predictor.start_stream(batch_size=len(stream_batch))
        for t in range(1, stream_batch.num_time_steps + 1):
            streamed = session.step(stream_batch.values[:, t - 1],
                                    stream_batch.mask[:, t - 1],
                                    stream_batch.deltas[:, t - 1])
            expected = _probs(predictor.predict_logits(
                stream_batch.truncate(t)))
            assert np.array_equal(streamed, expected), f"prefix {t}"


class TestSessionBehavior:
    @pytest.fixture()
    def gru_predictor(self):
        model = build_model("GRU", NUM_FEATURES, np.random.default_rng(0),
                            hidden_size=8)
        return Predictor(model)

    def test_reset_restarts_from_zero(self, gru_predictor, stream_batch):
        session = gru_predictor.start_stream(batch_size=2)
        first = session.step(stream_batch.values[:, 0],
                             stream_batch.mask[:, 0])
        session.step(stream_batch.values[:, 1], stream_batch.mask[:, 1])
        session.reset()
        assert session.steps == 0
        again = session.step(stream_batch.values[:, 0],
                             stream_batch.mask[:, 0])
        assert np.array_equal(first, again)

    def test_predictor_step_delegates(self, gru_predictor, stream_batch):
        session = gru_predictor.start_stream(batch_size=2)
        probs = gru_predictor.step(session, stream_batch.values[:, 0])
        assert probs.shape == (2,)
        assert session.steps == 1

    def test_rejects_wrong_batch_size(self, gru_predictor, stream_batch):
        session = gru_predictor.start_stream(batch_size=1)
        with pytest.raises(ValueError, match="batch_size"):
            session.step(stream_batch.values[:, 0])

    def test_rejects_wrong_feature_count(self, gru_predictor):
        session = gru_predictor.start_stream(batch_size=1)
        with pytest.raises(ValueError, match="features"):
            session.step(np.zeros((1, 3)))

    def test_rejects_nans(self, gru_predictor):
        session = gru_predictor.start_stream(batch_size=1)
        row = np.zeros((1, NUM_FEATURES))
        row[0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            session.step(row)

    def test_rejects_mismatched_mask_shape(self, gru_predictor):
        session = gru_predictor.start_stream(batch_size=1)
        with pytest.raises(ValueError, match="mask_t"):
            session.step(np.zeros((1, NUM_FEATURES)),
                         np.ones((2, NUM_FEATURES), dtype=bool))

    def test_rejects_non_inference_model(self):
        with pytest.raises(TypeError, match="predict_logits"):
            StreamingSession(object())

    def test_metrics_counters(self, stream_batch):
        metrics = ServeMetrics()
        model = build_model("GRU", NUM_FEATURES, np.random.default_rng(0),
                            hidden_size=8)
        predictor = Predictor(model, metrics=metrics)
        session = predictor.start_stream(batch_size=2)
        session.step(stream_batch.values[:, 0])
        session.step(stream_batch.values[:, 1])
        payload = metrics.as_dict()["stream"]
        assert payload["sessions"] == 1
        assert payload["steps"] == 2
        assert payload["native_steps"] == 2

    def test_incremental_steps_count_as_native(self, stream_batch):
        """Incremental attention streaming shares the native counter:
        the schema stays two-bucket (native vs replay) and incremental
        steps are by construction not replays."""
        metrics = ServeMetrics()
        model = build_model("RETAIN", NUM_FEATURES, np.random.default_rng(0))
        predictor = Predictor(model, metrics=metrics)
        session = predictor.start_stream(batch_size=2)
        session.step(stream_batch.values[:, 0])
        session.step(stream_batch.values[:, 1])
        payload = metrics.as_dict()["stream"]
        assert payload["sessions"] == 1
        assert payload["steps"] == 2
        assert payload["native_steps"] == 2
        assert set(payload) >= {"sessions", "steps", "native_steps"}

    def test_incremental_reset_restarts_from_zero(self, stream_batch):
        model = build_model("RETAIN", NUM_FEATURES, np.random.default_rng(0))
        session = Predictor(model).start_stream(batch_size=2)
        first = session.step(stream_batch.values[:, 0])
        session.step(stream_batch.values[:, 1])
        session.reset()
        assert session.steps == 0
        again = session.step(stream_batch.values[:, 0])
        assert np.array_equal(first, again)

    def test_incremental_model_buffers_rejected_short_prefix(
            self, stream_batch):
        """Dipole needs >= 2 steps; the t=1 observation must survive."""
        model = build_model("Dipole_l", NUM_FEATURES,
                            np.random.default_rng(0))
        predictor = Predictor(model)
        session = predictor.start_stream(batch_size=2)
        with pytest.raises(Exception):
            session.step(stream_batch.values[:, 0], stream_batch.mask[:, 0])
        assert session.steps == 1
        streamed = session.step(stream_batch.values[:, 1],
                                stream_batch.mask[:, 1])
        expected = _probs(predictor.predict_logits(stream_batch.truncate(2)))
        assert np.array_equal(streamed, expected)


class TestSessionStore:
    @pytest.fixture()
    def store(self):
        model = build_model("GRU", NUM_FEATURES, np.random.default_rng(0),
                            hidden_size=8)
        return SessionStore(Predictor(model), capacity=2)

    def test_sessions_are_per_admission_and_sticky(self, store,
                                                   stream_batch):
        row = stream_batch.subset([0])
        store.step("a", row.values[:, 0])
        store.step("a", row.values[:, 1])
        assert store.session("a").steps == 2
        store.step("b", row.values[:, 0])
        assert store.session("b").steps == 1

    def test_lru_eviction(self, store, stream_batch):
        row = stream_batch.subset([0])
        for admission_id in ("a", "b", "c"):
            store.step(admission_id, row.values[:, 0])
        assert len(store) == 2
        assert "a" not in store
        assert "c" in store

    def test_close_drops_state(self, store, stream_batch):
        row = stream_batch.subset([0])
        store.step("a", row.values[:, 0])
        assert store.close("a") is True
        assert store.close("a") is False
        store.step("a", row.values[:, 0])
        assert store.session("a").steps == 1
