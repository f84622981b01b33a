"""ServeConfig: validation, serialization, resolution, persistence."""

import json
import shutil

import pytest

from repro.serve import (MicroBatcher, Predictor, ReplicaPool, ServeConfig,
                         ServeMetrics, resolve_config)

pytestmark = pytest.mark.serve


class TestValidation:
    def test_defaults_are_valid(self):
        config = ServeConfig()
        assert config.batch_size == 64
        assert config.max_batch_size == 32
        assert config.capture is None
        assert config.workers == 2
        assert config.deadline_ms is None

    @pytest.mark.parametrize("field", ["batch_size", "max_batch_size",
                                       "cache_capacity", "max_captures",
                                       "workers", "queue_depth"])
    def test_integer_fields_must_be_positive(self, field):
        with pytest.raises(ValueError, match=field):
            ServeConfig(**{field: 0})

    def test_max_wait_ms_must_be_non_negative(self):
        with pytest.raises(ValueError, match="max_wait_ms"):
            ServeConfig(max_wait_ms=-1.0)
        assert ServeConfig(max_wait_ms=0).max_wait_ms == 0.0

    def test_deadline_ms_positive_or_none(self):
        with pytest.raises(ValueError, match="deadline_ms"):
            ServeConfig(deadline_ms=0.0)
        assert ServeConfig(deadline_ms=None).deadline_ms is None
        assert ServeConfig(deadline_ms=5).deadline_ms == 5.0

    def test_replace_revalidates(self):
        config = ServeConfig()
        with pytest.raises(ValueError):
            config.replace(workers=-3)
        assert config.replace(workers=4).workers == 4
        assert config.workers == 2  # frozen original untouched


class TestSerialization:
    def test_dict_round_trip(self):
        config = ServeConfig(batch_size=16, capture=True, workers=3,
                             deadline_ms=25.0)
        assert ServeConfig.from_dict(config.to_dict()) == config

    def test_json_round_trip(self):
        config = ServeConfig(max_wait_ms=1.5, queue_depth=7)
        payload = json.loads(json.dumps(config.to_dict()))
        assert ServeConfig.from_dict(payload) == config

    def test_from_dict_ignores_unknown_keys_unless_strict(self):
        payload = {"batch_size": 8, "flux_capacitor": True}
        assert ServeConfig.from_dict(payload).batch_size == 8
        with pytest.raises(ValueError, match="flux_capacitor"):
            ServeConfig.from_dict(payload, strict=True)

    def test_from_run_config_reads_serve_block(self):
        config = ServeConfig.from_run_config(
            {"batch_size": 99, "serve": {"batch_size": 8, "workers": 5}})
        assert config.batch_size == 8
        assert config.workers == 5

    def test_from_run_config_falls_back_to_training_batch_size(self):
        assert ServeConfig.from_run_config({"batch_size": 24}).batch_size \
            == 24
        assert ServeConfig.from_run_config({}).batch_size == 64


class TestResolveConfig:
    def test_explicit_config_passes_through(self):
        config = ServeConfig(workers=7)
        assert resolve_config(config, owner="X") is config

    def test_non_serveconfig_config_is_a_type_error(self):
        with pytest.raises(TypeError, match="ServeConfig"):
            resolve_config({"batch_size": 8}, owner="X")

    def test_base_seeds_defaults(self):
        base = ServeConfig(max_batch_size=4)
        assert resolve_config(None, owner="X", base=base) == base
        assert resolve_config(None, owner="X") == ServeConfig()


class TestDeprecatedComponentKwargs:
    """The per-component keywords are gone: each component reads its
    ServeConfig, and a MicroBatcher without one takes its predictor's."""

    def test_batcher_inherits_predictor_config(self, trained_run):
        trainer, _ = trained_run
        predictor = Predictor(trainer.model,
                              ServeConfig(max_batch_size=5))
        assert MicroBatcher(predictor).max_batch_size == 5


class TestFromRunDir:
    def test_missing_config_json_gives_defaults(self, tmp_path):
        assert ServeConfig.from_run_dir(tmp_path) == ServeConfig()

    def test_reads_the_persisted_serve_block(self, tmp_path):
        (tmp_path / "config.json").write_text(json.dumps(
            {"batch_size": 16, "serve": {"workers": 3, "capture": True}}))
        config = ServeConfig.from_run_dir(str(tmp_path))
        assert config.workers == 3
        assert config.capture is True
        assert config.batch_size == 16  # the training batch size

    def test_matches_the_trained_run_config(self, trained_run):
        _, run_dir = trained_run
        payload = json.loads((run_dir / "config.json").read_text())
        assert (ServeConfig.from_run_dir(run_dir)
                == ServeConfig.from_run_config(payload))


class TestRunDirPersistence:
    @pytest.fixture
    def run_copy(self, trained_run, tmp_path):
        _, run_dir = trained_run
        copy = tmp_path / "run"
        shutil.copytree(run_dir, copy)
        return copy

    def test_load_restores_training_batch_size(self, run_copy):
        predictor = Predictor.load(run_copy)
        payload = json.loads((run_copy / "config.json").read_text())
        assert predictor.config.batch_size == payload["batch_size"]

    def test_plain_load_does_not_write(self, run_copy):
        before = (run_copy / "config.json").read_text()
        Predictor.load(run_copy)
        assert (run_copy / "config.json").read_text() == before

    def test_explicit_config_round_trips(self, run_copy):
        config = ServeConfig(batch_size=8, max_batch_size=4, workers=3,
                             deadline_ms=50.0)
        Predictor.load(run_copy, config=config)
        payload = json.loads((run_copy / "config.json").read_text())
        assert payload["serve"] == config.to_dict()
        assert Predictor.load(run_copy).config == config

    def test_persist_false_never_writes(self, run_copy):
        before = (run_copy / "config.json").read_text()
        predictor = Predictor.load(run_copy,
                                   config=ServeConfig(workers=9),
                                   persist=False)
        assert predictor.config.workers == 9
        assert (run_copy / "config.json").read_text() == before

    def test_capture_flag_still_persists(self, run_copy):
        persisted = ServeConfig.from_run_dir(run_copy)
        Predictor.load(run_copy, config=persisted.replace(capture=True))
        assert Predictor.load(run_copy).capture is True
        Predictor.load(run_copy, config=persisted.replace(capture=False))
        assert Predictor.load(run_copy).capture is False

    def test_pool_with_explicit_config_never_reads_the_run_dir(self,
                                                               tmp_path):
        (tmp_path / "config.json").write_text("{not json")
        config = ServeConfig(workers=1)
        pool = ReplicaPool(tmp_path, config=config)
        assert pool.config is config

    def test_loaded_config_drives_components(self, run_copy):
        config = ServeConfig(max_batch_size=6, cache_capacity=2)
        predictor = Predictor.load(run_copy, config=config,
                                   metrics=ServeMetrics())
        batcher = MicroBatcher(predictor)
        assert batcher.max_batch_size == 6
