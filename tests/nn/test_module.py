"""Tests of the module system: registration, state dicts, modes."""

import numpy as np
import pytest

from repro import nn
from repro.nn.layers import Dense
from repro.nn.module import (RETIRED_PARAMETERS, Module, ModuleList,
                             Parameter, RetiredParameterWarning)


class TwoLayer(Module):
    def __init__(self, rng):
        super().__init__()
        self.first = Dense(4, 8, rng)
        self.second = Dense(8, 2, rng)
        self.scale = Parameter(np.ones(1))

    def forward(self, x):
        return self.second(self.first(x)) * self.scale


@pytest.fixture
def model(rng):
    return TwoLayer(rng)


class TestRegistration:
    def test_named_parameters_qualified(self, model):
        names = dict(model.named_parameters())
        assert "first.weight" in names
        assert "second.bias" in names
        assert "scale" in names

    def test_parameter_count(self, model):
        # (4*8 + 8) + (8*2 + 2) + 1
        assert model.num_parameters() == 40 + 18 + 1

    def test_reassignment_replaces(self, rng):
        m = TwoLayer(rng)
        m.first = Dense(4, 8, rng)
        assert len(list(m.named_parameters())) == 5

    def test_parameter_then_module_same_name(self, rng):
        m = Module()
        m.thing = Parameter(np.zeros(2))
        m.thing = Dense(2, 2, rng)
        names = [n for n, _ in m.named_parameters()]
        assert names == ["thing.weight", "thing.bias"]

    def test_modules_iterates_descendants(self, model):
        assert len(list(model.modules())) == 3


class TestStateDict:
    def test_round_trip(self, model, rng):
        state = model.state_dict()
        other = TwoLayer(rng)
        other.load_state_dict(state)
        for (_, p1), (_, p2) in zip(model.named_parameters(),
                                    other.named_parameters()):
            assert np.array_equal(p1.data, p2.data)

    def test_state_dict_is_a_copy(self, model):
        state = model.state_dict()
        state["scale"][...] = 99.0
        assert model.scale.data[0] == 1.0

    def test_missing_key_raises(self, model):
        state = model.state_dict()
        del state["scale"]
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_unexpected_key_raises(self, model):
        state = model.state_dict()
        state["ghost"] = np.zeros(1)
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_retired_keys_are_dropped_with_one_warning(self, tmp_path):
        """Weights written before the softmax-cancelled attention biases
        were removed still load: those keys are dropped, whatever their
        values, with one named warning."""
        from repro.core import ELDANet
        model = ELDANet(5, np.random.default_rng(0), embedding_size=3,
                        hidden_size=4, compression=2)
        state = model.state_dict()
        old = dict(state, **{"feature_module.attn_bias": np.full(5, 0.3),
                             "time_module.attn_bias": np.array([-1.2])})
        np.savez(tmp_path / "weights.npz", **old)
        fresh = ELDANet(5, np.random.default_rng(1), embedding_size=3,
                        hidden_size=4, compression=2)
        with pytest.warns(RetiredParameterWarning) as record:
            nn.load_weights(fresh, tmp_path / "weights.npz")
        assert len(record) == 1
        assert "feature_module.attn_bias" in str(record[0].message)
        for name, value in fresh.state_dict().items():
            assert np.array_equal(value, state[name]), name

    def test_retired_key_beside_an_unknown_key_still_raises(self, model):
        state = model.state_dict()
        state["attention.bias"] = np.zeros(1)
        state["ghost"] = np.zeros(1)
        with pytest.raises(KeyError, match="ghost"):
            model.load_state_dict(state)

    def test_retired_names_are_not_parameters_of_any_model(self):
        from repro.baselines import ALL_MODEL_NAMES, build_model
        from repro.data import NUM_FEATURES
        for name in ALL_MODEL_NAMES:
            params = dict(build_model(name, NUM_FEATURES).named_parameters())
            assert not RETIRED_PARAMETERS & set(params), name

    def test_shape_mismatch_raises(self, model):
        state = model.state_dict()
        state["scale"] = np.zeros(3)
        with pytest.raises(ValueError):
            model.load_state_dict(state)


class TestModes:
    def test_train_eval_recursive(self, rng):
        m = Module()
        m.child = Dense(2, 2, rng)
        m.eval()
        assert not m.child.training
        m.train()
        assert m.child.training

    def test_zero_grad_clears_all(self, model, rng):
        x = nn.Tensor(rng.normal(size=(2, 4)))
        model(x).sum().backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())


class TestModuleList:
    def test_registers_children(self, rng):
        layers = ModuleList([Dense(2, 2, rng), Dense(2, 2, rng)])
        assert len(layers) == 2
        assert len(list(layers.named_parameters())) == 4

    def test_indexing_and_iteration(self, rng):
        layers = ModuleList([Dense(2, 3, rng)])
        assert layers[0].out_features == 3
        assert [l.out_features for l in layers] == [3]

    def test_append(self, rng):
        layers = ModuleList()
        layers.append(Dense(2, 2, rng))
        assert len(layers) == 1

    def test_rejects_non_module(self):
        with pytest.raises(TypeError):
            ModuleList([42])
