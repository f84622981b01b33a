"""The evaluation path must not build autodiff graph state.

``Trainer.engine.predict_proba`` / ``Trainer.evaluate`` run the whole forward
pass under ``no_grad``: no op output may be wired into the graph
(``requires_grad=True``) and no backward closure may ever fire.  The
per-op profiler counts exactly those events (``grad_graph_outputs``,
backward calls), so these tests pin the invariant directly instead of
inspecting internals.
"""

import numpy as np
import pytest

from repro.baselines import build_model
from repro.bench import profile
from repro.bench.runner import benchmark_cohort
from repro.data import NUM_FEATURES
from repro.train import Trainer


@pytest.fixture(scope="module")
def splits():
    return benchmark_cohort(num_admissions=24, seed=3)


@pytest.fixture(scope="module")
def trainer():
    model = build_model("GRU", NUM_FEATURES, np.random.default_rng(0))
    return Trainer(model, "mortality", batch_size=8)


def test_evaluate_builds_no_grad_graph(trainer, splits):
    with profile() as prof:
        metrics = trainer.evaluate(splits.validation)
    assert prof.forward_calls() > 0          # the pass really ran ops
    assert prof.grad_graph_outputs == 0      # ...but wired none into a graph
    assert prof.backward_calls() == 0
    assert 0.0 <= metrics["auc_roc"] <= 1.0


def test_predict_proba_builds_no_grad_graph(trainer, splits):
    with profile() as prof:
        probs = trainer.engine.predict_proba(splits.validation)
    assert prof.forward_calls() > 0
    assert prof.grad_graph_outputs == 0
    assert probs.shape == (len(splits.validation),)


def test_training_step_does_build_grad_graph(trainer, splits):
    """Sanity: the same profiler counter is non-zero when grad is on —
    the eval test above is not vacuously passing."""
    with profile() as prof:
        history = Trainer(trainer.model, "mortality", batch_size=8,
                          max_epochs=1, patience=2, seed=1).fit(
                              splits.train, splits.validation)
    assert history.num_epochs == 1
    assert prof.grad_graph_outputs > 0
    assert prof.backward_calls() > 0


@pytest.mark.parametrize("was_training", [True, False])
def test_predict_proba_restores_mode(splits, was_training):
    model = build_model("GRU", NUM_FEATURES, np.random.default_rng(5))
    trainer = Trainer(model, "mortality", batch_size=8)
    model.train(was_training)
    trainer.engine.predict_proba(splits.validation)
    assert model.training is was_training
