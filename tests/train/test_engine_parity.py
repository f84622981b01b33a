"""Behavior parity: the event-driven engine reproduces the old trainer.

The per-epoch ``train_loss`` / ``val_loss`` trajectories and
``best_epoch`` below were recorded from the pre-refactor monolithic
``Trainer.fit`` at commit ea9577f on the fixed-seed small synthetic
cohort.  The refactored engine must reproduce them bit-for-bit — any
drift means the loop's order of operations (shuffle RNG consumption,
loss math, early-stopping decisions) changed.

The recordings were made under float64, so the whole module pins the
precision policy to float64 (the float32-vs-float64 *statistical*
parity lives in tests/train/test_precision_parity.py).  The GRU model
runs on the production scan kernel, whose one-big-GEMM input projection
reassociates float ops against the per-step recording: the validation
losses move by at most 2.2e-16, inside the 1e-12 tolerance.
"""

import numpy as np
import pytest

from repro.baselines import GRUClassifier, LogisticRegression
from repro.data import NUM_FEATURES, SyntheticEMRGenerator, train_val_test_split
from repro.nn.dtype import autocast
from repro.train import Trainer


@pytest.fixture(autouse=True)
def float64_policy():
    with autocast(np.float64):
        yield

# Trajectories recorded from the pre-refactor trainer (see docstring).
GRU_TRAIN_LOSS = [0.8028150695562074, 0.8358040233268609,
                  0.7987742531180199, 0.7430667078479932]
GRU_VAL_LOSS = [0.9253917266658791, 0.9051914815903019,
                0.8872169642211027, 0.8695145540584255]
GRU_BEST_EPOCH = 3
GRU_TEST_BCE = 0.9159215492618706

LR_TRAIN_LOSS = [0.8734295241592079, 0.8046616981382103, 0.9127432690163886]
LR_VAL_LOSS = [0.9002992158650487, 0.8919676723655693, 0.8842173178999495]
LR_BEST_EPOCH = 0
LR_NUM_EPOCHS = 3  # early-stopped by patience=2 on a flat AUC-PR


@pytest.fixture(scope="module")
def parity_splits():
    admissions = SyntheticEMRGenerator().sample_many(
        48, np.random.default_rng(123))
    return train_val_test_split(admissions, np.random.default_rng(124))


def test_gru_loss_monitor_trajectory_is_pinned(parity_splits):
    model = GRUClassifier(NUM_FEATURES, np.random.default_rng(0),
                          hidden_size=8)
    trainer = Trainer(model, "mortality", max_epochs=4, patience=4,
                      batch_size=16, seed=0, monitor="loss")
    history = trainer.fit(parity_splits.train, parity_splits.validation)
    np.testing.assert_allclose(history.train_loss, GRU_TRAIN_LOSS,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(history.val_loss, GRU_VAL_LOSS,
                               rtol=0, atol=1e-12)
    assert history.best_epoch == GRU_BEST_EPOCH
    metrics = trainer.evaluate(parity_splits.test)
    np.testing.assert_allclose(metrics["bce"], GRU_TEST_BCE,
                               rtol=0, atol=1e-12)


def test_lr_aucpr_monitor_early_stop_is_pinned(parity_splits):
    model = LogisticRegression(NUM_FEATURES, np.random.default_rng(1))
    trainer = Trainer(model, "mortality", max_epochs=5, patience=2,
                      batch_size=16, seed=3, monitor="auc_pr")
    history = trainer.fit(parity_splits.train, parity_splits.validation)
    assert history.num_epochs == LR_NUM_EPOCHS
    assert history.best_epoch == LR_BEST_EPOCH
    np.testing.assert_allclose(history.train_loss, LR_TRAIN_LOSS,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(history.val_loss, LR_VAL_LOSS,
                               rtol=0, atol=1e-12)
