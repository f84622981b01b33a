"""Phenotyping: the multi-class extension of the Prediction Module.

The paper's Prediction Module generalizes beyond binary outcomes
("different downstream prediction tasks", Section IV-B); this example
trains ELDA-Net with a softmax head to classify the admission's disease
archetype — the simulation's ground-truth phenotype — from the same
48-hour EMR window.

    python examples/phenotyping.py
"""

import numpy as np

from repro.core.elda_net import ELDANet
from repro.data import ARCHETYPES, NUM_FEATURES, load_cohort
from repro.train import Trainer


def main():
    splits = load_cohort("physionet2012", scale="small")
    num_classes = len(ARCHETYPES)
    names = [a.name for a in ARCHETYPES]

    print(f"Training ELDA-Net with a {num_classes}-way softmax head ...")
    model = ELDANet(NUM_FEATURES, np.random.default_rng(0),
                    num_classes=num_classes)
    trainer = Trainer(model, "phenotype", max_epochs=10, patience=4,
                      num_classes=num_classes)
    history = trainer.fit(splits.train, splits.validation)
    print(f"  stopped after {history.num_epochs} epochs; "
          f"train CE per epoch: {[round(v, 3) for v in history.train_loss]}")

    metrics = trainer.evaluate(splits.test)
    print(f"Test cross-entropy: {metrics['ce']:.3f} "
          f"(chance level: {np.log(num_classes):.3f})")
    print(f"Test accuracy: {metrics['accuracy']:.3f} "
          f"(chance level: {1 / num_classes:.3f})")

    probs = trainer.engine.predict_proba(splits.test)
    predicted = probs.argmax(axis=1)
    truth = splits.test.labels("phenotype")
    print("\nPer-archetype recall:")
    for k, name in enumerate(names):
        members = truth == k
        if members.sum():
            recall = (predicted[members] == k).mean()
            print(f"  {name:<12} n={members.sum():>3}  recall={recall:.2f}")


if __name__ == "__main__":
    main()
