"""Shared fixtures: tiny datasets and a trained LCRS system.

Expensive artifacts (the trained system) are session-scoped so the
integration tests share one joint-training run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core import LCRS, JointTrainingConfig
from repro.data import ArrayDataset, make_dataset
from repro.profiling import counters_scope

# One Hypothesis budget for every property module, whichever files are
# collected.  A module that needs a different budget sets it with
# ``@settings`` on its own tests.
settings.register_profile("repro", max_examples=50, deadline=None)
settings.load_profile("repro")


@pytest.fixture(autouse=True)
def _isolated_counters():
    """Snapshot/restore the process-global counter state around each test.

    Counters (fault/scheduler facades, the global metrics registry, the
    bitpack byte tally) are process-global by design; without this scope
    a test that bumps them leaks state into whichever test runs next.
    """
    with counters_scope():
        yield


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tiny_mnist() -> tuple[ArrayDataset, ArrayDataset]:
    """Small synthetic MNIST-like split shared across tests."""
    return make_dataset("mnist", 300, 120, seed=7)


@pytest.fixture(scope="session")
def tiny_cifar() -> tuple[ArrayDataset, ArrayDataset]:
    return make_dataset("cifar10", 200, 80, seed=7)


@pytest.fixture(scope="session")
def trained_system(tiny_mnist) -> LCRS:
    """A LeNet LCRS joint-trained on the tiny MNIST split and calibrated."""
    train, test = tiny_mnist
    system = LCRS.build(
        "lenet",
        train,
        training_config=JointTrainingConfig(
            epochs=5, batch_size=64, lr_main=2e-3, seed=0
        ),
        dataset_name="mnist",
        seed=0,
    )
    system.fit(train)
    system.calibrate(test)
    return system
