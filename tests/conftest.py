import numpy as np
import pytest

import allg
from pools import make_blobs


@pytest.fixture(scope="session")
def blobs_small():
    """60 samples, 3 tight classes in 4 dims."""
    return make_blobs(20, 3, d=4, spread=0.8, seed=5)


@pytest.fixture(scope="session")
def blobs_std(blobs_small):
    std, mean, stdev = allg.standardize(blobs_small)
    return std


@pytest.fixture
def tiny_cfg():
    """Small but complete model config for fast training tests."""
    return allg.ModelConfig(
        encoder_dims=(4, 6, 3),
        pretrain_epochs=60,
        train_epochs=80,
        knn_k=4,
        seed=3,
    )


@pytest.fixture
def rng():
    # function-scoped so draws never depend on test execution order
    return np.random.default_rng(1234)


def grads_of(tape, loss, *leaves):
    """The gradient of `loss` w.r.t. each of `leaves`, each swept into a new array
    of its leaf's shape and dtype that starts as NaN."""
    into = {leaf: np.full(leaf.shape, np.nan, dtype=leaf.value.dtype) for leaf in leaves}
    tape.backward(loss, into=into)
    return [into[leaf] for leaf in leaves]


@pytest.fixture
def stage1_calls(monkeypatch):
    """Calls of allg.training.knn_graph and allg.training.pretrain by name, counted by
    spies on the module attributes that run_selection looks them up by."""
    calls = {"knn_graph": 0, "pretrain": 0}
    for name in calls:
        def spy(*args, _name=name, _original=getattr(allg.training, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(allg.training, name, spy)
    return calls
