import contextlib
import signal

import numpy as np
import pytest

from xmcreg.data_io import SyntheticSpec, build_synthetic
from xmcreg.mining import Dataset
from xmcreg.trainer import TrainConfig


def tiny_spec(**overrides) -> SyntheticSpec:
    base = dict(
        num_labels=30,
        num_train_queries=24,
        num_test_queries=8,
        families=5,
        noise_rate=0.1,
        abbreviation_rate=0.3,
        seed=0,
    )
    base.update(overrides)
    return SyntheticSpec(**base)


def tiny_config(**overrides) -> TrainConfig:
    base = dict(
        epochs=2,
        batch_size=4,
        k=3,
        dim=8,
        dim_hidden=16,
        num_buckets=1024,
        seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture
def tiny_dataset() -> Dataset:
    labels, train_q, _ = build_synthetic(tiny_spec())
    return Dataset(queries=train_q, labels=labels)


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in a block still running after ``seconds``, so a
    hang fails its test instead of stalling the suite (Unix only)."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
