import contextlib
import signal

import numpy as np
import pytest
from hypothesis import strategies as st

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


@st.composite
def scoring_cases(draw):
    """(queries, labels, label ids, positives, SCORE_BLOCK_ROWS,
    SCORE_CHUNK_ELEMENTS) for exact search. Entries are coarse and include
    -0.0, so every score is exact in any summation order and many tie. The
    ids ascend or are shuffled; some positives (99) are not labels, and some
    queries have every label positive. Blocks of at least 2 rows keep BLAS
    off its one-row path unless the input has one row."""
    nq, nl, d = draw(st.integers(1, 9)), draw(st.integers(1, 9)), draw(st.integers(1, 3))
    entry = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])
    q = np.array(draw(st.lists(entry, min_size=nq * d, max_size=nq * d))).reshape(nq, d)
    l = np.array(draw(st.lists(entry, min_size=nl * d, max_size=nl * d))).reshape(nl, d)
    ids = draw(st.lists(st.integers(-20, 60), min_size=nl, max_size=nl, unique=True))
    if draw(st.booleans()):
        ids.sort()
    positive_sets = st.one_of(st.frozensets(st.sampled_from(ids + [99]), max_size=3), st.just(frozenset(ids)))
    positives = draw(st.lists(positive_sets, min_size=nq, max_size=nq))
    block_rows, budget = draw(st.integers(2, 4)), draw(st.sampled_from([1, 7, 2**20]))
    return q, l, ids, positives, block_rows, budget


def shuffled_label_case(seed: int):
    """(queries, labels, label ids, positives, permutation) drawn from
    ``seed``: 50-200 queries over 200-700 labels with d = 32 random float
    entries, where half the label rows repeat others, so tied scores are
    common and OpenBLAS rounds some of them differently by column position.
    The ids are distinct and not ascending; ``permutation`` reorders the
    label rows together with their ids."""
    rng = np.random.default_rng(seed)
    nl, nq = int(rng.integers(200, 701)), int(rng.integers(50, 201))
    q = rng.normal(size=(nq, 32))
    l = rng.normal(size=(nl, 32))
    l[rng.permutation(nl)[: nl // 2]] = l[rng.integers(nl, size=nl // 2)]
    ids = rng.choice(4 * nl, size=nl, replace=False)
    positives = [frozenset(rng.choice(ids, size=int(rng.integers(1, 4)), replace=False).tolist()) for _ in range(nq)]
    return q, l, ids, positives, rng.permutation(nl)


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
