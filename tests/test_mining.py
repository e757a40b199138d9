"""Batch clustering, negative mining, and blocking assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmcreg import mining
from xmcreg.encoder import TextRecord
from xmcreg.mining import (
    Batch,
    Blocking,
    Dataset,
    QueryRecord,
    TooFewQueries,
    ance_pool,
    build_blockings,
    cluster_batches,
    in_batch_negatives,
    sample_positives,
    validate_blocking,
)


def _unit_rows(arr):
    arr = np.asarray(arr, dtype=float)
    return arr / np.linalg.norm(arr, axis=1, keepdims=True)


def _exhaustive_sort_oracle(sims, ids, positives, pool_size):
    return [
        sorted(
            (lid for lid in ids if lid not in positives[qi]),
            key=lambda lid: (-sims[qi][ids.index(lid)], lid),
        )[:pool_size]
        for qi in range(len(positives))
    ]


class TestClusterBatches:
    def test_identical_embeddings_counting(self):
        embs = np.tile([1.0, 0.0], (4, 1))
        groups = cluster_batches(embs, batch_size=2, seed=0)
        assert len(groups) == 2
        assert sorted(i for g in groups for i in g) == [0, 1, 2, 3]

    def test_separated_clusters_stay_together(self):
        embs = _unit_rows([[1, 0.01], [1, -0.01], [1, 0.02], [-1, 0.01], [-1, -0.02], [-1, 0.03]])
        groups = cluster_batches(embs, batch_size=3, seed=1)
        for g in groups:
            signs = {embs[i][0] > 0 for i in g}
            assert len(signs) == 1  # never mixes the two clusters

    def test_deterministic(self):
        embs = _unit_rows(np.random.default_rng(0).normal(size=(20, 4)))
        a = cluster_batches(embs, batch_size=4, seed=7)
        b = cluster_batches(embs, batch_size=4, seed=7)
        assert a == b

    def test_too_few_queries(self):
        with pytest.raises(TooFewQueries):
            cluster_batches(np.ones((3, 2)), batch_size=4, seed=0)
        with pytest.raises(TooFewQueries):
            cluster_batches(np.ones((3, 2)), batch_size=1, seed=0)

    def test_epoch_coverage_without_padding(self):
        # n divisible by batch size: every query exactly once
        embs = _unit_rows(np.random.default_rng(1).normal(size=(24, 4)))
        groups = cluster_batches(embs, batch_size=4, seed=0)
        flat = [i for g in groups for i in g]
        assert sorted(flat) == list(range(24))

    def test_trailing_singleton_padded(self):
        embs = _unit_rows(np.random.default_rng(2).normal(size=(9, 4)))
        groups = cluster_batches(embs, batch_size=4, seed=0)
        assert all(len(g) >= 2 for g in groups)
        # each query appears at least once; at most one duplicate from padding
        flat = [i for g in groups for i in g]
        assert set(flat) == set(range(9))
        assert len(flat) <= 10


class TestInBatchNegatives:
    def _dataset(self, positives):
        queries = [QueryRecord(id=i, text=f"q{i}", positives=frozenset(p)) for i, p in enumerate(positives)]
        labels = [TextRecord(id=l, text=f"l{l}") for l in sorted({x for p in positives for x in p})]
        return Dataset(queries=queries, labels=labels)

    def test_disjoint_positives_counting(self):
        ds = self._dataset([{0}, {1}, {2}])
        batch = Batch(query_ids=[0, 1, 2], pos_label_ids={0: 0, 1: 1, 2: 2}, neg_pools={})
        negs = in_batch_negatives(batch, ds)
        assert negs == {0: [1, 2], 1: [0, 2], 2: [0, 1]}

    def test_shared_positive_filtered(self):
        ds = self._dataset([{0}, {0}, {2}])
        batch = Batch(query_ids=[0, 1, 2], pos_label_ids={0: 0, 1: 0, 2: 2}, neg_pools={})
        negs = in_batch_negatives(batch, ds)
        assert 0 not in negs[0] and 0 not in negs[1]

    @given(st.lists(st.sets(st.integers(0, 9), min_size=1, max_size=3), min_size=2, max_size=6))
    def test_never_intersects_own_positives(self, positives):
        ds = self._dataset(positives)
        rng = np.random.default_rng(0)
        pos = sample_positives(ds, rng)
        batch = Batch(query_ids=[q.id for q in ds.queries], pos_label_ids=pos, neg_pools={})
        negs = in_batch_negatives(batch, ds)
        for q in ds.queries:
            assert not set(negs[q.id]) & q.positives


class TestAncePool:
    def test_pool_size_one_is_hardest(self):
        q = _unit_rows([[1, 0]])
        labels = _unit_rows([[0.9, 0.1], [1, 0.01], [0, 1]])
        pools = ance_pool(q, labels, [10, 11, 12], [frozenset()], pool_size=1)
        assert pools == [[11]]

    def test_positives_excluded(self):
        q = _unit_rows([[1, 0]])
        labels = _unit_rows([[0.9, 0.1], [1, 0.01], [0, 1]])
        pools = ance_pool(q, labels, [10, 11, 12], [frozenset({11})], pool_size=3)
        assert 11 not in pools[0]
        assert pools[0][0] == 10  # next hardest

    def test_matches_exhaustive_sort(self):
        rng = np.random.default_rng(5)
        q = _unit_rows(rng.normal(size=(4, 3)))
        labels = _unit_rows(rng.normal(size=(10, 3)))
        ids = list(range(100, 110))
        positives = [frozenset({100}), frozenset(), frozenset({103, 104}), frozenset({109})]
        pools = ance_pool(q, labels, ids, positives, pool_size=5)
        assert pools == _exhaustive_sort_oracle(q @ labels.T, ids, positives, 5)

    @pytest.mark.parametrize("block_rows, budget", [(3, 1), (4, 1), (4, 80), (96, 2**20)])
    def test_chunks_match_exhaustive_sort(self, monkeypatch, block_rows, budget):
        # 9 queries over 10 labels: three 3-row blocks; a 4-row block and a
        # 5-row block that took the one-row tail; an 8-row block that took
        # the tail; the defaults, one block
        monkeypatch.setattr(mining, "SCORE_BLOCK_ROWS", block_rows)
        monkeypatch.setattr(mining, "SCORE_CHUNK_ELEMENTS", budget)
        rng = np.random.default_rng(4)
        q = _unit_rows(rng.normal(size=(9, 3)))
        labels = _unit_rows(rng.normal(size=(10, 3)))
        labels[[1, 4, 6]] = labels[0]  # tied scores, resolved by label id
        ids = [int(x) for x in rng.permutation(np.arange(200, 210))]
        positives = [frozenset({ids[i], 999}) for i in range(8)]  # 999 is not a label
        positives.append(frozenset(ids[:8]))  # two non-positives for a pool of 4
        pools = ance_pool(q, labels, ids, positives, pool_size=4)
        assert pools == _exhaustive_sort_oracle(q @ labels.T, ids, positives, 4)
        assert len(pools[8]) == 2

    @pytest.mark.parametrize("seed, pool_size", [(0, 1), (1, 4), (2, 7), (3, 40)])
    def test_many_ties_at_kth_score_match_exhaustive_sort(self, seed, pool_size):
        # 30 labels share 3 embeddings, so most pools cut through a run of
        # tied scores that the ascending label id must break
        rng = np.random.default_rng(seed)
        q = _unit_rows(rng.normal(size=(7, 3)))
        labels = _unit_rows(rng.normal(size=(3, 3)))[rng.integers(3, size=30)]
        ids = [int(x) for x in rng.permutation(np.arange(500, 530))]
        positives = [frozenset(rng.choice(ids, size=int(rng.integers(0, 6)), replace=False).tolist())
                     for _ in range(6)]
        positives.append(frozenset(ids))  # every label positive: an empty pool
        pools = ance_pool(q, labels, ids, positives, pool_size=pool_size)
        assert pools == _exhaustive_sort_oracle(q @ labels.T, ids, positives, pool_size)
        assert pools[-1] == []

    def test_invalid_pool_size(self):
        with pytest.raises(ValueError):
            ance_pool(np.ones((1, 2)), np.ones((1, 2)), [0], [frozenset()], pool_size=0)


class TestBuildBlockings:
    def _batch(self, negs, sims, k, pos=99):
        batch = Batch(query_ids=[0], pos_label_ids={0: pos}, neg_pools={0: tuple(negs)})
        return build_blockings(batch, {0: list(negs)}, {0: sims}, k)

    def test_top4_of_6(self):
        sims = {1: 0.9, 2: 0.8, 3: 0.7, 4: 0.6, 5: 0.5, 6: 0.4}
        blockings, shrunk = self._batch([1, 2, 3, 4, 5, 6], sims, k=5)
        assert shrunk == 0
        assert blockings[0].pair_label_ids == (99, 1, 2, 3, 4)
        assert blockings[0].targets == (0.0, 1.0, 1.0, 1.0, 1.0)

    def test_minimal_blocking(self):
        blockings, _ = self._batch([1, 2], {1: 0.2, 2: 0.8}, k=2)
        assert blockings[0].pair_label_ids == (99, 2)

    def test_tie_broken_by_lower_id(self):
        blockings, _ = self._batch([5, 3], {5: 0.5, 3: 0.5}, k=2)
        assert blockings[0].pair_label_ids == (99, 3)

    def test_shrunk_counted_never_dropped(self):
        blockings, shrunk = self._batch([1], {1: 0.5}, k=4)
        assert shrunk == 1
        assert blockings[0].pair_label_ids == (99, 1)

    def test_k_invariant(self):
        with pytest.raises(ValueError):
            self._batch([1], {1: 0.5}, k=1)

    @settings(max_examples=50)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 6))
    def test_matches_exhaustive_sort_oracle(self, seed, k):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 20))
        negs = list(rng.choice(100, size=n, replace=False))
        sims = {int(l): float(np.round(rng.uniform(-1, 1), 2)) for l in negs}
        blockings, _ = self._batch([int(l) for l in negs], sims, k=k)
        oracle = sorted(sims, key=lambda l: (-sims[l], l))[: k - 1]
        assert list(blockings[0].pair_label_ids[1:]) == oracle


def test_validate_blocking():
    good = Blocking(query_id=0, pair_label_ids=(1, 2), targets=(0.0, 1.0))
    validate_blocking(good)
    bad = Blocking(query_id=0, pair_label_ids=(1, 2), targets=(1.0, 1.0))
    with pytest.raises(mining.BadBlocking):
        validate_blocking(bad)
    double = Blocking(query_id=0, pair_label_ids=(1, 2), targets=(0.0, 0.0))
    with pytest.raises(mining.BadBlocking):
        validate_blocking(double)


def test_sample_positives_within_sets():
    queries = [QueryRecord(id=i, text="", positives=frozenset({i, i + 10})) for i in range(5)]
    labels = [TextRecord(id=l, text="") for l in range(20)]
    ds = Dataset(queries=queries, labels=labels)
    rng = np.random.default_rng(0)
    for _ in range(10):
        pos = sample_positives(ds, rng)
        for q in queries:
            assert pos[q.id] in q.positives
