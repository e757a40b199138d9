"""Batch clustering, negative mining, and blocking assembly."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xmcreg import evaluation, mining
from xmcreg.encoder import TextRecord
from xmcreg.mining import (
    Batch,
    Dataset,
    QueryRecord,
    TooFewQueries,
    ance_pool,
    build_blockings,
    cluster_batches,
    in_batch_negatives,
    make_batch,
    random_groups,
    sample_positives,
)

from conftest import scoring_cases, shuffled_label_case


def _unit_rows(arr):
    arr = np.asarray(arr, dtype=float)
    return arr / np.linalg.norm(arr, axis=1, keepdims=True)


def _exhaustive_sort_oracle(sims, ids, positives, pool_size):
    return [
        sorted(
            (lid for j, lid in enumerate(ids) if lid not in positives[qi] and np.isfinite(sims[qi][j])),
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

    def test_ties_go_to_the_lower_index(self):
        # every similarity ties, so each seed takes the lowest unassigned indices
        groups = cluster_batches(np.ones((100, 2)), batch_size=4, seed=0)
        free = set(range(100))
        for seed, *rest in groups:
            free.discard(seed)
            assert rest == sorted(free)[:3]
            free -= set(rest)

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


class TestRandomGroups:
    @pytest.mark.parametrize("n, batch_size", [(2, 2), (7, 2), (9, 4), (10, 3), (16, 4), (5, 8)])
    def test_every_index_once_and_no_trailing_singleton(self, n, batch_size):
        groups = random_groups(n, batch_size, np.random.default_rng(n))
        assert sorted(i for g in groups for i in g) == list(range(n))
        assert all(type(i) is int for g in groups for i in g)
        assert all(len(g) <= batch_size for g in groups[:-1])
        assert all(len(g) >= 2 for g in groups)

    def test_singleton_joins_the_group_before_it(self):
        groups = random_groups(9, 4, np.random.default_rng(0))
        assert [len(g) for g in groups] == [4, 5]


class TestMakeBatch:
    def _dataset(self):
        queries = [QueryRecord(id=10 + i, text=f"q{i}", positives=frozenset({i, i + 1})) for i in range(6)]
        labels = [TextRecord(id=l, text=f"l{l}") for l in range(10)]
        return Dataset(queries=queries, labels=labels)

    def test_without_pools_equals_in_batch_negatives(self):
        ds = self._dataset()
        sampled = sample_positives(ds, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        batch = make_batch(ds, [4, 1, 2], sampled, None, rng)
        assert batch.query_ids == [14, 11, 12]
        assert batch.pos_label_ids == {qid: sampled[qid] for qid in (14, 11, 12)}
        plain = Batch(query_ids=[14, 11, 12], pos_label_ids=batch.pos_label_ids, neg_pools={})
        expected = in_batch_negatives(plain, ds)
        assert batch.neg_pools == {qid: tuple(negs) for qid, negs in expected.items()}
        assert batch.base_neg_ids is None
        assert rng.bit_generator.state == before

    def test_with_pools_one_draw_per_non_empty_pool(self):
        ds = self._dataset()
        sampled = sample_positives(ds, np.random.default_rng(0))
        pools = [[5, 6, 7], [8], [], [2, 9], [], [0, 3, 4, 7]]
        group = [3, 2, 5, 0]
        rng, replay = np.random.default_rng(2), np.random.default_rng(2)
        batch = make_batch(ds, group, sampled, pools, rng)
        assert batch.query_ids == [13, 12, 15, 10]
        assert batch.neg_pools == {13: (2, 9), 12: (), 15: (0, 3, 4, 7), 10: (5, 6, 7)}
        # the same draws, in group order, skipping the empty pool
        expected = {13: [[2, 9][replay.integers(2)]], 12: [], 15: [[0, 3, 4, 7][replay.integers(4)]],
                    10: [[5, 6, 7][replay.integers(3)]]}
        assert batch.base_neg_ids == expected
        assert rng.bit_generator.state == replay.bit_generator.state

    def test_empty_pool_gets_no_triplet_negative(self):
        ds = self._dataset()
        sampled = sample_positives(ds, np.random.default_rng(0))
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        batch = make_batch(ds, [1, 4], sampled, [[], [], [], [], [], []], rng)
        assert batch.neg_pools == {11: (), 14: ()}
        assert batch.base_neg_ids == {11: [], 14: []}
        assert rng.bit_generator.state == before


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

    @settings(max_examples=300, deadline=None)
    @given(scoring_cases(), st.integers(1, 12))
    def test_matches_exhaustive_sort_across_blocks(self, case, pool_size):
        q, labels, ids, positives, block_rows, budget = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mining, "SCORE_BLOCK_ROWS", block_rows)
            mp.setattr(mining, "SCORE_CHUNK_ELEMENTS", budget)
            pools = ance_pool(q, labels, ids, positives, pool_size=pool_size)
        assert pools == _exhaustive_sort_oracle(q @ labels.T, ids, positives, pool_size)

    @pytest.mark.parametrize("seed, pool_size", [(0, 1), (1, 5), (2, 12)])
    def test_column_tiles_match_exhaustive_sort(self, monkeypatch, seed, pool_size):
        # 8-column tiles over 30 labels (32 with the pad): four tiles per
        # 3-row block, with ties between labels in different tiles
        monkeypatch.setattr(mining, "SCORE_BLOCK_ROWS", 3)
        monkeypatch.setattr(mining, "SCORE_CHUNK_ELEMENTS", 1)
        rng = np.random.default_rng(seed)
        q = _unit_rows(rng.normal(size=(7, 3)))
        labels = _unit_rows(rng.normal(size=(4, 3)))[rng.integers(4, size=30)]
        ids = [int(x) for x in rng.permutation(np.arange(500, 530))]
        positives = [frozenset(rng.choice(ids + [999], size=int(rng.integers(0, 6)), replace=False).tolist())
                     for _ in range(7)]
        _, tiles = mining.score_chunks(q, labels, ids)
        assert len({cols.start for _, cols, _ in tiles}) == 4
        pools = ance_pool(q, labels, ids, positives, pool_size=pool_size)
        assert pools == _exhaustive_sort_oracle(q @ labels.T, ids, positives, pool_size)

    def test_nan_scores_never_empty_a_pool(self):
        q = np.array([[1.0, 0.0]])
        labels = np.array([[np.nan, 0.0], [1.0, 0.0], [0.0, 1.0]])
        pools = [ance_pool(q, labels, [10, 11, 12], [frozenset()], pool_size=n) for n in (1, 2, 3)]
        assert pools == [[[11]], [[11, 12]], [[11, 12]]]

    @pytest.mark.parametrize("seed, pool_size", [(0, 5), (1, 8), (2, 30)])
    def test_nan_scores_in_a_tile_match_exhaustive_sort(self, monkeypatch, seed, pool_size):
        # 8-column tiles over 30 labels: the second tile (ids 508-515) has
        # two non-NaN scores, fewer than the pool, and the last tile one
        monkeypatch.setattr(mining, "SCORE_BLOCK_ROWS", 3)
        monkeypatch.setattr(mining, "SCORE_CHUNK_ELEMENTS", 1)
        rng = np.random.default_rng(seed)
        q = _unit_rows(rng.normal(size=(7, 3)))
        labels = _unit_rows(rng.normal(size=(4, 3)))[rng.integers(4, size=30)]
        ids = [int(x) for x in rng.permutation(np.arange(500, 530))]
        nan = np.isin(ids, [508, 509, 510, 511, 513, 515, 524, 525, 527, 528, 529])
        labels[nan] = np.nan
        positives = [frozenset(rng.choice(ids + [999], size=int(rng.integers(0, 6)), replace=False).tolist())
                     for _ in range(7)]
        pools = ance_pool(q, labels, ids, positives, pool_size=pool_size)
        finite = [lid for lid, bad in zip(ids, nan) if not bad]
        assert pools == _exhaustive_sort_oracle(q @ labels[~nan].T, finite, positives, pool_size)

    @settings(max_examples=200, deadline=None)
    @given(scoring_cases(), st.integers(1, 12), st.data())
    def test_nan_label_rows_match_exhaustive_sort_over_the_rest(self, case, pool_size, data):
        q, labels, ids, positives, block_rows, budget = case
        nan = np.array(data.draw(st.lists(st.booleans(), min_size=len(ids), max_size=len(ids))))
        labels[nan] = np.nan
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mining, "SCORE_BLOCK_ROWS", block_rows)
            mp.setattr(mining, "SCORE_CHUNK_ELEMENTS", budget)
            pools = ance_pool(q, labels, ids, positives, pool_size=pool_size)
        finite = [lid for lid, bad in zip(ids, nan) if not bad]
        assert pools == _exhaustive_sort_oracle(q @ labels[~nan].T, finite, positives, pool_size)

    def test_infinite_scores_never_empty_a_pool(self):
        q = np.array([[1.0, 0.0]])
        labels = np.array([[np.inf, 0.0], [np.inf, 0.0], [1.0, 0.0], [0.5, 0.0]])
        assert ance_pool(q, labels, [1, 2, 3, 4], [frozenset()], pool_size=2) == [[3, 4]]
        assert ance_pool(-q, labels, [1, 2, 3, 4], [frozenset()], pool_size=2) == [[4, 3]]

    @settings(max_examples=200, deadline=None)
    @given(scoring_cases(), st.integers(1, 12), st.data())
    def test_non_finite_scores_match_exhaustive_sort_over_the_finite_ones(self, case, pool_size, data):
        # a label row of +-inf scores +inf, -inf or NaN, by the query's signs
        q, labels, ids, positives, block_rows, budget = case
        fill = data.draw(st.lists(st.sampled_from([None, np.nan, np.inf, -np.inf]),
                                  min_size=len(ids), max_size=len(ids)))
        for row, value in enumerate(fill):
            if value is not None:
                labels[row] = value
        # inf * 0 and inf - inf score NaN
        with pytest.MonkeyPatch.context() as mp, np.errstate(invalid="ignore"):
            mp.setattr(mining, "SCORE_BLOCK_ROWS", block_rows)
            mp.setattr(mining, "SCORE_CHUNK_ELEMENTS", budget)
            pools = ance_pool(q, labels, ids, positives, pool_size=pool_size)
            sims = q @ labels.T
        assert pools == _exhaustive_sort_oracle(sims, ids, positives, pool_size)

    def test_no_queries_no_pools(self):
        assert ance_pool(np.zeros((0, 2)), np.eye(2), [0, 1], [], pool_size=3) == []

    def test_positive_sets_must_match_the_query_rows(self):
        with pytest.raises(ValueError, match="2 positive sets for 3 query rows"):
            ance_pool(np.eye(3), np.eye(3), [0, 1, 2], [frozenset()] * 2, pool_size=1)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40))
    def test_label_order_changes_no_pool(self, seed, pool_size):
        q, labels, ids, positives, perm = shuffled_label_case(seed)
        assert ance_pool(q, labels, ids.tolist(), positives, pool_size) == \
            ance_pool(q, labels[perm], ids[perm].tolist(), positives, pool_size)

    def test_invalid_pool_size(self):
        with pytest.raises(ValueError):
            ance_pool(np.ones((1, 2)), np.ones((1, 2)), [0], [frozenset()], pool_size=0)

    def test_repeated_label_id_rejected(self):
        labels = _unit_rows([[1, 0], [0, 1], [1, 1]])
        with pytest.raises(ValueError, match="label id 11 is repeated"):
            ance_pool(_unit_rows([[1, 0]]), labels, [11, 10, 11], [frozenset({11})], pool_size=2)


class TestScoreChunks:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.integers(1, 5000), st.sampled_from([8, 32]),
           st.booleans())
    @example(0, 1, 4999, 32, False)  # one query row, two column tiles
    @example(0, 300, 4999, 8, True)  # three row blocks of two tiles each
    def test_tiles_equal_the_padded_whole_product(self, seed, nq, nl, d, shuffled):
        rng = np.random.default_rng(seed)
        q, labels = rng.normal(size=(nq, d)), rng.normal(size=(nl, d))
        ids = rng.permutation(nl) if shuffled else np.arange(nl)
        pad = -nl % mining.SCORE_PAD_COLUMNS
        whole = q @ np.vstack([labels[np.argsort(ids)], np.zeros((pad, d))]).T
        seen = np.zeros((nq, nl), dtype=int)
        sorted_ids, tiles = mining.score_chunks(q, labels, ids.tolist())
        for rows, cols, scores in tiles:
            assert rows.start % mining.SCORE_BLOCK_ROWS == 0
            assert cols.start % mining.SCORE_PAD_COLUMNS == 0
            assert scores.tobytes() == whole[rows, cols].tobytes()
            seen[rows, cols] += 1
        assert sorted_ids.tolist() == list(range(nl))
        assert (seen == 1).all()

    def test_label_rows_must_match_the_ids(self):
        with pytest.raises(ValueError, match="12 label rows for 3 label ids"):
            mining.score_chunks(np.ones((2, 4)), np.ones((12, 4)), [2, 1, 0])

    @pytest.mark.parametrize("consumer, shuffled, queries", [
        *(pytest.param(consumer, shuffled, 192, id=consumer + "-shuffled" * shuffled)
          for consumer in ["retrieve_top1", "ance_pool"] for shuffled in [False, True]),
        pytest.param("ance_pool", True, 2_000, id="ance_pool-shuffled-2000_queries")])
    def test_peak_memory_does_not_grow_with_the_label_count(self, consumer, shuffled, queries):
        # two full-width 96-row blocks alive at once would take about 92 MB
        # at 60,000 labels, a reordered copy of all label rows about 4 MB, and
        # pool candidates of 2,000 queries kept from all 22 tiles about 20 MB
        def peak(num_labels):
            rng = np.random.default_rng(0)
            q, labels = rng.normal(size=(queries, 8)), rng.normal(size=(num_labels, 8))
            ids = rng.permutation(num_labels).tolist() if shuffled else list(range(num_labels))
            positives = [frozenset({int(i)}) for i in rng.integers(num_labels, size=queries)]
            tracemalloc.start()
            try:
                if consumer == "retrieve_top1":
                    evaluation.retrieve_top1(q, labels, list(range(queries)), ids, positives)
                else:
                    ance_pool(q, labels, ids, positives, pool_size=5)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        tile = mining.SCORE_CHUNK_ELEMENTS * 8
        small, large = peak(6_000), peak(60_000)
        assert large < 4 * tile, f"{large / 2**20:.1f} MiB at 60,000 labels"
        assert large < 1.5 * small, f"{large / 2**20:.1f} MiB at 60,000 labels, {small / 2**20:.1f} MiB at 6,000"

    @pytest.mark.parametrize("heavy", [2_000, 19_990])
    def test_peak_memory_of_a_pool_does_not_grow_with_another_querys_positives(self, heavy):
        # one query of a 96-row block has `heavy` of 20,000 labels positive,
        # fewer than a column tile holds or more: a cut at the block's
        # largest k would keep about that many candidates a row and tile
        rng = np.random.default_rng(0)
        q, labels = rng.normal(size=(96, 8)), rng.normal(size=(20_000, 8))
        ids = list(range(20_000))
        positives = [frozenset({int(i)}) for i in rng.integers(20_000, size=96)]
        positives[0] = frozenset(range(heavy))
        tracemalloc.start()
        try:
            pools = ance_pool(q, labels, ids, positives, pool_size=5)
            large = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pools[0]) == 5 and min(pools[0]) >= heavy
        assert large < 4 * mining.SCORE_CHUNK_ELEMENTS * 8, f"{large / 2**20:.1f} MiB"


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


def test_sample_positives_within_sets():
    queries = [QueryRecord(id=i, text="", positives=frozenset({i, i + 10})) for i in range(5)]
    labels = [TextRecord(id=l, text="") for l in range(20)]
    ds = Dataset(queries=queries, labels=labels)
    rng = np.random.default_rng(0)
    for _ in range(10):
        pos = sample_positives(ds, rng)
        for q in queries:
            assert pos[q.id] in q.positives
