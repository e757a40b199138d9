"""Retrieval, precision, coverage-at-target, and histogram reporting."""

import json
import re
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xmcreg import mining
from xmcreg.evaluation import (
    EmptyLabelSpace,
    EmptyPredictions,
    ScoredPrediction,
    coverage_at_target,
    evaluate,
    precision_at_1,
    read_scores,
    retrieve_top1,
    score_histogram,
    write_report,
    write_scores,
)

from conftest import deadline, scoring_cases, shuffled_label_case


def _preds(scores, correct):
    return [
        ScoredPrediction(query_id=i, top1_label_id=i, score=s, correct=c)
        for i, (s, c) in enumerate(zip(scores, correct))
    ]


def _unit_rows(arr):
    arr = np.asarray(arr, dtype=float)
    return arr / np.linalg.norm(arr, axis=1, keepdims=True)


def _double_loop_oracle(sims, label_ids, positives):
    """(label id, score, correct) of each query's top label, by scanning the
    score matrix one entry at a time; ties go to the lower label id."""
    out = []
    for qi, row in enumerate(sims):
        best_lid, best_score = None, -np.inf
        for j, lid in enumerate(label_ids):
            s = float(row[j])
            if s > best_score or (s == best_score and lid < best_lid):
                best_lid, best_score = lid, s
        out.append((best_lid, best_score, best_lid in positives[qi]))
    return out


class TestRetrieveTop1:
    def test_singleton(self):
        q = _unit_rows([[1, 0]])
        l = _unit_rows([[0.6, 0.8]])
        preds = retrieve_top1(q, l, [7], [42], [frozenset({42})])
        assert preds[0].top1_label_id == 42
        np.testing.assert_allclose(preds[0].score, 0.6)
        assert preds[0].correct

    def test_exact_match_orthogonal_others(self):
        q = _unit_rows([[1, 0, 0]])
        l = _unit_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        preds = retrieve_top1(q, l, [0], [5, 6, 7], [frozenset({6})])
        assert preds[0].top1_label_id == 6
        np.testing.assert_allclose(preds[0].score, 1.0)

    def test_tie_goes_to_lower_label_id(self):
        q = np.array([[1.0, 0.0]])
        l = np.array([[1.0, 0.0], [1.0, 0.0]])
        preds = retrieve_top1(q, l, [0], [9, 4], [frozenset({9})])
        assert preds[0].top1_label_id == 4

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(0)
        q = _unit_rows(rng.normal(size=(100, 8)))
        l = _unit_rows(rng.normal(size=(50, 8)))
        label_ids = [int(x) for x in rng.permutation(50)]
        positives = [frozenset({int(rng.integers(50))}) for _ in range(100)]
        preds = retrieve_top1(q, l, list(range(100)), label_ids, positives)
        pair_dots = [[float(qv @ lv) for lv in l] for qv in q]
        for p, (lid, score, correct) in zip(preds, _double_loop_oracle(pair_dots, label_ids, positives)):
            assert p.top1_label_id == lid
            np.testing.assert_allclose(p.score, score)
            assert p.correct == correct

    @pytest.mark.parametrize("block_rows, budget", [(3, 1), (4, 1), (4, 80), (96, 2**20)])
    def test_chunks_match_double_loop_oracle(self, monkeypatch, block_rows, budget):
        # 9 queries over 10 labels: three 3-row blocks; a 4-row block and a
        # 5-row block that took the one-row tail; an 8-row block that took
        # the tail; the defaults, one block
        monkeypatch.setattr(mining, "SCORE_BLOCK_ROWS", block_rows)
        monkeypatch.setattr(mining, "SCORE_CHUNK_ELEMENTS", budget)
        rng = np.random.default_rng(3)
        q = _unit_rows(rng.normal(size=(9, 4)))
        l = _unit_rows(rng.normal(size=(10, 4)))
        l[[2, 5, 8]] = l[7]  # tied scores, resolved by label id
        q[4] = l[7]
        label_ids = [int(x) for x in rng.permutation(np.arange(100, 110))]
        positives = [frozenset({label_ids[i], 999}) for i in range(9)]  # 999 is not a label
        blocks = [rows for rows, cols, _ in mining.score_chunks(q, l, label_ids)[1] if cols.start == 0]
        assert all(rows.start % block_rows == 0 and rows.stop - rows.start >= 2 for rows in blocks)
        assert blocks[-1].stop == 9
        preds = retrieve_top1(q, l, list(range(9)), label_ids, positives)
        oracle = _double_loop_oracle(q @ l.T, label_ids, positives)
        assert [(p.top1_label_id, p.score, p.correct) for p in preds] == oracle

    @settings(max_examples=300, deadline=None)
    @given(scoring_cases())
    def test_matches_double_loop_oracle_bytes(self, case):
        # the scores' bytes, so picking a tied -0.0 for a lower-id 0.0 fails
        q, l, label_ids, positives, block_rows, budget = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mining, "SCORE_BLOCK_ROWS", block_rows)
            mp.setattr(mining, "SCORE_CHUNK_ELEMENTS", budget)
            preds = retrieve_top1(q, l, list(range(len(q))), label_ids, positives)
        got = [(p.top1_label_id, np.float64(p.score).tobytes(), p.correct) for p in preds]
        oracle = [(lid, np.float64(score).tobytes(), correct)
                  for lid, score, correct in _double_loop_oracle(q @ l.T, label_ids, positives)]
        assert got == oracle

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_label_order_changes_no_id_or_score_bytes(self, seed):
        q, l, ids, positives, perm = shuffled_label_case(seed)
        qids = list(range(len(q)))
        runs = [retrieve_top1(q, l, qids, ids.tolist(), positives),
                retrieve_top1(q, l[perm], qids, ids[perm].tolist(), positives)]
        a, b = ([(p.top1_label_id, np.float64(p.score).tobytes(), p.correct) for p in run] for run in runs)
        assert a == b

    def test_nan_row_takes_lowest_id_nan_column(self):
        # argmax counts a NaN as the maximum: a NaN query row takes the lowest
        # label id, and a NaN label row wins over every finite score
        q = np.array([[np.nan, 1.0], [1.0, 0.0], [0.0, 1.0]])
        l = np.array([[np.nan, 0.0], [1.0, 0.0], [0.0, 1.0], [np.nan, 1.0]])
        label_ids = [7, 3, 9, 5]
        positives = [frozenset({3}), frozenset({3}), frozenset({9})]
        preds = retrieve_top1(q, l, [0, 1, 2], label_ids, positives)
        assert [p.top1_label_id for p in preds] == [3, 5, 5]
        assert all(np.isnan(p.score) for p in preds)
        with deadline(10), pytest.raises(ValueError, match="^score of query 0 is NaN$"):
            evaluate(preds, target_precision=0.85)

    def test_nan_in_a_later_tile_beats_an_earlier_maximum(self, monkeypatch):
        # 8-column tiles over 30 labels: column 2 (first tile) holds the
        # finite maximum, column 11 (second tile) ties with it, and columns
        # 20 and 27 (third and fourth tiles) hold a NaN; without the NaN
        # columns the tie goes to column 2
        monkeypatch.setattr(mining, "SCORE_BLOCK_ROWS", 2)
        monkeypatch.setattr(mining, "SCORE_CHUNK_ELEMENTS", 1)
        l = np.zeros((30, 2))
        l[2] = l[11] = [5.0, 0.0]
        l[[20, 27]] = [np.nan, 0.0]
        q = np.array([[1.0, 0.0], [1.0, 0.0]])
        label_ids = list(range(100, 130))
        preds = retrieve_top1(q[:1], l, [0], label_ids, [frozenset()])
        assert preds[0].top1_label_id == 120 and np.isnan(preds[0].score)
        preds = retrieve_top1(q, l[:20], [0, 1], label_ids[:20], [frozenset()] * 2)
        assert [(p.top1_label_id, p.score) for p in preds] == [(102, 5.0), (102, 5.0)]

    def test_empty_label_space(self):
        with pytest.raises(EmptyLabelSpace):
            retrieve_top1(np.ones((1, 2)), np.zeros((0, 2)), [0], [], [frozenset()])

    def test_query_ids_must_match_the_query_rows(self):
        with pytest.raises(ValueError, match="2 query ids for 3 query rows"):
            retrieve_top1(np.eye(3), np.eye(3), [1, 2], [0, 1, 2], [frozenset()] * 3)

    def test_positive_sets_must_match_the_query_rows(self):
        with pytest.raises(ValueError, match="4 positive sets for 3 query rows"):
            retrieve_top1(np.eye(3), np.eye(3), [0, 1, 2], [0, 1, 2], [frozenset()] * 4)

    def test_repeated_label_id_rejected(self):
        # with a repeated id the lower-id tie rule has no single answer
        l = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="label id 4 is repeated"):
            retrieve_top1(np.array([[1.0, 0.0]]), l, [0], [4, 4], [frozenset({4})])


class TestPrecision:
    def test_counting(self):
        assert precision_at_1(_preds([0.9, 0.8, 0.7], [True, True, False])) == pytest.approx(2 / 3)

    def test_all_correct(self):
        assert precision_at_1(_preds([0.5, 0.4], [True, True])) == 1.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        preds = _preds(rng.uniform(size=20), rng.integers(0, 2, 20).astype(bool))
        shuffled = list(preds)
        rng.shuffle(shuffled)
        assert precision_at_1(preds) == precision_at_1(shuffled)

    def test_empty(self):
        with pytest.raises(EmptyPredictions):
            precision_at_1([])


def _coverage_oracle(preds, target):
    """Enumerate every candidate threshold (each distinct score)."""
    scores = np.array([p.score for p in preds])
    correct = np.array([p.correct for p in preds])
    best_size, best_tau = 0, None
    for tau in np.unique(scores):
        mask = scores >= tau
        size = int(mask.sum())
        if size and correct[mask].sum() / size >= target and size > best_size:
            best_size, best_tau = size, float(tau)
    if best_size == 0:
        return 0.0, None
    return best_size / len(preds), best_tau


class TestCoverage:
    def test_spec_example(self):
        preds = _preds([0.9, 0.8, 0.7, 0.6], [True, True, False, True])
        c, tau = coverage_at_target(preds, 0.75)
        assert c == 1.0 and tau == 0.6

    def test_all_incorrect(self):
        preds = _preds([0.9, 0.8], [False, False])
        assert coverage_at_target(preds, 0.5) == (0.0, None)

    def test_all_correct_target_one(self):
        preds = _preds([0.9, 0.3, 0.5], [True, True, True])
        c, tau = coverage_at_target(preds, 1.0)
        assert c == 1.0 and tau == 0.3

    def test_equal_scores_atomic(self):
        # the two 0.8-rows must be accepted or rejected together
        preds = _preds([0.9, 0.8, 0.8], [True, True, False])
        c, tau = coverage_at_target(preds, 0.9)
        assert c == pytest.approx(1 / 3) and tau == 0.9

    @pytest.mark.parametrize("scores, nan_query", [([0.9, float("nan")], 1), ([float("nan"), 0.9], 0)])
    def test_nan_score_raises_naming_its_query(self, scores, nan_query):
        preds = _preds(scores, [True, False])
        with deadline(10), pytest.raises(ValueError, match=f"^score of query {nan_query} is NaN$"):
            coverage_at_target(preds, 0.5)

    @pytest.mark.parametrize("scores, message", [([float("inf"), 0.9], "query 0 is inf"),
                                                 ([0.9, -float("inf")], "query 1 is -inf")])
    def test_infinite_score_raises_naming_its_query(self, scores, message):
        # else an infinite score can be the threshold, which a report cannot write as JSON
        with pytest.raises(ValueError, match=f"^score of {message}$"):
            coverage_at_target(_preds(scores, [True, False]), 0.5)

    def test_threshold_keeps_the_sign_of_zero(self):
        # -0.0 == 0.0: the group's first score in input order is the threshold
        for first, second in ((-0.0, 0.0), (0.0, -0.0)):
            _, tau = coverage_at_target(_preds([first, second], [True, True]), 1.0)
            assert str(tau) == str(first)

    def test_target_validated(self):
        preds = _preds([0.9], [True])
        with pytest.raises(ValueError):
            coverage_at_target(preds, 0.0)
        with pytest.raises(ValueError):
            coverage_at_target(preds, 1.5)

    @settings(max_examples=200)
    @given(
        st.lists(
            st.tuples(st.sampled_from([0.1, 0.25, 0.5, 0.7, 0.9]), st.booleans()),
            min_size=1,
            max_size=30,
        ),
        st.sampled_from([0.3, 0.5, 0.75, 0.9, 1.0]),
    )
    def test_matches_enumeration_oracle(self, rows, target):
        preds = _preds([r[0] for r in rows], [r[1] for r in rows])
        assert coverage_at_target(preds, target) == _coverage_oracle(preds, target)

    @settings(max_examples=100)
    @given(
        st.lists(
            st.tuples(st.floats(-1, 1), st.booleans()),
            min_size=1,
            max_size=30,
        )
    )
    def test_monotone_in_target(self, rows):
        preds = _preds([r[0] for r in rows], [r[1] for r in rows])
        last = None
        for target in (1.0, 0.9, 0.6, 0.3, 0.1):
            c, _ = coverage_at_target(preds, target)
            if last is not None:
                assert c >= last  # lowering the target never decreases coverage
            last = c


class TestHistogram:
    def test_degenerate_single_score(self):
        preds = _preds([0.5, 0.5, 0.5], [True, False, True])
        hist = score_histogram(preds, bins=10)
        assert sum(hist.correct_counts) == 2
        assert sum(hist.incorrect_counts) == 1
        assert sum(c > 0 for c in hist.correct_counts) == 1

    def test_disjoint_ranges_zero_overlap(self):
        preds = _preds([0.9, 0.95, 0.1, 0.15], [True, True, False, False])
        hist = score_histogram(preds, bins=4)
        assert hist.overlap == 0.0

    def test_hand_computed_overlap(self):
        # 2 bins over [0, 1]: correct {0.2, 0.8}, incorrect {0.3}
        # masses: correct (.5, .5), incorrect (1, 0) -> overlap = .5
        preds = _preds([0.0, 0.2, 0.8, 1.0, 0.3], [True, True, True, True, False])
        # corrects at 0.0, 0.2 in bin 0; 0.8, 1.0 in bin 1 -> (.5, .5)
        hist = score_histogram(preds, bins=2)
        np.testing.assert_allclose(hist.overlap, 0.5)

    def test_counts_sum_to_queries(self):
        rng = np.random.default_rng(0)
        preds = _preds(rng.uniform(size=40), rng.integers(0, 2, 40).astype(bool))
        hist = score_histogram(preds, bins=7)
        assert sum(hist.correct_counts) + sum(hist.incorrect_counts) == 40

    def test_one_empty_class(self):
        preds = _preds([0.1, 0.9], [True, True])
        assert score_histogram(preds).overlap == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            score_histogram(_preds([0.1], [True]), bins=0)
        with pytest.raises(EmptyPredictions):
            score_histogram([])

    @pytest.mark.parametrize("scores, nan_query", [([0.9, float("nan"), 0.2], 1), ([float("nan"), 0.9, 0.2], 0)])
    def test_nan_score_raises_naming_its_query(self, scores, nan_query):
        # else every edge is NaN, the overlap reads 0 and the report is not valid JSON
        with pytest.raises(ValueError, match=f"^score of query {nan_query} is NaN$"):
            score_histogram(_preds(scores, [True, False, True]))

    @pytest.mark.parametrize("scores, message", [([0.5, float("inf"), 0.2], "query 1 is inf"),
                                                 ([-float("inf"), 0.5, 0.2], "query 0 is -inf")])
    def test_infinite_score_raises_naming_its_query(self, scores, message):
        # else the edges are NaN or infinite and a count goes negative
        with pytest.raises(ValueError, match=f"^score of {message}$"):
            score_histogram(_preds(scores, [True, False, True]), bins=4)

    def test_range_wider_than_the_largest_float(self):
        # hi - lo overflows: np.linspace gave a NaN edge, and np.histogram refused the edges
        hist = score_histogram(_preds([1e308, -1e308], [True, False]), bins=4)
        assert hist.edges == [-1e308, -5e307, 0.0, 5e307, 1e308]
        assert (hist.correct_counts, hist.incorrect_counts) == ([0, 0, 0, 1], [1, 0, 0, 0])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6), st.integers(1, 9))
    # equal scores where lo + 1.0 rounds to lo gave edges all equal to the score
    @example([1e17, 1e17], 4)
    @example([-2.0**53], 4)
    @example([float(np.finfo(float).max)], 1)
    # at subnormal scale np.linspace put an edge past the last one
    @example([-2.5e-323, 1.5e-323], 10)
    # a subnormal score is not exact at a quarter scale, so it must stay an end edge
    @example([1.5e-323, float(np.finfo(float).max)], 3)
    # the widest range: spaced at half scale, 3 steps of a third of it overflow
    @example([-float(np.finfo(float).max), float(np.finfo(float).max)], 3)
    def test_edges_are_finite_and_widening_for_any_finite_scores(self, scores, bins):
        hist = score_histogram(_preds(scores, [i % 2 == 0 for i in range(len(scores))]), bins=bins)
        edges = np.array(hist.edges)
        assert np.isfinite(edges).all() and (edges[1:] >= edges[:-1]).all() and edges[-1] > edges[0]
        assert sum(hist.correct_counts) + sum(hist.incorrect_counts) == len(scores)

    @pytest.mark.parametrize("score, bins, below", [
        # lo + 1.0 rounds to lo: a width of one ulp left 3 of 4 bins empty of width
        (1e17, 4, [-64.0, -48.0, -32.0, -16.0]),
        # just above the binade boundary 2**53: the ulp halves below it, so the
        # floats toward 0 are 2, 3, 4 and 5 below; a width of bins ulps at the
        # score's own spacing gave zero-width bins across the boundary
        (2.0**53 + 2, 4, [-5.0, -4.0, -3.0, -2.0]),
        (-(2.0**53 + 2), 4, [5.0, 4.0, 3.0, 2.0]),
        # width 1 at 2 bins: the middle edge 2**52 + 0.5 rounds to 2**52
        (2.0**52, 2, [-1.0, -0.5]),
    ])
    def test_equal_large_scores_give_bins_one_ulp_wide(self, score, bins, below):
        hist = score_histogram(_preds([score, score], [True, False]), bins=bins)
        want = sorted([score, *(score + d for d in below)])
        assert hist.edges == want
        # widened toward 0, the score is the last edge if positive, else the first
        counts = [0] * (bins - 1) + [1] if score > 0 else [1] + [0] * (bins - 1)
        assert hist.correct_counts == hist.incorrect_counts == counts

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False), st.integers(1, 64))
    @example(2.0**53 + 2, 4)
    @example(-float(np.finfo(float).max), 64)
    @example(0.0, 64)
    def test_equal_scores_give_every_bin_a_positive_width(self, score, bins):
        hist = score_histogram(_preds([score, score], [True, False]), bins=bins)
        edges = np.array(hist.edges)
        assert np.isfinite(edges).all() and (edges[1:] > edges[:-1]).all()
        assert edges[0] <= score <= edges[-1]
        assert sum(hist.correct_counts) == sum(hist.incorrect_counts) == 1


class TestFiles:
    def test_scores_round_trip(self, tmp_path):
        preds = _preds([0.912345678901234, -0.25, 0.0], [True, False, True])
        preds[1].query_id, preds[1].top1_label_id = -3, -10  # a sign is kept
        path = tmp_path / "scores.tsv"
        write_scores(path, preds)
        header = path.read_text().split("\n")[0]
        assert header == "query_id\tlabel_id\tscore\tcorrect"
        back = read_scores(path)
        assert back == preds

    def test_scores_header_enforced(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("nope\n")
        with pytest.raises(ValueError):
            read_scores(path)

    @pytest.mark.parametrize("row, message", [
        ("1\t2\t0.5", "expected 4 tab-separated fields, got 3"),
        ("1\t2\t0.5\t1\t0", "expected 4 tab-separated fields, got 5"),
        ("", "expected 4 tab-separated fields, got 1"),
        ("1.5\t2\t0.5\t1", "invalid literal for int()"),
        ("1\tx\t0.5\t1", "invalid literal for int()"),
        ("1\t2\thigh\t1", "could not convert string to float"),
        ("1\t2\tnan\t1", "score nan is not finite"),
        ("1\t2\t-inf\t0", "score -inf is not finite"),
        ("1\t2\t0.5\t7", "correct must be 0 or 1, got '7'"),
        ("1\t2\t0.5\ttrue", "correct must be 0 or 1, got 'true'"),
        # ids that int() takes but write_scores never writes
        ("1_0\t2\t0.5\t1", "query_id: invalid literal for int() with base 10: '1_0'"),
        (" 1\t2\t0.5\t1", "query_id: invalid literal for int() with base 10: ' 1'"),
        ("+1\t2\t0.5\t1", "query_id: invalid literal for int() with base 10: '+1'"),
        ("\u0661\t2\t0.5\t1", "query_id: invalid literal for int() with base 10: '\u0661'"),
        ("1\t 2\t0.5\t1", "label_id: invalid literal for int() with base 10: ' 2'"),
        ("1\t2 \t0.5\t1", "label_id: invalid literal for int() with base 10: '2 '"),
        # scores that float() takes but write_scores never writes
        *[(f"1\t2\t{score}\t1", f"score {score!r} is not written as repr(float) writes it")
          for score in (" 0.5", "0.5 ", "+0.5", "1_0", "\u0661.\u0665", ".5", "5.", "1e16", "1E+16")],
    ])
    def test_malformed_scores_row_names_path_and_line(self, tmp_path, row, message):
        path = tmp_path / "scores.tsv"
        path.write_text(f"query_id\tlabel_id\tscore\tcorrect\n0\t1\t0.25\t0\n{row}\n0\t1\t0.25\t0\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            read_scores(path)
        assert str(err.value).startswith(f"{path}:3: ") and message in str(err.value)

    @example([5e-324, 1e16, -0.0])
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
    def test_finite_scores_round_trip_bitwise(self, scores):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scores.tsv"
            write_scores(path, _preds(scores, [i % 2 == 0 for i in range(len(scores))]))
            back = read_scores(path)
        assert np.array([p.score for p in back]).tobytes() == np.array(scores).tobytes()

    def test_header_only_file_names_path(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("query_id\tlabel_id\tscore\tcorrect\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: no score rows$"):
            read_scores(path)

    def test_report_json(self, tmp_path):
        preds = _preds([0.9, 0.4], [True, False])
        report = evaluate(preds, 0.5, bins=4)
        path = tmp_path / "report.json"
        write_report(path, report)
        obj = json.loads(path.read_text())
        assert set(obj) == {"p_at_1", "c_at_1", "threshold", "target_precision", "histogram"}
        assert set(obj["histogram"]) == {"edges", "correct_counts", "incorrect_counts", "overlap"}
        assert obj["p_at_1"] == 0.5

    def test_histogram_json(self, tmp_path):
        hist = score_histogram(_preds([0.9, 0.4], [True, False]), bins=2)
        path = tmp_path / "hist.json"
        write_report(path, hist)
        assert json.loads(path.read_text()) == asdict(hist)
        assert not (tmp_path / "hist.json.tmp").exists()


def test_calibration_split_picks_the_threshold():
    preds = _preds([0.9, 0.6, 0.4], [True, False, True])
    calibration = _preds([0.8, 0.5], [True, False])
    report = evaluate(preds, 1.0, calibration=calibration)
    assert report.threshold == 0.8
    assert report.c_at_1 == 1 / 3
    assert report.p_at_1 == 2 / 3
    assert evaluate(preds, 1.0).threshold == 0.9


def test_calibrated_eval_rejects_a_nan_score():
    # the calibration split sets the threshold, so only the histogram reads preds' scores
    preds = _preds([0.9, float("nan"), 0.4], [True, False, True])
    with pytest.raises(ValueError, match="^score of query 1 is NaN$"):
        evaluate(preds, 0.85, calibration=_preds([0.8, 0.5], [True, False]))


def test_calibrated_eval_rejects_an_infinite_calibration_score():
    # else the threshold is inf, and write_report would write Infinity
    preds = _preds([0.9, 0.6, 0.4], [True, False, True])
    with pytest.raises(ValueError, match="^score of query 0 is inf$"):
        evaluate(preds, 0.85, calibration=_preds([float("inf"), 0.5], [True, False]))
