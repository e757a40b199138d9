"""Top-1 retrieval, precision, coverage at a target precision, and
score-histogram reporting."""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass

import numpy as np

from .data_io import write_atomic
from .mining import score_chunks


class EmptyLabelSpace(ValueError):
    """Retrieval over zero labels."""


class EmptyPredictions(ValueError):
    """Metric over an empty prediction list."""


@dataclass
class ScoredPrediction:
    query_id: int
    top1_label_id: int
    score: float
    correct: bool


@dataclass
class Histogram:
    edges: list[float]
    correct_counts: list[int]
    incorrect_counts: list[int]
    overlap: float


@dataclass
class EvalReport:
    p_at_1: float
    c_at_1: float
    threshold: float | None
    target_precision: float
    histogram: Histogram


def retrieve_top1(
    query_embeddings: np.ndarray,
    label_embeddings: np.ndarray,
    query_ids: list[int],
    label_ids: list[int],
    positives: list[frozenset[int]],
) -> list[ScoredPrediction]:
    """Exact brute-force argmax over all labels; ties go to the lower label
    id, and a row with a NaN score takes its lowest-id NaN column."""
    if label_embeddings.shape[0] == 0:
        raise EmptyLabelSpace("no labels to retrieve from")
    for given, name in ((query_ids, "query ids"), (positives, "positive sets")):
        if len(given) != len(query_embeddings):
            raise ValueError(f"{len(given)} {name} for {len(query_embeddings)} query rows")
    ids, tiles = score_chunks(query_embeddings, label_embeddings, label_ids)
    best, top = np.zeros(len(query_embeddings), dtype=np.intp), np.full(len(query_embeddings), -np.inf)
    for rows, cols, scores in tiles:
        # the columns ascend by id: the first max (a NaN counts as the max) is the lowest id
        arg = scores.argmax(axis=1)
        val = scores[np.arange(len(arg)), arg]
        # a tile beats the lower ids before it only with a greater score, or a NaN over a number
        block_best, block_top = best[rows], top[rows]  # views: writes land in best and top
        take = (val > block_top) | (np.isnan(val) & ~np.isnan(block_top))
        block_best[take], block_top[take] = arg[take] + cols.start, val[take]
    return [ScoredPrediction(query_id=qid, top1_label_id=lid, score=score, correct=lid in pos)
            for qid, lid, score, pos in zip(query_ids, ids[best].tolist(), top.tolist(), positives)]


def precision_at_1(preds: list[ScoredPrediction]) -> float:
    if not preds:
        raise EmptyPredictions("no predictions")
    return sum(p.correct for p in preds) / len(preds)


def _scores(preds: list[ScoredPrediction]) -> np.ndarray:
    """The predictions' scores; a NaN or infinite score raises ValueError naming its query."""
    scores = np.array([p.score for p in preds], dtype=np.float64)
    bad = ~np.isfinite(scores)
    if bad.any():
        i = int(np.argmax(bad))
        value = "NaN" if np.isnan(scores[i]) else float(scores[i])
        raise ValueError(f"score of query {preds[i].query_id} is {value}")
    return scores


def coverage_at_target(preds: list[ScoredPrediction], target_precision: float) -> tuple[float, float | None]:
    """Largest score-threshold acceptance set whose precision meets the target.

    Equal scores are accepted or rejected together. Returns the accepted
    fraction and the threshold (minimum accepted score), or (0, None) if
    no threshold works.
    """
    if not (0.0 < target_precision <= 1.0):
        raise ValueError("target_precision must be in (0, 1]")
    if not preds:
        raise EmptyPredictions("no predictions")
    scores = _scores(preds)
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    hits = np.cumsum(np.array([p.correct for p in preds])[order])
    # last index of each group of equal scores; accepted sizes grow along it
    ends = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    meets = np.flatnonzero(hits[ends] / (ends + 1) >= target_precision)
    if meets.size == 0:
        return 0.0, None
    best = meets[-1]
    first = ends[best - 1] + 1 if best > 0 else 0
    return int(ends[best] + 1) / len(preds), preds[order[first]].score


def score_histogram(preds: list[ScoredPrediction], bins: int = 50) -> Histogram:
    """Uniform-bin counts over the observed score range, split by
    correctness, plus the overlap coefficient of the two normalized
    distributions. A NaN or infinite score raises ValueError naming its query."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if not preds:
        raise EmptyPredictions("no predictions")
    scores = _scores(preds)
    lo, hi = float(scores.min()), float(scores.max())
    equal = lo == hi
    if equal:  # a width of 1
        hi = lo + 1.0
    # spaced at a quarter scale, exact for normal floats, so no range or step overflows; the
    # inner edges clipped, as subnormal steps can pass hi, and the end edges lo and hi exactly
    edges = np.concatenate(([lo], np.clip(np.linspace(lo / 4, hi / 4, bins + 1)[1:-1] * 4, lo, hi), [hi]))
    if equal and not (edges[1:] > edges[:-1]).all():
        # lo + 1.0 rounds to lo, or the floats near lo are too sparse for bins 1 / bins wide: the
        # bins floats next to lo toward 0, so every bin is one ulp wide
        edges = np.sort(np.nextafter.accumulate(np.r_[lo, np.zeros(bins)]))
    correct = np.array([p.correct for p in preds])
    c_counts, _ = np.histogram(scores[correct], bins=edges)
    i_counts, _ = np.histogram(scores[~correct], bins=edges)
    n_c, n_i = c_counts.sum(), i_counts.sum()
    if n_c == 0 or n_i == 0:
        overlap = 0.0
    else:
        overlap = float(np.minimum(c_counts / n_c, i_counts / n_i).sum())
    return Histogram(
        edges=[float(e) for e in edges],
        correct_counts=[int(c) for c in c_counts],
        incorrect_counts=[int(c) for c in i_counts],
        overlap=overlap,
    )


def evaluate(
    preds: list[ScoredPrediction],
    target_precision: float,
    bins: int = 50,
    calibration: list[ScoredPrediction] | None = None,
) -> EvalReport:
    """Metrics of ``preds``. The C@1 threshold is the one that meets the
    target on ``calibration`` when given, else on ``preds`` themselves."""
    p_at_1 = precision_at_1(preds)
    _, tau = coverage_at_target(preds if calibration is None else calibration, target_precision)
    return EvalReport(
        p_at_1=p_at_1,
        c_at_1=sum(p.score >= tau for p in preds) / len(preds) if tau is not None else 0.0,
        threshold=tau,
        target_precision=target_precision,
        histogram=score_histogram(preds, bins=bins),
    )


# ---------------------------------------------------------------------------
# file formats

SCORES_HEADER = "query_id\tlabel_id\tscore\tcorrect"


def write_scores(path, preds: list[ScoredPrediction]) -> None:
    """Atomic write of one tab-separated row per prediction under SCORES_HEADER."""
    lines = [SCORES_HEADER]
    for p in preds:
        lines.append(f"{p.query_id}\t{p.top1_label_id}\t{p.score!r}\t{int(p.correct)}")
    write_atomic(path, "\n".join(lines) + "\n")


def read_scores(path) -> list[ScoredPrediction]:
    """Read a file written by write_scores. A row without exactly four
    tab-separated fields, an id that is not an optional '-' followed by
    ASCII digits, a score that is not finite or not written as repr(float)
    writes it, or a correct value other than 0 or 1 is rejected with
    ``path:line``; a file without rows is rejected with its path."""
    preds = []
    with open(path, encoding="utf-8") as f:
        header = f.readline().rstrip("\n")
        if header != SCORES_HEADER:
            raise ValueError(f"{path}: unexpected scores header {header!r}")
        for lineno, line in enumerate(f, start=2):
            row = line.rstrip("\n").split("\t")
            try:
                if len(row) != 4:
                    raise ValueError(f"expected 4 tab-separated fields, got {len(row)}")
                qid, lid, score, correct = row
                # int() and float() alone also take " 2", "+2", "1_0" and non-ASCII digits
                for name, value in (("query_id", qid), ("label_id", lid)):
                    if not re.fullmatch("-?[0-9]+", value):
                        raise ValueError(f"{name}: invalid literal for int() with base 10: {value!r}")
                number = float(score)
                if not np.isfinite(number):
                    raise ValueError(f"score {number!r} is not finite")
                if not re.fullmatch(r"-?[0-9]+(\.[0-9]+)?(e[-+][0-9]+)?", score):
                    raise ValueError(f"score {score!r} is not written as repr(float) writes it")
                if correct not in ("0", "1"):
                    raise ValueError(f"correct must be 0 or 1, got {correct!r}")
                preds.append(ScoredPrediction(int(qid), int(lid), number, correct == "1"))
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from None
    if not preds:
        raise ValueError(f"{path}: no score rows")
    return preds


def write_report(path, report: EvalReport | Histogram) -> None:
    """Atomic write of a report as sorted, indented JSON."""
    write_atomic(path, json.dumps(asdict(report), sort_keys=True, indent=2) + "\n")
