"""Batch construction and hard-negative mining.

Two samplers are provided: clustered in-batch mining (semantically
related queries grouped so their positives act as semi-hard negatives
for each other) and a pool-based sampler that keeps, per query, the
globally hardest non-positive labels under the current embeddings.
Per-query groups ("blockings") of one positive plus the K-1 hardest
negatives feed the auxiliary classifiers.

All tie-breaking is by ascending label id for reproducibility.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .encoder import TextRecord

POSITIVE_TARGET = 0.0
NEGATIVE_TARGET = 1.0

# upper bound on the scores one block of score_chunks holds (8 MB of
# float64), so neither retrieval nor pool mining builds the whole
# query x label matrix
SCORE_CHUNK_ELEMENTS = 2**20
# Blocks start at multiples of this many rows. OpenBLAS tiles the rows of
# a product (by 12 on Haswell), and a block that starts inside a tile
# rounds some scores differently in the last bit from the whole product.
SCORE_BLOCK_ROWS = 96


class TooFewQueries(ValueError):
    """Fewer queries than the requested batch size."""


class BadBlocking(ValueError):
    """A blocking does not contain exactly one positive pair."""


@dataclass
class QueryRecord:
    id: int
    text: str
    positives: frozenset[int]


@dataclass
class Dataset:
    queries: list[QueryRecord]
    labels: list[TextRecord]

    def __post_init__(self) -> None:
        self.label_by_id = {l.id: l for l in self.labels}
        self.query_by_id = {q.id: q for q in self.queries}


@dataclass
class Batch:
    query_ids: list[int]
    pos_label_ids: dict[int, int]  # query id -> sampled positive label id
    neg_pools: dict[int, tuple[int, ...]]  # query id -> candidate negative ids
    # when set, restricts the triplet term to these negatives (pool sampling);
    # the full pool still drives blocking construction
    base_neg_ids: dict[int, list[int]] | None = None


@dataclass
class Blocking:
    query_id: int
    pair_label_ids: tuple[int, ...]  # positive first, then negatives
    targets: tuple[float, ...]  # 0.0 = positive, 1.0 = negative


def sample_positives(dataset: Dataset, rng: np.random.Generator) -> dict[int, int]:
    """Uniformly pick one positive label per query."""
    out = {}
    for q in dataset.queries:
        choices = sorted(q.positives)
        out[q.id] = int(choices[rng.integers(len(choices))])
    return out


def cluster_batches(query_embeddings: np.ndarray, batch_size: int, seed: int) -> list[list[int]]:
    """Greedy balanced clustering of query indices by cosine similarity.

    Repeatedly seeds a group with an unassigned query and attaches its
    batch_size-1 nearest unassigned neighbours. A trailing singleton
    group is padded with one random already-grouped query so every group
    has at least two members.
    """
    n = query_embeddings.shape[0]
    if batch_size < 2 or n < batch_size:
        raise TooFewQueries(f"{n} queries for batch size {batch_size}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    assigned = np.zeros(n, dtype=bool)
    groups: list[list[int]] = []
    for seed_idx in order:
        if assigned[seed_idx]:
            continue
        assigned[seed_idx] = True
        sims = query_embeddings @ query_embeddings[seed_idx]
        sims[assigned] = -np.inf
        take = min(batch_size - 1, int((~assigned).sum()))
        # sort by similarity desc, index asc
        candidates = np.lexsort((np.arange(n), -sims))[:take]
        group = [int(seed_idx)] + [int(c) for c in candidates]
        assigned[group] = True
        groups.append(group)
    if len(groups[-1]) == 1:
        others = [i for g in groups[:-1] for i in g]
        groups[-1].append(int(others[rng.integers(len(others))]))
    return groups


def in_batch_negatives(batch: Batch, dataset: Dataset) -> dict[int, list[int]]:
    """Negatives for each query: other queries' sampled positives, minus
    anything in the query's own positive set."""
    out: dict[int, list[int]] = {}
    for qid in batch.query_ids:
        own = dataset.query_by_id[qid].positives
        negs = {
            batch.pos_label_ids[other]
            for other in batch.query_ids
            if other != qid and batch.pos_label_ids[other] not in own
        }
        out[qid] = sorted(negs)
    return out


def score_chunks(query_embeddings: np.ndarray, label_embeddings: np.ndarray, label_ids: list[int]):
    """Scores of every query against every label, a block of query rows at
    a time, with the label columns in ascending-id order.

    Yields ``(rows, ids, scores)``: a slice of query rows, the label ids
    in column order, and the block's scores. Blocks start at multiples of
    SCORE_BLOCK_ROWS rows and hold about SCORE_CHUNK_ELEMENTS scores; a
    tail of under half a block joins the block before it. No block is
    then a one-row product, which BLAS computes another way, unless the
    input has one row. With single-threaded OpenBLAS the scores equal the
    same entries of the whole product bit for bit.
    """
    ids = np.asarray(label_ids)
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    n = query_embeddings.shape[0]
    step = max(1, SCORE_CHUNK_ELEMENTS // (SCORE_BLOCK_ROWS * max(1, len(ids)))) * SCORE_BLOCK_ROWS
    starts = list(range(0, n, step))
    if len(starts) > 1 and n - starts[-1] < step // 2:
        starts.pop()
    for start, stop in zip(starts, starts[1:] + [n]):
        # id order is applied after the product, whose rounding can depend
        # on the order of the columns too
        yield slice(start, stop), sorted_ids, np.take(
            query_embeddings[start:stop] @ label_embeddings.T, order, axis=1)


def ance_pool(
    query_embeddings: np.ndarray,
    label_embeddings: np.ndarray,
    label_ids: list[int],
    positives_per_query: list[frozenset[int]],
    pool_size: int,
) -> list[list[int]]:
    """Per-query pools of the pool_size hardest non-positive labels.

    Exact brute-force search over all labels; ordered by similarity
    descending, ties by ascending label id. Positive ids that are not
    among ``label_ids`` are ignored.
    """
    if pool_size < 1:
        raise ValueError("pool_size must be >= 1")
    pools: list[list[int]] = []
    for rows, ids, scores in score_chunks(query_embeddings, label_embeddings, label_ids):
        positives = positives_per_query[rows]
        pos_rows = np.repeat(np.arange(len(positives)), [len(p) for p in positives])
        pos_ids = np.fromiter(itertools.chain.from_iterable(positives), dtype=ids.dtype, count=len(pos_rows))
        # is_pos[r, u]: query r has positive uniq[u]; a repeated label id
        # masks every column that carries it
        uniq, uniq_of_col = np.unique(ids, return_inverse=True)
        u = np.searchsorted(uniq, pos_ids)
        known = u < len(uniq)
        known[known] = uniq[u[known]] == pos_ids[known]
        is_pos = np.zeros((len(positives), len(uniq)), dtype=bool)
        is_pos[pos_rows[known], u[known]] = True
        scores[is_pos[:, uniq_of_col]] = -np.inf
        # ascending negated scores, ties in ascending-id column order, as a
        # stable sort would give; masked positives sort last
        np.negative(scores, out=scores)
        pools.extend(_smallest_per_row(scores, ids, pool_size))
    return pools


def _smallest_per_row(scores: np.ndarray, ids: np.ndarray, k: int) -> list[list[int]]:
    """Ids of each row's k smallest finite scores, ordered by (score,
    column): the first k of a stable argsort, without sorting whole rows."""
    n, width = scores.shape
    k = min(k, width)
    if k == 0:
        return [[] for _ in range(n)]
    kth = np.partition(scores, k - 1, axis=1)[:, k - 1 : k]
    # every score at or below a row's k-th smallest, ties at the k-th included
    rows, cols = np.nonzero(scores <= kth)
    vals = scores[rows, cols]
    order = np.lexsort((cols, vals, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    rank = np.arange(rows.size) - np.searchsorted(rows, rows)
    keep = (rank < k) & np.isfinite(vals)
    bounds = np.searchsorted(rows[keep], np.arange(n + 1))
    chosen = ids[cols[keep]].tolist()
    return [chosen[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def build_blockings(
    batch: Batch,
    negatives: dict[int, list[int]],
    sims: dict[int, dict[int, float]],
    k: int,
) -> tuple[list[Blocking], int]:
    """Assemble per-query blockings of the positive plus K-1 hardest negatives.

    A query with fewer than K-1 available negatives yields a shrunk
    blocking (never dropped); the count of shrunk blockings is returned.
    """
    if k < 2:
        raise ValueError("blocking size must be >= 2")
    blockings = []
    shrunk = 0
    for qid in batch.query_ids:
        cand = negatives.get(qid, [])
        ranked = sorted(cand, key=lambda lid: (-sims[qid][lid], lid))
        chosen = ranked[: k - 1]
        if len(chosen) < k - 1:
            shrunk += 1
        pos = batch.pos_label_ids[qid]
        blockings.append(
            Blocking(
                query_id=qid,
                pair_label_ids=(pos, *chosen),
                targets=(POSITIVE_TARGET, *([NEGATIVE_TARGET] * len(chosen))),
            )
        )
    return blockings, shrunk


def validate_blocking(blocking: Blocking) -> None:
    if sum(1 for t in blocking.targets if t == POSITIVE_TARGET) != 1:
        raise BadBlocking(f"blocking for query {blocking.query_id} lacks a unique positive")
