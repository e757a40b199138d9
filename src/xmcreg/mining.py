"""Batch construction and hard-negative mining.

Two samplers are provided: clustered in-batch mining (semantically
related queries grouped so their positives act as semi-hard negatives
for each other) and a pool-based sampler that keeps, per query, the
globally hardest non-positive labels under the current embeddings.
Per-query groups ("blockings") of one positive plus the K-1 hardest
negatives feed the auxiliary classifiers.

Score columns ascend by label id, whatever the input order; all ties go to the lower id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import TextRecord

POSITIVE_TARGET = 0.0
NEGATIVE_TARGET = 1.0

# about the number of scores one tile of score_chunks holds (2 MB of
# float64), whatever the label count, so neither retrieval nor pool mining
# builds the whole query x label matrix
SCORE_CHUNK_ELEMENTS = 2**18
# Row blocks start at multiples of this many rows. OpenBLAS tiles the rows
# of a product (by 12 on Haswell), and a block that starts inside a tile
# rounds some scores differently in the last bit from the whole product.
SCORE_BLOCK_ROWS = 96
# Column tiles start at multiples of this many labels, and the label rows
# are zero-padded to one. OpenBLAS (Haswell and SkylakeX kernels) rounds
# the columns past the last multiple of 8 another way, and differently
# with another thread count.
SCORE_PAD_COLUMNS = 8


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
        candidates = np.argsort(-sims, kind="stable")[:take]
        group = [int(seed_idx)] + [int(c) for c in candidates]
        assigned[group] = True
        groups.append(group)
    if len(groups[-1]) == 1:
        others = [i for g in groups[:-1] for i in g]
        groups[-1].append(int(others[rng.integers(len(others))]))
    return groups


def random_groups(n: int, batch_size: int, rng: np.random.Generator) -> list[list[int]]:
    """Query indices in random groups of batch_size; a trailing singleton joins the group before it."""
    order = rng.permutation(n)
    groups = [list(map(int, order[i : i + batch_size])) for i in range(0, n, batch_size)]
    if len(groups) > 1 and len(groups[-1]) == 1:
        groups[-2].extend(groups.pop())
    return groups


def make_batch(
    dataset: Dataset, group: list[int], sampled_pos: dict[int, int],
    pools: list[list[int]] | None, rng: np.random.Generator,
) -> Batch:
    """The batch of the queries at indices ``group``: in-batch negatives, or each query's pool plus,
    from a non-empty pool, one triplet negative drawn by ``rng.integers`` (in group order)."""
    qids = [dataset.queries[i].id for i in group]
    batch = Batch(query_ids=qids, pos_label_ids={qid: sampled_pos[qid] for qid in qids}, neg_pools={})
    if pools is None:
        negs = in_batch_negatives(batch, dataset)
        batch.neg_pools = {qid: tuple(negs[qid]) for qid in qids}
    else:
        batch.neg_pools = {qid: tuple(pools[i]) for qid, i in zip(qids, group)}
        batch.base_neg_ids = {qid: [p[rng.integers(len(p))]] if (p := pools[i]) else [] for qid, i in zip(qids, group)}
    return batch


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
    """Scores of every query against every label, one tile of query rows x
    label columns at a time, with the label columns in ascending-id order.

    Returns ``(ids, tiles)``: ``label_ids`` in ascending order, and one
    iterator of ``(rows, cols, scores)``: a slice of query rows, a slice of
    columns, and the tile's scores, whose column j belongs to
    ``ids[cols][j]``. Column tiles come in ascending order, and within each
    the row blocks ascend, so each row sees its tiles in id order. Each
    column tile's label rows are gathered once, in ascending-id order, so no
    score depends on the input order. All tiles and the gathered label rows
    share one buffer, so a tile is overwritten by the next one: keep what
    you need of it before asking for the next.

    Row blocks start at multiples of SCORE_BLOCK_ROWS, column tiles at
    multiples of SCORE_PAD_COLUMNS, and a tile holds about
    SCORE_CHUNK_ELEMENTS scores; a tail of under half a block or tile joins
    the one before it. No block is then a one-row product, which BLAS
    computes another way, unless the input has one row. The gathered label
    rows are zero-padded to a multiple of SCORE_PAD_COLUMNS, so every tile
    computes whole kernel columns, and OpenBLAS gives the same scores at any
    thread count. At the default tile size they also equal the same entries
    of the whole padded product bit for bit; much smaller tiles need not,
    since OpenBLAS rounds some small products by shape (SkylakeX). A
    repeated label id raises ValueError, since ties are broken by id, and
    so does a label row count that does not match the ids.
    """
    if label_embeddings.shape[0] != len(label_ids):
        raise ValueError(f"{label_embeddings.shape[0]} label rows for {len(label_ids)} label ids")
    order = np.argsort(label_ids)
    ids = np.asarray(label_ids)[order]
    repeated = np.flatnonzero(ids[1:] == ids[:-1])
    if repeated.size:
        raise ValueError(f"label id {ids[repeated[0]]} is repeated")
    width = len(ids)
    padded = -(-width // SCORE_PAD_COLUMNS) * SCORE_PAD_COLUMNS
    step = max(1, SCORE_CHUNK_ELEMENTS // (SCORE_BLOCK_ROWS * max(1, padded))) * SCORE_BLOCK_ROWS
    row_bounds = _bounds(query_embeddings.shape[0], step)
    col_bounds = _bounds(padded, max(1, SCORE_CHUNK_ELEMENTS // (step * SCORE_PAD_COLUMNS)) * SCORE_PAD_COLUMNS)
    tile_rows, tile_cols = max(np.diff(row_bounds)), max(np.diff(col_bounds))
    buffer = np.empty(tile_rows * tile_cols + tile_cols * label_embeddings.shape[1],
                      dtype=np.result_type(query_embeddings, label_embeddings))
    labels = buffer[tile_rows * tile_cols:].reshape(tile_cols, label_embeddings.shape[1])

    def tiles():
        for lo, hi in zip(col_bounds, col_bounds[1:]):
            cols = slice(lo, min(hi, width))
            labels[: cols.stop - lo] = label_embeddings[order[cols]]
            labels[cols.stop - lo : hi - lo] = 0.0
            for rows in map(slice, row_bounds, row_bounds[1:]):
                scores = buffer[: (rows.stop - rows.start) * (hi - lo)].reshape(rows.stop - rows.start, hi - lo)
                np.matmul(query_embeddings[rows], labels[: hi - lo].T, out=scores)
                yield rows, cols, scores[:, : cols.stop - lo]

    return ids, tiles()


def _bounds(total: int, step: int) -> list[int]:
    """Block boundaries 0, step, 2 * step, ..., total; a tail of under half
    a step joins the block before it, and a total of 0 is one empty block."""
    starts = list(range(0, total, step)) or [0]
    if len(starts) > 1 and total - starts[-1] < step // 2:
        starts.pop()
    return starts + [total]


def ance_pool(
    query_embeddings: np.ndarray,
    label_embeddings: np.ndarray,
    label_ids: list[int],
    positives_per_query: list[frozenset[int]],
    pool_size: int,
) -> list[list[int]]:
    """Per-query pools of the pool_size hardest non-positive labels.

    Exact brute-force search over all labels, ordered by similarity
    descending, ties by ascending label id: each row keeps its pool_size +
    |positives| hardest finite scores, then drops its positives, so a pool
    is shorter only when fewer finite non-positive scores exist.
    """
    if pool_size < 1:
        raise ValueError("pool_size must be >= 1")
    if len(positives_per_query) != len(query_embeddings):
        raise ValueError(f"{len(positives_per_query)} positive sets for {len(query_embeddings)} query rows")
    ids, tiles = score_chunks(query_embeddings, label_embeddings, label_ids)
    k = pool_size + np.array([len(pos) for pos in positives_per_query], dtype=np.intp)
    # each row block's survivors, each row's first k of the tiles so far, are
    # cut once per tile together with the tile's candidates after them, so a
    # cut holds at most 2 k a row plus the ties at its k-th; the stable cut
    # keeps the survivors, of earlier tiles and lower ids, first among ties
    found = {}
    for rows, cols, scores in tiles:
        # ascending negated scores; multiplied, as np.negative(out=) in
        # numpy 2.4 misreads a one-column tile (a stride of 8 elements)
        scores *= -1.0
        r, c, v = _at_or_below_kth(scores, k[rows])
        part = r + rows.start, ids[cols][c], v
        if rows.start in found:
            part = [np.concatenate(pair) for pair in zip(found[rows.start], part)]
        pick = _first_per_row(part[0], part[2], k)
        found[rows.start] = [a[pick] for a in part]
    r, chosen, _ = (np.concatenate(parts) for parts in zip(*found.values()))  # blocks in row order
    bounds = np.searchsorted(r, np.arange(len(k) + 1))
    chosen = chosen.tolist()
    return [[i for i in chosen[lo:hi] if i not in pos][:pool_size]
            for lo, hi, pos in zip(bounds[:-1], bounds[1:], positives_per_query)]


def _at_or_below_kth(scores: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, column, score) of every score at or below its row's k[row]-th
    smallest, ties at the k-th included, in (row, column) order, without
    sorting whole rows. Non-finite scores are set to +inf in place."""
    scores[~np.isfinite(scores)] = np.inf
    # each row's k-th smallest, from the sorted first columns of a partition
    # at the largest k under the width; a row whose k reaches it keeps all
    short = k < scores.shape[1]
    kth = np.full(len(k), np.inf)
    if short.any():
        head = np.partition(scores, k[short].max() - 1, axis=1)[:, : k[short].max()]
        head.sort(axis=1)
        kth[short] = head[short, k[short] - 1]
    rows, cols = np.nonzero(scores <= kth[:, None])
    return rows, cols, scores[rows, cols]


def _first_per_row(rows: np.ndarray, vals: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Positions of each row's k[row] smallest finite ``vals``, ties to the
    earlier position, in (row, value) order."""
    # stable: ties keep the earlier position first
    order = np.lexsort((vals, rows))
    rank = np.arange(order.size) - np.searchsorted(rows[order], rows[order])
    return order[(rank < k[rows[order]]) & np.isfinite(vals[order])]


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

