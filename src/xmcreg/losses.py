"""Objective terms: triplet base loss, margin-consistency regularizer,
the two auxiliary pair-classification losses, and their weighted total.

Targets for the auxiliary binary classifiers use the 0 = positive,
1 = negative convention; both BCE losses are invariant under swapping
the convention together with p -> 1-p.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import diffmath as dm
from . import mining, pair_reps
from .encoder import EncoderParams, embed, featurize
from .mining import Batch, Dataset


class EmptyNegatives(ValueError):
    """Triplet loss needs at least one negative similarity."""


@dataclass
class TcmConfig:
    """Margins for the threshold-consistency regularizer."""

    m_plus: float = 0.8
    m_minus: float = 0.5

    def __post_init__(self) -> None:
        if not (-1.0 <= self.m_minus < self.m_plus <= 1.0):
            raise ValueError(f"need -1 <= m_minus < m_plus <= 1, got {self.m_minus}, {self.m_plus}")


@dataclass
class LossBreakdown:
    base: float
    tcm: float
    xe_ql: float
    xe_qb: float
    total: float


@dataclass
class MlpHead:
    """Binary classifier head: linear -> layer-norm -> dropout -> GeLU -> linear."""

    w1: dm.Tensor
    b1: dm.Tensor
    ln_gain: dm.Tensor
    ln_bias: dm.Tensor
    w2: dm.Tensor
    b2: dm.Tensor

    @staticmethod
    def layout(in_dim: int) -> dm.Layout:
        """A head whose hidden layer is as wide as its input."""
        vector = ("zeros", (in_dim,))
        return {"w1": ("normal", (in_dim, in_dim)), "b1": vector, "ln_gain": ("ones", (in_dim,)), "ln_bias": vector,
                "w2": ("normal", (in_dim, 1)), "b2": ("zeros", (1,))}

    def forward(self, tape, x: dm.Tensor, dropout: tuple[float, np.random.Generator] | None = None) -> dm.Tensor:
        """Logits for the pair features along the last axis of x, shaped
        x.shape[:-1]. A (rate, rng) dropout with rate > 0 draws the mask."""
        h = dm.affine(tape, x, self.w1, self.b1)
        h = dm.layer_norm(tape, h, self.ln_gain, self.ln_bias)
        if dropout is not None and dropout[0] > 0.0:
            rate, rng = dropout
            keep = 1.0 - rate
            mask = (rng.random(h.shape) < keep) / keep
            h = dm.mul(tape, h, mask)
        h = dm.gelu(tape, h)
        logits = dm.affine(tape, h, self.w2, self.b2)
        return dm.reshape(tape, logits, logits.shape[:-1])


def init_head(rng: np.random.Generator, in_dim: int) -> MlpHead:
    return MlpHead(**dm.init_tensors(rng, MlpHead.layout(in_dim)))


def triplet_base_loss(tape, s_pos, s_negs, margin: float, counts=None) -> dm.Tensor:
    """Mean over queries of the mean over each query's negatives of
    max(0, margin - s_pos + s_neg), for one query's score and a list of
    its negatives' scores, or for (Q,) positive scores and (Q, W) scores
    whose row i starts with query i's counts[i] negatives. Queries without
    a negative are left out."""
    if counts is None:
        if len(s_negs) == 0:
            raise EmptyNegatives("triplet loss with no negatives")
        s_negs = dm.reshape(tape, dm.stack(tape, s_negs), (1, -1))
        counts = [s_negs.shape[1]]
    rows = np.flatnonzero(counts)
    if rows.size == 0:
        raise EmptyNegatives("triplet loss with no negatives")
    shifted = dm.sub(tape, s_negs, dm.reshape(tape, s_pos, (-1, 1)))
    hinge = dm.relu(tape, dm.add(tape, shifted, float(margin)))
    per_query = dm.mean_rows(tape, dm.gather_rows(tape, hinge, rows), np.asarray(counts)[rows])
    return dm.mean_all(tape, per_query)


def _hard(tape, sims, is_hard) -> dm.Tensor | None:
    """The scores is_hard selects, or None. A list of scalars is filtered
    before it is stacked, so the scores left out get no gradient."""
    if isinstance(sims, dm.Tensor):
        rows = np.flatnonzero(is_hard(sims.data))
        return dm.gather_rows(tape, sims, rows) if rows.size else None
    hard = [s for s in sims if is_hard(s.data if isinstance(s, dm.Tensor) else s)]
    return dm.stack(tape, hard) if hard else None


def tcm_loss(tape, pos_sims, neg_sims, cfg: TcmConfig) -> dm.Tensor:
    """Mean shortfall of hard positives below m+ plus mean excess of hard
    negatives above m-. Hard-set membership is strict; empty sets
    contribute zero. Each score set is a vector or a list of scalars."""
    hard_pos = _hard(tape, pos_sims, lambda s: s < cfg.m_plus)
    hard_neg = _hard(tape, neg_sims, lambda s: s > cfg.m_minus)
    total = dm.Tensor(0.0)
    if hard_pos is not None:
        total = dm.add(tape, total, dm.mean_all(tape, dm.sub(tape, cfg.m_plus, hard_pos)))
    if hard_neg is not None:
        total = dm.add(tape, total, dm.mean_all(tape, dm.sub(tape, hard_neg, cfg.m_minus)))
    return total


def _check_blockings(gammas: dm.Tensor, targets: list[np.ndarray]) -> None:
    # a list count: one np.sum per blocking costs ~10x as much
    if any(t.tolist().count(mining.POSITIVE_TARGET) != 1 for t in targets):
        raise mining.BadBlocking("blocking without a unique positive")
    if sum(map(len, targets)) != gammas.shape[0]:
        raise dm.DimensionMismatch(f"{gammas.shape[0]} pair features for {sum(map(len, targets))} targets")


def aux_loss_ql(
    tape,
    head: MlpHead,
    gammas: dm.Tensor,
    targets: list[np.ndarray],
    dropout: tuple[float, np.random.Generator] | None = None,
) -> dm.Tensor:
    """BCE of the pair classifier on raw 4d pair features.

    gammas is the (P, 4d) matrix of the pair features of every blocking,
    blocking after blocking; targets holds each blocking's K targets, with
    exactly one positive.
    """
    _check_blockings(gammas, targets)
    return head_loss(tape, head, gammas, np.concatenate(targets), dropout)


def aux_loss_qb(
    tape,
    head: MlpHead,
    block: pair_reps.BlockContextParams,
    gammas: dm.Tensor,
    targets: list[np.ndarray],
    dropout: tuple[float, np.random.Generator] | None = None,
) -> dm.Tensor:
    """BCE of the pair classifier on contextualized 16d pair features.

    Takes the inputs of aux_loss_ql. The blockings of each size K >= 2 are
    contextualized as one (G, K, 4d) batch; a blocking of a single pair
    has no context and is left out. This is group_blockings, which no
    parameter moves, then contextualize and qb_deltas, which block moves,
    then head_loss, which head moves.
    """
    groups, head_targets = group_blockings(tape, gammas, targets)
    contexts = [pair_reps.contextualize(tape, block, g) for g in groups]
    return head_loss(tape, head, qb_deltas(tape, groups, contexts), head_targets, dropout)


def group_blockings(tape, gammas: dm.Tensor, targets: list[np.ndarray]) -> tuple[list[dm.Tensor], np.ndarray]:
    """The blockings of aux_loss_qb's inputs that have context, grouped by
    size: the (G, K, 4d) pair features of the blockings of each size
    K >= 2, K ascending, and their targets, group after group."""
    _check_blockings(gammas, targets)
    sizes = np.array([len(t) for t in targets])
    starts = np.cumsum(sizes) - sizes
    groups, order = [], []
    for k in np.unique(sizes[sizes >= 2]):
        members = np.flatnonzero(sizes == k)
        groups.append(dm.gather_rows(tape, gammas, starts[members, None] + np.arange(k)))
        order.extend(members)
    if not groups:
        raise mining.BadBlocking("contextualization needs a blocking of K >= 2 pairs")
    return groups, np.concatenate([targets[i] for i in order])


def qb_deltas(tape, groups: list[dm.Tensor], contexts: list[dm.Tensor]) -> dm.Tensor:
    """The 16d features of grouped pairs, given each group's contextualized
    features: (G, K, 16d) for one group, else (P, 16d)."""
    deltas = [pair_reps.build_delta(tape, g, lam) for g, lam in zip(groups, contexts)]
    if len(deltas) == 1:
        return deltas[0]
    return dm.concat(tape, [dm.reshape(tape, d, (-1, d.shape[-1])) for d in deltas])


def head_loss(
    tape,
    head: MlpHead,
    x: dm.Tensor,
    targets: np.ndarray,
    dropout: tuple[float, np.random.Generator] | None = None,
) -> dm.Tensor:
    """Mean BCE of the head's logits on the pair features x against the
    targets, one per logit in order."""
    logits = head.forward(tape, x, dropout)
    return dm.mean_all(tape, dm.bce_with_logits(tape, logits, targets.reshape(logits.shape)))


@dataclass
class LossConfig:
    beta1: float = 1.0
    beta2: float = 0.5
    tcm: TcmConfig | None = field(default_factory=TcmConfig)
    triplet_margin: float = 0.3
    k: int = 5
    dropout: float = 0.0


@dataclass(frozen=True)
class BatchPlan:
    """What the objective reads of one batch that no parameter moves: the
    texts to embed, and the embedding rows each score and term reads.

    The embedding rows are the queries, then the labels in ascending id
    order. Row i of the (Q, W) negative scores holds cols[i]: query i's
    base negatives (the triplet term's), then the rest of its pool if TCM
    or the blockings read it, then pads that score the positive again and
    are never read.
    """

    batch: Batch
    cols: list[list[int]]
    label_ids: np.ndarray  # ascending
    features: tuple[np.ndarray, np.ndarray]  # featurize of the queries' texts, then the labels'
    pos_rows: np.ndarray  # each query's positive
    grid: np.ndarray  # (Q, W) the negative scores' labels
    q_grid: np.ndarray  # (Q, W) the negative scores' queries
    counts: list[int]  # each query's base negatives
    pool: list[int] | None  # with TCM: the pool negatives' flat score indices, query by query in pool order


def _label_rows(num_queries: int, label_ids: np.ndarray, lids) -> np.ndarray:
    return num_queries + np.searchsorted(label_ids, lids)


def plan_batch(dataset: Dataset, batch: Batch, cfg: LossConfig, num_buckets: int) -> BatchPlan:
    """The plan of the objective under cfg for one batch, its texts
    featurized into num_buckets buckets (the encoder's)."""
    qids = batch.query_ids
    base_negs = batch.base_neg_ids or {qid: batch.neg_pools[qid] for qid in qids}
    whole_pool = cfg.tcm is not None or cfg.beta1 != 0.0 or cfg.beta2 != 0.0
    cols = [[*base_negs[q], *(l for l in batch.neg_pools[q] if whole_pool and l not in base_negs[q])] for q in qids]
    pos_ids = [batch.pos_label_ids[q] for q in qids]
    label_ids = np.array(sorted(set(pos_ids).union(*cols)))
    texts = [dataset.query_by_id[q].text for q in qids] + [dataset.label_by_id[l].text for l in label_ids.tolist()]
    width = max([1, *map(len, cols)])
    pool = None
    if cfg.tcm is not None:
        pool = [i * width + cols[i].index(l) for i, q in enumerate(qids) for l in batch.neg_pools[q]]
    return BatchPlan(
        batch=batch,
        cols=cols,
        label_ids=label_ids,
        features=featurize(texts, num_buckets),
        pos_rows=_label_rows(len(qids), label_ids, pos_ids),
        grid=_label_rows(len(qids), label_ids, [c + [p] * (width - len(c)) for c, p in zip(cols, pos_ids)]),
        q_grid=np.repeat(np.arange(len(qids))[:, None], width, axis=1),
        counts=[len(base_negs[q]) for q in qids],
        pool=pool,
    )


@dataclass
class PairStage:
    """What objective computes before the auxiliary heads. Only the
    encoder's parameters reach it."""

    total: dm.Tensor  # the triplet base loss plus the TCM term
    base: float
    tcm: float
    shrunk: int  # blockings shrunk for want of negatives
    gammas: dm.Tensor | None  # (P, 4d) pair features of every blocking; None with beta1 = beta2 = 0
    targets: list[np.ndarray] | None  # each blocking's targets


def pair_stage(tape, plan: BatchPlan, enc: EncoderParams, cfg: LossConfig) -> PairStage:
    """The encoder's part of the objective on a batch planned under the
    same cfg: embeddings, scores, the triplet and TCM terms, and, when an
    auxiliary weight is on, the blockings with their pair features."""
    batch, qids = plan.batch, plan.batch.query_ids
    emb = embed(enc, plan.features, tape)
    q_rows = np.arange(len(qids))
    s_pos = dm.dot(tape, dm.gather_rows(tape, emb, q_rows), dm.gather_rows(tape, emb, plan.pos_rows))
    s_neg = dm.dot(tape, dm.gather_rows(tape, emb, plan.q_grid), dm.gather_rows(tape, emb, plan.grid))

    counts = plan.counts
    base = triplet_base_loss(tape, s_pos, s_neg, cfg.triplet_margin, counts) if any(counts) else dm.Tensor(0.0)
    total = base
    tcm_val = 0.0
    if cfg.tcm is not None:
        tcm_term = tcm_loss(tape, s_pos, dm.gather_rows(tape, dm.reshape(tape, s_neg, (-1,)), plan.pool), cfg.tcm)
        tcm_val = float(tcm_term.data)
        total = dm.add(tape, total, tcm_term)

    gammas = targets = None
    shrunk = 0
    if cfg.beta1 != 0.0 or cfg.beta2 != 0.0:
        sims = {q: dict(zip(c, row)) for q, c, row in zip(qids, plan.cols, s_neg.data.tolist())}
        blockings, shrunk = mining.build_blockings(batch, batch.neg_pools, sims, cfg.k)
        # every pair's 4d feature in one pass, from its query's and its
        # label's embedding rows; blocking i is query i's
        pair_q = dm.gather_rows(tape, emb, np.repeat(q_rows, [len(b.pair_label_ids) for b in blockings]))
        pair_lids = [lid for b in blockings for lid in b.pair_label_ids]
        pair_l = dm.gather_rows(tape, emb, _label_rows(len(qids), plan.label_ids, pair_lids))
        gammas = pair_reps.build_gamma(tape, pair_q, pair_l)
        targets = [np.array(b.targets) for b in blockings]
    return PairStage(total, float(base.data), tcm_val, shrunk, gammas, targets)


def head_terms(
    tape,
    stage: PairStage,
    head_ql: MlpHead,
    head_qb: MlpHead,
    block: pair_reps.BlockContextParams,
    cfg: LossConfig,
    rng: np.random.Generator | None = None,
    reuse: dict[str, dm.Tensor] | None = None,
) -> tuple[dm.Tensor, dict[str, dm.Tensor]]:
    """The objective's total: the stage's total, plus beta1 times
    aux_loss_ql, then plus beta2 times aux_loss_qb, each term left out
    where cfg leaves it out. The heads apply cfg.dropout exactly when an
    rng is given, head_ql's mask drawn first.

    Returns the total and the unweighted terms it added, under "ql" and
    "qb". A term in reuse is added as it is, not recomputed, and draws no
    mask: with every other term reused, only the parameters of the one
    recomputed move the total.
    """
    total, terms, reuse = stage.total, {}, reuse or {}
    if stage.gammas is None:
        return total, terms
    gammas, targets = stage.gammas, stage.targets
    dropout = None if rng is None else (cfg.dropout, rng)
    if cfg.beta1 != 0.0:
        terms["ql"] = reuse["ql"] if "ql" in reuse else aux_loss_ql(tape, head_ql, gammas, targets, dropout)
        total = dm.add(tape, total, dm.mul(tape, terms["ql"], cfg.beta1))
    if cfg.beta2 != 0.0 and any(len(t) >= 2 for t in targets):
        terms["qb"] = reuse["qb"] if "qb" in reuse else aux_loss_qb(tape, head_qb, block, gammas, targets, dropout)
        total = dm.add(tape, total, dm.mul(tape, terms["qb"], cfg.beta2))
    return total, terms


def objective(
    tape,
    plan: BatchPlan,
    enc: EncoderParams,
    head_ql: MlpHead,
    head_qb: MlpHead,
    block: pair_reps.BlockContextParams,
    cfg: LossConfig,
    rng: np.random.Generator | None = None,
) -> tuple[dm.Tensor, LossBreakdown, int]:
    """Full objective on a batch planned under the same cfg: pair_stage,
    then head_terms on it. The heads apply cfg.dropout exactly when an
    rng is given.

    Returns the scalar total (on the tape), its component breakdown, and
    the number of shrunk blockings. With beta1 = beta2 = 0 and the
    regularizer disabled, the total is bit-identical to the base loss.
    """
    stage = pair_stage(tape, plan, enc, cfg)
    total, terms = head_terms(tape, stage, head_ql, head_qb, block, cfg, rng)
    xe = {name: float(term.data) for name, term in terms.items()}
    breakdown = LossBreakdown(stage.base, stage.tcm, xe.get("ql", 0.0), xe.get("qb", 0.0), float(total.data))
    return total, breakdown, stage.shrunk


def total_loss(
    tape,
    dataset: Dataset,
    batch: Batch,
    enc: EncoderParams,
    head_ql: MlpHead,
    head_qb: MlpHead,
    block: pair_reps.BlockContextParams,
    cfg: LossConfig,
    rng: np.random.Generator | None = None,
    rows: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[dm.Tensor, LossBreakdown, int]:
    """The objective on one batch, planned afresh: see objective. If
    given, ``rows(ids)`` writes the table rows that hold the plan's bucket
    ids over ids; without it the table is in bucket order."""
    plan = plan_batch(dataset, batch, cfg, enc.num_buckets)
    if rows is not None:
        rows(plan.features[0])
    return objective(tape, plan, enc, head_ql, head_qb, block, cfg, rng)
