"""Objective terms: triplet base loss, margin-consistency regularizer,
the two auxiliary pair-classification losses, and their weighted total.

Targets for the auxiliary binary classifiers use the 0 = positive,
1 = negative convention; both BCE losses are invariant under swapping
the convention together with p -> 1-p.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

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

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


@dataclass
class MlpHead:
    """Binary classifier head: linear -> layer-norm -> dropout -> GeLU -> linear."""

    w1: dm.Tensor
    b1: dm.Tensor
    ln_gain: dm.Tensor
    ln_bias: dm.Tensor
    w2: dm.Tensor
    b2: dm.Tensor
    dropout_rate: float = 0.1

    def forward(self, tape, x: dm.Tensor, rng: np.random.Generator | None = None, training: bool = False) -> dm.Tensor:
        """Logits for the pair features along the last axis of x, shaped x.shape[:-1]."""
        h = dm.affine(tape, x, self.w1, self.b1)
        h = dm.layer_norm(tape, h, self.ln_gain, self.ln_bias)
        if training and self.dropout_rate > 0.0:
            if rng is None:
                raise ValueError("training-mode dropout needs an rng")
            keep = 1.0 - self.dropout_rate
            mask = (rng.random(h.shape) < keep) / keep
            h = dm.mul(tape, h, mask)
        h = dm.gelu(tape, h)
        logits = dm.affine(tape, h, self.w2, self.b2)
        return dm.reshape(tape, logits, logits.shape[:-1])


def init_head(rng: np.random.Generator, in_dim: int, hidden: int | None = None, dropout_rate: float = 0.1) -> MlpHead:
    hidden = in_dim if hidden is None else hidden
    return MlpHead(
        w1=dm.Tensor(rng.normal(0.0, 1.0 / np.sqrt(in_dim), size=(in_dim, hidden))),
        b1=dm.Tensor(np.zeros(hidden)),
        ln_gain=dm.Tensor(np.ones(hidden)),
        ln_bias=dm.Tensor(np.zeros(hidden)),
        w2=dm.Tensor(rng.normal(0.0, 1.0 / np.sqrt(hidden), size=(hidden, 1))),
        b2=dm.Tensor(np.zeros(1)),
        dropout_rate=dropout_rate,
    )


def _as_tensor(x) -> dm.Tensor:
    return x if isinstance(x, dm.Tensor) else dm.Tensor(float(x))


def triplet_base_loss(tape, s_pos, s_negs, margin: float) -> dm.Tensor:
    """Mean over negatives of max(0, margin - s_pos + s_neg)."""
    if len(s_negs) == 0:
        raise EmptyNegatives("triplet loss with no negatives")
    s_pos = _as_tensor(s_pos)
    negs = dm.stack(tape, [_as_tensor(s) for s in s_negs])
    hinge = dm.relu(tape, dm.add(tape, dm.sub(tape, negs, s_pos), float(margin)))
    return dm.mean_all(tape, hinge)


def tcm_loss(tape, pos_sims, neg_sims, cfg: TcmConfig) -> dm.Tensor:
    """Mean shortfall of hard positives below m+ plus mean excess of hard
    negatives above m-. Hard-set membership is strict; empty sets
    contribute zero."""
    pos = [_as_tensor(s) for s in pos_sims]
    neg = [_as_tensor(s) for s in neg_sims]
    hard_pos = [s for s in pos if float(s.data) < cfg.m_plus]
    hard_neg = [s for s in neg if float(s.data) > cfg.m_minus]
    total = dm.Tensor(0.0)
    if hard_pos:
        shortfall = dm.sub(tape, cfg.m_plus, dm.stack(tape, hard_pos))
        total = dm.add(tape, total, dm.mean_all(tape, shortfall))
    if hard_neg:
        excess = dm.sub(tape, dm.stack(tape, hard_neg), cfg.m_minus)
        total = dm.add(tape, total, dm.mean_all(tape, excess))
    return total


def _bce_mean(tape, logits: dm.Tensor, targets: np.ndarray) -> dm.Tensor:
    return dm.mean_all(tape, dm.bce_with_logits(tape, logits, targets))


def _check_blockings(gammas: dm.Tensor, targets: list[np.ndarray]) -> None:
    if any(int(np.sum(t == mining.POSITIVE_TARGET)) != 1 for t in targets):
        raise mining.BadBlocking("blocking without a unique positive")
    if sum(map(len, targets)) != gammas.shape[0]:
        raise dm.DimensionMismatch(f"{gammas.shape[0]} pair features for {sum(map(len, targets))} targets")


def aux_loss_ql(
    tape,
    head: MlpHead,
    gammas: dm.Tensor,
    targets: list[np.ndarray],
    rng: np.random.Generator | None = None,
    training: bool = False,
) -> dm.Tensor:
    """BCE of the pair classifier on raw 4d pair features.

    gammas is the (P, 4d) matrix of the pair features of every blocking,
    blocking after blocking; targets holds each blocking's K targets, with
    exactly one positive.
    """
    _check_blockings(gammas, targets)
    logits = head.forward(tape, gammas, rng=rng, training=training)
    return _bce_mean(tape, logits, np.concatenate(targets))


def aux_loss_qb(
    tape,
    head: MlpHead,
    block: pair_reps.BlockContextParams,
    gammas: dm.Tensor,
    targets: list[np.ndarray],
    rng: np.random.Generator | None = None,
    training: bool = False,
) -> dm.Tensor:
    """BCE of the pair classifier on contextualized 16d pair features.

    Takes the inputs of aux_loss_ql. The blockings of each size K >= 2 are
    contextualized as one (G, K, 4d) batch; a blocking of a single pair
    has no context and is left out.
    """
    _check_blockings(gammas, targets)
    sizes = np.array([len(t) for t in targets])
    starts = np.cumsum(sizes) - sizes
    deltas, order = [], []
    for k in np.unique(sizes[sizes >= 2]):
        members = np.flatnonzero(sizes == k)
        groups = dm.gather_rows(tape, gammas, starts[members, None] + np.arange(k))
        deltas.append(pair_reps.build_delta(tape, groups, pair_reps.contextualize(tape, block, groups)))
        order.extend(members)
    if not deltas:
        raise mining.BadBlocking("contextualization needs a blocking of K >= 2 pairs")
    if len(deltas) > 1:
        deltas = [dm.concat(tape, [dm.reshape(tape, d, (-1, d.shape[-1])) for d in deltas])]
    logits = head.forward(tape, deltas[0], rng=rng, training=training)
    return _bce_mean(tape, logits, np.concatenate([targets[i] for i in order]).reshape(logits.shape))


@dataclass
class LossConfig:
    beta1: float = 1.0
    beta2: float = 0.5
    tcm: TcmConfig | None = field(default_factory=TcmConfig)
    triplet_margin: float = 0.3
    k: int = 5
    detach_aux: bool = False


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
    training: bool = False,
) -> tuple[dm.Tensor, LossBreakdown, int]:
    """Full objective for one batch.

    Returns the scalar total (on the tape), its component breakdown, and
    the number of shrunk blockings. With beta1 = beta2 = 0 and the
    regularizer disabled, the total is bit-identical to the base loss.
    """
    base_negs = batch.base_neg_ids if batch.base_neg_ids is not None else {
        qid: list(batch.neg_pools[qid]) for qid in batch.query_ids
    }
    # TCM and the blockings read every pool negative; the triplet term
    # reads only the base negatives
    whole_pool = cfg.tcm is not None or cfg.beta1 != 0.0 or cfg.beta2 != 0.0
    negs = {
        qid: [lid for lid in batch.neg_pools[qid] if whole_pool or lid in base_negs[qid]]
        for qid in batch.query_ids
    }
    needed = set(batch.pos_label_ids.values())
    for pool in negs.values():
        needed.update(pool)
    label_ids = sorted(needed)
    texts = [dataset.query_by_id[qid].text for qid in batch.query_ids]
    texts += [dataset.label_by_id[lid].text for lid in label_ids]
    features = iter(featurize(texts, enc.num_buckets))
    q_emb = {qid: embed(enc, next(features), tape) for qid in batch.query_ids}
    l_emb = {lid: embed(enc, next(features), tape) for lid in label_ids}

    s_pos: dict[int, dm.Tensor] = {}
    s_negs: dict[int, dict[int, dm.Tensor]] = {}
    for qid in batch.query_ids:
        s_pos[qid] = dm.dot(tape, q_emb[qid], l_emb[batch.pos_label_ids[qid]])
        s_negs[qid] = {lid: dm.dot(tape, q_emb[qid], l_emb[lid]) for lid in negs[qid]}

    triplet_terms = [
        triplet_base_loss(tape, s_pos[qid], [s_negs[qid][lid] for lid in base_negs[qid]], cfg.triplet_margin)
        for qid in batch.query_ids
        if base_negs[qid]
    ]
    base = dm.mean_all(tape, dm.stack(tape, triplet_terms)) if triplet_terms else dm.Tensor(0.0)

    total = base
    tcm_val = 0.0
    if cfg.tcm is not None:
        all_pos = [s_pos[qid] for qid in batch.query_ids]
        all_neg = [t for qid in batch.query_ids for t in s_negs[qid].values()]
        tcm_term = tcm_loss(tape, all_pos, all_neg, cfg.tcm)
        tcm_val = float(tcm_term.data)
        total = dm.add(tape, total, tcm_term)

    xe_ql_val = 0.0
    xe_qb_val = 0.0
    shrunk = 0
    if cfg.beta1 != 0.0 or cfg.beta2 != 0.0:
        negatives = {qid: list(batch.neg_pools[qid]) for qid in batch.query_ids}
        sims = {qid: {lid: float(t.data) for lid, t in s_negs[qid].items()} for qid in batch.query_ids}
        blockings, shrunk = mining.build_blockings(batch, negatives, sims, cfg.k)
        # every pair's 4d feature in one pass: stack the embeddings once,
        # then gather each pair's query and label rows
        q_row = {qid: i for i, qid in enumerate(q_emb)}
        l_row = {lid: len(q_row) + j for j, lid in enumerate(l_emb)}
        stacked = dm.stack(tape, [*q_emb.values(), *l_emb.values()])
        if cfg.detach_aux:
            stacked = dm.detach(tape, stacked)
        q_rows = dm.gather_rows(tape, stacked, [q_row[b.query_id] for b in blockings for _ in b.pair_label_ids])
        l_rows = dm.gather_rows(tape, stacked, [l_row[lid] for b in blockings for lid in b.pair_label_ids])
        gammas = pair_reps.build_gamma(tape, q_rows, l_rows)
        targets = [np.array(b.targets) for b in blockings]
        if cfg.beta1 != 0.0:
            ql = aux_loss_ql(tape, head_ql, gammas, targets, rng=rng, training=training)
            xe_ql_val = float(ql.data)
            total = dm.add(tape, total, dm.mul(tape, ql, cfg.beta1))
        if cfg.beta2 != 0.0 and any(len(t) >= 2 for t in targets):
            qb = aux_loss_qb(tape, head_qb, block, gammas, targets, rng=rng, training=training)
            xe_qb_val = float(qb.data)
            total = dm.add(tape, total, dm.mul(tape, qb, cfg.beta2))

    breakdown = LossBreakdown(
        base=float(base.data),
        tcm=tcm_val,
        xe_ql=xe_ql_val,
        xe_qb=xe_qb_val,
        total=float(total.data),
    )
    return total, breakdown, shrunk
