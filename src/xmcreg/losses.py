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
from .encoder import EncoderParams, encode
from .mining import Batch, Blocking, Dataset, validate_blocking


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
        """Logits for a (N, in) matrix of pair features; returns rank-1 length N."""
        h = dm.add(tape, dm.matmul(tape, x, self.w1), self.b1)
        h = dm.layer_norm(tape, h, self.ln_gain, self.ln_bias)
        if training and self.dropout_rate > 0.0:
            if rng is None:
                raise ValueError("training-mode dropout needs an rng")
            keep = 1.0 - self.dropout_rate
            mask = (rng.random(h.shape) < keep) / keep
            h = dm.mul(tape, h, mask)
        h = dm.gelu(tape, h)
        logits = dm.add(tape, dm.matmul(tape, h, self.w2), self.b2)
        return dm.reshape(tape, logits, (logits.shape[0],))


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


def aux_loss_ql(
    tape,
    head: MlpHead,
    blockings: list[tuple[dm.Tensor, np.ndarray]],
    rng: np.random.Generator | None = None,
    training: bool = False,
) -> dm.Tensor:
    """BCE of the pair classifier on raw 4d pair features.

    Each blocking is a (K, 4d) feature matrix plus its K targets and must
    contain exactly one positive.
    """
    for _, targets in blockings:
        if int(np.sum(targets == mining.POSITIVE_TARGET)) != 1:
            raise mining.BadBlocking("blocking without a unique positive")
    features = dm.concat(tape, [g for g, _ in blockings], axis=0)
    targets = np.concatenate([t for _, t in blockings])
    logits = head.forward(tape, features, rng=rng, training=training)
    return _bce_mean(tape, logits, targets)


def aux_loss_qb(
    tape,
    head: MlpHead,
    block: pair_reps.BlockContextParams,
    blockings: list[tuple[dm.Tensor, np.ndarray]],
    rng: np.random.Generator | None = None,
    training: bool = False,
) -> dm.Tensor:
    """BCE of the pair classifier on contextualized 16d pair features."""
    deltas = []
    target_parts = []
    for gammas, targets in blockings:
        if int(np.sum(targets == mining.POSITIVE_TARGET)) != 1:
            raise mining.BadBlocking("blocking without a unique positive")
        if gammas.shape[0] < 2:
            raise mining.BadBlocking("contextualization needs K >= 2 pairs")
        lam = pair_reps.contextualize(tape, block, gammas)
        deltas.append(pair_reps.build_delta(tape, gammas, lam))
        target_parts.append(targets)
    features = dm.concat(tape, deltas, axis=0)
    logits = head.forward(tape, features, rng=rng, training=training)
    return _bce_mean(tape, logits, np.concatenate(target_parts))


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
    q_emb: dict[int, dm.Tensor] = {}
    l_emb: dict[int, dm.Tensor] = {}
    for qid in batch.query_ids:
        q_emb[qid] = encode(enc, dataset.query_by_id[qid].text, tape)
    needed = set(batch.pos_label_ids.values())
    for pool in batch.neg_pools.values():
        needed.update(pool)
    for lid in sorted(needed):
        l_emb[lid] = encode(enc, dataset.label_by_id[lid].text, tape)

    sims: dict[int, dict[int, float]] = {}
    s_pos: dict[int, dm.Tensor] = {}
    s_negs: dict[int, dict[int, dm.Tensor]] = {}
    for qid in batch.query_ids:
        s_pos[qid] = dot = dm.dot(tape, q_emb[qid], l_emb[batch.pos_label_ids[qid]])
        s_negs[qid] = {lid: dm.dot(tape, q_emb[qid], l_emb[lid]) for lid in batch.neg_pools[qid]}
        sims[qid] = {lid: float(t.data) for lid, t in s_negs[qid].items()}

    base_negs = batch.base_neg_ids if batch.base_neg_ids is not None else {
        qid: list(batch.neg_pools[qid]) for qid in batch.query_ids
    }
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
        blockings, shrunk = mining.build_blockings(batch, negatives, sims, cfg.k)
        for b in blockings:
            validate_blocking(b)

        def pair_features(b: Blocking) -> tuple[dm.Tensor, np.ndarray]:
            hq = q_emb[b.query_id]
            rows = []
            for lid in b.pair_label_ids:
                hl = l_emb[lid]
                if cfg.detach_aux:
                    rows.append(pair_reps.build_gamma(tape, dm.detach(tape, hq), dm.detach(tape, hl)))
                else:
                    rows.append(pair_reps.build_gamma(tape, hq, hl))
            return dm.stack(tape, rows), np.array(b.targets)

        feats = [pair_features(b) for b in blockings]
        if cfg.beta1 != 0.0:
            ql = aux_loss_ql(tape, head_ql, feats, rng=rng, training=training)
            xe_ql_val = float(ql.data)
            total = dm.add(tape, total, dm.mul(tape, ql, cfg.beta1))
        if cfg.beta2 != 0.0:
            wide = [(g, t) for g, t in feats if g.shape[0] >= 2]
            if wide:
                qb = aux_loss_qb(tape, head_qb, block, wide, rng=rng, training=training)
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
