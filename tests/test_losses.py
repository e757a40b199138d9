"""Objective terms: triplet base, margin-consistency regularizer,
auxiliary BCE losses, and the weighted total."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmcreg import diffmath as dm
from xmcreg import mining
from xmcreg.losses import (
    EmptyNegatives,
    LossConfig,
    MlpHead,
    TcmConfig,
    aux_loss_qb,
    aux_loss_ql,
    init_head,
    tcm_loss,
    total_loss,
    triplet_base_loss,
)
from xmcreg.pair_reps import init_block
from xmcreg.trainer import init_model

from conftest import tiny_config


class TestTripletBase:
    def test_margin_satisfied(self):
        assert float(triplet_base_loss(None, 0.9, [0.2], 0.3).data) == 0.0

    def test_equal_similarities(self):
        np.testing.assert_allclose(float(triplet_base_loss(None, 0.5, [0.5], 0.3).data), 0.3)

    def test_mixed_negatives(self):
        out = float(triplet_base_loss(None, 0.4, [0.1, 0.6], 0.3).data)
        np.testing.assert_allclose(out, 0.25)

    def test_empty_negatives(self):
        with pytest.raises(EmptyNegatives):
            triplet_base_loss(None, 0.9, [], 0.3)

    @given(
        st.floats(-1, 1),
        st.lists(st.floats(-1, 1), min_size=1, max_size=8),
        st.floats(0.01, 1),
    )
    def test_nonnegative_and_matches_oracle(self, s_pos, s_negs, margin):
        out = float(triplet_base_loss(None, s_pos, s_negs, margin).data)
        oracle = np.mean([max(0.0, margin - s_pos + s) for s in s_negs])
        assert out >= 0.0
        np.testing.assert_allclose(out, oracle, atol=1e-12)


def _tcm_oracle(pos, neg, m_plus, m_minus):
    hard_pos = [s for s in pos if s < m_plus]
    hard_neg = [s for s in neg if s > m_minus]
    out = 0.0
    if hard_pos:
        out += float(np.mean([m_plus - s for s in hard_pos]))
    if hard_neg:
        out += float(np.mean([s - m_minus for s in hard_neg]))
    return out


class TestTcm:
    def test_no_violations(self):
        assert float(tcm_loss(None, [0.9], [0.3], TcmConfig()).data) == 0.0

    def test_both_violated(self):
        out = float(tcm_loss(None, [0.6], [0.7], TcmConfig()).data)
        np.testing.assert_allclose(out, 0.4, atol=1e-15)

    def test_hand_enumerated_hard_sets(self):
        out = float(tcm_loss(None, [0.6, 0.9], [0.55, 0.45], TcmConfig()).data)
        np.testing.assert_allclose(out, 0.25, atol=1e-15)

    def test_margin_invariant(self):
        with pytest.raises(ValueError):
            TcmConfig(m_plus=0.5, m_minus=0.5)
        with pytest.raises(ValueError):
            TcmConfig(m_plus=1.2, m_minus=0.5)

    def test_empty_sets_contribute_zero(self):
        assert float(tcm_loss(None, [], [], TcmConfig()).data) == 0.0

    @given(
        st.lists(st.floats(-1, 1), max_size=8),
        st.lists(st.floats(-1, 1), max_size=8),
        st.floats(-0.9, 0.4),
        st.floats(0.5, 1.0),
    )
    def test_matches_brute_force(self, pos, neg, m_minus, m_plus):
        cfg = TcmConfig(m_plus=m_plus, m_minus=m_minus)
        out = float(tcm_loss(None, pos, neg, cfg).data)
        np.testing.assert_allclose(out, _tcm_oracle(pos, neg, m_plus, m_minus), atol=1e-12)
        # zero iff no violation
        violated = any(s < m_plus for s in pos) or any(s > m_minus for s in neg)
        assert (out > 0.0) == violated

    def test_subgradient_signs(self):
        cfg = TcmConfig()
        pos = [dm.Tensor(0.6), dm.Tensor(0.95)]  # one hard, one easy
        neg = [dm.Tensor(0.7), dm.Tensor(0.65), dm.Tensor(0.2)]  # two hard, one easy
        tape = dm.GradTape()
        out = tcm_loss(tape, pos, neg, cfg)
        tape.backward(out)
        np.testing.assert_allclose(pos[0].grad, -1.0)  # -1/|S+|
        assert pos[1].grad is None
        np.testing.assert_allclose(neg[0].grad, 0.5)  # +1/|S-|
        np.testing.assert_allclose(neg[1].grad, 0.5)
        assert neg[2].grad is None


def _zero_head(in_dim: int) -> MlpHead:
    """Head whose logits are identically zero (p = 0.5 everywhere)."""
    head = init_head(np.random.default_rng(0), in_dim, dropout_rate=0.0)
    head.w2 = dm.Tensor(np.zeros_like(head.w2.data))
    head.b2 = dm.Tensor(np.zeros(1))
    return head


def _random_blockings(rng, n, k, width):
    out = []
    for _ in range(n):
        feats = dm.Tensor(rng.normal(size=(k, width)))
        targets = np.array([mining.POSITIVE_TARGET] + [mining.NEGATIVE_TARGET] * (k - 1))
        out.append((feats, targets))
    return out


class TestAuxLosses:
    def test_ql_uninformative_is_ln2(self):
        rng = np.random.default_rng(0)
        blockings = _random_blockings(rng, 3, 4, 8)
        out = float(aux_loss_ql(None, _zero_head(8), blockings).data)
        np.testing.assert_allclose(out, math.log(2), atol=1e-12)

    def test_qb_uninformative_is_ln2(self):
        rng = np.random.default_rng(0)
        blockings = _random_blockings(rng, 2, 3, 8)
        block = init_block(np.random.default_rng(1), width=8)
        out = float(aux_loss_qb(None, _zero_head(32), block, blockings).data)
        np.testing.assert_allclose(out, math.log(2), atol=1e-12)

    def test_bad_blocking_rejected(self):
        rng = np.random.default_rng(0)
        feats = dm.Tensor(rng.normal(size=(3, 8)))
        all_neg = np.full(3, mining.NEGATIVE_TARGET)
        with pytest.raises(mining.BadBlocking):
            aux_loss_ql(None, _zero_head(8), [(feats, all_neg)])
        block = init_block(rng, width=8)
        with pytest.raises(mining.BadBlocking):
            aux_loss_qb(None, _zero_head(32), block, [(feats, all_neg)])

    def test_qb_pair_swap_invariance(self):
        rng = np.random.default_rng(3)
        head = init_head(np.random.default_rng(4), 32, dropout_rate=0.0)
        block = init_block(np.random.default_rng(5), width=8)
        feats = rng.normal(size=(2, 8))
        targets = np.array([mining.POSITIVE_TARGET, mining.NEGATIVE_TARGET])
        a = float(aux_loss_qb(None, head, block, [(dm.Tensor(feats), targets)]).data)
        b = float(aux_loss_qb(None, head, block, [(dm.Tensor(feats[::-1].copy()), targets[::-1].copy())]).data)
        assert a == b  # exact, not approximate

    def test_dropout_needs_rng(self):
        head = init_head(np.random.default_rng(0), 8, dropout_rate=0.1)
        with pytest.raises(ValueError):
            head.forward(None, dm.Tensor(np.zeros((2, 8))), training=True)

    def test_dropout_off_at_eval(self):
        head = init_head(np.random.default_rng(0), 8, dropout_rate=0.5)
        x = dm.Tensor(np.random.default_rng(1).normal(size=(2, 8)))
        a = head.forward(None, x).data
        b = head.forward(None, x).data
        np.testing.assert_array_equal(a, b)


class TestBceSuite:
    def test_uniform_p_equals_ln2(self):
        z = dm.Tensor(np.zeros(7))
        y = np.array([0, 1, 0, 1, 1, 0, 1], dtype=float)
        out = dm.mean_all(None, dm.bce_with_logits(None, z, y)).data
        np.testing.assert_allclose(float(out), math.log(2), atol=1e-12)

    def test_perfect_prediction_limit(self):
        y = np.array([0.0, 1.0, 0.0, 1.0])
        # convention: target 0 = positive wants p -> 0, i.e. high loss unless
        # the logit agrees with the target under BCE(z, y)
        z = dm.Tensor(np.where(y > 0.5, 40.0, -40.0))
        out = float(dm.mean_all(None, dm.bce_with_logits(None, z, y)).data)
        assert out < 1e-6

    def test_swap_invariance_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = rng.normal(scale=5, size=9)
            y = rng.integers(0, 2, size=9).astype(float)
            a = dm.bce_with_logits(None, dm.Tensor(z), y).data
            b = dm.bce_with_logits(None, dm.Tensor(-z), 1.0 - y).data
            np.testing.assert_array_equal(a, b)

    def test_gradient_is_sigmoid_minus_target(self):
        rng = np.random.default_rng(1)
        z = dm.Tensor(rng.normal(size=6))
        y = rng.integers(0, 2, size=6).astype(float)
        tape = dm.GradTape()
        out = dm.mean_all(tape, dm.bce_with_logits(tape, z, y))
        tape.backward(out)
        expected = (1.0 / (1.0 + np.exp(-z.data)) - y) / 6
        np.testing.assert_allclose(z.grad, expected, atol=1e-12)


class TestTotalLoss:
    def _setup(self, seed=0):
        from conftest import tiny_spec
        from xmcreg.data_io import build_synthetic

        labels, queries, _ = build_synthetic(tiny_spec(num_train_queries=6))
        dataset = mining.Dataset(queries=queries, labels=labels)
        config = tiny_config(batch_size=6, dropout=0.0)
        rng = np.random.default_rng(seed)
        model = init_model(rng, config)
        sampled = mining.sample_positives(dataset, rng)
        qids = [q.id for q in dataset.queries]
        batch = mining.Batch(query_ids=qids, pos_label_ids=sampled, neg_pools={})
        negs = mining.in_batch_negatives(batch, dataset)
        batch.neg_pools = {qid: tuple(negs[qid]) for qid in qids}
        return dataset, batch, model, config

    def test_ablation_identity_bit_exact(self):
        dataset, batch, model, config = self._setup()
        cfg_off = LossConfig(beta1=0.0, beta2=0.0, tcm=None)
        total, breakdown, _ = total_loss(
            None, dataset, batch, model.enc, model.head_ql, model.head_qb, model.block, cfg_off
        )
        assert breakdown.tcm == 0.0 and breakdown.xe_ql == 0.0 and breakdown.xe_qb == 0.0
        assert float(total.data) == breakdown.base  # bit-exact

    def test_breakdown_identity(self):
        dataset, batch, model, config = self._setup()
        cfg = LossConfig(beta1=1.0, beta2=0.5, tcm=TcmConfig(), k=3)
        total, b, _ = total_loss(
            None, dataset, batch, model.enc, model.head_ql, model.head_qb, model.block, cfg
        )
        np.testing.assert_allclose(
            b.total, b.base + b.tcm + cfg.beta1 * b.xe_ql + cfg.beta2 * b.xe_qb, atol=1e-12
        )
        assert all(v >= 0.0 for v in (b.base, b.tcm, b.xe_ql, b.xe_qb))

    def test_detach_aux_blocks_encoder_gradient_from_heads(self):
        dataset, batch, model, config = self._setup()
        # aux-only objective: with detach_aux the encoder gets no gradient
        cfg = LossConfig(beta1=1.0, beta2=0.5, tcm=None, k=3, detach_aux=True)

        # zero out the triplet contribution by checking aux-only gradients:
        # run full loss, subtract the base-only gradient
        def grads_for(detach):
            c = LossConfig(beta1=1.0, beta2=0.0, tcm=None, k=3, detach_aux=detach)
            for p in model.named_tensors().values():
                p.grad = None
            tape = dm.GradTape()
            total, _, _ = total_loss(
                tape, dataset, batch, model.enc, model.head_ql, model.head_qb, model.block, c
            )
            tape.backward(total)
            g = model.enc.projection.grad
            return np.zeros_like(model.enc.projection.data) if g is None else g.copy()

        g_detached = grads_for(True)
        g_attached = grads_for(False)
        # detached: encoder grad comes only from the triplet term
        assert not np.array_equal(g_detached, g_attached)

    def test_shrunk_blockings_counted(self):
        dataset, batch, model, _ = self._setup()
        cfg = LossConfig(beta1=1.0, beta2=0.5, tcm=None, k=50)  # k larger than any pool
        _, _, shrunk = total_loss(
            None, dataset, batch, model.enc, model.head_ql, model.head_qb, model.block, cfg
        )
        assert shrunk == len(batch.query_ids)
