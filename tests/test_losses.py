"""Objective terms: triplet base, margin-consistency regularizer,
auxiliary BCE losses, and the weighted total."""

import math
from collections import Counter
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmcreg import diffmath as dm
from xmcreg import losses, mining, pair_reps, verify
from xmcreg.data_io import build_synthetic
from xmcreg.encoder import embed, encode, featurize
from xmcreg.losses import (
    EmptyNegatives,
    LossConfig,
    MlpHead,
    TcmConfig,
    aux_loss_qb,
    aux_loss_ql,
    init_head,
    objective,
    plan_batch,
    tcm_loss,
    total_loss,
    triplet_base_loss,
)
from xmcreg.pair_reps import build_delta, build_gamma, contextualize, init_block
from xmcreg.trainer import Checkpoint, ModelParams, init_model, model_from_tensors

from conftest import tiny_config, tiny_spec


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
    head = init_head(np.random.default_rng(0), in_dim)
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


def _batched(blockings):
    """The (P, width) feature matrix and per-blocking targets the aux losses take."""
    return dm.Tensor(np.concatenate([g.data for g, _ in blockings])), [t for _, t in blockings]


class TestAuxLosses:
    def test_ql_uninformative_is_ln2(self):
        rng = np.random.default_rng(0)
        blockings = _random_blockings(rng, 3, 4, 8)
        out = float(aux_loss_ql(None, _zero_head(8), *_batched(blockings)).data)
        np.testing.assert_allclose(out, math.log(2), atol=1e-12)

    def test_qb_uninformative_is_ln2(self):
        rng = np.random.default_rng(0)
        blockings = _random_blockings(rng, 2, 3, 8)
        block = init_block(np.random.default_rng(1), width=8)
        out = float(aux_loss_qb(None, _zero_head(32), block, *_batched(blockings)).data)
        np.testing.assert_allclose(out, math.log(2), atol=1e-12)

    def test_bad_blocking_rejected(self):
        rng = np.random.default_rng(0)
        feats = dm.Tensor(rng.normal(size=(3, 8)))
        all_neg = np.full(3, mining.NEGATIVE_TARGET)
        with pytest.raises(mining.BadBlocking):
            aux_loss_ql(None, _zero_head(8), feats, [all_neg])
        block = init_block(rng, width=8)
        with pytest.raises(mining.BadBlocking):
            aux_loss_qb(None, _zero_head(32), block, feats, [all_neg])

    def test_blocking_with_two_positives_rejected(self):
        feats = dm.Tensor(np.random.default_rng(0).normal(size=(3, 8)))
        two_pos = np.array([mining.POSITIVE_TARGET, mining.POSITIVE_TARGET, mining.NEGATIVE_TARGET])
        with pytest.raises(mining.BadBlocking):
            aux_loss_ql(None, _zero_head(8), feats, [two_pos])

    def test_qb_pair_swap_invariance(self):
        rng = np.random.default_rng(3)
        head = init_head(np.random.default_rng(4), 32)
        block = init_block(np.random.default_rng(5), width=8)
        feats = rng.normal(size=(2, 8))
        targets = np.array([mining.POSITIVE_TARGET, mining.NEGATIVE_TARGET])
        a = float(aux_loss_qb(None, head, block, dm.Tensor(feats), [targets]).data)
        b = float(aux_loss_qb(None, head, block, dm.Tensor(feats[::-1].copy()), [targets[::-1].copy()]).data)
        assert a == b  # exact, not approximate

    def test_dropout_off_at_eval(self):
        head = init_head(np.random.default_rng(0), 8)
        x = dm.Tensor(np.random.default_rng(1).normal(size=(2, 8)))
        a = head.forward(None, x).data
        b = head.forward(None, x).data
        np.testing.assert_array_equal(a, b)

    def test_dropout_draws_only_at_a_positive_rate(self):
        head = init_head(np.random.default_rng(0), 8)
        x = dm.Tensor(np.random.default_rng(1).normal(size=(2, 8)))
        rng = np.random.default_rng(2)
        state = rng.bit_generator.state
        assert head.forward(None, x, (0.0, rng)).data.tobytes() == head.forward(None, x).data.tobytes()
        assert rng.bit_generator.state == state
        assert head.forward(None, x, (0.5, rng)).data.tobytes() != head.forward(None, x).data.tobytes()
        assert rng.bit_generator.state != state


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

    def test_targets_of_another_shape_refused(self):
        with pytest.raises(dm.DimensionMismatch):
            dm.bce_with_logits(None, dm.Tensor(np.zeros(3)), np.zeros((2, 3)))

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
        labels, queries, _ = build_synthetic(tiny_spec(num_train_queries=6))
        dataset = mining.Dataset(queries=queries, labels=labels)
        config = tiny_config(batch_size=6, dropout=0.0)
        rng = np.random.default_rng(seed)
        model = init_model(rng, config)
        sampled = mining.sample_positives(dataset, rng)
        batch = mining.make_batch(dataset, list(range(len(dataset.queries))), sampled, None, rng)
        return dataset, batch, model, config

    def test_rng_draws_nothing_without_dropout(self, tmp_path):
        # a model loaded from a checkpoint holds no dropout rate of its own
        dataset, batch, model, _ = self._setup()
        tensors = {name: np.array(p.data) for name, p in model.named_tensors().items()}
        Checkpoint(tensors=tensors, config={}, epoch=0).save(tmp_path / "c.bin")
        loaded = model_from_tensors(Checkpoint.load(tmp_path / "c.bin").tensors)
        cfg = LossConfig(beta1=1.0, beta2=0.5, tcm=TcmConfig(), k=3, dropout=0.0)
        args = (dataset, batch, loaded.enc, loaded.head_ql, loaded.head_qb, loaded.block, cfg)
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        total, breakdown, _ = total_loss(None, *args, rng=rng)
        assert rng.bit_generator.state == state
        plain, plain_breakdown, _ = total_loss(None, *args)
        assert total.data.tobytes() == plain.data.tobytes() and breakdown == plain_breakdown

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

    def test_shrunk_blockings_counted(self):
        dataset, batch, model, _ = self._setup()
        cfg = LossConfig(beta1=1.0, beta2=0.5, tcm=None, k=50)  # k larger than any pool
        _, _, shrunk = total_loss(
            None, dataset, batch, model.enc, model.head_ql, model.head_qb, model.block, cfg
        )
        assert shrunk == len(batch.query_ids)

    def test_base_only_objective_reads_only_base_negatives(self):
        # the pool sampler's base objective: a wide pool, a few base
        # negatives, no TCM and no aux heads
        dataset, batch, model, _ = self._setup()
        rng = np.random.default_rng(3)
        label_ids = [l.id for l in dataset.labels]
        pools, base = {}, {}
        for qid in batch.query_ids:
            own = dataset.query_by_id[qid].positives
            pool = [lid for lid in rng.permutation(label_ids).tolist() if lid not in own][:10]
            pools[qid] = tuple(pool)
            base[qid] = [pool[i] for i in rng.choice(len(pool), size=2, replace=False)]
        trimmed = {qid: tuple(lid for lid in pools[qid] if lid in base[qid]) for qid in batch.query_ids}
        cfg = LossConfig(beta1=0.0, beta2=0.0, tcm=None)
        params = model.named_tensors()

        def run(neg_pools):
            b = mining.Batch(query_ids=batch.query_ids, pos_label_ids=batch.pos_label_ids,
                             neg_pools=neg_pools, base_neg_ids=base)
            for p in params.values():
                p.grad = None
            tape = dm.GradTape()
            total, breakdown, _ = total_loss(
                tape, dataset, b, model.enc, model.head_ql, model.head_qb, model.block, cfg
            )
            tape.backward(total)
            grads = {name: None if p.grad is None else p.grad.tobytes() for name, p in params.items()}
            return total.data.tobytes(), breakdown, grads, len(tape._nodes)

        full, short = run(pools), run(trimmed)
        assert full[0] == short[0] and full[1] == short[1]
        assert full[2] == short[2]
        assert full[2]["encoder/bucket_table"] is not None
        # labels outside the base negatives are neither embedded nor scored
        assert full[3] == short[3]

    def test_pool_sampler_with_tcm_matches_per_pair_scores_bitwise(self, monkeypatch):
        # the triplet term reads the base negatives in their own order, TCM
        # every pool negative in pool order
        dataset, batch, model, _ = self._setup()
        rng = np.random.default_rng(4)
        label_ids = [l.id for l in dataset.labels]
        pools, base = {}, {}
        for i, qid in enumerate(batch.query_ids):
            own = dataset.query_by_id[qid].positives
            pools[qid] = tuple([l for l in rng.permutation(label_ids).tolist() if l not in own][:8])
            base[qid] = [pools[qid][j] for j in rng.permutation(8)[: 2 * i]]  # none for the first query
        b = mining.Batch(query_ids=batch.query_ids, pos_label_ids=batch.pos_label_ids,
                         neg_pools=pools, base_neg_ids=base)
        cfg = LossConfig(beta1=0.0, beta2=0.0, tcm=TcmConfig())
        seen = {}
        for name in ("triplet_base_loss", "tcm_loss"):
            def spy(*args, _name=name, _fn=getattr(losses, name)):
                seen[_name] = args
                return _fn(*args)
            monkeypatch.setattr(losses, name, spy)
        total, breakdown, _ = total_loss(None, dataset, b, model.enc, model.head_ql, model.head_qb, model.block, cfg)

        def emb(text):
            return encode(model.enc, text)

        s_pos, terms, pool_negs = [], [], []
        for i, qid in enumerate(b.query_ids):
            q = emb(dataset.query_by_id[qid].text)
            s_pos.append(dm.dot(None, q, emb(dataset.label_by_id[b.pos_label_ids[qid]].text)))
            s = {l: dm.dot(None, q, emb(dataset.label_by_id[l].text)) for l in pools[qid]}
            pool_negs += s.values()
            base_scores = [float(s[l].data) for l in base[qid]]
            assert seen["triplet_base_loss"][2].data[i, : len(base_scores)].tolist() == base_scores
            if base[qid]:
                terms.append(triplet_base_loss(None, s_pos[-1], [s[l] for l in base[qid]], cfg.triplet_margin))
        assert seen["tcm_loss"][2].data.tolist() == [float(t.data) for t in pool_negs]
        expected_base = dm.mean_all(None, dm.stack(None, terms)).data
        expected_tcm = tcm_loss(None, s_pos, pool_negs, cfg.tcm).data
        assert breakdown.base == float(expected_base) and breakdown.tcm == float(expected_tcm)
        assert total.data == dm.add(None, expected_base, expected_tcm).data


def _assert_plan_reads_no_parameter(dataset, plan, model, cfg):
    """Moves each tensor's coordinate of largest gradient after planning;
    the objective on the old plan must equal a fresh total_loss bit for bit."""
    args = (model.enc, model.head_ql, model.head_qb, model.block, cfg)
    params = model.named_tensors()
    for p in params.values():
        p.grad = None
    tape = dm.GradTape()
    before = objective(tape, plan, *args)[0]
    tape.backward(before)
    for name, p in params.items():
        flat = p.data.reshape(-1)
        c = int(np.argmax(np.abs(p.grad)))
        orig = flat[c]
        flat[c] = orig + 0.5
        total, breakdown, shrunk = objective(None, plan, *args)
        fresh, fresh_breakdown, fresh_shrunk = total_loss(None, dataset, plan.batch, *args)
        flat[c] = orig
        # block/bk's gradient is zero up to rounding: softmax ignores a
        # shift shared by all keys
        assert total.data != before.data or np.max(np.abs(p.grad)) < 1e-12, name
        assert total.data.tobytes() == fresh.data.tobytes(), name
        assert np.array(astuple(breakdown)).tobytes() == np.array(astuple(fresh_breakdown)).tobytes(), name
        assert shrunk == fresh_shrunk, name


class TestPlanIndependence:
    def test_micro_objective(self, monkeypatch):
        seen = {}
        for name in ("plan_batch", "objective"):
            def spy(*args, _name=name, _fn=getattr(losses, name)):
                seen[_name] = args
                return _fn(*args)
            monkeypatch.setattr(verify, name, spy)
        fn, _, _ = verify.make_micro_objective(0)
        fn(None)
        dataset = seen["plan_batch"][0]
        _, plan, enc, head_ql, head_qb, block, cfg = seen["objective"]
        model = ModelParams(enc=enc, head_ql=head_ql, head_qb=head_qb, block=block)
        _assert_plan_reads_no_parameter(dataset, plan, model, cfg)

    def test_pool_sampler_batch_with_tcm(self):
        dataset, batch, model, _ = TestTotalLoss()._setup()
        rng = np.random.default_rng(5)
        label_ids = [l.id for l in dataset.labels]
        pools, base = {}, {}
        for qid in batch.query_ids:
            own = dataset.query_by_id[qid].positives
            pools[qid] = tuple([l for l in rng.permutation(label_ids).tolist() if l not in own][:8])
            base[qid] = [pools[qid][j] for j in rng.permutation(8)[:3]]
        b = mining.Batch(query_ids=batch.query_ids, pos_label_ids=batch.pos_label_ids,
                         neg_pools=pools, base_neg_ids=base)
        cfg = LossConfig(beta1=1.0, beta2=0.5, tcm=TcmConfig(), k=3)
        _assert_plan_reads_no_parameter(dataset, plan_batch(dataset, b, cfg, model.enc.num_buckets), model, cfg)


def _shrink_first_blocking(monkeypatch):
    """make_batch leaves the first query one negative: a blocking of 2
    pairs where the others have MICRO_K = 3."""
    make_batch = mining.make_batch

    def shrunk(*args):
        batch = make_batch(*args)
        first = batch.query_ids[0]
        batch.neg_pools[first] = batch.neg_pools[first][:1]
        return batch

    monkeypatch.setattr(mining, "make_batch", shrunk)


# total_loss_gradcheck(seed).max_relative_error, bit for bit, from before
# the probes were staged, for seeds 0-24, the seeds acceptance criterion 1
# checks
_MICRO_GRADCHECK_ERRORS = ["0x1.4557de5c69526p-22", "0x1.9bc649bef1589p-23", "0x1.c317d143b87c9p-16",
                           "0x1.050be5442d018p-21", "0x1.8af0691f05a36p-21", "0x1.5b1793f3834afp-22",
                           "0x1.43b2b3f89f155p-19", "0x1.a8f041ab7e3a2p-20", "0x1.38adae84b1ab7p-18",
                           "0x1.dc2c1c0c7968cp-17", "0x1.3bac1d182cf03p-17", "0x1.c716187c69b07p-21",
                           "0x1.07200a29d5e1bp-21", "0x1.02b7cf4a4db92p-18", "0x1.297354aecd673p-21",
                           "0x1.4c5f98ab41778p-20", "0x1.0c625c0889b99p-21", "0x1.0de29cc1102cbp-22",
                           "0x1.5e7b855070704p-22", "0x1.70da5b630fd3cp-19", "0x1.73fc0ab0d190dp-21",
                           "0x1.ec7beacd2bb07p-21", "0x1.73861901b9702p-20", "0x1.dbd04c00765e1p-23",
                           "0x1.98e8b886aedcep-22"]


class TestStages:
    def test_pair_stage_then_head_terms_is_the_objective(self):
        dataset, batch, model, _ = TestTotalLoss()._setup()
        cfg = LossConfig(beta1=1.0, beta2=0.5, tcm=TcmConfig(), k=3, dropout=0.3)
        plan = plan_batch(dataset, batch, cfg, model.enc.num_buckets)
        heads = (model.head_ql, model.head_qb, model.block)
        total, breakdown, shrunk = objective(None, plan, model.enc, *heads, cfg, np.random.default_rng(3))
        stage = losses.pair_stage(None, plan, model.enc, cfg)
        staged, terms = losses.head_terms(None, stage, *heads, cfg, np.random.default_rng(3))
        assert total.data.tobytes() == staged.data.tobytes()
        assert (breakdown.base, breakdown.tcm, shrunk) == (stage.base, stage.tcm, stage.shrunk)
        assert (breakdown.xe_ql, breakdown.xe_qb) == (float(terms["ql"].data), float(terms["qb"].data))
        # every term reused: nothing is recomputed and no mask is drawn
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        reused, _ = losses.head_terms(None, stage, *heads, cfg, rng, reuse=terms)
        assert reused.data.tobytes() == total.data.tobytes()
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("seed, shrunk", [pytest.param(seed, shrunk, id=f"{seed}{'-shrunk' * shrunk}")
                                              for shrunk in (False, True) for seed in range(5)])
    def test_staged_probes_equal_the_whole_objective(self, monkeypatch, seed, shrunk):
        sizes = []
        if shrunk:
            _shrink_first_blocking(monkeypatch)
            group_blockings = losses.group_blockings

            def spy(*args):
                groups, head_targets = group_blockings(*args)
                sizes.append([g.shape[1] for g in groups])
                return groups, head_targets

            monkeypatch.setattr(losses, "group_blockings", spy)
        fn, params, probes = verify.make_micro_objective(seed)
        tape = dm.GradTape()
        tape.backward(fn(tape))
        staged = probes()
        assert set(staged) == {name for name in params if not name.startswith("encoder/")}
        for name, p in params.items():
            probe = staged.get(name, lambda: fn(None))
            flat = p.data.reshape(-1)
            # the coordinate of largest gradient moves the total for sure
            for c in {0, flat.size - 1, int(np.argmax(np.abs(p.grad)))}:
                orig = flat[c]
                try:
                    for step in (0.0, dm.GRAD_CHECK_STEP, -dm.GRAD_CHECK_STEP):
                        flat[c] = orig + step
                        assert probe().data.tobytes() == fn(None).data.tobytes(), (name, c, step)
                finally:
                    flat[c] = orig
        if shrunk:  # the multi-size branch of the staged deltas ran
            assert sizes and all(s == [2, 3] for s in sizes)

    def test_probes_rerun_only_what_their_tensor_moves(self, monkeypatch):
        params = verify.make_micro_objective(0)[1]
        part, calls = ["analytic"], Counter()
        for home, name in ((losses, "pair_stage"), (losses, "group_blockings"), (pair_reps, "contextualize"),
                           (pair_reps, "canonical_order"), (pair_reps, "apply_block")):
            original = getattr(home, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[part[0], _name] += 1
                return _original(*args, **kwargs)

            for module in (losses, pair_reps, verify):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        grad_check = dm.grad_check

        def tagged(fn, params, *args, probes, **kwargs):
            # every probe names the part of the model it moves while it runs
            def tag(name, probe):
                def run():
                    part[0] = name.split("/")[0]
                    return probe()
                return run

            def tagged_probes():
                part[0] = "setup"
                staged = probes()
                return {name: tag(name, staged.get(name, lambda: fn(None))) for name in params}

            return grad_check(fn, params, *args, probes=tagged_probes, **kwargs)

        monkeypatch.setattr(dm, "grad_check", tagged)
        verify.total_loss_gradcheck(0)

        probes = Counter()
        for name, t in params.items():
            probes[name.split("/")[0]] += 2 * min(t.data.size, verify.MICRO_MAX_COORDS)
        whole = ("pair_stage", "group_blockings", "contextualize", "canonical_order", "apply_block")
        # one blocking size: grouping and canonical order once per pair stage
        expected = Counter({("analytic", name): 1 for name in whole})
        expected.update({("encoder", name): probes["encoder"] for name in whole})
        expected.update({("setup", name): 1 for name in ("pair_stage", "group_blockings", "canonical_order",
                                                           "apply_block")})
        expected["block", "apply_block"] = probes["block"]
        assert calls == expected

    @pytest.mark.parametrize("seed", range(len(_MICRO_GRADCHECK_ERRORS)))
    def test_micro_gradcheck_error_is_unchanged(self, seed):
        assert verify.total_loss_gradcheck(seed).max_relative_error.hex() == _MICRO_GRADCHECK_ERRORS[seed]


# ---------------------------------------------------------------------------
# the per-pair objective, kept as the oracle of the batched regularizer


def _oracle_aux_ql(tape, head, blockings):
    """One (K, 4d) feature matrix per blocking, concatenated for the head."""
    for _, targets in blockings:
        if int(np.sum(targets == mining.POSITIVE_TARGET)) != 1:
            raise mining.BadBlocking("blocking without a unique positive")
    features = dm.concat(tape, [g for g, _ in blockings], axis=0)
    logits = head.forward(tape, features)
    return dm.mean_all(tape, dm.bce_with_logits(tape, logits, np.concatenate([t for _, t in blockings])))


def _oracle_aux_qb(tape, head, block, blockings):
    """One contextualize and one build_delta per blocking."""
    deltas = []
    for gammas, _ in blockings:
        lam = contextualize(tape, block, gammas)
        deltas.append(build_delta(tape, gammas, lam))
    features = dm.concat(tape, deltas, axis=0)
    logits = head.forward(tape, features)
    return dm.mean_all(tape, dm.bce_with_logits(tape, logits, np.concatenate([t for _, t in blockings])))


def _oracle_total_loss(tape, dataset, batch, model, cfg):
    """One embed per text, one dot and one build_gamma per pair, one
    stack per blocking; every pool negative is a base negative."""
    qids = batch.query_ids
    label_ids = sorted({batch.pos_label_ids[q] for q in qids} | {l for q in qids for l in batch.neg_pools[q]})
    texts = [dataset.query_by_id[q].text for q in qids] + [dataset.label_by_id[l].text for l in label_ids]
    ids, weights = featurize(texts, model.enc.num_buckets)
    # each text's real slots, one bag at a time
    bags = iter((ids[: np.count_nonzero(w), j, None], w[: np.count_nonzero(w), None]) for j, w in enumerate(weights.T))
    q_emb = {q: dm.reshape(tape, embed(model.enc, next(bags), tape), (-1,)) for q in qids}
    l_emb = {l: dm.reshape(tape, embed(model.enc, next(bags), tape), (-1,)) for l in label_ids}
    s_pos = {q: dm.dot(tape, q_emb[q], l_emb[batch.pos_label_ids[q]]) for q in qids}
    s_negs = {q: {l: dm.dot(tape, q_emb[q], l_emb[l]) for l in batch.neg_pools[q]} for q in qids}
    terms = [triplet_base_loss(tape, s_pos[q], list(s_negs[q].values()), cfg.triplet_margin) for q in qids if s_negs[q]]
    total = dm.mean_all(tape, dm.stack(tape, terms))
    if cfg.tcm is not None:
        all_neg = [t for q in qids for t in s_negs[q].values()]
        total = dm.add(tape, total, tcm_loss(tape, list(s_pos.values()), all_neg, cfg.tcm))
    sims = {q: {l: float(t.data) for l, t in s_negs[q].items()} for q in qids}
    blockings, _ = mining.build_blockings(batch, {q: list(batch.neg_pools[q]) for q in qids}, sims, cfg.k)
    feats = []
    for b in blockings:
        rows = [build_gamma(tape, q_emb[b.query_id], l_emb[l]) for l in b.pair_label_ids]
        feats.append((dm.stack(tape, rows), np.array(b.targets)))
    if cfg.beta1 != 0.0:
        ql = _oracle_aux_ql(tape, model.head_ql, feats)
        total = dm.add(tape, total, dm.mul(tape, ql, cfg.beta1))
    wide = [(g, t) for g, t in feats if g.shape[0] >= 2]
    if cfg.beta2 != 0.0 and wide:
        qb = _oracle_aux_qb(tape, model.head_qb, model.block, wide)
        total = dm.add(tape, total, dm.mul(tape, qb, cfg.beta2))
    return total


def _value_and_grads(params, fn):
    for p in params.values():
        p.grad = None
    tape = dm.GradTape()
    out = fn(tape)
    tape.backward(out)
    return float(out.data), {name: None if p.grad is None else p.grad.copy() for name, p in params.items()}


def _assert_close(value, grads, oracle_value, oracle_grads):
    assert value == pytest.approx(oracle_value, rel=1e-12, abs=0.0)
    assert grads.keys() == oracle_grads.keys()
    for name, g in grads.items():
        o = oracle_grads[name]
        assert (g is None) == (o is None), name
        if g is not None:
            # relative to the tensor's largest entry; the floor covers
            # gradients that are zero up to rounding (block/bk: softmax
            # ignores a shift shared by all keys)
            assert np.max(np.abs(g - o)) <= 1e-9 * np.max(np.abs(o)) + 1e-15, name


class TestBatchedRegularizer:
    SIZES = (5, 2, 3, 5, 2, 3, 3, 5)  # mixed blocking sizes, in mixed order

    def _blockings(self, seed, width=8):
        rng = np.random.default_rng(seed)
        out = []
        for k in self.SIZES:
            targets = np.full(k, mining.NEGATIVE_TARGET)
            targets[rng.integers(k)] = mining.POSITIVE_TARGET
            out.append((dm.Tensor(rng.normal(size=(k, width))), targets))
        return out

    @pytest.mark.parametrize("seed", range(3))
    def test_aux_losses_match_per_blocking_oracle(self, seed):
        blockings = self._blockings(seed)
        gammas = dm.Tensor(np.concatenate([g.data for g, _ in blockings]))
        targets = [t for _, t in blockings]
        head_ql = init_head(np.random.default_rng(seed + 10), 8)
        head_qb = init_head(np.random.default_rng(seed + 20), 32)
        block = init_block(np.random.default_rng(seed + 30), width=8)
        params = {f"ql/{k}": v for k, v in vars(head_ql).items() if isinstance(v, dm.Tensor)}
        params |= {f"qb/{k}": v for k, v in vars(head_qb).items() if isinstance(v, dm.Tensor)}
        params |= {f"block/{k}": v for k, v in vars(block).items()}
        oracle_params = dict(params)
        params["gammas"] = gammas

        def batched(tape):
            ql = aux_loss_ql(tape, head_ql, gammas, targets)
            return dm.add(tape, ql, aux_loss_qb(tape, head_qb, block, gammas, targets))

        def oracle(tape):
            ql = _oracle_aux_ql(tape, head_ql, blockings)
            return dm.add(tape, ql, _oracle_aux_qb(tape, head_qb, block, blockings))

        value, grads = _value_and_grads(params, batched)
        oracle_value, oracle_grads = _value_and_grads(oracle_params, oracle)
        oracle_grads["gammas"] = np.concatenate([g.grad for g, _ in blockings])
        _assert_close(value, grads, oracle_value, oracle_grads)

    def test_qb_leaves_out_single_pairs(self):
        # a blocking of one pair has no context: it counts for aux_loss_ql only
        rng = np.random.default_rng(5)
        head = init_head(np.random.default_rng(6), 32)
        block = init_block(np.random.default_rng(7), width=8)
        single, triple = rng.normal(size=(1, 8)), rng.normal(size=(3, 8))
        targets = np.array([mining.POSITIVE_TARGET, mining.NEGATIVE_TARGET, mining.NEGATIVE_TARGET])
        both = aux_loss_qb(None, head, block, dm.Tensor(np.concatenate([single, triple])),
                           [np.array([mining.POSITIVE_TARGET]), targets])
        alone = aux_loss_qb(None, head, block, dm.Tensor(triple), [targets])
        assert both.data.tobytes() == alone.data.tobytes()
        with pytest.raises(mining.BadBlocking):
            aux_loss_qb(None, head, block, dm.Tensor(single), [np.array([mining.POSITIVE_TARGET])])

    def _mixed_batch(self, seed):
        """Pools of 0, 1, 2, 4 and 6 negatives: blockings of K = 1, 2, 3, 5
        and 5 at k = 5, the first three shrunk."""
        labels, queries, _ = build_synthetic(tiny_spec(num_train_queries=10, seed=seed))
        dataset = mining.Dataset(queries=queries, labels=labels)
        rng = np.random.default_rng(seed)
        sampled = mining.sample_positives(dataset, rng)
        qids = [q.id for q in dataset.queries]
        label_ids = [l.id for l in labels]
        pools = {}
        for i, qid in enumerate(qids):
            others = [l for l in rng.permutation(label_ids).tolist() if l not in dataset.query_by_id[qid].positives]
            pools[qid] = tuple(others[: (0, 1, 2, 4, 6)[i % 5]])
        batch = mining.Batch(query_ids=qids, pos_label_ids=sampled, neg_pools=pools)
        return dataset, batch

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("tcm", [True, False])
    def test_total_loss_matches_per_pair_oracle(self, seed, tcm):
        dataset, batch = self._mixed_batch(seed)
        model = init_model(np.random.default_rng(seed), tiny_config(dropout=0.0))
        params = model.named_tensors()
        cfg = LossConfig(beta1=1.0, beta2=0.5, tcm=TcmConfig() if tcm else None, k=5)

        def batched(tape):
            total, _, shrunk = total_loss(
                tape, dataset, batch, model.enc, model.head_ql, model.head_qb, model.block, cfg
            )
            assert shrunk == 6
            return total

        value, grads = _value_and_grads(params, batched)
        oracle_value, oracle_grads = _value_and_grads(
            params, lambda tape: _oracle_total_loss(tape, dataset, batch, model, cfg)
        )
        _assert_close(value, grads, oracle_value, oracle_grads)

    def test_tape_node_guard(self):
        # deterministic guard against per-text, per-pair or per-blocking
        # nodes coming back: the per-pair objective recorded 402 nodes here,
        # the per-pair base path 186, the matrix-shaped one 79
        fn, _, _ = verify.make_micro_objective(0)
        tape = dm.GradTape()
        fn(tape)
        assert len(tape._nodes) <= 90

    def test_base_tape_nodes_do_not_grow_with_the_batch(self):
        cfg = LossConfig(beta1=0.0, beta2=0.0, tcm=None)
        nodes = []
        for n in (6, 12):
            labels, queries, _ = build_synthetic(tiny_spec(num_train_queries=n))
            dataset = mining.Dataset(queries=queries, labels=labels)
            model = init_model(np.random.default_rng(0), tiny_config(batch_size=n, dropout=0.0))
            rng = np.random.default_rng(0)
            batch = mining.make_batch(dataset, list(range(n)), mining.sample_positives(dataset, rng), None, rng)
            tape = dm.GradTape()
            total_loss(tape, dataset, batch, model.enc, model.head_ql, model.head_qb, model.block, cfg)
            nodes.append(len(tape._nodes))
        assert nodes[0] == nodes[1]
