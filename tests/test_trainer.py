"""Training loop, optimizer closed forms, and checkpoint serialization."""

import copy
import dataclasses
import hashlib
import json
import math
import re
import struct
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmcreg import diffmath as dm
from xmcreg import mining, trainer
from xmcreg.data_io import build_synthetic
from xmcreg.losses import LossBreakdown
from xmcreg.mining import Dataset
from xmcreg.trainer import (
    AdamState,
    Checkpoint,
    NonFiniteLoss,
    ShapeMismatch,
    TrainConfig,
    init_adam,
    init_model,
    model_from_tensors,
    read_tensors,
    train,
    update_step,
    write_tensors,
)

from conftest import tiny_config, tiny_spec


class TestTrainConfig:
    def test_invariants(self):
        for bad in (
            dict(epochs=0),
            dict(batch_size=1),
            dict(k=1),
            dict(learning_rate=0.0),
            dict(sampler="nonsense"),
        ):
            with pytest.raises(ValueError):
                TrainConfig(**bad)

    @pytest.mark.parametrize("bad, message", [
        (dict(epochs=0), "epochs must be >= 1, got 0"),
        (dict(refresh_cadence=0), "refresh_cadence must be >= 1, got 0"),
        (dict(sampler="ance", pool_size=0), "pool_size must be >= 1 with the ance sampler, got 0"),
        (dict(dropout=1.0), "dropout must be in [0, 1), got 1.0"),
        (dict(dropout=-0.5), "dropout must be in [0, 1), got -0.5"),
        (dict(learning_rate=float("nan")), "learning_rate must be > 0, got nan"),
        (dict(sampler="nonsense"), "sampler must be 'cluster' or 'ance', got 'nonsense'"),
        (dict(dim=1), "dim must be >= 2, got 1"),
        (dict(dim_hidden=0), "dim_hidden must be >= 1, got 0"),
        (dict(num_buckets=512), "num_buckets must be >= 1024, got 512"),
        (dict(m_plus=0.3), "m_plus must be in (m_minus, 1] with tcm_enabled, got 0.3"),
        (dict(m_plus=1.5), "m_plus must be in (m_minus, 1] with tcm_enabled, got 1.5"),
        (dict(m_minus=-2.0, m_plus=0.5), "m_minus must be >= -1 with tcm_enabled, got -2.0"),
        (dict(seed=-1), "seed must be >= 0, got -1"),
        (dict(learning_rate=float("inf")), "learning_rate must be finite, got inf"),
        (dict(beta1=float("nan")), "beta1 must be finite and >= 0, got nan"),
        (dict(beta2=-1.0), "beta2 must be finite and >= 0, got -1.0"),
        (dict(triplet_margin=float("nan")), "triplet_margin must be finite, got nan"),
    ])
    def test_rejection_names_field_and_value(self, bad, message):
        with pytest.raises(ValueError, match=re.escape(f"invalid training configuration: {message}")):
            TrainConfig(**bad)

    def test_pool_size_unread_by_cluster_sampler(self):
        assert TrainConfig(sampler="cluster", pool_size=0).pool_size == 0

    def test_margins_unread_without_tcm(self):
        assert TrainConfig(tcm_enabled=False, m_plus=0.3).m_plus == 0.3

    def test_loss_config_mirrors_fields(self):
        cfg = TrainConfig(beta1=0.25, beta2=0.75, tcm_enabled=False, k=3, triplet_margin=0.2, dropout=0.3)
        lc = cfg.loss_config()
        assert lc.beta1 == 0.25 and lc.beta2 == 0.75 and lc.tcm is None and lc.dropout == 0.3
        assert lc.k == 3 and lc.triplet_margin == 0.2


class TestAdam:
    def test_zero_gradients_fixed_point(self):
        p = dm.Tensor(np.arange(4.0))
        params = {"p": p}
        state = init_adam(params)
        before = p.data.copy()
        p.grad = np.zeros(4)
        update_step(params, state, lr=0.1)
        np.testing.assert_array_equal(p.data, before)

    def test_untouched_param_skipped(self):
        p = dm.Tensor(np.arange(4.0))
        params = {"p": p}
        state = init_adam(params)
        before = p.data.copy()
        p.grad = None
        update_step(params, state, lr=0.1)
        np.testing.assert_array_equal(p.data, before)
        assert state.step == 1

    def test_constant_gradient_step_magnitude_approaches_lr(self):
        p = dm.Tensor(np.array([10.0, -3.0]))
        params = {"p": p}
        state = init_adam(params)
        g = np.array([0.7, -1.3])
        lr = 0.01
        prev = p.data.copy()
        for _ in range(500):
            prev = p.data.copy()
            p.grad = g.copy()
            update_step(params, state, lr=lr)
        step = np.abs(p.data - prev)
        np.testing.assert_allclose(step, lr, rtol=0.02)
        # direction opposes the gradient
        assert np.all(np.sign(prev - p.data) == np.sign(g))

    def test_matches_reference_formula_bitwise(self):
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01
        rng = np.random.default_rng(0)
        params = {name: dm.Tensor(rng.normal(size=shape)) for name, shape in
                  (("a", (3, 4)), ("b", (5,)), ("never", (2, 2)))}
        state = init_adam(params)
        ref = {name: [p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data)] for name, p in params.items()}
        signed_zeros = rng.normal(size=(3, 4))
        signed_zeros[0] = -0.0
        signed_zeros[1] = 0.0
        grads = [
            {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=5)},
            {"a": rng.normal(size=(3, 4)), "b": None},  # touched earlier: a zero gradient
            {"a": signed_zeros, "b": rng.normal(size=5)},
        ]
        for t, step_grads in enumerate(grads, start=1):
            for name, p in params.items():
                p.grad = step_grads.get(name)
            update_step(params, state, lr=lr)
            for name, g in step_grads.items():
                g = np.zeros_like(params[name].data) if g is None else g
                p_ref, m, v = ref[name]
                m = b1 * m + (1 - b1) * g
                v = b2 * v + (1 - b2) * g * g
                m_hat = m / (1 - b1**t)
                v_hat = v / (1 - b2**t)
                ref[name] = [p_ref - lr * m_hat / (np.sqrt(v_hat) + eps), m, v]
            for name, p in params.items():
                for got, want in zip((p.data, state.m[name], state.v[name]), ref[name]):
                    assert got.tobytes() == want.tobytes(), (name, t)
        assert "never" not in state.touched

    def test_loaded_checkpoint_arrays_not_mutated(self):
        model = init_model(np.random.default_rng(0), tiny_config())
        loaded = {name: p.data.copy() for name, p in model.named_tensors().items()}
        before = {name: arr.copy() for name, arr in loaded.items()}
        params = model_from_tensors(loaded).named_tensors()
        assert all(np.shares_memory(params[name].data, loaded[name]) for name in loaded)
        state = init_adam(params)
        rng = np.random.default_rng(1)
        for _ in range(2):
            for p in params.values():
                p.grad = rng.normal(size=p.data.shape)
            update_step(params, state, lr=0.1)
        for name, arr in loaded.items():
            assert arr.tobytes() == before[name].tobytes(), name
            assert not np.array_equal(params[name].data, arr)

    def test_shape_mismatch(self):
        p = dm.Tensor(np.zeros(4))
        params = {"p": p}
        state = init_adam(params)
        p.grad = np.ones(4)
        update_step(params, state, lr=0.1)
        kept = _adam_bytes(params, state)
        p.grad = np.zeros(5)
        with pytest.raises(ShapeMismatch):
            update_step(params, state, lr=0.1)
        assert _adam_bytes(params, state) == kept
        assert state.step == 1


def _land(p: dm.Tensor, g: np.ndarray) -> None:
    """Backward of <p, g> on a tape: p's first gradient is exactly g, -0.0 included."""
    tape = dm.GradTape()
    tape.backward(dm.dot(tape, dm.reshape(tape, p, (-1,)), np.ravel(g)))


def _adam_bytes(params: dict[str, dm.Tensor], state: AdamState) -> bytes:
    """The bytes of every parameter and both its moments, in checkpoint
    order, then each touched tensor's high-water mark."""
    return _array_bytes(params, state) + repr(sorted(state.high.items())).encode()


def _array_bytes(params: dict[str, dm.Tensor], state: AdamState) -> bytes:
    """The bytes of every parameter and both its moments, in checkpoint order."""
    return b"".join(a.tobytes() for name, p in params.items() for a in (p.data, state.m[name], state.v[name]))


class TestArena:
    SHAPES = (("a", (3, 4)), ("gap", (5,)), ("b", (2, 3)), ("late", (4,)), ("c", ()))

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_blocked_update_matches_per_tensor_formula_bitwise(self, monkeypatch, block):
        monkeypatch.setattr(trainer, "ADAM_BLOCK", block)
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01
        rng = np.random.default_rng(block)
        params = {name: dm.Tensor(rng.normal(size=shape)) for name, shape in self.SHAPES}
        state = init_adam(params)
        # never read or written: "gap" sits between touched tensors
        gap = params["gap"]
        gap_data = gap.data.copy()
        ref = {name: [p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data)] for name, p in params.items()}
        signed_zeros = rng.normal(size=(2, 3))
        signed_zeros[0] = -0.0
        signed_zeros[1, :2] = 0.0
        a_zeros = np.zeros((3, 4))
        a_zeros[::2] = -0.0
        steps = [  # (gradients landed by a tape, gradients assigned to .grad)
            ({"a": rng.normal(size=(3, 4))}, {"b": rng.normal(size=(2, 3)), "c": rng.normal(size=())}),
            # c touched earlier, no gradient now; late touched for the first time
            ({"b": signed_zeros}, {"a": rng.normal(size=(3, 4)), "late": rng.normal(size=4)}),
            ({"c": rng.normal(size=()), "late": -np.zeros(4)}, {"a": a_zeros}),
        ]
        touched = set()
        for t, (landed, assigned) in enumerate(steps, start=1):
            for p in params.values():
                p.grad = None
            for name, g in landed.items():
                _land(params[name], g)
                assert params[name].grad.tobytes() == g.tobytes(), name
            for name, g in assigned.items():
                params[name].grad = g.copy()
            update_step(params, state, lr=lr)
            touched |= landed.keys() | assigned.keys()
            for name in touched:
                g = {**landed, **assigned}.get(name, np.zeros_like(params[name].data))
                assert params[name].grad.tobytes() == g.tobytes(), (name, t)
                p_ref, m, v = ref[name]
                m = b1 * m + (1 - b1) * g
                v = b2 * v + (1 - b2) * g * g
                ref[name] = [p_ref - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps), m, v]
            for name, p in params.items():
                for got, want in zip((p.data, state.m[name], state.v[name]), ref[name]):
                    assert got.tobytes() == want.tobytes(), (name, t)
        assert state.touched == touched == {"a", "b", "c", "late"}
        assert gap.data.tobytes() == gap_data.tobytes() and gap.grad is None
        assert not state.m["gap"].any() and not state.v["gap"].any()

    def test_nonfinite_gradient_names_first_bad_tensor(self):
        params = {name: dm.Tensor(np.zeros(shape)) for name, shape in self.SHAPES}
        state = init_adam(params)
        for name in ("a", "b", "c"):
            _land(params[name], np.ones(params[name].shape))
        update_step(params, state, lr=0.1)
        kept = _adam_bytes(params, state)
        params["c"].grad = np.array(np.nan)
        params["b"].grad = np.zeros((2, 3))
        params["b"].grad[0, 0] = np.inf  # b comes before c in checkpoint order
        with pytest.raises(dm.NonFiniteGradient, match="^non-finite gradient of b at step 1$"):
            update_step(params, state, lr=0.1)
        params["b"].grad = None
        with pytest.raises(dm.NonFiniteGradient, match="^non-finite gradient of c at step 1$"):
            update_step(params, state, lr=0.1)
        # parameters and moments keep their bytes, and the step does not count
        assert _adam_bytes(params, state) == kept
        assert state.step == 1

    def test_moments_allocated_at_first_gradient(self):
        params = {name: dm.Tensor(np.ones(shape)) for name, shape in (("a", (3, 4)), ("never", (1000, 100)))}
        state = init_adam(params)
        for name in params:  # read-only zero views that hold no memory
            for moment in (state.m[name], state.v[name]):
                assert not moment.flags.writeable and moment.strides == (0, 0) and not moment.any()
        params["a"].grad = np.ones((3, 4))
        update_step(params, state, lr=0.1)
        assert state.m["a"].flags.writeable and state.m["a"].all() and state.v["a"].all()
        assert not state.m["never"].flags.writeable and not state.v["never"].flags.writeable

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["encoder/bucket_table", "head_ql/b2"])
    def test_nonfinite_in_last_partial_block_or_one_element(self, monkeypatch, name, value):
        # 1,024 x 16 table values in blocks of 1,000: the last block holds
        # 384; head_ql/b2 holds one value
        monkeypatch.setattr(trainer, "ADAM_BLOCK", 1000)
        params = init_model(np.random.default_rng(0), tiny_config()).named_tensors()
        assert params["encoder/bucket_table"].data.size % 1000 == 384 and params["head_ql/b2"].data.size == 1
        state = init_adam(params)
        for p in params.values():
            _land(p, np.ones(p.shape))
        update_step(params, state, lr=0.1)
        kept = _adam_bytes(params, state)
        params[name].grad.flat[-1] = value
        with pytest.raises(dm.NonFiniteGradient, match=f"^non-finite gradient of {name} at step 1$"):
            update_step(params, state, lr=0.1)
        assert _adam_bytes(params, state) == kept
        assert state.step == 1

    def test_step_allocates_nothing_tensor_sized(self):
        params = init_model(np.random.default_rng(0), TrainConfig()).named_tensors()
        state = init_adam(params)
        for p in params.values():
            _land(p, np.ones(p.shape))
        update_step(params, state, lr=0.1)
        params["head_ql/b2"].grad = None  # touched earlier, no gradient now: its own buffer, zeroed
        tracemalloc.start()
        try:
            update_step(params, state, lr=0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # np.isfinite of the 128 x 128 block weights alone would take 16 KB
        assert peak < 16384
        b2 = params["head_ql/b2"]
        assert b2.grad is b2.buffer() and b2.grad.tobytes() == np.zeros(1).tobytes()

    @pytest.mark.parametrize("view", ["transposed", "sliced"])
    def test_non_contiguous_parameter_updated_in_its_own_copy(self, view):
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01
        base = np.arange(12.0).reshape(3, 4)
        arr = base.T if view == "transposed" else base[:, ::2]
        kept = base.copy()
        params = {"p": dm.Tensor(arr)}
        assert np.shares_memory(params["p"].data, base) and not params["p"].data.flags.c_contiguous
        state = init_adam(params)
        g = np.linspace(-1.0, 1.0, arr.size).reshape(arr.shape)
        params["p"].grad = g
        update_step(params, state, lr=lr)
        m, v = (1 - b1) * g, (1 - b2) * g * g
        want = arr - lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
        assert params["p"].data.tobytes() == want.tobytes()
        assert state.m["p"].tobytes() == m.tobytes() and state.v["p"].tobytes() == v.tobytes()
        assert base.tobytes() == kept.tobytes()

    def test_checkpoint_holds_the_trained_arrays(self, tiny_dataset, monkeypatch):
        seen = {}

        def spy(params):
            seen["params"] = params
            return init_adam(params)

        monkeypatch.setattr(trainer, "init_adam", spy)
        ckpt, _ = train(tiny_dataset, tiny_config(epochs=1))
        params = seen["params"]  # the model's named_tensors()
        # the model's tensors only, in checkpoint order: no optimizer state
        assert list(ckpt.tensors) == list(params)
        for name, p in params.items():
            assert ckpt.tensors[name] is p.data, name


class TestHighWaterMark:
    """Adam updates each tensor up to its high-water mark, the highest end
    its gradient has ever had, bit for bit as the dense formula on every
    row."""

    B1, B2, EPS, LR = 0.9, 0.999, 1e-8, 0.01

    def _run(self, params: dict[str, dm.Tensor], steps: list[dict], marks: list[int]) -> None:
        """update_step over steps, each mapping a tensor to its gradient: a
        plain array, assigned, or (rows, values) landed on rows before its
        buffer's end; a tensor left out has no gradient. After each
        step, every tensor equals the dense formula on all of its rows,
        byte for byte, and the table's mark is the next of marks."""
        state = init_adam(params)
        ref = {name: [p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data)] for name, p in params.items()}
        for t, (grads, mark) in enumerate(zip(steps, marks), start=1):
            dense = {}
            for name, p in params.items():
                p.grad, g = None, grads.get(name)
                if isinstance(g, tuple):
                    _rows_land(p, *g)
                    dense[name] = np.zeros(p.shape)
                    dense[name][g[0]] = g[1] + 0.0
                    assert p.grad_end() == max(g[0]) + 1 and p.grad.tobytes() == dense[name].tobytes()
                elif g is not None:
                    p.grad = dense[name] = g.copy()
            update_step(params, state, lr=self.LR)
            for name, p in params.items():  # all touched at step 1
                g = dense.get(name, np.zeros(p.shape))
                p_ref, m, v = ref[name]
                m = self.B1 * m + (1 - self.B1) * g
                v = self.B2 * v + (1 - self.B2) * g * g
                ref[name] = [p_ref - self.LR * (m / (1 - self.B1**t)) / (np.sqrt(v / (1 - self.B2**t)) + self.EPS),
                             m, v]
                for got, want in zip((p.data, state.m[name], state.v[name]), ref[name]):
                    assert got.tobytes() == want.tobytes(), (name, t)
            assert state.high["table"] == mark, t

    @pytest.mark.parametrize("block", [32768, 12])  # at 12, blocks of 4 table rows and 3 rows of other
    def test_matches_reference_formula_bitwise(self, monkeypatch, block):
        monkeypatch.setattr(trainer, "ADAM_BLOCK", block)
        rng = np.random.default_rng(block)
        params = {"table": dm.Tensor(rng.normal(size=(12, 3))), "bias": dm.Tensor(rng.normal(size=3)),
                  "other": dm.Tensor(rng.normal(size=(5, 2, 2)))}
        signed = {6: [-0.0, 0.0, -0.0], 11: [0.0, -0.0, -0.0]}  # inside the prefix from step 1, and past it
        for r, zeros in signed.items():
            params["table"].data[r] = zeros
        plus_zero = np.array([[0.0, -0.0, 0.0]])  # lands as +0.0
        steps = [  # table rows out of order, row 5 recorded with +0.0 only
            {"table": ([7, 0, 5], np.vstack([rng.normal(size=(2, 3)), plus_zero])), "bias": rng.normal(size=3),
             "other": rng.normal(size=(5, 2, 2))},
            {},  # touched, no gradient: the mark stays
            {"table": ([9, 2, 1], rng.normal(size=(3, 3))), "other": rng.normal(size=(5, 2, 2))},
            {"table": ([3], rng.normal(size=(1, 3))), "bias": rng.normal(size=3)},  # below the mark
        ]
        self._run(params, steps, [24, 24, 30, 30])
        for r, zeros in signed.items():  # never had a gradient: keeps its bytes, signs included
            assert params["table"].data[r].tobytes() == np.array(zeros).tobytes()

    def test_unknown_record_updates_the_whole_tensor(self, monkeypatch):
        monkeypatch.setattr(trainer, "ADAM_BLOCK", 12)
        rng = np.random.default_rng(0)
        params = {"table": dm.Tensor(rng.normal(size=(12, 3)))}
        steps = [{"table": ([3, 1], rng.normal(size=(2, 3)))},
                 {"table": np.where(rng.random((12, 3)) < 0.5, rng.normal(size=(12, 3)), 0.0)},  # no record
                 {"table": ([0], rng.normal(size=(1, 3)))}, {}]
        self._run(params, steps, [12, 36, 36, 36])

    @pytest.mark.parametrize("fault", ["nan", "inf", "shape"])
    def test_rejected_step_leaves_marks_unwritten(self, fault):
        params = init_model(np.random.default_rng(0), tiny_config()).named_tensors()
        state = init_adam(params)
        table = params["encoder/bucket_table"]
        for p in params.values():
            if p is not table:
                _land(p, np.ones(p.shape))
        _bag_land(table, np.arange(10))
        update_step(params, state, lr=0.1)
        assert state.high["encoder/bucket_table"] == 10 * table.shape[1]
        kept = _adam_bytes(params, state)
        table.grad = None
        _bag_land(table, np.arange(500, 600))  # would raise the mark; rejected by a tensor after the table
        if fault == "shape":
            params["head_ql/b2"].grad = np.zeros(2)
        else:
            params["head_ql/b2"].grad[0] = np.nan if fault == "nan" else np.inf
        with pytest.raises(ShapeMismatch if fault == "shape" else dm.NonFiniteGradient):
            update_step(params, state, lr=0.1)
        assert _adam_bytes(params, state) == kept
        assert state.step == 1

    def test_step_from_embedding_bag_allocates_nothing_tensor_sized(self):
        params = init_model(np.random.default_rng(0), TrainConfig()).named_tensors()
        state = init_adam(params)
        table = params["encoder/bucket_table"]
        for name, p in params.items():
            if p is not table:
                _land(p, np.ones(p.shape))
        _bag_land(table, np.arange(1200))
        update_step(params, state, lr=0.1)
        table.grad = None
        _bag_land(table, np.random.default_rng(1).permutation(1600)[:600])  # 600 rows landed, 1,600 updated
        params["head_ql/b2"].grad = None  # touched earlier, no gradient now: its own buffer, zeroed
        tracemalloc.start()
        try:
            update_step(params, state, lr=0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert state.high["encoder/bucket_table"] <= 1600 * table.shape[1]
        # row-sized arrays only: the check reads the rows before the end (up to 1,600) with min
        # and max, where np.isfinite(g[:end]).all() would take up to 100 KB, a bool a value
        assert peak < 65536


class TestBucketOrder:
    """train holds the bucket table in first-use order (BucketOrder), which
    moves no bit of training."""

    @staticmethod
    def _check(order: trainer.BucketOrder, initial: np.ndarray, read: np.ndarray) -> None:
        """The map is a permutation with its inverse, rows [0, used) hold
        exactly the buckets read (a mask), and every bucket keeps its
        initial values past used."""
        n = len(order.row)
        assert np.array_equal(np.sort(order.row), np.arange(n))
        assert np.array_equal(order.bucket[order.row], np.arange(n))
        assert np.array_equal(np.sort(order.bucket[: order.used]), np.flatnonzero(read))
        assert order.table.data[order.used :].tobytes() == initial[order.bucket[order.used :]].tobytes()

    def test_new_buckets_take_the_rows_past_used_in_ascending_order(self):
        initial = np.arange(36.0).reshape(12, 3)
        order = trainer.BucketOrder(dm.Tensor(initial.copy()))
        read = np.zeros(12, dtype=bool)
        # (ids, their rows, the buckets of rows [0, used) after)
        for ids, rows, first in [([[5, 2], [9, 5]], [[1, 0], [2, 1]], [2, 5, 9]),
                                 ([[0, 2, 11]], [[3, 0, 4]], [2, 5, 9, 0, 11]),
                                 ([[2, 5]], [[0, 1]], [2, 5, 9, 0, 11])]:  # none new: nothing moves
            ids = np.array(ids)
            read[ids] = True
            got = order.rows(ids)
            assert got is ids and ids.tolist() == rows
            assert order.bucket[: order.used].tolist() == first
            self._check(order, initial, read)
        # the unread buckets the new ones displaced took the rows they left
        assert order.row[[1, 3, 4]].tolist() == [9, 5, 11]
        buffer = order.table.buffer()
        order.restore()
        assert order.table.data.tobytes() == initial.tobytes() and buffer.tobytes() == np.zeros((12, 3)).tobytes()

    @pytest.mark.parametrize("sampler, digest", [
        ("cluster", "3a00d1c13212f1dc755340de8f3837c1fded093b5f015ee04b338e36a11f151c"),
        ("ance", "b967f9ede7941aa03ca0bd7d0ca2b8b6d6164e28f74596126674fb5911c9fdf5"),
    ])
    def test_table_in_first_use_order_after_every_step(self, tmp_path, tiny_dataset, monkeypatch, sampler, digest):
        """After every step of a run that refreshes every epoch, so the
        second refresh reads a reordered table: the map is a permutation,
        rows [0, used) hold the buckets read so far, and no row past used
        has a gradient, a moment or a changed value. The checkpoint, in
        bucket order, is the one the table gave in bucket order
        throughout."""
        config = tiny_config(epochs=2, sampler=sampler, refresh_cadence=1, pool_size=5)
        initial = init_model(np.random.default_rng(config.seed), config).enc.bucket_table.data
        real_rows, real_update = trainer.BucketOrder.rows, trainer.update_step
        seen, used = {"read": np.zeros(len(initial), dtype=bool)}, []

        def rows(order, ids):
            seen["order"] = order
            seen["read"][ids] = True
            return real_rows(order, ids)

        def update(params, state, lr):
            real_update(params, state, lr)
            order, name = seen["order"], "encoder/bucket_table"
            self._check(order, initial, seen["read"])
            zeros = np.zeros((len(initial) - order.used, initial.shape[1])).tobytes()
            for past in (params[name].grad, state.m[name], state.v[name]):
                assert past[order.used :].tobytes() == zeros
            assert state.high[name] <= order.used * initial.shape[1]
            used.append(order.used)

        monkeypatch.setattr(trainer.BucketOrder, "rows", rows)
        monkeypatch.setattr(trainer, "update_step", update)
        ckpt, _ = train(tiny_dataset, config)
        assert len(used) == 12 and used == sorted(used) and 0 < used[0] < used[-1] < len(initial)
        ckpt.save(tmp_path / "c.bin")
        assert hashlib.sha256((tmp_path / "c.bin").read_bytes()).hexdigest() == digest

    def test_remap_and_step_allocate_nothing_tensor_sized(self):
        params = init_model(np.random.default_rng(0), TrainConfig()).named_tensors()
        state = init_adam(params)
        table = params["encoder/bucket_table"]
        order = trainer.BucketOrder(table)
        rng = np.random.default_rng(1)
        buckets = rng.permutation(len(table.data))
        for name, p in params.items():
            if p is not table:
                _land(p, np.ones(p.shape))
        _bag_land(table, order.rows(buckets[:1200].copy()))
        update_step(params, state, lr=0.1)
        # a step's 40,000 ids read 400 new buckets and 200 used ones
        ids = rng.choice(buckets[1000:1600], size=(100, 400))
        assert len(np.unique(ids)) == 600
        table.grad = None
        peaks = []
        for call in (lambda: order.rows(ids), lambda: update_step(params, state, lr=0.1)):
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            if not peaks[1:]:
                _bag_land(table, np.unique(ids))
        assert order.used == 1600 and state.high["encoder/bucket_table"] <= 1600 * table.shape[1]
        # row-sized arrays only: the 800 rows moved would take 400 KB, the ids as bools 40 KB
        assert max(peaks) < 65536


def _bag_land(table: dm.Tensor, rows) -> None:
    """Backward of the mean of embedding_bag over table, one bag per row of
    rows: the table's first gradient of a pass, with exactly those rows
    nonzero, and its buffer's end one past the last of them."""
    tape = dm.GradTape()
    tape.backward(dm.mean_all(tape, dm.embedding_bag(tape, table, [rows], [np.ones(len(rows))])))


def _rows_land(p: dm.Tensor, rows, values) -> None:
    """Backward of <gather_rows(p, rows), values>: p's first gradient of a
    pass, with values + 0.0 scattered into rows, which end where its
    buffer's end does."""
    tape = dm.GradTape()
    tape.backward(dm.dot(tape, dm.reshape(tape, dm.gather_rows(tape, p, rows), (-1,)), np.ravel(values)))


class TestRecordedRows:
    """update_step reads a gradient whose buffer records the row from
    which on it holds +0.0 (the bucket table's, which embedding_bag
    scatters) only in the rows before it, and gives the result of reading
    all of it."""

    @pytest.mark.parametrize("sampler", ["cluster", "ance"])
    def test_table_buffer_is_each_pass_gradient_and_zero_outside_its_record(self, tiny_dataset, monkeypatch,
                                                                             sampler):
        real_init, real_scatter, real_update = trainer.init_adam, dm._scatter_rows, trainer.update_step
        seen, recorded = {}, []

        def init(params):
            seen["table"] = params["encoder/bucket_table"]
            return real_init(params)

        def scatter(t, idx, vals):  # the table's gradient as the pass gives it into a zero-filled buffer
            if t is seen.get("table"):
                if t.grad is None:
                    seen["want"], seen["end"] = np.zeros(t.shape), 0
                np.add.at(seen["want"], idx, vals)
                seen["end"] = max(seen["end"], int(idx.max(initial=-1)) + 1)  # the last row added into, + 1
            real_scatter(t, idx, vals)

        def update(params, state, lr):  # after every backward pass
            table = seen["table"]
            end = table.grad_end()
            assert end == seen["end"]
            assert table.grad[end:].tobytes() == np.zeros((len(table.grad) - end, table.shape[1])).tobytes()
            assert table.grad.tobytes() == seen["want"].tobytes()
            recorded.append(end)
            real_update(params, state, lr)

        monkeypatch.setattr(trainer, "init_adam", init)
        monkeypatch.setattr(dm, "_scatter_rows", scatter)
        monkeypatch.setattr(trainer, "update_step", update)
        train(tiny_dataset, tiny_config(epochs=2, sampler=sampler, refresh_cadence=1, pool_size=5))
        assert len(recorded) == 12  # 24 queries in groups of 4, twice
        # each pass records its own end, not the highest of the passes so far
        assert all(0 < end < len(seen["table"].data) for end in recorded)
        assert any(b < a for a, b in zip(recorded, recorded[1:]))

    @pytest.mark.parametrize("block", [32768, 40])  # at 40, Adam's blocks are 5 rows; the check reads no blocks
    @pytest.mark.parametrize("row", ["below", "past"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_in_a_recorded_row_rejected_before_any_write(self, monkeypatch, block, row, value):
        monkeypatch.setattr(trainer, "ADAM_BLOCK", block)
        params = init_model(np.random.default_rng(0), tiny_config()).named_tensors()
        state = init_adam(params)
        table = params["encoder/bucket_table"]
        for p in params.values():
            if p is not table:
                _land(p, np.ones(p.shape))
        _bag_land(table, np.arange(0, 60, 3))  # the mark ends at row 57
        update_step(params, state, lr=0.1)
        kept = _adam_bytes(params, state)
        table.grad = None
        _bag_land(table, np.arange(0, 60, 2))  # row 58 would raise the mark
        bad = 54 if row == "below" else 58  # 58: the last row before the end
        table.grad[bad, -1] = value
        # head_ql/b2 comes after the table in checkpoint order and holds a finite gradient
        assert np.isfinite(params["head_ql/b2"].grad).all()
        with pytest.raises(dm.NonFiniteGradient, match="^non-finite gradient of encoder/bucket_table at step 1$"):
            update_step(params, state, lr=0.1)
        assert _adam_bytes(params, state) == kept
        assert state.step == 1

    def test_recorded_rows_give_the_full_read_bitwise(self, monkeypatch):
        """Adam over three passes of a table gradient from embedding_bag
        equals Adam over the same gradients assigned as plain arrays, which
        update_step reads and updates whole."""
        monkeypatch.setattr(trainer, "ADAM_BLOCK", 40)
        runs = []
        for assigned in (False, True):
            params = init_model(np.random.default_rng(0), tiny_config()).named_tensors()
            table = params["encoder/bucket_table"]
            state = init_adam(params)
            for rows in (np.arange(0, 60, 3), np.arange(30, 90, 2), np.array([5, 1, 5, 700])):
                table.grad = None
                _bag_land(table, rows)
                if assigned:
                    table.grad = table.grad.copy()
                assert (table.grad_end() is None) == assigned
                update_step(params, state, lr=0.1)
            runs.append(_array_bytes(params, state))
            assert state.high["encoder/bucket_table"] == (table.data.size if assigned else 701 * table.shape[1])
        assert runs[0] == runs[1]


class TestCheckpointFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {
            "a/b": rng.normal(size=(3, 4)),
            "scalarish": rng.normal(size=1),
            "long-name/" + "x" * 50: rng.normal(size=7),
        }
        path = tmp_path / "t.bin"
        write_tensors(path, tensors)
        back = read_tensors(path)
        assert set(back) == set(tensors)
        for k in tensors:
            np.testing.assert_array_equal(back[k], tensors[k])

    def test_failed_write_keeps_the_old_file_and_removes_its_tmp(self, tmp_path):
        path = tmp_path / "t.bin"
        write_tensors(path, {"a": np.ones(2)})
        before = path.read_bytes()
        with pytest.raises(ValueError):  # the second tensor fails after the first was written
            write_tensors(path, {"a": np.ones(3), "b": np.array(["x"])})
        assert path.read_bytes() == before
        assert not (tmp_path / "t.bin.tmp").exists()

    def test_magic_enforced(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            read_tensors(path)

    def _container(self, tmp_path) -> bytes:
        # magic (4) + count (4) + name length (2) + "a" (1) + rank (1)
        # + dims (8) + data (48): the data starts at byte 20, the file ends at 68
        path = tmp_path / "ok.bin"
        write_tensors(path, {"a": np.arange(6.0).reshape(2, 3)})
        return path.read_bytes()

    def _read(self, tmp_path, raw: bytes):
        path = tmp_path / "bad.bin"
        path.write_bytes(raw)
        return read_tensors(path)

    def test_truncated_file_rejected_with_offset(self, tmp_path):
        raw = self._container(tmp_path)
        with pytest.raises(ValueError, match="data of 'a' at byte 20 runs past the end"):
            self._read(tmp_path, raw[:-8])

    def test_trailing_bytes_rejected_with_offset(self, tmp_path):
        raw = self._container(tmp_path)
        with pytest.raises(ValueError, match="3 trailing bytes at byte 68"):
            self._read(tmp_path, raw + b"\x00" * 3)

    def test_duplicate_name_rejected_with_offset(self, tmp_path):
        raw = self._container(tmp_path)
        entry = raw[8:]
        with pytest.raises(ValueError, match="duplicate tensor name 'a' at byte 68"):
            self._read(tmp_path, raw[:4] + (2).to_bytes(4, "little") + entry + entry)

    def test_name_not_utf8_rejected_with_offset(self, tmp_path):
        raw = self._container(tmp_path)
        with pytest.raises(ValueError, match="tensor name at byte 10 is not UTF-8"):
            self._read(tmp_path, raw[:10] + b"\xff" + raw[11:])

    def test_rank_or_size_past_end_rejected_with_offset(self, tmp_path):
        raw = self._container(tmp_path)
        huge_rank = raw[:11] + bytes([255]) + raw[12:]
        with pytest.raises(ValueError, match="shape of 'a' at byte 12 runs past the end"):
            self._read(tmp_path, huge_rank)
        huge_dim = raw[:12] + (2**31).to_bytes(4, "little") + raw[16:]
        with pytest.raises(ValueError, match="data of 'a' at byte 20 runs past the end"):
            self._read(tmp_path, huge_dim)

    def test_checkpoint_with_config_and_epoch(self, tmp_path):
        ckpt = Checkpoint(tensors={"w": np.ones((2, 2))}, config={"epochs": 3}, epoch=3)
        path = tmp_path / "c.bin"
        ckpt.save(path)
        back = Checkpoint.load(path)
        assert back.epoch == 3
        assert back.config == {"epochs": 3}
        np.testing.assert_array_equal(back.tensors["w"], np.ones((2, 2)))

    def test_sidecar_checked_against_shapes(self, tmp_path, tiny_dataset):
        ckpt, _ = train(tiny_dataset, tiny_config(epochs=1))
        path = tmp_path / "c.bin"
        ckpt.save(path)
        assert Checkpoint.load(path).config == ckpt.config
        sidecar = tmp_path / "c.bin.config.json"
        for key, name, found, expected in (
            ("dim", "encoder/projection", (16, 8), (16, 12)),
            ("dim_hidden", "encoder/bucket_table", (1024, 16), (1024, 20)),
            ("num_buckets", "encoder/bucket_table", (1024, 16), (512, 16)),
        ):
            config = dict(ckpt.config)
            config[key] = {"dim": 12, "dim_hidden": 20, "num_buckets": 512}[key]
            sidecar.write_text(json.dumps(config))
            with pytest.raises(ValueError) as err:
                Checkpoint.load(path)
            assert str(path) in str(err.value) and name in str(err.value)
            assert f"shape {found}, expected {expected} from c.bin.config.json" in str(err.value)

    def test_sidecar_checks_head_and_block_widths(self, tmp_path, tiny_dataset):
        ckpt, _ = train(tiny_dataset, tiny_config(epochs=1))
        for name, shape in (("head_ql/w1", (32, 32)), ("head_qb/w1", (128, 128)), ("block/wq", (32, 32)),
                            ("block/ff_w2", (64, 32))):
            tensors = dict(ckpt.tensors)
            tensors[name] = np.zeros((shape[0] + 4, shape[1]))
            path = tmp_path / "c.bin"
            Checkpoint(tensors=tensors, config=ckpt.config, epoch=1).save(path)
            with pytest.raises(ValueError, match=f"{name} has shape .*, expected {re.escape(str(shape))}"):
                Checkpoint.load(path)

    @pytest.mark.parametrize("raw, message", [
        (b'{"dim": 8,', "not a JSON config: Expecting"),
        (b'{"dim": "\xff"}', "not a JSON config: 'utf-8' codec"),
        (b"[8, 16]", "expected a JSON object, got [8, 16]"),
        (b'"dim"', 'expected a JSON object, got "dim"'),
        (b'{"dim": 8.0}', "'dim' must be an integer, got 8.0"),
        (b'{"dim_hidden": "16"}', "'dim_hidden' must be an integer, got \"16\""),
        (b'{"num_buckets": true}', "'num_buckets' must be an integer, got true"),
        (b'{"dim": null, "dim_hidden": 16, "num_buckets": 1024}', "'dim' must be an integer, got null"),
    ])
    def test_malformed_sidecar_names_its_path(self, tmp_path, raw, message):
        path = tmp_path / "c.bin"
        Checkpoint(tensors={"w": np.ones(2)}, config={}, epoch=1).save(path)
        sidecar = tmp_path / "c.bin.config.json"
        sidecar.write_bytes(raw)
        with pytest.raises(ValueError) as err:
            Checkpoint.load(path)
        assert str(err.value).startswith(f"{sidecar}: ") and message in str(err.value)

    def test_missing_sidecar_still_loads(self, tmp_path, tiny_dataset):
        ckpt, _ = train(tiny_dataset, tiny_config(epochs=1))
        path = tmp_path / "c.bin"
        ckpt.save(path)
        (tmp_path / "c.bin.config.json").unlink()
        back = Checkpoint.load(path)
        assert back.config == {} and back.epoch == 1
        for name, arr in ckpt.tensors.items():
            assert back.tensors[name].tobytes() == arr.tobytes()

    @pytest.mark.parametrize("epoch, got", [
        (np.array(3.0), "got shape ()"),
        (np.zeros(0), "got shape (0,)"),
        (np.array([1.0, 2.0]), "got shape (2,)"),
        (np.array([np.nan]), "got nan"),
        (np.array([np.inf]), "got inf"),
        (np.array([2.7]), "got 2.7"),
        (np.array([-1.0]), "got -1.0"),
    ])
    def test_malformed_epoch_names_its_path(self, tmp_path, epoch, got):
        path = tmp_path / "c.bin"
        write_tensors(path, {"w": np.ones(2), "meta/epoch": epoch})
        with pytest.raises(ValueError) as err:
            Checkpoint.load(path)
        assert str(err.value) == f"{path}: meta/epoch must be one finite whole number >= 0, {got}"

    @pytest.mark.parametrize("epoch, got", [
        (2.7, "got 2.7"), (-1, "got -1.0"), (math.nan, "got nan"), (math.inf, "got inf"),
    ])
    def test_save_rejects_an_epoch_load_rejects(self, tmp_path, epoch, got):
        path = tmp_path / "c.bin"
        with pytest.raises(ValueError) as err:
            Checkpoint(tensors={"w": np.ones(2)}, config={}, epoch=epoch).save(path)
        assert str(err.value) == f"{path}: meta/epoch must be one finite whole number >= 0, {got}"
        assert list(tmp_path.iterdir()) == []

    def test_trained_checkpoint_file_holds_the_model_and_epoch_only(self, tmp_path, tiny_dataset):
        config = tiny_config(epochs=1)
        ckpt, _ = train(tiny_dataset, config)
        path = tmp_path / "c.bin"
        ckpt.save(path)
        names = list(init_model(np.random.default_rng(0), config).named_tensors())
        assert list(read_tensors(path)) == names + ["meta/epoch"]
        back = Checkpoint.load(path)
        assert list(back.tensors) == names and back.epoch == 1
        for name in names:
            assert back.tensors[name].tobytes() == ckpt.tensors[name].tobytes(), name


class TestTrain:
    def test_ablation_log_zeros(self, tiny_dataset):
        config = tiny_config(epochs=1, beta1=0.0, beta2=0.0, tcm_enabled=False)
        _, log = train(tiny_dataset, config)
        assert log[0]["tcm"] == 0.0
        assert log[0]["xe_ql"] == 0.0
        assert log[0]["xe_qb"] == 0.0
        assert log[0]["total"] == log[0]["base"]

    def test_determinism_bit_identical_checkpoints(self, tmp_path, tiny_dataset):
        config = tiny_config(epochs=2)
        paths = []
        for name in ("a.bin", "b.bin"):
            ckpt, _ = train(tiny_dataset, config)
            p = tmp_path / name
            ckpt.save(p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    # sha256 of the saved 2-epoch checkpoint on the tiny dataset: how
    # gradients are stored and reused must not move a bit of training. The
    # cluster run has beta1 > 0 and dropout on, so heads, block and table
    # all get gradients.
    @pytest.mark.parametrize("overrides, digest", [
        ({}, "a9b427c922a76797e04e3a213ed6d8fd9c2c5f2832ed390632faf3b22ab7d8de"),
        ({"sampler": "ance"}, "5cc663404533578633448cd59ac6ea63fe7f5c0c272bc14b065c6e0b0f15a87a"),
        ({"beta1": 0.0}, "9c430a5f5c5a4b0191d6b4acc079c7ef068670f0497d8c9590fb7d58b32e77a4"),
    ], ids=["cluster", "ance", "beta1=0"])
    def test_trained_checkpoint_pinned(self, tmp_path, tiny_dataset, overrides, digest):
        assert tiny_config().beta1 > 0 and tiny_config().dropout > 0
        ckpt, _ = train(tiny_dataset, tiny_config(epochs=2, **overrides))
        ckpt.save(tmp_path / "c.bin")
        assert hashlib.sha256((tmp_path / "c.bin").read_bytes()).hexdigest() == digest

    def test_gradient_buffers_kept_across_steps_and_freed_after(self, tiny_dataset, monkeypatch):
        names = ("encoder/bucket_table", "head_qb/w1", "block/wq")
        ids, first = {name: [] for name in names}, {}

        def spy(params, state, lr):
            update_step(params, state, lr)
            for name in names:
                ids[name].append(id(params[name].grad))
                first.setdefault(name, weakref.ref(params[name].grad))

        monkeypatch.setattr(trainer, "update_step", spy)
        train(tiny_dataset, tiny_config(epochs=2))
        for name in names:
            assert len(ids[name]) == 12, name  # 24 queries in groups of 4, two epochs
            # every step's gradient is the one buffer, which is freed when train returns
            assert set(ids[name]) == {ids[name][0]} and first[name]() is None, name

    def test_spent_graph_released_before_next_forward(self, tiny_dataset, monkeypatch):
        """When a step's forward pass starts, the step before it holds no
        graph: weak references to its root's array and to its activations
        (head and block GeLU outputs) are dead."""
        refs, alive = [], []
        real_loss, real_gelu = trainer.total_loss, dm.gelu

        def gelu(tape, a):
            out = real_gelu(tape, a)
            refs.append(weakref.ref(out.data))
            return out

        def total_loss(tape, *args, **kwargs):
            alive.append(sum(ref() is not None for ref in refs))
            refs.clear()
            total, breakdown, shrunk = real_loss(tape, *args, **kwargs)
            assert len(refs) >= 2  # the heads' activations
            refs.append(weakref.ref(total.data))
            return total, breakdown, shrunk

        monkeypatch.setattr(dm, "gelu", gelu)
        monkeypatch.setattr(trainer, "total_loss", total_loss)
        train(tiny_dataset, tiny_config(epochs=1, batch_size=8))  # 24 queries: three steps
        assert alive == [0, 0, 0]

    def test_log_total_matches_components(self, tiny_dataset):
        config = tiny_config(epochs=2)
        _, log = train(tiny_dataset, config)
        for entry in log:
            recomputed = (
                entry["base"] + entry["tcm"] + config.beta1 * entry["xe_ql"] + config.beta2 * entry["xe_qb"]
            )
            assert abs(entry["total"] - recomputed) < 1e-12

    def test_dataset_not_mutated(self, tiny_dataset):
        snapshot = copy.deepcopy(
            [(q.id, q.text, set(q.positives)) for q in tiny_dataset.queries]
        )
        labels_snapshot = [(l.id, l.text) for l in tiny_dataset.labels]
        train(tiny_dataset, tiny_config(epochs=1))
        assert snapshot == [(q.id, q.text, set(q.positives)) for q in tiny_dataset.queries]
        assert labels_snapshot == [(l.id, l.text) for l in tiny_dataset.labels]

    def test_separable_toy_loss_decreases(self):
        labels, queries, _ = build_synthetic(
            tiny_spec(num_labels=25, num_train_queries=50, noise_rate=0.0, abbreviation_rate=0.0)
        )
        dataset = Dataset(queries=queries, labels=labels)
        config = tiny_config(epochs=10, batch_size=10, learning_rate=3e-3)
        _, log = train(dataset, config)
        totals = [e["total"] for e in log]
        window = 3
        ma = [float(np.mean(totals[i : i + window])) for i in range(len(totals) - window + 1)]
        for earlier, later in zip(ma, ma[1:]):
            assert later <= earlier + 1e-9, f"moving average increased: {ma}"

    def test_log_written_as_jsonl(self, tmp_path, tiny_dataset):
        log_path = tmp_path / "log.jsonl"
        _, log = train(tiny_dataset, tiny_config(epochs=2), log_path=log_path)
        lines = log_path.read_text().strip().split("\n")
        assert len(lines) == 2
        entry = json.loads(lines[0])
        assert set(entry) == {"epoch", "base", "tcm", "xe_ql", "xe_qb", "total"}

    def test_nonfinite_loss_aborts_with_step(self, tiny_dataset, monkeypatch):
        calls = {"n": 0}
        real = trainer.total_loss

        def poisoned(*args, **kwargs):
            total, breakdown, shrunk = real(*args, **kwargs)
            if calls["n"] == 2:
                breakdown = dataclasses.replace(breakdown, total=float("nan"))
            calls["n"] += 1
            return total, breakdown, shrunk

        monkeypatch.setattr(trainer, "total_loss", poisoned)
        with pytest.raises(NonFiniteLoss, match="step 2"):
            train(tiny_dataset, tiny_config(epochs=2))

    def test_nonfinite_gradient_aborts_before_update(self, tiny_dataset, monkeypatch):
        # a finite loss whose backward leaves a NaN in one parameter's gradient
        real = trainer.total_loss
        calls = {"n": 0}

        def poisoned(tape, dataset, batch, enc, *args, **kwargs):
            total, breakdown, shrunk = real(tape, dataset, batch, enc, *args, **kwargs)
            calls["n"] += 1
            if calls["n"] < 3:
                return total, breakdown, shrunk
            out = dm.add(tape, total, 0.0)
            forward = out._backward

            def backward(g):
                forward(g)
                enc.projection.grad = np.zeros_like(enc.projection.data)
                enc.projection.grad[0, 0] = np.nan

            out._backward = backward
            return out, breakdown, shrunk

        monkeypatch.setattr(trainer, "total_loss", poisoned)
        written = []

        def checked(params, state, *args, **kwargs):
            before = _adam_bytes(params, state), state.step
            try:
                update_step(params, state, *args, **kwargs)
            finally:
                written.append((_adam_bytes(params, state), state.step) != before)

        monkeypatch.setattr(trainer, "update_step", checked)
        with pytest.raises(dm.NonFiniteGradient, match="encoder/projection at step 2"):
            train(tiny_dataset, tiny_config(epochs=2))
        assert written == [True, True, False]

    def test_ance_sampler_runs(self, tiny_dataset):
        config = tiny_config(epochs=1, sampler="ance", pool_size=5)
        ckpt, log = train(tiny_dataset, config)
        assert len(log) == 1
        assert "encoder/bucket_table" in ckpt.tensors

    @pytest.mark.parametrize("sampler", ["cluster", "ance"])
    @pytest.mark.parametrize("cadence, refreshes", [(1, 4), (2, 2), (3, 2)])
    def test_groups_and_pools_kept_between_refreshes(self, tiny_dataset, monkeypatch, sampler, cadence, refreshes):
        made = {"cluster_batches": [], "random_groups": [], "ance_pool": []}  # each call's result

        def recording(name, fn):
            def wrapper(*args, **kwargs):
                made[name].append(fn(*args, **kwargs))
                return made[name][-1]
            return wrapper

        for name in made:
            monkeypatch.setattr(mining, name, recording(name, getattr(mining, name)))
        built = []  # per batch: its group and pools, and the latest groups and pools made before it
        make_batch = mining.make_batch

        def make_batch_recorded(dataset, group, sampled_pos, pools, rng):
            groups = (made["cluster_batches"] or made["random_groups"])[-1]
            built.append((group, pools, groups, made["ance_pool"][-1] if made["ance_pool"] else None))
            return make_batch(dataset, group, sampled_pos, pools, rng)

        monkeypatch.setattr(mining, "make_batch", make_batch_recorded)
        train(tiny_dataset, tiny_config(epochs=4, sampler=sampler, pool_size=5, refresh_cadence=cadence))
        ance = sampler == "ance"
        assert {name: len(results) for name, results in made.items()} == {
            "cluster_batches": 0 if ance else refreshes, "random_groups": refreshes if ance else 0,
            "ance_pool": refreshes if ance else 0,
        }
        assert len(built) == 4 * len(made["cluster_batches" if sampler == "cluster" else "random_groups"][0])
        assert all(any(group is g for g in groups) and pools is latest for group, pools, groups, latest in built)


# float64 bit patterns: ±0.0, ±inf, quiet and signalling NaNs with
# payloads and either sign, and arbitrary bits
_SPECIAL_BITS = [0, 1 << 63, 0x7FF0 << 48, 0xFFF0 << 48, 0x7FF8 << 48, 0x7FF0000000000001, 0xFFF8000000000ABC]
_BITS = st.one_of(st.sampled_from(_SPECIAL_BITS), st.integers(0, 2**64 - 1))


@st.composite
def _arrays(draw):
    shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
    bits = draw(st.lists(_BITS, min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(bits, dtype=np.uint64).view(np.float64).reshape(shape)


_NAMES = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
_CONTAINERS = st.dictionaries(_NAMES, _arrays(), max_size=4)


def _written(tensors) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.bin"
        write_tensors(path, tensors)
        return path.read_bytes()


def _read_bytes(raw: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.bin"
        path.write_bytes(raw)
        return read_tensors(path)


class TestContainerFuzz:
    @given(_CONTAINERS)
    def test_round_trip_bit_for_bit(self, tensors):
        back = _read_bytes(_written(tensors))
        assert list(back) == list(tensors)
        for name, arr in tensors.items():
            assert back[name].shape == arr.shape
            assert back[name].tobytes() == arr.tobytes()

    # one example reads every prefix of its file, so its time grows with the file
    @settings(max_examples=50, deadline=None)
    @given(_CONTAINERS)
    def test_every_strict_prefix_rejected_with_offset(self, tensors):
        raw = _written(tensors)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.bin"
            for end in range(len(raw)):
                path.write_bytes(raw[:end])
                with pytest.raises(ValueError, match=r"at byte \d+"):
                    read_tensors(path)

    @given(_CONTAINERS, st.data())
    def test_corrupted_byte_read_or_rejected_with_offset(self, tensors, data):
        raw = bytearray(_written(tensors))
        raw[data.draw(st.integers(0, len(raw) - 1))] ^= data.draw(st.integers(1, 255))
        try:
            _read_bytes(bytes(raw))
        except ValueError as err:
            assert re.search(r"at byte \d+", str(err)), err

    def test_empty_shape_too_large_for_numpy_rejected_with_offset(self):
        # a zero dimension makes the size 0, so the size check passes
        raw = b"ALC1" + struct.pack("<IH", 1, 1) + b"a" + struct.pack("<B3I", 3, 0, 2**32 - 1, 2**32 - 1)
        with pytest.raises(ValueError, match=r"shape \(0, 4294967295, 4294967295\) of 'a' at byte 12"):
            _read_bytes(raw)

    @given(_CONTAINERS, st.binary(min_size=1, max_size=16))
    def test_appended_bytes_reported_as_trailing(self, tensors, extra):
        raw = _written(tensors)
        with pytest.raises(ValueError, match=f"{len(extra)} trailing bytes at byte {len(raw)}"):
            _read_bytes(raw + extra)


class TestModelRoundTrip:
    def test_missing_model_tensor_named_with_file(self):
        tensors = {k: np.array(v.data) for k, v in init_model(np.random.default_rng(0), tiny_config()).named_tensors().items()}
        del tensors["head_qb/b2"]
        with pytest.raises(ValueError, match=re.escape("ckpt.bin: no model tensor 'head_qb/b2'")):
            model_from_tensors(tensors, path="ckpt.bin")

    @pytest.mark.parametrize("name, at, value", [
        ("encoder/bucket_table", 17, np.inf), ("head_qb/b2", 0, np.nan), ("block/ff_b1", 5, -np.inf),
    ])
    def test_non_finite_model_tensor_named_with_flat_index(self, name, at, value):
        model = init_model(np.random.default_rng(0), tiny_config())
        tensors = {k: np.array(v.data) for k, v in model.named_tensors().items()}
        tensors[name].flat[at:] = value  # the first non-finite value is at `at`
        message = f"ckpt.bin: {name} holds {value} at flat index {at}, need finite values"
        with pytest.raises(ValueError, match=re.escape(message)):
            model_from_tensors(tensors, path="ckpt.bin")

    # sha256 of each tensor's name, shape and little-endian bytes, in
    # checkpoint order, drawn from default_rng(0)
    @pytest.mark.parametrize("config, digest", [
        (TrainConfig(), "819e56ffad6defd95dd9d620d9aee8e559734528630a43ce78186ed76d365962"),
        (tiny_config(), "6bcb3124e7ef7fd3439cbc49ec459d94748625617809cb826e9865b1e8d6d9cb"),
    ], ids=["default", "tiny"])
    def test_initial_weights_pinned(self, config, digest):
        h = hashlib.sha256()
        for name, t in init_model(np.random.default_rng(0), config).named_tensors().items():
            h.update(f"{name} {t.shape}\n".encode())
            h.update(t.data.astype("<f8").tobytes())
        assert h.hexdigest() == digest

    def test_parts_hold_tensors_only(self):
        config = tiny_config(dropout=0.0)
        model = init_model(np.random.default_rng(0), config)
        loaded = model_from_tensors({k: np.array(v.data) for k, v in model.named_tensors().items()})
        for m in (model, loaded):
            for part in dataclasses.fields(m):
                obj = getattr(m, part.name)
                for f in dataclasses.fields(obj):
                    assert isinstance(getattr(obj, f.name), dm.Tensor), f"{part.name}.{f.name}"

    def test_named_tensors_rebuild(self):
        config = tiny_config()
        model = init_model(np.random.default_rng(0), config)
        tensors = {k: np.array(v.data) for k, v in model.named_tensors().items()}
        rebuilt = model_from_tensors(tensors)
        for (k, a), b in zip(model.named_tensors().items(), rebuilt.named_tensors().values()):
            np.testing.assert_array_equal(a.data, b.data)
