"""Training loop, optimizer closed forms, and checkpoint serialization."""

import copy
import dataclasses
import json
import math
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmcreg import diffmath as dm
from xmcreg import trainer
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
        p.grad = np.zeros(5)
        with pytest.raises(ShapeMismatch):
            update_step(params, state, lr=0.1)


def _land(p: dm.Tensor, g: np.ndarray) -> None:
    """Backward of <p, g> on a tape: p's first gradient is exactly g, -0.0 included."""
    tape = dm.GradTape()
    tape.backward(dm.dot(tape, dm.reshape(tape, p, (-1,)), np.ravel(g)))


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
        gap.grad_view[...] = np.nan
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
        assert gap.data.tobytes() == gap_data.tobytes()
        assert np.isnan(gap.grad_view).all()
        assert not state.m["gap"].any() and not state.v["gap"].any()

    def test_parameters_and_moments_are_arena_views_after_train(self, tiny_dataset, monkeypatch):
        seen = {}

        def spy(params):
            seen["params"], seen["state"] = params, init_adam(params)
            return seen["state"]

        monkeypatch.setattr(trainer, "init_adam", spy)
        ckpt, _ = train(tiny_dataset, tiny_config(epochs=1))
        params, state = seen["params"], seen["state"]
        assert state.arena.shape == (4, sum(p.data.size for p in params.values()))
        rows = dict(zip(("data", "grad", "m", "v"), state.arena))
        for name, p in params.items():
            start, stop = state.spans[name]
            for row, arr in ((rows["data"], p.data), (rows["grad"], p.grad_view),
                             (rows["m"], state.m[name]), (rows["v"], state.v[name])):
                assert arr.ctypes.data == row[start:].ctypes.data and arr.size == stop - start, name
            assert p.data.tobytes() == ckpt.tensors[name].tobytes(), name

    def test_nonfinite_gradient_names_first_bad_tensor(self):
        params = {name: dm.Tensor(np.zeros(shape)) for name, shape in self.SHAPES}
        state = init_adam(params)
        for name in ("a", "b", "c"):
            _land(params[name], np.ones(params[name].shape))
        update_step(params, state, lr=0.1)
        kept = state.arena[[0, 2, 3]].tobytes()
        params["c"].grad = np.array(np.nan)
        params["b"].grad = np.zeros((2, 3))
        params["b"].grad[0, 0] = np.inf  # the first element of b's span, right after gap's
        with pytest.raises(dm.NonFiniteGradient, match="^non-finite gradient of b at step 1$"):
            update_step(params, state, lr=0.1)
        params["b"].grad = None
        with pytest.raises(dm.NonFiniteGradient, match="^non-finite gradient of c at step 1$"):
            update_step(params, state, lr=0.1)
        # parameters and moments keep their bytes, and the step does not count
        assert state.arena[[0, 2, 3]].tobytes() == kept
        assert state.step == 1

    def test_gathered_rows_land_in_a_zeroed_view(self):
        p = dm.Tensor(np.arange(12.0).reshape(4, 3))
        params = {"p": p}
        init_adam(params)
        p.grad_view[...] = np.nan  # a previous step's gradient
        tape = dm.GradTape()
        # rows 1, 3 and 1 again, in three bags of one row
        bags = dm.embedding_bag(tape, p, [[1, 3, 1]], np.ones((1, 3)))
        tape.backward(dm.mean_all(tape, bags))
        assert p.grad is p.grad_view
        np.testing.assert_array_equal(p.grad, np.array([0, 2, 0, 1])[:, None] * np.full((4, 3), 1 / 9))


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
        for name, shape in (("head_ql/w1", (32, 32)), ("head_qb/w1", (128, 128)), ("block/wq", (32, 32))):
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

    def test_optimizer_state_round_trips(self, tmp_path, tiny_dataset):
        config = tiny_config(epochs=1)
        ckpt, _ = train(tiny_dataset, config)
        path = tmp_path / "c.bin"
        ckpt.save(path)
        back = Checkpoint.load(path)
        opt_keys = [k for k in ckpt.tensors if k.startswith("opt/")]
        assert opt_keys
        for k in opt_keys:
            np.testing.assert_array_equal(back.tensors[k], ckpt.tensors[k])


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
            before = state.arena[[0, 2, 3]].tobytes(), state.step
            try:
                update_step(params, state, *args, **kwargs)
            finally:
                written.append((state.arena[[0, 2, 3]].tobytes(), state.step) != before)

        monkeypatch.setattr(trainer, "update_step", checked)
        with pytest.raises(dm.NonFiniteGradient, match="encoder/projection at step 2"):
            train(tiny_dataset, tiny_config(epochs=2))
        assert written == [True, True, False]

    def test_ance_sampler_runs(self, tiny_dataset):
        config = tiny_config(epochs=1, sampler="ance", pool_size=5)
        ckpt, log = train(tiny_dataset, config)
        assert len(log) == 1
        assert "encoder/bucket_table" in ckpt.tensors


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
