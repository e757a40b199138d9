"""Training loop, optimizer closed forms, and checkpoint serialization."""

import copy
import dataclasses
import json

import numpy as np
import pytest

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

    def test_loss_config_mirrors_fields(self):
        cfg = TrainConfig(beta1=0.25, beta2=0.75, tcm_enabled=False, k=3, triplet_margin=0.2)
        lc = cfg.loss_config()
        assert lc.beta1 == 0.25 and lc.beta2 == 0.75 and lc.tcm is None
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
            update_step(params, state, lr=lr, b1=b1, b2=b2, eps=eps)
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

    def test_ance_sampler_runs(self, tiny_dataset):
        config = tiny_config(epochs=1, sampler="ance", pool_size=5)
        ckpt, log = train(tiny_dataset, config)
        assert len(log) == 1
        assert "encoder/bucket_table" in ckpt.tensors


class TestModelRoundTrip:
    def test_named_tensors_rebuild(self):
        config = tiny_config()
        model = init_model(np.random.default_rng(0), config)
        tensors = {k: np.array(v.data) for k, v in model.named_tensors().items()}
        rebuilt = model_from_tensors(tensors)
        for (k, a), b in zip(model.named_tensors().items(), rebuilt.named_tensors().values()):
            np.testing.assert_array_equal(a.data, b.data)
