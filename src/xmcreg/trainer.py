"""Training loop, adaptive-moment updates, and binary checkpointing."""

from __future__ import annotations

import json
import math
import os
import struct
import typing
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import diffmath as dm
from . import mining
from .encoder import EncoderParams, encode_matrix, init_encoder
from .losses import LossConfig, MlpHead, TcmConfig, init_head, total_loss
from .pair_reps import BlockContextParams, init_block

CHECKPOINT_MAGIC = b"ALC1"


class NonFiniteLoss(RuntimeError):
    """Training aborted because a step produced a NaN/Inf loss."""


class ShapeMismatch(ValueError):
    """Gradient or moment shape does not match its parameter."""


@dataclass
class TrainConfig:
    epochs: int = 40
    batch_size: int = 16
    learning_rate: float = 1e-3
    beta1: float = 1.0
    beta2: float = 0.5
    k: int = 5
    tcm_enabled: bool = True
    m_plus: float = 0.8
    m_minus: float = 0.5
    sampler: str = "cluster"  # "cluster" | "ance"
    triplet_margin: float = 0.3
    seed: int = 0
    refresh_cadence: int = 5
    pool_size: int = 20
    detach_aux: bool = False
    dim: int = 32
    dim_hidden: int = 64
    num_buckets: int = 4096
    dropout: float = 0.1

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 2 or self.k < 2 or self.learning_rate <= 0:
            raise ValueError("invalid training configuration")
        if self.sampler not in ("cluster", "ance"):
            raise ValueError(f"unknown sampler {self.sampler!r}")

    def loss_config(self) -> LossConfig:
        return LossConfig(
            beta1=self.beta1,
            beta2=self.beta2,
            tcm=TcmConfig(self.m_plus, self.m_minus) if self.tcm_enabled else None,
            triplet_margin=self.triplet_margin,
            k=self.k,
            detach_aux=self.detach_aux,
        )


@dataclass
class ModelParams:
    enc: EncoderParams
    head_ql: MlpHead
    head_qb: MlpHead
    block: BlockContextParams

    def named_tensors(self) -> dict[str, dm.Tensor]:
        """Every parameter under its checkpoint name, in checkpoint order."""
        return {
            f"{prefix}/{name}": getattr(getattr(self, attr), name)
            for attr, prefix, _, names in _LAYOUT
            for name in names
        }


def _layout() -> list[tuple[str, str, type, list[str]]]:
    """(attribute, checkpoint prefix, class, tensor field names) of each
    ModelParams part. Names follow field order, which fixes the order of
    tensors in a checkpoint."""
    layout = []
    for attr, cls in typing.get_type_hints(ModelParams).items():
        kinds = typing.get_type_hints(cls)
        names = [f.name for f in fields(cls) if kinds[f.name] is dm.Tensor]
        layout.append((attr, "encoder" if attr == "enc" else attr, cls, names))
    return layout


_LAYOUT = _layout()


def init_model(rng: np.random.Generator, config: TrainConfig) -> ModelParams:
    enc = init_encoder(rng, d=config.dim, d_in=config.dim_hidden, num_buckets=config.num_buckets)
    width = 4 * config.dim
    head_ql = init_head(rng, width, dropout_rate=config.dropout)
    head_qb = init_head(rng, 4 * width, dropout_rate=config.dropout)
    block = init_block(rng, width)
    return ModelParams(enc=enc, head_ql=head_ql, head_qb=head_qb, block=block)


def model_from_tensors(tensors: dict[str, np.ndarray], dropout: float = 0.1) -> ModelParams:
    model = ModelParams(**{
        attr: cls(**{name: dm.Tensor(tensors[f"{prefix}/{name}"]) for name in names})
        for attr, prefix, cls, names in _LAYOUT
    })
    model.head_ql.dropout_rate = model.head_qb.dropout_rate = dropout
    return model


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    touched: set = field(default_factory=set)


def init_adam(params: dict[str, dm.Tensor]) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(p.data) for k, p in params.items()},
        v={k: np.zeros_like(p.data) for k, p in params.items()},
    )


def update_step(params: dict[str, dm.Tensor], state: AdamState, lr: float,
                b1: float = 0.9, b2: float = 0.999, eps: float = 1e-8) -> None:
    """Adaptive moment estimation update with bias correction, in place.

    A parameter whose gradient has been zero on every step so far has
    zero moments and a mathematically zero update, so it is skipped.
    """
    state.step += 1
    t = state.step
    for name, p in params.items():
        if p.grad is None:
            if name not in state.touched:
                continue
            g = np.zeros_like(p.data)
        else:
            g = p.grad
            state.touched.add(name)
        if g.shape != p.data.shape:
            raise ShapeMismatch(f"{name}: grad {g.shape} vs param {p.data.shape}")
        # the moments are updated in place, in the operation order of
        # m = b1*m + (1-b1)*g and v = b2*v + ((1-b2)*g)*g
        m, v = state.m[name], state.v[name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        sq = (1 - b2) * g
        sq *= g
        v += sq
        update = m / (1 - b1**t)
        update *= lr
        denom = v / (1 - b2**t)
        np.sqrt(denom, out=denom)
        denom += eps
        update /= denom
        # a new array: p.data may be a checkpoint's array, which is not ours to change
        p.data = p.data - update


# ---------------------------------------------------------------------------
# checkpoint container


def write_tensors(path: str | Path, tensors: dict[str, np.ndarray]) -> None:
    """Atomic write of the named-tensor container (magic 'ALC1')."""
    path = Path(path)
    buf = bytearray()
    buf += CHECKPOINT_MAGIC
    buf += struct.pack("<I", len(tensors))
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        encoded = name.encode("utf-8")
        buf += struct.pack("<H", len(encoded))
        buf += encoded
        buf += struct.pack("<B", arr.ndim)
        for d in arr.shape:
            buf += struct.pack("<I", d)
        buf += arr.astype("<f8").tobytes()
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(bytes(buf))
    os.replace(tmp, path)


def read_tensors(path: str | Path) -> dict[str, np.ndarray]:
    """Read a container written by write_tensors. A truncated file, trailing
    bytes, a duplicate name, or a rank or size that runs past the end of
    the file is rejected with its byte offset."""
    raw = Path(path).read_bytes()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: bad checkpoint magic {raw[:4]!r}")
    view = memoryview(raw)
    off = 4

    def take(size: int, what: str) -> memoryview:
        nonlocal off
        if off + size > len(raw):
            raise ValueError(f"{path}: {what} at byte {off} runs past the end of the file ({len(raw)} bytes)")
        off += size
        return view[off - size : off]

    (count,) = struct.unpack("<I", take(4, "tensor count"))
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        name_off = off
        (nlen,) = struct.unpack("<H", take(2, "name length"))
        name = str(take(nlen, "name"), "utf-8")
        if name in tensors:
            raise ValueError(f"{path}: duplicate tensor name {name!r} at byte {name_off}")
        (rank,) = struct.unpack("<B", take(1, "rank"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, f"shape of {name!r}"))
        data = take(8 * math.prod(dims), f"data of {name!r}")
        tensors[name] = np.frombuffer(data, dtype="<f8").reshape(dims).copy()
    if off != len(raw):
        raise ValueError(f"{path}: {len(raw) - off} trailing bytes at byte {off}")
    return tensors


@dataclass
class Checkpoint:
    tensors: dict[str, np.ndarray]
    config: dict
    epoch: int

    def save(self, path: str | Path) -> None:
        path = Path(path)
        payload = dict(self.tensors)
        payload["meta/epoch"] = np.array([float(self.epoch)])
        write_tensors(path, payload)
        sidecar = path.with_name(path.name + ".config.json")
        tmp = sidecar.with_name(sidecar.name + ".tmp")
        tmp.write_text(json.dumps(self.config, sort_keys=True, indent=2) + "\n")
        os.replace(tmp, sidecar)

    @classmethod
    def load(cls, path: str | Path) -> "Checkpoint":
        path = Path(path)
        payload = read_tensors(path)
        epoch = int(payload.pop("meta/epoch", np.array([0.0]))[0])
        sidecar = path.with_name(path.name + ".config.json")
        config = json.loads(sidecar.read_text()) if sidecar.exists() else {}
        return cls(tensors=payload, config=config, epoch=epoch)


# ---------------------------------------------------------------------------
# training loop


def _random_groups(n: int, batch_size: int, rng: np.random.Generator) -> list[list[int]]:
    order = rng.permutation(n)
    groups = [list(map(int, order[i : i + batch_size])) for i in range(0, n, batch_size)]
    if len(groups) > 1 and len(groups[-1]) == 1:
        groups[-2].extend(groups.pop())
    return groups


def train(
    dataset: mining.Dataset,
    config: TrainConfig,
    log_path: str | Path | None = None,
) -> tuple[Checkpoint, list[dict]]:
    """Run the optimization loop; returns the final checkpoint and the
    per-epoch loss log (also written as JSONL when log_path is given)."""
    rng = np.random.default_rng(config.seed)
    model = init_model(rng, config)
    params = model.named_tensors()
    state = init_adam(params)
    loss_cfg = config.loss_config()

    q_texts = [q.text for q in dataset.queries]
    positives_list = [q.positives for q in dataset.queries]
    label_ids = [l.id for l in dataset.labels]
    label_texts = [l.text for l in dataset.labels]

    groups: list[list[int]] = []
    pools: list[list[int]] = []
    log: list[dict] = []
    step_index = 0
    for epoch in range(config.epochs):
        if epoch % config.refresh_cadence == 0:
            q_embs = encode_matrix(model.enc, q_texts)
            if config.sampler == "cluster":
                groups = mining.cluster_batches(q_embs, config.batch_size, seed=int(rng.integers(2**31)))
            else:
                l_embs = encode_matrix(model.enc, label_texts)
                pools = mining.ance_pool(q_embs, l_embs, label_ids, positives_list, config.pool_size)
                groups = _random_groups(len(dataset.queries), config.batch_size, rng)

        sampled_pos = mining.sample_positives(dataset, rng)
        sums = {"base": 0.0, "tcm": 0.0, "xe_ql": 0.0, "xe_qb": 0.0, "total": 0.0}
        for group in groups:
            qids = [dataset.queries[i].id for i in group]
            pos = {qid: sampled_pos[qid] for qid in qids}
            batch = mining.Batch(query_ids=qids, pos_label_ids=pos, neg_pools={})
            if config.sampler == "cluster":
                negs = mining.in_batch_negatives(batch, dataset)
                batch.neg_pools = {qid: tuple(negs[qid]) for qid in qids}
            else:
                batch.neg_pools = {qid: tuple(pools[i]) for qid, i in zip(qids, group)}
                batch.base_neg_ids = {
                    qid: [pool[rng.integers(len(pool))]] if (pool := list(batch.neg_pools[qid])) else []
                    for qid in qids
                }

            for p in params.values():
                p.grad = None
            tape = dm.GradTape()
            total, breakdown, _ = total_loss(
                tape, dataset, batch, model.enc, model.head_ql, model.head_qb,
                model.block, loss_cfg, rng=rng, training=True,
            )
            if not np.isfinite(breakdown.total):
                raise NonFiniteLoss(f"non-finite loss at step {step_index}")
            tape.backward(total)
            update_step(params, state, config.learning_rate)
            step_index += 1
            for key, val in breakdown.as_dict().items():
                sums[key] += val

        n = len(groups)
        entry = {"epoch": epoch, **{k: v / n for k, v in sums.items()}}
        log.append(entry)

    if log_path is not None:
        log_path = Path(log_path)
        tmp = log_path.with_name(log_path.name + ".tmp")
        tmp.write_text("".join(json.dumps(e, sort_keys=True) + "\n" for e in log))
        os.replace(tmp, log_path)

    tensors = {name: np.array(p.data) for name, p in params.items()}
    for name in params:
        tensors[f"opt/m/{name}"] = np.array(state.m[name])
        tensors[f"opt/v/{name}"] = np.array(state.v[name])
    tensors["opt/step"] = np.array([float(state.step)])
    ckpt = Checkpoint(tensors=tensors, config=asdict(config), epoch=config.epochs)
    return ckpt, log
