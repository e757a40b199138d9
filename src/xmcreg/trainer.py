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
from .data_io import write_atomic
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
    dim: int = 32
    dim_hidden: int = 64
    num_buckets: int = 4096
    dropout: float = 0.1

    def __post_init__(self) -> None:
        # (field, holds, rule); written so that a NaN fails its rule
        for name, holds, rule in (
            ("epochs", self.epochs >= 1, ">= 1"),
            ("batch_size", self.batch_size >= 2, ">= 2"),
            ("k", self.k >= 2, ">= 2"),
            ("learning_rate", self.learning_rate > 0, "> 0"),
            ("learning_rate", math.isfinite(self.learning_rate), "finite"),
            ("beta1", 0 <= self.beta1 < math.inf, "finite and >= 0"),
            ("beta2", 0 <= self.beta2 < math.inf, "finite and >= 0"),
            ("triplet_margin", math.isfinite(self.triplet_margin), "finite"),
            ("seed", self.seed >= 0, ">= 0"),
            ("sampler", self.sampler in ("cluster", "ance"), "'cluster' or 'ance'"),
            ("refresh_cadence", self.refresh_cadence >= 1, ">= 1"),
            ("pool_size", self.sampler != "ance" or self.pool_size >= 1, ">= 1 with the ance sampler"),
            ("dropout", 0 <= self.dropout < 1, "in [0, 1)"),
            ("m_minus", not self.tcm_enabled or self.m_minus >= -1, ">= -1 with tcm_enabled"),
            ("m_plus", not self.tcm_enabled or self.m_minus < self.m_plus <= 1, "in (m_minus, 1] with tcm_enabled"),
            ("dim", self.dim >= 2, ">= 2"),
            ("dim_hidden", self.dim_hidden >= 1, ">= 1"),
            ("num_buckets", self.num_buckets >= 1024, ">= 1024"),
        ):
            if not holds:
                raise ValueError(f"invalid training configuration: {name} must be {rule}, got {getattr(self, name)!r}")

    def loss_config(self) -> LossConfig:
        return LossConfig(
            beta1=self.beta1,
            beta2=self.beta2,
            tcm=TcmConfig(self.m_plus, self.m_minus) if self.tcm_enabled else None,
            triplet_margin=self.triplet_margin,
            k=self.k,
            dropout=self.dropout,
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


# (attribute, checkpoint prefix, class, field names) of each ModelParams
# part; every field of a part is a tensor. Names follow field order, which
# fixes the order of tensors in a checkpoint.
_LAYOUT = [
    (attr, "encoder" if attr == "enc" else attr, cls, [f.name for f in fields(cls)])
    for attr, cls in typing.get_type_hints(ModelParams).items()
]


def init_model(rng: np.random.Generator, config: TrainConfig) -> ModelParams:
    enc = init_encoder(rng, d=config.dim, d_in=config.dim_hidden, num_buckets=config.num_buckets)
    width = 4 * config.dim
    head_ql = init_head(rng, width)
    head_qb = init_head(rng, 4 * width)
    block = init_block(rng, width)
    return ModelParams(enc=enc, head_ql=head_ql, head_qb=head_qb, block=block)


def model_from_tensors(tensors: dict[str, np.ndarray], path: str | Path | None = None) -> ModelParams:
    """The model held by a checkpoint's tensors (read from ``path``, which a
    missing tensor's error names)."""
    for attr, prefix, cls, names in _LAYOUT:
        for name in names:
            if f"{prefix}/{name}" not in tensors:
                raise ValueError(f"{path or 'checkpoint'}: no model tensor '{prefix}/{name}'")
    return ModelParams(**{
        attr: cls(**{name: dm.Tensor(tensors[f"{prefix}/{name}"]) for name in names})
        for attr, prefix, cls, names in _LAYOUT
    })


# ---------------------------------------------------------------------------
# optimizer


# Elements per block of the Adam update: 32k float64 values are 256 KB per
# arena slice, so a block's parameters, gradients, moments and two
# temporaries stay in the L2 cache while its thirteen passes run.
ADAM_BLOCK = 32768
# update_step's b1, b2 and eps
ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam's moments and the flat float64 arenas behind them.

    ``arena`` rows hold the parameters, gradients, m and v, tensor after
    tensor in checkpoint order; ``spans`` gives each tensor's [start, stop)
    there. Each tensor's data and grad_view, m[name] and v[name] are views
    of its span. ``touched`` names every tensor that had a gradient at some
    step: only their spans are read or written.
    """

    arena: np.ndarray
    spans: dict[str, tuple[int, int]]
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    touched: set = field(default_factory=set)


def init_adam(params: dict[str, dm.Tensor]) -> AdamState:
    """Move every parameter into the arenas; its data becomes a view there,
    so the caller's arrays (a loaded checkpoint's, say) are never written."""
    arena = np.zeros((4, sum(p.data.size for p in params.values())))
    data, grad, m, v = arena
    state = AdamState(arena=arena, spans={}, m={}, v={})
    start = 0
    for name, p in params.items():
        stop = start + p.data.size
        view = data[start:stop].reshape(p.data.shape)
        view[...] = p.data
        p.data = view
        p.grad_view = grad[start:stop].reshape(p.data.shape)
        state.m[name] = m[start:stop].reshape(p.data.shape)
        state.v[name] = v[start:stop].reshape(p.data.shape)
        state.spans[name] = (start, stop)
        start = stop
    return state


def _collect_gradients(params: dict[str, dm.Tensor], state: AdamState) -> list[list[int]]:
    """Bring this step's gradients into the gradient arena; return the runs
    of adjacent touched tensors as merged arena spans.

    A .grad assigned directly is copied into the tensor's view. A touched
    tensor without a gradient this step gets a zero one there, as Adam
    reads it. A tensor never touched is left out, arena pages included.
    """
    runs: list[list[int]] = []
    for name, p in params.items():
        view = p.grad_view
        if p.grad is None:
            if name not in state.touched:
                continue
            view.fill(0.0)
            p.grad = view
        elif p.grad is not view:
            if np.shape(p.grad) != view.shape:
                raise ShapeMismatch(f"{name}: grad {np.shape(p.grad)} vs param {p.data.shape}")
            np.copyto(view, p.grad)
            p.grad = view
        state.touched.add(name)
        start, stop = state.spans[name]
        if runs and runs[-1][1] == start:
            runs[-1][1] = stop
        else:
            runs.append([start, stop])
    return runs


def update_step(params: dict[str, dm.Tensor], state: AdamState, lr: float) -> None:
    """Adaptive moment estimation update with bias correction, in place.

    A parameter whose gradient has been zero on every step so far has
    zero moments and a mathematically zero update, so it is skipped. The
    others are updated over the arena in blocks of ADAM_BLOCK elements,
    each element by the operations, in the order, of
    m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
    p = p - lr*(m/(1-b1**t)) / (sqrt(v/(1-b2**t)) + eps),
    so the result does not depend on the block size. Gradients are left
    in place for the caller to read.

    A NaN or infinite gradient raises NonFiniteGradient, naming the first
    such tensor in checkpoint order, before any parameter or moment is
    written.
    """
    runs = _collect_gradients(params, state)
    data, grad, m, v = state.arena
    for start, stop in runs:
        finite = np.isfinite(grad[start:stop])
        if not finite.all():
            offset = start + int(np.argmin(finite))
            bad = next(name for name, (lo, hi) in state.spans.items() if lo <= offset < hi)
            raise dm.NonFiniteGradient(f"non-finite gradient of {bad} at step {state.step}")
    state.step += 1
    t = state.step
    tmp = np.empty((2, ADAM_BLOCK))
    for start, stop in runs:
        for lo in range(start, stop, ADAM_BLOCK):
            hi = min(lo + ADAM_BLOCK, stop)
            g, mb, vb = grad[lo:hi], m[lo:hi], v[lo:hi]
            update, denom = tmp[:, : hi - lo]
            mb *= ADAM_B1
            np.multiply(g, 1 - ADAM_B1, out=update)
            mb += update
            vb *= ADAM_B2
            np.multiply(g, 1 - ADAM_B2, out=denom)
            denom *= g
            vb += denom
            np.divide(mb, 1 - ADAM_B1**t, out=update)
            update *= lr
            np.divide(vb, 1 - ADAM_B2**t, out=denom)
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            update /= denom
            data[lo:hi] -= update


# ---------------------------------------------------------------------------
# checkpoint container


def write_tensors(path: str | Path, tensors: dict[str, np.ndarray]) -> None:
    """Atomic write of the named-tensor container (magic 'ALC1'), one
    header and one data chunk per tensor straight into the file."""

    def chunks():
        yield CHECKPOINT_MAGIC + struct.pack("<I", len(tensors))
        for name, arr in tensors.items():
            arr = np.asarray(arr, dtype=np.float64)  # keeps rank 0, unlike ascontiguousarray
            encoded = name.encode("utf-8")
            yield struct.pack(f"<H{len(encoded)}sB{arr.ndim}I", len(encoded), encoded, arr.ndim, *arr.shape)
            yield np.ascontiguousarray(arr, dtype="<f8")  # no copy of a C-ordered float64 array

    write_atomic(path, chunks())


def read_tensors(path: str | Path) -> dict[str, np.ndarray]:
    """Read a container written by write_tensors. A truncated file, trailing
    bytes, a name that is not UTF-8 or repeats, or a rank or size that runs
    past the end of the file is rejected with its byte offset. Each tensor
    is read into its own (aligned) array."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        off = 0

        def advance(n: int, what: str) -> None:
            nonlocal off
            if off + n > size:
                raise ValueError(f"{path}: {what} at byte {off} runs past the end of the file ({size} bytes)")
            off += n

        def take(n: int, what: str) -> bytes:
            advance(n, what)
            return f.read(n)

        magic = take(4, "magic")
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: bad checkpoint magic {magic!r} at byte 0")
        (count,) = struct.unpack("<I", take(4, "tensor count"))
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            name_off = off
            (nlen,) = struct.unpack("<H", take(2, "name length"))
            try:
                name = str(take(nlen, "name"), "utf-8")
            except UnicodeDecodeError as err:
                raise ValueError(f"{path}: tensor name at byte {off - nlen} is not UTF-8: {err.reason}") from None
            if name in tensors:
                raise ValueError(f"{path}: duplicate tensor name {name!r} at byte {name_off}")
            (rank,) = struct.unpack("<B", take(1, "rank"))
            dims = struct.unpack(f"<{rank}I", take(4 * rank, f"shape of {name!r}"))
            # a zero dimension passes the size check whatever the others are
            if 8 * math.prod(d for d in dims if d) > np.iinfo(np.intp).max:
                raise ValueError(f"{path}: shape {dims} of {name!r} at byte {off - 4 * rank} is too large for an array")
            advance(8 * math.prod(dims), f"data of {name!r}")
            arr = tensors[name] = np.empty(dims, dtype="<f8")
            if f.readinto(arr) != arr.nbytes:  # the file shrank while being read
                raise ValueError(f"{path}: data of {name!r} at byte {off - arr.nbytes} runs past the end of the file")
        if off != size:
            raise ValueError(f"{path}: {size - off} trailing bytes at byte {off}")
    return tensors


@dataclass
class Checkpoint:
    tensors: dict[str, np.ndarray]
    config: dict
    epoch: int
    path: Path | None = None  # the file load read it from

    def save(self, path: str | Path) -> None:
        path = Path(path)
        payload = dict(self.tensors)
        payload["meta/epoch"] = np.array([float(self.epoch)])
        write_tensors(path, payload)
        sidecar = path.with_name(path.name + ".config.json")
        write_atomic(sidecar, json.dumps(self.config, sort_keys=True, indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Checkpoint":
        """Read a checkpoint and its config sidecar, if there is one. The
        sidecar must be a JSON object whose dim, dim_hidden and num_buckets,
        where present, are integers; with all three it must agree with the
        shapes of the encoder, head and block tensors."""
        path = Path(path)
        payload = read_tensors(path)
        epoch = int(payload.pop("meta/epoch", np.array([0.0]))[0])
        sidecar = path.with_name(path.name + ".config.json")
        config = {}
        if sidecar.exists():
            try:
                config = json.loads(sidecar.read_text(encoding="utf-8"))
            except ValueError as e:  # not UTF-8, or not JSON
                raise ValueError(f"{sidecar}: not a JSON config: {e}") from None
            if type(config) is not dict:
                raise ValueError(f"{sidecar}: expected a JSON object, got {json.dumps(config)[:40]}")
            for key in ("dim", "dim_hidden", "num_buckets"):
                # type(), not isinstance(): true must not pass as the integer 1
                if key in config and type(config[key]) is not int:
                    raise ValueError(f"{sidecar}: {key!r} must be an integer, got {json.dumps(config[key])}")
        if all(key in config for key in ("dim", "dim_hidden", "num_buckets")):
            d, hidden, width = config["dim"], config["dim_hidden"], 4 * config["dim"]
            expected = {
                "encoder/bucket_table": (config["num_buckets"], hidden),
                "encoder/projection": (hidden, d),
                "head_ql/w1": (width, width),
                "head_qb/w1": (4 * width, 4 * width),
                "block/wq": (width, width),
            }
            for name, shape in expected.items():
                if name in payload and payload[name].shape != shape:
                    raise ValueError(
                        f"{path}: {name} has shape {payload[name].shape}, expected {shape} from {sidecar.name}"
                    )
        return cls(tensors=payload, config=config, epoch=epoch, path=path)


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
                tape, dataset, batch, model.enc, model.head_ql, model.head_qb, model.block, loss_cfg, rng=rng
            )
            if not np.isfinite(breakdown.total):
                raise NonFiniteLoss(f"non-finite loss at step {state.step}")
            tape.backward(total)
            update_step(params, state, config.learning_rate)
            for key, val in asdict(breakdown).items():
                sums[key] += val

        n = len(groups)
        entry = {"epoch": epoch, **{k: v / n for k, v in sums.items()}}
        log.append(entry)

    if log_path is not None:
        write_atomic(log_path, "".join(json.dumps(e, sort_keys=True) + "\n" for e in log))

    tensors = {name: np.array(p.data) for name, p in params.items()}
    for name in params:
        tensors[f"opt/m/{name}"] = np.array(state.m[name])
        tensors[f"opt/v/{name}"] = np.array(state.v[name])
    tensors["opt/step"] = np.array([float(state.step)])
    ckpt = Checkpoint(tensors=tensors, config=asdict(config), epoch=config.epochs)
    return ckpt, log
