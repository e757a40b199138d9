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
from .encoder import EncoderParams, encode_matrix
from .losses import LossBreakdown, LossConfig, MlpHead, TcmConfig, total_loss
from .pair_reps import BlockContextParams

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

    @staticmethod
    def layout(dim: int, dim_hidden: int, num_buckets: int) -> dm.Layout:
        """Every part's layout at the given sizes, under checkpoint names, in checkpoint order."""
        width = 4 * dim
        parts = {"encoder": EncoderParams.layout(dim, dim_hidden, num_buckets), "head_ql": MlpHead.layout(width),
                 "head_qb": MlpHead.layout(4 * width), "block": BlockContextParams.layout(width)}
        return {f"{prefix}/{name}": entry for prefix, part in parts.items() for name, entry in part.items()}

    def named_tensors(self) -> dict[str, dm.Tensor]:
        """Every parameter under its checkpoint name, in checkpoint order."""
        return {f"{prefix}/{name}": getattr(getattr(self, attr), name)
                for attr, prefix, _, names in _PARTS for name in names}


# (attribute, checkpoint prefix, class, field names) of each ModelParams part, every field a
# tensor. Names follow field order, the order of each part's layout and of a checkpoint.
_PARTS = [
    (attr, "encoder" if attr == "enc" else attr, cls, [f.name for f in fields(cls)])
    for attr, cls in typing.get_type_hints(ModelParams).items()
]


def _assemble(tensors: dict[str, dm.Tensor]) -> ModelParams:
    return ModelParams(**{attr: cls(**{name: tensors[f"{prefix}/{name}"] for name in names})
                          for attr, prefix, cls, names in _PARTS})


def init_model(rng: np.random.Generator, config: TrainConfig) -> ModelParams:
    """A model drawn from rng, tensor by tensor in checkpoint order."""
    return _assemble(dm.init_tensors(rng, ModelParams.layout(config.dim, config.dim_hidden, config.num_buckets)))


def model_from_tensors(tensors: dict[str, np.ndarray], path: str | Path | None = None) -> ModelParams:
    """The model held by a checkpoint's tensors, read from ``path``, which
    the errors name. Every model tensor must be there; the encoder's must
    pass EncoderParams' checks; then every one must have the shape that
    ModelParams.layout gives at the encoder's sizes, and finite values."""
    where = path or "checkpoint"
    try:
        model = _assemble({name: dm.Tensor(arr) for name, arr in tensors.items()})
    except KeyError as e:  # str() quotes the name
        raise ValueError(f"{where}: no model tensor {e}") from None
    except ValueError as e:  # the encoder's own shape check, which names the field
        raise ValueError(f"{where}: encoder/{e}") from None
    (num_buckets, dim_hidden), dim = model.enc.bucket_table.shape, model.enc.dim
    for name, (_, shape) in ModelParams.layout(dim, dim_hidden, num_buckets).items():
        arr = tensors[name]
        if arr.shape != shape:
            raise ValueError(f"{where}: {name} has shape {arr.shape}, need {shape}")
        if not np.isfinite(arr).all():
            at = np.flatnonzero(~np.isfinite(arr))[0]
            raise ValueError(f"{where}: {name} holds {arr.flat[at]} at flat index {at}, need finite values")
    return model


# ---------------------------------------------------------------------------
# optimizer


# Elements per block of the Adam update: 32k float64 values are 256 KB per
# array, so a block's slice of a parameter, its gradient, its moments and
# two temporaries stay in the L2 cache while its thirteen passes run.
ADAM_BLOCK = 32768
# update_step's b1, b2 and eps
ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam's first and second moments by checkpoint name, and its step
    count. ``touched`` names every tensor that had a gradient at some step:
    only those are read or written. An untouched tensor's moments are a
    read-only zero view, which holds no memory; its first gradient gives
    it zeroed arrays of its own, shaped like the parameter and in its row
    order.

    ``high`` holds each touched tensor's high-water mark, in elements: the
    end of the highest row its gradient's record has ever held, or the
    whole tensor once a gradient came without a record (see
    Tensor.grad_rows). Every gradient so far has held +0.0 past the mark,
    so the moments there are zero, unwritten (their pages need not be
    touched), and the update is zero to the bit. ``scratch`` holds a
    block's two temporaries, or the gradient rows that update_step
    gathers for its checks, reused by every step."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    touched: set = field(default_factory=set)
    high: dict[str, int] = field(default_factory=dict)
    scratch: np.ndarray = field(default_factory=lambda: np.empty((2, ADAM_BLOCK)), repr=False, compare=False)


def init_adam(params: dict[str, dm.Tensor]) -> AdamState:
    """Zero moments for every parameter, as read-only views until its first
    gradient. Each parameter's data becomes its own C-ordered copy, which
    the update writes through a flat view, so the caller's arrays (a loaded
    checkpoint's, say) are never written."""
    for p in params.values():
        p.data = np.array(p.data, order="C")
    return AdamState(m={name: np.broadcast_to(0.0, p.data.shape) for name, p in params.items()},
                     v={name: np.broadcast_to(0.0, p.data.shape) for name, p in params.items()})


def _finite(g: np.ndarray, rows: np.ndarray | None, tmp: np.ndarray) -> bool:
    """Whether every value of g is finite, read without a g-sized
    temporary: min and max are NaN if any value is. Given ``rows``, outside
    which g holds +0.0, only those rows are read, gathered into the
    scratch tmp in blocks, if a row fits in it."""
    width = math.prod(g.shape[1:])
    if rows is not None and 0 < width <= tmp.size:
        g, per = g.reshape(len(g), -1), tmp.size // width
        for lo in range(0, len(rows), per):
            idx = rows[lo : lo + per]
            block = tmp.reshape(-1)[: idx.size * width].reshape(idx.size, width)
            np.take(g, idx, axis=0, out=block, mode="clip")  # idx is in range; "clip" writes out unbuffered
            if not _finite(block, None, tmp):
                return False
        return True
    return g.size == 0 or math.isfinite(g.min()) and math.isfinite(g.max())


def _adam_block(g, m, v, p, update, denom, lr: float, t: int) -> None:
    """Adam's update of one block, in place on m, v and p, with update and
    denom as temporaries; all six arrays have one shape."""
    m *= ADAM_B1
    np.multiply(g, 1 - ADAM_B1, out=update)
    m += update
    v *= ADAM_B2
    np.multiply(g, 1 - ADAM_B2, out=denom)
    denom *= g
    v += denom
    np.divide(m, 1 - ADAM_B1**t, out=update)
    update *= lr
    np.divide(v, 1 - ADAM_B2**t, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    update /= denom
    p -= update


def update_step(params: dict[str, dm.Tensor], state: AdamState, lr: float) -> None:
    """Adaptive moment estimation update with bias correction, in place.

    A parameter whose gradient has been zero on every step so far has
    zero moments and a mathematically zero update, so it is skipped. A
    touched parameter without a gradient this step gets its own gradient
    buffer (Tensor.zeroed_buffer), filled with zeros. Each touched tensor
    first raises its high-water mark (see AdamState) to its gradient's
    record, then the elements before the mark are updated, in their row
    order, in blocks of ADAM_BLOCK elements; past it the update is zero to
    the bit, so it is not run. So a table whose rows are used in order, as
    train holds the bucket table (see BucketOrder), is updated in one
    dense prefix of its rows. Every element is updated by the
    operations, in the order, of
    m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
    p = p - lr*(m/(1-b1**t)) / (sqrt(v/(1-b2**t)) + eps),
    so the result does not depend on the block size or the mark.
    Gradients are left for the caller to read, until the next step's
    backward pass reuses the buffers. Nothing tensor-sized is allocated
    except a tensor's moments, at its first gradient.

    Every gradient is checked first, in checkpoint order: a wrong shape
    raises ShapeMismatch, a NaN or infinite value NonFiniteGradient naming
    the tensor. Either leaves every parameter, moment and high-water mark
    unwritten and the step uncounted. A gradient whose buffer records the
    rows it may hold nonzero (Tensor.grad_rows), as the bucket table's
    does, is checked in those rows only, gathered into scratch in blocks.
    """
    grads = {}
    for name, p in params.items():
        if p.grad is None:
            if name not in state.touched:
                continue
            p.grad = p.zeroed_buffer()
        elif np.shape(p.grad) != p.data.shape:
            raise ShapeMismatch(f"{name}: grad {np.shape(p.grad)} vs param {p.data.shape}")
        elif not _finite(p.grad, p.grad_rows(), state.scratch):
            raise dm.NonFiniteGradient(f"non-finite gradient of {name} at step {state.step}")
        grads[name] = p.grad
    state.step += 1
    t = state.step
    for name, g in grads.items():
        if name not in state.touched:  # moments of its own
            state.touched.add(name)
            state.m[name], state.v[name] = np.zeros(g.shape), np.zeros(g.shape)
        rows = params[name].grad_rows()  # None: any row may hold a nonzero
        mark = g.size if rows is None else (int(rows.max(initial=-1)) + 1) * (g.size // len(g))
        state.high[name] = high = max(state.high.get(name, 0), mark)
        flat = [np.ravel(a) for a in (g, state.m[name], state.v[name], params[name].data)]
        for lo in range(0, high, ADAM_BLOCK):
            hi = min(lo + ADAM_BLOCK, high)
            _adam_block(*(a[lo:hi] for a in flat), *state.scratch[:2, : hi - lo], lr, t)


class BucketOrder:
    """The encoder's bucket table in first-use order, as train holds it:
    ``row[b]`` is the table row that holds bucket b, ``bucket`` is its
    inverse, and rows [0, used) hold exactly the buckets read so far, in
    the order they were first read (those of one step in ascending order).
    Each row past used holds a bucket no step has read, with its initial
    values, a +0.0 gradient and zero moments. So the table's gradient
    record, and Adam's high-water mark of the table, never pass used, and
    update_step updates one dense prefix of its rows.

    The order moves no bit of training: a bucket's values, gradient and
    moments move with it (only rows whose gradient and moments are zero
    ever move, so only values do), and every sum over buckets adds the
    same values in the same order wherever their rows are. Rows move
    through the table's gradient buffer, whose last gradient no one reads
    by then, and which holds +0.0 again where they passed."""

    def __init__(self, table: dm.Tensor) -> None:
        """The order of a table in bucket order."""
        self.table = table
        self.row = np.arange(len(table.data))
        self.bucket = np.arange(len(table.data))
        self.used = 0

    def rows(self, ids: np.ndarray) -> np.ndarray:
        """The table rows of the bucket ids, written over ids, once the
        buckets of ids read for the first time have moved, in ascending
        order, into the rows just past used; the unread buckets they
        displace there take the rows they left."""
        fresh = np.zeros(len(self.row), dtype=bool)
        fresh[ids] = True
        fresh &= self.row >= self.used  # read for the first time
        new = np.flatnonzero(fresh)
        if new.size:
            old, to = self.row[new], np.arange(self.used, self.used + new.size)
            # the rows of the unread buckets the new ones displace, and the rows past `to` they leave
            displaced, left = to[~fresh[self.bucket[to]]], old[old >= self.used + new.size]
            src, dst = np.concatenate((old, displaced)), np.concatenate((to, left))
            self._move(src, dst)
            self.bucket[dst] = self.bucket[src]
            self.row[self.bucket[dst]] = dst
            self.used += new.size
        # "clip" writes over ids unbuffered, reading each id before its slot is written
        return np.take(self.row, ids, out=ids, mode="clip")

    def restore(self) -> None:
        """Put the table back into bucket order, in place: the last call."""
        self._move(self.row, np.arange(len(self.row)))

    def _move(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Table rows src to rows dst, gathered into the gradient buffer's
        first rows, which then hold +0.0."""
        data = self.table.data
        out = self.table.buffer().reshape(-1)[: src.size * data.shape[1]].reshape(src.size, -1)
        data[dst] = np.take(data, src, axis=0, out=out, mode="clip")  # "clip" writes out unbuffered
        out.fill(0.0)


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


def _whole_epoch(path: Path, epoch: np.ndarray) -> int:
    """The epoch a meta/epoch array holds: one finite whole number >= 0, else ValueError naming ``path``."""
    if epoch.shape != (1,) or not (0 <= epoch[0] < math.inf and epoch[0] % 1 == 0):
        got = epoch[0] if epoch.shape == (1,) else f"shape {epoch.shape}"
        raise ValueError(f"{path}: meta/epoch must be one finite whole number >= 0, got {got}")
    return int(epoch[0])


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
        _whole_epoch(path, payload["meta/epoch"])  # write nothing that load rejects
        write_tensors(path, payload)
        sidecar = path.with_name(path.name + ".config.json")
        write_atomic(sidecar, json.dumps(self.config, sort_keys=True, indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Checkpoint":
        """Read a checkpoint and its config sidecar, if there is one. Its
        meta/epoch, if present, holds one whole number >= 0. The sidecar
        must be a JSON object whose dim, dim_hidden and num_buckets,
        where present, are integers; with all three, every model tensor
        present must have the shape ModelParams.layout gives at them."""
        path = Path(path)
        payload = read_tensors(path)
        epoch = _whole_epoch(path, payload.pop("meta/epoch", np.array([0.0])))
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
            layout = ModelParams.layout(config["dim"], config["dim_hidden"], config["num_buckets"])
            for name, (_, shape) in layout.items():
                if name in payload and payload[name].shape != shape:
                    raise ValueError(f"{path}: {name} has shape {payload[name].shape}, "
                                     f"expected {shape} from {sidecar.name}")
        return cls(tensors=payload, config=config, epoch=epoch, path=path)


# ---------------------------------------------------------------------------
# training loop


def _refresh(enc: EncoderParams, order: BucketOrder, dataset: mining.Dataset, config: TrainConfig,
             rng: np.random.Generator) -> tuple[list[list[int]], list[list[int]] | None]:
    """An epoch's groups, and its pools (None for the cluster sampler),
    under the current encoder, whose table is in ``order``."""
    q_embs = encode_matrix(enc, [q.text for q in dataset.queries], order.row)
    if config.sampler == "cluster":
        return mining.cluster_batches(q_embs, config.batch_size, seed=int(rng.integers(2**31))), None
    l_embs = encode_matrix(enc, [l.text for l in dataset.labels], order.row)
    positives = [q.positives for q in dataset.queries]
    pools = mining.ance_pool(q_embs, l_embs, [l.id for l in dataset.labels], positives, config.pool_size)
    return mining.random_groups(len(dataset.queries), config.batch_size, rng), pools


def _step(dataset: mining.Dataset, batch: mining.Batch, model: ModelParams, params: dict[str, dm.Tensor],
          state: AdamState, order: BucketOrder, loss_cfg: LossConfig, lr: float,
          rng: np.random.Generator) -> LossBreakdown:
    """One training step on a batch: the objective on a fresh tape, with
    the table in ``order``, its backward pass and one Adam update. Returns
    the loss breakdown. The step's graph lives in this call's locals, so it
    is freed when the call returns, before the next step's forward pass
    builds another."""
    for p in params.values():
        p.grad = None
    tape = dm.GradTape()
    total, breakdown, _ = total_loss(
        tape, dataset, batch, model.enc, model.head_ql, model.head_qb, model.block, loss_cfg, rng=rng,
        rows=order.rows,
    )
    if not np.isfinite(breakdown.total):
        raise NonFiniteLoss(f"non-finite loss at step {state.step}")
    tape.backward(total)
    update_step(params, state, lr)
    return breakdown


def train(
    dataset: mining.Dataset,
    config: TrainConfig,
    log_path: str | Path | None = None,
) -> tuple[Checkpoint, list[dict]]:
    """Run the optimization loop; returns the final checkpoint and the
    per-epoch loss log (also written as JSONL when log_path is given).

    While it runs, the bucket table is held in first-use order (see
    BucketOrder), so Adam updates one dense prefix of its rows; it is put
    back into bucket order, in place, before the checkpoint takes it."""
    rng = np.random.default_rng(config.seed)
    model = init_model(rng, config)
    params = model.named_tensors()
    state = init_adam(params)
    order = BucketOrder(model.enc.bucket_table)
    loss_cfg = config.loss_config()

    log: list[dict] = []
    for epoch in range(config.epochs):
        if epoch % config.refresh_cadence == 0:
            groups, pools = _refresh(model.enc, order, dataset, config, rng)

        sampled_pos = mining.sample_positives(dataset, rng)
        sums = {"base": 0.0, "tcm": 0.0, "xe_ql": 0.0, "xe_qb": 0.0, "total": 0.0}
        for group in groups:
            batch = mining.make_batch(dataset, group, sampled_pos, pools, rng)
            breakdown = _step(dataset, batch, model, params, state, order, loss_cfg, config.learning_rate, rng)
            for key, val in asdict(breakdown).items():
                sums[key] += val

        log.append({"epoch": epoch, **{k: v / len(groups) for k, v in sums.items()}})

    if log_path is not None:
        write_atomic(log_path, "".join(json.dumps(e, sort_keys=True) + "\n" for e in log))

    order.restore()
    tensors = {name: p.data for name, p in params.items()}
    ckpt = Checkpoint(tensors=tensors, config=asdict(config), epoch=config.epochs)
    return ckpt, log
