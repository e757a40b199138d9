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
# The share of a partly-live tensor's rows at which it goes back to row
# order and the dense loop. On a 4,096 x 64 table whose step gives 10% of
# its rows a gradient (one pinned CPU, median of 400 alternated steps, two
# runs), the live-row update took 0.59x the dense time at 35% live rows,
# 0.71x at 46%, 0.89-0.90x at 60%, 0.98-0.99x at 65%, 0.97-0.98x at 70%,
# 1.05-1.06x at 75% and 1.30-1.35x at 100%.
ADAM_DENSE_AT = 0.7


@dataclass
class LiveRows:
    """The live rows of a partly-live tensor, those whose gradient has been
    nonzero at some step: ``order`` lists them in the order they first
    were (the rows of one step in ascending order), and ``mask`` is True
    at each of them."""

    order: np.ndarray
    mask: np.ndarray


@dataclass
class AdamState:
    """Adam's first and second moments by checkpoint name, and its step
    count. ``touched`` names every tensor that had a gradient at some step:
    only those are read or written. An untouched tensor's moments are a
    read-only zero view, which holds no memory; its first gradient gives
    it zeroed arrays of its own, shaped like the parameter.

    A touched tensor of rank 2 or more whose rows each fit in half a
    block of ADAM_BLOCK elements is partly live while its live rows (see
    LiveRows) are fewer than ADAM_DENSE_AT of its rows; ``live`` holds its
    LiveRows. Its m and v are compact, shaped like the parameter but not in row
    order: row i holds the moments of row ``live[name].order[i]``, and the
    rows past the live count hold zeros, unwritten (so their pages need
    not be touched) until rows that become live take them. A row that has
    never been live has zero moments, stored nowhere. So a saved run state
    must keep ``live`` with the moments, to read them. Every other touched
    tensor is dense, its moments in row order; a partly-live tensor whose
    live rows reach ADAM_DENSE_AT goes back to row order once, and leaves
    ``live``. ``scratch`` holds a block's two temporaries or, on the
    live-row path, a half-sized block's two temporaries and its gathered
    gradient and parameter rows, or the gradient rows that update_step
    reads for its checks, reused by every step."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    touched: set = field(default_factory=set)
    live: dict[str, LiveRows] = field(default_factory=dict)
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
    which g holds +0.0, only those rows are read (see _gathered), if a row
    fits in tmp."""
    if rows is not None and 0 < math.prod(g.shape[1:]) <= tmp.size:
        return all(_finite(block, None, tmp) for _, block in _gathered(g, rows, tmp))
    return g.size == 0 or math.isfinite(g.min()) and math.isfinite(g.max())


def _gathered(g: np.ndarray, rows: np.ndarray, tmp: np.ndarray):
    """(idx, g's rows idx) for successive blocks idx of rows, each block of
    g's rows gathered into the scratch tmp, which must hold one row."""
    g = g.reshape(len(g), -1)
    per = tmp.size // g.shape[1]
    for lo in range(0, len(rows), per):
        idx = rows[lo : lo + per]
        out = tmp.reshape(-1)[: idx.size * g.shape[1]].reshape(idx.size, -1)
        yield idx, np.take(g, idx, axis=0, out=out, mode="clip")  # idx is in range; "clip" writes out unbuffered


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


def _add_live_rows(live: LiveRows, g: np.ndarray, rows: np.ndarray | None, tmp: np.ndarray) -> None:
    """Append the rows of finite g that are nonzero for the first time to
    live, in ascending order. Only rows not live yet are read, and given
    ``rows``, outside which g holds +0.0, only those of them, gathered
    into the scratch tmp (see _gathered). A finite value is nonzero when a
    bit other than its sign is set, so -0.0 is zero: a row is nonzero when
    the OR of its values' bits, shifted left by one to drop the sign, is
    not zero."""
    rows = np.flatnonzero(~live.mask) if rows is None else rows[~live.mask[rows]]
    for idx, block in _gathered(g, rows, tmp):
        bits = np.bitwise_or.reduce(block.view(np.uint64), axis=1)
        new = idx[np.left_shift(bits, 1, out=bits) != 0]
        if new.size:
            live.mask[new] = True
            live.order = np.concatenate((live.order, new))


def update_step(params: dict[str, dm.Tensor], state: AdamState, lr: float) -> None:
    """Adaptive moment estimation update with bias correction, in place.

    A parameter whose gradient has been zero on every step so far has
    zero moments and a mathematically zero update, so it is skipped; so is
    a row of a partly-live tensor (see AdamState) that has never had a
    nonzero gradient, whose update is zero to the bit. A touched parameter
    without a gradient this step gets its own gradient buffer
    (Tensor.zeroed_buffer), filled with zeros. A dense tensor is updated in
    blocks of ADAM_BLOCK elements. A partly-live tensor first appends the
    rows that are nonzero for the first time to its live rows; then its
    live rows are updated in that order, in blocks of
    ADAM_BLOCK // (2 * width) rows, each block's gradient and parameter
    rows gathered into scratch and the parameter rows written back. Every element is
    updated by the operations, in the order, of
    m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
    p = p - lr*(m/(1-b1**t)) / (sqrt(v/(1-b2**t)) + eps),
    so the result does not depend on the block size or the path. Gradients
    are left for the caller to read, until the next step's backward pass
    reuses the buffers. Nothing tensor-sized is allocated except a
    tensor's moments, at its first gradient and when it goes back to row
    order.

    Every gradient is checked first, in checkpoint order: a wrong shape
    raises ShapeMismatch, a NaN or infinite value NonFiniteGradient naming
    the tensor. Either leaves every parameter, moment and live row
    unwritten and the step uncounted. A gradient whose buffer records the
    rows it may hold nonzero (Tensor.grad_rows), as the bucket table's
    does, is checked and scanned for new live rows in those rows only,
    gathered into scratch in blocks.
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
        first = name not in state.touched
        if first:  # moments of its own
            state.touched.add(name)
            state.m[name], state.v[name] = np.zeros(g.shape), np.zeros(g.shape)
            if g.ndim >= 2 and 0 < 2 * g[0].size <= ADAM_BLOCK:  # rows that fit in a live-row block
                state.live[name] = LiveRows(np.empty(0, dtype=np.intp), np.zeros(len(g), dtype=bool))
        rows = state.live.get(name)
        if rows is not None:
            _add_live_rows(rows, g, params[name].grad_rows(), state.scratch)
            if len(rows.order) >= ADAM_DENSE_AT * len(g):
                del state.live[name]
                if not first:  # the first gradient's moments are zero in any order
                    for moments in (state.m, state.v):
                        compact, moments[name] = moments[name], np.zeros(g.shape)
                        moments[name].reshape(len(g), -1)[rows.order] = compact.reshape(len(g), -1)[: len(rows.order)]
                rows = None
        if rows is None:
            _update_dense(g, params[name].data, state.m[name], state.v[name], state.scratch, lr, t)
        else:
            _update_rows(g, params[name].data, state.m[name], state.v[name], rows.order, state.scratch, lr, t)


def _update_dense(g, data, m, v, tmp: np.ndarray, lr: float, t: int) -> None:
    """Adam's update of a dense tensor, in blocks of ADAM_BLOCK elements."""
    g, data, m, v = (np.ravel(a) for a in (g, data, m, v))
    for lo in range(0, g.size, ADAM_BLOCK):
        hi = min(lo + ADAM_BLOCK, g.size)
        _adam_block(g[lo:hi], m[lo:hi], v[lo:hi], data[lo:hi], *tmp[:2, : hi - lo], lr, t)


def _update_rows(g, data, m, v, order: np.ndarray, tmp: np.ndarray, lr: float, t: int) -> None:
    """Adam's update of a partly-live tensor's live rows, ``order``, whose
    moments are compact, in blocks of ADAM_BLOCK // (2 * width) rows: a
    block's two temporaries and its gathered gradient and parameter rows
    share the dense loop's scratch."""
    g, data, m, v = (a.reshape(len(a), -1) for a in (g, data, m, v))
    width = g.shape[1]
    per = ADAM_BLOCK // (2 * width)
    tmp = tmp.reshape(-1)
    for lo in range(0, len(order), per):
        idx = order[lo : lo + per]
        update, denom, gb, pb = tmp[: 4 * len(idx) * width].reshape(4, len(idx), width)
        np.take(g, idx, axis=0, out=gb, mode="clip")  # idx is in range; "clip" writes out unbuffered
        np.take(data, idx, axis=0, out=pb, mode="clip")
        _adam_block(gb, m[lo : lo + len(idx)], v[lo : lo + len(idx)], pb, update, denom, lr, t)
        data[idx] = pb


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


def _refresh(enc: EncoderParams, dataset: mining.Dataset, config: TrainConfig,
             rng: np.random.Generator) -> tuple[list[list[int]], list[list[int]] | None]:
    """An epoch's groups, and its pools (None for the cluster sampler), under the current encoder."""
    q_embs = encode_matrix(enc, [q.text for q in dataset.queries])
    if config.sampler == "cluster":
        return mining.cluster_batches(q_embs, config.batch_size, seed=int(rng.integers(2**31))), None
    l_embs = encode_matrix(enc, [l.text for l in dataset.labels])
    positives = [q.positives for q in dataset.queries]
    pools = mining.ance_pool(q_embs, l_embs, [l.id for l in dataset.labels], positives, config.pool_size)
    return mining.random_groups(len(dataset.queries), config.batch_size, rng), pools


def _step(dataset: mining.Dataset, batch: mining.Batch, model: ModelParams, params: dict[str, dm.Tensor],
          state: AdamState, loss_cfg: LossConfig, lr: float, rng: np.random.Generator) -> LossBreakdown:
    """One training step on a batch: the objective on a fresh tape, its
    backward pass and one Adam update. Returns the loss breakdown. The
    step's graph lives in this call's locals, so it is freed when the call
    returns, before the next step's forward pass builds another."""
    for p in params.values():
        p.grad = None
    tape = dm.GradTape()
    total, breakdown, _ = total_loss(
        tape, dataset, batch, model.enc, model.head_ql, model.head_qb, model.block, loss_cfg, rng=rng
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
    per-epoch loss log (also written as JSONL when log_path is given)."""
    rng = np.random.default_rng(config.seed)
    model = init_model(rng, config)
    params = model.named_tensors()
    state = init_adam(params)
    loss_cfg = config.loss_config()

    log: list[dict] = []
    for epoch in range(config.epochs):
        if epoch % config.refresh_cadence == 0:
            groups, pools = _refresh(model.enc, dataset, config, rng)

        sampled_pos = mining.sample_positives(dataset, rng)
        sums = {"base": 0.0, "tcm": 0.0, "xe_ql": 0.0, "xe_qb": 0.0, "total": 0.0}
        for group in groups:
            batch = mining.make_batch(dataset, group, sampled_pos, pools, rng)
            breakdown = _step(dataset, batch, model, params, state, loss_cfg, config.learning_rate, rng)
            for key, val in asdict(breakdown).items():
                sums[key] += val

        log.append({"epoch": epoch, **{k: v / len(groups) for k, v in sums.items()}})

    if log_path is not None:
        write_atomic(log_path, "".join(json.dumps(e, sort_keys=True) + "\n" for e in log))

    tensors = {name: p.data for name, p in params.items()}
    ckpt = Checkpoint(tensors=tensors, config=asdict(config), epoch=config.epochs)
    return ckpt, log
