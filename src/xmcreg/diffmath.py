"""Float64 vector/matrix kernels with hand-derived backward passes.

Reverse-mode differentiation over a per-step gradient tape. Only the
kernels the training objective needs are implemented; this is deliberately
not a general autodiff system. All kernels are deterministic, and their
forward passes are pure functions over immutable inputs; a backward pass
writes no array but the gradient buffers that leaves own and the arrays
it allocates itself. A kernel whose formula chains several elementwise
operations runs them one by one, in the formula's order, in its own
output, what it keeps for its backward pass and at most one scratch
array, so its result is the formula's bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GELU_C = math.sqrt(2.0 / math.pi)
LAYER_NORM_EPS = 1e-5
GRAD_CHECK_STEP, GRAD_CHECK_ZERO_FLOOR = 1e-5, 1e-7  # see grad_check


class NonFiniteGradient(RuntimeError):
    """Raised when an analytic or finite-difference gradient is NaN/Inf."""


class DimensionMismatch(ValueError):
    """Operand shapes are incompatible for the requested kernel."""


class Tensor:
    """Rank-0 to rank-3 float64 array with an optional gradient.

    A leaf (a tensor no tape recorded, such as a parameter) owns one
    gradient buffer from its first gradient on. Each backward pass writes
    the leaf's first gradient into it and adds later ones in place, so a
    leaf's .grad is that buffer, to be read until the next pass reuses it.

    The buffer also records the rows it may hold nonzero: None for
    unknown, or the ascending rows outside which it holds +0.0. Row
    scatters (_scatter_rows) keep the record, and any other write into the
    buffer makes it None. So a pass re-zeroes only the rows the last pass
    recorded, and update_step reads only those (grad_rows).
    """

    __slots__ = ("data", "grad", "_backward", "_buffer", "_rows")

    def __init__(self, data) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self._backward = None
        self._buffer: np.ndarray | None = None
        self._rows: np.ndarray | None = None

    def buffer(self) -> np.ndarray:
        """This tensor's own gradient buffer: C-ordered, of its shape, allocated
        at the first call and returned, contents as they are, by every later one."""
        if self._buffer is None:
            self._buffer = np.empty(self.data.shape)
        return self._buffer

    def zeroed_buffer(self) -> np.ndarray:
        """This tensor's buffer filled with +0.0, written only in the
        recorded rows (everywhere when the record is None); the record
        becomes empty."""
        buf = self.buffer()
        buf[... if self._rows is None else self._rows] = 0.0
        self._rows = np.empty(0, dtype=np.intp) if buf.ndim else None  # rank 0 has no rows
        return buf

    def grad_rows(self) -> np.ndarray | None:
        """The buffer's record when .grad is the buffer, else None."""
        return self._rows if self.grad is self._buffer else None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


Layout = dict[str, tuple[str, tuple[int, ...]]]  # a part's tensors in field order: name -> (initializer, shape)

_INITIALIZERS = {
    "normal": lambda rng, shape: rng.normal(0.0, 1.0 / np.sqrt(shape[0]), size=shape),  # std 1/sqrt(rows)
    "uniform": lambda rng, shape: rng.uniform(-0.05, 0.05, size=shape),
    "zeros": lambda rng, shape: np.zeros(shape),
    "ones": lambda rng, shape: np.ones(shape),
}


def init_tensors(rng: np.random.Generator, layout: Layout) -> dict[str, Tensor]:
    """A tensor for each entry of layout, drawn from rng in layout order."""
    return {name: Tensor(_INITIALIZERS[init](rng, shape)) for name, (init, shape) in layout.items()}


class GradTape:
    """Ordered record of kernel applications, replayed in reverse.

    Single-writer: one tape per training step. Leaf tensors (parameters)
    are never recorded; their .grad buffers survive the replay and hold
    the accumulated gradients. A recorded node's .grad is dropped once its
    backward has run, so each is freed as soon as no operand holds it.
    """

    def __init__(self) -> None:
        self._nodes: list[Tensor] = []

    def record(self, node: Tensor) -> None:
        self._nodes.append(node)

    def backward(self, root: Tensor) -> None:
        root.grad = np.ones_like(root.data)
        for node in reversed(self._nodes):
            if node.grad is not None:
                node._backward(node.grad)
                node.grad = None


def _val(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _make(tape: GradTape | None, data: np.ndarray, backward) -> Tensor:
    out = Tensor(data)
    if tape is not None:
        out._backward = backward
        tape.record(out)
    return out


def _fresh(t) -> np.ndarray | None:
    """The buffer that t's first gradient of a pass goes into: t's own when t
    is a leaf with no gradient yet, else None."""
    if isinstance(t, Tensor) and t.grad is None and t._backward is None:
        return t.buffer()
    return None


def _accum(t, g: np.ndarray) -> None:
    """Add g to t's gradient. A leaf copies its first g into its buffer and
    adds later ones there in place, and its record becomes None. Any other
    tensor keeps its first g as it is and adds later ones out of place: a
    stored gradient other than a leaf's own buffer may be shared with
    other tensors and is never written."""
    if not isinstance(t, Tensor):
        return
    buf = _fresh(t)
    if buf is not None:
        np.copyto(buf, g)
        t.grad, t._rows = buf, None
    elif t.grad is None:
        t.grad = g
    elif t.grad is t._buffer:
        t.grad += g
        t._rows = None
    else:
        t.grad = t.grad + g


def _accum_matmul(t, x: np.ndarray, y: np.ndarray) -> None:
    """_accum(t, x @ y), with a leaf's first product written straight into its buffer."""
    buf = _fresh(t)
    if buf is None:
        _accum(t, x @ y)
    else:
        t.grad, t._rows = np.matmul(x, y, out=buf), None


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# arithmetic

# add, sub and mul form and un-broadcast a gradient only for an operand
# that is a Tensor: a constant's would be thrown away.


def add(tape, a, b) -> Tensor:
    da, db = _val(a), _val(b)
    out = da + db

    def backward(g):
        if isinstance(a, Tensor):
            _accum(a, _unbroadcast(g, da.shape))
        if isinstance(b, Tensor):
            _accum(b, _unbroadcast(g, db.shape))

    return _make(tape, out, backward)


def sub(tape, a, b) -> Tensor:
    da, db = _val(a), _val(b)
    out = da - db

    def backward(g):
        if isinstance(a, Tensor):
            _accum(a, _unbroadcast(g, da.shape))
        if isinstance(b, Tensor):
            _accum(b, -_unbroadcast(g, db.shape))

    return _make(tape, out, backward)


def mul(tape, a, b) -> Tensor:
    """Hadamard product (or scaling by a constant scalar)."""
    da, db = _val(a), _val(b)
    out = da * db

    def backward(g):
        if isinstance(a, Tensor):
            _accum(a, _unbroadcast(g * db, da.shape))
        if isinstance(b, Tensor):
            _accum(b, _unbroadcast(g * da, db.shape))

    return _make(tape, out, backward)


def matmul(tape, a, b) -> Tensor:
    """Matrix-matrix product, or a batch of them over the leading axis of
    a rank-3 operand and a rank-3 or shared rank-2 one. (N, 1, k) @ (k, n)
    equals each vector's product bit for bit; a (N, k) gemm does not."""
    da, db = _val(a), _val(b)
    if (da.ndim, db.ndim) not in ((2, 2), (3, 3), (3, 2)) or da.shape[-1] != db.shape[-2] \
            or db.ndim == 3 and da.shape[0] != db.shape[0]:
        raise DimensionMismatch(f"matmul {da.shape} @ {db.shape}")
    out = da @ db

    def backward(g):
        _accum_matmul(a, g, db.swapaxes(-1, -2))
        if db.ndim == 3:
            _accum_matmul(b, da.swapaxes(-1, -2), g)
        else:
            _accum_matmul(b, da.reshape(-1, da.shape[-1]).T, g.reshape(-1, g.shape[-1]))

    return _make(tape, out, backward)


def affine(tape, x, w, bias) -> Tensor:
    """x @ w + bias for a weight matrix w, applied to every vector along
    the last axis of x (any rank >= 2)."""
    dx, dw, dbias = _val(x), _val(w), _val(bias)
    if dw.ndim != 2 or dx.ndim < 2 or dx.shape[-1] != dw.shape[0] or dbias.shape != dw.shape[1:]:
        raise DimensionMismatch(f"affine {dx.shape} @ {dw.shape} + {dbias.shape}")
    rows = dx.reshape(-1, dw.shape[0])
    out = rows @ dw
    out += dbias
    out = out.reshape(dx.shape[:-1] + dw.shape[1:])

    def backward(g):
        g_rows = g.reshape(-1, dw.shape[1])
        _accum(x, (g_rows @ dw.T).reshape(dx.shape))
        _accum_matmul(w, rows.T, g_rows)
        _accum(bias, g_rows.sum(axis=0))

    return _make(tape, out, backward)


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # one BLAS dot per pair of vectors along the last axis, equal to np.dot
    # of each pair bit for bit (einsum, (x * y).sum(-1) and gemv are not)
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def dot(tape, a, b) -> Tensor:
    """Inner products along the last axis of two same-shape operands (rank 1 to 3)."""
    da, db = _val(a), _val(b)
    if da.shape != db.shape or not 1 <= da.ndim <= 3:
        raise DimensionMismatch(f"dot {da.shape} . {db.shape}")

    def backward(g):
        _accum(a, g[..., None] * db)
        _accum(b, g[..., None] * da)

    return _make(tape, _row_dots(da, db), backward)


def transpose(tape, a) -> Tensor:
    """Swap the last two axes (the matrix transpose at rank 2)."""
    da = _val(a)
    if da.ndim < 2:
        raise DimensionMismatch(f"transpose of rank-{da.ndim} operand")

    def backward(g):
        _accum(a, g.swapaxes(-1, -2))

    return _make(tape, da.swapaxes(-1, -2), backward)


def reshape(tape, a, shape) -> Tensor:
    da = _val(a)

    def backward(g):
        _accum(a, g.reshape(da.shape))

    return _make(tape, da.reshape(shape), backward)


def concat(tape, parts, axis: int = 0) -> Tensor:
    datas = [_val(p) for p in parts]
    out = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(p, g[tuple(sl)])

    return _make(tape, out, backward)


def stack(tape, parts) -> Tensor:
    def backward(g):
        for p, gp in zip(parts, g):
            _accum(p, gp)

    return _make(tape, np.stack([_val(p) for p in parts]), backward)


def _scatter_rows(t, idx: np.ndarray, vals: np.ndarray) -> None:
    """np.add.at(t.grad, idx, vals) over the rows of t's gradient, bit for
    bit: the same additions in the same order, but on numpy's fast path
    for a 1-D destination (a row-wise add.at runs one index at a time).
    A leaf's first sum of a pass starts from its buffer filled with zeros
    (Tensor.zeroed_buffer, which writes only the rows the last pass
    recorded), and later ones add into that buffer; its record becomes
    the union of the rows added into, unless another write made it None.
    Otherwise the sum starts from fresh zeros, or from a C-ordered copy
    of t's gradient so far, which _accum may share with other tensors.
    Callers pass vals + 0.0, which maps -0.0 to +0.0 as adding into a
    zero buffer does. A constant t gets nothing."""
    if not isinstance(t, Tensor):
        return
    if _fresh(t) is not None:
        t.grad = t.zeroed_buffer()
    elif t.grad is None:
        t.grad = np.zeros(t.shape)
    elif t.grad is not t._buffer:
        t.grad = np.array(t.grad, order="C")
    width = math.prod(t.shape[1:])
    flat = (idx.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
    np.add.at(t.grad.reshape(-1), flat, vals.reshape(-1))
    if t.grad_rows() is not None:  # a mask, not np.unique, which sorts
        mask = np.zeros(len(t.grad), dtype=bool)
        mask[t._rows] = mask[idx] = True
        t._rows = np.flatnonzero(mask)


def gather_rows(tape, a, idx) -> Tensor:
    """Rows of a at the indices idx; an index array of shape S gives a
    result of shape S + a.shape[1:]."""
    da = _val(a)
    idx = np.asarray(idx, dtype=np.intp)
    out = da[idx]

    def backward(g):
        _scatter_rows(a, idx, g + 0.0)

    return _make(tape, out, backward)


# Elements per block of embedding_bag's gathered rows: 48k float64 values
# are 384 KB, which stay in the L2 cache while a block is weighted and
# summed. The 20,000 label bags of the eval-scaled benchmark (30-55 slots
# of 64 values, 256 texts a call; one CPU, 2 MB L2) pooled in 83 ms in one
# block a call, 68 ms at 48k elements (19 texts of 40 slots), 69-70 ms at
# 40k and 64k, 72 ms at 32k, 77 ms at 16k and 100 ms at 8k.
BAG_BLOCK = 49152


def embedding_bag(tape, table, ids, weights) -> Tensor:
    """Weighted sums of table rows, one per bag: ids and weights of shape
    (slots,) + S hold bag s's rows and weights in column s, and a slot of
    weight 0 is a pad. Equals sum(table[ids] * weights, axis=0) bit for bit.

    The bags are gathered, weighted and summed in blocks of columns of
    about BAG_BLOCK elements, each summed slot by slot as the whole would
    be. A table of width 1 is one block: numpy would sum a block of one
    bag of width 1 pairwise, from 9 slots on."""
    dt, ids, weights = _val(table), np.asarray(ids, dtype=np.intp), np.asarray(weights, dtype=np.float64)
    if dt.ndim != 2 or ids.ndim < 1 or ids.shape != weights.shape:
        raise DimensionMismatch(f"embedding_bag of {dt.shape} over ids {ids.shape}, weights {weights.shape}")

    def backward(g):
        # real slots only, slot-major: a pad's g * 0 + 0.0 would add +0.0,
        # which leaves sums started from zeros as they are
        real = np.nonzero(weights)
        vals = g[real[1:]] * weights[real][:, None]
        vals += 0.0
        _scatter_rows(table, ids[real], vals)

    slots, bags, width = len(ids), math.prod(ids.shape[1:]), dt.shape[1]
    bag_ids, bag_weights = ids.reshape(slots, bags), weights.reshape(slots, bags)
    out = np.empty((bags, width))
    step = max(1, BAG_BLOCK // max(1, slots * width)) if width > 1 else max(1, bags)
    for lo in range(0, bags, step):
        rows = dt[bag_ids[:, lo : lo + step]]
        rows *= bag_weights[:, lo : lo + step, None]
        np.add.reduce(rows, axis=0, out=out[lo : lo + step])
    return _make(tape, out.reshape(ids.shape[1:] + (width,)), backward)


# ---------------------------------------------------------------------------
# reductions


# mean_all, mean_rows and layer_norm divide np.add.reduce by the count: the
# sum and division np.mean and np.var run, bit for bit, without their Python
# wrappers.


def mean_all(tape, a) -> Tensor:
    da = _val(a)
    n = da.size

    def backward(g):
        _accum(a, np.full_like(da, float(g) / n))

    return _make(tape, np.add.reduce(da, axis=None) / n, backward)


def mean_rows(tape, a, lengths) -> Tensor:
    """Mean of the first lengths[i] (>= 1) entries of each row i of a matrix,
    equal to the 1-D mean of each prefix bit for bit (a padded sum is not)."""
    da, lengths = _val(a), np.asarray(lengths)
    if da.ndim != 2 or lengths.shape != da.shape[:1] or not np.all((lengths >= 1) & (lengths <= da.shape[1])):
        raise DimensionMismatch(f"mean_rows of {da.shape} over lengths {lengths.tolist()}")
    mask = np.arange(da.shape[1]) < lengths[:, None]

    def backward(g):
        _accum(a, np.where(mask, (g / lengths)[:, None], 0.0))

    return _make(tape, np.add.reduce(da, axis=1, where=mask) / lengths, backward)


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def relu(tape, a) -> Tensor:
    da = _val(a)
    out = np.maximum(da, 0.0)

    def backward(g):
        _accum(a, g * (da > 0.0))

    return _make(tape, out, backward)


def elementwise_abs(tape, a) -> Tensor:
    """Absolute value; subgradient 0 at exactly-zero coordinates."""
    da = _val(a)

    def backward(g):
        _accum(a, g * np.sign(da))

    return _make(tape, np.abs(da), backward)


def _sigmoid_stable(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def gelu(tape, a) -> Tensor:
    """tanh-approximation GeLU: 0.5*x*(1 + tanh(c*(x + 0.044715*x^3)))."""
    da = _val(a)
    # t = tanh(GELU_C * (da + 0.044715 * (da * da * da))), kept for the
    # backward; da * da * da, not da**3: numpy sends a cube to libm pow,
    # ~80x slower. out= keeps a rank-0 chain an array numpy writes in place
    t = np.multiply(da, da, out=np.empty_like(da))
    t *= da
    t *= 0.044715
    t += da
    t *= GELU_C
    np.tanh(t, out=t)
    out = np.multiply(da, 0.5, out=np.empty_like(da))
    out *= t + 1.0  # out = 0.5 * da * (1.0 + t)

    def backward(g):
        # d = 0.5 * (1.0 + t) + 0.5 * da * (1.0 - t * t) * GELU_C * (1.0 + 3 * 0.044715 * da**2)
        d = np.multiply(da, 0.5, out=np.empty_like(da))
        s = np.multiply(t, t, out=np.empty_like(da))
        np.subtract(1.0, s, out=s)
        d *= s
        d *= GELU_C
        np.square(da, out=s)
        s *= 3 * 0.044715
        s += 1.0
        d *= s
        np.add(t, 1.0, out=s)
        s *= 0.5
        d += s
        d *= g
        _accum(a, d)

    return _make(tape, out, backward)


def layer_norm(tape, a, gain, bias) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale by
    gain and shift by bias, two vectors of the last axis's length."""
    da, dg, db = _val(a), _val(gain), _val(bias)
    if da.ndim < 1 or dg.shape != da.shape[-1:] or db.shape != da.shape[-1:]:
        raise DimensionMismatch(f"layer_norm of {da.shape} with gain {dg.shape}, bias {db.shape}")
    n = da.shape[-1]
    # xhat = centred * inv with centred = da - mean and
    # inv = 1 / sqrt(var + eps), var = mean(centred**2); out = xhat * gain + bias
    xhat = da - np.add.reduce(da, axis=-1, keepdims=True) / n
    out = np.square(xhat)
    inv = 1.0 / np.sqrt(np.add.reduce(out, axis=-1, keepdims=True) / n + LAYER_NORM_EPS)
    xhat *= inv
    np.multiply(xhat, dg, out=out)
    out += db

    def backward(g):
        # dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), dxhat = g * gain
        dx = g * dg
        s = dx * xhat
        m2 = np.add.reduce(s, axis=-1, keepdims=True) / n
        dx -= np.add.reduce(dx, axis=-1, keepdims=True) / n
        np.multiply(xhat, m2, out=s)
        dx -= s
        dx *= inv
        np.multiply(g, xhat, out=s)
        _accum(gain, _unbroadcast(s, dg.shape))
        _accum(bias, _unbroadcast(g, db.shape))
        _accum(a, dx)

    return _make(tape, out, backward)


def softmax(tape, a) -> Tensor:
    """Row-wise softmax over the last axis."""
    da = _val(a)
    # p = exp(da - max) / sum(exp(da - max))
    p = da - da.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def backward(g):
        # p * (g - sum(g * p))
        d = g * p
        np.subtract(g, d.sum(axis=-1, keepdims=True), out=d)
        d *= p
        _accum(a, d)

    return _make(tape, p, backward)


def l2_normalize(tape, a) -> Tensor:
    """Unit-norm projection of each vector along the last axis; an all-zero
    vector maps to all-zero."""
    da = _val(a)
    rows = da.reshape(-1, da.shape[-1])
    n = np.sqrt(_row_dots(rows, rows))
    odd = ~((1e-150 < n) & (n < 1e150))
    y = rows / np.where(odd, 1.0, n)[:, None]
    if odd.any():
        # the squares under- or overflow, or all are zero: norm the vector
        # scaled by its largest entry, so tiny and huge ones come out unit-norm
        scale = np.max(np.abs(rows[odd]), axis=1, keepdims=True)
        scaled = np.divide(rows[odd], scale, out=np.zeros_like(rows[odd]), where=scale != 0.0)
        m = np.sqrt(_row_dots(scaled, scaled))[:, None]
        y[odd] = np.divide(scaled, m, out=np.zeros_like(scaled), where=m != 0.0)
        n[odd] = (scale * m)[:, 0]
    n[n == 0.0] = np.inf  # an all-zero vector passes back no gradient

    def backward(g):
        # (g - y * (g . y)) / n
        g = g.reshape(rows.shape)
        d = y * _row_dots(g, y)[:, None]
        np.subtract(g, d, out=d)
        d /= n[:, None]
        _accum(a, d.reshape(da.shape))

    return _make(tape, y.reshape(da.shape), backward)


def bce_with_logits(tape, z, y) -> Tensor:
    """Elementwise binary cross-entropy on raw logits, log-sum-exp stable.

    y is a constant target array of the logits' shape; gradient flows
    only into the logits.
    """
    dz = _val(z)
    dy = np.asarray(y, dtype=np.float64)
    if dy.shape != dz.shape:
        raise DimensionMismatch(f"bce_with_logits of logits {dz.shape} against targets {dy.shape}")
    # algebraically softplus(z) - z*y, but branch-selected on the binary
    # target so swapping (z, y) -> (-z, 1-y) is bit-exact:
    # log(1 + exp(-z)) where y > 0.5, else log(1 + exp(z))
    out = np.where(dy > 0.5, -dz, dz)
    np.logaddexp(0.0, out, out=out)

    def backward(g):
        # g * (sigmoid(z) - y)
        d = _sigmoid_stable(np.atleast_1d(dz)).reshape(dz.shape)
        d -= dy
        d *= g
        _accum(z, d)

    return _make(tape, out, backward)


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckReport:
    max_relative_error: float
    passed: bool
    worst_case: str = ""  # the check that gave the error, where a suite names it


def grad_check(
    fn,
    params: dict[str, Tensor],
    seed: int,
    tol: float,
    max_coords: int = 256,
    probes=None,
) -> GradCheckReport:
    """Compare analytic gradients of a scalar program to central differences.

    ``fn(tape)`` must rerun the forward pass and return a scalar Tensor;
    it is called with ``tape=None`` for the finite-difference probes. Up
    to ``max_coords`` (at least 1) coordinates per parameter tensor are
    sampled. ``probes()``, if given, is called once after the analytic
    pass, with every parameter at its value. It returns a dict that may
    map a parameter's name to a function of no arguments that returns
    what ``fn(None)`` would while that parameter alone moves; that
    parameter's probes call it instead of ``fn(None)``. A name that is
    not in ``params`` raises ValueError before any probe runs. A probed
    coordinate is restored even if a probe raises.
    The step is GRAD_CHECK_STEP. Relative error is |a-f| / max(|a|, |f|,
    1e-8). Coordinates where both sides are below GRAD_CHECK_ZERO_FLOOR
    count as agreeing zeros: the central
    difference of an O(1) objective carries ~1e-11 of float64 rounding
    noise, which would otherwise swamp genuinely zero gradients.
    """
    if max_coords < 1:
        raise ValueError(f"need max_coords >= 1, got {max_coords}")
    for p in params.values():
        p.grad = None
    tape = GradTape()
    out = fn(tape)
    tape.backward(out)

    staged = {} if probes is None else probes()
    unknown = sorted(set(staged) - set(params))
    if unknown:
        raise ValueError(f"probes for unknown parameters: {', '.join(map(repr, unknown))}")
    rng = np.random.default_rng(seed)
    max_rel = 0.0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        analytic = (p.grad if p.grad is not None else np.zeros_like(p.data)).reshape(-1)
        if not np.all(np.isfinite(analytic)):
            raise NonFiniteGradient(f"analytic gradient of {name} is not finite")
        probe = staged.get(name, lambda: fn(None))
        n = flat.size
        coords = rng.choice(n, size=min(n, max_coords), replace=False)
        for c in coords:
            orig = flat[c]
            try:
                flat[c] = orig + GRAD_CHECK_STEP
                f_hi = float(probe().data)
                flat[c] = orig - GRAD_CHECK_STEP
                f_lo = float(probe().data)
            finally:
                flat[c] = orig
            numeric = (f_hi - f_lo) / (2.0 * GRAD_CHECK_STEP)
            if not math.isfinite(numeric):
                raise NonFiniteGradient(f"numeric gradient of {name}[{c}] is not finite")
            a = float(analytic[c])
            if max(abs(a), abs(numeric)) < GRAD_CHECK_ZERO_FLOOR:
                continue
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            max_rel = max(max_rel, rel)
    return GradCheckReport(max_relative_error=max_rel, passed=max_rel <= tol)
