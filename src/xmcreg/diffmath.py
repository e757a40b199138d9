"""Float64 vector/matrix kernels with hand-derived backward passes.

Reverse-mode differentiation over a per-step gradient tape. Only the
kernels the training objective needs are implemented; this is deliberately
not a general autodiff system. All kernels are pure functions over
immutable inputs and deterministic.
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
    """Rank-0 to rank-3 float64 array with an optional gradient buffer.

    A parameter may own ``grad_view``, a buffer of its shape (a view of the
    optimizer's gradient arena) that its first gradient is written into
    instead of a new array.
    """

    __slots__ = ("data", "grad", "grad_view", "_backward")

    def __init__(self, data) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.grad_view: np.ndarray | None = None
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


class GradTape:
    """Ordered record of kernel applications, replayed in reverse.

    Single-writer: one tape per training step. Leaf tensors (parameters)
    are never recorded; their .grad buffers survive the replay and hold
    the accumulated gradients.
    """

    def __init__(self) -> None:
        self._nodes: list[Tensor] = []

    def record(self, node: Tensor) -> None:
        self._nodes.append(node)

    def backward(self, root: Tensor) -> None:
        root.grad = np.ones_like(root.data)
        for node in reversed(self._nodes):
            if node.grad is not None and node._backward is not None:
                node._backward(node.grad)


def _val(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _make(tape: GradTape | None, data: np.ndarray, backward) -> Tensor:
    out = Tensor(data)
    if tape is not None:
        out._backward = backward
        tape.record(out)
    return out


def _accum(t, g: np.ndarray) -> None:
    if not isinstance(t, Tensor):
        return
    if t.grad is None:
        # copy: g may alias a downstream node's gradient buffer. A copy, not
        # an add into zeros, so a -0.0 in g stays -0.0
        if t.grad_view is not None and t.grad_view.shape == np.shape(g):
            np.copyto(t.grad_view, g)
            t.grad = t.grad_view
        else:
            t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# arithmetic


def add(tape, a, b) -> Tensor:
    da, db = _val(a), _val(b)
    out = da + db

    def backward(g):
        _accum(a, _unbroadcast(g, da.shape))
        _accum(b, _unbroadcast(g, db.shape))

    return _make(tape, out, backward)


def sub(tape, a, b) -> Tensor:
    da, db = _val(a), _val(b)
    out = da - db

    def backward(g):
        _accum(a, _unbroadcast(g, da.shape))
        _accum(b, -_unbroadcast(g, db.shape))

    return _make(tape, out, backward)


def mul(tape, a, b) -> Tensor:
    """Hadamard product (or scaling by a constant scalar)."""
    da, db = _val(a), _val(b)
    out = da * db

    def backward(g):
        _accum(a, _unbroadcast(g * db, da.shape))
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
        _accum(a, g @ db.swapaxes(-1, -2))
        _accum(b, da.swapaxes(-1, -2) @ g if db.ndim == 3 else
               da.reshape(-1, da.shape[-1]).T @ g.reshape(-1, g.shape[-1]))

    return _make(tape, out, backward)


def affine(tape, x, w, bias) -> Tensor:
    """x @ w + bias for a weight matrix w, applied to every vector along
    the last axis of x (any rank >= 2)."""
    dx, dw, dbias = _val(x), _val(w), _val(bias)
    if dw.ndim != 2 or dx.ndim < 2 or dx.shape[-1] != dw.shape[0] or dbias.shape != dw.shape[1:]:
        raise DimensionMismatch(f"affine {dx.shape} @ {dw.shape} + {dbias.shape}")
    rows = dx.reshape(-1, dw.shape[0])
    out = (rows @ dw + dbias).reshape(dx.shape[:-1] + dw.shape[1:])

    def backward(g):
        g_rows = g.reshape(-1, dw.shape[1])
        _accum(x, (g_rows @ dw.T).reshape(dx.shape))
        _accum(w, rows.T @ g_rows)
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


def _scatter_grad(t: Tensor, shape: tuple[int, ...]) -> np.ndarray:
    """t's gradient buffer as a scatter destination: zeros if t has none yet
    (in its arena view, for a parameter that has one), and C-contiguous."""
    if t.grad is None:
        # np.empty, not empty_like: a transposed operand's data is F-ordered
        t.grad = np.empty(shape) if t.grad_view is None else t.grad_view
        t.grad.fill(0.0)
    elif not t.grad.flags.c_contiguous:
        t.grad = np.ascontiguousarray(t.grad)
    return t.grad


def _scatter_add(dst: np.ndarray, idx: np.ndarray, vals: np.ndarray) -> None:
    """np.add.at(dst, idx, vals) over the rows of a C-contiguous dst, bit for
    bit: the same additions in the same order, but on numpy's fast path for a
    1-D destination (a row-wise add.at runs one index at a time)."""
    if not dst.flags.c_contiguous:  # reshape(-1) would copy and drop the adds
        raise ValueError("scatter destination must be C-contiguous")
    width = math.prod(dst.shape[1:])
    flat = (idx.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
    np.add.at(dst.reshape(-1), flat, vals.reshape(-1))


def gather_rows(tape, a, idx) -> Tensor:
    """Rows of a at the indices idx; an index array of shape S gives a
    result of shape S + a.shape[1:]."""
    da = _val(a)
    idx = np.asarray(idx, dtype=np.intp)
    out = da[idx]

    def backward(g):
        if not isinstance(a, Tensor):
            return
        grad = _scatter_grad(a, da.shape)
        # Only the gathered rows change. + 0.0 maps -0.0 to +0.0 as adding
        # g into a zero buffer did, so with unique idx this equals adding
        # a dense scatter of g bit for bit, except that a -0.0 already in
        # a row not gathered is left as it is
        g = g + 0.0
        if len(set(idx.ravel().tolist())) == idx.size:
            grad[idx] += g
        else:
            _scatter_add(grad, idx, g)

    return _make(tape, out, backward)


def embedding_bag(tape, table, ids, weights) -> Tensor:
    """Weighted sums of table rows, one per bag: ids and weights of shape
    (slots,) + S hold bag s's rows and weights in column s, and a slot of
    weight 0 is a pad. Equals sum(table[ids] * weights, axis=0) bit for bit."""
    dt, ids, weights = _val(table), np.asarray(ids, dtype=np.intp), np.asarray(weights, dtype=np.float64)
    if dt.ndim != 2 or ids.ndim < 1 or ids.shape != weights.shape:
        raise DimensionMismatch(f"embedding_bag of {dt.shape} over ids {ids.shape}, weights {weights.shape}")

    def backward(g):
        if not isinstance(table, Tensor):
            return
        grad = _scatter_grad(table, dt.shape)
        # real slots only, slot-major: a pad's g * 0 + 0.0 would add +0.0,
        # which leaves sums started from zeros as they are. + 0.0 maps -0.0
        # to +0.0, as adding into a zero buffer does
        real = np.nonzero(weights)
        _scatter_add(grad, ids[real], g[real[1:]] * weights[real][:, None] + 0.0)

    rows = dt[ids]
    rows *= weights[..., None]
    return _make(tape, rows.sum(axis=0), backward)


# ---------------------------------------------------------------------------
# reductions


def mean_all(tape, a) -> Tensor:
    da = _val(a)
    n = da.size

    def backward(g):
        _accum(a, np.full_like(da, float(g) / n))

    return _make(tape, da.mean(), backward)


def mean_rows(tape, a, lengths) -> Tensor:
    """Mean of the first lengths[i] (>= 1) entries of each row i of a matrix,
    equal to the 1-D mean of each prefix bit for bit (a padded sum is not)."""
    da, lengths = _val(a), np.asarray(lengths)
    if da.ndim != 2 or lengths.shape != da.shape[:1] or not np.all((lengths >= 1) & (lengths <= da.shape[1])):
        raise DimensionMismatch(f"mean_rows of {da.shape} over lengths {lengths.tolist()}")
    mask = np.arange(da.shape[1]) < lengths[:, None]

    def backward(g):
        _accum(a, np.where(mask, (g / lengths)[:, None], 0.0))

    return _make(tape, np.mean(da, axis=1, where=mask), backward)


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
    # da * da * da, not da**3: numpy sends a cube to libm pow, ~80x slower
    inner = GELU_C * (da + 0.044715 * (da * da * da))
    t = np.tanh(inner)
    out = 0.5 * da * (1.0 + t)

    def backward(g):
        sech2 = 1.0 - t * t
        d = 0.5 * (1.0 + t) + 0.5 * da * sech2 * GELU_C * (1.0 + 3 * 0.044715 * da**2)
        _accum(a, g * d)

    return _make(tape, out, backward)


def layer_norm(tape, a, gain, bias) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    da, dg, db = _val(a), _val(gain), _val(bias)
    if dg.shape[-1] != da.shape[-1] or db.shape[-1] != da.shape[-1]:
        raise DimensionMismatch("layer_norm gain/bias length")
    mu = da.mean(axis=-1, keepdims=True)
    var = da.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = (da - mu) * inv
    out = xhat * dg + db

    def backward(g):
        _accum(gain, _unbroadcast(g * xhat, dg.shape))
        _accum(bias, _unbroadcast(g, db.shape))
        dxhat = g * dg
        dx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        _accum(a, dx)

    return _make(tape, out, backward)


def softmax(tape, a) -> Tensor:
    """Row-wise softmax over the last axis."""
    da = _val(a)
    z = da - da.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        _accum(a, p * (g - (g * p).sum(axis=-1, keepdims=True)))

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
        g = g.reshape(rows.shape)
        _accum(a, ((g - y * _row_dots(g, y)[:, None]) / n[:, None]).reshape(da.shape))

    return _make(tape, y.reshape(da.shape), backward)


def bce_with_logits(tape, z, y) -> Tensor:
    """Elementwise binary cross-entropy on raw logits, log-sum-exp stable.

    y is a constant target array; gradient flows only into the logits.
    """
    dz = _val(z)
    dy = np.asarray(y, dtype=np.float64)
    # algebraically softplus(z) - z*y, but branch-selected on the binary
    # target so swapping (z, y) -> (-z, 1-y) is bit-exact
    out = np.where(dy > 0.5, np.logaddexp(0.0, -dz), np.logaddexp(0.0, dz))

    def backward(g):
        _accum(z, g * (_sigmoid_stable(np.atleast_1d(dz * 1.0)).reshape(dz.shape) - dy))

    return _make(tape, out, backward)


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckReport:
    max_relative_error: float
    passed: bool


def grad_check(
    fn,
    params: dict[str, Tensor],
    seed: int,
    tol: float,
    max_coords: int = 256,
) -> GradCheckReport:
    """Compare analytic gradients of a scalar program to central differences.

    ``fn(tape)`` must rerun the forward pass and return a scalar Tensor;
    it is called with ``tape=None`` for the finite-difference probes. Up
    to ``max_coords`` coordinates per parameter tensor are sampled.
    The step is GRAD_CHECK_STEP. Relative error is |a-f| / max(|a|, |f|,
    1e-8). Coordinates where both sides are below GRAD_CHECK_ZERO_FLOOR
    count as agreeing zeros: the central
    difference of an O(1) objective carries ~1e-11 of float64 rounding
    noise, which would otherwise swamp genuinely zero gradients.
    """
    for p in params.values():
        p.grad = None
    tape = GradTape()
    out = fn(tape)
    tape.backward(out)

    rng = np.random.default_rng(seed)
    max_rel = 0.0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        analytic = (p.grad if p.grad is not None else np.zeros_like(p.data)).reshape(-1)
        if not np.all(np.isfinite(analytic)):
            raise NonFiniteGradient(f"analytic gradient of {name} is not finite")
        n = flat.size
        coords = rng.choice(n, size=min(n, max_coords), replace=False)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + GRAD_CHECK_STEP
            f_hi = float(fn(None).data)
            flat[c] = orig - GRAD_CHECK_STEP
            f_lo = float(fn(None).data)
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
