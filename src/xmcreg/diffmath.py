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


class NonFiniteGradient(RuntimeError):
    """Raised when an analytic or finite-difference gradient is NaN/Inf."""


class DimensionMismatch(ValueError):
    """Operand shapes are incompatible for the requested kernel."""


class Tensor:
    """Rank-0/1/2 float64 array with an optional gradient buffer."""

    __slots__ = ("data", "grad", "_backward")

    def __init__(self, data) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
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
        # copy: g may alias a downstream node's gradient buffer
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
    da, db = _val(a), _val(b)
    if da.shape[-1] != db.shape[0]:
        raise DimensionMismatch(f"matmul {da.shape} @ {db.shape}")
    out = da @ db

    def backward(g):
        if da.ndim == 1 and db.ndim == 2:
            _accum(a, g @ db.T)
            _accum(b, np.outer(da, g))
        elif da.ndim == 2 and db.ndim == 1:
            _accum(a, np.outer(g, db))
            _accum(b, da.T @ g)
        else:
            _accum(a, g @ db.T)
            _accum(b, da.T @ g)

    return _make(tape, out, backward)


def dot(tape, a, b) -> Tensor:
    da, db = _val(a), _val(b)
    if da.shape != db.shape or da.ndim != 1:
        raise DimensionMismatch(f"dot {da.shape} . {db.shape}")
    out = np.dot(da, db)

    def backward(g):
        _accum(a, g * db)
        _accum(b, g * da)

    return _make(tape, out, backward)


def transpose(tape, a) -> Tensor:
    da = _val(a)

    def backward(g):
        _accum(a, g.T)

    return _make(tape, da.T, backward)


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


def stack(tape, parts, axis: int = 0) -> Tensor:
    datas = [_val(p) for p in parts]
    out = np.stack(datas, axis=axis)

    def backward(g):
        for i, p in enumerate(parts):
            _accum(p, np.take(g, i, axis=axis))

    return _make(tape, out, backward)


def gather_rows(tape, a, idx) -> Tensor:
    da = _val(a)
    idx = np.asarray(idx, dtype=np.intp)
    out = da[idx]

    def backward(g):
        if not isinstance(a, Tensor):
            return
        if a.grad is None:
            a.grad = np.zeros_like(da)
        # Only the gathered rows change. + 0.0 maps -0.0 to +0.0 as adding
        # g into a zero buffer did, so with unique idx this equals adding
        # a dense scatter of g bit for bit, except that a -0.0 already in
        # a row not gathered is left as it is
        g = g + 0.0
        if len(set(idx.tolist())) == idx.size:
            a.grad[idx] += g
        else:
            np.add.at(a.grad, idx, g)

    return _make(tape, out, backward)


def detach(tape, a) -> Tensor:
    """Copy that blocks gradient flow into its source."""
    return Tensor(np.array(_val(a)))


# ---------------------------------------------------------------------------
# reductions


def mean_all(tape, a) -> Tensor:
    da = _val(a)
    n = da.size

    def backward(g):
        _accum(a, np.full_like(da, float(g) / n))

    return _make(tape, da.mean(), backward)


def sum_axis0(tape, a) -> Tensor:
    da = _val(a)

    def backward(g):
        _accum(a, np.broadcast_to(g, da.shape).copy())

    return _make(tape, da.sum(axis=0), backward)


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
    inner = GELU_C * (da + 0.044715 * da**3)
    t = np.tanh(inner)
    out = 0.5 * da * (1.0 + t)

    def backward(g):
        sech2 = 1.0 - t * t
        d = 0.5 * (1.0 + t) + 0.5 * da * sech2 * GELU_C * (1.0 + 3 * 0.044715 * da**2)
        _accum(a, g * d)

    return _make(tape, out, backward)


def layer_norm(tape, a, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    da, dg, db = _val(a), _val(gain), _val(bias)
    if dg.shape[-1] != da.shape[-1] or db.shape[-1] != da.shape[-1]:
        raise DimensionMismatch("layer_norm gain/bias length")
    mu = da.mean(axis=-1, keepdims=True)
    var = da.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
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
    """Unit-norm projection of a rank-1 vector; all-zero maps to all-zero."""
    da = _val(a)
    if da.ndim != 1:
        raise DimensionMismatch("l2_normalize expects rank-1")
    n = float(np.linalg.norm(da))
    if not 1e-150 < n < 1e150:
        # the squares under- or overflow (or all are zero): norm the vector
        # scaled by its largest entry, so tiny and huge vectors still come
        # out unit-norm
        scale = float(np.max(np.abs(da)))
        if scale == 0.0:
            return _make(tape, np.zeros_like(da), lambda g: None)
        scaled = da / scale
        m = float(np.linalg.norm(scaled))
        y = scaled / m
        n = scale * m
    else:
        y = da / n

    def backward(g):
        _accum(a, (g - y * np.dot(g, y)) / n)

    return _make(tape, y, backward)


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
    h: float = 1e-5,
    zero_floor: float = 1e-7,
) -> GradCheckReport:
    """Compare analytic gradients of a scalar program to central differences.

    ``fn(tape)`` must rerun the forward pass and return a scalar Tensor;
    it is called with ``tape=None`` for the finite-difference probes. Up
    to ``max_coords`` coordinates per parameter tensor are sampled.
    Relative error is |a-f| / max(|a|, |f|, 1e-8). Coordinates where both
    sides are below ``zero_floor`` count as agreeing zeros: the central
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
            flat[c] = orig + h
            f_hi = float(fn(None).data)
            flat[c] = orig - h
            f_lo = float(fn(None).data)
            flat[c] = orig
            numeric = (f_hi - f_lo) / (2.0 * h)
            if not math.isfinite(numeric):
                raise NonFiniteGradient(f"numeric gradient of {name}[{c}] is not finite")
            a = float(analytic[c])
            if max(abs(a), abs(numeric)) < zero_floor:
                continue
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            max_rel = max(max_rel, rel)
    return GradCheckReport(max_relative_error=max_rel, passed=max_rel <= tol)
