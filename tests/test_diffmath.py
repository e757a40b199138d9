"""Kernel-level forward values and backward-pass verification."""

import inspect
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from xmcreg import diffmath as dm
from xmcreg import verify
from xmcreg.verify import kernel_gradchecks


class TestL2Normalize:
    def test_three_four_five(self):
        out = dm.l2_normalize(None, dm.Tensor([3.0, 4.0]))
        np.testing.assert_allclose(out.data, [0.6, 0.8], atol=1e-15)

    def test_zero_vector_maps_to_zero(self):
        out = dm.l2_normalize(None, dm.Tensor([0.0, 0.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0])

    def test_zero_rows_pass_back_zero_gradient(self):
        x = dm.Tensor(np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 0.0]]))
        tape = dm.GradTape()
        tape.backward(dm.mean_all(tape, dm.mul(tape, dm.l2_normalize(tape, x), np.ones((3, 2)))))
        np.testing.assert_array_equal(x.grad[[0, 2]], 0.0)
        assert np.all(x.grad[1] != 0.0)

    def test_tiny_vector_no_overflow(self):
        out = dm.l2_normalize(None, dm.Tensor([1e-30, 0.0]))
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-15)

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=12))
    def test_unit_norm_or_zero(self, values):
        out = dm.l2_normalize(None, dm.Tensor(values)).data
        n = np.linalg.norm(out)
        assert n == 0.0 or abs(n - 1.0) < 1e-12


def _bce_gradient(x: float) -> float:
    """d/dz of bce_with_logits at target 0, which is the logistic sigmoid of z."""
    z = dm.Tensor([x])
    tape = dm.GradTape()
    tape.backward(dm.mean_all(tape, dm.bce_with_logits(tape, z, [0.0])))
    return float(z.grad[0])


class TestSigmoid:
    """The stable sigmoid, as it appears in the gradient of bce_with_logits."""

    def test_symmetry_point(self):
        assert _bce_gradient(0.0) == 0.5

    def test_positive_saturation(self):
        assert abs(_bce_gradient(40.0) - 1.0) < 1e-15

    def test_negative_tail_strictly_positive(self):
        # stable formulation: exp(-40) / (1 + exp(-40))
        expected = math.exp(-40) / (1 + math.exp(-40))
        got = _bce_gradient(-40.0)
        assert got > 0.0
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    @given(st.floats(-500, 500))
    def test_monotone_and_bounded(self, x):
        lo = _bce_gradient(x)
        hi = _bce_gradient(x + 1.0)
        assert 0.0 <= lo <= 1.0
        assert hi >= lo


class TestGelu:
    def test_zero(self):
        assert float(dm.gelu(None, dm.Tensor(0.0)).data) == 0.0

    def test_positive_saturation(self):
        assert abs(float(dm.gelu(None, dm.Tensor(10.0)).data) - 10.0) < 1e-6

    def test_at_one(self):
        # tanh approximation evaluated directly
        expected = 0.5 * (1 + math.tanh(math.sqrt(2 / math.pi) * (1 + 0.044715)))
        np.testing.assert_allclose(float(dm.gelu(None, dm.Tensor(1.0)).data), expected, rtol=1e-12)
        np.testing.assert_allclose(expected, 0.8412, atol=5e-5)


class TestLayerNorm:
    def test_constant_vector(self):
        v = dm.Tensor([1.0, 1.0, 1.0, 1.0])
        out = dm.layer_norm(None, v, dm.Tensor(np.ones(4)), dm.Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, np.zeros(4), atol=1e-12)

    def test_already_standardized(self):
        out = dm.layer_norm(None, dm.Tensor([1.0, -1.0]), dm.Tensor(np.ones(2)), dm.Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, np.array([1.0, -1.0]) / math.sqrt(1 + dm.LAYER_NORM_EPS), rtol=1e-15)

    def test_bias_shifts_mean(self):
        out = dm.layer_norm(None, dm.Tensor([2.0, 4.0, 6.0]), dm.Tensor(np.ones(3)), dm.Tensor(np.full(3, 5.0)))
        np.testing.assert_allclose(out.data.mean(), 5.0, atol=1e-12)

    def test_standardizes(self):
        rng = np.random.default_rng(0)
        v = dm.Tensor(rng.normal(size=16))
        out = dm.layer_norm(None, v, dm.Tensor(np.ones(16)), dm.Tensor(np.zeros(16))).data
        assert abs(out.mean()) < 1e-12
        assert abs(out.var() - 1.0) < 1e-4  # up to eps

    @pytest.mark.parametrize("x, gain, bias", [
        (np.ones((2, 3)), np.ones((1, 3)), np.zeros(3)),  # a gain of another rank
        (np.ones((2, 3)), np.ones(3), np.zeros(2)),  # a bias of another length
        (np.ones(()), np.ones(()), np.zeros(())),  # a rank-0 operand
    ], ids=["gain-rank", "bias-length", "rank-0"])
    def test_gain_and_bias_are_vectors_of_the_last_axis(self, x, gain, bias):
        with pytest.raises(dm.DimensionMismatch):
            dm.layer_norm(None, dm.Tensor(x), dm.Tensor(gain), dm.Tensor(bias))


class TestGradCheck:
    def test_sum_of_squares_quadratic(self):
        p = dm.Tensor(np.arange(1.0, 7.0))

        def fn(tape):
            return dm.mean_all(tape, dm.mul(tape, p, p))

        report = dm.grad_check(fn, {"p": p}, seed=0, tol=1e-7)
        assert report.passed
        assert report.max_relative_error < 1e-7

    def test_corrupted_backward_fails(self):
        p = dm.Tensor(np.arange(1.0, 7.0))

        def doubled_square(tape, t):
            out = dm.Tensor(t.data**2)

            def backward(g):
                dm._accum(t, g * 4.0 * t.data)  # deliberate x2 bug

            if tape is not None:
                out._backward = backward
                tape.record(out)
            return out

        def fn(tape):
            return dm.mean_all(tape, doubled_square(tape, p))

        report = dm.grad_check(fn, {"p": p}, seed=0, tol=1e-4)
        assert not report.passed

    def test_nonfinite_raises(self):
        p = dm.Tensor(np.ones(3))

        def fn(tape):
            out = dm.Tensor(np.nan)

            def backward(g):
                dm._accum(p, np.full(3, np.nan))

            if tape is not None:
                out._backward = backward
                tape.record(out)
            return out

        with pytest.raises(dm.NonFiniteGradient):
            dm.grad_check(fn, {"p": p}, seed=0, tol=1e-4)

    def test_probe_that_raises_restores_the_parameter(self):
        p = dm.Tensor([1.0, 2.0])

        def fn(tape):
            if tape is None:
                raise RuntimeError("probe failed")
            return dm.mean_all(tape, dm.mul(tape, p, p))

        with pytest.raises(RuntimeError, match="probe failed"):
            dm.grad_check(fn, {"p": p}, seed=0, tol=1e-4)
        assert p.data.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("max_coords", [0, -1])
    def test_max_coords_below_one_is_refused(self, max_coords):
        p = dm.Tensor([1.0, 2.0])
        with pytest.raises(ValueError, match="max_coords >= 1"):
            dm.grad_check(lambda tape: dm.mean_all(tape, dm.mul(tape, p, p)), {"p": p}, seed=0, tol=1e-4,
                          max_coords=max_coords)

    @pytest.mark.parametrize("offset, passed", [(0.0, True), (1.0, False)])
    def test_staged_probe_replaces_fn_for_its_tensor(self, offset, passed):
        # q's probe reuses p's term, computed once after the analytic pass;
        # an offset there shows the probe, not fn, is what q's probes read
        p, q = dm.Tensor(np.arange(1.0, 4.0)), dm.Tensor(np.arange(2.0, 6.0))
        calls = []

        def square(tape, t):
            return dm.mean_all(tape, dm.mul(tape, t, t))

        def fn(tape):
            return dm.add(tape, square(tape, p), square(tape, q))

        def probes():
            calls.append(p.grad is not None and q.grad is not None)
            p_term = square(None, p).data
            return {"q": lambda: dm.add(None, p_term, dm.mul(None, square(None, q), 1.0 + offset))}

        report = dm.grad_check(fn, {"p": p, "q": q}, seed=0, tol=1e-7, probes=probes)
        assert calls == [True]
        assert report.passed is passed

    def test_probe_for_an_unknown_parameter_is_refused_before_any_probe_runs(self):
        # a misspelt name would otherwise send its tensor back to fn unnoticed
        p = dm.Tensor([1.0, 2.0])
        calls = []

        def fn(tape):
            calls.append(tape is None)
            return dm.mean_all(tape, dm.mul(tape, p, p))

        def probes():
            return {"p": lambda: fn(None), "p_typo": lambda: fn(None)}

        with pytest.raises(ValueError, match="'p_typo'"):
            dm.grad_check(fn, {"p": p}, seed=0, tol=1e-4, probes=probes)
        assert calls == [False]


@pytest.mark.parametrize("seed", range(12))
def test_kernel_jvp_matches_finite_differences(seed):
    report = kernel_gradchecks(seed, tol=1e-4)
    assert report.passed, f"worst kernel {report.worst_case}: {report.max_relative_error}"


@pytest.mark.parametrize("kernel_error, loss_error, worst", [(2e-5, 1e-5, "gelu"), (1e-5, 1e-5, "gelu"),
                                                             (1e-5, 3e-4, "total_loss")])
def test_full_suite_reports_the_worse_check(monkeypatch, kernel_error, loss_error, worst):
    kernels = dm.GradCheckReport(kernel_error, kernel_error <= 1e-4, "gelu")
    end_to_end = dm.GradCheckReport(loss_error, loss_error <= 1e-4, "total_loss")
    monkeypatch.setattr(verify, "kernel_gradchecks", lambda seed, tol: kernels)
    monkeypatch.setattr(verify, "total_loss_gradcheck", lambda seed, tol: end_to_end)
    report = verify.full_suite(0)
    assert (report.max_relative_error, report.passed, report.worst_case) == (
        max(kernel_error, loss_error), max(kernel_error, loss_error) <= 1e-4, worst)


def test_total_loss_gradcheck_names_itself():
    assert verify.total_loss_gradcheck(0).worst_case == "total_loss"


def _kernel_names() -> set:
    return {name for name, fn in vars(dm).items()
            if inspect.isfunction(fn) and fn.__module__ == dm.__name__ and not name.startswith("_")
            and list(inspect.signature(fn).parameters)[:1] == ["tape"]}


def test_every_kernel_is_gradchecked():
    kernels = _kernel_names()
    assert {"add", "embedding_bag"} <= kernels
    called = set()

    def spy(name):
        kernel = getattr(dm, name)

        def wrapper(*args, **kwargs):
            called.add(name)
            return kernel(*args, **kwargs)

        return wrapper

    with mock.patch.multiple(dm, **{name: spy(name) for name in kernels}):
        kernel_gradchecks(0, max_coords=1)
    assert kernels - called == set()


def _freeze(*values) -> None:
    """Make every array among values read-only, with those that Tensors
    and lists among them hold."""
    for v in values:
        if isinstance(v, (list, tuple)):
            _freeze(*v)
        elif isinstance(v, (dm.Tensor, np.ndarray)):
            (v.data if isinstance(v, dm.Tensor) else v).flags.writeable = False


def _read_only(g) -> np.ndarray:
    view = np.asarray(g).view()
    view.flags.writeable = False
    return view


def _read_only_kernels() -> dict:
    """Every kernel, wrapped so that its operands, its output and the
    gradient its backward pass receives are read-only: a kernel that
    writes any of them raises."""

    def wrap(kernel):
        def wrapper(tape, *args, **kwargs):
            _freeze(args, list(kwargs.values()))
            out = kernel(tape, *args, **kwargs)
            _freeze(out)
            backward = out._backward
            if backward is not None:
                out._backward = lambda g: backward(_read_only(g))
            return out

        return wrapper

    return {name: wrap(getattr(dm, name)) for name in _kernel_names()}


@pytest.mark.parametrize("name", list(verify.kernel_checks(0)))
def test_gradchecked_kernels_never_write_their_inputs(name):
    """Each program of the kernel suite, forward and backward, with every
    operand, every kernel output and every upstream gradient read-only."""
    fn, params = verify.kernel_checks(0)[name]
    with mock.patch.multiple(dm, **_read_only_kernels()):
        tape = dm.GradTape()
        tape.backward(fn(tape))
    assert all(p.grad is not None for p in params.values())


_RANK_SHAPES = {0: (), 1: (4,), 2: (3, 4), 3: (2, 3, 4)}

# kernel case -> (ranks it takes, program over operands x and y of the
# rank's shape, a constant array c of that shape and parameters p: the
# vectors gain and bias of the last axis's length, an affine map's w and b)
_BY_RANK = {
    "add": (range(4), lambda tape, x, y, c, p: dm.add(tape, x, y)),
    "add-constant": (range(4), lambda tape, x, y, c, p: dm.add(tape, c, x)),
    "sub": (range(4), lambda tape, x, y, c, p: dm.sub(tape, x, y)),
    "sub-constant": (range(4), lambda tape, x, y, c, p: dm.sub(tape, 0.3, x)),
    "mul": (range(4), lambda tape, x, y, c, p: dm.mul(tape, x, y)),
    "mul-constant": (range(4), lambda tape, x, y, c, p: dm.mul(tape, x, c)),
    "gelu": (range(4), lambda tape, x, y, c, p: dm.gelu(tape, x)),
    "relu": (range(4), lambda tape, x, y, c, p: dm.relu(tape, x)),
    "elementwise_abs": (range(4), lambda tape, x, y, c, p: dm.elementwise_abs(tape, x)),
    "mean_all": (range(4), lambda tape, x, y, c, p: dm.mean_all(tape, x)),
    "bce_with_logits": (range(4), lambda tape, x, y, c, p: dm.bce_with_logits(tape, x, c > 0)),
    "reshape": (range(4), lambda tape, x, y, c, p: dm.reshape(tape, x, (-1,))),
    "stack": (range(4), lambda tape, x, y, c, p: dm.stack(tape, [x, y])),
    "concat": (range(1, 4), lambda tape, x, y, c, p: dm.concat(tape, [x, y], axis=x.ndim - 1)),
    "softmax": (range(1, 4), lambda tape, x, y, c, p: dm.softmax(tape, x)),
    "l2_normalize": (range(1, 4), lambda tape, x, y, c, p: dm.l2_normalize(tape, x)),
    "layer_norm": (range(1, 4), lambda tape, x, y, c, p: dm.layer_norm(tape, x, p["gain"], p["bias"])),
    "dot": (range(1, 4), lambda tape, x, y, c, p: dm.dot(tape, x, y)),
    "gather_rows": (range(1, 4), lambda tape, x, y, c, p: dm.gather_rows(tape, x, [1, 0, 1])),
    "affine": (range(2, 4), lambda tape, x, y, c, p: dm.affine(tape, x, p["w"], p["b"])),
    "matmul": (range(2, 4), lambda tape, x, y, c, p: dm.matmul(tape, x, dm.transpose(tape, y))),
    "transpose": (range(2, 4), lambda tape, x, y, c, p: dm.transpose(tape, x)),
    "mean_rows": ([2], lambda tape, x, y, c, p: dm.mean_rows(tape, x, [1, 4, 2])),
    "embedding_bag": ([2], lambda tape, x, y, c, p:
                      dm.embedding_bag(tape, x, [[0, 2], [1, 1]], [[1.0, 0.5], [0.0, 2.0]])),
}


def test_every_kernel_is_run_read_only_by_rank():
    assert {case.split("-")[0] for case in _BY_RANK} == _kernel_names()


@pytest.mark.parametrize("case, rank", [(case, rank) for case, (ranks, _) in _BY_RANK.items() for rank in ranks])
def test_kernels_never_write_their_inputs_at_any_rank(case, rank):
    """A kernel's forward and backward pass over read-only operands and a
    read-only upstream gradient, at every rank from 0 to 3 it takes: on a
    rank-0 operand numpy gives scalars, which an in-place chain cannot write."""
    rng = np.random.default_rng(rank)
    shape = _RANK_SHAPES[rank]
    x, y = (dm.Tensor(rng.normal(size=shape)) for _ in range(2))
    c = np.asarray(rng.normal(size=shape))
    p = {name: dm.Tensor(rng.normal(size=s)) for name, s in (("gain", 4), ("bias", 4), ("w", (4, 2)), ("b", 2))}
    with mock.patch.multiple(dm, **_read_only_kernels()):
        out = _BY_RANK[case][1](dm.GradTape(), x, y, c, p)
        out._backward(rng.normal(size=out.shape))
    assert x.grad is not None and np.all(np.isfinite(x.grad))


# The formulas of the kernels that chain their operations in place, as
# written before they did: the output, then the gradients of x and of each
# parameter for upstream gradient g
def _gelu_formula(x, g):
    t = np.tanh(dm.GELU_C * (x + 0.044715 * (x * x * x)))
    d = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dm.GELU_C * (1.0 + 3 * 0.044715 * x**2)
    return 0.5 * x * (1.0 + t), [g * d]


def _layer_norm_formula(x, gain, bias, g):
    n = x.shape[-1]
    centred = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    var = np.add.reduce(np.square(centred), axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + dm.LAYER_NORM_EPS)
    xhat = centred * inv
    dxhat = g * gain
    dx = inv * (dxhat - np.add.reduce(dxhat, axis=-1, keepdims=True) / n
                - xhat * (np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / n))
    return xhat * gain + bias, [dx, _sum_leading(g * xhat), _sum_leading(g)]


def _softmax_formula(x, g):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    return p, [p * (g - (g * p).sum(axis=-1, keepdims=True))]


def _affine_formula(x, w, b, g):
    rows, g_rows = x.reshape(-1, w.shape[0]), g.reshape(-1, w.shape[1])
    return (rows @ w + b).reshape(g.shape), [(g_rows @ w.T).reshape(x.shape), rows.T @ g_rows, g_rows.sum(axis=0)]


def _l2_normalize_formula(x, g):
    rows, g_rows = x.reshape(-1, x.shape[-1]), g.reshape(-1, x.shape[-1])
    n = np.sqrt(dm._row_dots(rows, rows))
    y = rows / n[:, None]
    return y.reshape(x.shape), [((g_rows - y * dm._row_dots(g_rows, y)[:, None]) / n[:, None]).reshape(x.shape)]


def _bce_formula(x, y, g):
    out = np.where(y > 0.5, np.logaddexp(0.0, -x), np.logaddexp(0.0, x))
    return out, [g * (dm._sigmoid_stable(np.atleast_1d(x * 1.0)).reshape(x.shape) - y)]


# kernel -> (ranks it takes, the kernel, its parameters' shapes, its formulas)
_FORMULAS = {
    "gelu": (range(4), dm.gelu, [], _gelu_formula),
    "layer_norm": (range(1, 4), dm.layer_norm, [(4,), (4,)], _layer_norm_formula),
    "softmax": (range(1, 4), dm.softmax, [], _softmax_formula),
    "affine": (range(2, 4), dm.affine, [(4, 3), (3,)], _affine_formula),
    "l2_normalize": (range(1, 4), dm.l2_normalize, [], _l2_normalize_formula),
}


@pytest.mark.parametrize("name, rank", [(name, rank) for name, (ranks, *_) in _FORMULAS.items() for rank in ranks])
@pytest.mark.parametrize("seed", range(3))
def test_in_place_kernels_equal_their_formulas_bitwise(name, rank, seed):
    """Output and every gradient against the formulas as written, on
    read-only operands of magnitudes 1e-3 to 1e3 with signed zeros, and a
    read-only upstream gradient."""
    _, kernel, param_shapes, formula = _FORMULAS[name]
    rng = np.random.default_rng(seed)
    shape = _RANK_SHAPES[rank]

    def draw(shape):
        a = np.asarray(rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape))
        a.reshape(-1)[1::5] *= 0.0  # +0.0 and -0.0, no row all zeros
        a.flags.writeable = False
        return a

    x, params = draw(shape), [draw(s) for s in param_shapes]
    g = draw(shape[:-1] + param_shapes[-1] if name == "affine" else shape)
    want_out, want_grads = formula(x, *params, g)
    tensors = [dm.Tensor(a) for a in (x, *params)]
    out = kernel(dm.GradTape(), *tensors)
    assert out.data.tobytes() == np.asarray(want_out).tobytes()
    out._backward(g)
    for t, want in zip(tensors, want_grads):
        assert t.grad.tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("rank", range(4))
def test_bce_with_logits_equals_its_formula_bitwise(rank):
    rng = np.random.default_rng(rank)
    shape = _RANK_SHAPES[rank]
    z, g = (_read_only(rng.normal(scale=5.0, size=shape)) for _ in range(2))
    y = _read_only(rng.integers(0, 2, size=shape).astype(float))
    want_out, (want_grad,) = _bce_formula(z, y, g)
    t = dm.Tensor(z)
    out = dm.bce_with_logits(dm.GradTape(), t, y)
    assert out.data.tobytes() == np.asarray(want_out).tobytes()
    out._backward(g)
    assert t.grad.tobytes() == np.asarray(want_grad).tobytes()


def test_kernels_deterministic():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 5))
    a = dm.softmax(None, dm.Tensor(x)).data
    b = dm.softmax(None, dm.Tensor(x.copy())).data
    np.testing.assert_array_equal(a, b)


def test_abs_subgradient_zero_at_zero():
    tape = dm.GradTape()
    t = dm.Tensor([0.0, -2.0, 3.0])
    out = dm.mean_all(tape, dm.elementwise_abs(tape, t))
    tape.backward(out)
    np.testing.assert_array_equal(t.grad, np.array([0.0, -1.0, 1.0]) / 3)


def test_tape_isolates_unrelated_parameters():
    a = dm.Tensor(np.ones(3))
    b = dm.Tensor(np.ones(3))
    tape = dm.GradTape()
    out = dm.mean_all(tape, dm.mul(tape, a, 2.0))
    tape.backward(out)
    assert b.grad is None
    np.testing.assert_array_equal(a.grad, np.full(3, 2.0 / 3))


_SECOND_USES = {
    "scatter": lambda tape, a: dm.gather_rows(tape, a, [1, 1]),  # a row scatter
    "accumulate": lambda tape, a: dm.mul(tape, a, 2.0),  # an accumulation
    "product": lambda tape, a: dm.matmul(tape, a, np.eye(3)),  # a product
}


@pytest.mark.parametrize("use, operands", [
    pytest.param(use, operands, id=use if operands == "leaves" else f"{use}-{operands.replace(' ', '-')}")
    for operands in ("leaves", "leaves with buffers", "nodes") for use in _SECOND_USES
])
def test_shared_gradient_survives_a_later_gradient_of_one_operand(use, operands):
    """dm.add hands both operands one gradient array; a gradient that one
    operand receives later must not write into it: not when the operand is
    a leaf, whose buffer may already exist from an earlier pass, and not
    when it is a recorded node, which keeps the shared array itself (the
    other node's backward reads it after the later gradient has landed)."""
    a, b = dm.Tensor(np.ones((2, 3))), dm.Tensor(np.ones((2, 3)))

    def run():
        tape = dm.GradTape()
        x, y = (dm.reshape(tape, t, (2, 3)) for t in (a, b)) if operands == "nodes" else (a, b)
        other = _SECOND_USES[use](tape, x)  # recorded after x and y, so its backward runs between add's and theirs
        tape.backward(dm.add(tape, dm.mean_all(tape, dm.add(tape, x, y)), dm.mean_all(tape, other)))

    if operands == "leaves with buffers":
        run()
        a.grad = b.grad = None
        assert a.buffer() is not None and b.buffer() is not None
    run()
    np.testing.assert_array_equal(b.grad, np.full((2, 3), 1 / 6))
    assert not np.array_equal(a.grad, b.grad)


class TestGradientBuffers:
    """A leaf writes each pass's gradient into the one buffer it owns; a
    recorded node's gradient is dropped once its backward has run."""

    @staticmethod
    def _pass(w, x, b):
        tape = dm.GradTape()
        h = dm.affine(tape, x, w, b)
        out = dm.mean_all(tape, dm.embedding_bag(tape, h, [[0, 2], [1, 1]], [[1.0, 0.5], [2.0, 0.0]]))
        tape.backward(out)
        return h, out

    def test_leaf_keeps_one_buffer_across_passes(self):
        rng = np.random.default_rng(0)
        w, b = dm.Tensor(rng.normal(size=(4, 3))), dm.Tensor(rng.normal(size=3))
        x = dm.Tensor(rng.normal(size=(3, 4)))
        assert w.grad is None and w._buffer is None  # allocated at the first gradient, not before
        self._pass(w, x, b)
        first, w_before = {t: t.grad for t in (w, x, b)}, w.grad.copy()
        for t in (w, x, b):
            assert t.grad is t.buffer()
            t.grad = None
        x.data = x.data * 2.0
        self._pass(w, x, b)
        for t, buf in first.items():
            assert t.grad is buf  # the same array object, rewritten
        assert not np.array_equal(w.grad, w_before)
        # the pass's gradient, not the sum of both passes
        want = dm.Tensor(w.data.copy())
        self._pass(want, dm.Tensor(x.data), dm.Tensor(b.data))
        assert w.grad.tobytes() == want.grad.tobytes()

    def test_node_gradients_dropped_after_backward(self):
        rng = np.random.default_rng(1)
        w, b = dm.Tensor(rng.normal(size=(4, 3))), dm.Tensor(rng.normal(size=3))
        x = dm.Tensor(rng.normal(size=(3, 4)))
        h, out = self._pass(w, x, b)
        assert h.grad is None and out.grad is None
        assert all(t.grad is not None for t in (w, x, b))


def _assert_zero_outside_record(t: dm.Tensor) -> None:
    """t.grad is +0.0, by its bytes, in every row outside t's record, whose rows ascend."""
    rows = t.grad_rows()
    assert rows is not None and np.all(np.diff(rows) > 0)
    outside = np.ones(len(t.grad), dtype=bool)
    outside[rows] = False
    assert t.grad[outside].tobytes() == np.zeros(t.grad[outside].shape).tobytes()


class TestBufferRecord:
    """A leaf's buffer records the rows a row scatter added into; the next
    pass re-zeroes only those, and any other write makes the record
    unknown. Every pass's gradient equals, byte for byte, what the same
    pass gives a new leaf, whose scatter starts from a zero-filled buffer."""

    # the gradient-carrying uses of a leaf in one pass: row scatters, and
    # kernels that write its buffer whole
    USES = {
        "gather": lambda tape, t, rows: dm.gather_rows(tape, t, rows),
        "bag": lambda tape, t, rows: dm.embedding_bag(tape, t, [rows], [np.linspace(0.5, 1.5, len(rows))]),
        "accumulate": lambda tape, t, rows: dm.mul(tape, t, 2.0),
        "product": lambda tape, t, rows: dm.matmul(tape, t, np.eye(3)),
    }

    @classmethod
    def _pass(cls, t: dm.Tensor, uses) -> None:
        """One backward pass of the sum of squares of each use, recorded in order."""
        t.grad = None
        tape = dm.GradTape()
        terms = []
        for use, rows in uses:
            out = cls.USES[use](tape, t, np.asarray(rows))
            terms.append(dm.mean_all(tape, dm.mul(tape, out, out)))
        total = terms[0]
        for term in terms[1:]:
            total = dm.add(tape, total, term)
        tape.backward(total)

    @classmethod
    def _check(cls, t: dm.Tensor, uses) -> None:
        cls._pass(t, uses)
        fresh = dm.Tensor(t.data)
        cls._pass(fresh, uses)
        assert t.grad is t.buffer() and t.grad.tobytes() == fresh.grad.tobytes()

    def test_scatters_record_their_rows_and_the_next_pass_rezeroes_them(self):
        t = dm.Tensor(np.random.default_rng(0).normal(size=(8, 3)))
        self._check(t, [("gather", [5, 1, 5])])
        assert t.grad_rows().tolist() == [1, 5]
        _assert_zero_outside_record(t)
        # two scatters in one pass: the record is the union of their rows
        self._check(t, [("gather", [0, 2]), ("bag", [6, 2])])
        assert t.grad_rows().tolist() == [0, 2, 6]
        _assert_zero_outside_record(t)
        # rows 0, 2 and 6 of the last pass come out zero
        self._check(t, [("bag", [3])])
        assert t.grad_rows().tolist() == [3]
        _assert_zero_outside_record(t)

    @pytest.mark.parametrize("dense", ["accumulate", "product"])
    @pytest.mark.parametrize("first", ["scatter", "dense"])
    def test_a_write_other_than_a_scatter_makes_the_record_unknown(self, dense, first):
        t = dm.Tensor(np.random.default_rng(1).normal(size=(8, 3)))
        self._check(t, [("gather", [4])])
        # backward runs in reverse: the use recorded last writes first
        uses = [("gather", [2, 7]), (dense, [])]
        self._check(t, uses if first == "dense" else uses[::-1])
        assert t.grad_rows() is None
        # the next pass zeroes every row the dense write left nonzero
        self._check(t, [("gather", [1])])
        assert t.grad_rows().tolist() == [1]
        _assert_zero_outside_record(t)

    def test_gradient_other_than_the_buffer_has_no_record(self):
        t = dm.Tensor(np.ones((4, 2)))
        self._check(t, [("gather", [1])])
        t.grad = np.ones((4, 2))  # assigned from outside: the buffer's record does not describe it
        assert t.grad_rows() is None
        dm.gather_rows(dm.GradTape(), t, [2])._backward(np.ones((1, 2)))
        assert t.grad_rows() is None and t.grad[0].tolist() == [1.0, 1.0]

    def test_zeroed_buffer_writes_the_recorded_rows_and_records_none(self):
        t = dm.Tensor(np.ones((5, 2)))
        self._check(t, [("gather", [3])])
        t.grad = t.zeroed_buffer()
        assert t.grad.tobytes() == np.zeros((5, 2)).tobytes() and t.grad_rows().size == 0
        s = dm.Tensor(np.ones(()))  # a rank-0 buffer, zeroed twice, records nothing it cannot index
        for _ in range(2):
            s.grad = s.zeroed_buffer()
            assert s.grad.tobytes() == np.zeros(()).tobytes() and s.grad_rows() is None


def test_finite_outputs_on_finite_inputs():
    rng = np.random.default_rng(11)
    x = dm.Tensor(rng.normal(scale=50, size=(6, 8)))
    for out in (
        dm.gelu(None, x),
        dm.softmax(None, x),
        dm.layer_norm(None, x, dm.Tensor(np.ones(8)), dm.Tensor(np.zeros(8))),
        dm.bce_with_logits(None, x, np.ones((6, 8))),
    ):
        assert np.all(np.isfinite(out.data))


class TestGatherRowsBackward:
    """The backward adds each gradient row into its gathered row in index
    order and leaves every other row alone, one path for every index set.
    Where no row is gathered twice, that is bit-identical to accumulating a
    dense zero buffer that the gradient rows were scattered into."""

    @staticmethod
    def _dense_reference(grad, shape, idx, g):
        buf = np.zeros(shape)
        np.add.at(buf, idx, g)
        return buf if grad is None else grad + buf

    @staticmethod
    def _backward(grad, idx, g):
        a = dm.Tensor(np.random.default_rng(0).normal(size=(6, 3)))
        a.grad = None if grad is None else grad.copy()
        out = dm.gather_rows(dm.GradTape(), a, idx)
        out._backward(g)
        return a.grad

    def test_unique_indices_fresh_grad(self):
        idx = np.array([4, 0, 2])
        g = np.random.default_rng(1).normal(size=(3, 3))
        got = self._backward(None, idx, g)
        assert got.tobytes() == self._dense_reference(None, (6, 3), idx, g).tobytes()

    def test_existing_grad(self):
        rng = np.random.default_rng(2)
        grad = rng.normal(size=(6, 3))
        grad[1] = 0.0
        idx = np.array([1, 5, 3, 0])
        g = rng.normal(size=(4, 3))
        got = self._backward(grad, idx, g)
        assert got.tobytes() == self._dense_reference(grad, (6, 3), idx, g).tobytes()

    def test_signed_zero_gradients(self):
        g = np.array([[-0.0, 0.0, -0.0], [0.0, -0.0, 1.5]])
        idx = np.array([3, 1])
        for grad in (None, np.zeros((6, 3)), np.full((6, 3), 0.25)):
            got = self._backward(grad, idx, g)
            want = self._dense_reference(grad, (6, 3), idx, g)
            assert got.tobytes() == want.tobytes()
        assert not np.signbit(self._backward(None, idx, g)).any()
        # a permutation touches every row, so even an existing -0.0 comes
        # out as the dense sum's +0.0
        perm = np.array([3, 1, 0, 5, 2, 4])
        g = np.where(np.arange(18).reshape(6, 3) % 2 == 0, -0.0, 0.0)
        grad = np.full((6, 3), -0.0)
        got = self._backward(grad, perm, g)
        assert got.tobytes() == self._dense_reference(grad, (6, 3), perm, g).tobytes()

    def test_repeated_indices_accumulate(self):
        idx = np.array([2, 2, 0, 2])
        g = np.arange(12.0).reshape(4, 3)
        got = self._backward(np.ones((6, 3)), idx, g)
        np.testing.assert_array_equal(got, self._dense_reference(np.ones((6, 3)), (6, 3), idx, g))

    def test_constant_operand_gets_no_gradient(self):
        out = dm.gather_rows(dm.GradTape(), np.ones((4, 2)), np.array([1, 3]))
        out._backward(np.ones((2, 2)))  # nothing to accumulate into


class TestEmbeddingBag:
    def test_bags_with_pads_and_an_empty_text(self):
        table = np.arange(12.0).reshape(4, 3)
        # bag 0: rows 1 and 3; bag 1: row 0 with weight 1 (an empty text)
        ids = np.array([[1, 0], [3, 0]])
        weights = np.array([[0.25, 1.0], [0.75, 0.0]])
        out = dm.embedding_bag(None, dm.Tensor(table), ids, weights)
        np.testing.assert_array_equal(out.data, [0.25 * table[1] + 0.75 * table[3], table[0]])

    def test_pad_slots_pass_no_gradient(self):
        # a pad's g * 0 would be NaN for an infinite g
        t = dm.Tensor(np.ones((3, 2)))
        out = dm.embedding_bag(dm.GradTape(), t, [[2, 1], [0, 0]], [[1.0, 0.5], [0.0, 0.0]])
        out._backward(np.array([[np.inf, 1.0], [2.0, 3.0]]))
        np.testing.assert_array_equal(t.grad, [[0.0, 0.0], [1.0, 1.5], [np.inf, 1.0]])

    def test_signed_zeros_added_to_an_existing_gradient(self):
        # a -0.0 added onto an existing -0.0 comes out +0.0; a row no bag
        # reads keeps its -0.0
        t = dm.Tensor(np.ones((3, 2)))
        t.grad = np.full((3, 2), -0.0)
        out = dm.embedding_bag(dm.GradTape(), t, [[2, 1]], [[1.0, 0.5]])
        out._backward(np.array([[-0.0, 1.0], [-0.0, -0.0]]))
        assert t.grad.tobytes() == np.array([[-0.0, -0.0], [0.0, 0.0], [0.0, 1.0]]).tobytes()

    def test_shape_mismatch(self):
        with pytest.raises(dm.DimensionMismatch):
            dm.embedding_bag(None, dm.Tensor(np.ones((3, 2))), [[0, 1]], [[1.0], [1.0]])
        with pytest.raises(dm.DimensionMismatch):
            dm.embedding_bag(None, dm.Tensor(np.ones(3)), [[0, 1]], [[1.0, 1.0]])


_SIGNED = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-100.0, 100.0))


@st.composite
def _bag_cases(draw):
    rows, width = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    slots, bags = draw(st.integers(1, 5)), draw(st.integers(0, 5))
    table = draw(arrays(np.float64, (rows, width), elements=st.floats(-100.0, 100.0)))
    ids = draw(arrays(np.intp, (slots, bags), elements=st.integers(0, rows - 1)))
    weights = draw(arrays(np.float64, (slots, bags), elements=_SIGNED))
    g = draw(arrays(np.float64, (bags, width), elements=_SIGNED))
    grad = draw(st.none() | arrays(np.float64, (rows, width), elements=_SIGNED))
    order = draw(st.sampled_from("CF"))
    return table, ids, weights, g, grad, order


@given(_bag_cases(), st.sampled_from([1, 8, 24, dm.BAG_BLOCK]))
def test_embedding_bag_equals_numpy_bitwise(case, block):
    """Forward and table gradient against plain numpy: repeated rows, pads
    (weight 0), signed zeros in the gradient, and a fresh or an existing
    C- or F-ordered table gradient; bags pooled one, a few or all to a block."""
    table, ids, weights, g, grad, order = case
    t = dm.Tensor(table.copy())
    if grad is not None:
        t.grad = np.array(grad, order=order)
    with mock.patch.object(dm, "BAG_BLOCK", block):
        out = dm.embedding_bag(dm.GradTape(), t, ids, weights)
    assert out.data.tobytes() == (table[ids] * weights[..., None]).sum(0).tobytes()
    out._backward(g)
    want = np.zeros_like(table) if grad is None else grad.copy()
    real = weights != 0  # a pad adds nothing, not even +0.0 onto an existing -0.0
    np.add.at(want, ids[real], (g * weights[..., None])[real] + 0.0)
    assert t.grad.tobytes() == want.tobytes()


@pytest.mark.parametrize("width", [1, 4])
@pytest.mark.parametrize("block", [1, 96, 144, 240, 10**6])
def test_embedding_bag_blocks_sum_as_one_pass(width, block):
    """Bags split over blocks, the last one partial, sum bit for bit as in
    one pass: at width 4, 48 elements a bag, so 1, 2, 3 or 5 bags a block
    and one block of all 7. A table of width 1 is always one block: numpy
    sums one column of one bag of 9 or more slots pairwise."""
    rng = np.random.default_rng(0)
    table = rng.normal(size=(10, width)) * 10.0 ** rng.integers(-8, 9, size=(10, width))
    ids = rng.integers(0, 10, size=(12, 7))
    weights = rng.uniform(size=(12, 7))
    weights[:, 2] = 0.0  # all pads
    ids[:, 5], weights[:, 5] = 0, 0.0
    weights[0, 5] = 1.0  # an empty text: bucket 0 with weight 1
    with mock.patch.object(dm, "BAG_BLOCK", block):
        out = dm.embedding_bag(None, dm.Tensor(table), ids, weights)
    assert out.data.tobytes() == (table[ids] * weights[..., None]).sum(0).tobytes()


@st.composite
def _gather_cases(draw):
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple))
    idx_shape = st.lists(st.integers(1, 4), min_size=1, max_size=2).map(tuple)
    idx = draw(arrays(np.intp, idx_shape, elements=st.integers(0, shape[0] - 1)))
    g = draw(arrays(np.float64, idx.shape + shape[1:], elements=_SIGNED))
    grad = draw(st.none() | arrays(np.float64, shape, elements=_SIGNED))
    order = draw(st.sampled_from("CF"))
    transposed = len(shape) >= 2 and draw(st.booleans())
    return shape, idx, g, grad, order, transposed


@given(_gather_cases())
def test_gather_rows_backward_equals_add_at_bitwise(case):
    """The operand's gradient against np.add.at of g + 0.0 into zeros or its
    existing gradient: repeated and grouped indices, rank 1 to 3, signed
    zeros, a C- or F-ordered existing gradient, and a dm.transpose operand,
    whose data is not C-ordered."""
    shape, idx, g, grad, order, transposed = case
    tape = dm.GradTape()
    x = dm.Tensor(np.zeros(shape[:-2] + shape[-2:][::-1] if transposed else shape))
    a = dm.transpose(tape, x) if transposed else x
    if grad is not None:
        a.grad = np.asarray(grad, order=order)
    want = np.zeros(shape) if grad is None else grad.copy()
    np.add.at(want, idx, g + 0.0)
    dm.gather_rows(tape, a, idx)._backward(g)
    assert a.grad.tobytes() == want.tobytes()


# signed zeros, moderate values, and values near 1e150, whose squares stay
# finite but whose mean and variance carry large rounding
_REDUCED = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-100.0, 100.0),
                     st.floats(1e149, 1e151), st.floats(-1e151, -1e149))


@st.composite
def _layer_norm_cases(draw):
    width = draw(st.integers(1, 6))
    shape = tuple(draw(st.lists(st.integers(1, 3), max_size=2))) + (width,)
    x = draw(arrays(np.float64, shape, elements=_REDUCED))
    if draw(st.booleans()):
        x.reshape(-1, width)[0] = -0.0
    gain, bias = (draw(arrays(np.float64, (width,), elements=_SIGNED)) for _ in range(2))
    g = draw(arrays(np.float64, shape, elements=_SIGNED))
    return x, gain, bias, g


def _sum_leading(a):
    while a.ndim > 1:
        a = a.sum(axis=0)
    return a


@given(_layer_norm_cases())
def test_layer_norm_equals_mean_var_formulation_bitwise(case):
    """Forward and every gradient against layer norm written with np.mean
    and np.var: ranks 1 to 3, a width of 1, rows of -0.0, values near 1e150."""
    x, gain, bias, g = case
    mu = x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + dm.LAYER_NORM_EPS)
    xhat = (x - mu) * inv
    dxhat = g * gain
    dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    tx, tg, tb = dm.Tensor(x), dm.Tensor(gain), dm.Tensor(bias)
    out = dm.layer_norm(dm.GradTape(), tx, tg, tb)
    assert out.data.tobytes() == (xhat * gain + bias).tobytes()
    out._backward(g)
    assert tx.grad.tobytes() == dx.tobytes()
    assert tg.grad.tobytes() == _sum_leading(g * xhat).tobytes()
    assert tb.grad.tobytes() == _sum_leading(g).tobytes()


@given(arrays(np.float64, st.lists(st.integers(1, 4), max_size=3).map(tuple), elements=_REDUCED))
def test_mean_all_equals_np_mean_bitwise(x):
    assert dm.mean_all(None, dm.Tensor(x)).data.tobytes() == np.asarray(x.mean()).tobytes()


@st.composite
def _mean_rows_cases(draw):
    rows, width = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    x = draw(arrays(np.float64, (rows, width), elements=_REDUCED))
    lengths = draw(arrays(np.int64, (rows,), elements=st.integers(1, width)))
    return x, lengths


@given(_mean_rows_cases())
def test_mean_rows_equals_masked_np_mean_bitwise(case):
    x, lengths = case
    mask = np.arange(x.shape[1]) < lengths[:, None]
    assert dm.mean_rows(None, dm.Tensor(x), lengths).data.tobytes() == np.mean(x, axis=1, where=mask).tobytes()


class TestBatchedKernels:
    def test_rank3_matmul_is_per_slice_product(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(4, 3, 5)), rng.normal(size=(4, 5, 2))
        out = dm.matmul(None, dm.Tensor(a), dm.Tensor(b)).data
        for i in range(4):
            np.testing.assert_allclose(out[i], a[i] @ b[i], rtol=1e-14)

    def test_rank3_by_matrix_equals_each_vector_product_bitwise(self):
        rng = np.random.default_rng(0)
        x, w = rng.normal(size=(50, 1, 64)), rng.normal(size=(64, 32))
        out = dm.matmul(None, dm.Tensor(x), dm.Tensor(w)).data
        assert out.shape == (50, 1, 32)
        for i in range(50):
            assert out[i, 0].tobytes() == (x[i, 0] @ w).tobytes()

    def test_matmul_rank_and_batch_mismatch(self):
        rng = np.random.default_rng(0)
        with pytest.raises(dm.DimensionMismatch):
            dm.matmul(None, dm.Tensor(rng.normal(size=(2, 3, 4))), dm.Tensor(rng.normal(size=(3, 4, 2))))
        with pytest.raises(dm.DimensionMismatch):
            dm.matmul(None, dm.Tensor(rng.normal(size=4)), dm.Tensor(rng.normal(size=(4, 2))))

    def test_mean_rows_equals_each_prefix_mean_bitwise(self):
        a = np.random.default_rng(0).normal(size=(40, 43))
        lengths = np.arange(1, 41)
        out = dm.mean_rows(None, dm.Tensor(a), lengths).data
        for i, n in enumerate(lengths):
            assert out[i].tobytes() == np.mean(a[i, :n]).tobytes(), n

    def test_mean_rows_needs_a_nonempty_prefix_per_row(self):
        with pytest.raises(dm.DimensionMismatch):
            dm.mean_rows(None, dm.Tensor(np.ones((2, 3))), [1, 0])
        with pytest.raises(dm.DimensionMismatch):
            dm.mean_rows(None, dm.Tensor(np.ones((2, 3))), [1, 4])

    def test_rowwise_dot_equals_np_dot_bitwise(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(5, 7, 32)), rng.normal(size=(5, 7, 32))
        out = dm.dot(None, dm.Tensor(a), dm.Tensor(b)).data
        assert out.shape == (5, 7)
        for i in range(5):
            for j in range(7):
                assert out[i, j].tobytes() == np.dot(a[i, j], b[i, j]).tobytes()

    def test_transpose_swaps_last_two_axes(self):
        x = np.arange(24.0).reshape(2, 3, 4)
        np.testing.assert_array_equal(dm.transpose(None, dm.Tensor(x)).data, x.transpose(0, 2, 1))
        np.testing.assert_array_equal(dm.transpose(None, dm.Tensor(x[0])).data, x[0].T)

    def test_affine_rank2_equals_matmul_then_add_bitwise(self):
        rng = np.random.default_rng(1)
        x, w, b = (dm.Tensor(rng.normal(size=s)) for s in ((5, 4), (4, 3), (3,)))
        tape_a, tape_b = dm.GradTape(), dm.GradTape()
        fused = dm.affine(tape_a, x, w, b)
        tape_a.backward(dm.mean_all(tape_a, dm.mul(tape_a, fused, fused)))
        grads = [t.grad.copy() for t in (x, w, b)]
        for t in (x, w, b):
            t.grad = None
        split = dm.add(tape_b, dm.matmul(tape_b, x, w), b)
        tape_b.backward(dm.mean_all(tape_b, dm.mul(tape_b, split, split)))
        assert fused.data.tobytes() == split.data.tobytes()
        for g, t in zip(grads, (x, w, b)):
            assert g.tobytes() == t.grad.tobytes()

    def test_affine_rank3_applies_to_every_row(self):
        rng = np.random.default_rng(2)
        x, w, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)), rng.normal(size=5)
        out = dm.affine(None, dm.Tensor(x), dm.Tensor(w), dm.Tensor(b)).data
        np.testing.assert_allclose(out, x @ w + b, rtol=1e-14)
        with pytest.raises(dm.DimensionMismatch):
            dm.affine(None, dm.Tensor(x), dm.Tensor(w), dm.Tensor(np.zeros(4)))

    @pytest.mark.parametrize("idx", [[[4, 0, 1], [1, 1, 3]], [[4, 0], [2, 3]]])
    def test_gather_rows_with_grouped_index(self, idx):
        # a (G, K) index gives (G, K, width); repeated and unique indices
        a = dm.Tensor(np.random.default_rng(3).normal(size=(5, 2)))
        idx = np.array(idx)
        tape = dm.GradTape()
        out = dm.gather_rows(tape, a, idx)
        np.testing.assert_array_equal(out.data, a.data[idx])
        tape.backward(out)
        expected = np.zeros((5, 2))
        np.add.at(expected, idx.ravel(), np.ones(2))
        np.testing.assert_array_equal(a.grad, expected)
