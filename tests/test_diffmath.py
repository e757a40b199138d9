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


@pytest.mark.parametrize("seed", range(12))
def test_kernel_jvp_matches_finite_differences(seed):
    report = kernel_gradchecks(seed, tol=1e-4)
    assert report.passed, f"worst kernel {report.worst_case}: {report.max_relative_error}"


def test_every_kernel_is_gradchecked():
    kernels = {name for name, fn in vars(dm).items()
               if inspect.isfunction(fn) and fn.__module__ == dm.__name__ and not name.startswith("_")
               and list(inspect.signature(fn).parameters)[:1] == ["tape"]}
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
    """The backward adds into the gathered rows only. For unique indices
    that is bit-identical to accumulating a dense zero buffer that the
    gradient rows were scattered into."""

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
    return table, ids, weights, g


@given(_bag_cases())
def test_embedding_bag_equals_numpy_bitwise(case):
    """Forward and table gradient against plain numpy: repeated rows, pads
    (weight 0) and signed zeros in the gradient."""
    table, ids, weights, g = case
    t = dm.Tensor(table.copy())
    out = dm.embedding_bag(dm.GradTape(), t, ids, weights)
    assert out.data.tobytes() == (table[ids] * weights[..., None]).sum(0).tobytes()
    out._backward(g)
    want = np.zeros_like(table)
    np.add.at(want, ids, g * weights[..., None] + 0.0)
    assert t.grad.tobytes() == want.tobytes()


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
