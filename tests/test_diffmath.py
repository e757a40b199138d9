"""Kernel-level forward values and backward-pass verification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmcreg import diffmath as dm
from xmcreg.verify import kernel_gradchecks


class TestL2Normalize:
    def test_three_four_five(self):
        out = dm.l2_normalize(None, dm.Tensor([3.0, 4.0]))
        np.testing.assert_allclose(out.data, [0.6, 0.8], atol=1e-15)

    def test_zero_vector_maps_to_zero(self):
        out = dm.l2_normalize(None, dm.Tensor([0.0, 0.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0])

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
        out = dm.layer_norm(None, dm.Tensor([1.0, -1.0]), dm.Tensor(np.ones(2)), dm.Tensor(np.zeros(2)), eps=1e-14)
        np.testing.assert_allclose(out.data, [1.0, -1.0], atol=1e-6)

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
