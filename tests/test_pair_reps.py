"""Pair features, the contextualizing encoder block, and its equivariance."""

import numpy as np
import pytest

from xmcreg import diffmath as dm
from xmcreg.diffmath import DimensionMismatch
from xmcreg.pair_reps import build_delta, build_gamma, contextualize, init_block


class TestBuildGamma:
    def test_orthonormal_basis(self):
        g = build_gamma(None, dm.Tensor([1.0, 0.0]), dm.Tensor([0.0, 1.0]))
        np.testing.assert_array_equal(g.data, [1, 0, 0, 1, 1, 1, 0, 0])

    def test_identical_inputs(self):
        h = dm.Tensor([0.3, -0.4, 0.5])
        g = build_gamma(None, h, h).data
        np.testing.assert_array_equal(g[6:9], np.zeros(3))  # |diff| slice
        np.testing.assert_allclose(g[9:12], h.data**2)  # product slice

    def test_abs_slice_nonnegative(self):
        rng = np.random.default_rng(0)
        g = build_gamma(None, dm.Tensor(rng.normal(size=8)), dm.Tensor(rng.normal(size=8))).data
        assert np.all(g[16:24] >= 0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_gamma(None, dm.Tensor([1.0, 0.0]), dm.Tensor([1.0, 0.0, 0.0]))

    def test_rows_equal_pairs_one_at_a_time(self):
        rng = np.random.default_rng(2)
        hq, hl = rng.normal(size=(5, 8)), rng.normal(size=(5, 8))
        g = build_gamma(None, dm.Tensor(hq), dm.Tensor(hl)).data
        for i in range(5):
            assert g[i].tobytes() == build_gamma(None, dm.Tensor(hq[i]), dm.Tensor(hl[i])).data.tobytes()

    @pytest.mark.parametrize("d", [2, 8, 32])
    def test_shape_law(self, d):
        rng = np.random.default_rng(d)
        g = build_gamma(None, dm.Tensor(rng.normal(size=d)), dm.Tensor(rng.normal(size=d)))
        assert g.shape == (4 * d,)


class TestBuildDelta:
    def test_identity_contextualization(self):
        rng = np.random.default_rng(0)
        g = dm.Tensor(rng.normal(size=8))
        delta = build_delta(None, g, g).data
        np.testing.assert_array_equal(delta[:8], g.data)
        np.testing.assert_array_equal(delta[8:16], g.data)
        np.testing.assert_array_equal(delta[16:24], np.zeros(8))
        np.testing.assert_allclose(delta[24:], g.data**2)

    @pytest.mark.parametrize("d", [2, 8, 32])
    def test_shape_law(self, d):
        rng = np.random.default_rng(d)
        g = dm.Tensor(rng.normal(size=4 * d))
        lam = dm.Tensor(rng.normal(size=4 * d))
        assert build_delta(None, g, lam).shape == (16 * d,)
        # d=32 -> |delta| = 512
        if d == 32:
            assert build_delta(None, g, lam).shape == (512,)

    def test_rank2_rows(self):
        rng = np.random.default_rng(1)
        g = dm.Tensor(rng.normal(size=(3, 8)))
        lam = dm.Tensor(rng.normal(size=(3, 8)))
        assert build_delta(None, g, lam).shape == (3, 32)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_delta(None, dm.Tensor(np.zeros(8)), dm.Tensor(np.zeros(12)))


class TestContextualize:
    def setup_method(self):
        self.rng = np.random.default_rng(7)
        self.block = init_block(self.rng, width=8)

    def test_output_shape(self):
        g = dm.Tensor(self.rng.normal(size=(5, 8)))
        assert contextualize(None, self.block, g).shape == (5, 8)

    def test_paper_scale_shape(self):
        block = init_block(np.random.default_rng(0), width=128)
        g = dm.Tensor(np.random.default_rng(1).normal(size=(5, 128)))
        assert contextualize(None, block, g).shape == (5, 128)

    def test_identical_rows_identical_outputs(self):
        row = self.rng.normal(size=8)
        g = dm.Tensor(np.tile(row, (4, 1)))
        out = contextualize(None, self.block, g).data
        for i in range(1, 4):
            np.testing.assert_array_equal(out[i], out[0])

    def test_permutation_equivariance_exact(self):
        g = self.rng.normal(size=(6, 8))
        out = contextualize(None, self.block, dm.Tensor(g)).data
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(6)
            out_p = contextualize(None, self.block, dm.Tensor(g[perm])).data
            np.testing.assert_array_equal(out_p, out[perm])

    def test_batch_permutation_equivariance_exact(self):
        # permuting the rows inside any group of a (G, K, 4d) batch
        # permutes that group's output rows, bit for bit
        g = self.rng.normal(size=(4, 5, 8))
        g[2, 3] = g[2, 1]  # tied rows keep their input order
        out = contextualize(None, self.block, dm.Tensor(g)).data
        for seed in range(5):
            perms = [np.random.default_rng([seed, i]).permutation(5) for i in range(4)]
            permuted = np.stack([g[i][p] for i, p in enumerate(perms)])
            out_p = contextualize(None, self.block, dm.Tensor(permuted)).data
            np.testing.assert_array_equal(out_p, np.stack([out[i][p] for i, p in enumerate(perms)]))

    def test_batch_matches_groups_one_at_a_time(self):
        g = self.rng.normal(size=(3, 4, 8))
        out = contextualize(None, self.block, dm.Tensor(g))
        assert out.shape == (3, 4, 8)
        for i in range(3):
            one = contextualize(None, self.block, dm.Tensor(g[i]))
            np.testing.assert_allclose(out.data[i], one.data, rtol=1e-12, atol=1e-14)

    def test_batch_with_tied_rows_and_signed_zeros_matches_groups_bitwise(self):
        g = self.rng.normal(size=(4, 5, 8))
        g[1, 3] = g[1, 0]
        g[2, :, 0] = 0.0
        g[2, 1, 0] = -0.0  # rows equal as numbers, not as bytes
        g[2, 2:4] = np.where(self.rng.random((2, 8)) < 0.5, -0.0, 0.0)
        g[3, 4] = g[3, 2] = -g[3, 0]
        out = contextualize(None, self.block, dm.Tensor(g))
        for i in range(4):
            one = contextualize(None, self.block, dm.Tensor(g[i]))
            assert out.data[i].tobytes() == one.data.tobytes()

    def test_needs_k_at_least_two(self):
        with pytest.raises(DimensionMismatch):
            contextualize(None, self.block, dm.Tensor(self.rng.normal(size=(1, 8))))

    def test_width_mismatch(self):
        with pytest.raises(DimensionMismatch):
            contextualize(None, self.block, dm.Tensor(self.rng.normal(size=(3, 12))))

    def test_gradient_through_delta_path(self):
        block = self.block
        g_in = dm.Tensor(self.rng.normal(size=(3, 8)))
        probe = self.rng.normal(size=(3, 32))

        def fn(tape):
            lam = contextualize(tape, block, g_in)
            delta = build_delta(tape, g_in, lam)
            return dm.mean_all(tape, dm.mul(tape, delta, probe))

        params = {"g": g_in, "wq": block.wq, "wv": block.wv, "ff_w1": block.ff_w1,
                  "ln1_gain": block.ln1_gain, "ff_b2": block.ff_b2}
        report = dm.grad_check(fn, params, seed=0, tol=1e-4, max_coords=32)
        assert report.passed, report.max_relative_error
