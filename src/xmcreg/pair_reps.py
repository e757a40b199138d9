"""Query-label pair representations and their in-group contextualization.

A pair is first represented by the concatenation of the two embeddings,
their absolute difference, and their elementwise product (length 4d).
The K pairs of a group are then contextualized by a single pre-norm
transformer encoder block (one attention head, no positional encoding,
so the operation is permutation-equivariant over the K rows), and the
before/after representations are combined the same way into a length-16d
vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diffmath as dm
from .diffmath import DimensionMismatch


def _combine(tape, a: dm.Tensor, b: dm.Tensor) -> dm.Tensor:
    """{a, b, |a - b|, a * b}, concatenated along the last axis."""
    if a.shape != b.shape:
        raise DimensionMismatch(f"pair feature inputs {a.shape} vs {b.shape}")
    diff = dm.elementwise_abs(tape, dm.sub(tape, a, b))
    prod = dm.mul(tape, a, b)
    return dm.concat(tape, [a, b, diff, prod], axis=a.ndim - 1)


def build_gamma(tape, h_q: dm.Tensor, h_l: dm.Tensor) -> dm.Tensor:
    """4d pair feature {h_q, h_l, |h_q - h_l|, h_q * h_l} of one pair
    (rank-1) or of a matrix of pairs (rank-2, one pair per row)."""
    return _combine(tape, h_q, h_l)


def build_delta(tape, gamma: dm.Tensor, lam: dm.Tensor) -> dm.Tensor:
    """16d feature combining pairs' raw and contextualized forms, along
    the last axis of a pair (rank-1), rows of pairs or groups of rows."""
    return _combine(tape, gamma, lam)


@dataclass
class BlockContextParams:
    """One pre-norm transformer encoder block over K tokens of width w=4d."""

    wq: dm.Tensor
    wk: dm.Tensor
    wv: dm.Tensor
    wo: dm.Tensor
    bq: dm.Tensor
    bk: dm.Tensor
    bv: dm.Tensor
    bo: dm.Tensor
    ln1_gain: dm.Tensor
    ln1_bias: dm.Tensor
    ln2_gain: dm.Tensor
    ln2_bias: dm.Tensor
    ff_w1: dm.Tensor
    ff_b1: dm.Tensor
    ff_w2: dm.Tensor
    ff_b2: dm.Tensor

    @staticmethod
    def layout(width: int) -> dm.Layout:
        """A block over tokens of the given width, whose feed-forward layer is twice as wide."""
        square, vector, gain = ("normal", (width, width)), ("zeros", (width,)), ("ones", (width,))
        return {"wq": square, "wk": square, "wv": square, "wo": square, "bq": vector, "bk": vector, "bv": vector,
                "bo": vector, "ln1_gain": gain, "ln1_bias": vector, "ln2_gain": gain, "ln2_bias": vector,
                "ff_w1": ("normal", (width, 2 * width)), "ff_b1": ("zeros", (2 * width,)),
                "ff_w2": ("normal", (2 * width, width)), "ff_b2": vector}

    @property
    def width(self) -> int:
        return self.wq.shape[0]


def init_block(rng: np.random.Generator, width: int) -> BlockContextParams:
    return BlockContextParams(**dm.init_tensors(rng, BlockContextParams.layout(width)))


def contextualize(tape, block: BlockContextParams, gammas: dm.Tensor) -> dm.Tensor:
    """Apply the encoder block to every group of a (G, K, 4d) batch of
    pair features, or to one (K, 4d) group; the contextualized features
    have the shape of the input. This is canonical_order, then
    apply_block."""
    if gammas.ndim not in (2, 3) or gammas.shape[-1] != block.width:
        raise DimensionMismatch(f"group shape {gammas.shape}, block width {block.width}")
    return apply_block(tape, block, *canonical_order(tape, gammas))


def canonical_order(tape, gammas: dm.Tensor) -> tuple[dm.Tensor, np.ndarray]:
    """The parameter-free half of contextualize: the (G, K, w) rows of each
    group of gammas, a (G, K, w) batch or one (K, w) group, in canonical
    order (ascending row bytes), and the flat row indices, shaped
    gammas.shape[:-1], that put them back in input order.

    Running each group in this order makes the block bit-exactly
    permutation-equivariant: summation order would otherwise leak the
    input ordering into the last ulp."""
    k, width = gammas.shape[-2:]
    if k < 2:
        raise DimensionMismatch("contextualize needs K >= 2 pairs")
    rows = np.ascontiguousarray(gammas.data).reshape(-1, k, width).view(np.dtype((np.void, 8 * width)))[..., 0]
    canon = np.argsort(rows, axis=-1, kind="stable")
    canon += k * np.arange(len(rows))[:, None]
    inverse = np.argsort(canon.ravel()).reshape(gammas.shape[:-1])
    flat = gammas if gammas.ndim == 2 else dm.reshape(tape, gammas, (-1, width))
    return dm.gather_rows(tape, flat, canon), inverse


def apply_block(tape, block: BlockContextParams, x: dm.Tensor, inverse: np.ndarray) -> dm.Tensor:
    """The parameters' half of contextualize: the encoder block over the
    groups canonical_order gave, x and inverse, back in input order."""
    width = block.width
    xn = dm.layer_norm(tape, x, block.ln1_gain, block.ln1_bias)
    q = dm.affine(tape, xn, block.wq, block.bq)
    keys = dm.affine(tape, xn, block.wk, block.bk)
    v = dm.affine(tape, xn, block.wv, block.bv)
    scores = dm.mul(tape, dm.matmul(tape, q, dm.transpose(tape, keys)), 1.0 / math.sqrt(width))
    attn = dm.softmax(tape, scores)
    x2 = dm.add(tape, x, dm.affine(tape, dm.matmul(tape, attn, v), block.wo, block.bo))

    yn = dm.layer_norm(tape, x2, block.ln2_gain, block.ln2_bias)
    hidden = dm.gelu(tape, dm.affine(tape, yn, block.ff_w1, block.ff_b1))
    out = dm.add(tape, x2, dm.affine(tape, hidden, block.ff_w2, block.ff_b2))

    return dm.gather_rows(tape, dm.reshape(tape, out, (-1, width)), inverse)
