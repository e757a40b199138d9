"""Hashed character-trigram text encoder producing unit-norm embeddings.

A tiny trainable substitute for a transformer backbone: texts become
bags of character trigrams hashed into buckets, bucket rows are
mean-pooled, projected and L2-normalized. Every step is differentiable
through the kernels in :mod:`xmcreg.diffmath`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffmath as dm

MAX_CHARS = 128
# texts hashed per vectorized pass of featurize. 64 keeps each temporary
# array near 64 kB (8k trigrams at MAX_CHARS); at 512 texts per pass the
# peak RSS of a 24k-text eval rose by about 1 MB
FEATURIZE_CHUNK = 64

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


@dataclass
class TextRecord:
    id: int
    text: str


@dataclass
class EncoderParams:
    """Trainable encoder state: hashed-trigram table plus projection."""

    bucket_table: dm.Tensor  # (H, d_in)
    projection: dm.Tensor  # (d_in, d)

    @property
    def num_buckets(self) -> int:
        return self.bucket_table.shape[0]

    @property
    def dim(self) -> int:
        return self.projection.shape[1]


def init_encoder(rng: np.random.Generator, d: int = 32, d_in: int = 64, num_buckets: int = 4096) -> EncoderParams:
    if num_buckets < 1024 or d < 2:
        raise ValueError("need num_buckets >= 1024 and d >= 2")
    table = rng.uniform(-0.05, 0.05, size=(num_buckets, d_in))
    proj = rng.normal(0.0, 1.0 / np.sqrt(d_in), size=(d_in, d))
    return EncoderParams(bucket_table=dm.Tensor(table), projection=dm.Tensor(proj))


def featurize(texts: list[str], num_buckets: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Bucket ids and weights of each text's hashed character trigrams.

    Each text is truncated to MAX_CHARS characters, lowercased, and
    padded with a '#' sentinel on both ends; each trigram's UTF-8 bytes
    are hashed with 64-bit FNV-1a into ``num_buckets`` buckets. A text
    maps to its distinct buckets in ascending order and their counts
    divided by the number of trigrams. Empty text maps to the reserved
    bucket 0 with weight 1. Texts are hashed FEATURIZE_CHUNK at a time.
    """
    out: list[tuple[np.ndarray, np.ndarray]] = []
    for start in range(0, len(texts), FEATURIZE_CHUNK):
        out.extend(_featurize_chunk(texts[start : start + FEATURIZE_CHUNK], num_buckets))
    return out


def _featurize_chunk(texts: list[str], num_buckets: int) -> list[tuple[np.ndarray, np.ndarray]]:
    lowered = [t[:MAX_CHARS].lower() for t in texts]
    padded = ["#" + t + "#" for t in lowered if t]
    raw = np.frombuffer("".join(padded).encode("utf-8"), dtype=np.uint8)
    # byte offset of every code point, plus the end of the buffer
    cp_start = np.append(np.flatnonzero((raw & 0xC0) != 0x80), raw.size)
    tri_counts = np.array([len(p) - 2 for p in padded], dtype=np.int64)
    tri_text = np.repeat(np.arange(len(padded)), tri_counts)
    # each padded text holds two code points more than it has trigrams
    first_cp = np.arange(tri_text.size) + 2 * tri_text
    lo = cp_start[first_cp]
    length = cp_start[first_cp + 3] - lo
    h = np.full(tri_text.size, _FNV_OFFSET, dtype=np.uint64)
    for k in range(int(length.max(initial=0))):
        byte = raw[np.minimum(lo + k, raw.size - 1)].astype(np.uint64)
        step = (h ^ byte) * _FNV_PRIME
        h = np.where(k < length, step, h) if k >= length.min() else step
    bucket = (h % np.uint64(num_buckets)).astype(np.int64)
    # one key per (text, bucket): sorted by text, then by bucket
    keys, counts = np.unique(tri_text * num_buckets + bucket, return_counts=True)
    bounds = np.searchsorted(keys, np.arange(len(padded) + 1) * num_buckets)
    buckets = (keys % num_buckets).astype(np.intp)
    weights = counts / tri_counts[keys // num_buckets]
    out = []
    j = 0
    for text in lowered:
        if not text:
            out.append((np.zeros(1, dtype=np.intp), np.ones(1)))
            continue
        out.append((buckets[bounds[j] : bounds[j + 1]], weights[bounds[j] : bounds[j + 1]]))
        j += 1
    return out


def embed(params: EncoderParams, features: tuple[np.ndarray, np.ndarray],
          tape: dm.GradTape | None = None) -> dm.Tensor:
    """Unit-norm embedding of one featurized text (weighted sum of its
    bucket rows, projected)."""
    idx, weights = features
    rows = dm.gather_rows(tape, params.bucket_table, idx)
    pooled = dm.sum_axis0(tape, dm.mul(tape, rows, weights[:, None]))
    projected = dm.matmul(tape, pooled, params.projection)
    return dm.l2_normalize(tape, projected)


def encode(params: EncoderParams, text: str, tape: dm.GradTape | None = None) -> dm.Tensor:
    """Unit-norm embedding of a text (count-weighted mean of bucket rows)."""
    return embed(params, featurize([text], params.num_buckets)[0], tape)


def encode_matrix(params: EncoderParams, texts: list[str]) -> np.ndarray:
    """Stacked embeddings for frozen-parameter inference (no tape)."""
    out = np.empty((len(texts), params.dim))
    for start in range(0, len(texts), FEATURIZE_CHUNK):
        chunk = featurize(texts[start : start + FEATURIZE_CHUNK], params.num_buckets)
        for row, features in enumerate(chunk, start):
            out[row] = embed(params, features).data
    return out
