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
# texts featurized and embedded per pass of encode_matrix, which takes
# them in length order. On eval-scaled's 24k texts (one CPU, bags pooled
# in blocks of dm.BAG_BLOCK) encode_matrix took 166 ms at 256 texts per
# pass, 184 ms unsorted, 202 ms at 64 and 162 ms at 512. 256 keeps each
# hashing temporary near 256 kB (32k trigrams at MAX_CHARS); its peak
# allocation past the output matrix was 2.9 MB, against 1.9 MB at 64 and
# 4.6 MB at 512
FEATURIZE_CHUNK = 256

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


@dataclass
class TextRecord:
    id: int
    text: str


@dataclass
class EncoderParams:
    """Trainable encoder state: hashed-trigram table plus projection."""

    bucket_table: dm.Tensor
    projection: dm.Tensor

    @staticmethod
    def layout(d: int, d_in: int, num_buckets: int) -> dm.Layout:
        """d-dimensional embeddings projected from num_buckets rows of width d_in."""
        return {"bucket_table": ("uniform", (num_buckets, d_in)), "projection": ("normal", (d_in, d))}

    def __post_init__(self) -> None:
        """Refuse shapes the encoder cannot embed with, naming the tensor:
        both must be 2-d, with H >= 1024, the projection's rows equal to
        the table's width, and d >= 2."""
        for name in ("bucket_table", "projection"):
            if getattr(self, name).ndim != 2:
                raise ValueError(f"{name} has shape {getattr(self, name).shape}, need 2 dimensions")
        (rows, width), (proj_rows, d) = self.bucket_table.shape, self.projection.shape
        for name, holds, rule in (
            ("bucket_table", rows >= 1024, ">= 1024 rows"),
            ("projection", proj_rows == width, f"{width} rows, the bucket_table's width"),
            ("projection", d >= 2, ">= 2 columns"),
        ):
            if not holds:
                raise ValueError(f"{name} has shape {getattr(self, name).shape}, need {rule}")

    @property
    def num_buckets(self) -> int:
        return self.bucket_table.shape[0]

    @property
    def dim(self) -> int:
        return self.projection.shape[1]


def init_encoder(rng: np.random.Generator, d: int, d_in: int, num_buckets: int) -> EncoderParams:
    return EncoderParams(**dm.init_tensors(rng, EncoderParams.layout(d, d_in, num_buckets)))


def featurize(texts: list[str], num_buckets: int) -> tuple[np.ndarray, np.ndarray]:
    """Bucket ids and weights of each text's hashed character trigrams, as
    two (slots, texts) arrays: one bag per column, for embed.

    Each text is truncated to MAX_CHARS characters, lowercased, and
    padded with a '#' sentinel on both ends; each trigram's UTF-8 bytes
    are hashed with 64-bit FNV-1a into ``num_buckets`` buckets. A text's
    column holds its distinct buckets in ascending order and their counts
    divided by the number of trigrams; the pad slots after them hold
    bucket 0 with weight 0. Empty text holds the reserved bucket 0 with
    weight 1. All texts are hashed in one vectorized pass.
    """
    padded = ["#" + t[:MAX_CHARS].lower() + "#" for t in texts]
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
    text = keys // num_buckets
    # a key's slot is its offset from its text's first key
    slot = np.arange(keys.size) - np.searchsorted(keys, np.arange(len(texts)) * num_buckets)[text]
    ids = np.zeros((int(slot.max(initial=0)) + 1, len(texts)), dtype=np.intp)
    weights = np.zeros(ids.shape)
    at = slot * len(texts) + text  # flat index into the (slots, texts) arrays
    np.put(ids, at, keys - text * num_buckets)
    np.put(weights, at, counts / tri_counts[text])
    weights[0, tri_counts == 0] = 1.0  # empty text: "##" has no trigram
    return ids, weights


def embed(params: EncoderParams, features: tuple[np.ndarray, np.ndarray],
          tape: dm.GradTape | None = None) -> dm.Tensor:
    """Unit-norm embeddings of featurized texts, one row per text: the
    weighted sum of each text's bucket rows, projected."""
    ids, weights = features
    # (slot, text, 1) bags give (N, 1, d_in): one vector-matrix product per text
    pooled = dm.embedding_bag(tape, params.bucket_table, ids[..., None], weights[..., None])
    projected = dm.matmul(tape, pooled, params.projection)
    return dm.reshape(tape, dm.l2_normalize(tape, projected), (ids.shape[1], params.dim))


def encode(params: EncoderParams, text: str, tape: dm.GradTape | None = None) -> dm.Tensor:
    """Unit-norm embedding of a text (count-weighted mean of bucket rows)."""
    return dm.reshape(tape, embed(params, featurize([text], params.num_buckets), tape), (params.dim,))


def encode_matrix(params: EncoderParams, texts: list[str], rows: np.ndarray | None = None) -> np.ndarray:
    """Stacked embeddings for frozen-parameter inference (no tape), one
    row per text in input order. ``rows``, if given, maps each bucket to
    the table row that holds it (the table is in bucket order without it).
    Texts are embedded in chunks of similar length (a stable sort by
    length), so a chunk carries few pad slots, and a chunk's bags are
    pooled in blocks of dm.BAG_BLOCK elements; a row's bits depend on
    neither its chunk nor its block."""
    out = np.empty((len(texts), params.dim))
    order = np.argsort(np.fromiter(map(len, texts), np.intp, len(texts)), kind="stable").tolist()
    for start in range(0, len(texts), FEATURIZE_CHUNK):
        chunk = order[start : start + FEATURIZE_CHUNK]
        ids, weights = featurize([texts[i] for i in chunk], params.num_buckets)
        if rows is not None:
            np.take(rows, ids, out=ids, mode="clip")  # "clip" writes over ids unbuffered
        out[chunk] = embed(params, (ids, weights)).data
        del ids, weights  # freed before the next chunk is featurized
    return out
