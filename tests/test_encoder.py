"""Hashed-trigram featurization and the trainable text encoder."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from xmcreg import diffmath as dm
from xmcreg import encoder
from xmcreg.encoder import (
    MAX_CHARS,
    EncoderParams,
    encode,
    encode_matrix,
    featurize,
    init_encoder,
)


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a, one byte at a time: the reference for featurize."""
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def featurize_oracle(text: str, num_buckets: int) -> tuple[np.ndarray, np.ndarray]:
    """One text's bucket ids and weights, trigram by trigram in pure Python."""
    text = text[:MAX_CHARS].lower()
    if not text:
        return np.array([0], dtype=np.intp), np.array([1.0])
    padded = "#" + text + "#"
    counts: dict[int, int] = {}
    for i in range(len(padded) - 2):
        bucket = fnv1a64(padded[i : i + 3].encode("utf-8")) % num_buckets
        counts[bucket] = counts.get(bucket, 0) + 1
    idx = np.array(sorted(counts), dtype=np.intp)
    weights = np.array([counts[i] for i in idx], dtype=np.float64)
    weights /= weights.sum()
    return idx, weights


def assert_features_identical(got, want):
    assert len(got) == len(want)
    for (gi, gw), (wi, ww) in zip(got, want):
        assert gi.dtype == np.intp and gw.dtype == np.float64
        np.testing.assert_array_equal(gi, wi)
        assert gw.tobytes() == ww.tobytes()


class TestFnv1a64:
    def test_empty_is_offset_basis(self):
        assert fnv1a64(b"") == 0xCBF29CE484222325

    def test_single_byte_reference(self):
        # published FNV-1a 64-bit test vector
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C

    def test_distinct_inputs_distinct_hashes(self):
        assert fnv1a64(b"abc") != fnv1a64(b"abd")


class TestFeaturize:
    def test_two_char_text_has_two_trigrams(self):
        # "#ab#" yields trigrams "#ab" and "ab#"
        [(idx, weights)] = featurize(["ab"], 4096)
        assert (weights * 2).sum() == 2
        expected = {fnv1a64(t.encode()) % 4096 for t in ("#ab", "ab#")}
        assert set(idx.tolist()) == expected

    def test_empty_text_reserved_bucket(self):
        [(idx, weights)] = featurize([""], 4096)
        assert idx.tolist() == [0] and weights.tolist() == [1.0]

    def test_lowercasing(self):
        assert_features_identical(featurize(["AB"], 4096), featurize(["ab"], 4096))

    def test_truncation(self):
        long = "x" * 1000
        assert_features_identical(featurize([long], 4096), featurize([long[:MAX_CHARS]], 4096))

    def test_repeated_trigrams_counted(self):
        [(idx, weights)] = featurize(["aaaa"], 4096)
        bucket = fnv1a64(b"aaa") % 4096
        # "aaa" is two of the four trigrams of "#aaaa#"
        assert weights[idx.tolist().index(bucket)] * 4 == 2

    def test_edge_texts_match_oracle(self):
        texts = ["", "#", "##", "İ", "İ" * (MAX_CHARS + 5), "é中😀", "x" * (MAX_CHARS + 1), "A" * MAX_CHARS]
        for num_buckets in (1024, 4096, 1000):
            assert_features_identical(
                featurize(texts, num_buckets), [featurize_oracle(t, num_buckets) for t in texts])

    def test_surrogate_rejected_like_oracle(self):
        for fn in (featurize_oracle, lambda t, n: featurize([t], n)):
            with pytest.raises(UnicodeEncodeError):
                fn("a\ud800", 1024)

    def test_no_texts(self):
        assert featurize([], 4096) == []


# multi-byte and length-changing characters, the sentinel, and plain ASCII
_TEXT = st.text(
    alphabet=st.one_of(st.characters(codec="utf-8"), st.sampled_from("#İIıßé中😀 ab")),
    max_size=MAX_CHARS + 20,
)


@given(st.lists(_TEXT, max_size=12), st.integers(1, 5), st.sampled_from([1024, 4096, 997]))
def test_featurize_matches_oracle_across_chunks(texts, chunk, num_buckets):
    with mock.patch.object(encoder, "FEATURIZE_CHUNK", chunk):
        got = featurize(texts, num_buckets)
    assert_features_identical(got, [featurize_oracle(t, num_buckets) for t in texts])


@given(st.lists(_TEXT, max_size=8), st.integers(1, 4))
def test_encode_matrix_rows_equal_encode_across_chunks(texts, chunk):
    params = init_encoder(np.random.default_rng(0), d=8, d_in=16, num_buckets=1024)
    with mock.patch.object(encoder, "FEATURIZE_CHUNK", chunk):
        mat = encode_matrix(params, texts)
    assert mat.shape == (len(texts), params.dim)
    for row, text in zip(mat, texts):
        assert row.tobytes() == encode(params, text).data.tobytes()


class TestEncode:
    def setup_method(self):
        self.params = init_encoder(np.random.default_rng(0), d=8, d_in=16, num_buckets=1024)

    def test_unit_norm(self):
        for text in ("oreo double stuf", "x", ""):
            v = encode(self.params, text).data
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_deterministic(self):
        a = encode(self.params, "oreo cookies").data
        b = encode(self.params, "oreo cookies").data
        np.testing.assert_array_equal(a, b)

    def test_similarity_bounded(self):
        a = encode(self.params, "oreo cookies").data
        b = encode(self.params, "walkers shortbread").data
        assert -1.0 - 1e-12 <= float(a @ b) <= 1.0 + 1e-12

    def test_gradient_matches_finite_differences(self):
        params = self.params
        rng = np.random.default_rng(1)
        probe = rng.normal(size=params.dim)

        def fn(tape):
            emb = encode(params, "oreo double stuf cookies", tape)
            return dm.dot(tape, emb, dm.Tensor(probe))

        report = dm.grad_check(
            fn,
            {"table": params.bucket_table, "proj": params.projection},
            seed=0,
            tol=1e-4,
        )
        assert report.passed, report.max_relative_error

    def test_encode_matrix_stacks(self):
        texts = ["a", "b", "c"]
        mat = encode_matrix(self.params, texts)
        assert mat.shape == (3, self.params.dim)
        np.testing.assert_array_equal(mat[1], encode(self.params, "b").data)

    def test_encode_matrix_empty(self):
        assert encode_matrix(self.params, []).shape == (0, self.params.dim)


class TestInit:
    def test_invariants_enforced(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            init_encoder(rng, d=8, num_buckets=512)
        with pytest.raises(ValueError):
            init_encoder(rng, d=1, num_buckets=2048)

    def test_shapes(self):
        p = init_encoder(np.random.default_rng(0), d=8, d_in=16, num_buckets=1024)
        assert p.bucket_table.shape == (1024, 16)
        assert p.projection.shape == (16, 8)
        assert p.num_buckets == 1024 and p.dim == 8


@given(st.text(max_size=40), st.text(max_size=40))
def test_featurize_pure(a, b):
    # no shared state between calls
    fa = featurize([a], 2048)
    featurize([b], 2048)
    assert_features_identical(featurize([a], 2048), fa)
