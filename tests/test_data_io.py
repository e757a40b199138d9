"""Synthetic data generation, dataset files, and run-config parsing."""

import dataclasses
import json
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from xmcreg import data_io
from xmcreg.data_io import (
    InvalidSpec,
    ParseError,
    SyntheticSpec,
    ValidationError,
    build_synthetic,
    corrupt_text,
    generate,
    load_dataset,
    load_key_values,
)
from xmcreg.encoder import TextRecord
from xmcreg.mining import QueryRecord
from xmcreg.trainer import TrainConfig

from conftest import tiny_spec


# The generator with one draw per call and one json.dumps per row, kept as
# the oracle of the bulk draws and the shared serializer: generate must
# write its bytes and leave the generator where it leaves it.

def corrupt_text_oracle(text, rng, noise_rate, abbreviation_rate):
    if noise_rate == 0.0 and abbreviation_rate == 0.0:
        return text
    out_words = []
    for w in text.split(" "):
        if abbreviation_rate > 0.0 and rng.random() < abbreviation_rate:
            if any(ch.isdigit() for ch in w):
                w = "".join(ch for ch in w if ch.isdigit() or ch == ".")
            elif len(w) > 2:
                stripped = "".join(ch for ch in w[1:] if ch not in "aeiou")
                w = w[0] + stripped if stripped else w[:2]
        out_words.append(w)
    corrupted = " ".join(out_words)
    if noise_rate > 0.0:
        kept = [ch for ch in corrupted if rng.random() >= noise_rate]
        corrupted = "".join(kept) if kept else corrupted[:1]
    return corrupted


def build_synthetic_oracle(spec):
    rng = np.random.default_rng(spec.seed)
    combos = [(b, c) for b in data_io._BRANDS for c in data_io._CATEGORIES]
    families = [combos[int(i)] for i in rng.choice(len(combos), size=spec.families, replace=False)]
    labels, family_of_label, seen = [], [], set()
    for lid in range(spec.num_labels):
        fam = lid % spec.families
        brand, category = families[fam]
        for _ in range(100):
            variant = data_io._VARIANTS[rng.integers(len(data_io._VARIANTS))]
            size = data_io._SIZES[rng.integers(len(data_io._SIZES))]
            unit = data_io._UNITS[rng.integers(len(data_io._UNITS))]
            text = f"{brand} {variant} {category} {size}{unit}"
            if text not in seen:
                break
        seen.add(text)
        labels.append(TextRecord(id=lid, text=text))
        family_of_label.append(fam)
    by_family = {}
    for lid, fam in enumerate(family_of_label):
        by_family.setdefault(fam, []).append(lid)

    def make_queries(n):
        out = []
        for qid in range(n):
            src = int(rng.integers(spec.num_labels))
            extra = int(rng.integers(3))
            others = [l for l in by_family[family_of_label[src]] if l != src]
            chosen = {src}
            if others and extra:
                picks = rng.choice(len(others), size=min(extra, len(others)), replace=False)
                chosen.update(others[int(i)] for i in picks)
            text = corrupt_text_oracle(labels[src].text, rng, spec.noise_rate, spec.abbreviation_rate)
            out.append(QueryRecord(id=qid, text=text, positives=frozenset(chosen)))
        return out

    return labels, make_queries(spec.num_train_queries), make_queries(spec.num_test_queries)


def generate_oracle(spec, out_dir):
    labels, train_q, test_q = build_synthetic_oracle(spec)
    for split, queries in (("train", train_q), ("test", test_q)):
        split_dir = Path(out_dir) / split
        split_dir.mkdir(parents=True)
        for name, rows in (("labels.jsonl", [{"id": l.id, "text": l.text} for l in labels]),
                           ("queries.jsonl", [{"id": q.id, "text": q.text, "labels": sorted(q.positives)}
                                              for q in queries])):
            (split_dir / name).write_bytes("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows).encode())


def label_titles_oracle(rng, families, num_labels):
    """build_synthetic_oracle's label loop, on a given generator."""
    titles, seen = [], set()
    for lid in range(num_labels):
        brand, category = families[lid % len(families)]
        for _ in range(100):
            variant = data_io._VARIANTS[rng.integers(len(data_io._VARIANTS))]
            size = data_io._SIZES[rng.integers(len(data_io._SIZES))]
            unit = data_io._UNITS[rng.integers(len(data_io._UNITS))]
            text = f"{brand} {variant} {category} {size}{unit}"
            if text not in seen:
                break
        seen.add(text)
        titles.append(text)
    return titles


class TestSyntheticSpec:
    def test_invariants(self):
        with pytest.raises(InvalidSpec):
            SyntheticSpec(num_labels=3, families=5)
        with pytest.raises(InvalidSpec):
            SyntheticSpec(noise_rate=1.0)
        with pytest.raises(InvalidSpec):
            SyntheticSpec(abbreviation_rate=-0.1)
        with pytest.raises(InvalidSpec, match=r"^need num_train_queries >= 1, got 0$"):
            SyntheticSpec(num_train_queries=0)
        with pytest.raises(InvalidSpec, match=r"^need num_test_queries >= 1, got -1$"):
            SyntheticSpec(num_test_queries=-1)
        with pytest.raises(InvalidSpec, match=r"^need num_test_queries >= 1, got 0$"):
            SyntheticSpec(num_test_queries=0)
        with pytest.raises(InvalidSpec, match=r"^need seed >= 0, got -1$"):
            SyntheticSpec(seed=-1)

    @pytest.mark.parametrize("bad, message", [
        (dict(num_labels=3, families=5), "need num_labels >= families (5), got 3"),
        (dict(num_labels=10, families=20), "need num_labels >= families (20), got 10"),
        (dict(families=1), "need families in [2, 384], got 1"),
        (dict(families=500), "need families in [2, 384], got 500"),
        (dict(noise_rate=1.5), "need noise_rate in [0, 1), got 1.5"),
        (dict(noise_rate=float("nan")), "need noise_rate in [0, 1), got nan"),
        (dict(abbreviation_rate=-0.1), "need abbreviation_rate in [0, 1), got -0.1"),
        (dict(num_labels=1025, families=2), "need num_labels <= 1024 (512 titles x 2 families), got 1025"),
        (dict(num_labels=12000), "need num_labels <= 10240 (512 titles x 20 families), got 12000"),
    ])
    def test_rejection_names_field_and_value(self, bad, message):
        with pytest.raises(InvalidSpec) as err:
            SyntheticSpec(**bad)
        assert str(err.value) == message

    def test_largest_family_count_builds(self):
        labels, _, _ = build_synthetic(SyntheticSpec(num_labels=384, num_train_queries=1, num_test_queries=1,
                                                     families=384))
        assert len(labels) == 384

    def test_generate_refuses_an_empty_test_split_before_writing(self, tmp_path):
        with pytest.raises(InvalidSpec, match=r"^need num_test_queries >= 1, got 0$"):
            generate(tiny_spec(num_test_queries=0), tmp_path / "d")
        assert not (tmp_path / "d").exists()


# words with digits, dots, vowels, non-ASCII letters and empty words
# (repeated, leading or trailing spaces)
_CORRUPTIBLE = st.text(alphabet=st.sampled_from("aeioubcdxyz0179.oz éİß中 "), max_size=60)


class TestCorruptText:
    @settings(max_examples=300)
    @given(_CORRUPTIBLE, st.sampled_from([0.0, 0.18, 0.5, 0.95]), st.sampled_from([0.0, 0.3, 0.7, 0.999]),
           st.integers(0, 2**32), st.integers(0, 3))
    def test_matches_per_call_oracle_and_leaves_the_same_state(self, text, noise_rate, abbreviation_rate, seed,
                                                                ints_before):
        rngs = [np.random.default_rng(seed) for _ in range(2)]
        for rng in rngs:
            for _ in range(ints_before):
                rng.integers(7)
        # an odd number of small integer draws leaves a buffered 32-bit half
        assert rngs[0].bit_generator.state["has_uint32"] == ints_before % 2
        out = corrupt_text(text, rngs[0], noise_rate, abbreviation_rate)
        assert out == corrupt_text_oracle(text, rngs[1], noise_rate, abbreviation_rate)
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
        assert rngs[0].integers(2**20) == rngs[1].integers(2**20)
        assert rngs[0].random() == rngs[1].random()

    def test_identity_at_zero_rates(self):
        rng = np.random.default_rng(0)
        text = "oreo double stuf creme sandwich cookies 14.3oz"
        assert corrupt_text(text, rng, 0.0, 0.0) == text

    def test_abbreviation_elides_vowels(self):
        rng = np.random.default_rng(0)
        out = corrupt_text("chocolate", rng, 0.0, 0.999999)
        assert out == "chclt"

    def test_unit_stripped_from_size_tokens(self):
        rng = np.random.default_rng(0)
        out = corrupt_text("17oz", rng, 0.0, 0.999999)
        assert out == "17"

    def test_never_empty(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert corrupt_text("ab", rng, 0.95, 0.5) != ""


class TestBuildSynthetic:
    def test_verbatim_queries_without_corruption(self):
        spec = tiny_spec(noise_rate=0.0, abbreviation_rate=0.0)
        labels, train_q, test_q = build_synthetic(spec)
        label_texts = {l.text for l in labels}
        for q in train_q + test_q:
            assert q.text in label_texts

    def test_positives_within_one_family(self):
        spec = tiny_spec(num_labels=10, families=2)
        labels, train_q, _ = build_synthetic(spec)
        for q in train_q:
            fams = {lid % 2 for lid in q.positives}
            assert len(fams) == 1

    def test_positive_counts(self):
        labels, train_q, _ = build_synthetic(tiny_spec())
        for q in train_q:
            assert 1 <= len(q.positives) <= 3

    def test_deterministic(self):
        a = build_synthetic(tiny_spec())
        b = build_synthetic(tiny_spec())
        assert [(l.id, l.text) for l in a[0]] == [(l.id, l.text) for l in b[0]]
        assert [(q.id, q.text, q.positives) for q in a[1]] == [
            (q.id, q.text, q.positives) for q in b[1]
        ]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_larger_test_split_extends_the_default_one(self, seed):
        """Test queries are drawn last, so a larger num_test_queries keeps
        the labels and training queries and extends the test split: the
        default 500 are the prefix of the larger split
        (scripts/run_directional.py --test-queries relies on this)."""
        base = build_synthetic(SyntheticSpec(seed=seed))
        wide = build_synthetic(dataclasses.replace(SyntheticSpec(seed=seed), num_test_queries=2000))
        assert wide[0] == base[0] and wide[1] == base[1]
        assert len(wide[2]) == 2000 and wide[2][:500] == base[2]


def _entering(seed, ints_before):
    """Two equal generators after ``ints_before`` integers(7) draws: an odd
    count leaves a buffered 32-bit half."""
    rngs = [np.random.default_rng(seed) for _ in range(2)]
    for rng in rngs:
        for _ in range(ints_before):
            rng.integers(7)
    assert rngs[0].bit_generator.state["has_uint32"] == ints_before % 2
    return rngs


def _assert_same_generator(a, b):
    """Equal state, buffered half included, and equal draws after."""
    assert a.bit_generator.state == b.bit_generator.state
    assert a.integers(2**20) == b.integers(2**20)
    assert a.integers(16) == b.integers(16)
    assert a.random() == b.random()


_POWERS_OF_TWO = st.sampled_from([2, 4, 8, 16, 2**16, 2**31, 2**32])


class TestBulkDraws:
    """The label loop's bulk draws against one rng.integers(n) call per index."""

    @settings(max_examples=300)
    @given(st.integers(0, 2**32), st.integers(0, 3), st.lists(_POWERS_OF_TWO, min_size=1, max_size=4),
           st.integers(0, 40))
    def test_match_per_call_draws_and_leave_the_same_state(self, seed, ints_before, sizes, count):
        rngs = _entering(seed, ints_before)
        got = data_io._bounded_draws(rngs[0], tuple(sizes), count)
        assert got.shape == (count, len(sizes))
        assert got.tolist() == [[int(rngs[1].integers(n)) for n in sizes] for _ in range(count)]
        _assert_same_generator(*rngs)

    @pytest.mark.parametrize("ints_before", [0, 1, 2, 3])
    @pytest.mark.parametrize("count", [1, 2, 5, 6])  # 3, 6, 15 and 18 halves: odd and even
    def test_label_sizes_with_and_without_a_buffered_half(self, ints_before, count):
        rngs = _entering(11, ints_before)
        sizes = (len(data_io._VARIANTS), len(data_io._SIZES), len(data_io._UNITS))
        got = data_io._bounded_draws(rngs[0], sizes, count).tolist()
        assert got == [[int(rngs[1].integers(n)) for n in sizes] for _ in range(count)]
        # the per-call draws leave a half buffered iff they took an odd number
        # of halves from new 64-bit draws
        assert rngs[1].bit_generator.state["has_uint32"] == (3 * count - ints_before % 2) % 2
        _assert_same_generator(*rngs)

    @pytest.mark.parametrize("n", [7, 3, 24, 1, 2**33])
    def test_a_size_that_does_not_divide_2_to_the_32_is_refused_before_any_draw(self, n):
        rng = np.random.default_rng(0)
        rng.integers(7)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"need each size to divide 2\\*\\*32 and be at least 2, got {n}$"):
            data_io._bounded_draws(rng, (16, n), 3)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("ints_before", [0, 1, 2, 3])
    @pytest.mark.parametrize("num_labels, families, refills", [
        (1024, 2, "many"),  # at the title cap: many retries and some 100-draw give-ups
        (100, 3, "some"),
        (5, 5, "none"),  # one label per family: never a retry
    ])
    def test_titles_match_per_call_loop(self, ints_before, num_labels, families, refills):
        fams = [(b, c) for b in data_io._BRANDS[:families] for c in data_io._CATEGORIES[:1]]
        rngs = _entering(ints_before + 5, ints_before)
        with mock.patch.object(data_io, "_bounded_draws", wraps=data_io._bounded_draws) as draws:
            titles = data_io._label_titles(rngs[0], fams, num_labels)
        assert titles == label_titles_oracle(rngs[1], fams, num_labels)
        _assert_same_generator(*rngs)
        # the first call draws 3 indices for each label, and each refill
        # after retries 3 for each label left, the retrying one included
        counts = [c.args[2] for c in draws.call_args_list]
        assert counts[0] == num_labels and counts == sorted(counts, reverse=True)
        if refills == "none":
            assert counts == [num_labels]
        else:
            assert len(counts) > 1
        if refills == "many":
            assert len(counts) > 100
            assert len(set(titles)) < num_labels  # a label gave up after 100 draws


# any text, with what JSON escapes or could mishandle drawn often: quotes,
# backslashes, control characters, U+2028/U+2029, non-ASCII and lone surrogates
_ANY_TEXT = st.text(st.one_of(st.characters(exclude_categories=()),
                              st.sampled_from('"\\\x00\x1f\x7f\n\t\u2028\u2029é中\U0001f600\ud800\udfff')))
_IDS = st.integers(0, 2**63 - 1)


class TestLineFormat:
    @settings(max_examples=300)
    @given(_IDS, _ANY_TEXT)
    def test_label_line_is_json_dumps_with_sorted_keys(self, id_, text):
        assert data_io._label_line(id_, text) == json.dumps({"id": id_, "text": text}, sort_keys=True) + "\n"

    @settings(max_examples=300)
    @given(_IDS, st.lists(_IDS, min_size=1, max_size=5), _ANY_TEXT)
    def test_query_line_is_json_dumps_with_sorted_keys(self, id_, labels, text):
        row = {"id": id_, "text": text, "labels": labels}
        assert data_io._query_line(id_, labels, text) == json.dumps(row, sort_keys=True) + "\n"


class TestGenerateAndLoad:
    @pytest.mark.parametrize("fields", [
        dict(),
        dict(num_labels=1024, families=2, num_train_queries=200, num_test_queries=40, seed=3),  # at the title cap
        dict(num_labels=7, families=7, seed=1),  # one label per family: no extra positive to pick
        dict(num_labels=100, families=3, noise_rate=0.0, seed=2),
        dict(num_labels=50, families=4, abbreviation_rate=0.0, seed=5),
        dict(noise_rate=0.0, abbreviation_rate=0.0),
    ])
    def test_writes_the_per_call_oracles_bytes(self, tmp_path, fields):
        spec = tiny_spec(**fields)
        generate(spec, tmp_path / "a")
        generate_oracle(spec, tmp_path / "b")
        for split in ("train", "test"):
            for name in ("labels.jsonl", "queries.jsonl"):
                assert (tmp_path / "a" / split / name).read_bytes() == (tmp_path / "b" / split / name).read_bytes()

    def test_round_trip(self, tmp_path):
        spec = tiny_spec()
        generate(spec, tmp_path)
        for split, n in (("train", spec.num_train_queries), ("test", spec.num_test_queries)):
            ds = load_dataset(tmp_path / split)
            assert len(ds.labels) == spec.num_labels
            assert len(ds.queries) == n

    def test_regenerate_byte_identical(self, tmp_path):
        generate(tiny_spec(), tmp_path / "a")
        generate(tiny_spec(), tmp_path / "b")
        for split in ("train", "test"):
            for name in ("labels.jsonl", "queries.jsonl"):
                a = (tmp_path / "a" / split / name).read_bytes()
                b = (tmp_path / "b" / split / name).read_bytes()
                assert a == b

    def _write(self, dir_, labels, queries):
        dir_.mkdir(parents=True, exist_ok=True)
        (dir_ / "labels.jsonl").write_text("\n".join(json.dumps(o) for o in labels) + "\n")
        (dir_ / "queries.jsonl").write_text("\n".join(json.dumps(o) for o in queries) + "\n")

    def test_missing_label_reference(self, tmp_path):
        self._write(
            tmp_path / "d",
            [{"id": 0, "text": "a"}],
            [{"id": 0, "text": "q", "labels": [5]}],
        )
        with pytest.raises(ValidationError, match="missing label id 5"):
            load_dataset(tmp_path / "d")

    def test_duplicate_label_id(self, tmp_path):
        self._write(
            tmp_path / "d",
            [{"id": 0, "text": "a"}, {"id": 0, "text": "b"}],
            [{"id": 0, "text": "q", "labels": [0]}],
        )
        with pytest.raises(ValidationError, match="duplicate label id 0"):
            load_dataset(tmp_path / "d")

    def test_duplicate_query_id(self, tmp_path):
        self._write(
            tmp_path / "d",
            [{"id": 0, "text": "a"}],
            [{"id": 1, "text": "q", "labels": [0]}, {"id": 1, "text": "r", "labels": [0]}],
        )
        with pytest.raises(ValidationError, match="duplicate query id 1"):
            load_dataset(tmp_path / "d")

    def test_query_without_positives(self, tmp_path):
        self._write(
            tmp_path / "d",
            [{"id": 0, "text": "a"}],
            [{"id": 0, "text": "q", "labels": []}],
        )
        with pytest.raises(ValidationError, match="no positive labels"):
            load_dataset(tmp_path / "d")

    def test_parse_error_carries_line_number(self, tmp_path):
        d = tmp_path / "d"
        d.mkdir()
        (d / "labels.jsonl").write_text('{"id": 0, "text": "a"}\nnot json\n')
        (d / "queries.jsonl").write_text('{"id": 0, "text": "q", "labels": [0]}\n')
        with pytest.raises(ParseError, match=":2"):
            load_dataset(d)

    def test_mutations_of_valid_files_rejected(self, tmp_path):
        """Each invariant violation injected into a valid dataset is caught."""
        spec = tiny_spec()
        generate(spec, tmp_path / "ok")
        base = tmp_path / "ok" / "train"
        labels = base.joinpath("labels.jsonl").read_text().strip().split("\n")
        queries = base.joinpath("queries.jsonl").read_text().strip().split("\n")

        mutations = {
            "dup_label": (labels + [labels[0]], queries),
            "dup_query": (labels, queries + [queries[0]]),
            "dangling_ref": (labels, queries[:-1] + ['{"id": 99999, "text": "x", "labels": [99999]}']),
            "empty_positives": (labels, queries[:-1] + ['{"id": 99999, "text": "x", "labels": []}']),
        }
        for name, (ls, qs) in mutations.items():
            d = tmp_path / name
            d.mkdir()
            (d / "labels.jsonl").write_text("\n".join(ls) + "\n")
            (d / "queries.jsonl").write_text("\n".join(qs) + "\n")
            with pytest.raises(ValidationError):
                load_dataset(d)


# Each field of a record file with values of every other JSON type; a list
# of labels must also hold only integers.
_WRONG_TYPE = {
    "id": [None, True, False, 1.0, 1.7, "1", [1], {"id": 1}],
    "text": [None, True, 3, 1.5, ["a"], {"text": "a"}],
    "labels": [None, True, 1, 1.5, "12", {"0": 0}, [True], [1.0], ["1"], [None], [[1]], [{}]],
}
_PARSE = ("wrong_type", "missing_field", "not_an_object", "not_json", "lone_surrogate")
_VALIDATION = ("negative_id", "repeated_id", "empty_labels", "dangling_label")


@st.composite
def _record_files(draw):
    """Valid labels.jsonl and queries.jsonl records, at least two of each."""
    ids = st.lists(st.integers(0, 2**40), min_size=2, max_size=6, unique=True)
    texts = st.text(max_size=12)
    label_ids = draw(ids)
    labels = [{"id": i, "text": draw(texts)} for i in label_ids]
    positives = st.lists(st.sampled_from(label_ids), min_size=1, max_size=4)
    queries = [{"id": i, "text": draw(texts), "labels": draw(positives)} for i in draw(ids)]
    return labels, queries


@st.composite
def _layouts(draw, count):
    """Blank lines before each of ``count`` lines, and the line ending."""
    return draw(st.lists(st.integers(0, 2), min_size=count, max_size=count)), draw(st.sampled_from([b"\n", b"\r\n"]))


def _write_lines(path, lines, layout):
    """Write byte lines after their blank lines; return their line numbers."""
    gaps, end = layout
    path.write_bytes(b"".join(end * gap + line + end for gap, line in zip(gaps, lines)))
    return [i + 1 + sum(gaps[: i + 1]) for i in range(len(lines))]


def _encode(records, ascii_only=True):
    return [json.dumps(r, ensure_ascii=ascii_only).encode("utf-8") for r in records]


class TestRecordFuzz:
    """load_dataset loads valid record files exactly as written and rejects
    every malformed record at its own path:line."""

    # no deadline: an example takes a few ms, but a full garbage collection
    # landing in one takes tens of ms in a full suite, and a busy CPU
    # stretches that toward hypothesis's 200 ms default. That a deadline
    # overrun made this test fail once under load is inferred from those
    # timings; the failure's message was never captured.
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_record_files(), st.booleans(), st.data())
    def test_valid_files_load_as_written(self, tmp_path, files, ascii_only, data):
        labels, queries = files
        for name, records in (("labels.jsonl", labels), ("queries.jsonl", queries)):
            _write_lines(tmp_path / name, _encode(records, ascii_only), data.draw(_layouts(len(records))))
        ds = load_dataset(tmp_path)
        assert [(l.id, l.text) for l in ds.labels] == [(r["id"], r["text"]) for r in labels]
        assert [(q.id, q.text, q.positives) for q in ds.queries] == [
            (r["id"], r["text"], frozenset(r["labels"])) for r in queries
        ]

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_record_files(), st.sampled_from(_PARSE + _VALIDATION), st.data())
    def test_malformed_record_rejected_at_its_line(self, tmp_path, files, kind, data):
        labels, queries = files
        name = "queries.jsonl" if kind in ("empty_labels", "dangling_label") else data.draw(
            st.sampled_from(["labels.jsonl", "queries.jsonl"]))
        records = labels if name == "labels.jsonl" else queries
        i = data.draw(st.integers(1 if kind == "repeated_id" else 0, len(records) - 1))
        bad = dict(records[i])
        if kind == "wrong_type":
            field = data.draw(st.sampled_from(sorted(bad)))
            bad[field] = data.draw(st.sampled_from(_WRONG_TYPE[field]))
        elif kind == "missing_field":
            del bad[data.draw(st.sampled_from(sorted(bad)))]
        elif kind == "lone_surrogate":  # written as a \ud800-style escape, which JSON decodes
            at = data.draw(st.integers(0, len(bad["text"])))
            bad["text"] = bad["text"][:at] + chr(data.draw(st.integers(0xD800, 0xDFFF))) + bad["text"][at:]
        elif kind == "negative_id":
            bad["id"] = -data.draw(st.integers(1, 2**40))
        elif kind == "repeated_id":
            bad["id"] = records[data.draw(st.integers(0, i - 1))]["id"]
        elif kind == "empty_labels":
            bad["labels"] = []
        elif kind == "dangling_label":
            missing = max(r["id"] for r in labels) + 1
            bad["labels"] = data.draw(st.permutations(bad["labels"] + [missing]))
        lines = {"labels.jsonl": _encode(labels), "queries.jsonl": _encode(queries)}
        if kind == "not_an_object":
            lines[name][i] = data.draw(st.sampled_from([b"[1, 2]", b'"text"', b"3", b"null", b"true",
                                                        json.dumps(list(bad.values())).encode()]))
        elif kind == "not_json":
            line = lines[name][i]
            lines[name][i] = data.draw(st.sampled_from([b"not json", b"{'id': 1}", line[:-1] + b",}",
                                                        line + b"}", b"\xff" + line,
                                                        line[: data.draw(st.integers(1, len(line) - 1))]]))
        else:
            lines[name][i] = _encode([bad])[0]
        for file in lines:
            numbers = _write_lines(tmp_path / file, lines[file], data.draw(_layouts(len(lines[file]))))
            if file == name:
                lineno = numbers[i]
        error = ParseError if kind in _PARSE else ValidationError
        with pytest.raises(error, match=f"^{re.escape(str(tmp_path / name))}:{lineno}: "):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("name, line, message", [
        ("labels.jsonl", '{"id": 1, "text": null}', "'text' must be a string, got null"),
        ("queries.jsonl", '{"id": 1, "text": "q", "labels": "12"}', "'labels' must be a list of integers, got \"12\""),
        ("queries.jsonl", '{"id": 1, "text": "q", "labels": [0, "x"]}', "'labels' must be a list of integers"),
        ("labels.jsonl", '{"id": 1.7, "text": "a"}', "'id' must be an integer, got 1.7"),
        ("labels.jsonl", '{"id": true, "text": "a"}', "'id' must be an integer, got true"),
        ("labels.jsonl", '{"id": 1}', "missing field 'text'"),
        ("labels.jsonl", '{"id": 1, "text": "ab\\ud800c"}',
         "'text' is not UTF-8 text: surrogates not allowed at character 2"),
        ("queries.jsonl", '{"id": 1, "text": "\\udfff", "labels": [0]}',
         "'text' is not UTF-8 text: surrogates not allowed at character 0"),
    ])
    def test_no_value_is_coerced(self, tmp_path, name, line, message):
        (tmp_path / "labels.jsonl").write_text('{"id": 0, "text": "a"}\n')
        (tmp_path / "queries.jsonl").write_text('{"id": 0, "text": "q", "labels": [0]}\n')
        with open(tmp_path / name, "a") as f:
            f.write(line + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(tmp_path / name))}:2: {re.escape(message)}"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("name, record", [
        ("labels.jsonl", b'{"id": 1, "text": "b"}'),
        ("queries.jsonl", b'{"id": 1, "text": "r", "labels": [0]}'),
    ])
    @pytest.mark.parametrize("layout", [
        b"  R\n", b"\tR\n",  # leading JSON whitespace
        b"R  \n", b"R\t\n", b"R\r", b"R\r\n",  # trailing JSON whitespace
        b"R\x0c\n",  # a trailing form feed, which JSON does not allow
        b"\x0b\x0c\n",  # ASCII whitespace only: a blank line
        b"\xc2\xa0\n",  # a no-break space only: not blank
        b"RR\n", b"R,\n",  # trailing data
        b"\xef\xbb\xbfR\n",  # a byte order mark
        b'{"id": NaN, "text": "b"}\n',
    ])
    def test_line_loads_as_json_loads_reads_it(self, tmp_path, name, record, layout):
        """A record line, however laid out, gives the records or the full
        error that the loader gives with json.loads decoding every line."""
        (tmp_path / "labels.jsonl").write_bytes(b'{"id": 0, "text": "a"}\n')
        (tmp_path / "queries.jsonl").write_bytes(b'{"id": 0, "text": "q", "labels": [0]}\n')
        with open(tmp_path / name, "ab") as f:
            f.write(layout.replace(b"R", record))

        def outcome():
            try:
                ds = load_dataset(tmp_path)
            except ValueError as e:
                return type(e), str(e)
            return [(l.id, l.text) for l in ds.labels], [(q.id, q.text, q.positives) for q in ds.queries]

        fast = outcome()
        with mock.patch.object(data_io, "_RAW_DECODE", mock.Mock(side_effect=ValueError)):
            assert fast == outcome()


class TestRunConfig:
    def test_parses_typed_values_and_comments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# training run\n"
            "epochs = 3\n"
            "learning_rate = 0.01  # tuned\n"
            "tcm_enabled = false\n"
            "sampler = ance\n"
        )
        config = load_key_values(cfg, TrainConfig)
        assert config.epochs == 3
        assert config.learning_rate == 0.01
        assert config.tcm_enabled is False
        assert config.sampler == "ance"

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense = 1\n")
        with pytest.raises(ParseError, match="unknown key"):
            load_key_values(cfg, TrainConfig)

    def test_data_path_is_not_a_config_key(self, tmp_path):
        # the dataset and output directories are --data and --out flags
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 3\ndata = /tmp/ds\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(cfg))}:2: unknown key 'data'$"):
            load_key_values(cfg, TrainConfig)

    def test_bad_value_rejected_with_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 3\nlearning_rate = fast\n")
        with pytest.raises(ParseError, match=":2"):
            load_key_values(cfg, TrainConfig)

    def test_missing_equals_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs\n")
        with pytest.raises(ParseError):
            load_key_values(cfg, TrainConfig)


def _field_values(cls):
    """Strategy for a dict of values for every field of cls, drawn by type."""
    by_type = {
        int: st.integers(2, 5000),
        float: st.floats(0.001, 0.99),
        bool: st.booleans(),
        str: st.sampled_from(["cluster", "ance"]),
    }
    kinds = {f.name: type(getattr(cls(), f.name)) for f in dataclasses.fields(cls)}
    return st.fixed_dictionaries({name: by_type[kind] for name, kind in kinds.items()})


def _format(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    return repr(value) if isinstance(value, float) else str(value)


class TestKeyValueParser:
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_written_values_round_trip(self, tmp_path, data):
        cls = data.draw(st.sampled_from([SyntheticSpec, TrainConfig]))
        values = data.draw(_field_values(cls))
        try:
            expected = cls(**values)
        except ValueError:
            assume(False)
        path = tmp_path / "fields.cfg"
        path.write_text("".join(f"{k} = {_format(v)}\n" for k, v in values.items()))
        parsed = load_key_values(path, cls)
        assert dataclasses.asdict(parsed) == dataclasses.asdict(expected)

    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.sampled_from([(SyntheticSpec, "seed"), (TrainConfig, "epochs")]),
        st.integers(0, 6),
        st.sampled_from(["seed_and_epochs", "{key} = 1.5", "{key} = ", "nonsense = 1", "true = false"]),
    )
    def test_malformed_line_reported_at_its_line(self, tmp_path, target, before, bad):
        cls, key = target
        # valid lines first, each setting another field to its default
        others = [f for f in dataclasses.fields(cls) if f.name != key][:before]
        lines = [f"{f.name} = {_format(f.default)}" for f in others] + [bad.format(key=key), f"{key} = 4"]
        path = tmp_path / "fields.cfg"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"fields.cfg:{before + 1}: "):
            load_key_values(path, cls)
