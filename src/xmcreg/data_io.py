"""Synthetic product-catalog generation, dataset files, and run configs.

Datasets are stored as JSONL: labels.jsonl with {"id", "text"} objects
and queries.jsonl with {"id", "text", "labels"} objects (UTF-8, LF).
The synthetic generator emits templated product titles grouped into
latent families, with queries rendered as corrupted/abbreviated versions
of one of their positive labels.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import operator
import os
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .encoder import TextRecord
from .mining import Dataset, QueryRecord


class InvalidSpec(ValueError):
    """Synthetic-data spec violates its invariants. ``field`` names the field
    whose rule failed; None for the title cap, a limit of the generator."""

    def __init__(self, message: str, field: str | None = None) -> None:
        super().__init__(message)
        self.field = field


class ParseError(ValueError):
    """Malformed dataset or config file; message carries the line number."""


class ValidationError(ValueError):
    """Structurally valid file with inconsistent contents."""


@dataclass
class SyntheticSpec:
    """Size, noise and seed of a synthetic catalogue (see build_synthetic).

    Each family offers len(_VARIANTS) * len(_SIZES) * len(_UNITS) = 512
    distinct titles, so ``num_labels`` may not exceed 512 * ``families``.
    Below that cap a title can still repeat by bad luck, since a label
    gives up after 100 draws: 1,000 labels over 2 families hold 999
    distinct titles at seed 0."""

    num_labels: int = 200
    num_train_queries: int = 2000
    num_test_queries: int = 500
    families: int = 20
    noise_rate: float = 0.18
    abbreviation_rate: float = 0.7
    seed: int = 0

    def __post_init__(self) -> None:
        # (field, holds, rule); written so that a NaN fails its rule
        cap = len(_BRANDS) * len(_CATEGORIES)  # one family per (brand, category)
        titles = len(_VARIANTS) * len(_SIZES) * len(_UNITS)  # distinct titles per family
        for name, holds, rule in (
            ("families", 2 <= self.families <= cap, f"in [2, {cap}]"),
            ("num_labels", self.num_labels >= self.families, f">= families ({self.families})"),
            ("noise_rate", 0.0 <= self.noise_rate < 1.0, "in [0, 1)"),
            ("abbreviation_rate", 0.0 <= self.abbreviation_rate < 1.0, "in [0, 1)"),
            ("num_train_queries", self.num_train_queries >= 1, ">= 1"),
            ("num_test_queries", self.num_test_queries >= 1, ">= 1"),
            ("seed", self.seed >= 0, ">= 0"),
        ):
            if not holds:
                raise InvalidSpec(f"need {name} {rule}, got {getattr(self, name)!r}", name)
        if not self.num_labels <= titles * self.families:
            raise InvalidSpec(f"need num_labels <= {titles * self.families} ({titles} titles x "
                              f"{self.families} families), got {self.num_labels!r}")


_BRANDS = [
    "oreo", "lotus", "nabisco", "keebler", "pepperidge", "tates", "famous amos",
    "chips ahoy", "milano", "walkers", "voortman", "biscoff", "mcvities", "leibniz",
    "bahlsen", "loacker", "quadratini", "pocky", "hello panda", "belvita",
    "ritz", "triscuit", "wheat thins", "cheez it",
]
_CATEGORIES = [
    "creme sandwich cookies", "chocolate chip cookies", "butter biscuits",
    "wafer rolls", "shortbread fingers", "oatmeal crisps", "graham crackers",
    "snack crackers", "vanilla wafers", "fudge stripes", "ginger snaps",
    "animal crackers", "sugar cookies", "peanut butter cookies",
    "coconut macaroons", "lemon thins",
]
_VARIANTS = [
    "original", "double stuf", "peanut butter", "chocolate", "vanilla",
    "mint", "golden", "dark chocolate", "caramel", "strawberry", "hazelnut",
    "cinnamon", "birthday cake", "reduced fat", "gluten free", "family size",
]
_SIZES = ["7.76", "9.5", "13", "14.3", "17", "19.1", "24", "32"]
_UNITS = ["oz", "ct", "pk", "g"]

_ELIDE_VOWELS = str.maketrans("", "", "aeiou")


def _abbreviate_word(word: str) -> str:
    if any(map(str.isdigit, word)):
        # size token: drop the unit suffix instead of eliding vowels
        return "".join(ch for ch in word if ch.isdigit() or ch == ".")
    if len(word) <= 2:
        return word
    stripped = word[1:].translate(_ELIDE_VOWELS)
    return word[0] + stripped if stripped else word[:2]


def corrupt_text(text: str, rng: np.random.Generator, noise_rate: float, abbreviation_rate: float) -> str:
    """Query-style rendering: vowel-elided words, dropped characters,
    mangled size units. Identity when both rates are zero.

    Draws one uniform per space-separated word when ``abbreviation_rate``
    is non-zero, then one per character of the abbreviated text when
    ``noise_rate`` is non-zero, each set as one ``rng.random(n)`` call:
    the same doubles, and the same generator state after, as n single
    ``rng.random()`` calls (a uniform double leaves the generator's
    buffered 32-bit half alone)."""
    if noise_rate == 0.0 and abbreviation_rate == 0.0:
        return text
    words = text.split(" ")
    if abbreviation_rate > 0.0:
        hits = (rng.random(len(words)) < abbreviation_rate).tolist()
        words = [_abbreviate_word(w) if hit else w for w, hit in zip(words, hits)]
    corrupted = " ".join(words)
    if noise_rate > 0.0:
        kept = "".join(itertools.compress(corrupted, (rng.random(len(corrupted)) >= noise_rate).tolist()))
        corrupted = kept or corrupted[:1]
    return corrupted


def _bounded_draws(rng: np.random.Generator, sizes: tuple[int, ...], count: int) -> np.ndarray:
    """``count`` rows of one index below each of ``sizes``: the indices of
    ``[[rng.integers(n) for n in sizes] for _ in range(count)]``, leaving
    ``rng`` in the state those calls leave it, buffered half included.

    Each such call takes one 32-bit half of the generator's stream: the
    half that the generator buffers (``has_uint32`` and ``uinteger`` in its
    state) if it holds one, otherwise the low half of a new 64-bit draw,
    buffering the high half. It maps the half u to ``(u * n) >> 32``
    (Lemire's multiply-shift) and would draw again when the low 32 bits of
    ``u * n`` fall below 2**32 mod n, which never happens when n divides
    2**32. Any other n, and n = 1 (which takes no half), is refused. So
    this takes the buffered half first, then draws only the 64-bit values
    that the calls would draw, splits each arithmetically (low, then high),
    and buffers the last high half if the calls would leave it unused."""
    for n in sizes:
        if not (2 <= n <= 2**32 and 2**32 % n == 0):
            raise ValueError(f"bulk draws need each size to divide 2**32 and be at least 2, got {n}")
    halves_used = count * len(sizes)
    bitgen = rng.bit_generator
    state = bitgen.state
    buffered = state["has_uint32"]
    raw = bitgen.random_raw((halves_used - buffered + 1) // 2)
    halves = np.empty(buffered + 2 * raw.size, np.uint64)
    halves[:buffered] = state["uinteger"]
    halves[buffered::2] = raw & 0xFFFFFFFF
    halves[buffered + 1::2] = raw >> 32
    if halves_used:
        state = bitgen.state
        state["has_uint32"] = int(halves.size > halves_used)
        state["uinteger"] = int(halves[-1])  # the entering half when nothing was drawn
        bitgen.state = state
    return (halves[:halves_used].reshape(count, len(sizes)) * np.array(sizes, np.uint64)) >> 32


def _label_titles(rng: np.random.Generator, families: list[tuple[str, str]], num_labels: int) -> list[str]:
    """The title of each label: label lid is in family lid % len(families)
    and draws a variant, a size and a unit until its title is new, keeping
    the last after 100 draws. Draws as one ``rng.integers`` call per index
    would, in bulk: first the 3 indices that every label needs at least,
    then, once retries have used them up, the 3 that each label left needs."""
    sizes = (len(_VARIANTS), len(_SIZES), len(_UNITS))
    titles: list[str] = []
    seen = set()
    draws = iter(())
    for lid in range(num_labels):
        brand, category = families[lid % len(families)]
        for _ in range(100):
            drawn = next(draws, None)
            if drawn is None:
                draws = iter(_bounded_draws(rng, sizes, num_labels - lid).tolist())
                drawn = next(draws)
            v, s, u = drawn
            text = f"{brand} {_VARIANTS[v]} {category} {_SIZES[s]}{_UNITS[u]}"
            if text not in seen:
                break
        seen.add(text)
        titles.append(text)
    return titles


def build_synthetic(spec: SyntheticSpec) -> tuple[list[TextRecord], list[QueryRecord], list[QueryRecord]]:
    """Labels plus train/test query records, fully determined by the seed.

    The label titles take their indices in bulk (``_bounded_draws``), yet
    get those of one ``rng.integers(n)`` call per index and leave the
    generator in the same state. That rests on numpy's ``Generator.integers``
    over PCG64 taking one 32-bit half of the stream per call, low half
    first, and mapping it by Lemire's multiply-shift, which never rejects
    when n divides 2**32 (16 variants, 8 sizes, 4 units). If a numpy
    release changes that, ``tests/test_data_io.py``'s ``TestBulkDraws`` and
    ``TestGenerateAndLoad::test_writes_the_per_call_oracles_bytes``, which
    compare with the one-call-per-draw oracles, fail."""
    rng = np.random.default_rng(spec.seed)
    combos = [(b, c) for b in _BRANDS for c in _CATEGORIES]
    family_idx = rng.choice(len(combos), size=spec.families, replace=False)
    families = [combos[int(i)] for i in family_idx]
    titles = _label_titles(rng, families, spec.num_labels)
    labels = [TextRecord(id=lid, text=text) for lid, text in enumerate(titles)]

    def make_queries(n: int) -> list[QueryRecord]:
        out = []
        for qid in range(n):
            src = int(rng.integers(spec.num_labels))
            # label lid is in family lid % families, so src sits at index
            # src // families of its family's ascending ids
            fam_labels = range(src % spec.families, spec.num_labels, spec.families)
            extra = int(rng.integers(3))  # 0-2 extra same-family positives
            others = len(fam_labels) - 1
            chosen = {src}
            if others and extra:
                at = src // spec.families
                picks = rng.choice(others, size=min(extra, others), replace=False).tolist()
                chosen.update(fam_labels[i + (i >= at)] for i in picks)
            text = corrupt_text(labels[src].text, rng, spec.noise_rate, spec.abbreviation_rate)
            out.append(QueryRecord(id=qid, text=text, positives=frozenset(chosen)))
        return out

    return labels, make_queries(spec.num_train_queries), make_queries(spec.num_test_queries)


def write_atomic(path: str | Path, data: str | bytes | typing.Iterable[bytes]) -> None:
    """Write ``data`` (a str as UTF-8, or bytes-like chunks in order) to
    ``path`` through a ``.tmp`` file beside it and os.replace, so ``path``
    never holds a partial file. A write that fails part way removes the ``.tmp``."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    if isinstance(data, (str, bytes)):
        data = [data.encode("utf-8") if isinstance(data, str) else data]
    try:
        with open(tmp, "wb") as f:
            f.writelines(data)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def _label_line(id_: int, text: str) -> str:
    """One labels.jsonl line, as ``json.dumps(row, sort_keys=True)`` writes it."""
    return f'{{"id": {id_}, "text": {json.dumps(text)}}}\n'


def _query_line(id_: int, labels: list[int], text: str) -> str:
    """One queries.jsonl line, as ``json.dumps(row, sort_keys=True)`` writes it."""
    return f'{{"id": {id_}, "labels": [{", ".join(map(str, labels))}], "text": {json.dumps(text)}}}\n'


def generate(spec: SyntheticSpec, out_dir: str | Path) -> None:
    """Write train/ and test/ dataset directories (shared label space)."""
    out_dir = Path(out_dir)
    labels, train_q, test_q = build_synthetic(spec)
    label_lines = "".join([_label_line(l.id, l.text) for l in labels]).encode("utf-8")
    for split, queries in (("train", train_q), ("test", test_q)):
        split_dir = out_dir / split
        split_dir.mkdir(parents=True, exist_ok=True)
        write_atomic(split_dir / "labels.jsonl", label_lines)
        write_atomic(split_dir / "queries.jsonl",
                     "".join([_query_line(q.id, sorted(q.positives), q.text) for q in queries]).encode("utf-8"))


# what each field type of a record file reads as in an error message
_KIND_NAMES = {int: "an integer", str: "a string", list: "a list of integers"}
# json.loads's own decoder, whose C scanner _records calls without json.loads's
# whitespace matches; JSON allows only these four whitespace characters
_RAW_DECODE = json.JSONDecoder().raw_decode
_JSON_SPACE = " \t\n\r"
_ALL_INTS = {int}.issuperset  # of the types of a list's items


def _field_values(path: Path, lineno: int, obj, fields: dict[str, type]) -> list:
    """The values of ``fields`` in the decoded record ``obj``, checked one by
    one; the first that fails raises ParseError at ``path:lineno``."""
    if type(obj) is not dict:
        raise ParseError(f"{path}:{lineno}: expected an object, got {json.dumps(obj)}")
    values = []
    for name, kind in fields.items():
        if name not in obj:
            raise ParseError(f"{path}:{lineno}: missing field {name!r}")
        value = obj[name]
        # type(), not isinstance(): True must not pass as the int 1
        if type(value) is not kind or (kind is list and not _ALL_INTS(map(type, value))):
            raise ParseError(f"{path}:{lineno}: {name!r} must be {_KIND_NAMES[kind]}, got {json.dumps(value)}")
        if kind is str:
            try:  # an escape such as \ud800 decodes to a lone surrogate, which UTF-8 cannot encode
                value.encode("utf-8")
            except UnicodeEncodeError as e:
                raise ParseError(
                    f"{path}:{lineno}: {name!r} is not UTF-8 text: {e.reason} at character {e.start}") from None
        values.append(value)
    return values


def _records(path: Path, fields: dict[str, type]):
    """Yield (line number, values of ``fields`` in order) for every
    non-blank line of a JSONL file. Each line must be a UTF-8 JSON object
    holding each field with exactly its JSON type: an int is not a bool
    or a float, a list holds ints, and a string encodes as UTF-8. Anything
    else raises ParseError at ``path:line``. Other keys are ignored.

    A line that is one JSON value from its first character, followed by
    JSON whitespace only, is decoded by the C scanner alone. Any other
    line (leading whitespace, trailing data, bad JSON) goes to json.loads,
    which gives the same value or raises its exact error."""
    # of two fields or more, so that pick gives a tuple
    pick, kinds = operator.itemgetter(*fields), tuple(fields.values())
    lists = [i for i, kind in enumerate(kinds) if kind is list]
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                text = line.decode("utf-8")
                try:
                    obj, end = _RAW_DECODE(text)
                    whole = not text[end:].strip(_JSON_SPACE)
                except ValueError:
                    whole = False
                if not whole:
                    obj = json.loads(text)
            except ValueError as e:  # not UTF-8, or not JSON
                raise ParseError(f"{path}:{lineno}: {e}") from e
            # the common record, checked at once: every field there with
            # exactly its type, lists of ints, and no \u escape, so no lone
            # surrogate (text decoded from UTF-8 holds none); any other is
            # checked field by field
            try:
                values = pick(obj)
            except (KeyError, TypeError):  # a missing field, or not an object
                values = None
            plain = values is not None and tuple(map(type, values)) == kinds and "\\u" not in text
            for i in lists:  # a loop, not a generator: one is built per line
                plain = plain and _ALL_INTS(map(type, values[i]))
            if not plain:
                values = _field_values(path, lineno, obj, fields)
            yield lineno, values


def _bad_id(path: Path, lineno: int, kind: str, id_: int) -> ValidationError:
    return ValidationError(f"{path}:{lineno}: {'negative' if id_ < 0 else 'duplicate'} {kind} id {id_}")


def load_dataset(data_dir: str | Path) -> Dataset:
    """Load and validate a labels.jsonl / queries.jsonl directory. Every
    rejection names the file and line of the offending record, or only
    the file when it holds no records."""
    data_dir = Path(data_dir)
    labels = []
    label_ids: set[int] = set()
    path = data_dir / "labels.jsonl"
    for lineno, (lid, text) in _records(path, {"id": int, "text": str}):
        if lid < 0 or lid in label_ids:
            raise _bad_id(path, lineno, "label", lid)
        label_ids.add(lid)
        labels.append(TextRecord(lid, text))
    if not labels:
        raise ValidationError(f"{path}: no label records")

    queries = []
    query_ids: set[int] = set()
    path = data_dir / "queries.jsonl"
    for lineno, (qid, text, pos) in _records(path, {"id": int, "text": str, "labels": list}):
        if qid < 0 or qid in query_ids:
            raise _bad_id(path, lineno, "query", qid)
        query_ids.add(qid)
        if not pos:
            raise ValidationError(f"{path}:{lineno}: query {qid} has no positive labels")
        positives = frozenset(pos)
        if not positives <= label_ids:
            missing = next(lid for lid in pos if lid not in label_ids)
            raise ValidationError(f"{path}:{lineno}: query {qid} references missing label id {missing}")
        queries.append(QueryRecord(qid, text, positives))
    if not queries:
        raise ValidationError(f"{path}: no query records")

    return Dataset(queries=queries, labels=labels)


# ---------------------------------------------------------------------------
# config files: `key = value` lines, '#' comments

def _parse_value(kind: type, value: str):
    if kind is bool:
        if value.lower() not in ("true", "false"):
            raise ValueError(f"bad bool {value!r}")
        return value.lower() == "true"
    return kind(value)


def load_key_values(path: str | Path, cls: type):
    """Parse a config file into an instance of the dataclass ``cls``.

    Values are converted by each field's type. Unknown keys, keys set
    twice and unconvertible values are rejected with ``path:line``, values
    that fail the dataclass's own checks with ``path``.
    """
    kinds = typing.get_type_hints(cls)
    names = {f.name for f in dataclasses.fields(cls)}
    overrides: dict = {}
    first_line: dict[str, int] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in names:
                raise ParseError(f"{path}:{lineno}: unknown key {key!r}")
            if key in first_line:
                raise ParseError(f"{path}:{lineno}: duplicate key {key!r} (first set on line {first_line[key]})")
            first_line[key] = lineno
            try:
                overrides[key] = _parse_value(kinds[key], value)
            except ValueError as e:
                raise ParseError(f"{path}:{lineno}: {e}") from e
    try:
        return cls(**overrides)
    except ValueError as e:
        raise ParseError(f"{path}: {e}") from e
