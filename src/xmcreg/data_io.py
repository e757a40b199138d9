"""Synthetic product-catalog generation, dataset files, and run configs.

Datasets are stored as JSONL: labels.jsonl with {"id", "text"} objects
and queries.jsonl with {"id", "text", "labels"} objects (UTF-8, LF).
The synthetic generator emits templated product titles grouped into
latent families, with queries rendered as corrupted/abbreviated versions
of one of their positive labels.
"""

from __future__ import annotations

import dataclasses
import json
import os
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .encoder import TextRecord
from .mining import Dataset, QueryRecord


class InvalidSpec(ValueError):
    """Synthetic-data spec violates its invariants."""


class ParseError(ValueError):
    """Malformed dataset or config file; message carries the line number."""


class ValidationError(ValueError):
    """Structurally valid file with inconsistent contents."""


@dataclass
class SyntheticSpec:
    num_labels: int = 200
    num_train_queries: int = 2000
    num_test_queries: int = 500
    families: int = 20
    noise_rate: float = 0.18
    abbreviation_rate: float = 0.7
    seed: int = 0

    def __post_init__(self) -> None:
        if not (self.num_labels >= self.families >= 2):
            raise InvalidSpec("need num_labels >= families >= 2")
        if not (0.0 <= self.noise_rate < 1.0 and 0.0 <= self.abbreviation_rate < 1.0):
            raise InvalidSpec("rates must lie in [0, 1)")
        if self.num_train_queries < 1:
            raise InvalidSpec(f"need num_train_queries >= 1, got {self.num_train_queries}")
        if self.num_test_queries < 0:
            raise InvalidSpec(f"need num_test_queries >= 0, got {self.num_test_queries}")
        if self.seed < 0:
            raise InvalidSpec(f"need seed >= 0, got {self.seed}")


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

_VOWELS = set("aeiou")


def _abbreviate_word(word: str) -> str:
    if len(word) <= 2:
        return word
    head, rest = word[0], word[1:]
    stripped = "".join(ch for ch in rest if ch not in _VOWELS)
    return head + stripped if stripped else word[:2]


def corrupt_text(text: str, rng: np.random.Generator, noise_rate: float, abbreviation_rate: float) -> str:
    """Query-style rendering: vowel-elided words, dropped characters,
    mangled size units. Identity when both rates are zero."""
    if noise_rate == 0.0 and abbreviation_rate == 0.0:
        return text
    words = text.split(" ")
    out_words = []
    for w in words:
        if abbreviation_rate > 0.0 and rng.random() < abbreviation_rate:
            if any(ch.isdigit() for ch in w):
                # size token: drop the unit suffix instead of eliding vowels
                w = "".join(ch for ch in w if ch.isdigit() or ch == ".")
            else:
                w = _abbreviate_word(w)
        out_words.append(w)
    corrupted = " ".join(out_words)
    if noise_rate > 0.0:
        kept = [ch for ch in corrupted if rng.random() >= noise_rate]
        corrupted = "".join(kept) if kept else corrupted[:1]
    return corrupted


def build_synthetic(spec: SyntheticSpec) -> tuple[list[TextRecord], list[QueryRecord], list[QueryRecord]]:
    """Labels plus train/test query records, fully determined by the seed."""
    rng = np.random.default_rng(spec.seed)
    combos = [(b, c) for b in _BRANDS for c in _CATEGORIES]
    if spec.families > len(combos):
        raise InvalidSpec(f"at most {len(combos)} families supported")
    family_idx = rng.choice(len(combos), size=spec.families, replace=False)
    families = [combos[int(i)] for i in family_idx]

    labels: list[TextRecord] = []
    family_of_label: list[int] = []
    seen = set()
    for lid in range(spec.num_labels):
        fam = lid % spec.families
        brand, category = families[fam]
        for _ in range(100):
            variant = _VARIANTS[rng.integers(len(_VARIANTS))]
            size = _SIZES[rng.integers(len(_SIZES))]
            unit = _UNITS[rng.integers(len(_UNITS))]
            text = f"{brand} {variant} {category} {size}{unit}"
            if text not in seen:
                break
        seen.add(text)
        labels.append(TextRecord(id=lid, text=text))
        family_of_label.append(fam)

    by_family: dict[int, list[int]] = {}
    for lid, fam in enumerate(family_of_label):
        by_family.setdefault(fam, []).append(lid)

    def make_queries(n: int) -> list[QueryRecord]:
        out = []
        for qid in range(n):
            src = int(rng.integers(spec.num_labels))
            fam_labels = by_family[family_of_label[src]]
            extra = int(rng.integers(3))  # 0-2 extra same-family positives
            others = [l for l in fam_labels if l != src]
            chosen = {src}
            if others and extra:
                picks = rng.choice(len(others), size=min(extra, len(others)), replace=False)
                chosen.update(others[int(i)] for i in picks)
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


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    write_atomic(path, "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))


def generate(spec: SyntheticSpec, out_dir: str | Path) -> None:
    """Write train/ and test/ dataset directories (shared label space)."""
    out_dir = Path(out_dir)
    labels, train_q, test_q = build_synthetic(spec)
    label_rows = [{"id": l.id, "text": l.text} for l in labels]
    for split, queries in (("train", train_q), ("test", test_q)):
        split_dir = out_dir / split
        split_dir.mkdir(parents=True, exist_ok=True)
        _write_jsonl(split_dir / "labels.jsonl", label_rows)
        _write_jsonl(
            split_dir / "queries.jsonl",
            [{"id": q.id, "text": q.text, "labels": sorted(q.positives)} for q in queries],
        )


# what each field type of a record file reads as in an error message
_KIND_NAMES = {int: "an integer", str: "a string", list: "a list of integers"}


def _records(path: Path, fields: dict[str, type]):
    """Yield (line number, values of ``fields`` in order) for every
    non-blank line of a JSONL file. Each line must be a UTF-8 JSON object
    holding each field with exactly its JSON type: an int is not a bool
    or a float, and a list holds ints. Anything else raises ParseError
    at ``path:line``. Other keys are ignored."""
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line.decode("utf-8"))
            except ValueError as e:  # not UTF-8, or not JSON
                raise ParseError(f"{path}:{lineno}: {e}") from e
            if type(obj) is not dict:
                raise ParseError(f"{path}:{lineno}: expected an object, got {json.dumps(obj)}")
            values = []
            for name, kind in fields.items():
                if name not in obj:
                    raise ParseError(f"{path}:{lineno}: missing field {name!r}")
                value = obj[name]
                # type(), not isinstance(): True must not pass as the int 1
                if type(value) is not kind or (kind is list and any(type(x) is not int for x in value)):
                    raise ParseError(f"{path}:{lineno}: {name!r} must be {_KIND_NAMES[kind]}, got {json.dumps(value)}")
                values.append(value)
            yield lineno, values


def _claim_id(path: Path, lineno: int, kind: str, id_: int, seen: set[int]) -> None:
    if id_ < 0:
        raise ValidationError(f"{path}:{lineno}: negative {kind} id {id_}")
    if id_ in seen:
        raise ValidationError(f"{path}:{lineno}: duplicate {kind} id {id_}")
    seen.add(id_)


def load_dataset(data_dir: str | Path) -> Dataset:
    """Load and validate a labels.jsonl / queries.jsonl directory. Every
    rejection names the file and line of the offending record."""
    data_dir = Path(data_dir)
    labels = []
    label_ids: set[int] = set()
    path = data_dir / "labels.jsonl"
    for lineno, (lid, text) in _records(path, {"id": int, "text": str}):
        _claim_id(path, lineno, "label", lid, label_ids)
        labels.append(TextRecord(id=lid, text=text))

    queries = []
    query_ids: set[int] = set()
    path = data_dir / "queries.jsonl"
    for lineno, (qid, text, pos) in _records(path, {"id": int, "text": str, "labels": list}):
        _claim_id(path, lineno, "query", qid, query_ids)
        if not pos:
            raise ValidationError(f"{path}:{lineno}: query {qid} has no positive labels")
        for lid in pos:
            if lid not in label_ids:
                raise ValidationError(f"{path}:{lineno}: query {qid} references missing label id {lid}")
        queries.append(QueryRecord(id=qid, text=text, positives=frozenset(pos)))

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

    Values are converted by each field's type. Unknown keys and
    unconvertible values are rejected with ``path:line``, values that
    fail the dataclass's own checks with ``path``.
    """
    kinds = typing.get_type_hints(cls)
    names = {f.name for f in dataclasses.fields(cls)}
    overrides: dict = {}
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
            try:
                overrides[key] = _parse_value(kinds[key], value)
            except ValueError as e:
                raise ParseError(f"{path}:{lineno}: {e}") from e
    try:
        return cls(**overrides)
    except ValueError as e:
        raise ParseError(f"{path}: {e}") from e
