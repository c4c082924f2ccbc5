"""Corpus ingestion and normalization.

A corpus is a bag of independent table columns. Each column has a
unique id, an optional header, and an ordered list of raw string
values. Columns are immutable after load.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .errors import DataFormatError

# Values longer than this are truncated before distance evaluation;
# unbounded cells are metadata noise. Raw values are kept for reports.
MAX_EVAL_CHARS = 512

_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def normalize_raw(raw: str) -> str:
    """Return the normalized (trimmed, case-folded, truncated) string.
    Normalization is idempotent."""
    return raw.strip().casefold()[:MAX_EVAL_CHARS]


@dataclass(frozen=True)
class Column:
    """One table column: unique id, optional header, ordered raw values."""

    id: str
    values: tuple[str, ...]
    header: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) == 0:
            raise DataFormatError(f"empty column {self.id!r}")

    def normalized(self) -> list[str]:
        return [normalize_raw(v) for v in self.values]

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class Corpus:
    """An ordered collection of columns with unique ids."""

    columns: list[Column] = field(default_factory=list)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for col in self.columns:
            if col.id in seen:
                raise DataFormatError(f"duplicate column id {col.id!r}")
            seen.add(col.id)

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def __getitem__(self, i: int) -> Column:
        return self.columns[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return self.columns == other.columns

    def column_by_id(self, column_id: str) -> Column:
        for col in self.columns:
            if col.id == column_id:
                return col
        raise KeyError(column_id)

    def ids(self) -> list[str]:
        return [c.id for c in self.columns]


def _column_from_record(rec: dict, where: str) -> Column:
    if not isinstance(rec, dict):
        raise DataFormatError(f"{where}: expected an object, got {type(rec).__name__}")
    if "id" not in rec or not isinstance(rec["id"], str):
        raise DataFormatError(f"{where}: missing or non-string 'id'")
    values = rec.get("values")
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise DataFormatError(f"{where}: 'values' must be a list of strings")
    if len(values) == 0:
        raise DataFormatError(f"{where}: empty column {rec['id']!r}")
    header = rec.get("header")
    if header is not None and not isinstance(header, str):
        raise DataFormatError(f"{where}: 'header' must be a string when present")
    return Column(id=rec["id"], values=tuple(values), header=header)


def _load_jsonl(path: str) -> Corpus:
    columns: list[Column] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"{path} line {lineno}: invalid JSON ({exc.msg})") from exc
            # Writers may put a metadata object first; skip anything that
            # declares a kind and carries no values.
            if isinstance(rec, dict) and "kind" in rec and "values" not in rec:
                continue
            columns.append(_column_from_record(rec, f"{path} line {lineno}"))
    return Corpus(columns)


def _load_csv_dir(path: str, header_row: bool = False) -> Corpus:
    columns: list[Column] = []
    for name in sorted(os.listdir(path)):
        full = os.path.join(path, name)
        if not os.path.isfile(full) or not name.lower().endswith(".csv"):
            continue
        with open(full, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        headers: list[str] = []
        if header_row and rows:
            headers = rows[0]
            rows = rows[1:]
        if not rows:
            continue
        width = max(len(r) for r in rows)
        for i in range(width):
            vals = tuple(r[i] for r in rows if i < len(r))
            if not vals:
                continue
            hdr = headers[i] if i < len(headers) else None
            columns.append(Column(id=f"{name}:{i}", values=vals, header=hdr))
    return Corpus(columns)


def load_corpus(path: str, header_row: bool = False) -> Corpus:
    """Load a corpus from a JSONL file or, when ``path`` is a directory,
    from the CSV files in it.

    JSONL: one column per line, ``{"id": str, "header": str?, "values":
    [str, ...]}``. CSV directory: each file is parsed with RFC-4180
    quoting and contributes one column per CSV column, with ids
    ``filename:column-index``.
    """
    if not os.path.exists(path):
        raise DataFormatError(f"no such path: {path}")
    try:
        if os.path.isdir(path):
            return _load_csv_dir(path, header_row=header_row)
        return _load_jsonl(path)
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc})") from exc


def save_corpus(corpus: Corpus, path: str, meta: Optional[dict] = None) -> None:
    """Write a corpus as JSONL; ``load_corpus`` round-trips it exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        if meta is not None:
            fh.write(json.dumps({"kind": "corpus-meta", **meta}) + "\n")
        for col in corpus:
            rec: dict = {"id": col.id}
            if col.header is not None:
                rec["header"] = col.header
            rec["values"] = list(col.values)
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def sample_columns(corpus: Corpus, n: int, seed: int) -> tuple[Corpus, Corpus]:
    """Split off ``n`` held-out columns uniformly without replacement.

    Returns ``(train, heldout)``; both preserve corpus order, their id
    sets are disjoint, and together they cover the corpus exactly.
    Deterministic for a given seed.
    """
    if n < 0 or n > len(corpus):
        raise ValueError(f"n={n} out of range for corpus of {len(corpus)} columns")
    rng = random.Random(seed)
    held_idx = set(rng.sample(range(len(corpus)), n))
    heldout = [c for i, c in enumerate(corpus) if i in held_idx]
    train = [c for i, c in enumerate(corpus) if i not in held_idx]
    return Corpus(train), Corpus(heldout)


# Donor draws per transplant before the transplant is skipped.
_DONOR_RETRIES = 16


def draw_donor_value(
    columns: list[Column], base: Column, rng: random.Random
) -> Optional[str]:
    """Draw a raw value from a uniformly chosen other column that is
    absent from ``base`` after normalization, for transplanting into
    ``base``. A value already in the column would be undetectable by
    construction, so it is re-drawn up to ``_DONOR_RETRIES`` times;
    None when no fresh value turns up."""
    present = set(base.normalized())
    for _ in range(_DONOR_RETRIES):
        donor = columns[rng.randrange(len(columns))]
        if donor.id == base.id:
            continue
        value = donor.values[rng.randrange(len(donor.values))]
        if normalize_raw(value) not in present:
            return value
    return None


def parses_as_number(value: str) -> bool:
    s = value.strip()
    if not _NUMBER_RE.match(s):
        return False
    try:
        return math.isfinite(float(s))
    except ValueError:  # pragma: no cover - regex already guards
        return False


def is_numeric_dominant(column: Column, threshold: float = 0.9) -> bool:
    """True when at least ``threshold`` of the values parse as numbers."""
    hits = sum(1 for v in column.values if parses_as_number(v))
    return hits >= threshold * len(column.values)


def filter_columns(
    corpus: Corpus,
    skip_numeric: bool = True,
    numeric_threshold: float = 0.9,
) -> Corpus:
    """Drop numeric-dominant columns (on by default for training and
    inference; purely numeric columns are out of scope for semantic
    domains)."""
    if not skip_numeric:
        return corpus
    return Corpus([c for c in corpus if not is_numeric_dominant(c, numeric_threshold)])


def corpus_from_lists(values_by_id: dict[str, Iterable[str]]) -> Corpus:
    """Convenience constructor used by tests and demos."""
    return Corpus([Column(id=k, values=tuple(v)) for k, v in values_by_id.items()])
