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
from typing import Any, Callable, Iterator, Optional

from .errors import DataFormatError

# Values longer than this are truncated before distance evaluation;
# unbounded cells are metadata noise. Raw values are kept for reports.
MAX_EVAL_CHARS = 512

_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def normalize_raw(raw: str) -> str:
    """Return the normalized (trimmed, case-folded, truncated) string.
    Normalization is idempotent. A value it leaves unchanged comes back
    as the same object, so an index of normalized values can share the
    cell strings."""
    norm = raw.strip().casefold()[:MAX_EVAL_CHARS]
    return raw if norm == raw else norm


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

    def ids(self) -> list[str]:
        return [c.id for c in self.columns]


def _column_from_record(rec: dict, shared: dict[str, str]) -> Column:
    """The column a JSONL record describes (``Column`` refuses an empty
    one). Each value is replaced by the first equal string in ``shared``,
    so a corpus holds one object per distinct raw value."""
    if "id" not in rec or not isinstance(rec["id"], str):
        raise DataFormatError("missing or non-string 'id'")
    values = rec.get("values")
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise DataFormatError("'values' must be a list of strings")
    header = rec.get("header")
    if header is not None and not isinstance(header, str):
        raise DataFormatError("'header' must be a string when present")
    return Column(id=rec["id"], values=tuple(map(shared.setdefault, values, values)),
                  header=header)


def _load_jsonl(path: str) -> Corpus:
    shared: dict[str, str] = {}
    ids: set[str] = set()

    def column(rec: dict) -> Column:
        col = _column_from_record(rec, shared)
        if col.id in ids:
            raise DataFormatError(f"duplicate column id {col.id!r}")
        ids.add(col.id)
        return col

    # Writers may put a metadata object first; skip anything that
    # declares a kind and carries no values.
    return Corpus(read_records(path, column, lambda rec: "kind" in rec and "values" not in rec))


def _load_csv_dir(path: str) -> Corpus:
    columns: list[Column] = []
    for name in sorted(os.listdir(path)):
        full = os.path.join(path, name)
        if not os.path.isfile(full) or not name.lower().endswith(".csv"):
            continue
        with open(full, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows:
            continue
        width = max(len(r) for r in rows)
        for i in range(width):
            vals = tuple(r[i] for r in rows if i < len(r))
            if not vals:
                continue
            columns.append(Column(id=f"{name}:{i}", values=vals))
    return Corpus(columns)


def load_corpus(path: str) -> Corpus:
    """Load a corpus from a JSONL file or, when ``path`` is a directory,
    from the CSV files in it.

    JSONL: one column per line, ``{"id": str, "header": str?, "values":
    [str, ...]}``. CSV directory: each file is parsed with RFC-4180
    quoting and contributes one column per CSV column, with ids
    ``filename:column-index`` and no header; every row, the first
    included, holds values.
    """
    if not os.path.exists(path):
        raise DataFormatError(f"no such path: {path}")
    try:
        if os.path.isdir(path):
            return _load_csv_dir(path)
        return _load_jsonl(path)
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc})") from exc


def read_lines(path: str) -> Iterator[tuple[int, str]]:
    """The numbered lines of a UTF-8 text file. A file that cannot be
    opened or is not UTF-8 is a data error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield from enumerate(fh, start=1)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc


def read_json(path: str, what: str) -> dict:
    """The JSON object in a UTF-8 file. A file that cannot be read, is
    not JSON or holds anything but an object is a ``DataFormatError``
    that names ``what`` the file should be."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, ValueError) as exc:
        raise DataFormatError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise DataFormatError(f"{path}: a {what} must be a JSON object")
    return data


def read_records(path: str, parse: Callable[[dict], Any],
                 skip: Optional[Callable[[dict], bool]] = None) -> list:
    """``parse(rec)`` for each JSON object on a non-blank line of a UTF-8
    file, in file order, but for the objects ``skip`` passes over. A line
    that is not a JSON object, or whose ``parse`` raises ``KeyError``,
    ``TypeError``, ``ValueError`` or ``DataFormatError``, is a
    ``DataFormatError`` that names the file and the line."""
    out = []
    for lineno, line in read_lines(path):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict):
                raise DataFormatError(f"expected an object, got {type(rec).__name__}")
            if skip is None or not skip(rec):
                out.append(parse(rec))
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path} line {lineno}: invalid JSON ({exc.msg})") from exc
        except DataFormatError as exc:
            raise DataFormatError(f"{path} line {lineno}: {exc}") from None
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"{path} line {lineno}: bad record ({exc!r})") from exc
    return out


def write_json(path: str, data: dict) -> None:
    """Write ``data`` as an indented JSON document with sorted keys."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


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


def splice_donor_value(
    columns: list[Column], base: Column, rng: random.Random
) -> Optional[tuple[str, int, tuple[str, ...]]]:
    """Transplant a raw value from a uniformly chosen other column into
    ``base`` at a uniformly chosen position: returns the value, its
    position and ``base``'s values with it spliced in.

    The value must be absent from ``base`` after normalization: one
    already in the column would be undetectable by construction, so it
    is re-drawn up to ``_DONOR_RETRIES`` times; None when no fresh value
    turns up (and no position is drawn)."""
    present = set(base.normalized())
    for _ in range(_DONOR_RETRIES):
        donor = columns[rng.randrange(len(columns))]
        if donor.id == base.id:
            continue
        value = donor.values[rng.randrange(len(donor.values))]
        if normalize_raw(value) not in present:
            pos = rng.randrange(len(base.values) + 1)
            return value, pos, base.values[:pos] + (value,) + base.values[pos:]
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


def filter_columns(corpus: Corpus, skip_numeric: bool = True) -> Corpus:
    """Drop numeric-dominant columns (on by default for training;
    purely numeric columns are out of scope for semantic domains)."""
    if not skip_numeric:
        return corpus
    return Corpus([c for c in corpus if not is_numeric_dominant(c)])
