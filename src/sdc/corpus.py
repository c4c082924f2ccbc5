"""Corpus ingestion and normalization.

A corpus is a bag of independent table columns. Each column has a
unique id, an optional header, and an ordered list of raw string
values. Columns are immutable after load.

A ``Corpus`` is coded: it holds the distinct raw values once, in
first-seen order, and each cell's position among them. The JSONL reader
codes every cell as it reads it, and ``take`` (behind the numeric filter
and the held-out split) keeps a subset of columns on their codes, so
``ValueIndex`` normalizes and interns once per distinct raw value and
neither ``sdc gen`` nor ``sdc infer`` builds a ``Column``."""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import random
import re
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Hashable, Iterable, Iterator, Optional, Sequence

import numpy as np

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


def distinct_rows(keys: Iterable[Hashable], narrow: bool = False) -> tuple[list, np.ndarray]:
    """The distinct ``keys`` in first-seen order, and each key's position
    among them: ``intp``, or with ``narrow`` the narrowest unsigned type
    that holds them. Each key gets its first occurrence's running
    position by one C-level ``dict.setdefault``, and one scatter makes
    the positions dense, with no sort."""
    first: dict = {}
    pos = array(np.dtype(np.intp).char)
    pos.extend(map(first.setdefault, keys, itertools.count()))
    starts = np.fromiter(first.values(), dtype=np.intp, count=len(first))
    distinct = list(first)
    first.clear()
    # Narrow codes suit a corpus, which keeps them beside its index's own.
    dtype = np.min_scalar_type(max(len(distinct) - 1, 0)) if narrow else np.dtype(np.intp)
    dense = np.empty(len(pos), dtype=dtype)
    dense[starts] = np.arange(len(starts), dtype=dtype)
    return distinct, dense[np.frombuffer(pos, dtype=np.intp)]


class Corpus:
    """An ordered collection of table columns, coded.

    ``ids`` and ``headers`` give each column's id and header. ``raw``
    lists the distinct raw values in first-seen order, each the string
    of its first cell; ``raw_codes``, of the narrowest unsigned type that
    holds them, gives each cell's position in ``raw``, column after
    column, and column ``j`` owns cells ``offsets[j]:offsets[j + 1]``.
    The JSONL reader and ``take`` make a corpus from codes, and it builds
    its ``Column``s only when asked; a corpus made from ``Column``s codes
    them on first use, as the reader would."""

    def __init__(self, columns: Iterable[Column] = ()) -> None:
        self.columns = list(columns)
        # len(), and with it list()'s length hint, codes nothing.
        self.ids = [col.id for col in self.columns]

    def __getattr__(self, name: str) -> Any:
        # Reached only by a corpus made from columns, before it is coded.
        if name not in ("headers", "raw", "raw_codes", "offsets"):
            raise AttributeError(name)
        self._code((col.id, col.values, col.header) for col in self.columns)
        return getattr(self, name)

    def _code(self, columns: Iterable[tuple[str, Sequence[str], Optional[str]]]) -> Corpus:
        """Code ``columns``, (id, values, header) triples, in one pass."""
        self.ids, self.headers, lengths = [], [], array(np.dtype(np.intp).char)

        def values(column: tuple[str, Sequence[str], Optional[str]]) -> Sequence[str]:
            self.ids.append(column[0])
            self.headers.append(column[2])
            lengths.append(len(column[1]))
            return column[1]

        self.raw, self.raw_codes = distinct_rows(
            itertools.chain.from_iterable(map(values, columns)), narrow=True)
        self.offsets = np.zeros(len(lengths) + 1, dtype=np.intp)
        np.cumsum(np.frombuffer(lengths, dtype=np.intp), out=self.offsets[1:])
        return self

    @cached_property
    def columns(self) -> list[Column]:
        """Each column as a ``Column``; equal raw values are one object."""
        cells = list(map(self.raw.__getitem__, self.raw_codes.tolist()))
        bounds = self.offsets.tolist()
        return [Column(id=cid, values=tuple(cells[lo:hi]), header=header)
                for cid, header, lo, hi in zip(self.ids, self.headers, bounds, bounds[1:])]

    def take(self, positions: Sequence[int]) -> Corpus:
        """The columns at ``positions``, in that order, coded as the
        reader codes them alone: the kept raw values are renumbered in
        first-seen order, so every value order downstream is the one the
        same ``Column``s give."""
        pos = np.asarray(positions, dtype=np.intp)
        lengths = np.diff(self.offsets)[pos]
        taken = Corpus.__new__(Corpus)
        taken.ids = [self.ids[j] for j in pos.tolist()]
        taken.headers = [self.headers[j] for j in pos.tolist()]
        taken.offsets = np.zeros(len(pos) + 1, dtype=np.intp)
        np.cumsum(lengths, out=taken.offsets[1:])
        cells = np.arange(taken.offsets[-1])
        cells += np.repeat(self.offsets[pos] - taken.offsets[:-1], lengths)
        kept, taken.raw_codes = distinct_rows(self.raw_codes[cells].tolist(), narrow=True)
        taken.raw = list(map(self.raw.__getitem__, kept))
        return taken

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Corpus) and self.columns == other.columns

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def __getitem__(self, i: int) -> Column:
        return self.columns[i]


def _load_jsonl(path: str) -> Corpus:
    ids: set[str] = set()

    def column(rec: dict) -> tuple[str, list[str], Optional[str]]:
        if "id" not in rec or not isinstance(rec["id"], str):
            raise DataFormatError("missing or non-string 'id'")
        values = rec.get("values")
        # str.__instancecheck__ is isinstance(v, str), one C call per cell.
        if not isinstance(values, list) or not all(map(str.__instancecheck__, values)):
            raise DataFormatError("'values' must be a list of strings")
        header = rec.get("header")
        if header is not None and not isinstance(header, str):
            raise DataFormatError("'header' must be a string when present")
        if not values:
            raise DataFormatError(f"empty column {rec['id']!r}")
        if rec["id"] in ids:
            raise DataFormatError(f"duplicate column id {rec['id']!r}")
        ids.add(rec["id"])
        return rec["id"], values, header

    # Writers may put a metadata object first; skip anything that
    # declares a kind and carries no values. Each line is coded as it
    # is read.
    return Corpus.__new__(Corpus)._code(
        iter_records(path, column, lambda rec: "kind" in rec and "values" not in rec))


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


def iter_records(path: str, parse: Callable[[dict], Any],
                 skip: Optional[Callable[[dict], bool]] = None) -> Iterator:
    """``parse(rec)`` for each JSON object on a non-blank line of a UTF-8
    file, in file order, but for the objects ``skip`` passes over. A line
    that is not a JSON object, or whose ``parse`` raises ``KeyError``,
    ``TypeError``, ``ValueError`` or ``DataFormatError``, is a
    ``DataFormatError`` that names the file and the line."""
    for lineno, line in read_lines(path):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict):
                raise DataFormatError(f"expected an object, got {type(rec).__name__}")
            if skip is None or not skip(rec):
                yield parse(rec)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path} line {lineno}: invalid JSON ({exc.msg})") from exc
        except DataFormatError as exc:
            raise DataFormatError(f"{path} line {lineno}: {exc}") from None
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"{path} line {lineno}: bad record ({exc!r})") from exc


def read_records(path: str, parse: Callable[[dict], Any],
                 skip: Optional[Callable[[dict], bool]] = None) -> list:
    """``iter_records``' results as a list."""
    return list(iter_records(path, parse, skip))


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
    held = np.zeros(len(corpus), dtype=bool)
    held[rng.sample(range(len(corpus)), n)] = True
    return corpus.take(np.flatnonzero(~held)), corpus.take(np.flatnonzero(held))


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


def filter_columns(corpus: Corpus, skip_numeric: bool = True) -> Corpus:
    """Drop numeric-dominant columns, where at least 90% of the values
    parse as numbers (on by default for training; purely numeric columns
    are out of scope for semantic domains). Each distinct raw value is
    parsed once."""
    if not skip_numeric:
        return corpus
    numeric = np.fromiter(map(parses_as_number, corpus.raw), dtype=bool, count=len(corpus.raw))
    hits = np.add.reduceat(numeric[corpus.raw_codes], corpus.offsets[:-1], dtype=np.intp)
    return corpus.take(np.flatnonzero(hits < 0.9 * np.diff(corpus.offsets)))
