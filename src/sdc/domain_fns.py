"""Domain-evaluation functions.

A domain-evaluation function assigns every string value a nonnegative
distance to one semantic type: small means "inside the domain". Five
families are provided:

- ``score_table``: distance = 1 - precomputed score for the value;
- ``embedding``: Euclidean distance to a centroid in a word-vector space;
- ``pattern``: 0 iff the value fully matches a token-class pattern, else 1;
- ``validator``: 0 iff a built-in validator accepts the value, else 1;
- ``random_hash``: a seeded uniform-[0, 1) hash of the value (adversarial
  control family used in robustness tests). The value's unkeyed 64-bit
  BLAKE2b digest is XORed with a 64-bit key that SplitMix64 draws from
  the seed, then mixed by SplitMix64's finalizer (Steele, Lea & Flood,
  OOPSLA 2014); the distance is the top 53 bits times 2**-53. Earlier
  versions keyed BLAKE2b with the seed itself, so ``hash:N`` now names a
  different (equally uniform) function than it did then.

All families are pure: repeated evaluation of the same (function, value)
pair returns bit-identical results.

``ValueIndex`` holds each distinct normalized value once and evaluates
each family over its distinct values as arrays, with what a family
shares computed once and cached on the index:

- ``embedding``: per space, the positions of the distinct values the
  space can embed and one matrix of just their vectors; one row-wise
  norm over it per centroid, and every other value is infinitely far.
  Each value is one vocabulary lookup; only a value out of vocabulary
  that ``str.split`` breaks into several tokens is embedded as their
  mean;
- ``random_hash``: one digest per value, shared by every seed, and three
  vectorized mixing steps per seed;
- ``pattern``: one token-class shape per value (``value_shape``). A
  value fully matches a canonical pattern, which is every pattern
  ``infer_patterns`` generates, iff its shape equals the pattern, so each
  such pattern is one comparison per value; a non-canonical pattern
  (say ``\\d+\\d+``, or one with a literal letter) keeps its regex;
- ``score_table``: one table lookup per value, in one C-level pass;
- ``validator`` and non-canonical patterns: one ``distance`` call per
  value. The date, URL and ISO-timestamp validators first reject, by
  shape, values their parsers cannot accept.

Each family's array form returns, value by value, the same bits as
``distance``.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import warnings
from dataclasses import dataclass, field, replace
from datetime import datetime
from functools import cached_property
from itertools import repeat
from typing import Callable, Iterable, Iterator, Optional, Sequence
from urllib.parse import urlparse

import numpy as np

from .corpus import (
    Column,
    Corpus,
    distinct_rows,
    normalize_raw,
    read_lines,
    read_records,
)
from .errors import DataFormatError, json_int, json_number, json_str

INFINITE_DISTANCE = math.inf
# Cells per block of ``ValueIndex.inside_counts``: its two per-cell
# index arrays then take about 1 MiB.
_BLOCK_CELLS = 1 << 16


# ---------------------------------------------------------------------------
# Embedding spaces


@dataclass
class EmbeddingSpace:
    """A token -> vector map with a single shared dimension."""

    dimension: int
    vectors: dict[str, np.ndarray]
    id: str = "space"

    def __post_init__(self) -> None:
        # Vectors given as lists become float64 arrays once, so single
        # values and whole batches are embedded from the same rows.
        self.vectors = {t: np.asarray(v, dtype=np.float64) for t, v in self.vectors.items()}


def load_embedding_space(path: str, space_id: Optional[str] = None) -> EmbeddingSpace:
    """Load a text-format embedding file: ``token v1 v2 ... vd`` per line.

    The dimension is inferred from the first line; later lines with a
    different dimension are an error. Duplicate tokens keep the last
    occurrence (a warning is emitted).
    """
    vectors: dict[str, np.ndarray] = {}
    dimension: Optional[int] = None
    for lineno, line in read_lines(path):
        parts = line.rstrip("\n").split(" ")
        if len(parts) < 2 or parts[0] == "":
            if not line.strip():
                continue
            raise DataFormatError(f"{path} line {lineno}: expected 'token v1 ... vd'")
        token = parts[0]
        try:
            vec = np.asarray([float(x) for x in parts[1:]], dtype=np.float64)
        except ValueError as exc:
            raise DataFormatError(f"{path} line {lineno}: non-numeric vector component") from exc
        if dimension is None:
            dimension = vec.shape[0]
        elif vec.shape[0] != dimension:
            raise DataFormatError(
                f"{path} line {lineno}: dimension {vec.shape[0]} != {dimension}"
            )
        if token in vectors:
            warnings.warn(f"duplicate token {token!r} in {path}; keeping last occurrence")
        vectors[token] = vec
    if dimension is None:
        raise DataFormatError(f"{path}: empty embedding file")
    if space_id is None:
        space_id = os.path.splitext(os.path.basename(path))[0]
    return EmbeddingSpace(dimension=dimension, vectors=vectors, id=space_id)


def centroid_distances(vectors: np.ndarray, centroid: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean distance of a (values x dimension) matrix to a
    centroid. Single values go through a one-row matrix, so a value's
    distance does not depend on how many values are evaluated with it."""
    return np.linalg.norm(vectors - centroid, axis=1)


def embed_value(space: EmbeddingSpace, value: str) -> Optional[np.ndarray]:
    """Embed a normalized value; multi-token values average their
    in-vocabulary token vectors. Returns None when nothing is in
    vocabulary."""
    if value in space.vectors:
        return space.vectors[value]
    tokens = value.split()
    if len(tokens) > 1:
        hits = [space.vectors[t] for t in tokens if t in space.vectors]
        if hits:
            return np.mean(hits, axis=0)
    return None


# ---------------------------------------------------------------------------
# Function families


class DomainEvalFn:
    """Base class; subclasses implement ``distance(normalized_value)``."""

    id: str
    family: str

    def distance(self, value: str) -> float:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def manifest_params(self) -> dict:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.id}>"


@dataclass(frozen=True, repr=False, eq=False)
class ScoreTableFn(DomainEvalFn):
    """Distance = 1 - score from a precomputed per-value score table."""

    id: str
    type_name: str
    scores: dict[str, float]
    default_score: float = 0.0
    path: Optional[str] = None
    family: str = field(default="score_table", init=False)

    def distance(self, value: str) -> float:
        return 1.0 - self.scores.get(value, self.default_score)

    def describe(self) -> str:
        return f"type {self.type_name!r}"

    def manifest_params(self) -> dict:
        params: dict = {"type_name": self.type_name, "default_score": self.default_score}
        if self.path is not None:
            params["path"] = self.path
        else:
            params["scores"] = dict(self.scores)
        return params


@dataclass(frozen=True, repr=False, eq=False)
class EmbeddingFn(DomainEvalFn):
    """Euclidean distance to a centroid vector; out-of-vocabulary values
    are infinitely far (outside every outer ball)."""

    id: str
    space_id: str
    centroid: str
    centroid_vector: np.ndarray
    space: EmbeddingSpace
    family: str = field(default="embedding", init=False)

    def distance(self, value: str) -> float:
        vec = embed_value(self.space, value)
        if vec is None:
            return INFINITE_DISTANCE
        return float(centroid_distances(vec[None, :], self.centroid_vector)[0])

    def describe(self) -> str:
        return f"centroid {self.centroid!r} in space {self.space_id!r}"

    def manifest_params(self) -> dict:
        return {"space_id": self.space_id, "centroid": self.centroid}


_PATTERN_TOKENS = ("\\d+", "[a-zA-Z]+")
# A value's token-class shape: each maximal ASCII digit run becomes
# ``\d+``, each maximal ASCII letter run ``[a-zA-Z]+``, and every other
# character stays literal (``value_shape``).
_RUNS = re.compile(r"([0-9]+)|[a-zA-Z]+")
_WHITESPACE_RUNS = re.compile(r"\s+")


def _run_token(m: re.Match) -> str:
    return "\\d+" if m.lastindex else "[a-zA-Z]+"


def value_shape(value: str) -> str:
    """A value's token-class shape, whitespace kept as it is."""
    return _RUNS.sub(_run_token, value)


def _pattern_tokens(pattern: str) -> list[str]:
    """A token-class pattern split into its tokens: ``\\d+``,
    ``[a-zA-Z]+`` or one literal character each."""
    out: list[str] = []
    i = 0
    while i < len(pattern):
        tok = next((t for t in _PATTERN_TOKENS if pattern.startswith(t, i)), pattern[i])
        out.append(tok)
        i += len(tok)
    return out


def pattern_to_regex(pattern: str) -> re.Pattern:
    """Compile a token-class pattern (``\\d+``, ``[a-zA-Z]+``, literal
    punctuation/space) into a full-string regex."""
    parts = [t if t in _PATTERN_TOKENS else re.escape(t) for t in _pattern_tokens(pattern)]
    # ASCII so that \d+ means exactly [0-9]+, matching generalization.
    return re.compile("".join(parts), re.ASCII)


def _is_canonical_pattern(pattern: str) -> bool:
    """True iff the pattern is some value's shape: it then fully matches
    exactly the values whose ``value_shape`` equals it. A pattern is
    canonical iff the value made of one character per token (``0``, ``a``
    or the literal) has it as its shape; ``\\d+\\d+`` and patterns with
    a literal ASCII letter or digit are not."""
    example = {"\\d+": "0", "[a-zA-Z]+": "a"}
    return value_shape("".join(example.get(t, t) for t in _pattern_tokens(pattern))) == pattern


@dataclass(frozen=True, repr=False)
class PatternFn(DomainEvalFn):
    """Distance 0 iff the whole value matches the pattern, else 1.
    ``canonical`` is true when the pattern is some value's shape, so that
    ``ValueIndex`` may compare shapes instead of running the regex."""

    id: str
    pattern: str
    family: str = field(default="pattern", init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "canonical", _is_canonical_pattern(self.pattern))

    @cached_property
    def _regex(self) -> re.Pattern:
        # Compiled on first use: ValueIndex never runs a canonical
        # pattern's regex.
        return pattern_to_regex(self.pattern)

    def distance(self, value: str) -> float:
        return 0.0 if self._regex.fullmatch(value) else 1.0

    def describe(self) -> str:
        return f"pattern {self.pattern!r}"

    def manifest_params(self) -> dict:
        return {"pattern": self.pattern}


@dataclass(frozen=True, repr=False)
class ValidatorFn(DomainEvalFn):
    """Distance 0 iff a named built-in validator accepts the value."""

    id: str
    name: str
    family: str = field(default="validator", init=False)

    def __post_init__(self) -> None:
        if self.name not in _VALIDATORS:
            raise ValueError(f"unknown validator {self.name!r}")
        object.__setattr__(self, "_accept", _VALIDATORS[self.name])

    def distance(self, value: str) -> float:
        return 0.0 if self._accept(value) else 1.0

    def describe(self) -> str:
        return f"validator {self.name!r}"

    def manifest_params(self) -> dict:
        return {"name": self.name}


_MASK64 = (1 << 64) - 1
# SplitMix64's increment and its finalizer's two multipliers.
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _mix64(z: int) -> int:
    """SplitMix64's finalizer on one 64-bit integer."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _digest(value: str) -> bytes:
    return hashlib.blake2b(value.encode("utf-8"), digest_size=8).digest()


def value_digests(values: Sequence[str]) -> np.ndarray:
    """Each value's unkeyed 64-bit BLAKE2b digest, read big-endian, as
    uint64."""
    return np.frombuffer(b"".join(map(_digest, values)), dtype=">u8").astype(np.uint64)


@dataclass(frozen=True, repr=False)
class RandomHashFn(DomainEvalFn):
    """Seeded uniform-[0, 1) hash of the value; used as an adversarial
    control that carries no semantic signal. The seed's key is the first
    output of SplitMix64 seeded with it; a value's distance mixes its
    digest XOR the key (see the module docstring)."""

    id: str
    seed: int
    family: str = field(default="random_hash", init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_key", _mix64((self.seed + _GOLDEN_GAMMA) & _MASK64))

    def distance(self, value: str) -> float:
        digest = int.from_bytes(_digest(value), "big")
        return (_mix64(digest ^ self._key) >> 11) * 2.0**-53

    def distances_of_digests(self, digests: np.ndarray) -> np.ndarray:
        """``distance`` of the values with these ``value_digests``. uint64
        arithmetic wraps as ``_mix64``'s masks do, and both scale a 53-bit
        integer by a power of two, so the bits agree."""
        z = digests ^ np.uint64(self._key)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def describe(self) -> str:
        return f"random hash (seed {self.seed})"

    def manifest_params(self) -> dict:
        return {"seed": self.seed}


# ---------------------------------------------------------------------------
# Built-in validators

_DATE_FORMATS = (
    "%m/%d/%Y",
    "%d/%m/%Y",
    "%Y-%m-%d",
    "%Y/%m/%d",
    "%m-%d-%Y",
    "%m/%d/%y",
    "%d.%m.%Y",
)


# Every format above is three digit fields joined by two of "/-.".
# strptime's fields have fixed widths: %m and %d take one or two digits
# (%d also a space and one digit), %Y four and %y two, and its \d is any
# Unicode digit. The middle field is always %m or %d. So no value this
# rejects can parse, and strptime's failures (each a raised ValueError)
# are paid only by values of the right shape, which phone numbers such
# as 396-522-4299 are not.
_DATE_SHAPE = re.compile(r"(?:\d{1,2}| \d|\d{4})[/.-](?:\d{1,2}| \d)[/.-](?:\d{1,2}| \d|\d{4})")


def _validate_date(value: str) -> bool:
    if not _DATE_SHAPE.fullmatch(value):
        return False
    for fmt in _DATE_FORMATS:
        try:
            datetime.strptime(value, fmt)
            return True
        except ValueError:
            continue
    return False


# fromisoformat reads a four-ASCII-digit year before anything else.
_YEAR_PREFIX = re.compile(r"[0-9]{4}")


def _validate_iso_timestamp(value: str) -> bool:
    if ("t" not in value and " " not in value) or not _YEAR_PREFIX.match(value):
        return False
    candidate = value
    if candidate.endswith("z"):
        candidate = candidate[:-1] + "+00:00"
    try:
        datetime.fromisoformat(candidate)
        return True
    except ValueError:
        return False


def _validate_url(value: str) -> bool:
    # Without a ":" urlsplit finds no scheme.
    if " " in value or ":" not in value:
        return False
    try:
        parsed = urlparse(value)
    except ValueError:
        return False
    return parsed.scheme in ("http", "https", "ftp") and "." in parsed.netloc


_EMAIL_RE = re.compile(r"^[a-z0-9._%+-]+@[a-z0-9-]+(\.[a-z0-9-]+)*\.[a-z]{2,}$")


def _validate_email(value: str) -> bool:
    return _EMAIL_RE.match(value) is not None


def _validate_ipv4(value: str) -> bool:
    parts = value.split(".")
    if len(parts) != 4:
        return False
    for p in parts:
        if not p.isdecimal() or len(p) > 3:
            return False
        if int(p) > 255:
            return False
    return True


_UUID_RE = re.compile(r"^[0-9a-f]{8}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{12}$")


def _validate_uuid(value: str) -> bool:
    return _UUID_RE.match(value) is not None


def _luhn_ok(digits: str) -> bool:
    total = 0
    for i, ch in enumerate(reversed(digits)):
        d = int(ch)
        if i % 2 == 1:
            d *= 2
            if d > 9:
                d -= 9
        total += d
    return total % 10 == 0


def _validate_credit_card(value: str) -> bool:
    digits = value.replace(" ", "").replace("-", "")
    if not digits.isdecimal() or not 13 <= len(digits) <= 19:
        return False
    return _luhn_ok(digits)


def _validate_upc_a(value: str) -> bool:
    if not value.isdecimal() or len(value) != 12:
        return False
    d = [int(c) for c in value]
    total = 3 * sum(d[0:11:2]) + sum(d[1:10:2]) + d[11]
    return total % 10 == 0


_VALIDATORS: dict[str, Callable[[str], bool]] = {
    "date": _validate_date,
    "iso-timestamp": _validate_iso_timestamp,
    "url": _validate_url,
    "email": _validate_email,
    "ipv4": _validate_ipv4,
    "uuid": _validate_uuid,
    "credit-card": _validate_credit_card,
    "upc-a": _validate_upc_a,
}


def builtin_validators() -> list[DomainEvalFn]:
    """The eight built-in validator functions."""
    return [ValidatorFn(id=f"validator:{name}", name=name) for name in _VALIDATORS]


# ---------------------------------------------------------------------------
# Constructors

def eval_distance(fn: DomainEvalFn, raw: str) -> float:
    """Distance of a raw value under a function (normalized first)."""
    return fn.distance(normalize_raw(raw))


def make_embedding_fn(
    space: EmbeddingSpace, centroid: str, space_id: Optional[str] = None
) -> EmbeddingFn:
    """Build an embedding-distance function around one centroid value."""
    sid = space_id if space_id is not None else space.id
    norm = normalize_raw(centroid)
    vec = embed_value(space, norm)
    if vec is None:
        raise DataFormatError(f"centroid {centroid!r} is out of vocabulary for space {sid!r}")
    return EmbeddingFn(
        id=f"emb:{sid}:{norm}",
        space_id=sid,
        centroid=norm,
        centroid_vector=np.asarray(vec, dtype=np.float64),
        space=space,
    )


def sample_centroids(
    corpus: Iterable[Column], space: EmbeddingSpace, k: int, seed: int
) -> list[EmbeddingFn]:
    """Draw k distinct embeddable corpus values as centroids, uniformly
    without replacement; deterministic for a given seed. The pool is the
    rows of the index's matrix for ``space``, which screening reuses."""
    import random as _random

    if k < 0:
        raise ValueError("k must be >= 0")
    index = ValueIndex.of(corpus)
    rows, _ = index._space_matrix(space)
    values = index.values
    pool = sorted(values[i] for i in rows.tolist() if values[i])
    if k > len(pool):
        raise ValueError(f"centroid pool has {len(pool)} values, cannot sample {k}")
    rng = _random.Random(seed)
    picked = rng.sample(pool, k)
    return [make_embedding_fn(space, c) for c in picked]


def make_pattern_fn(pattern: str) -> PatternFn:
    return PatternFn(id=f"pattern:{pattern}", pattern=pattern)


def make_random_hash_fn(seed: int) -> RandomHashFn:
    return RandomHashFn(id=f"hash:{seed}", seed=seed)


def _score(data: dict, key: str) -> float:
    """``data[key]`` when it is a JSON number in [0, 1], else a ``DataFormatError``."""
    try:
        score = json_number(data, key)
    except ValueError as exc:
        raise DataFormatError(str(exc)) from None
    if not 0.0 <= score <= 1.0:
        raise DataFormatError(f"{key} = {score!r} is outside [0, 1]")
    return score


def load_score_table(path: str, type_name: str, default_score: float = 0.0) -> ScoreTableFn:
    """Load a JSONL score table: ``{"value": str, "score": float}`` per
    line; scores must lie in [0, 1]. Lookup keys are normalized."""
    fn = make_score_table_fn(type_name, {}, default_score)
    scores = read_records(
        path, lambda rec: (normalize_raw(json_str(rec, "value")), _score(rec, "score")))
    return replace(fn, scores=dict(scores), path=path)


def make_score_table_fn(
    type_name: str, scores: dict[str, float], default_score: float = 0.0
) -> ScoreTableFn:
    """In-memory score-table constructor (keys are normalized here)."""
    if not 0.0 <= default_score <= 1.0:
        raise DataFormatError(f"default_score {default_score} outside [0, 1]")
    return ScoreTableFn(
        id=f"score:{type_name}",
        type_name=type_name,
        scores={normalize_raw(k): _score(scores, k) for k in scores},
        default_score=float(default_score),
    )


# ---------------------------------------------------------------------------
# Pattern inference


def infer_patterns(corpus: Iterable[Column], top_k: int) -> list[PatternFn]:
    """Generalize every distinct corpus value once and keep the ``top_k``
    patterns by the number of distinct columns in which at least half the
    values match. Ties break lexicographically by pattern string."""
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    index = ValueIndex.of(corpus)
    code_of, shape_of = index.shapes()
    # Exact-match counting: a value fully matches a generated
    # (whitespace-collapsed, maximal-run) pattern iff its own uncollapsed
    # shape equals that pattern. One key per (column, shape) pair counts
    # a shape's cells in a column.
    n = max(1, len(code_of))
    column = np.repeat(np.arange(len(index), dtype=np.int64), index.lengths)
    keys, cells = np.unique(column * n + shape_of[index.codes], return_counts=True)
    held = keys[cells * 2 >= index.lengths[keys // n]] % n
    column_counts = dict(zip(code_of, np.bincount(held, minlength=n).tolist()))
    generated = {_WHITESPACE_RUNS.sub(" ", shape) for shape in code_of}
    ranked = sorted(
        ((p, column_counts.get(p, 0)) for p in generated), key=lambda pc: (-pc[1], pc[0])
    )
    return [make_pattern_fn(p) for p, _ in ranked[:top_k]]


# ---------------------------------------------------------------------------
# Registry and manifest


class Registry:
    """Immutable-after-construction lookup from function id to function,
    plus the embedding spaces the functions reference."""

    def __init__(self) -> None:
        self._fns: dict[str, DomainEvalFn] = {}
        self.spaces: dict[str, EmbeddingSpace] = {}
        self.space_paths: dict[str, str] = {}

    def add(self, fn: DomainEvalFn) -> None:
        if fn.id in self._fns:
            raise DataFormatError(f"duplicate function id {fn.id!r}")
        self._fns[fn.id] = fn

    def add_all(self, fns: Iterable[DomainEvalFn]) -> None:
        for fn in fns:
            self.add(fn)

    def add_space(self, space: EmbeddingSpace, path: Optional[str] = None) -> None:
        self.spaces[space.id] = space
        if path is not None:
            self.space_paths[space.id] = path

    def get(self, fn_id: str) -> DomainEvalFn:
        try:
            return self._fns[fn_id]
        except KeyError:
            raise KeyError(f"unknown function id {fn_id!r}") from None

    def require(self, fn_ids: Iterable[str], source: str) -> None:
        """``DataFormatError`` if ``source`` names a function id not here."""
        unknown = sorted(set(fn_ids) - self._fns.keys())
        if unknown:
            raise DataFormatError(f"{source} names unknown function ids {unknown}")

    def __contains__(self, fn_id: str) -> bool:
        return fn_id in self._fns

    def __len__(self) -> int:
        return len(self._fns)

    def ids(self) -> list[str]:
        return sorted(self._fns)

    def functions(self) -> list[DomainEvalFn]:
        return [self._fns[i] for i in self.ids()]

    def to_manifest(self, fn_ids: Optional[Iterable[str]] = None) -> dict:
        """JSON-serializable description of (a subset of) the registry."""
        ids = sorted(fn_ids) if fn_ids is not None else self.ids()
        entries = []
        used_spaces: set[str] = set()
        for fid in ids:
            fn = self.get(fid)
            entries.append({"id": fn.id, "family": fn.family, "params": fn.manifest_params()})
            if isinstance(fn, EmbeddingFn):
                used_spaces.add(fn.space_id)
        spaces = {
            sid: self.space_paths.get(sid, "") for sid in sorted(used_spaces)
        }
        return {"spaces": spaces, "functions": entries}

    @classmethod
    def from_manifest(cls, manifest: dict, source: str = "manifest") -> "Registry":
        """The registry ``to_manifest`` describes, with its embedding
        spaces and file-backed score tables loaded from their recorded
        paths; a relative path is read from the current directory. A
        malformed manifest is a ``DataFormatError`` naming ``source``."""
        if not isinstance(manifest, dict):
            raise DataFormatError(f"{source}: a registry must be a JSON object, not {manifest!r}")
        spaces, functions = manifest.get("spaces", {}), manifest.get("functions", [])
        if not isinstance(spaces, dict) or not all(isinstance(p, str) for p in spaces.values()):
            raise DataFormatError(f"{source}: spaces must be an object of paths, not {spaces!r}")
        if not isinstance(functions, list):
            raise DataFormatError(f"{source}: functions must be a list, not {functions!r}")
        reg = cls()
        for sid, path in spaces.items():
            if not path:
                raise DataFormatError(f"{source}: embedding space {sid!r} has no recorded path")
            reg.add_space(load_embedding_space(path, space_id=sid), path=path)
        for i, entry in enumerate(functions):
            try:
                reg.add(_fn_from_manifest(entry, reg))
            except DataFormatError as exc:
                raise DataFormatError(f"{source}: function entry {i}: {exc}") from None
            except (KeyError, TypeError, ValueError) as exc:
                raise DataFormatError(
                    f"{source}: function entry {i}: bad record ({exc!r})") from exc
        return reg


def _fn_from_manifest(entry: dict, reg: Registry) -> DomainEvalFn:
    if not isinstance(entry, dict) or not isinstance(entry.get("id"), str):
        raise DataFormatError(f"expected an object with a string id, not {entry!r}")
    family, params = entry.get("family"), entry.get("params", {})
    if not isinstance(params, dict):
        raise DataFormatError(f"params must be an object, not {params!r}")
    if family == "pattern":
        return PatternFn(id=entry["id"], pattern=json_str(params, "pattern"))
    if family == "validator":
        return ValidatorFn(id=entry["id"], name=json_str(params, "name"))
    if family == "random_hash":
        return RandomHashFn(id=entry["id"], seed=json_int(params, "seed"))
    if family == "score_table":
        default = json_number(params, "default_score", 0.0)
        if "scores" in params:
            if not isinstance(params["scores"], dict):
                raise DataFormatError(f"scores must be an object, not {params['scores']!r}")
            fn = make_score_table_fn(json_str(params, "type_name"), params["scores"], default)
        else:
            fn = load_score_table(json_str(params, "path"), json_str(params, "type_name"), default)
        return replace(fn, id=entry["id"])
    if family == "embedding":
        sid = json_str(params, "space_id")
        if sid not in reg.spaces:
            raise DataFormatError(f"function {entry['id']!r} references unknown space {sid!r}")
        return make_embedding_fn(reg.spaces[sid], json_str(params, "centroid"), space_id=sid)
    raise DataFormatError(f"unknown function family {family!r}")


# ---------------------------------------------------------------------------
# Value index (shared by screening, selection stats, inference and baselines)


class ValueIndex:
    """The normalized values of a sequence of columns, interned once.

    The index reads the coded ``Corpus`` of the columns (``corpus``; other
    columns are made one here), so normalization and interning run once
    per distinct raw value, never per cell. ``values`` lists the distinct
    normalized values in first-seen order; a value that normalization
    leaves unchanged is the cell's own string. ``codes`` (``intp``) gives
    each cell's position in ``values``, column after column, and column
    ``j`` (id ``ids[j]``) owns cells ``offsets[j]:offsets[j + 1]``; a
    cell's raw value is ``corpus.raw[corpus.raw_codes[cell]]``. Iterating
    yields the corpus's ``Column``s, which a coded corpus builds only
    then.

    A function is evaluated once per distinct value, family by family as
    the module docstring describes; what a family shares (a space's
    matrix, the value digests, the value shapes) is computed on first
    use and kept, and depends on ``values`` alone. Nothing is keyed on
    column ids, so an index always describes exactly the columns it was
    built from.
    """

    def __init__(self, columns: Iterable[Column]) -> None:
        self.corpus = columns if isinstance(columns, Corpus) else Corpus(columns)
        # Normalization is a function of the raw value, so the raw codes
        # map onto the normalized ones.
        self.values, norm_code = distinct_rows(map(normalize_raw, self.corpus.raw))
        self.codes = norm_code[self.corpus.raw_codes]
        self.ids = self.corpus.ids
        self.offsets = self.corpus.offsets
        self.lengths = np.diff(self.offsets)
        self._spaces: dict[int, tuple[EmbeddingSpace, np.ndarray, np.ndarray]] = {}
        self._shapes: Optional[tuple[dict[str, int], np.ndarray]] = None
        self._digests: Optional[np.ndarray] = None

    @classmethod
    def of(cls, corpus: Iterable[Column]) -> ValueIndex:
        """``corpus`` itself when it already is an index, else its index."""
        return corpus if isinstance(corpus, ValueIndex) else cls(corpus)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Column]:
        return iter(self.corpus)

    def distances(self, fn: DomainEvalFn) -> np.ndarray:
        """Per-cell distances under ``fn``, in cell order."""
        if isinstance(fn, EmbeddingFn):
            rows, mat = self._space_matrix(fn.space)
            distinct = np.full(len(self.values), INFINITE_DISTANCE)
            distinct[rows] = centroid_distances(mat, fn.centroid_vector)
        elif isinstance(fn, RandomHashFn):
            if self._digests is None:
                self._digests = value_digests(self.values)
            distinct = fn.distances_of_digests(self._digests)
        elif isinstance(fn, PatternFn) and fn.canonical:
            code_of, shape_of = self.shapes()
            distinct = (shape_of != code_of.get(fn.pattern, -1)).astype(np.float64)
        elif isinstance(fn, ScoreTableFn):
            distinct = 1.0 - np.fromiter(map(fn.scores.get, self.values, repeat(fn.default_score)),
                                         dtype=np.float64, count=len(self.values))
        else:
            distinct = np.fromiter(map(fn.distance, self.values), dtype=np.float64,
                                   count=len(self.values))
        return distinct[self.codes]

    def shapes(self) -> tuple[dict[str, int], np.ndarray]:
        """Each distinct ``value_shape`` of the values, numbered in
        first-seen order, and each value's shape number (``intp``)."""
        if self._shapes is None:
            shapes, shape_of = distinct_rows(map(value_shape, self.values))
            self._shapes = ({s: k for k, s in enumerate(shapes)}, shape_of)
        return self._shapes

    def _space_matrix(self, space: EmbeddingSpace) -> tuple[np.ndarray, np.ndarray]:
        """The positions in ``values`` of the values ``space`` embeds, and
        a (positions x dimension) matrix of their vectors."""
        got = self._spaces.get(id(space))
        if got is None:
            rows, vecs = [], []
            get = space.vectors.get
            for i, v in enumerate(self.values):
                vec = get(v)
                # Out of vocabulary, only a value that splits into
                # several tokens can embed (as their mean).
                if vec is None and len(v.split()) > 1:
                    vec = embed_value(space, v)
                if vec is not None:
                    rows.append(i)
                    vecs.append(vec)
            mat = np.array(vecs, dtype=np.float64)
            # The space is kept so its id() cannot be reused while cached.
            got = (space, np.asarray(rows, dtype=np.intp), mat.reshape(len(rows), space.dimension))
            self._spaces[id(space)] = got
        return got[1], got[2]

    def inside_counts(self, dists: np.ndarray, radii: np.ndarray) -> np.ndarray:
        """A (columns x radii) matrix: how many of each column's values
        lie within each of the ascending ``radii`` (non-strict).

        Columns go in blocks of about ``_BLOCK_CELLS`` cells, so the
        per-cell temporaries stay small. One radius is one comparison per
        cell, summed per column. With more, each cell lands in the bin of
        the first radius at or beyond its distance (``inf`` and NaN past
        the last), one histogram per column counts the bins, and a
        cumulative sum over them gives every radius."""
        n, r = len(self.lengths), len(radii)
        out = np.empty((n, r), dtype=np.intp)
        lo = 0
        while lo < n:
            end = self.offsets[lo] + _BLOCK_CELLS
            hi = max(lo + 1, int(np.searchsorted(self.offsets, end, "right")) - 1)
            block = dists[self.offsets[lo]:self.offsets[hi]]
            if r == 1:
                np.add.reduceat(block <= radii[0], self.offsets[lo:hi] - self.offsets[lo],
                                out=out[lo:hi, 0], dtype=np.intp)
            else:
                bins = np.repeat(np.arange(hi - lo) * (r + 1), self.lengths[lo:hi])
                bins += np.searchsorted(radii, block, "left")
                hist = np.bincount(bins, minlength=(hi - lo) * (r + 1)).reshape(-1, r + 1)
                np.cumsum(hist[:, :r], axis=1, out=out[lo:hi])
            lo = hi
        return out

    def preconditions(
        self, dists: np.ndarray, pairs: Iterable[tuple[float, float]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The pre-conditions over ``dists`` of constraints with the
        given (d_in, m) ``pairs`` on every column. Returns a (distinct
        pairs x columns) mask, true where at least a fraction ``m`` of
        the column's values lie within ``d_in`` (non-strict), and each
        pair's row in it. Each distinct radius is counted once."""
        distinct, row_of = distinct_rows(pairs)
        radii = sorted({d_in for d_in, _ in distinct})
        counts = self.inside_counts(dists, np.asarray(radii, dtype=np.float64))
        column_of = {d: k for k, d in enumerate(radii)}
        masks = np.empty((len(distinct), len(self)), dtype=bool)
        for r, (d_in, m) in enumerate(distinct):
            np.greater_equal(counts[:, column_of[d_in]], m * self.lengths, out=masks[r])
        return masks, row_of

    def evaluate(
        self, registry: Registry, constraints: Sequence
    ) -> Iterator[tuple[DomainEvalFn, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Each function the ``constraints`` name (anything with ``fn_id``,
        ``d_in``, ``d_out`` and ``m``), in id order, evaluated once. Yields
        the function, its constraints' positions in ``constraints``
        (ascending), its per-cell distances, a (its constraints x columns)
        mask of where each pre-condition holds (from ``preconditions``, so
        each distinct (d_in, m) is counted once) and its constraints'
        ``d_out`` as a column. Each caller applies its own post-condition."""
        by_fn: dict[str, list[int]] = {}
        for i, c in enumerate(constraints):
            by_fn.setdefault(c.fn_id, []).append(i)
        for fn_id in sorted(by_fn):
            fn = registry.get(fn_id)
            group = [constraints[i] for i in by_fn[fn_id]]
            dists = self.distances(fn)
            masks, row_of = self.preconditions(dists, ((c.d_in, c.m) for c in group))
            d_out = np.asarray([c.d_out for c in group], dtype=np.float64)[:, None]
            yield fn, np.asarray(by_fn[fn_id], dtype=np.intp), dists, masks[row_of], d_out

    def column_max(self, dists: np.ndarray) -> np.ndarray:
        """Each column's largest distance (which alone decides whether
        anything lies beyond a given ``d_out``)."""
        return np.maximum.reduceat(dists, self.offsets[:-1])
