"""Domain-evaluation functions.

A domain-evaluation function assigns every string value a nonnegative
distance to one semantic type: small means "inside the domain". Five
families are provided:

- ``score_table``: distance = 1 - precomputed score for the value;
- ``embedding``: Euclidean distance to a centroid in a word-vector space;
- ``pattern``: 0 iff the value fully matches a token-class pattern, else 1;
- ``validator``: 0 iff a built-in validator accepts the value, else 1;
- ``random_hash``: a seeded uniform-[0,1] hash of the value (adversarial
  control family used in robustness tests).

All families are pure: repeated evaluation of the same (function, value)
pair returns bit-identical results.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import warnings
from dataclasses import dataclass, field
from datetime import datetime
from typing import Callable, Iterable, Iterator, Optional
from urllib.parse import urlparse

import numpy as np

from .corpus import Column, Corpus, normalize_raw
from .errors import DataFormatError

INFINITE_DISTANCE = math.inf


# ---------------------------------------------------------------------------
# Embedding spaces


@dataclass
class EmbeddingSpace:
    """A token -> vector map with a single shared dimension."""

    dimension: int
    vectors: dict[str, np.ndarray]
    id: str = "space"


def load_embedding_space(path: str, space_id: Optional[str] = None) -> EmbeddingSpace:
    """Load a text-format embedding file: ``token v1 v2 ... vd`` per line.

    The dimension is inferred from the first line; later lines with a
    different dimension are an error. Duplicate tokens keep the last
    occurrence (a warning is emitted).
    """
    vectors: dict[str, np.ndarray] = {}
    dimension: Optional[int] = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
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


def pattern_to_regex(pattern: str) -> re.Pattern:
    """Compile a token-class pattern (``\\d+``, ``[a-zA-Z]+``, literal
    punctuation/space) into a full-string regex."""
    out: list[str] = []
    i = 0
    while i < len(pattern):
        for tok in _PATTERN_TOKENS:
            if pattern.startswith(tok, i):
                out.append(tok if tok != "\\d+" else r"\d+")
                i += len(tok)
                break
        else:
            out.append(re.escape(pattern[i]))
            i += 1
    # ASCII so that \d+ means exactly [0-9]+, matching generalization.
    return re.compile("".join(out), re.ASCII)


@dataclass(frozen=True, repr=False)
class PatternFn(DomainEvalFn):
    """Distance 0 iff the whole value matches the pattern, else 1."""

    id: str
    pattern: str
    family: str = field(default="pattern", init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_regex", pattern_to_regex(self.pattern))

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


@dataclass(frozen=True, repr=False)
class RandomHashFn(DomainEvalFn):
    """Seeded uniform-[0,1] hash of the value; used as an adversarial
    control that carries no semantic signal."""

    id: str
    seed: int
    family: str = field(default="random_hash", init=False)

    def distance(self, value: str) -> float:
        h = hashlib.blake2b(
            value.encode("utf-8"), digest_size=8, key=str(self.seed).encode("ascii")
        ).digest()
        return int.from_bytes(h, "big") / 2.0**64

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


def _validate_date(value: str) -> bool:
    for fmt in _DATE_FORMATS:
        try:
            datetime.strptime(value, fmt)
            return True
        except ValueError:
            continue
    return False


def _validate_iso_timestamp(value: str) -> bool:
    if "t" not in value and " " not in value:
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
    if " " in value:
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
        if not p.isdigit() or len(p) > 3:
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
        d = ord(ch) - 48
        if i % 2 == 1:
            d *= 2
            if d > 9:
                d -= 9
        total += d
    return total % 10 == 0


def _validate_credit_card(value: str) -> bool:
    digits = value.replace(" ", "").replace("-", "")
    if not digits.isdigit() or not 13 <= len(digits) <= 19:
        return False
    return _luhn_ok(digits)


def _validate_upc_a(value: str) -> bool:
    if not value.isdigit() or len(value) != 12:
        return False
    d = [ord(c) - 48 for c in value]
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
    corpus: Corpus, space: EmbeddingSpace, k: int, seed: int
) -> list[EmbeddingFn]:
    """Draw k distinct embeddable corpus values as centroids, uniformly
    without replacement; deterministic for a given seed."""
    import random as _random

    if k < 0:
        raise ValueError("k must be >= 0")
    pool = sorted(
        {
            nv
            for col in corpus
            for nv in col.normalized()
            if nv and embed_value(space, nv) is not None
        }
    )
    if k > len(pool):
        raise ValueError(f"centroid pool has {len(pool)} values, cannot sample {k}")
    rng = _random.Random(seed)
    picked = rng.sample(pool, k)
    return [make_embedding_fn(space, c) for c in picked]


def make_pattern_fn(pattern: str) -> PatternFn:
    return PatternFn(id=f"pattern:{pattern}", pattern=pattern)


def make_random_hash_fn(seed: int) -> RandomHashFn:
    return RandomHashFn(id=f"hash:{seed}", seed=seed)


def load_score_table(path: str, type_name: str, default_score: float = 0.0) -> ScoreTableFn:
    """Load a JSONL score table: ``{"value": str, "score": float}`` per
    line; scores must lie in [0, 1]. Lookup keys are normalized."""
    if not 0.0 <= default_score <= 1.0:
        raise DataFormatError(f"default_score {default_score} outside [0, 1]")
    scores: dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"{path} line {lineno}: invalid JSON") from exc
            if not isinstance(rec, dict) or "value" not in rec or "score" not in rec:
                raise DataFormatError(f"{path} line {lineno}: expected value/score object")
            score = rec["score"]
            if not isinstance(score, (int, float)) or not 0.0 <= float(score) <= 1.0:
                raise DataFormatError(
                    f"{path} line {lineno}: score {score!r} outside [0, 1]"
                )
            scores[normalize_raw(str(rec["value"]))] = float(score)
    return ScoreTableFn(
        id=f"score:{type_name}",
        type_name=type_name,
        scores=scores,
        default_score=float(default_score),
        path=path,
    )


def make_score_table_fn(
    type_name: str, scores: dict[str, float], default_score: float = 0.0
) -> ScoreTableFn:
    """In-memory score-table constructor (keys are normalized here)."""
    for v, s in scores.items():
        if not 0.0 <= s <= 1.0:
            raise DataFormatError(f"score {s} for {v!r} outside [0, 1]")
    if not 0.0 <= default_score <= 1.0:
        raise DataFormatError(f"default_score {default_score} outside [0, 1]")
    return ScoreTableFn(
        id=f"score:{type_name}",
        type_name=type_name,
        scores={normalize_raw(k): float(s) for k, s in scores.items()},
        default_score=float(default_score),
    )


# ---------------------------------------------------------------------------
# Pattern inference


def generalize_value(value: str, collapse_whitespace: bool = True) -> str:
    """Map a normalized value to its token-class pattern: maximal digit
    runs become ``\\d+``, maximal letter runs become ``[a-zA-Z]+``, other
    characters stay literal. Whitespace runs collapse to one space."""
    s = re.sub(r"\s+", " ", value) if collapse_whitespace else value
    out: list[str] = []
    for m in re.finditer(r"([0-9]+)|([a-zA-Z]+)|(.)", s, flags=re.DOTALL):
        if m.group(1):
            out.append("\\d+")
        elif m.group(2):
            out.append("[a-zA-Z]+")
        else:
            out.append(m.group(3))
    return "".join(out)


def infer_patterns(corpus: Corpus, top_k: int) -> list[PatternFn]:
    """Generalize every corpus value and keep the ``top_k`` patterns by
    the number of distinct columns in which at least half the values
    match. Ties break lexicographically by pattern string."""
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    column_counts: dict[str, int] = {}
    for col in corpus:
        norm = col.normalized()
        n = len(norm)
        # Exact-match counting: a value fully matches a generated
        # (whitespace-collapsed, maximal-run) pattern iff its own
        # uncollapsed generalization equals that pattern.
        shapes: dict[str, int] = {}
        for nv in norm:
            shape = generalize_value(nv, collapse_whitespace=False)
            shapes[shape] = shapes.get(shape, 0) + 1
        for shape, cnt in shapes.items():
            if cnt * 2 >= n:
                column_counts[shape] = column_counts.get(shape, 0) + 1
    generated = {
        generalize_value(nv) for col in corpus for nv in col.normalized()
    }
    ranked = sorted(
        ((p, column_counts.get(p, 0)) for p in generated),
        key=lambda pc: (-pc[1], pc[0]),
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
    def from_manifest(cls, manifest: dict, base_dir: str = "") -> "Registry":
        reg = cls()
        for sid, path in manifest.get("spaces", {}).items():
            if not path:
                raise DataFormatError(f"embedding space {sid!r} has no recorded path")
            full = path if os.path.isabs(path) else os.path.join(base_dir, path)
            reg.add_space(load_embedding_space(full, space_id=sid), path=full)
        for i, entry in enumerate(manifest.get("functions", [])):
            try:
                fn = _fn_from_manifest(entry, reg, base_dir)
            except (KeyError, TypeError, ValueError) as exc:
                raise DataFormatError(f"function entry {i}: bad record ({exc!r})") from exc
            reg.add(fn)
        return reg


def _fn_from_manifest(entry: dict, reg: Registry, base_dir: str = "") -> DomainEvalFn:
    family = entry.get("family")
    params = entry.get("params", {})
    if family == "pattern":
        return PatternFn(id=entry["id"], pattern=params["pattern"])
    if family == "validator":
        return ValidatorFn(id=entry["id"], name=params["name"])
    if family == "random_hash":
        return RandomHashFn(id=entry["id"], seed=int(params["seed"]))
    if family == "score_table":
        if "scores" in params:
            fn = make_score_table_fn(
                params["type_name"], params["scores"], params.get("default_score", 0.0)
            )
        else:
            path = params["path"]
            full = path if os.path.isabs(path) else os.path.join(base_dir, path)
            fn = load_score_table(full, params["type_name"], params.get("default_score", 0.0))
        if fn.id != entry["id"]:
            fn = ScoreTableFn(
                id=entry["id"],
                type_name=fn.type_name,
                scores=fn.scores,
                default_score=fn.default_score,
                path=fn.path,
            )
        return fn
    if family == "embedding":
        sid = params["space_id"]
        if sid not in reg.spaces:
            raise DataFormatError(f"function {entry['id']!r} references unknown space {sid!r}")
        return make_embedding_fn(reg.spaces[sid], params["centroid"], space_id=sid)
    raise DataFormatError(f"unknown function family {family!r}")


# ---------------------------------------------------------------------------
# Value index (shared by screening, selection stats, inference and baselines)


class ValueIndex:
    """The normalized values of a sequence of columns, interned once.

    ``values`` lists the distinct normalized values. ``codes`` gives each
    cell's position in ``values``, column after column, and column ``j``
    owns cells ``offsets[j]:offsets[j + 1]``. A function is evaluated
    once per distinct value; embedding functions share one distinct-value
    matrix per space. Nothing is keyed on column ids, so an index always
    describes exactly the columns it was built from.
    """

    def __init__(self, columns: Iterable[Column]) -> None:
        self.columns = list(columns)
        table: dict[str, int] = {}
        codes = [
            table.setdefault(nv, len(table)) for col in self.columns for nv in col.normalized()
        ]
        self.values = list(table)
        self.codes = np.asarray(codes, dtype=np.intp)
        self.lengths = np.asarray([len(col) for col in self.columns], dtype=np.intp)
        self.offsets = np.concatenate(([0], np.cumsum(self.lengths))).astype(np.intp)
        self._spaces: dict[int, tuple[EmbeddingSpace, np.ndarray, np.ndarray]] = {}

    @classmethod
    def of(cls, corpus: Iterable[Column]) -> ValueIndex:
        """``corpus`` itself when it already is an index, else its index."""
        return corpus if isinstance(corpus, ValueIndex) else cls(corpus)

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def distances(self, fn: DomainEvalFn) -> np.ndarray:
        """Per-cell distances under ``fn``, in cell order."""
        if isinstance(fn, EmbeddingFn):
            mat, oov = self._space_matrix(fn.space)
            distinct = centroid_distances(mat, fn.centroid_vector)
            distinct[oov] = INFINITE_DISTANCE
        else:
            distinct = np.fromiter(
                (fn.distance(v) for v in self.values), dtype=np.float64, count=len(self.values)
            )
        return distinct[self.codes]

    def _space_matrix(self, space: EmbeddingSpace) -> tuple[np.ndarray, np.ndarray]:
        got = self._spaces.get(id(space))
        if got is None:
            mat = np.zeros((len(self.values), space.dimension), dtype=np.float64)
            oov = np.zeros(len(self.values), dtype=bool)
            for i, v in enumerate(self.values):
                vec = embed_value(space, v)
                if vec is None:
                    oov[i] = True
                else:
                    mat[i] = vec
            # The space is kept so its id() cannot be reused while cached.
            got = (space, mat, oov)
            self._spaces[id(space)] = got
        return got[1], got[2]

    def precondition(
        self, dists: np.ndarray, d_ins: Iterable[float]
    ) -> Callable[[float, float], np.ndarray]:
        """The pre-condition on every column, for constraints over
        ``dists`` whose inner radii are among ``d_ins``. Returns
        ``covered(d_in, m)``: the per-column mask "at least a fraction
        ``m`` of the values lie within ``d_in`` (non-strict)". Each
        distinct radius is counted once, whatever ``m`` is asked."""
        radii = sorted(set(d_ins))
        inside = (dists[:, None] <= np.asarray(radii, dtype=np.float64)).astype(np.intp)
        counts = np.add.reduceat(inside, self.offsets[:-1], axis=0)
        column_of = {d: k for k, d in enumerate(radii)}

        def covered(d_in: float, m: float) -> np.ndarray:
            return counts[:, column_of[d_in]] >= m * self.lengths

        return covered

    def column_max(self, dists: np.ndarray) -> np.ndarray:
        """Each column's largest distance (which alone decides whether
        anything lies beyond a given ``d_out``)."""
        return np.maximum.reduceat(dists, self.offsets[:-1])
