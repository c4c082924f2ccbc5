"""Candidate constraint enumeration.

A semantic-domain constraint (SDC) couples one domain-evaluation
function with three thresholds: an inner-ball radius ``d_in``, an
outer-ball radius ``d_out`` and a matching fraction ``m``. Its
pre-condition holds on a column when at least ``m`` of the values lie
within ``d_in``; its post-condition then flags every value beyond
``d_out``. Candidates are enumerated on a fixed grid per function
family and assessed later against the corpus.

A constraint with ``m = 1`` can never flag a value: with all n values
within ``d_in``, none lies beyond ``d_out >= d_in``. The default grid
omits that value, and enumeration skips any ``m >= 1`` a grid lists.
Enumeration yields light ``Candidate`` tuples whose content-hash id is
computed only when read, so only the survivors of screening are hashed.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field, fields
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .domain_fns import DomainEvalFn
from .errors import json_number, json_str

BINARY_FAMILIES = ("pattern", "validator")


def check_thresholds(d_in: float, d_out: float, m: float) -> None:
    """``ValueError`` unless ``d_out >= d_in`` and ``0 < m <= 1``."""
    if d_out < d_in:
        raise ValueError(f"d_out {d_out} < d_in {d_in}")
    if not 0.0 < m <= 1.0:
        raise ValueError(f"m {m} outside (0, 1]")


def constraint_fields(rec: dict) -> tuple[str, str, float, float, float, float]:
    """A record's id, fn_id, d_in, d_out, m and confidence, the fields
    ``rules.jsonl`` and ``store.json`` share: two strings and four JSON
    numbers (NaN and infinities included). A missing or malformed one
    raises ``KeyError``, ``TypeError`` or ``ValueError``."""
    sid, fn_id = json_str(rec, "id"), json_str(rec, "fn_id")
    d_in, d_out, m, conf = [json_number(rec, key, finite=False)
                            for key in ("d_in", "d_out", "m", "confidence")]
    check_thresholds(d_in, d_out, m)
    return sid, fn_id, d_in, d_out, m, conf


@dataclass(frozen=True)
class Sdc:
    """One constraint: (function, d_in, d_out, m) plus the confidence
    filled in during assessment."""

    id: str
    fn_id: str
    d_in: float
    d_out: float
    m: float
    confidence: Optional[float] = None

    def __post_init__(self) -> None:
        check_thresholds(self.d_in, self.d_out, self.m)


def candidate_id(fn_id: str, d_in: float, d_out: float, m: float) -> str:
    """Content hash of the four parameters; stable across runs."""
    payload = f"{fn_id}|{d_in!r}|{d_out!r}|{m!r}".encode("utf-8")
    return "sdc-" + hashlib.sha1(payload).hexdigest()[:16]


class Candidate(NamedTuple):
    """An enumerated, not yet assessed constraint."""

    fn_id: str
    d_in: float
    d_out: float
    m: float

    @property
    def id(self) -> str:
        return candidate_id(self.fn_id, self.d_in, self.d_out, self.m)


@dataclass
class GridSpec:
    """Threshold grids per function family.

    ``m_values`` applies to every family; values of 1 are accepted and
    skipped by ``enumerate_candidates``. Embedding radii pair each
    ``d_in`` with ``d_in + offset``; score-table and random-hash grids
    cross absolute ``d_in``/``d_out`` lists keeping only ``d_out >
    d_in``. Binary families (pattern, validator) always emit the single
    pair (0, 1).
    """

    m_values: list[float] = field(default_factory=lambda: [0.95, 0.9, 0.85, 0.8])
    # 0.5 .. 8.0
    embedding_d_in: list[float] = field(default_factory=lambda: [0.5 * i for i in range(1, 17)])
    embedding_d_out_offsets: list[float] = field(default_factory=lambda: [0.5, 1.0, 1.5, 2.0])
    # 0.1 .. 0.5
    score_d_in: list[float] = field(
        default_factory=lambda: [round(0.1 + 0.05 * i, 2) for i in range(9)]
    )
    score_d_out: list[float] = field(default_factory=lambda: [0.9, 0.95, 0.99, 1.0])
    # Mirrors the score grid. Hash distances are uniform on [0, 1), so
    # no column concentrates below 0.5 and coverage stays near zero;
    # pushing d_in toward 1 would instead manufacture coverage for
    # noise functions.
    hash_d_in: list[float] = field(default_factory=lambda: [0.1, 0.2, 0.3, 0.4, 0.5])
    hash_d_out: list[float] = field(default_factory=lambda: [0.9, 0.95, 0.99, 1.0])

    def __post_init__(self) -> None:
        for f in fields(self):
            if not getattr(self, f.name):
                raise ValueError(f"grid {f.name} must be non-empty")
        if any(not 0.0 < m <= 1.0 for m in self.m_values):
            raise ValueError("m values must lie in (0, 1]")

    def pairs_for_family(self, family: str) -> list[tuple[float, float]]:
        """Valid (d_in, d_out) pairs for one family, in grid order."""
        if family in BINARY_FAMILIES:
            return [(0.0, 1.0)]
        if family == "embedding":
            return [
                (d_in, d_in + off)
                for d_in in self.embedding_d_in
                for off in self.embedding_d_out_offsets
            ]
        if family == "score_table":
            return [
                (d_in, d_out)
                for d_in in self.score_d_in
                for d_out in self.score_d_out
                if d_out > d_in
            ]
        if family == "random_hash":
            return [
                (d_in, d_out)
                for d_in in self.hash_d_in
                for d_out in self.hash_d_out
                if d_out > d_in
            ]
        raise ValueError(f"unknown family {family!r}")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "GridSpec":
        """A grid from its JSON form; a missing field keeps its default.
        Each given field must be a list of JSON numbers, else
        ``ValueError``."""
        if not isinstance(data, dict):
            raise ValueError(f"a grid must be a JSON object, not {data!r}")
        kwargs = {}
        for f in fields(cls):
            if f.name in data:
                entries = data[f.name]
                if not isinstance(entries, list):
                    raise ValueError(f"grid {f.name} must be a list, not {entries!r}")
                kwargs[f.name] = [json_number({f.name: x}, f.name, 0.0) for x in entries]
        return cls(**kwargs)


def _live_m(grid: GridSpec) -> list[float]:
    return [m for m in grid.m_values if m < 1.0]


def candidate_count(fns: Sequence[DomainEvalFn], grid: GridSpec) -> int:
    """How many candidates ``enumerate_candidates`` yields."""
    return sum(len(grid.pairs_for_family(fn.family)) for fn in fns) * len(_live_m(grid))


def dead_candidate_count(fns: Sequence[DomainEvalFn], grid: GridSpec) -> int:
    """How many grid points ``enumerate_candidates`` skips because their
    ``m`` is 1, so that they can never fire."""
    pairs = sum(len(grid.pairs_for_family(fn.family)) for fn in fns)
    return pairs * (len(grid.m_values) - len(_live_m(grid)))


def enumerate_candidates(
    fns: Iterable[DomainEvalFn], grid: Optional[GridSpec] = None
) -> Iterator[Candidate]:
    """Stream the Cartesian product fn x (d_in, d_out) x m, one candidate
    at a time, in a stable order (function id, then grid order), without
    the ``m >= 1`` candidates."""
    if grid is None:
        grid = GridSpec()
    m_values = _live_m(grid)
    for fn in sorted(fns, key=lambda f: f.id):
        for d_in, d_out in grid.pairs_for_family(fn.family):
            # Also false when either radius is NaN.
            if not d_out >= d_in:
                continue
            for m in m_values:
                yield Candidate(fn.id, d_in, d_out, m)
