"""Candidate constraint enumeration.

A semantic-domain constraint (SDC) couples one domain-evaluation
function with three thresholds: an inner-ball radius ``d_in``, an
outer-ball radius ``d_out`` and a matching fraction ``m``. Its
pre-condition holds on a column when at least ``m`` of the values lie
within ``d_in``; its post-condition then flags every value beyond
``d_out``. Candidates are enumerated on a fixed grid per function
family and assessed later against the corpus.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Optional, Sequence

from .domain_fns import DomainEvalFn
from .errors import DataFormatError

BINARY_FAMILIES = ("pattern", "validator")


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
        if self.d_out < self.d_in:
            raise ValueError(f"d_out {self.d_out} < d_in {self.d_in}")
        if not 0.0 < self.m <= 1.0:
            raise ValueError(f"m {self.m} outside (0, 1]")

    def with_confidence(self, confidence: float) -> "Sdc":
        return replace(self, confidence=confidence)


def candidate_id(fn_id: str, d_in: float, d_out: float, m: float) -> str:
    """Content hash of the four parameters; stable across runs."""
    payload = f"{fn_id}|{d_in!r}|{d_out!r}|{m!r}".encode("utf-8")
    return "sdc-" + hashlib.sha1(payload).hexdigest()[:16]


def make_sdc(fn_id: str, d_in: float, d_out: float, m: float) -> Sdc:
    return Sdc(id=candidate_id(fn_id, d_in, d_out, m), fn_id=fn_id, d_in=d_in, d_out=d_out, m=m)


def _default_m() -> list[float]:
    return [1.0, 0.95, 0.9, 0.85, 0.8]


def _default_emb_d_in() -> list[float]:
    return [0.5 * i for i in range(1, 17)]  # 0.5 .. 8.0


def _default_emb_offsets() -> list[float]:
    return [0.5, 1.0, 1.5, 2.0]


def _default_score_d_in() -> list[float]:
    return [round(0.1 + 0.05 * i, 2) for i in range(9)]  # 0.1 .. 0.5


def _default_score_d_out() -> list[float]:
    return [0.9, 0.95, 0.99, 1.0]


def _default_hash_d_in() -> list[float]:
    # Mirrors the score grid. Hash distances are uniform on [0, 1], so
    # no column concentrates below 0.5 and coverage stays near zero;
    # pushing d_in toward 1 would instead manufacture coverage for
    # noise functions (at m = 1, "all values inside d_in" even implies
    # "none beyond d_out", a real association the gates would accept).
    return [0.1, 0.2, 0.3, 0.4, 0.5]


def _default_hash_d_out() -> list[float]:
    return [0.9, 0.95, 0.99, 1.0]


@dataclass
class GridSpec:
    """Threshold grids per function family.

    ``m_values`` applies to every family. Embedding radii pair each
    ``d_in`` with ``d_in + offset``; score-table and random-hash grids
    cross absolute ``d_in``/``d_out`` lists keeping only ``d_out >
    d_in``. Binary families (pattern, validator) always emit the single
    pair (0, 1).
    """

    m_values: list[float] = field(default_factory=_default_m)
    embedding_d_in: list[float] = field(default_factory=_default_emb_d_in)
    embedding_d_out_offsets: list[float] = field(default_factory=_default_emb_offsets)
    score_d_in: list[float] = field(default_factory=_default_score_d_in)
    score_d_out: list[float] = field(default_factory=_default_score_d_out)
    hash_d_in: list[float] = field(default_factory=_default_hash_d_in)
    hash_d_out: list[float] = field(default_factory=_default_hash_d_out)

    def __post_init__(self) -> None:
        for name in (
            "m_values",
            "embedding_d_in",
            "embedding_d_out_offsets",
            "score_d_in",
            "score_d_out",
            "hash_d_in",
            "hash_d_out",
        ):
            vals = getattr(self, name)
            if not vals:
                raise ValueError(f"grid {name} must be non-empty")
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
        return {
            "m_values": self.m_values,
            "embedding_d_in": self.embedding_d_in,
            "embedding_d_out_offsets": self.embedding_d_out_offsets,
            "score_d_in": self.score_d_in,
            "score_d_out": self.score_d_out,
            "hash_d_in": self.hash_d_in,
            "hash_d_out": self.hash_d_out,
        }

    @classmethod
    def from_json(cls, data: dict) -> "GridSpec":
        kwargs = {}
        for name in (
            "m_values",
            "embedding_d_in",
            "embedding_d_out_offsets",
            "score_d_in",
            "score_d_out",
            "hash_d_in",
            "hash_d_out",
        ):
            if name in data:
                kwargs[name] = [float(x) for x in data[name]]
        return cls(**kwargs)

    @classmethod
    def load(cls, path: str) -> "GridSpec":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.from_json(json.load(fh))
        except (OSError, TypeError, ValueError) as exc:
            raise DataFormatError(f"cannot read grid {path}: {exc!r}") from exc


def candidate_count(fns: Sequence[DomainEvalFn], grid: GridSpec) -> int:
    return sum(len(grid.pairs_for_family(fn.family)) * len(grid.m_values) for fn in fns)


def enumerate_candidates(
    fns: Iterable[DomainEvalFn], grid: Optional[GridSpec] = None
) -> Iterator[Sdc]:
    """Stream the Cartesian product fn x (d_in, d_out) x m, one candidate
    at a time, in a stable order (function id, then grid order)."""
    if grid is None:
        grid = GridSpec()
    for fn in sorted(fns, key=lambda f: f.id):
        for d_in, d_out in grid.pairs_for_family(fn.family):
            if not (d_out >= d_in) or math.isnan(d_out):
                continue
            for m in grid.m_values:
                yield make_sdc(fn.id, d_in, d_out, m)
