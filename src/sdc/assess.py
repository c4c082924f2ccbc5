"""Constraint assessment over a training corpus.

For every candidate constraint we classify each corpus column into a
2x2 contingency table: "covered" means the pre-condition holds,
"triggered" means the post-condition flags at least one value (the
post-condition is evaluated on every column, covered or not). A
candidate is kept only when all of the following hold:

- its coverage admits a confidence upper bound of at least ``c_thres``
  (an analytic minimum-coverage cutoff, which also powers pruning);
- it triggers proportionally less often on covered columns than on
  uncovered ones (rho < rho-bar) with a Cohen's h effect size of at
  least ``h_min``;
- the standard chi-squared independence test is significant at
  ``p_max``;
- the Wilson lower-bound confidence reaches ``c_thres``.

Pruning only skips work; the accepted set is identical with pruning on
or off.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .candidates import Sdc
from .corpus import Corpus
from .domain_fns import DomainEvalFn, Registry, ValueIndex
from .errors import DataFormatError


@dataclass(frozen=True)
class ContingencyTable:
    """Counts of corpus columns by (covered, triggered)."""

    covered_triggered: int
    covered_not_triggered: int
    notcovered_triggered: int
    notcovered_not_triggered: int

    @property
    def total(self) -> int:
        return (
            self.covered_triggered
            + self.covered_not_triggered
            + self.notcovered_triggered
            + self.notcovered_not_triggered
        )

    @property
    def coverage(self) -> int:
        return self.covered_triggered + self.covered_not_triggered

    @property
    def not_coverage(self) -> int:
        return self.notcovered_triggered + self.notcovered_not_triggered

    @property
    def rho(self) -> float:
        """Trigger rate among covered columns."""
        if self.coverage == 0:
            raise ValueError("rho undefined: coverage is zero")
        return self.covered_triggered / self.coverage

    @property
    def rho_bar(self) -> float:
        """Trigger rate among uncovered columns."""
        if self.not_coverage == 0:
            raise ValueError("rho-bar undefined: no uncovered columns")
        return self.notcovered_triggered / self.not_coverage

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (
            self.covered_triggered,
            self.covered_not_triggered,
            self.notcovered_triggered,
            self.notcovered_not_triggered,
        )


@dataclass(frozen=True)
class AssessConfig:
    z: float = 1.65
    h_min: float = 0.8
    p_max: float = 0.05
    c_thres: float = 0.9

    def __post_init__(self) -> None:
        if self.z <= 0:
            raise ValueError("z must be positive")
        if self.h_min <= 0:
            raise ValueError("h_min must be positive")
        if not 0.0 <= self.p_max <= 1.0:
            raise ValueError("p_max must be a probability")
        if not 0.0 <= self.c_thres < 1.0:
            raise ValueError("c_thres must lie in [0, 1)")

    def to_json(self) -> dict:
        return {"z": self.z, "h_min": self.h_min, "p_max": self.p_max, "c_thres": self.c_thres}

    @classmethod
    def from_json(cls, data: dict) -> "AssessConfig":
        return cls(**{k: float(v) for k, v in data.items()})


@dataclass(frozen=True)
class AssessedSdc:
    """A surviving candidate with its table, effect size, p-value and
    Wilson lower-bound confidence (mirrored into sdc.confidence)."""

    sdc: Sdc
    table: ContingencyTable
    h: float
    p: float

    @property
    def confidence(self) -> float:
        assert self.sdc.confidence is not None
        return self.sdc.confidence

    def to_record(self) -> dict:
        return {
            "id": self.sdc.id,
            "fn_id": self.sdc.fn_id,
            "d_in": self.sdc.d_in,
            "d_out": self.sdc.d_out,
            "m": self.sdc.m,
            "confidence": self.confidence,
            "table": list(self.table.as_tuple()),
            "h": self.h,
            "p": self.p,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "AssessedSdc":
        sdc = Sdc(
            id=rec["id"],
            fn_id=rec["fn_id"],
            d_in=float(rec["d_in"]),
            d_out=float(rec["d_out"]),
            m=float(rec["m"]),
            confidence=float(rec["confidence"]),
        )
        a, b, c, d = rec["table"]
        return cls(
            sdc=sdc,
            table=ContingencyTable(int(a), int(b), int(c), int(d)),
            h=float(rec["h"]),
            p=float(rec["p"]),
        )


# ---------------------------------------------------------------------------
# Statistics


def cohens_h(table: ContingencyTable) -> float:
    """Absolute Cohen's h between the covered and uncovered trigger
    rates: ``|2(arcsin sqrt(rho) - arcsin sqrt(rho-bar))|``. Acceptance
    additionally requires ``rho < rho_bar`` (a useful constraint
    triggers rarely in-domain and frequently out-of-domain)."""
    rho = table.rho
    rho_bar = table.rho_bar
    return abs(2.0 * (math.asin(math.sqrt(rho)) - math.asin(math.sqrt(rho_bar))))


def chi_squared_p(table: ContingencyTable) -> float:
    """Pearson chi-squared p-value on the 2x2 table (df = 1, no
    continuity correction). Degenerate margins give p = 1."""
    a, b, c, d = table.as_tuple()
    n = a + b + c + d
    row1, row2 = a + b, c + d
    col1, col2 = a + c, b + d
    if n == 0 or row1 == 0 or row2 == 0 or col1 == 0 or col2 == 0:
        return 1.0
    stat = n * (a * d - b * c) ** 2 / (row1 * row2 * col1 * col2)
    # Survival function of chi-squared with one degree of freedom.
    return math.erfc(math.sqrt(stat / 2.0))


def wilson_lower_confidence(table: ContingencyTable, z: float = 1.65) -> float:
    """Lower-bound confidence from the Wilson score interval on the
    covered-column trigger rate:

        c = 1 - (n_ct + z^2/2)/(n_c + z^2)
              - z/(n_c + z^2) * sqrt(n_ct*n_ctbar/n_c + z^2/4)

    with n_ct = covered_triggered, n_ctbar = covered_not_triggered and
    n_c = coverage.
    """
    n_ct = table.covered_triggered
    n_ctbar = table.covered_not_triggered
    n_c = table.coverage
    if n_c == 0:
        raise ValueError("wilson confidence undefined: coverage is zero")
    if n_ct == 0:
        # Collapse to the closed form so the zero-trigger case agrees
        # with confidence_upper_bound to the last bit (sqrt(z^2/4) can
        # drift one ulp from z/2).
        return confidence_upper_bound(n_c, z)
    z2 = z * z
    center = (n_ct + z2 / 2.0) / (n_c + z2)
    half_width = (z / (n_c + z2)) * math.sqrt(n_ct * n_ctbar / n_c + z2 / 4.0)
    return 1.0 - center - half_width


def confidence_upper_bound(coverage: int, z: float = 1.65) -> float:
    """Best confidence attainable at a given coverage (the n_ct = 0
    case of the Wilson bound): ``1 - z^2/(coverage + z^2)``. Monotone
    nondecreasing in coverage."""
    if coverage < 0:
        raise ValueError("coverage must be >= 0")
    z2 = z * z
    return 1.0 - z2 / (coverage + z2)


def min_coverage_for(c_thres: float, z: float = 1.65) -> int:
    """Smallest coverage whose confidence upper bound reaches
    ``c_thres``; solved analytically from 1 - z^2/(n + z^2) >= c."""
    if not 0.0 <= c_thres < 1.0:
        raise ValueError("c_thres must lie in [0, 1)")
    z2 = z * z
    n_min = z2 * c_thres / (1.0 - c_thres)
    return max(0, math.ceil(n_min))


# ---------------------------------------------------------------------------
# Full assessment


_GATE_KEYS = (
    "total",
    "evaluated",
    "pruned_skips",
    "failed_coverage",
    "passed_coverage",
    "passed_effect",
    "passed_significance",
    "passed_confidence",
)


def _assess_fn_group(
    fn: DomainEvalFn,
    group: list[Sdc],
    index: ValueIndex,
    cfg: AssessConfig,
    prune: bool,
) -> tuple[list[AssessedSdc], dict[str, int]]:
    dists = index.distances(fn)
    covered = index.precondition(dists, (c.d_in for c in group))
    max_dist = index.column_max(dists)
    min_cov = min_coverage_for(cfg.c_thres, cfg.z)
    n_cols = len(index)
    counts = {k: 0 for k in _GATE_KEYS}
    counts["total"] = len(group)

    trig_cache: dict[float, np.ndarray] = {}

    def triggered_mask(d_out: float) -> np.ndarray:
        got = trig_cache.get(d_out)
        if got is None:
            got = max_dist > d_out
            trig_cache[d_out] = got
        return got

    # Group by (d_out, m); within a group, coverage shrinks with d_in,
    # so once it dips below the analytic minimum every smaller d_in can
    # be skipped outright.
    by_out_m: dict[tuple[float, float], list[Sdc]] = {}
    for cand in group:
        by_out_m.setdefault((cand.d_out, cand.m), []).append(cand)

    kept: list[AssessedSdc] = []
    for (d_out, m), cands in sorted(by_out_m.items()):
        cands = sorted(cands, key=lambda c: -c.d_in)
        trig = triggered_mask(d_out)
        n_trig = int(np.count_nonzero(trig))
        for pos, cand in enumerate(cands):
            counts["evaluated"] += 1
            cov_mask = covered(cand.d_in, m)
            coverage = int(np.count_nonzero(cov_mask))
            if coverage < max(1, min_cov):
                # Candidates with smaller d_in cover subsets of these
                # columns, so they fail this gate too.
                rest = len(cands) - pos - 1
                counts["failed_coverage"] += 1 + (rest if prune else 0)
                if prune:
                    counts["pruned_skips"] += rest
                    break
                continue
            counts["passed_coverage"] += 1
            ct = int(np.count_nonzero(cov_mask & trig))
            table = ContingencyTable(
                covered_triggered=ct,
                covered_not_triggered=coverage - ct,
                notcovered_triggered=n_trig - ct,
                notcovered_not_triggered=n_cols - coverage - (n_trig - ct),
            )
            if table.not_coverage == 0:
                continue
            if not table.rho < table.rho_bar:
                continue
            h = cohens_h(table)
            if h < cfg.h_min:
                continue
            counts["passed_effect"] += 1
            p = chi_squared_p(table)
            if p > cfg.p_max:
                continue
            counts["passed_significance"] += 1
            conf = wilson_lower_confidence(table, cfg.z)
            if conf < cfg.c_thres:
                continue
            counts["passed_confidence"] += 1
            kept.append(AssessedSdc(sdc=cand.with_confidence(conf), table=table, h=h, p=p))
    return kept, counts


def assess_all(
    candidates: Iterable[Sdc],
    corpus: Corpus,
    registry: Registry,
    cfg: Optional[AssessConfig] = None,
    *,
    prune: bool = True,
    gate_counts: Optional[dict] = None,
) -> list[AssessedSdc]:
    """Assess every candidate against the corpus and keep the survivors,
    sorted by candidate id.

    ``gate_counts``, when given, is filled with how many candidates
    passed each successive gate.
    """
    cfg = cfg or AssessConfig()
    index = ValueIndex(corpus)
    by_fn: dict[str, list[Sdc]] = {}
    for cand in candidates:
        by_fn.setdefault(cand.fn_id, []).append(cand)

    results: list[AssessedSdc] = []
    merged = {k: 0 for k in _GATE_KEYS}
    for fn_id in sorted(by_fn):
        kept, counts = _assess_fn_group(registry.get(fn_id), by_fn[fn_id], index, cfg, prune)
        results.extend(kept)
        for k in _GATE_KEYS:
            merged[k] += counts[k]
    if gate_counts is not None:
        gate_counts.update(merged)
    results.sort(key=lambda a: a.sdc.id)
    return results


# ---------------------------------------------------------------------------
# Serialization


def save_assessed(assessed: list[AssessedSdc], path: str, meta: Optional[dict] = None) -> None:
    """Write survivors as JSONL, one record per line (optionally with a
    leading metadata line)."""
    with open(path, "w", encoding="utf-8") as fh:
        if meta is not None:
            fh.write(json.dumps({"kind": "assessed-meta", **meta}, sort_keys=True) + "\n")
        for item in assessed:
            fh.write(json.dumps(item.to_record()) + "\n")


def load_assessed(path: str) -> list[AssessedSdc]:
    out: list[AssessedSdc] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"{path} line {lineno}: invalid JSON") from exc
            if isinstance(rec, dict) and rec.get("kind") == "assessed-meta":
                continue
            try:
                out.append(AssessedSdc.from_record(rec))
            except (KeyError, TypeError, ValueError) as exc:
                raise DataFormatError(f"{path} line {lineno}: bad record ({exc})") from exc
    return out
