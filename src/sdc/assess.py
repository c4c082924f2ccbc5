"""Constraint assessment over a training corpus.

For every candidate constraint we classify each corpus column into a
2x2 contingency table: "covered" means the pre-condition holds,
"triggered" means the post-condition flags at least one value (the
post-condition is evaluated on every column, covered or not). A
candidate is kept only when all of the following hold:

- its coverage admits a confidence upper bound of at least ``c_thres``
  (an analytic minimum-coverage cutoff);
- it triggers proportionally less often on covered columns than on
  uncovered ones (rho < rho-bar) with a Cohen's h effect size of at
  least ``h_min``;
- the standard chi-squared independence test is significant at
  ``p_max``;
- the Wilson lower-bound confidence reaches ``c_thres``.

Each function, and each candidate's pre-condition on every column, is
evaluated by ``ValueIndex.evaluate``; screening adds only the trigger,
a column's largest distance beyond ``d_out``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from json.encoder import encode_basestring_ascii
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .candidates import Candidate, constraint_fields
from .corpus import Column, read_records
from .domain_fns import Registry, ValueIndex
from .errors import json_ints, json_number


class ContingencyTable(NamedTuple):
    """Counts of corpus columns by (covered, triggered)."""

    covered_triggered: int
    covered_not_triggered: int
    notcovered_triggered: int
    notcovered_not_triggered: int

    @property
    def total(self) -> int:
        return sum(self)

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
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "AssessConfig":
        """Settings from a JSON object: each value a JSON number, else
        ``ValueError``; an unknown key is a ``TypeError``."""
        return cls(**{k: json_number(data, k, 0.0) for k in data})


class AssessedSdc(NamedTuple):
    """A surviving candidate: its constraint, its Wilson lower-bound
    confidence, its table, effect size and p-value. The fields are the
    keys of a ``rules.jsonl`` line, in order; the first six are an
    ``Sdc``'s."""

    id: str
    fn_id: str
    d_in: float
    d_out: float
    m: float
    confidence: float
    table: ContingencyTable
    h: float
    p: float

    def to_record(self) -> dict:
        """The row as its ``rules.jsonl`` line decodes to."""
        return {**self._asdict(), "table": list(self.table)}


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
    a, b, c, d = table
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


def _gate_level(table: ContingencyTable, cfg: AssessConfig, min_coverage: int) -> int:
    """How many of the coverage, effect, significance and confidence
    gates ``table`` passes in turn, 0 to 4."""
    if table.coverage < min_coverage:
        return 0
    if table.not_coverage == 0 or not table.rho < table.rho_bar or cohens_h(table) < cfg.h_min:
        return 1
    if chi_squared_p(table) > cfg.p_max:
        return 2
    if wilson_lower_confidence(table, cfg.z) < cfg.c_thres:
        return 3
    return 4


def assess_all(
    candidates: Iterable[Candidate],
    corpus: Iterable[Column],
    registry: Registry,
    cfg: Optional[AssessConfig] = None,
    *,
    gate_counts: Optional[dict] = None,
) -> list[AssessedSdc]:
    """Assess every candidate against the corpus and keep the survivors,
    sorted by candidate id. Only survivors are hashed for their id.
    ``corpus`` may be a prebuilt ``ValueIndex``.

    The gates run once per distinct contingency table.

    ``gate_counts``, when given, is filled with how many candidates
    passed each successive gate (every candidate is evaluated, so
    ``evaluated`` equals ``total`` and ``pruned_skips`` is 0).
    """
    cfg = cfg or AssessConfig()
    index = ValueIndex.of(corpus)
    cands = list(candidates)
    rows = np.empty((len(cands), 4), dtype=np.intp)
    for _, pos, dists, holds, d_out in index.evaluate(registry, cands):
        fires = index.column_max(dists) > d_out
        coverage = np.count_nonzero(holds, axis=1)
        ct = np.count_nonzero(holds & fires, axis=1)
        nt = np.count_nonzero(fires, axis=1) - ct
        rows[pos] = np.stack([ct, coverage - ct, nt, len(index) - coverage - nt], axis=1)
    # Distinct tables: number each run of equal rows in sorted order.
    order = np.lexsort(rows.T)
    starts = np.diff(rows[order], axis=0, prepend=-1).any(axis=1)
    table_of = np.empty_like(order)
    table_of[order] = np.cumsum(starts) - 1
    tables = [ContingencyTable(*row) for row in rows[order[starts]].tolist()]
    min_coverage = max(1, min_coverage_for(cfg.c_thres, cfg.z))
    levels = np.asarray([_gate_level(t, cfg, min_coverage) for t in tables], dtype=np.intp)
    if gate_counts is not None:
        # passed[k]: the candidates at level k or above.
        passed = np.bincount(levels[table_of], minlength=5)[::-1].cumsum()[::-1].tolist()
        gate_counts.update(
            total=passed[0], evaluated=passed[0], pruned_skips=0,
            failed_coverage=passed[0] - passed[1], passed_coverage=passed[1],
            passed_effect=passed[2], passed_significance=passed[3], passed_confidence=passed[4])
    verdicts = {k: (cohens_h(t), chi_squared_p(t), wilson_lower_confidence(t, cfg.z))
                for k, t in enumerate(tables) if levels[k] == 4}
    results: list[AssessedSdc] = []
    for i in np.flatnonzero(levels[table_of] == 4).tolist():
        c, k = cands[i], int(table_of[i])
        h, p, conf = verdicts[k]
        results.append(AssessedSdc(c.id, *c, conf, tables[k], h, p))
    results.sort(key=lambda a: a.id)
    return results


# ---------------------------------------------------------------------------
# Serialization


def _json_number(x: float) -> str:
    """A number as ``json.dumps`` writes it."""
    return repr(x) if math.isfinite(x) else json.dumps(x)


def save_assessed(assessed: list[AssessedSdc], path: str, meta: Optional[dict] = None) -> None:
    """Write survivors as JSONL, one record per line (optionally with a
    leading metadata line). Each line is formatted directly, with the
    bytes ``json.dumps(row._asdict())`` would write."""
    q, num = encode_basestring_ascii, _json_number
    with open(path, "w", encoding="utf-8") as fh:
        if meta is not None:
            fh.write(json.dumps({"kind": "assessed-meta", **meta}, sort_keys=True) + "\n")
        for sid, fn_id, d_in, d_out, m, conf, (a, b, c, d), h, p in assessed:
            fh.write(
                f'{{"id": {q(sid)}, "fn_id": {q(fn_id)}, "d_in": {num(d_in)}, '
                f'"d_out": {num(d_out)}, "m": {num(m)}, "confidence": {num(conf)}, '
                f'"table": [{a}, {b}, {c}, {d}], "h": {num(h)}, "p": {num(p)}}}\n'
            )


def _assessed_row(rec: dict) -> AssessedSdc:
    """One ``rules.jsonl`` record as a row: ``constraint_fields``, a
    table of four JSON integers, and ``h`` and ``p`` as JSON numbers."""
    a, b, c, d = json_ints(rec, "table")
    return AssessedSdc(*constraint_fields(rec), ContingencyTable(a, b, c, d),
                       json_number(rec, "h", finite=False), json_number(rec, "p", finite=False))


def load_assessed(path: str) -> list[AssessedSdc]:
    """The rows of a ``save_assessed`` file. A malformed line is a
    ``DataFormatError`` that names it."""
    return read_records(path, _assessed_row, lambda rec: rec.get("kind") == "assessed-meta")
