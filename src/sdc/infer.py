"""Online detection: apply a selected ruleset to unseen columns.

Constraints sharing a pre-condition (same function, inner radius and
matching fraction) are grouped so each pre-condition is evaluated once
per column; members of a holding group then flag values beyond their
own outer radii. Flags are unioned across constraints and every
flagged cell reports the highest confidence among its flaggers. The
grouped evaluation returns exactly what a naive per-constraint loop
would; that loop is the reference ``detect_errors_naive`` in the test
suite's ``tests/oracles.py``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .candidates import Sdc
from .corpus import Column
from .domain_fns import Registry, ValueIndex

PrecondKey = tuple[str, float, float]  # (fn_id, d_in, m)


@dataclass(frozen=True)
class Detection:
    column_id: str
    value_index: int
    value: str
    confidence: float
    sdc_id: str
    explanation: str

    def to_record(self) -> dict:
        return {
            "column_id": self.column_id,
            "value_index": self.value_index,
            "value": self.value,
            "confidence": self.confidence,
            "sdc_id": self.sdc_id,
            "explanation": self.explanation,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "Detection":
        return cls(
            column_id=rec["column_id"],
            value_index=int(rec["value_index"]),
            value=rec["value"],
            confidence=float(rec["confidence"]),
            sdc_id=rec["sdc_id"],
            explanation=rec.get("explanation", ""),
        )


@dataclass
class CompiledRuleset:
    sdcs: list[Sdc]
    precondition_groups: dict[PrecondKey, list[int]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.sdcs)


def compile_ruleset(sdcs: Iterable[Sdc]) -> CompiledRuleset:
    """Group constraints by exact (fn_id, d_in, m); the groups partition
    the ruleset."""
    ruleset = CompiledRuleset(sdcs=list(sdcs))
    for i, s in enumerate(ruleset.sdcs):
        key = (s.fn_id, s.d_in, s.m)
        ruleset.precondition_groups.setdefault(key, []).append(i)
    return ruleset


def _explanation(sdc: Sdc, fn_desc: str, value: str, dist: float) -> str:
    dist_txt = "inf" if dist == float("inf") else f"{dist:.6g}"
    return (
        f"{sdc.m * 100:g}% of column values are within {sdc.d_in:g} of {fn_desc}; "
        f"{value!r} is at distance {dist_txt} > {sdc.d_out:g}"
    )


def _finalize(
    column: Column,
    flaggers: dict[int, list[tuple[float, str, float, str]]],
    min_confidence: float,
) -> list[Detection]:
    out: list[Detection] = []
    for idx, hits in flaggers.items():
        # Highest confidence wins; ties break on constraint id so the
        # report is deterministic.
        conf, sdc_id, dist, expl = max(hits, key=lambda h: (h[0], h[1]))
        if conf < min_confidence:
            continue
        out.append(
            Detection(
                column_id=column.id,
                value_index=idx,
                value=column.values[idx],
                confidence=conf,
                sdc_id=sdc_id,
                explanation=expl,
            )
        )
    out.sort(key=lambda d: (-d.confidence, d.value_index))
    return out


def _detect(
    ruleset: CompiledRuleset,
    index: ValueIndex,
    registry: Registry,
    min_confidence: float,
) -> list[Detection]:
    """Grouped detection over every column of ``index`` at once: each
    function is evaluated once, each pre-condition group once per
    column."""
    groups_by_fn: dict[str, list[tuple[float, float, list[int]]]] = {}
    for (fn_id, d_in, m), members in ruleset.precondition_groups.items():
        groups_by_fn.setdefault(fn_id, []).append((d_in, m, members))
    flaggers: list[dict[int, list[tuple[float, str, float, str]]]] = [{} for _ in index]
    for fn_id, groups in groups_by_fn.items():
        fn = registry.get(fn_id)
        fn_desc = fn.describe()
        dists = index.distances(fn)
        masks, row_of = index.preconditions(dists, ((d_in, m) for d_in, m, _ in groups))
        for (_, _, members), covered in zip(groups, masks[row_of]):
            cells_covered = np.repeat(covered, index.lengths)
            for i in members:
                sdc = ruleset.sdcs[i]
                conf = sdc.confidence if sdc.confidence is not None else 0.0
                cells = np.nonzero(cells_covered & (dists > sdc.d_out))[0]
                cols = np.searchsorted(index.offsets, cells, side="right") - 1
                for cell, j in zip(cells.tolist(), cols.tolist()):
                    idx = cell - int(index.offsets[j])
                    value = index.columns[j].values[idx]
                    dist = float(dists[cell])
                    flaggers[j].setdefault(idx, []).append(
                        (conf, sdc.id, dist, _explanation(sdc, fn_desc, value, dist))
                    )
    out: list[Detection] = []
    for column, flagged in zip(index, flaggers):
        out.extend(_finalize(column, flagged, min_confidence))
    return out


def detect_corpus(
    ruleset: CompiledRuleset,
    corpus: Iterable[Column],
    registry: Registry,
    min_confidence: float = 0.0,
) -> list[Detection]:
    """Detections of every column, concatenated in corpus order.
    ``corpus`` may be a prebuilt ``ValueIndex``, shared with other work
    on the same columns."""
    return _detect(ruleset, ValueIndex.of(corpus), registry, min_confidence)


def save_report(report: Sequence[Detection], path: str, meta: Optional[dict] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if meta is not None:
            fh.write(json.dumps({"kind": "report-meta", **meta}, sort_keys=True) + "\n")
        for det in report:
            fh.write(json.dumps(det.to_record(), ensure_ascii=False) + "\n")
