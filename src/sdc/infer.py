"""Online detection: apply a selected ruleset to unseen columns.

``ValueIndex.evaluate`` evaluates each function the ruleset names once
over the columns, and each distinct pre-condition (function, inner
radius, matching fraction) once per column; a constraint whose
pre-condition holds on a column then flags that column's values beyond
its own outer radius. Each flag is one entry: (cell, constraint index,
distance), one per flagger of a cell. Every flagged cell reports its
highest-confidence flagger, ties to the larger constraint id; one sort
of the entries by (cell, flagger rank) finds the winners, and only
they are turned into ``Detection`` records with explanations. This
returns exactly what a naive per-constraint loop would; that loop is
the reference ``detect_errors_naive`` in the test suite's
``tests/oracles.py``.
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
        return dict(vars(self))  # the fields in order, without asdict's deep copies

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
    """Group constraints (``Sdc`` objects or screening's rows) by exact
    (fn_id, d_in, m); the groups partition the ruleset, and detection
    evaluates each group's pre-condition once per column."""
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


def detect_corpus(
    ruleset: CompiledRuleset,
    corpus: Iterable[Column],
    registry: Registry,
    min_confidence: float = 0.0,
) -> list[Detection]:
    """Detections of every column, concatenated in corpus order.
    ``corpus`` may be a prebuilt ``ValueIndex``, shared with other work
    on the same columns."""
    index = ValueIndex.of(corpus)
    sdcs = ruleset.sdcs
    cells, flaggers, dists_of_cells = [], [], []
    descs: dict[str, str] = {}
    for fn, pos, dists, holds, d_out in index.evaluate(registry, sdcs):
        descs[fn.id] = fn.describe()
        for i, covered, d in zip(pos.tolist(), holds, d_out[:, 0].tolist()):
            hit = np.flatnonzero(np.repeat(covered, index.lengths) & (dists > d))
            cells.append(hit)
            flaggers.append(np.full(hit.size, i, dtype=np.intp))
            dists_of_cells.append(dists[hit])
    if not cells:
        return []
    cell, who, dist = np.concatenate(cells), np.concatenate(flaggers), np.concatenate(dists_of_cells)
    # The highest confidence wins, ties to the larger id, then to the
    # earlier constraint: a rank over the constraints orders each cell's
    # flaggers, and the last one is the winner.
    conf = [s.confidence if s.confidence is not None else 0.0 for s in sdcs]
    rank = np.empty(len(sdcs), dtype=np.intp)
    rank[sorted(range(len(sdcs)), key=lambda i: (conf[i], sdcs[i].id, -i))] = np.arange(len(sdcs))
    order = np.lexsort((rank[who], cell))
    cell, who, dist = cell[order], who[order], dist[order]
    win = (np.diff(cell, append=-1) != 0) & (np.asarray(conf, dtype=np.float64)[who] >= min_confidence)
    col = np.searchsorted(index.offsets, cell[win], side="right") - 1
    # Winners come in cell order; a stable sort puts each column's in
    # descending confidence, ties in cell order.
    winners = sorted(zip(col.tolist(), cell[win].tolist(), who[win].tolist(), dist[win].tolist()),
                     key=lambda w: (w[0], -conf[w[2]]))
    out: list[Detection] = []
    for j, c, i, d in winners:
        column, sdc = index.columns[j], sdcs[i]
        idx = c - int(index.offsets[j])
        value = column.values[idx]
        out.append(Detection(column.id, idx, value, conf[i], sdc.id,
                             _explanation(sdc, descs[sdc.fn_id], value, d)))
    return out


def save_report(report: Sequence[Detection], path: str, meta: Optional[dict] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if meta is not None:
            fh.write(json.dumps({"kind": "report-meta", **meta}, sort_keys=True) + "\n")
        for det in report:
            fh.write(json.dumps(det.to_record(), ensure_ascii=False) + "\n")
