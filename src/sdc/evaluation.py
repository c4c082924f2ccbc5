"""Benchmark harness: error injection, PR metrics, z-score baselines.

Scoring is cell-level: a detection is correct iff its (column, index)
is marked erroneous in the ground truth. Precision/recall points are
swept over every distinct confidence in a report, descending; the area
under the curve uses trapezoidal integration anchored at (recall 0,
precision of the top point).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .corpus import Column, Corpus, draw_donor_value
from .domain_fns import DomainEvalFn, ValueIndex
from .errors import DataFormatError
from .infer import Detection

# Ground truth: column id -> set of erroneous value indices. Columns
# absent from the map (or mapped to an empty set) are clean.
GroundTruth = dict[str, set[int]]


@dataclass(frozen=True)
class PrPoint:
    threshold: float
    precision: float
    recall: float


def save_truth(truth: GroundTruth, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for cid in sorted(truth):
            idxs = sorted(truth[cid])
            if idxs:
                fh.write(json.dumps({"id": cid, "error_indices": idxs}) + "\n")


def load_truth(path: str) -> GroundTruth:
    truth: GroundTruth = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"{path} line {lineno}: invalid JSON") from exc
            if isinstance(rec, dict) and "kind" in rec and "id" not in rec:
                continue
            try:
                truth[rec["id"]] = {int(i) for i in rec["error_indices"]}
            except (KeyError, TypeError, ValueError) as exc:
                raise DataFormatError(f"{path} line {lineno}: bad record ({exc!r})") from exc
    return truth


def inject_errors(
    corpus: Corpus, truth: GroundTruth, rate: float, seed: int
) -> tuple[Corpus, GroundTruth]:
    """Inject one foreign value into floor(rate * |corpus|) uniformly
    chosen columns, at a uniformly chosen position. A chosen column is
    left clean when ``draw_donor_value`` finds no value absent from it,
    so every label marks a value the rest of its column lacks. Existing
    truth labels survive with indices remapped past the insertion
    point."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must lie in [0, 1]")
    k = math.floor(rate * len(corpus))
    if k == 0:
        return corpus, {cid: set(idx) for cid, idx in truth.items()}
    if len(corpus) < 2:
        raise DataFormatError("error injection needs at least 2 columns")
    rng = random.Random(seed)
    cols = list(corpus)
    targets = set(rng.sample(range(len(cols)), k))
    new_cols: list[Column] = []
    new_truth: GroundTruth = {cid: set(idx) for cid, idx in truth.items()}
    for i, col in enumerate(cols):
        if i not in targets:
            new_cols.append(col)
            continue
        injected = draw_donor_value(cols, col, rng)
        if injected is None:
            new_cols.append(col)
            continue
        pos = rng.randrange(len(col.values) + 1)
        values = col.values[:pos] + (injected,) + col.values[pos:]
        new_cols.append(Column(id=col.id, values=values, header=col.header))
        remapped = {idx + 1 if idx >= pos else idx for idx in new_truth.get(col.id, set())}
        remapped.add(pos)
        new_truth[col.id] = remapped
    return Corpus(new_cols), new_truth


def total_errors(truth: GroundTruth) -> int:
    return sum(len(v) for v in truth.values())


def _dedupe(report: Sequence[Detection]) -> list[tuple[str, int, float]]:
    best: dict[tuple[str, int], float] = {}
    for det in report:
        key = (det.column_id, det.value_index)
        if key not in best or det.confidence > best[key]:
            best[key] = det.confidence
    return [(cid, idx, conf) for (cid, idx), conf in best.items()]


def pr_curve(report: Sequence[Detection], truth: GroundTruth) -> list[PrPoint]:
    """One point per distinct confidence, descending: precision and
    recall of all detections at or above that confidence. Empty report
    gives an empty curve."""
    cells = _dedupe(report)
    if not cells:
        return []
    n_errors = total_errors(truth)
    cells.sort(key=lambda c: -c[2])
    points: list[PrPoint] = []
    tp = 0
    seen = 0
    i = 0
    while i < len(cells):
        threshold = cells[i][2]
        while i < len(cells) and cells[i][2] == threshold:
            cid, idx, _ = cells[i]
            seen += 1
            if idx in truth.get(cid, ()):
                tp += 1
            i += 1
        precision = tp / seen
        recall = tp / n_errors if n_errors > 0 else 0.0
        points.append(PrPoint(threshold=threshold, precision=precision, recall=recall))
    return points


def pr_auc(points: Sequence[PrPoint]) -> float:
    """Trapezoidal area under the PR points over recall in [0, max
    recall], anchored at (0, precision of the top point)."""
    if not points:
        return 0.0
    pts = sorted(points, key=lambda p: p.recall)
    area = 0.0
    prev_r, prev_p = 0.0, pts[0].precision
    for p in pts:
        area += (p.recall - prev_r) * (p.precision + prev_p) / 2.0
        prev_r, prev_p = p.recall, p.precision
    return area


def f1_at_precision(points: Sequence[PrPoint], p0: float = 0.8) -> float:
    """F1 at the maximum-recall point with precision >= p0; 0 when no
    point qualifies."""
    qualifying = [p for p in points if p.precision >= p0]
    if not qualifying:
        return 0.0
    best = max(qualifying, key=lambda p: (p.recall, p.precision))
    if best.precision + best.recall == 0.0:
        return 0.0
    return 2.0 * best.precision * best.recall / (best.precision + best.recall)


# ---------------------------------------------------------------------------
# z-score baseline

# Out-of-vocabulary values have infinite embedding distance; the
# baseline needs finite statistics, so they are clamped to a large
# constant (an OOV value is then flagged strongly, as it should be).
_FINITE_CAP = 1e9


def zscore_baseline(fn: DomainEvalFn, column: Column, z_thresh: float) -> list[Detection]:
    """Flag values whose distance z-score under one function exceeds
    ``z_thresh``. A zero-variance column flags nothing. The reported
    confidence is the z-score itself (so curves sweep the threshold)."""
    if len(column) < 2:
        raise ValueError("z-score baseline needs at least 2 values")
    return zscore_report(fn, [column], z_thresh)


def zscore_report(
    fn: DomainEvalFn, corpus: Iterable[Column], z_thresh: float = 0.0
) -> list[Detection]:
    """Baseline detections over a whole corpus, which may be a prebuilt
    ``ValueIndex`` (columns of fewer than two values are skipped)."""
    index = ValueIndex.of(corpus)
    dists = index.distances(fn)
    dists[~np.isfinite(dists)] = _FINITE_CAP
    out: list[Detection] = []
    for j, column in enumerate(index):
        if len(column) < 2:
            continue
        # Statistics per column slice, exactly as on the column alone.
        col_d = dists[index.offsets[j] : index.offsets[j + 1]]
        mean = float(col_d.mean())
        std = float(col_d.std())
        if std == 0.0:
            continue
        z = (col_d - mean) / std
        found: list[Detection] = []
        for idx in np.nonzero(z > z_thresh)[0]:
            idx = int(idx)
            found.append(
                Detection(
                    column_id=column.id,
                    value_index=idx,
                    value=column.values[idx],
                    confidence=float(z[idx]),
                    sdc_id=f"zscore:{fn.id}",
                    explanation=(
                        f"distance z-score {z[idx]:.3f} above +{z_thresh:g} under {fn.describe()}"
                    ),
                )
            )
        found.sort(key=lambda d: (-d.confidence, d.value_index))
        out.extend(found)
    return out


def best_zscore_baseline(
    fns: Sequence[DomainEvalFn],
    corpus: Iterable[Column],
    truth: GroundTruth,
    z_thresh: float = 0.0,
) -> tuple[Optional[str], float, dict[str, float]]:
    """PR-AUC of the z-score baseline for each function; returns the
    best function id, its AUC, and the full id -> AUC map."""
    index = ValueIndex.of(corpus)
    aucs: dict[str, float] = {}
    for fn in fns:
        report = zscore_report(fn, index, z_thresh)
        aucs[fn.id] = pr_auc(pr_curve(report, truth))
    if not aucs:
        return None, 0.0, {}
    best_id = max(sorted(aucs), key=lambda k: aucs[k])
    return best_id, aucs[best_id], aucs


def metrics_summary(points: Sequence[PrPoint]) -> dict:
    return {
        "pr_auc": pr_auc(points),
        "f1_at_p08": f1_at_precision(points, 0.8),
        "points": [
            {"threshold": p.threshold, "precision": p.precision, "recall": p.recall}
            for p in points
        ],
    }
