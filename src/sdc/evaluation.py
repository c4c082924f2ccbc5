"""Benchmark harness: error injection, PR metrics, z-score baselines.

Scoring is cell-level: a detection is correct iff its (column, index)
is marked erroneous in the ground truth. Precision/recall points are
swept over every distinct confidence in a report, descending; the area
under the curve uses trapezoidal integration anchored at (recall 0,
precision of the top point).

The z-score baselines are scored from arrays, without building a
report. The test suite's ``tests/oracles.py`` keeps the references: a
baseline that builds ``Detection`` reports (``zscore_report``) and the
loop form of the PR sweep (``pr_curve_loop``).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .corpus import Column, Corpus, read_records, splice_donor_value
from .domain_fns import DomainEvalFn, ValueIndex
from .errors import DataFormatError, json_ints, json_str
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
    """A ``save_truth`` file: a string ``id`` and a list of integer
    ``error_indices`` per line; a line with a ``kind`` and no ``id`` is skipped."""
    return dict(read_records(
        path, lambda rec: (json_str(rec, "id"), set(json_ints(rec, "error_indices"))),
        lambda rec: "kind" in rec and "id" not in rec))


def inject_errors(
    corpus: Corpus, truth: GroundTruth, rate: float, seed: int
) -> tuple[Corpus, GroundTruth]:
    """Inject one foreign value into floor(rate * |corpus|) uniformly
    chosen columns, at a uniformly chosen position. A chosen column is
    left clean when ``splice_donor_value`` finds no value absent from it,
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
        spliced = splice_donor_value(cols, col, rng)
        if spliced is None:
            new_cols.append(col)
            continue
        _, pos, values = spliced
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


def _curve(conf: np.ndarray, hit: np.ndarray, n_errors: int) -> list[PrPoint]:
    """The PR points of cells with confidences ``conf`` and truth flags
    ``hit``: one point per distinct confidence, descending."""
    if len(conf) == 0:
        return []
    order = np.argsort(-conf, kind="stable")
    conf = conf[order]
    tp = np.cumsum(hit[order])
    # Each tie group is scored at its last cell and named by its first.
    ends = np.append(np.flatnonzero(conf[1:] != conf[:-1]), len(conf) - 1)
    starts = np.concatenate(([0], ends[:-1] + 1))
    return [
        PrPoint(threshold=t, precision=k / seen, recall=k / n_errors if n_errors > 0 else 0.0)
        for t, k, seen in zip(conf[starts].tolist(), tp[ends].tolist(), (ends + 1).tolist())
    ]


def pr_curve(report: Sequence[Detection], truth: GroundTruth) -> list[PrPoint]:
    """One point per distinct confidence, descending: precision and
    recall of all detections at or above that confidence. Empty report
    gives an empty curve."""
    cells = _dedupe(report)
    conf = np.array([c for _, _, c in cells], dtype=np.float64)
    hit = np.array([idx in truth.get(cid, ()) for cid, idx, _ in cells], dtype=bool)
    return _curve(conf, hit, total_errors(truth))


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


def best_zscore_baseline(
    fns: Sequence[DomainEvalFn], corpus: Iterable[Column], truth: GroundTruth
) -> tuple[Optional[str], float, dict[str, float]]:
    """PR-AUC of the z-score baseline for each function; returns the
    best function id, its AUC, and the full id -> AUC map.

    The baseline flags every cell whose distance z-score within its
    column is positive, with the z-score as its confidence. Columns of
    fewer than two values and zero-variance columns flag nothing. The
    columns, which may be a prebuilt ``ValueIndex``, have unique ids."""
    index = ValueIndex.of(corpus)
    is_error = np.zeros(int(index.offsets[-1]), dtype=bool)
    for j, column in enumerate(index):
        labels = [i for i in truth.get(column.id, ()) if 0 <= i < len(column)]
        is_error[index.offsets[j] + np.array(labels, dtype=np.intp)] = True
    # Columns of one length L form one (k x L) block of cell positions;
    # the block's row-wise mean and std are bit for bit those of each
    # column alone.
    blocks = []
    lengths = np.flatnonzero(np.bincount(index.lengths))
    for length in lengths[lengths >= 2].tolist():
        starts = index.offsets[:-1][index.lengths == length]
        blocks.append(starts[:, None] + np.arange(length))
    n_errors = total_errors(truth)
    aucs: dict[str, float] = {}
    for fn in fns:
        dists = index.distances(fn)
        dists[~np.isfinite(dists)] = _FINITE_CAP
        conf, cells = [np.zeros(0)], [np.zeros(0, dtype=np.intp)]
        for block in blocks:
            d = dists[block]
            mean = d.mean(axis=1)
            std = d.std(axis=1)
            varies = std != 0.0
            z = (d[varies] - mean[varies, None]) / std[varies, None]
            flagged = z > 0.0
            conf.append(z[flagged])
            cells.append(block[varies][flagged])
        hit = is_error[np.concatenate(cells)]
        aucs[fn.id] = pr_auc(_curve(np.concatenate(conf), hit, n_errors))
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
