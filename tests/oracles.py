"""Reference implementations the tests compare the library against.

Each function is the plain form of a library computation, kept here
rather than in ``sdc`` because only tests call it:

- the date, ISO-timestamp and URL validators without their shape
  filters: every value goes to the parser;
- generalization of a value one regex match per token, and pattern
  inference that generalizes every cell twice;
- value interning by one list comprehension over every cell's
  normalized value;
- the pre-condition counts as a dense (cells x radii) mask summed per
  column;
- cell-by-cell checks of the pre- and post-condition, the contingency
  table, screening one candidate at a time through it, a candidate's
  synthetic detections, detection itself and the z-score baseline's
  report. They call ``fn.distance`` once per cell
  and never touch ``ValueIndex``, so they do not share the kernel they
  check;
- selection stats one survivor at a time, and their grouping into
  detection classes by a dict over (detected set, FPR, confidence);
- the PR sweep as a loop over a report's cells, one tie group at a
  time;
- loop forms of selection's array code: cover sets by a membership test
  per (column, candidate), best confidences per column, the LP
  constraint matrix entry by entry, the coverage count, and budget
  enforcement that recomputes every marginal gain from the cover sets;
- the exact ILP optimum by subset enumeration, and small helpers
  (recall of a constraint set, best selected confidence on a column,
  a constraint from its four parameters, a corpus from plain lists or
  of random strings, a column looked up by id, a report read back from
  its file).

Where the library has a counterpart, tests require it to return
exactly what the reference returns.
"""

from __future__ import annotations

import json
import math
import random
import re
from collections import Counter
from datetime import datetime
from itertools import combinations
from typing import Iterable, Optional, Sequence
from urllib.parse import urlparse

import numpy as np

from sdc.assess import (
    AssessConfig,
    AssessedSdc,
    ContingencyTable,
    chi_squared_p,
    cohens_h,
    min_coverage_for,
    wilson_lower_confidence,
)
from sdc.candidates import Candidate, Sdc, candidate_id
from sdc.corpus import Column, Corpus
from sdc.domain_fns import _DATE_FORMATS, DomainEvalFn, Registry
from sdc.errors import DataFormatError
from sdc.evaluation import _FINITE_CAP, GroundTruth, PrPoint, total_errors
from sdc.infer import Detection, _explanation
from sdc.select import IlpProblem, SelectionConfig
from sdc.synth import CandidateStats, SynthColumn


# ---------------------------------------------------------------------------
# Validators


def validate_date(value: str) -> bool:
    """True iff some date format parses the value. The reference for
    ``sdc.domain_fns._validate_date``."""
    for fmt in _DATE_FORMATS:
        try:
            datetime.strptime(value, fmt)
            return True
        except ValueError:
            continue
    return False


def validate_iso_timestamp(value: str) -> bool:
    """``fromisoformat`` on every value with a ``t`` or a space, a
    trailing ``z`` read as UTC. The reference for
    ``sdc.domain_fns._validate_iso_timestamp``."""
    if "t" not in value and " " not in value:
        return False
    candidate = value[:-1] + "+00:00" if value.endswith("z") else value
    try:
        datetime.fromisoformat(candidate)
        return True
    except ValueError:
        return False


def validate_url(value: str) -> bool:
    """``urlparse`` on every value without a space. The reference for
    ``sdc.domain_fns._validate_url``."""
    if " " in value:
        return False
    try:
        parsed = urlparse(value)
    except ValueError:
        return False
    return parsed.scheme in ("http", "https", "ftp") and "." in parsed.netloc


# ---------------------------------------------------------------------------
# Patterns


def generalize_value(value: str, collapse_whitespace: bool = True) -> str:
    """Whitespace runs collapsed first, then one regex match per token:
    digit runs, letter runs or any one other character. Without
    collapsing, the reference for ``sdc.domain_fns.value_shape``; with
    it, for the patterns ``infer_patterns`` generates."""
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


def infer_patterns(corpus: Iterable[Column], top_k: int) -> list[str]:
    """Every cell generalized twice, shapes counted per column in a
    dict. The reference for ``sdc.domain_fns.infer_patterns`` (its
    patterns, in order)."""
    column_counts: Counter = Counter()
    for col in corpus:
        norm = col.normalized()
        shapes = Counter(generalize_value(nv, collapse_whitespace=False) for nv in norm)
        column_counts.update(s for s, cnt in shapes.items() if cnt * 2 >= len(norm))
    generated = {generalize_value(nv) for col in corpus for nv in col.normalized()}
    return sorted(generated, key=lambda p: (-column_counts[p], p))[:top_k]


# ---------------------------------------------------------------------------
# Constraints


def constraint(
    fn_id: str, d_in: float, d_out: float, m: float, confidence: Optional[float] = None
) -> Sdc:
    """An ``Sdc`` with its content-hash id, as screening builds a
    survivor's."""
    return Sdc(id=candidate_id(fn_id, d_in, d_out, m), fn_id=fn_id, d_in=d_in, d_out=d_out, m=m,
               confidence=confidence)


def survivor(
    fn_id: str, d_in: float, d_out: float, m: float, confidence: float,
    table: ContingencyTable, h: float = 1.0, p: float = 1e-6,
) -> AssessedSdc:
    """A screening row with its content-hash id, as ``assess_all``
    builds a survivor's."""
    return AssessedSdc(candidate_id(fn_id, d_in, d_out, m), fn_id, d_in, d_out, m, confidence,
                       table, h, p)


# ---------------------------------------------------------------------------
# Corpora


def corpus_from_lists(values_by_id: dict[str, Iterable[str]]) -> Corpus:
    """A corpus with one column per id, in the dict's order."""
    return Corpus([Column(id=k, values=tuple(v)) for k, v in values_by_id.items()])


def generate_random_string_corpus(n_columns: int, seed: int = 0) -> Corpus:
    """Columns of structureless strings (mixed shapes); useful as a
    negative control that should yield almost no constraints."""
    rng = random.Random(seed)
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-_./:@#"
    cols = []
    for i in range(n_columns):
        n = rng.randint(10, 30)
        values = tuple(
            "".join(rng.choice(alphabet) for _ in range(rng.randint(3, 18))) for _ in range(n)
        )
        cols.append(Column(id=f"rnd-{i:05d}", values=values))
    return Corpus(cols)


def column_by_id(corpus: Iterable[Column], column_id: str) -> Column:
    for col in corpus:
        if col.id == column_id:
            return col
    raise KeyError(column_id)


def value_index_codes(columns: Sequence[Column]) -> tuple[list[str], list[int]]:
    """The distinct normalized values in first-seen order and each
    cell's position among them. The reference for ``ValueIndex.values``
    and ``ValueIndex.codes``."""
    table: dict[str, int] = {}
    codes = [table.setdefault(nv, len(table)) for col in columns for nv in col.normalized()]
    return list(table), codes


def inside_counts_dense(lengths: Sequence[int], dists: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """(columns x radii) counts of each column's values within each
    radius, from a dense (cells x radii) mask summed column by column.
    The reference for ``ValueIndex.inside_counts``."""
    inside = (dists[:, None] <= np.asarray(radii, dtype=np.float64)).astype(np.intp)
    bounds = np.concatenate(([0], np.cumsum(lengths, dtype=np.intp)))
    return np.array([inside[a:b].sum(axis=0) for a, b in zip(bounds, bounds[1:])],
                    dtype=np.intp).reshape(len(lengths), len(radii))


# ---------------------------------------------------------------------------
# Cell-by-cell evaluation


def column_distances(fn: DomainEvalFn, column: Column) -> np.ndarray:
    """A column's distances, one ``fn.distance`` call per cell."""
    return np.asarray([fn.distance(nv) for nv in column.normalized()], dtype=np.float64)


def eval_precondition(sdc: Sdc, column: Column, registry: Registry) -> bool:
    """True iff at least a fraction ``m`` of the column's values lie
    within distance ``d_in`` (non-strict) of the domain."""
    dists = column_distances(registry.get(sdc.fn_id), column)
    inside = int(np.count_nonzero(dists <= sdc.d_in))
    return inside >= sdc.m * len(column)


def eval_postcondition(sdc: Sdc, column: Column, registry: Registry) -> set[tuple[int, str]]:
    """The (index, raw value) pairs strictly beyond ``d_out``."""
    dists = column_distances(registry.get(sdc.fn_id), column)
    idx = np.nonzero(dists > sdc.d_out)[0]
    return {(int(i), column.values[int(i)]) for i in idx}


def build_contingency(
    sdc: Sdc, corpus: Corpus, registry: Registry, dists: Optional[Sequence[list[float]]] = None
) -> ContingencyTable:
    """Classify every corpus column by (covered, triggered). Triggering
    is evaluated on all columns, covered or not. ``dists``, when given,
    holds each column's ``column_distances`` as a list, so that a caller
    screening many candidates of one function computes them once."""
    if dists is None:
        fn = registry.get(sdc.fn_id)
        dists = [column_distances(fn, col).tolist() for col in corpus]
    ct = ctbar = nt = ntbar = 0
    for col, col_dists in zip(corpus, dists):
        covered = sum(d <= sdc.d_in for d in col_dists) >= sdc.m * len(col)
        triggered = any(d > sdc.d_out for d in col_dists)
        if covered and triggered:
            ct += 1
        elif covered:
            ctbar += 1
        elif triggered:
            nt += 1
        else:
            ntbar += 1
    return ContingencyTable(ct, ctbar, nt, ntbar)


def assess_loop(
    candidates: Iterable[Candidate | Sdc],
    corpus: Corpus,
    registry: Registry,
    cfg: Optional[AssessConfig] = None,
) -> tuple[list[AssessedSdc], dict[str, int]]:
    """Screen candidate by candidate: one ``build_contingency`` table
    each, then the coverage, effect, significance and confidence gates
    in turn. Returns the survivors sorted by id and how many candidates
    passed each gate. The reference for ``sdc.assess.assess_all`` and
    its ``gate_counts``."""
    cfg = cfg or AssessConfig()
    min_cov = max(1, min_coverage_for(cfg.c_thres, cfg.z))
    counts = dict.fromkeys(("total", "evaluated", "pruned_skips", "failed_coverage",
                            "passed_coverage", "passed_effect", "passed_significance",
                            "passed_confidence"), 0)
    dists_of: dict[str, list[list[float]]] = {}
    kept = []
    for cand in candidates:
        counts["total"] += 1
        counts["evaluated"] += 1
        if cand.fn_id not in dists_of:
            fn = registry.get(cand.fn_id)
            dists_of[cand.fn_id] = [column_distances(fn, col).tolist() for col in corpus]
        table = build_contingency(cand, corpus, registry, dists_of[cand.fn_id])
        if table.coverage < min_cov:
            counts["failed_coverage"] += 1
            continue
        counts["passed_coverage"] += 1
        if table.not_coverage == 0 or not table.rho < table.rho_bar:
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
        kept.append(AssessedSdc(cand.id, cand.fn_id, cand.d_in, cand.d_out, cand.m, conf,
                                table, h, p))
    kept.sort(key=lambda a: a.id)
    return kept, counts


def detection_set(sdc: Sdc, synth: Sequence[SynthColumn], registry: Registry) -> set[str]:
    """Ids of synthetic columns whose pre-condition holds and whose
    injected value specifically is flagged by the post-condition. The
    reference for ``sdc.synth.build_candidate_stats``."""
    fn = registry.get(sdc.fn_id)
    out: set[str] = set()
    for sc in synth:
        dists = column_distances(fn, sc.column())
        inside = int(np.count_nonzero(dists <= sdc.d_in))
        if inside < sdc.m * len(dists):
            continue
        if dists[sc.injected_index] > sdc.d_out:
            out.add(sc.id)
    return out


def candidate_stats_loop(
    assessed: Sequence[AssessedSdc],
    synth: Sequence[SynthColumn],
    corpus_size: int,
    registry: Registry,
) -> list[CandidateStats]:
    """One ``CandidateStats`` per surviving candidate, in input order,
    each from its cell-by-cell detection set."""
    position = {sc.id: j for j, sc in enumerate(synth)}
    return [
        CandidateStats(
            sdc_id=a.id,
            detected=frozenset(position[sid] for sid in detection_set(a, synth, registry)),
            fpr=a.table.covered_triggered / corpus_size,
            confidence=a.confidence,
        )
        for a in assessed
    ]


def detection_classes(stats: Sequence[CandidateStats]) -> list[CandidateStats]:
    """Per-survivor stats grouped by (detected, FPR, confidence). Each
    class keeps its last member's id and counts its members; stats that
    detect nothing are dropped; classes come in the order of their last
    members. With ``candidate_stats_loop``, the reference for
    ``sdc.synth.build_candidate_stats``."""
    last: dict[tuple, int] = {}
    count: Counter = Counter()
    for i, st in enumerate(stats):
        if st.detected:
            key = (st.detected, st.fpr, st.confidence)
            last[key] = i
            count[key] += 1
    return [
        CandidateStats(stats[i].sdc_id, key[0], key[1], key[2], members=count[key])
        for key, i in sorted(last.items(), key=lambda kv: kv[1])
    ]


def detect_errors_naive(
    sdcs: Sequence[Sdc],
    column: Column,
    registry: Registry,
    min_confidence: float = 0.0,
    counts: Optional[Counter] = None,
) -> list[Detection]:
    """Evaluate every constraint separately, cell by cell: the reference
    for ``sdc.infer.detect_corpus`` on one column. Each flagged cell
    keeps its highest-confidence flagger (ties to the larger constraint
    id), flags below ``min_confidence`` are dropped, and the report is
    sorted by descending confidence, then index.
    ``counts["preconditions"]``, when ``counts`` is given, grows by one
    per pre-condition evaluated."""
    n = len(column)
    flaggers: dict[int, list[tuple[float, str, float, str]]] = {}
    for sdc in sdcs:
        fn = registry.get(sdc.fn_id)
        dists = column_distances(fn, column)
        if counts is not None:
            counts["preconditions"] += 1
        inside = int(np.count_nonzero(dists <= sdc.d_in))
        if inside < sdc.m * n:
            continue
        conf = sdc.confidence if sdc.confidence is not None else 0.0
        for idx in np.nonzero(dists > sdc.d_out)[0]:
            idx = int(idx)
            flaggers.setdefault(idx, []).append(
                (
                    conf,
                    sdc.id,
                    float(dists[idx]),
                    _explanation(sdc, fn.describe(), column.values[idx], float(dists[idx])),
                )
            )
    out = []
    for idx, hits in flaggers.items():
        conf, sdc_id, _, expl = max(hits, key=lambda h: (h[0], h[1]))
        if conf >= min_confidence:
            out.append(Detection(column.id, idx, column.values[idx], conf, sdc_id, expl))
    return sorted(out, key=lambda d: (-d.confidence, d.value_index))


# ---------------------------------------------------------------------------
# Scoring


def zscore_baseline(fn: DomainEvalFn, column: Column) -> list[Detection]:
    """Flag the values whose distance z-score within the column is
    positive, with the z-score as confidence, sorted by descending
    confidence, then index. Infinite distances count as ``_FINITE_CAP``;
    a zero-variance column flags nothing."""
    if len(column) < 2:
        raise ValueError("z-score baseline needs at least 2 values")
    dists = column_distances(fn, column)
    dists[~np.isfinite(dists)] = _FINITE_CAP
    mean = float(dists.mean())
    std = float(dists.std())
    if std == 0.0:
        return []
    z = (dists - mean) / std
    found = [
        Detection(
            column_id=column.id,
            value_index=idx,
            value=column.values[idx],
            confidence=float(z[idx]),
            sdc_id=f"zscore:{fn.id}",
            explanation=f"distance z-score {z[idx]:.3f} under {fn.describe()}",
        )
        for idx in np.nonzero(z > 0.0)[0].tolist()
    ]
    return sorted(found, key=lambda d: (-d.confidence, d.value_index))


def zscore_report(fn: DomainEvalFn, corpus: Iterable[Column]) -> list[Detection]:
    """The z-score baseline's report over every column of at least two
    values: with ``pr_curve_loop`` and ``pr_auc_loop``, the reference for
    ``sdc.evaluation.best_zscore_baseline``."""
    return [d for col in corpus if len(col) >= 2 for d in zscore_baseline(fn, col)]


def pr_curve_loop(report: Sequence[Detection], truth: GroundTruth) -> list[PrPoint]:
    """The reference for ``sdc.evaluation.pr_curve``: each cell keeps its
    highest confidence, then the cells are walked in descending
    confidence and a point is emitted per tie group."""
    best: dict[tuple[str, int], float] = {}
    for det in report:
        key = (det.column_id, det.value_index)
        if key not in best or det.confidence > best[key]:
            best[key] = det.confidence
    cells = [(cid, idx, conf) for (cid, idx), conf in best.items()]
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


def pr_auc_loop(points: Sequence[PrPoint]) -> float:
    """The reference for ``sdc.evaluation.pr_auc``: the trapezoids over
    the points in ascending recall, from (0, the first precision), summed
    one by one."""
    if not points:
        return 0.0
    pts = sorted(points, key=lambda p: p.recall)
    area = 0.0
    prev_r, prev_p = 0.0, pts[0].precision
    for p in pts:
        area += (p.recall - prev_r) * (p.precision + prev_p) / 2.0
        prev_r, prev_p = p.recall, p.precision
    return area


def load_report(path: str) -> list[Detection]:
    """A report as ``sdc.infer.save_report`` wrote it, meta line skipped."""
    out: list[Detection] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"{path} line {lineno}: invalid JSON") from exc
            if isinstance(rec, dict) and rec.get("kind") == "report-meta":
                continue
            try:
                out.append(Detection.from_record(rec))
            except (KeyError, TypeError, ValueError) as exc:
                raise DataFormatError(f"{path} line {lineno}: bad record ({exc})") from exc
    return out


# ---------------------------------------------------------------------------
# Selection


def _problem(stats, synth_ids, cover, cfg) -> IlpProblem:
    """An ``IlpProblem`` from cover sets given as frozensets."""
    rows = [j for j, k in enumerate(cover) for _ in k]
    members = [i for k in cover for i in sorted(k)]
    return IlpProblem(
        candidate_ids=[st.sdc_id for st in stats],
        synth_ids=list(synth_ids),
        cover_rows=np.array(rows, dtype=np.intp),
        cover_members=np.array(members, dtype=np.intp),
        fprs=[st.fpr for st in stats],
        b_size=cfg.b_size,
        b_fpr=cfg.b_fpr,
    )


def build_css_ilp(
    stats: Sequence[CandidateStats], cfg: SelectionConfig, synth_ids: Sequence[str]
) -> IlpProblem:
    cover = [
        frozenset(i for i, st in enumerate(stats) if j in st.detected)
        for j in range(len(synth_ids))
    ]
    return _problem(stats, synth_ids, cover, cfg)


def conf_over_all(stats: Sequence[CandidateStats], synth_ids: Sequence[str]) -> dict[int, float]:
    """Best confidence on each synthetic column, by position; 0 when no
    candidate detects it."""
    best = {j: 0.0 for j in range(len(synth_ids))}
    for st in stats:
        for j in st.detected:
            if j in best and st.confidence > best[j]:
                best[j] = st.confidence
    return best


def build_fss_ilp(
    stats: Sequence[CandidateStats],
    all_confidences: dict[int, float],
    cfg: SelectionConfig,
    synth_ids: Sequence[str],
) -> IlpProblem:
    cover = []
    for j in range(len(synth_ids)):
        floor = all_confidences.get(j, 0.0) - cfg.delta
        cover.append(
            frozenset(
                i
                for i, st in enumerate(stats)
                if j in st.detected and st.confidence >= floor
            )
        )
    return _problem(stats, synth_ids, cover, cfg)


def lp_matrix(problem: IlpProblem):
    """A_ub of the LP relaxation as a CSR matrix: row 0 the size
    budget, row 1 the FPR budget, row 2 + j the cover constraint
    y_j - sum_{i in K_j} x_i <= 0."""
    import scipy.sparse as sp

    n = len(problem.candidate_ids)
    m = len(problem.synth_ids)
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for i in range(n):
        rows.append(0)
        cols.append(i)
        vals.append(1.0)
    for i in range(n):
        if problem.fprs[i] != 0.0:
            rows.append(1)
            cols.append(i)
            vals.append(problem.fprs[i])
    for j, k in enumerate(problem.cover_sets):
        r = 2 + j
        rows.append(r)
        cols.append(n + j)
        vals.append(1.0)
        for i in sorted(k):
            rows.append(r)
            cols.append(i)
            vals.append(-1.0)
    return sp.csr_matrix((vals, (rows, cols)), shape=(2 + m, n + m))


def coverage_objective(problem: IlpProblem, selected_ids: set[str]) -> int:
    idx = {cid: i for i, cid in enumerate(problem.candidate_ids)}
    chosen = {idx[c] for c in selected_ids if c in idx}
    return sum(1 for k in problem.cover_sets if k & chosen)


def enforce_budgets(problem: IlpProblem, selected: set[str]) -> set[str]:
    idx = {cid: i for i, cid in enumerate(problem.candidate_ids)}
    current = set(selected)

    def over() -> bool:
        # Exactly rounded, so the comparison does not depend on set order.
        fpr = math.fsum(problem.fprs[idx[c]] for c in current)
        return len(current) > problem.b_size or fpr > problem.b_fpr + 1e-12

    while current and over():
        chosen = {idx[c] for c in current}
        gains = {}
        for cid in current:
            i = idx[cid]
            gain = sum(
                1 for k in problem.cover_sets if i in k and not (k & (chosen - {i}))
            )
            gains[cid] = gain
        drop = min(current, key=lambda cid: (gains[cid], -problem.fprs[idx[cid]], cid))
        current.remove(drop)
    return current


def brute_force_ilp(problem: IlpProblem) -> tuple[int, frozenset[str]]:
    """Exact optimum by subset enumeration (at most 20 candidates). Ties
    break lexicographically on the sorted candidate-id tuple."""
    n = len(problem.candidate_ids)
    if n > 20:
        raise ValueError(f"brute force limited to 20 candidates, got {n}")
    masks = []
    for i in range(n):
        mask = 0
        for j, k in enumerate(problem.cover_sets):
            if i in k:
                mask |= 1 << j
        masks.append(mask)
    fprs = problem.fprs
    best_key: Optional[tuple[int, tuple[str, ...]]] = None
    for size in range(0, min(n, problem.b_size) + 1):
        for combo in combinations(range(n), size):
            fpr = sum(fprs[i] for i in combo)
            if fpr > problem.b_fpr + 1e-12:
                continue
            mask = 0
            for i in combo:
                mask |= masks[i]
            obj = bin(mask).count("1")
            ids = tuple(sorted(problem.candidate_ids[i] for i in combo))
            key = (-obj, ids)
            if best_key is None or key < best_key:
                best_key = key
    assert best_key is not None  # the empty set is always feasible
    return -best_key[0], frozenset(best_key[1])


def conf_of_column(position: int, selected_ids: set[str], stats: Sequence[CandidateStats]) -> float:
    """Best confidence among selected candidates detecting the column at
    ``position``; 0 when none does."""
    best = 0.0
    for st in stats:
        if st.sdc_id in selected_ids and position in st.detected and st.confidence > best:
            best = st.confidence
    return best


def recall_of(selected: Sequence[CandidateStats]) -> int:
    """Absolute recall of a constraint set: the number of synthetic
    columns detected by at least one member."""
    seen: set[int] = set()
    for st in selected:
        seen |= st.detected
    return len(seen)
