"""Reference implementations the tests compare the library against.

Each function is the plain form of a library computation, kept here
rather than in ``sdc`` because only tests call it:

- the date validator without its shape filter: all seven ``strptime``
  formats tried on every value;
- value interning by one list comprehension over every cell's
  normalized value;
- cell-by-cell checks of the pre- and post-condition, the contingency
  table, a candidate's synthetic detections and detection itself. They
  call ``fn.distance`` once per cell and never touch ``ValueIndex``,
  so they do not share the kernel they check;
- loop forms of selection's array code: cover sets by a membership test
  per (column, candidate), best confidences per column, the LP
  constraint matrix entry by entry, the coverage count, and budget
  enforcement that recomputes every marginal gain from the cover sets;
- the exact ILP optimum by subset enumeration, and small helpers
  (recall of a constraint set, best selected confidence on a column,
  a corpus from plain lists, a column looked up by id).

Where the library has a counterpart, tests require it to return
exactly what the reference returns.
"""

from __future__ import annotations

from collections import Counter
from datetime import datetime
from itertools import combinations
from typing import Iterable, Optional, Sequence

import numpy as np

from sdc.assess import ContingencyTable
from sdc.candidates import Sdc
from sdc.corpus import Column, Corpus
from sdc.domain_fns import _DATE_FORMATS, DomainEvalFn, Registry
from sdc.infer import Detection, _explanation, _finalize
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


# ---------------------------------------------------------------------------
# Corpora


def corpus_from_lists(values_by_id: dict[str, Iterable[str]]) -> Corpus:
    """A corpus with one column per id, in the dict's order."""
    return Corpus([Column(id=k, values=tuple(v)) for k, v in values_by_id.items()])


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


def build_contingency(sdc: Sdc, corpus: Corpus, registry: Registry) -> ContingencyTable:
    """Classify every corpus column by (covered, triggered). Triggering
    is evaluated on all columns, covered or not. The reference for
    ``sdc.assess.assess_all``."""
    fn = registry.get(sdc.fn_id)
    ct = ctbar = nt = ntbar = 0
    for col in corpus:
        dists = column_distances(fn, col)
        covered = int(np.count_nonzero(dists <= sdc.d_in)) >= sdc.m * len(col)
        triggered = bool(np.any(dists > sdc.d_out))
        if covered and triggered:
            ct += 1
        elif covered:
            ctbar += 1
        elif triggered:
            nt += 1
        else:
            ntbar += 1
    return ContingencyTable(ct, ctbar, nt, ntbar)


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


def detect_errors_naive(
    sdcs: Sequence[Sdc],
    column: Column,
    registry: Registry,
    min_confidence: float = 0.0,
    counts: Optional[Counter] = None,
) -> list[Detection]:
    """Evaluate every constraint separately, cell by cell: the reference
    for ``sdc.infer.detect_errors``. ``counts["preconditions"]``, when
    ``counts`` is given, grows by one per pre-condition evaluated."""
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
    return _finalize(column, flaggers, min_confidence)


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
        fpr = sum(problem.fprs[idx[c]] for c in current)
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
