"""Loop references for selection's array code.

Each function is the plain-Python form of its namesake in
``sdc.select``: cover sets by a membership test per (column,
candidate), the LP constraint matrix entry by entry, and budget
enforcement that recomputes every marginal gain from the cover sets.
Tests require the library to return exactly what these return.
"""

from __future__ import annotations

from typing import Optional, Sequence

from sdc.select import IlpProblem, SelectionConfig
from sdc.synth import CandidateStats


def _universe(stats: Sequence[CandidateStats], synth_ids: Optional[Sequence[str]]) -> list[str]:
    if synth_ids is not None:
        return list(synth_ids)
    seen: set[str] = set()
    for st in stats:
        seen |= st.detected
    return sorted(seen)


def _problem(stats, ids, cover, cfg) -> IlpProblem:
    return IlpProblem(
        candidate_ids=[st.sdc_id for st in stats],
        synth_ids=ids,
        cover_sets=cover,
        fprs=[st.fpr for st in stats],
        b_size=cfg.b_size,
        b_fpr=cfg.b_fpr,
    )


def build_css_ilp(
    stats: Sequence[CandidateStats],
    cfg: SelectionConfig,
    synth_ids: Optional[Sequence[str]] = None,
) -> IlpProblem:
    ids = _universe(stats, synth_ids)
    cover = [
        frozenset(i for i, st in enumerate(stats) if sid in st.detected) for sid in ids
    ]
    return _problem(stats, ids, cover, cfg)


def conf_over_all(
    stats: Sequence[CandidateStats], synth_ids: Optional[Sequence[str]] = None
) -> dict[str, float]:
    ids = _universe(stats, synth_ids)
    best = {sid: 0.0 for sid in ids}
    for st in stats:
        for sid in st.detected:
            if sid in best and st.confidence > best[sid]:
                best[sid] = st.confidence
    return best


def build_fss_ilp(
    stats: Sequence[CandidateStats],
    all_confidences: dict[str, float],
    cfg: SelectionConfig,
    synth_ids: Optional[Sequence[str]] = None,
) -> IlpProblem:
    ids = _universe(stats, synth_ids)
    cover = []
    for sid in ids:
        floor = all_confidences.get(sid, 0.0) - cfg.delta
        cover.append(
            frozenset(
                i
                for i, st in enumerate(stats)
                if sid in st.detected and st.confidence >= floor
            )
        )
    return _problem(stats, ids, cover, cfg)


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
