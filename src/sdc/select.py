"""Budgeted constraint selection.

From the surviving candidates we pick a subset maximizing the number
of synthetic errors detected, subject to a size budget and a summed
false-positive-rate budget. The integer program is relaxed to an LP,
solved exactly, and rounded with one independent Bernoulli draw per
candidate (budgets then hold in expectation and the expected objective
is within (1 - 1/e) of optimal).

Two flavors differ only in which candidates count as covering a
synthetic column: the coarse problem accepts any detector, the fine
problem only detectors whose confidence is within ``delta`` of the
best confidence any candidate achieves on that column. ``delta = 1``
makes them identical.

Both problems, the LP's constraint matrix, the coverage count and
budget enforcement work from entry arrays of the candidate × synthetic
column incidence: two index arrays with one entry (candidate i,
column j) per detection, sorted by (column, candidate). One pass over
each candidate's ``detected`` set builds them; a cover set K_j is then
a slice of the candidate array, found with ``np.searchsorted``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Optional, Sequence

import numpy as np

from .candidates import Sdc
from .domain_fns import Registry
from .errors import DataFormatError, SdcError
from .synth import CandidateStats


@dataclass(frozen=True)
class SelectionConfig:
    b_size: int = 500
    b_fpr: float = 0.1
    delta: float = 1e-3
    strategy: str = "fine"
    seed: int = 0
    enforce_budgets: bool = False

    def __post_init__(self) -> None:
        if self.b_size < 0:
            raise ValueError("b_size must be >= 0")
        if self.b_fpr < 0:
            raise ValueError("b_fpr must be >= 0")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")
        if self.strategy not in ("fine", "coarse"):
            raise ValueError("strategy must be 'fine' or 'coarse'")

    def to_json(self) -> dict:
        return {
            "b_size": self.b_size,
            "b_fpr": self.b_fpr,
            "delta": self.delta,
            "strategy": self.strategy,
            "seed": self.seed,
            "enforce_budgets": self.enforce_budgets,
        }

    @classmethod
    def from_json(cls, data: dict) -> "SelectionConfig":
        return cls(
            b_size=int(data.get("b_size", 500)),
            b_fpr=float(data.get("b_fpr", 0.1)),
            delta=float(data.get("delta", 1e-3)),
            strategy=str(data.get("strategy", "fine")),
            seed=int(data.get("seed", 0)),
            enforce_budgets=bool(data.get("enforce_budgets", False)),
        )


@dataclass
class IlpProblem:
    """max sum(y_j) s.t. sum(x_i) <= b_size, sum(fpr_i x_i) <= b_fpr,
    sum_{i in K_j} x_i >= y_j, all variables binary. ``cover_sets[j]``
    is K_j as candidate indices."""

    candidate_ids: list[str]
    synth_ids: list[str]
    cover_sets: list[frozenset[int]]
    fprs: list[float]
    b_size: int
    b_fpr: float

    def __post_init__(self) -> None:
        n = len(self.candidate_ids)
        for j, k in enumerate(self.cover_sets):
            if any(i < 0 or i >= n for i in k):
                raise ValueError(f"cover set {j} references invalid candidate index")


@dataclass
class LpSolution:
    x: np.ndarray
    objective: float


def _universe(stats: Sequence[CandidateStats], synth_ids: Optional[Sequence[str]]) -> list[str]:
    if synth_ids is not None:
        return list(synth_ids)
    seen: set[str] = set()
    for st in stats:
        seen |= st.detected
    return sorted(seen)


def _detections(
    stats: Sequence[CandidateStats], ids: Sequence[str]
) -> tuple[dict[str, int], np.ndarray, np.ndarray]:
    """Entry arrays of the incidence between candidates and the distinct
    ids in ``ids``: the column index of each distinct id, then candidate
    and column index arrays with one entry per detection, sorted by
    (column, candidate). Detected ids outside ``ids`` are dropped."""
    col_of = {sid: j for j, sid in enumerate(dict.fromkeys(ids))}
    sizes = np.fromiter((len(st.detected) for st in stats), dtype=np.intp, count=len(stats))
    col = np.fromiter(
        chain.from_iterable(map(col_of.get, st.detected, repeat(-1)) for st in stats),
        dtype=np.intp,
        count=int(sizes.sum()),
    )
    cand = np.repeat(np.arange(len(stats), dtype=np.intp), sizes)
    known = col >= 0
    cand, col = cand[known], col[known]
    # Candidates come in index order, so a stable sort by column leaves
    # each column's candidates ascending.
    order = np.argsort(col, kind="stable")
    return col_of, cand[order], col[order]


def _cover_sets(
    ids: Sequence[str], col_of: dict[str, int], cand: np.ndarray, col: np.ndarray
) -> list[frozenset[int]]:
    """K_j for each listed id, from entry arrays sorted by column."""
    bounds = np.searchsorted(col, np.arange(len(col_of) + 1)).tolist()
    members = cand.tolist()
    per_col = [frozenset(members[a:b]) for a, b in zip(bounds, bounds[1:])]
    return [per_col[col_of[sid]] for sid in ids]


def _problem(
    stats: Sequence[CandidateStats],
    ids: list[str],
    cover: list[frozenset[int]],
    cfg: SelectionConfig,
) -> IlpProblem:
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
    """Coarse problem: K_j holds every candidate that detects column j."""
    ids = _universe(stats, synth_ids)
    return _problem(stats, ids, _cover_sets(ids, *_detections(stats, ids)), cfg)


def build_fss_ilp(
    stats: Sequence[CandidateStats],
    cfg: SelectionConfig,
    synth_ids: Optional[Sequence[str]] = None,
) -> IlpProblem:
    """Fine problem: K_j keeps only detectors within ``delta`` of the
    best confidence any candidate achieves on column j. With delta = 1
    this is the coarse problem (confidences live in [0, 1])."""
    ids = _universe(stats, synth_ids)
    col_of, cand, col = _detections(stats, ids)
    conf = np.array([st.confidence for st in stats], dtype=np.float64)[cand]
    best = np.zeros(len(col_of), dtype=np.float64)
    np.maximum.at(best, col, conf)
    keep = conf >= (best - cfg.delta)[col]
    return _problem(stats, ids, _cover_sets(ids, col_of, cand[keep], col[keep]), cfg)


def _cover_entries(problem: IlpProblem) -> tuple[np.ndarray, np.ndarray]:
    """Row and candidate index arrays of the cover sets, one entry per
    member of each K_j, sorted by (row, candidate)."""
    sizes = np.fromiter(map(len, problem.cover_sets), dtype=np.intp,
                        count=len(problem.cover_sets))
    rows = np.repeat(np.arange(len(sizes), dtype=np.intp), sizes)
    members = np.fromiter(chain.from_iterable(problem.cover_sets), dtype=np.intp,
                          count=int(sizes.sum()))
    order = np.lexsort((members, rows))
    return rows[order], members[order]


def _lp_matrix(problem: IlpProblem):
    """A_ub of the LP relaxation over x_0..x_{n-1}, y_0..y_{m-1}: row 0
    is sum x_i <= b_size, row 1 sum fpr_i x_i <= b_fpr (zero FPRs
    left out), row 2 + j is y_j - sum_{i in K_j} x_i <= 0."""
    import scipy.sparse as sp

    n = len(problem.candidate_ids)
    m = len(problem.synth_ids)
    fprs = np.asarray(problem.fprs, dtype=np.float64)
    priced = np.flatnonzero(fprs != 0.0)
    cover_rows, members = _cover_entries(problem)
    y = np.arange(len(problem.cover_sets), dtype=np.intp)
    # A stable sort by row lists y_j first in cover row j, then its
    # members ascending.
    block_rows = np.concatenate([y, cover_rows])
    order = np.argsort(block_rows, kind="stable")
    block_cols = np.concatenate([n + y, members])[order]
    block_vals = np.concatenate([np.ones(len(y)), -np.ones(len(members))])[order]
    rows = np.concatenate([
        np.zeros(n, dtype=np.intp), np.ones(len(priced), dtype=np.intp), 2 + block_rows[order]
    ])
    cols = np.concatenate([np.arange(n, dtype=np.intp), priced, block_cols])
    vals = np.concatenate([np.ones(n), fprs[priced], block_vals])
    return sp.csr_matrix((vals, (rows, cols)), shape=(2 + m, n + m))


def solve_lp_relaxation(problem: IlpProblem) -> LpSolution:
    """Solve the LP relaxation (variables in [0,1]) exactly.

    Always feasible: the zero vector satisfies both budgets.
    """
    # Imported here: scipy dominates start-up, and only selection solves LPs.
    from scipy.optimize import linprog

    n = len(problem.candidate_ids)
    m = len(problem.synth_ids)
    if n == 0 or m == 0:
        return LpSolution(x=np.zeros(n, dtype=np.float64), objective=0.0)
    # Variables: x_0..x_{n-1}, y_0..y_{m-1}; minimize -sum(y).
    c = np.concatenate([np.zeros(n), -np.ones(m)])
    a_ub = _lp_matrix(problem)
    b_ub = np.concatenate([[float(problem.b_size), problem.b_fpr], np.zeros(m)])
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(0.0, 1.0)] * (n + m),
        method="highs",
    )
    if not res.success:
        raise SdcError(f"LP solver failed: {res.message}")
    x = np.clip(res.x[:n], 0.0, 1.0)
    return LpSolution(x=x, objective=float(-res.fun))


def randomized_round(solution: LpSolution, problem: IlpProblem, seed: int) -> set[str]:
    """One independent Bernoulli draw per candidate with success
    probability x_i; fully determined by (solution, seed). No repair
    pass: budget guarantees hold in expectation."""
    rng = random.Random(seed)
    picked: set[str] = set()
    for i, cid in enumerate(problem.candidate_ids):
        if rng.random() < solution.x[i]:
            picked.add(cid)
    return picked


def coverage_objective(problem: IlpProblem, selected_ids: set[str]) -> int:
    """Number of synthetic columns covered by the selected candidates."""
    idx = {cid: i for i, cid in enumerate(problem.candidate_ids)}
    chosen = np.zeros(len(problem.candidate_ids), dtype=bool)
    chosen[np.array([idx[c] for c in selected_ids if c in idx], dtype=np.intp)] = True
    rows, members = _cover_entries(problem)
    return int(np.unique(rows[chosen[members]]).size)


@dataclass
class SelectionOutcome:
    selected_ids: list[str]
    lp_objective: float
    sum_fpr: float
    problem: IlpProblem
    solution: LpSolution
    rounded_objective: int


def _enforce_budgets(problem: IlpProblem, selected: set[str]) -> set[str]:
    """Drop lowest-marginal-gain members until both budgets hold. This
    is an extension beyond the expectation guarantees of the rounding
    scheme, off by default."""
    idx = {cid: i for i, cid in enumerate(problem.candidate_ids)}
    current = set(selected)
    n = len(problem.candidate_ids)
    picked = np.zeros(n, dtype=bool)
    picked[np.array([idx[c] for c in current], dtype=np.intp)] = True
    rows, members = _cover_entries(problem)
    live = picked[members]
    rows, members = rows[live], members[live]
    # Selected members covering each synthetic column.
    count = np.bincount(rows, minlength=len(problem.cover_sets))

    def over() -> bool:
        # Summed afresh in set order: a running total drifts in the last
        # bit and can flip the comparison with the budget.
        fpr = sum(problem.fprs[idx[c]] for c in current)
        return len(current) > problem.b_size or fpr > problem.b_fpr + 1e-12

    while current and over():
        # Marginal gain: columns only this member covers.
        gains = np.bincount(members[count[rows] == 1], minlength=n).tolist()
        drop = min(current, key=lambda cid: (gains[idx[cid]], -problem.fprs[idx[cid]], cid))
        current.remove(drop)
        gone = members == idx[drop]
        count -= np.bincount(rows[gone], minlength=len(count))
        rows, members = rows[~gone], members[~gone]
    return current


def run_selection(
    stats: Sequence[CandidateStats],
    cfg: SelectionConfig,
    synth_ids: Optional[Sequence[str]] = None,
) -> SelectionOutcome:
    """Build the configured problem, solve the relaxation, round."""
    if cfg.strategy == "fine":
        problem = build_fss_ilp(stats, cfg, synth_ids)
    else:
        problem = build_css_ilp(stats, cfg, synth_ids)
    solution = solve_lp_relaxation(problem)
    selected = randomized_round(solution, problem, cfg.seed)
    if cfg.enforce_budgets:
        selected = _enforce_budgets(problem, selected)
    idx = {cid: i for i, cid in enumerate(problem.candidate_ids)}
    sum_fpr = sum(problem.fprs[idx[c]] for c in selected)
    return SelectionOutcome(
        selected_ids=sorted(selected),
        lp_objective=solution.objective,
        sum_fpr=sum_fpr,
        problem=problem,
        solution=solution,
        rounded_objective=coverage_objective(problem, selected),
    )


# ---------------------------------------------------------------------------
# Ruleset store


STORE_VERSION = 1


def write_store(
    path: str,
    sdcs: Sequence[Sdc],
    registry: Registry,
    selection: Optional[dict] = None,
    config_hash: Optional[str] = None,
) -> None:
    """Serialize a selected ruleset with everything inference needs:
    the constraints, the definitions of the functions they reference,
    and provenance (selection settings, config hash)."""
    fn_ids = sorted({s.fn_id for s in sdcs})
    store = {
        "kind": "sdc-store",
        "version": STORE_VERSION,
        "config_hash": config_hash,
        "selection": selection or {},
        "registry": registry.to_manifest(fn_ids),
        "sdcs": [
            {
                "id": s.id,
                "fn_id": s.fn_id,
                "d_in": s.d_in,
                "d_out": s.d_out,
                "m": s.m,
                "confidence": s.confidence,
            }
            for s in sorted(sdcs, key=lambda s: s.id)
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(store, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_store(path: str, base_dir: str = "") -> tuple[list[Sdc], Registry]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            store = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"cannot read store {path}: {exc}") from exc
    if not isinstance(store, dict) or store.get("kind") != "sdc-store":
        raise DataFormatError(f"{path} is not a constraint store")
    registry = Registry.from_manifest(store.get("registry", {}), base_dir)
    sdcs = []
    for rec in store.get("sdcs", []):
        try:
            sdcs.append(
                Sdc(
                    id=rec["id"],
                    fn_id=rec["fn_id"],
                    d_in=float(rec["d_in"]),
                    d_out=float(rec["d_out"]),
                    m=float(rec["m"]),
                    confidence=float(rec["confidence"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"{path}: bad constraint record ({exc})") from exc
    return sdcs, registry
