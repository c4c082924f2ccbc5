"""Budgeted constraint selection.

From the surviving candidates we pick a subset maximizing the number
of synthetic errors detected, subject to a size budget and a summed
false-positive-rate budget. The integer program is relaxed to an LP,
solved exactly, and rounded with one independent Bernoulli draw per
candidate (budgets then hold in expectation and the expected objective
is within (1 - 1/e) of optimal).

The candidates come as detection classes (see ``sdc.synth``), one
representative each. Members of a class are interchangeable, so the
optimum, the LP bound and the rounding guarantee are those of the
problem over every survivor.

The LP objective can be no larger than the number of coverable
synthetic columns, so a 0/1 cover of all of them that fits both budgets
is an optimal LP solution. A greedy cover is tried first; scipy's HiGHS
solver is loaded and run only when that cover does not fit: when a
budget binds, or when the greedy cover is larger than it need be.

Two flavors differ only in which candidates count as covering a
synthetic column: the coarse problem accepts every detector, with no
confidence floor; the fine problem only detectors whose confidence is
within ``delta`` of the best confidence any candidate achieves on that
column.

The class × synthetic column incidence has one form from the class
stats to the LP: entry arrays, one (column j, class i) entry per
detection, sorted by (column, class). Each class's ``detected`` set
holds its column positions; one pass over those sets builds the
arrays, and the LP's constraint matrix, the coverage count and budget
enforcement all read them.

Rounding and budget enforcement work on class indices: both yield a
bool mask over the classes, and ids are read off it only for the
outcome's ``selected_ids``. ``sum_fpr`` is the exactly rounded sum
(``math.fsum``) of the chosen FPRs, so it does not depend on any
iteration order.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .candidates import Sdc, constraint_fields
from .corpus import read_json, write_json
from .domain_fns import Registry
from .errors import DataFormatError, SdcError, json_flag, json_int, json_number
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
        if not self.b_fpr >= 0:
            raise ValueError("b_fpr must be >= 0")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")
        if self.strategy not in ("fine", "coarse"):
            raise ValueError("strategy must be 'fine' or 'coarse'")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "SelectionConfig":
        return cls(
            b_size=json_int(data, "b_size", 500),
            b_fpr=json_number(data, "b_fpr", 0.1),
            delta=json_number(data, "delta", 1e-3),
            strategy=str(data.get("strategy", "fine")),
            enforce_budgets=json_flag(data, "enforce_budgets", False),
        )


@dataclass(eq=False)
class IlpProblem:
    """max sum(y_j) s.t. sum(x_i) <= b_size, sum(fpr_i x_i) <= b_fpr,
    sum_{i in K_j} x_i >= y_j, all variables binary. ``cover_rows`` and
    ``cover_members`` are the entries of the cover sets: one (row j,
    candidate index i) pair per member i of K_j, sorted by (row,
    candidate)."""

    candidate_ids: list[str]
    synth_ids: list[str]
    cover_rows: np.ndarray
    cover_members: np.ndarray
    fprs: list[float]
    b_size: int
    b_fpr: float

    def __post_init__(self) -> None:
        members, rows = self.cover_members, self.cover_rows
        if np.any((members < 0) | (members >= len(self.candidate_ids))):
            raise ValueError("cover sets reference an invalid candidate index")
        if np.any((rows < 0) | (rows >= len(self.synth_ids))):
            raise ValueError("cover sets reference an invalid row")

    @property
    def cover_sets(self) -> list[frozenset[int]]:
        """K_j as a frozenset of candidate indices, one per row, built
        from the entry arrays on each call."""
        bounds = np.searchsorted(self.cover_rows, np.arange(len(self.synth_ids) + 1)).tolist()
        members = self.cover_members.tolist()
        return [frozenset(members[a:b]) for a, b in zip(bounds, bounds[1:])]


@dataclass
class LpSolution:
    """The relaxation's optimum; ``method`` names the solver that found
    it: ``"cover"`` (the greedy certificate) or ``"highs"``."""

    x: np.ndarray
    objective: float
    method: str = "highs"


def build_ilp(
    stats: Sequence[CandidateStats], cfg: SelectionConfig, synth_ids: Sequence[str]
) -> IlpProblem:
    """The selection problem over the synthetic columns ``synth_ids``;
    each candidate's ``detected`` holds positions in that list. With
    strategy ``coarse``, K_j holds every candidate that detects column
    j; with ``fine``, only those whose confidence is within ``delta`` of
    the best confidence any candidate achieves on column j."""
    m = len(synth_ids)
    sizes = np.fromiter((len(st.detected) for st in stats), dtype=np.intp, count=len(stats))
    col = np.fromiter(chain.from_iterable(st.detected for st in stats), dtype=np.intp,
                      count=int(sizes.sum()))
    if np.any((col < 0) | (col >= m)):
        raise ValueError(f"a detected position lies outside the {m} synthetic columns")
    cand = np.repeat(np.arange(len(stats), dtype=np.intp), sizes)
    if cfg.strategy == "fine":
        conf = np.array([st.confidence for st in stats], dtype=np.float64)[cand]
        best = np.zeros(m, dtype=np.float64)
        np.maximum.at(best, col, conf)
        keep = conf >= (best - cfg.delta)[col]
        cand, col = cand[keep], col[keep]
    # Candidates come in index order, so a stable sort by column leaves
    # each column's candidates ascending.
    order = np.argsort(col, kind="stable")
    return IlpProblem(
        candidate_ids=[st.sdc_id for st in stats],
        synth_ids=list(synth_ids),
        cover_rows=col[order],
        cover_members=cand[order],
        fprs=[st.fpr for st in stats],
        b_size=cfg.b_size,
        b_fpr=cfg.b_fpr,
    )


def _lp_matrix(problem: IlpProblem):
    """A_ub of the LP relaxation over x_0..x_{n-1}, y_0..y_{m-1}: row 0
    is sum x_i <= b_size, row 1 sum fpr_i x_i <= b_fpr (zero FPRs
    left out), row 2 + j is y_j - sum_{i in K_j} x_i <= 0."""
    import scipy.sparse as sp

    n = len(problem.candidate_ids)
    m = len(problem.synth_ids)
    fprs = np.asarray(problem.fprs, dtype=np.float64)
    priced = np.flatnonzero(fprs != 0.0)
    cover_rows, members = problem.cover_rows, problem.cover_members
    y = np.arange(m, dtype=np.intp)
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


def _greedy_cover(problem: IlpProblem) -> Optional[np.ndarray]:
    """Candidate indices of a cover of every coverable row that fits
    both budgets, or None. Each step picks the candidate covering the
    most still-uncovered rows, ties to the larger index, and drops the
    entries of the rows it covered."""
    n, m = len(problem.candidate_ids), len(problem.synth_ids)
    rows, members = problem.cover_rows, problem.cover_members
    picks: list[int] = []
    while rows.size:
        if len(picks) == problem.b_size:
            return None
        gains = np.bincount(members, minlength=n)
        best = n - 1 - int(np.argmax(gains[::-1]))
        picks.append(best)
        covered = np.zeros(m, dtype=bool)
        covered[rows[members == best]] = True
        live = ~covered[rows]
        rows, members = rows[live], members[live]
    if math.fsum(problem.fprs[i] for i in picks) > problem.b_fpr:
        return None
    return np.array(picks, dtype=np.intp)


def solve_lp_relaxation(problem: IlpProblem) -> LpSolution:
    """Solve the LP relaxation (variables in [0,1]) exactly.

    The objective is at most |R|, the number of rows with a nonempty
    cover set. A 0/1 x that covers all of R and satisfies both budgets
    is feasible and reaches that bound, so it is optimal: such a greedy
    cover is returned when one fits. Otherwise HiGHS solves the LP;
    only then is scipy loaded.
    """
    picks = _greedy_cover(problem)
    if picks is None:
        return _solve_highs(problem)
    x = np.zeros(len(problem.candidate_ids), dtype=np.float64)
    x[picks] = 1.0
    objective = float(np.count_nonzero(np.bincount(problem.cover_rows)))
    return LpSolution(x=x, objective=objective, method="cover")


def _solve_highs(problem: IlpProblem) -> LpSolution:
    """The LP relaxation by HiGHS. Always feasible: the zero vector
    satisfies both budgets."""
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


def randomized_round(solution: LpSolution, seed: int) -> np.ndarray:
    """A mask over the candidates: one independent Bernoulli draw per
    candidate, in index order, with success probability x_i; fully
    determined by (solution, seed). No repair pass: budget guarantees
    hold in expectation."""
    rng = random.Random(seed)
    return np.array([rng.random() for _ in range(len(solution.x))]) < solution.x


def coverage_objective(problem: IlpProblem, chosen: np.ndarray) -> int:
    """Number of synthetic columns covered by the candidates ``chosen``
    masks."""
    return int(np.count_nonzero(np.bincount(problem.cover_rows[chosen[problem.cover_members]])))


@dataclass
class SelectionOutcome:
    selected_ids: list[str]
    lp_objective: float
    sum_fpr: float
    problem: IlpProblem
    solution: LpSolution
    rounded_objective: int


def _enforce_budgets(problem: IlpProblem, chosen: np.ndarray) -> np.ndarray:
    """Drop lowest-marginal-gain members of the ``chosen`` mask until
    both budgets hold; ties drop the larger FPR, then the smaller id.
    This is an extension beyond the expectation guarantees of the
    rounding scheme, off by default."""
    n = len(problem.candidate_ids)
    fprs = np.asarray(problem.fprs, dtype=np.float64)
    id_rank = np.empty(n, dtype=np.intp)
    id_rank[sorted(range(n), key=problem.candidate_ids.__getitem__)] = np.arange(n)
    chosen = chosen.copy()
    live = chosen[problem.cover_members]
    rows, members = problem.cover_rows[live], problem.cover_members[live]
    # Selected members covering each synthetic column.
    count = np.bincount(rows, minlength=len(problem.synth_ids))
    while (picks := np.flatnonzero(chosen)).size and (
        picks.size > problem.b_size or math.fsum(fprs[picks]) > problem.b_fpr + 1e-12
    ):
        # Marginal gain: columns only this member covers.
        gains = np.bincount(members[count[rows] == 1], minlength=n)
        drop = picks[np.lexsort((id_rank[picks], -fprs[picks], gains[picks]))[0]]
        chosen[drop] = False
        gone = members == drop
        count -= np.bincount(rows[gone], minlength=len(count))
        rows, members = rows[~gone], members[~gone]
    return chosen


def run_selection(
    stats: Sequence[CandidateStats],
    cfg: SelectionConfig,
    synth_ids: Sequence[str],
) -> SelectionOutcome:
    """Build the configured problem, solve the relaxation, round."""
    problem = build_ilp(stats, cfg, synth_ids)
    solution = solve_lp_relaxation(problem)
    chosen = randomized_round(solution, cfg.seed)
    if cfg.enforce_budgets:
        chosen = _enforce_budgets(problem, chosen)
    picks = np.flatnonzero(chosen).tolist()
    return SelectionOutcome(
        selected_ids=sorted(problem.candidate_ids[i] for i in picks),
        lp_objective=solution.objective,
        sum_fpr=math.fsum(problem.fprs[i] for i in picks),
        problem=problem,
        solution=solution,
        rounded_objective=coverage_objective(problem, chosen),
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
    write_json(path, {
        "kind": "sdc-store",
        "version": STORE_VERSION,
        "config_hash": config_hash,
        "selection": selection or {},
        "registry": registry.to_manifest(fn_ids),
        "sdcs": [asdict(s) for s in sorted(sdcs, key=lambda s: s.id)],
    })


def read_store(path: str) -> tuple[list[Sdc], Registry]:
    """The constraints and the registry of a ``write_store`` file. The
    registry's recorded paths are read as ``Registry.from_manifest``
    reads them: a relative one from the current directory."""
    store = read_json(path, "store")
    if store.get("kind") != "sdc-store":
        raise DataFormatError(f"{path} is not a constraint store")
    registry = Registry.from_manifest(store.get("registry", {}), path)
    records = store.get("sdcs", [])
    if not isinstance(records, list) or not all(isinstance(rec, dict) for rec in records):
        raise DataFormatError(f"{path}: sdcs must be a list of objects")
    try:
        sdcs = [Sdc(*constraint_fields(rec)) for rec in records]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: bad constraint record ({exc})") from exc
    registry.require((s.fn_id for s in sdcs), path)
    return sdcs, registry
