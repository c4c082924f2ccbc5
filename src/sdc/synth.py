"""Distant supervision: synthetic error columns and per-candidate stats.

Selection needs two quantities per surviving constraint: which errors
it would catch, and how often it fires on clean data. Both are
estimated without labels. A synthetic corpus is built by transplanting
one value from a donor column into a base column (the transplant is
almost always an error in its new context); a constraint "detects" a
synthetic column when its pre-condition holds there and it flags the
transplanted value itself. The false-positive rate is the fraction of
clean corpus columns the constraint both covers and triggers on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .assess import AssessedSdc
from .corpus import Column, Corpus, draw_donor_value
from .domain_fns import Registry, ValueIndex
from .errors import DataFormatError


@dataclass(frozen=True)
class SynthColumn:
    """A corpus column with one foreign value spliced in."""

    id: str
    base_column_id: str
    injected_value: str
    injected_index: int
    values: tuple[str, ...]

    def column(self) -> Column:
        return Column(id=self.id, values=self.values)

    def base_values(self) -> tuple[str, ...]:
        """The original column values (splice removed)."""
        return self.values[: self.injected_index] + self.values[self.injected_index + 1 :]


@dataclass(frozen=True)
class CandidateStats:
    """Selection inputs for one candidate."""

    sdc_id: str
    detected: frozenset[str]
    fpr: float
    confidence: float


def build_synthetic_corpus(
    corpus: Corpus, n: Optional[int] = None, seed: int = 0
) -> list[SynthColumn]:
    """Build ``n`` synthetic columns (default: one per corpus column).

    Base column, donor column, donor value and insertion position are
    drawn uniformly; the draw is skipped when ``draw_donor_value`` finds
    no value absent from the base column.
    """
    if len(corpus) < 2:
        raise DataFormatError("synthetic corpus needs at least 2 columns")
    if n is None:
        n = len(corpus)
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = random.Random(seed)
    cols = list(corpus)
    out: list[SynthColumn] = []
    for k in range(n):
        base = cols[rng.randrange(len(cols))]
        injected = draw_donor_value(cols, base, rng)
        if injected is None:
            continue
        pos = rng.randrange(len(base.values) + 1)
        values = base.values[:pos] + (injected,) + base.values[pos:]
        out.append(
            SynthColumn(
                id=f"syn-{k:06d}",
                base_column_id=base.id,
                injected_value=injected,
                injected_index=pos,
                values=values,
            )
        )
    return out


def estimate_fpr(table, corpus_size: int) -> float:
    """Fraction of clean corpus columns the constraint covers and
    triggers on."""
    if corpus_size <= 0:
        raise ValueError("corpus_size must be positive")
    return table.covered_triggered / corpus_size


def build_candidate_stats(
    assessed: Sequence[AssessedSdc],
    synth: Sequence[SynthColumn],
    corpus_size: int,
    registry: Registry,
) -> list[CandidateStats]:
    """Detection sets and FPR estimates for every surviving candidate,
    in input order. Each function is evaluated once over an index of
    the synthetic columns."""
    index = ValueIndex(sc.column() for sc in synth)
    injected_cells = index.offsets[:-1] + np.asarray(
        [sc.injected_index for sc in synth], dtype=np.intp
    )
    by_fn: dict[str, list[int]] = {}
    for i, item in enumerate(assessed):
        by_fn.setdefault(item.sdc.fn_id, []).append(i)

    results: list[Optional[CandidateStats]] = [None] * len(assessed)
    for fn_id, idxs in sorted(by_fn.items()):
        dists = index.distances(registry.get(fn_id))
        injected_d = dists[injected_cells]
        covered = index.precondition(dists, (assessed[i].sdc.d_in for i in idxs))
        for i in idxs:
            item = assessed[i]
            hit = covered(item.sdc.d_in, item.sdc.m) & (injected_d > item.sdc.d_out)
            results[i] = CandidateStats(
                sdc_id=item.sdc.id,
                detected=frozenset(synth[j].id for j in np.nonzero(hit)[0]),
                fpr=estimate_fpr(item.table, corpus_size),
                confidence=item.confidence,
            )
    return [r for r in results if r is not None]
