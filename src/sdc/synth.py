"""Distant supervision: synthetic error columns and detection-class stats.

Selection needs two quantities per surviving constraint: which errors
it would catch, and how often it fires on clean data. Both are
estimated without labels. A synthetic corpus is built by transplanting
one value from a donor column into a base column (the transplant is
almost always an error in its new context); a constraint "detects" a
synthetic column when its pre-condition holds there and it flags the
transplanted value itself. The false-positive rate is the fraction of
clean corpus columns the constraint both covers and triggers on.

Selection tells constraints apart by nothing else: which synthetic
columns they detect, their FPR and their confidence. Constraints equal
in all three form one detection class and are interchangeable in the
selection problem and in its LP relaxation, so selection sees one
member per class. Constraints that detect nothing are in no class.
Functions and pre-conditions on the synthetic columns are evaluated by
``ValueIndex.evaluate``, as in screening and detection.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .assess import AssessedSdc
from .corpus import Column, Corpus, splice_donor_value
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


@dataclass(frozen=True)
class CandidateStats:
    """Selection inputs for one detection class. ``sdc_id`` names the
    member that stands for the class, ``detected`` holds the positions,
    in the synthetic corpus, of the columns every member detects, and
    ``members`` counts the surviving candidates in the class."""

    sdc_id: str
    detected: frozenset[int]
    fpr: float
    confidence: float
    members: int = 1


def build_synthetic_corpus(
    corpus: Corpus, n: Optional[int] = None, seed: int = 0
) -> list[SynthColumn]:
    """Build ``n`` synthetic columns (default: one per corpus column).

    Base column, donor column, donor value and insertion position are
    drawn uniformly; the draw is skipped when ``splice_donor_value`` finds
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
        spliced = splice_donor_value(cols, base, rng)
        if spliced is None:
            continue
        injected, pos, values = spliced
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
    """One ``CandidateStats`` per detection class of the surviving
    candidates. A class is represented by its member with the largest
    input index (the greedy cover breaks ties toward larger indices),
    and classes come in the input order of their representatives.

    ``ValueIndex.evaluate`` evaluates each function once over an index
    of the synthetic columns, with its candidates' pre-conditions. A
    candidate hits a column where its pre-condition holds and the
    transplanted value lies beyond ``d_out``; its row of hits packed to
    bytes, with its FPR and confidence, is the class key."""
    index = ValueIndex(sc.column() for sc in synth)
    injected_cells = index.offsets[:-1] + np.asarray(
        [sc.injected_index for sc in synth], dtype=np.intp
    )
    # Class key -> [representative index, members, detected positions].
    classes: dict[tuple[bytes, float, float], list] = {}
    for _, pos, dists, holds, d_out in index.evaluate(registry, assessed):
        hit = holds & (dists[injected_cells] > d_out)
        packed = np.packbits(hit, axis=1)
        for r in np.flatnonzero(hit.any(axis=1)).tolist():
            i = int(pos[r])
            item = assessed[i]
            key = (packed[r].tobytes(), estimate_fpr(item.table, corpus_size), item.confidence)
            cls = classes.get(key)
            if cls is None:
                classes[key] = [i, 1, frozenset(np.flatnonzero(hit[r]).tolist())]
            else:
                cls[0] = max(cls[0], i)
                cls[1] += 1
    return [
        CandidateStats(sdc_id=assessed[rep].id, detected=detected, fpr=fpr,
                       confidence=conf, members=members)
        for (_, fpr, conf), (rep, members, detected)
        in sorted(classes.items(), key=lambda kv: kv[1][0])
    ]
