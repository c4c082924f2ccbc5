"""Shared fixtures: a tiny hand-checkable embedding space and corpora,
and a count of pre-condition evaluations."""

from collections import Counter

import numpy as np
import pytest

from sdc.assess import ContingencyTable
from sdc.corpus import Column, Corpus
from sdc.domain_fns import (
    EmbeddingSpace,
    Registry,
    ValueIndex,
    make_embedding_fn,
    make_score_table_fn,
)


@pytest.fixture
def space2d() -> EmbeddingSpace:
    """Two clusters at integer coordinates so distances are exact."""
    vectors = {
        "red": np.array([0.0, 0.0]),
        "crimson": np.array([0.0, 1.0]),
        "scarlet": np.array([1.0, 0.0]),
        "blue": np.array([10.0, 0.0]),
        "navy": np.array([10.0, 1.0]),
        "azure": np.array([11.0, 0.0]),
    }
    return EmbeddingSpace(dimension=2, vectors=vectors, id="toy2d")


@pytest.fixture
def word_corpus() -> Corpus:
    reds = ("red", "crimson", "scarlet")
    blues = ("blue", "navy", "azure")
    cols = []
    for i in range(6):
        vals = reds if i % 2 == 0 else blues
        cols.append(Column(id=f"c{i}", values=vals * 4))
    return Corpus(cols)


@pytest.fixture
def registry2d(space2d) -> Registry:
    reg = Registry()
    reg.add_space(space2d)
    reg.add(make_embedding_fn(space2d, "red"))
    reg.add(make_embedding_fn(space2d, "blue"))
    reg.add(make_score_table_fn("reds", {"red": 1.0, "crimson": 0.9, "scarlet": 0.8}))
    return reg


def table(a: int, b: int, c: int, d: int) -> ContingencyTable:
    return ContingencyTable(a, b, c, d)


@pytest.fixture
def precondition_counts(monkeypatch) -> Counter:
    """``counts["preconditions"]`` grows by the number of columns each
    time a ``covered(d_in, m)`` from ``ValueIndex.precondition``
    evaluates a pre-condition, for the rest of the test."""
    counts: Counter = Counter()
    original = ValueIndex.precondition

    def spy(self, dists, d_ins):
        covered = original(self, dists, d_ins)

        def counted(d_in, m):
            counts["preconditions"] += len(self)
            return covered(d_in, m)

        return counted

    monkeypatch.setattr(ValueIndex, "precondition", spy)
    return counts
