"""Online detection: grouped evaluation vs the per-constraint loop."""

import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdc.corpus import Column, Corpus
from sdc.domain_fns import (
    EmbeddingSpace,
    Registry,
    ValueIndex,
    make_embedding_fn,
    make_score_table_fn,
)
from sdc.errors import DataFormatError
from sdc.infer import (
    Detection,
    compile_ruleset,
    detect_corpus,
    save_report,
)

from oracles import constraint, detect_errors_naive, load_report

TOKENS = ["red", "crimson", "scarlet", "blue", "navy", "azure", "zzz", "tt1"]


def build_registry():
    vectors = {
        "red": np.array([0.0, 0.0]),
        "crimson": np.array([0.0, 1.0]),
        "scarlet": np.array([1.0, 0.0]),
        "blue": np.array([10.0, 0.0]),
        "navy": np.array([10.0, 1.0]),
        "azure": np.array([11.0, 0.0]),
    }
    space = EmbeddingSpace(dimension=2, vectors=vectors, id="toy2d")
    reg = Registry()
    reg.add_space(space)
    reg.add(make_embedding_fn(space, "red"))
    reg.add(make_embedding_fn(space, "blue"))
    reg.add(make_score_table_fn("reds", {"red": 1.0, "crimson": 0.9, "scarlet": 0.8}))
    return reg


def sdc_pool():
    pool = []
    for fn_id in ("emb:toy2d:red", "emb:toy2d:blue"):
        for d_in in (0.5, 1.5, 2.0):
            for off in (0.5, 2.0, 9.0):
                for m in (0.6, 0.75, 1.0):
                    pool.append(constraint(fn_id, d_in, d_in + off, m))
    for d_in in (0.1, 0.25):
        for d_out in (0.5, 0.95):
            for m in (0.6, 0.75, 1.0):
                pool.append(constraint("score:reds", d_in, d_out, m))
    return pool


class TestCompileRuleset:
    def test_groups_partition_by_precondition(self):
        sdcs = [
            constraint("score:reds", 0.2, 0.5, 0.8, 0.9),
            constraint("score:reds", 0.2, 0.9, 0.8, 0.91),
            constraint("score:reds", 0.3, 0.5, 0.8, 0.92),
            constraint("emb:toy2d:red", 0.2, 0.5, 0.8, 0.93),
        ]
        ruleset = compile_ruleset(sdcs)
        assert len(ruleset) == 4
        groups = ruleset.precondition_groups
        assert groups[("score:reds", 0.2, 0.8)] == [0, 1]
        assert groups[("score:reds", 0.3, 0.8)] == [2]
        assert groups[("emb:toy2d:red", 0.2, 0.8)] == [3]
        assert sorted(i for g in groups.values() for i in g) == [0, 1, 2, 3]

    def test_empty(self):
        assert len(compile_ruleset([])) == 0


class TestDetectErrors:
    def test_flags_far_value(self):
        reg = build_registry()
        sdc = constraint("emb:toy2d:red", 1.5, 2.0, 0.75, 0.95)
        col = Column(id="c0", values=("red", "crimson", "Blue", "scarlet"))
        dets = detect_corpus(compile_ruleset([sdc]), [col], reg)
        assert len(dets) == 1
        d = dets[0]
        assert (d.column_id, d.value_index, d.value) == ("c0", 2, "Blue")
        assert d.confidence == 0.95
        assert d.sdc_id == sdc.id
        assert "'Blue'" in d.explanation and "> 2" in d.explanation

    def test_precondition_gate(self):
        reg = build_registry()
        sdc = constraint("emb:toy2d:red", 1.5, 2.0, 0.9, 0.95)
        # only 3/4 inside: 0.75 < 0.9, so nothing is flagged
        col = Column(id="c0", values=("red", "crimson", "blue", "scarlet"))
        assert detect_corpus(compile_ruleset([sdc]), [col], reg) == []

    def test_outer_boundary_not_flagged(self):
        reg = build_registry()
        # scarlet is at distance exactly 1.0 from the red centroid
        sdc = constraint("emb:toy2d:red", 1.0, 1.0, 0.5, 0.9)
        col = Column(id="c0", values=("red", "scarlet"))
        assert detect_corpus(compile_ruleset([sdc]), [col], reg) == []

    def test_min_confidence_filter(self):
        reg = build_registry()
        sdc = constraint("emb:toy2d:red", 1.5, 2.0, 0.5, 0.7)
        col = Column(id="c0", values=("red", "blue"))
        ruleset = compile_ruleset([sdc])
        assert len(detect_corpus(ruleset, [col], reg)) == 1
        assert detect_corpus(ruleset, [col], reg, min_confidence=0.8) == []

    def test_highest_confidence_wins(self):
        reg = build_registry()
        weak = constraint("emb:toy2d:red", 1.5, 2.0, 0.5, 0.88)
        strong = constraint("emb:toy2d:red", 1.5, 3.0, 0.5, 0.93)
        col = Column(id="c0", values=("red", "crimson", "blue"))
        dets = detect_corpus(compile_ruleset([weak, strong]), [col], reg)
        assert len(dets) == 1
        assert dets[0].confidence == 0.93
        assert dets[0].sdc_id == strong.id

    def test_equal_confidence_breaks_on_id(self):
        reg = build_registry()
        a = constraint("emb:toy2d:red", 1.5, 2.0, 0.5, 0.9)
        b = constraint("emb:toy2d:red", 1.5, 3.0, 0.5, 0.9)
        col = Column(id="c0", values=("red", "blue"))
        dets = detect_corpus(compile_ruleset([a, b]), [col], reg)
        assert dets[0].sdc_id == max(a.id, b.id)

    def test_sorted_by_confidence_then_index(self):
        reg = build_registry()
        red = constraint("emb:toy2d:red", 1.5, 2.0, 0.5, 0.92)
        reds = constraint("score:reds", 0.25, 0.5, 0.5, 0.85)
        # red embedding flags indices 1 and 3; the score table flags 3
        # only (zzz scores 0, blue also 0 -> both beyond 0.5; but blue
        # is flagged by the embedding at higher confidence too)
        col = Column(id="c0", values=("red", "blue", "crimson", "zzz"))
        dets = detect_corpus(compile_ruleset([red, reds]), [col], reg)
        assert [(d.value_index, d.confidence) for d in dets] == [
            (1, 0.92),
            (3, 0.92),
        ]

    def test_oov_distance_reported_as_inf(self):
        reg = build_registry()
        sdc = constraint("emb:toy2d:red", 1.5, 5.0, 0.75, 0.9)
        col = Column(id="c0", values=("red", "crimson", "scarlet", "mystery"))
        dets = detect_corpus(compile_ruleset([sdc]), [col], reg)
        assert len(dets) == 1
        assert dets[0].value == "mystery"
        assert "distance inf" in dets[0].explanation

    def test_single_value_column(self):
        reg = build_registry()
        sdc = constraint("emb:toy2d:red", 1.5, 2.0, 1.0, 0.9)
        ruleset = compile_ruleset([sdc])
        covered = Column(id="c0", values=("red",))
        uncovered = Column(id="c1", values=("blue",))
        assert detect_corpus(ruleset, [covered], reg) == []
        assert detect_corpus(ruleset, [uncovered], reg) == []


def random_case(seed):
    rng = random.Random(seed)
    pool = sdc_pool()
    k = rng.randint(1, 8)
    sdcs = [
        replace(s, confidence=round(rng.uniform(0.8, 0.99), 3))
        for s in rng.sample(pool, k)
    ]
    n = rng.randint(1, 12)
    col = Column(id="c0", values=tuple(rng.choice(TOKENS) for _ in range(n)))
    return sdcs, col


@st.composite
def corpus_case(draw):
    """A ruleset drawn from ``sdc_pool`` with repeats (duplicate
    constraints, possibly at different confidences), confidences that
    tie or are None, an empty ruleset now and then; several columns,
    one-value ones among them; and a ``min_confidence`` that
    can fall between two flaggers of one cell."""
    pool = sdc_pool()
    sdcs = [
        pool[k] if conf is None else replace(pool[k], confidence=conf)
        for k, conf in draw(st.lists(
            st.tuples(st.integers(0, len(pool) - 1), st.sampled_from([None, 0.8, 0.9, 0.95])),
            max_size=8,
        ))
    ]
    columns = [
        Column(id=f"c{j}", values=tuple(values))
        for j, values in enumerate(draw(st.lists(
            st.lists(st.sampled_from(TOKENS), min_size=1, max_size=8), min_size=1, max_size=5,
        )))
    ]
    return sdcs, columns, draw(st.sampled_from([0.0, 0.85, 0.9, 0.92, 1.0]))


RED_AT_TWO = constraint("emb:toy2d:red", 1.5, 2.0, 0.5)
RED_AT_THREE = constraint("emb:toy2d:red", 1.5, 3.0, 0.5)


class TestCompiledMatchesNaive:
    @given(corpus_case())
    @example(([], [Column("c0", ("red", "blue"))], 0.0))
    @example(([replace(RED_AT_TWO, confidence=0.8), replace(RED_AT_THREE, confidence=0.95)],
              [Column("c0", ("red", "blue")), Column("c1", ("zzz",)), Column("c2", ("red", "zzz"))],
              0.9))
    @example(([RED_AT_TWO, RED_AT_TWO, replace(RED_AT_THREE, confidence=0.9)],
              [Column("c0", ("red", "crimson", "navy")), Column("c1", ("navy",))], 0.0))
    @settings(max_examples=300, deadline=None)
    def test_corpus_matches_naive_column_by_column(self, case):
        sdcs, columns, min_conf = case
        reg = build_registry()
        got = detect_corpus(compile_ruleset(sdcs), columns, reg, min_conf)
        want = [d for col in columns for d in detect_errors_naive(sdcs, col, reg, min_conf)]
        assert got == want

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=200, deadline=None)
    def test_reports_identical(self, seed):
        reg = build_registry()
        sdcs, col = random_case(seed)
        compiled = detect_corpus(compile_ruleset(sdcs), [col], reg)
        naive = detect_errors_naive(sdcs, col, reg)
        assert compiled == naive

    def test_grouped_does_fewer_precondition_evals(self, precondition_counts):
        reg = build_registry()
        sdcs = [
            constraint("score:reds", 0.25, 0.5, 0.6, 0.9),
            constraint("score:reds", 0.25, 0.9, 0.6, 0.91),
            constraint("score:reds", 0.25, 0.95, 0.6, 0.92),
            constraint("emb:toy2d:red", 1.5, 2.0, 0.6, 0.93),
        ]
        col = Column(id="c0", values=("red", "crimson", "blue"))
        c_naive = Counter()
        a = detect_corpus(compile_ruleset(sdcs), [col], reg)
        b = detect_errors_naive(sdcs, col, reg, counts=c_naive)
        assert a == b
        assert c_naive["preconditions"] == 4
        assert precondition_counts["preconditions"] == 2
        assert precondition_counts["preconditions"] < c_naive["preconditions"]

    def test_same_evals_when_all_preconditions_differ(self, precondition_counts):
        reg = build_registry()
        sdcs = [
            constraint("score:reds", 0.1, 0.5, 0.6, 0.9),
            constraint("score:reds", 0.25, 0.5, 0.6, 0.9),
        ]
        col = Column(id="c0", values=("red", "blue"))
        detect_corpus(compile_ruleset(sdcs), [col], reg)
        assert precondition_counts["preconditions"] == 2


class TestDetectCorpus:
    def corpus(self):
        cols = [
            Column(id="c0", values=("red", "crimson", "blue")),
            Column(id="c1", values=("blue", "navy", "red")),
            Column(id="c2", values=("red", "scarlet", "crimson")),
        ]
        return Corpus(cols)

    def ruleset(self):
        return compile_ruleset(
            [
                constraint("emb:toy2d:red", 1.5, 2.0, 0.6, 0.95),
                constraint("emb:toy2d:blue", 1.5, 2.0, 0.6, 0.9),
            ]
        )

    def test_concatenates_in_corpus_order(self):
        reg = build_registry()
        dets = detect_corpus(self.ruleset(), self.corpus(), reg)
        assert [d.column_id for d in dets] == ["c0", "c1"]
        assert {d.value for d in dets} == {"blue", "red"}

    def test_dirty_copy_with_same_ids_is_evaluated_afresh(self):
        # inject_errors keeps column ids: detection on the dirty copy
        # must see the injected value, whatever ran on the clean corpus.
        reg = build_registry()
        ruleset = compile_ruleset([constraint("emb:toy2d:red", 1.5, 2.0, 0.6, 0.9)])
        clean = Corpus([Column(id="c1", values=("red", "crimson", "scarlet"))])
        dirty = Corpus([Column(id="c1", values=("red", "crimson", "zz", "scarlet"))])
        assert detect_corpus(ruleset, ValueIndex(clean), reg) == []
        dets = detect_corpus(ruleset, dirty, reg)
        assert [(d.column_id, d.value_index, d.value) for d in dets] == [("c1", 2, "zz")]

    def test_reports_raw_spelling(self):
        # The index holds "apple" once, first as c0's own cell; c1's
        # " Apple" normalizes to it but is reported as written.
        reg = build_registry()
        ruleset = compile_ruleset([constraint("emb:toy2d:red", 1.5, 2.0, 0.6, 0.9)])
        corpus = Corpus([
            Column(id="c0", values=("apple",)),
            Column(id="c1", values=("red", "crimson", " Apple", "scarlet")),
        ])
        index = ValueIndex(corpus)
        assert index.values.count("apple") == 1
        dets = detect_corpus(ruleset, index, reg)
        assert [(d.column_id, d.value_index, d.value) for d in dets] == [("c1", 2, " Apple")]
        assert "' Apple'" in dets[0].explanation

    def test_shared_cache(self):
        reg = build_registry()
        index = ValueIndex(self.corpus())
        a = detect_corpus(self.ruleset(), index, reg)
        b = detect_corpus(self.ruleset(), index, reg)
        assert a == b == detect_corpus(self.ruleset(), self.corpus(), reg)


class TestReportIO:
    def sample(self):
        return [
            Detection("c0", 2, "blue", 0.95, "sdc-abc", "far away"),
            Detection("c1", 0, "zzz", 0.90, "sdc-def", ""),
        ]

    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "report.jsonl")
        save_report(self.sample(), path)
        assert load_report(path) == self.sample()

    def test_meta_line_written_and_skipped(self, tmp_path):
        path = str(tmp_path / "report.jsonl")
        save_report(self.sample(), path, meta={"store": "store.json"})
        with open(path, "r", encoding="utf-8") as fh:
            first = fh.readline()
        assert '"report-meta"' in first
        assert load_report(path) == self.sample()

    def test_bad_json_line(self, tmp_path):
        path = str(tmp_path / "report.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"kind": "report-meta"}\n')
            fh.write("not json\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_report(path)

    def test_bad_record(self, tmp_path):
        path = str(tmp_path / "report.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"column_id": "c0"}\n')
        with pytest.raises(DataFormatError, match="line 1"):
            load_report(path)
