"""Synthetic error columns and detection-class selection stats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdc.corpus import Column, Corpus, normalize_raw
from sdc.domain_fns import EmbeddingSpace, Registry, make_embedding_fn, make_score_table_fn
from sdc.errors import DataFormatError
from sdc.infer import compile_ruleset, detect_corpus
from sdc.synth import (
    CandidateStats,
    SynthColumn,
    build_candidate_stats,
    build_synthetic_corpus,
    estimate_fpr,
)

from conftest import table
from oracles import (
    build_contingency,
    constraint,
    candidate_stats_loop,
    detection_classes,
    detection_set,
    recall_of,
    survivor,
)


def rule(fn_id, d_in, d_out, m, conf=0.95):
    return constraint(fn_id, d_in, d_out, m, conf)


def assessed(sdc, tab=None):
    """The screening row of ``sdc``."""
    return survivor(sdc.fn_id, sdc.d_in, sdc.d_out, sdc.m, sdc.confidence,
                    tab or table(1, 40, 30, 30))


def base_values(sc):
    """A synthetic column's values with the splice removed."""
    return sc.values[: sc.injected_index] + sc.values[sc.injected_index + 1 :]


class TestSynthColumn:
    def test_splice_roundtrip(self):
        sc = SynthColumn(
            id="syn-000000",
            base_column_id="c0",
            injected_value="weird",
            injected_index=1,
            values=("a", "weird", "b"),
        )
        assert base_values(sc) == ("a", "b")
        assert sc.column().values == sc.values
        assert sc.column().id == "syn-000000"

    def test_splice_at_ends(self):
        head = SynthColumn("s", "c", "x", 0, ("x", "a"))
        tail = SynthColumn("s", "c", "x", 1, ("a", "x"))
        assert base_values(head) == ("a",)
        assert base_values(tail) == ("a",)


class TestBuildSyntheticCorpus:
    def test_deterministic(self, word_corpus):
        a = build_synthetic_corpus(word_corpus, seed=3)
        b = build_synthetic_corpus(word_corpus, seed=3)
        c = build_synthetic_corpus(word_corpus, seed=4)
        assert a == b
        assert a != c

    def test_default_size_is_corpus_size(self, word_corpus):
        out = build_synthetic_corpus(word_corpus, seed=0)
        assert 0 < len(out) <= len(word_corpus)

    def test_explicit_size(self, word_corpus):
        out = build_synthetic_corpus(word_corpus, n=17, seed=0)
        assert len(out) <= 17
        assert build_synthetic_corpus(word_corpus, n=0, seed=0) == []

    def test_needs_two_columns(self):
        lonely = Corpus([Column(id="c0", values=("a", "b"))])
        with pytest.raises(DataFormatError):
            build_synthetic_corpus(lonely)

    def test_negative_n(self, word_corpus):
        with pytest.raises(ValueError):
            build_synthetic_corpus(word_corpus, n=-1)

    def test_splice_consistency(self, word_corpus):
        by_id = {c.id: c for c in word_corpus}
        for sc in build_synthetic_corpus(word_corpus, n=50, seed=1):
            base = by_id[sc.base_column_id]
            # splice removed gives back exactly the base column
            assert base_values(sc) == base.values
            assert 0 <= sc.injected_index <= len(base.values)
            assert sc.values[sc.injected_index] == sc.injected_value
            # the injected value is foreign to the base column
            assert normalize_raw(sc.injected_value) not in set(base.normalized())

    def test_ids_are_sequential_subset(self, word_corpus):
        out = build_synthetic_corpus(word_corpus, n=30, seed=2)
        ks = [int(sc.id.split("-")[1]) for sc in out]
        assert ks == sorted(ks)
        assert len(set(ks)) == len(ks)
        assert all(0 <= k < 30 for k in ks)

    def test_all_draws_skipped_when_columns_share_values(self):
        # Same normalized values everywhere: no donor value is ever
        # foreign, so every draw is skipped.
        corpus = Corpus(
            [
                Column(id="c0", values=("a", "b")),
                Column(id="c1", values=("A", "B")),
                Column(id="c2", values=("a ", " b")),
            ]
        )
        assert build_synthetic_corpus(corpus, seed=0) == []


@pytest.fixture
def reds_fn():
    # distances: red 0.0, crimson 0.1, scarlet 0.2, anything else 1.0
    return make_score_table_fn("reds", {"red": 1.0, "crimson": 0.9, "scarlet": 0.8})


@pytest.fixture
def reds_registry(reds_fn):
    reg = Registry()
    reg.add(reds_fn)
    return reg


class TestDetectionSet:
    def test_detects_foreign_injection(self, reds_registry):
        sc = SynthColumn("syn-000000", "c0", "blue", 2, ("red", "crimson", "blue", "red"))
        got = detection_set(rule("score:reds", 0.3, 0.5, 0.75), [sc], reds_registry)
        assert got == {"syn-000000"}

    def test_injection_breaks_full_coverage(self, reds_registry):
        # At m = 1.0 the injected value itself sits outside d_in, so the
        # pre-condition can never hold on the spliced column.
        sc = SynthColumn("syn-000000", "c0", "blue", 0, ("blue", "red", "red", "red"))
        got = detection_set(rule("score:reds", 0.3, 0.5, 1.0), [sc], reds_registry)
        assert got == set()

    def test_flag_must_hit_injected_value(self, reds_registry):
        # The base column has its own far value; the injected one is
        # in-domain. Triggering elsewhere does not count as detection.
        sc = SynthColumn("syn-000001", "c0", "red", 0, ("red", "crimson", "zzz"))
        got = detection_set(rule("score:reds", 0.3, 0.5, 0.6), [sc], reds_registry)
        assert got == set()

    def test_inner_ball_boundary_is_inclusive(self, reds_registry):
        # scarlet sits exactly at d_in = 0.2 and must count as inside.
        sc = SynthColumn("syn-000002", "c0", "blue", 3, ("red", "scarlet", "scarlet", "blue"))
        got = detection_set(rule("score:reds", 0.2, 0.5, 0.75), [sc], reds_registry)
        assert got == {"syn-000002"}

    def test_outer_ball_boundary_is_strict(self, reds_fn):
        reg = Registry()
        reg.add(reds_fn)
        # injected value at distance exactly d_out is not flagged
        sc = SynthColumn("syn-000003", "c0", "scarlet", 2, ("red", "red", "scarlet"))
        got = detection_set(rule("score:reds", 0.1, 0.2, 0.6), [sc], reg)
        assert got == set()


class TestEstimateFpr:
    def test_ratio(self):
        assert estimate_fpr(table(3, 40, 30, 30), 200) == pytest.approx(0.015)

    def test_zero_triggers(self):
        assert estimate_fpr(table(0, 40, 30, 30), 200) == 0.0

    def test_bad_corpus_size(self):
        with pytest.raises(ValueError):
            estimate_fpr(table(1, 1, 1, 1), 0)


class TestBuildCandidateStats:
    def test_matches_per_candidate_routines(self, word_corpus, registry2d):
        synth = build_synthetic_corpus(word_corpus, n=40, seed=5)
        cands = [
            assessed(rule("emb:toy2d:red", 1.5, 2.0, 0.8, 0.93), table(2, 30, 20, 20)),
            assessed(rule("emb:toy2d:red", 1.5, 9.0, 0.8, 0.94), table(0, 32, 20, 20)),
            assessed(rule("emb:toy2d:blue", 1.5, 2.0, 0.9, 0.95), table(1, 25, 20, 20)),
            assessed(rule("score:reds", 0.3, 0.5, 0.8, 0.96), table(4, 28, 20, 20)),
        ]
        stats = build_candidate_stats(cands, synth, len(word_corpus), registry2d)
        assert [s.sdc_id for s in stats] == [c.id for c in cands]
        position = {sc.id: j for j, sc in enumerate(synth)}
        for st, cand in zip(stats, cands):
            assert st.detected == frozenset(
                position[sid] for sid in detection_set(cand, synth, registry2d)
            ), cand.id
            assert st.fpr == pytest.approx(
                estimate_fpr(cand.table, len(word_corpus))
            )
            assert st.confidence == cand.confidence

    def test_empty_inputs(self, word_corpus, registry2d):
        assert build_candidate_stats([], [], len(word_corpus), registry2d) == []

    def test_precondition_agrees_with_detection_and_contingency(self):
        # 7 of 100 values inside at m = 0.07: 7/100 >= 0.07 holds in
        # floating point but 7 >= 0.07 * 100 does not. Selection stats,
        # detection and the contingency table must take the same side.
        reg = Registry()
        reg.add(make_score_table_fn("t", {"in": 1.0, "mid": 0.5}))
        values = ("in",) * 7 + ("mid",) * 92 + ("far",)
        sc = SynthColumn("syn-000000", "c0", "far", 99, values)
        sdc = rule("score:t", 0.1, 0.9, 0.07)
        stats = build_candidate_stats([assessed(sdc)], [sc], 1, reg)
        # A candidate that detects nothing yields no class.
        assert stats == detection_classes(candidate_stats_loop([assessed(sdc)], [sc], 1, reg))
        detected = bool(detection_set(sdc, [sc], reg))
        flagged = bool(detect_corpus(compile_ruleset([sdc]), [sc.column()], reg))
        covered = build_contingency(sdc, [sc.column()], reg).coverage == 1
        assert bool(stats) == detected == flagged == covered


CLASS_GRID = st.tuples(
    st.sampled_from(["emb:toy2d:red", "emb:toy2d:blue", "score:reds"]),
    st.sampled_from([0.1, 0.3, 1.0, 1.5]),
    st.sampled_from([0.0, 0.5, 2.0, 9.0]),
    st.sampled_from([0.5, 0.8, 1.0]),
    st.sampled_from([0.9, 0.95]),
    st.sampled_from([0, 2]),
)


class TestDetectionClasses:
    def test_interchangeable_candidates_share_a_class(self, word_corpus, registry2d):
        synth = build_synthetic_corpus(word_corpus, n=40, seed=5)
        cands = [
            assessed(rule("emb:toy2d:red", 1.5, 2.0, 0.8, 0.93)),
            # Same hits, FPR and confidence: a wider outer ball still
            # flags every injected blue word.
            assessed(rule("emb:toy2d:red", 1.5, 3.0, 0.8, 0.93)),
            # Same hits at another confidence: a class of its own.
            assessed(rule("emb:toy2d:red", 1.5, 4.0, 0.8, 0.94)),
            # Flags nothing: no injected value is that far.
            assessed(rule("emb:toy2d:red", 1.5, 99.0, 0.8, 0.93)),
        ]
        stats = build_candidate_stats(cands, synth, len(word_corpus), registry2d)
        assert [(s.sdc_id, s.members) for s in stats] == [
            (cands[1].id, 2), (cands[2].id, 1)
        ]
        assert stats[0].detected == stats[1].detected != frozenset()
        assert stats == detection_classes(
            candidate_stats_loop(cands, synth, len(word_corpus), registry2d)
        )

    @given(st.lists(CLASS_GRID, max_size=12), st.integers(0, 50), st.integers(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_classes_of_the_per_survivor_stats(self, grid, seed, n):
        # The conftest space, corpus and registry, built per example.
        space = EmbeddingSpace(2, {"red": [0, 0], "crimson": [0, 1], "scarlet": [1, 0],
                                   "blue": [10, 0], "navy": [10, 1], "azure": [11, 0]},
                               id="toy2d")
        reds, blues = ("red", "crimson", "scarlet"), ("blue", "navy", "azure")
        word_corpus = Corpus([Column(id=f"c{i}", values=(blues if i % 2 else reds) * 4)
                              for i in range(6)])
        reg = Registry()
        reg.add_space(space)
        reg.add(make_embedding_fn(space, "red"))
        reg.add(make_embedding_fn(space, "blue"))
        reg.add(make_score_table_fn("reds", {"red": 1.0, "crimson": 0.9, "scarlet": 0.8}))
        synth = build_synthetic_corpus(word_corpus, n=n, seed=seed)
        cands = [
            assessed(rule(fn_id, d_in, d_in + extra, m, conf), table(ct, 30, 20, 20))
            for fn_id, d_in, extra, m, conf, ct in grid
        ]
        got = build_candidate_stats(cands, synth, len(word_corpus), reg)
        assert got == detection_classes(candidate_stats_loop(cands, synth, len(word_corpus), reg))


class TestRecallOf:
    def test_union_size(self):
        s1 = CandidateStats("a", frozenset({1, 2}), 0.0, 0.9)
        s2 = CandidateStats("b", frozenset({2, 3}), 0.0, 0.9)
        assert recall_of([]) == 0
        assert recall_of([s1]) == 2
        assert recall_of([s1, s2]) == 3
